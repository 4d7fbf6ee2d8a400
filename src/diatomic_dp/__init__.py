"""Tabular dynamic programming on two-atom return models.

Each public name is imported from its submodule on first access (PEP 562),
so ``import diatomic_dp`` alone loads neither numpy nor any solver.
"""

import importlib

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "control": "ControlResult optimality_certificate risky_bellman_apply safe_bellman_apply svi",
        "dbo": "DistFunction dbo_apply dbo_iterate",
        "diatomic": "DoubleQ SpeSolve alpha_coherence diatomic_bellman_apply spe",
        "dist": "Diatomic DiscreteDist avar_left avar_left_dual avar_right expectation mix "
        "project_w2_diatomic pushforward_affine quantile wasserstein",
        "mdp": "Mdp Policy QSolve bellman_policy_op evaluate_policy is_balanced load_mdp "
        "optimal_action_sets reduce_to_balanced save_mdp state_values value_iteration",
        "returns": "return_avars",
        "risky_lp": "build_risky_dual build_risky_primal duality_gap_check",
        "robust": "AugmentedKernel bavar_vs_avar_gap coherence_axioms_check in_uncertainty_set "
        "permutation_kernel risk_neutral_kernel visit_orders worst_best_case",
        "simplex": "LpProblem LpSolution solve",
    }.items()
    for name in names.split()
}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})

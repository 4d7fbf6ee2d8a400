"""Safe and risky control over balanced MDPs.

When every admissible action is optimal in expectation, maximizing the
expected return no longer distinguishes policies; the remaining freedom is
which tail to favor. Safe control maximizes the left tail mean of the
return, risky control maximizes the right one. Both reduce to a value
iteration on state vectors because the two tails are tied together by
alpha * v1 + (1 - alpha) * v2 = v_star at every admissible entry.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .diatomic import CHECK_SPE_TOL, CHECK_TOL, _check_alpha, spe
from .dist import left_tail_weights
from .errors import DomainError
from .mdp import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    REFERENCE_TOL,
    Mdp,
    Policy,
    SweepRun,
    _require_balanced,
    operator_sweeps,
    optimal_action_sets,
    run_sweeps,
)


def _select(q: np.ndarray, mask: np.ndarray, risky: bool) -> np.ndarray:
    """Per state, the lowest (risky) or highest (safe) admissible entry of ``q``."""
    if risky:
        return np.where(mask, q, np.inf).min(axis=1)
    return np.where(mask, q, -np.inf).max(axis=1)


def _tail_q_table(mdp: Mdp, v1: np.ndarray, v2: np.ndarray, alpha: float) -> np.ndarray:
    """Left tail mean at ``alpha`` of each entry's 2S-particle target cloud.

    Successor y contributes mass alpha * P(y|x,a) at r(x,a,y) + gamma*v1(y)
    and mass (1-alpha) * P(y|x,a) at the v2 analogue.
    """
    vals = np.concatenate(
        [
            mdp.reward + mdp.gamma * v1[None, None, :],
            mdp.reward + mdp.gamma * v2[None, None, :],
        ],
        axis=2,
    )
    wts = np.concatenate([alpha * mdp.transition, (1.0 - alpha) * mdp.transition], axis=2)
    order = np.argsort(vals, axis=2, kind="stable")
    v = np.take_along_axis(vals, order, axis=2)
    w = np.take_along_axis(wts, order, axis=2)
    return (left_tail_weights(w, alpha) * v).sum(axis=2) / alpha


@dataclass(frozen=True)
class ControlStep:
    """One sweep's output: the left table and the reduced state vectors."""

    q1: np.ndarray
    v1: np.ndarray
    v2: np.ndarray


def _control_step(mdp: Mdp, v1, v2, alpha: float, risky: bool, v_star=None) -> ControlStep:
    _check_alpha(alpha)
    v1 = np.asarray(v1, dtype=np.float64)
    v2 = np.asarray(v2, dtype=np.float64)
    if v_star is None:
        _, v_star = _require_balanced(mdp)
    v_star = np.asarray(v_star, dtype=np.float64)
    q1 = _tail_q_table(mdp, v1, v2, alpha)
    v1_next = _select(q1, mdp.action_mask, risky)
    return ControlStep(q1, v1_next, (v_star - alpha * v1_next) / (1.0 - alpha))


def safe_bellman_apply(mdp: Mdp, v1, v2, alpha: float, v_star=None) -> ControlStep:
    """One safe sweep: best-case selection of the worst-tail table.

    The MDP must be balanced; pass v_star to skip the internal optimal
    solve when calling in a loop.
    """
    return _control_step(mdp, v1, v2, alpha, False, v_star)


def risky_bellman_apply(mdp: Mdp, v1, v2, alpha: float, v_star=None) -> ControlStep:
    """One risky sweep: the right tail is maximized by minimizing the left."""
    return _control_step(mdp, v1, v2, alpha, True, v_star)


@dataclass(frozen=True)
class ControlResult:
    mode: str
    alpha: float
    v1: np.ndarray
    v2: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    action_sets: tuple
    v_star: np.ndarray
    residual: float
    iterations: int


class ControlSweeps:
    """Safe or risky sweeps from the zero vector on a balanced MDP.

    Iterating yields ``(ControlStep, residual)`` per sweep, the residual
    being the sup-norm change of v1; ``run_sweeps`` decides when to stop,
    and ``result`` extracts the control solution from the last sweep.
    """

    def __init__(self, mdp: Mdp, alpha: float, mode: str = "safe"):
        _check_alpha(alpha)
        if mode not in ("safe", "risky"):
            raise DomainError(f"mode must be 'safe' or 'risky', got {mode!r}")
        self.mdp = mdp
        self.alpha = alpha
        self.mode = mode
        self.risky = mode == "risky"
        self.q_star, self.v_star = _require_balanced(mdp)

    def __iter__(self):
        v1 = np.zeros(self.mdp.n_states)
        # no sweep has produced a left table yet
        start = ControlStep(None, v1, (self.v_star - self.alpha * v1) / (1.0 - self.alpha))
        return operator_sweeps(
            lambda prev: _control_step(
                self.mdp, prev.v1, prev.v2, self.alpha, self.risky, self.v_star
            ),
            start,
            lambda new, old: float(np.abs(new.v1 - old.v1).max()),
        )

    def result(self, run: SweepRun) -> ControlResult:
        """The control solution at the last sweep of ``run``.

        q2 reports the complementary tail (v_star - alpha * q1) / (1 - alpha),
        which is the right tail mean exactly on admissible entries. A state's
        action set holds the admissible actions whose q1 is within
        ``TIE_TOL`` of the selected one.
        """
        step = run.value
        q1 = step.q1
        return ControlResult(
            mode=self.mode,
            alpha=self.alpha,
            v1=step.v1,
            v2=step.v2,
            q1=q1,
            q2=(self.q_star - self.alpha * q1) / (1.0 - self.alpha),
            # the risky pick is the lowest q1, i.e. the highest -q1
            action_sets=optimal_action_sets(self.mdp, -q1 if self.risky else q1),
            v_star=self.v_star,
            residual=run.residual,
            iterations=run.iterations,
        )


def svi(
    mdp: Mdp,
    alpha: float,
    mode: str = "safe",
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> ControlResult:
    """Tail-sensitive value iteration from the zero vector.

    Convergence is geometric whenever gamma * max(1, alpha / (1 - alpha))
    is below one; for alpha past that point the sweep can expand and the
    iteration is only attempted, with ConvergenceError on exhaustion.
    See ``ControlSweeps.result`` for q2 and the action sets.
    """
    sweeps = ControlSweeps(mdp, alpha, mode)
    run = run_sweeps(sweeps, tol, max_iter).require_converged(f"{mode} control")
    return sweeps.result(run)


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of checking a control solution against explicit policies.

    max_violation is the largest amount by which some deterministic policy
    beats the claimed optimum (positive means the claim failed); witness is
    that policy's choice vector. attained_gap measures how closely the
    greedy policy reproduces the claimed value.
    """

    ok: bool
    mode: str
    max_violation: float
    attained_gap: float
    witness: tuple | None
    n_checked: int


def optimality_certificate(
    mdp: Mdp,
    alpha: float,
    mode: str = "safe",
    tol: float = CHECK_TOL,
    enumeration_cap: int = 4096,
    n_samples: int = 64,
    seed: int = 0,
) -> CertificateReport:
    """Verify a control solution by evaluating deterministic policies.

    Every deterministic admissible policy gets a full two-sided evaluation;
    its own left value at each state must not beat the claimed optimum
    (exceed it for safe, undercut it for risky). All policies are
    enumerated when there are at most ``enumeration_cap``, otherwise a
    seeded sample is drawn and the greedy policy is always included.
    """
    result = svi(mdp, alpha, mode=mode, tol=REFERENCE_TOL)
    risky = mode == "risky"
    greedy = tuple(group[0] for group in result.action_sets)

    total = 1
    for group in mdp.action_sets:
        total *= len(group)
    if total <= enumeration_cap:
        candidates = list(itertools.product(*mdp.action_sets))
    else:
        rng = np.random.default_rng(seed)
        candidates = [greedy]
        for _ in range(n_samples):
            candidates.append(
                tuple(int(group[rng.integers(len(group))]) for group in mdp.action_sets)
            )

    # greedy is always among the candidates: group[0] in the enumeration
    # branch, explicitly prepended in the sampled branch
    worst = -np.inf
    witness = None
    attained = np.inf
    for choices in candidates:
        pi = Policy.deterministic(mdp, choices)
        dq = spe(mdp, pi, alpha, tol=CHECK_SPE_TOL).double_q
        own = dq.q1[np.arange(mdp.n_states), list(choices)]
        violation = float((result.v1 - own).max() if risky else (own - result.v1).max())
        if violation > worst:
            worst = violation
            witness = choices
        if choices == greedy:
            attained = float(np.abs(own - result.v1).max())
    ok = worst <= tol and attained <= tol
    return CertificateReport(
        ok=ok,
        mode=mode,
        max_violation=worst,
        attained_gap=attained,
        witness=witness,
        n_checked=len(candidates),
    )

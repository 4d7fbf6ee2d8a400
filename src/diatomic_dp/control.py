"""Safe and risky control over balanced MDPs.

When every admissible action is optimal in expectation, maximizing the
expected return no longer distinguishes policies; the remaining freedom is
which tail to favor. Safe control maximizes the left tail mean of the
return, risky control maximizes the right one. Both apply the projected
two-tail operator of policy evaluation with one greedy action per state,
on state vectors (v1, v2): the admissible action with the highest (safe)
or lowest (risky) left tail mean. On a balanced MDP the tails are tied by
alpha * v1 + (1 - alpha) * v2 = v_star, so the lowest left tail is the
highest right one. ``svi`` runs ``diatomic``'s rounds of order iteration
on the same particle table, freezing each state's picked action along
with the particle orders (Hoffman and Karp 1966).
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import diatomic
from .diatomic import CHECK_SPE_TOL, _check_alpha, _Particles, _rounds, _stack_solves, _state_table
from .errors import DomainError, ResourceError
from .mdp import (
    DEFAULT_TOL,
    REFERENCE_TOL,
    Mdp,
    SweepRun,
    _require_balanced,
    optimal_action_sets,
    run_sweeps,
)

ENUMERATION_CAP = 4096  # most deterministic policies optimality_certificate enumerates


@dataclass(frozen=True)
class ControlStep:
    """One sweep's output: both tail tables and the reduced state vectors."""

    q1: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    q2: np.ndarray


def _control_step(mdp: Mdp, v1, v2, alpha: float, mode: str, v_star=None) -> ControlStep:
    rounds = ControlRounds(mdp, alpha, mode)
    out = rounds.table().sweep(np.concatenate([v1, v2]).astype(np.float64))
    step = rounds.step(out, rounds.pick(out))
    v_star = rounds.v_star if v_star is None else np.asarray(v_star, dtype=np.float64)
    return dataclasses.replace(step, v2=(v_star - alpha * step.v1) / (1.0 - alpha))


def safe_bellman_apply(mdp: Mdp, v1, v2, alpha: float, v_star=None) -> ControlStep:
    """One safe sweep: best-case selection of the worst-tail table.

    v2 comes back as (v_star - alpha * v1) / (1 - alpha), the right tail
    at the picked action whenever the input's tails average to v_star. The
    MDP must be balanced; v_star defaults to its optimal state values.
    """
    return _control_step(mdp, v1, v2, alpha, "safe", v_star)


def risky_bellman_apply(mdp: Mdp, v1, v2, alpha: float, v_star=None) -> ControlStep:
    """One risky sweep: the right tail is maximized by minimizing the left."""
    return _control_step(mdp, v1, v2, alpha, "risky", v_star)


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


class ControlRounds:
    """Safe or risky rounds on a balanced MDP, from (v1, v2) = (0, v_star / (1 - alpha)).

    The particle table's unknowns are the states: entry (x, a) moves mass
    P(y|x,a) onto state y, and the entry behind state x is its admissible
    action with the highest (safe) or lowest (risky) left tail mean.
    Iterating yields ``(ControlStep, residual)`` per round of
    ``diatomic._rounds``, the residual being the sup-norm change of
    (v1, v2) in the round's certificate sweep; ``run_sweeps`` decides when
    to stop, and ``result`` extracts the control solution from the last round.
    """

    def __init__(self, mdp: Mdp, alpha: float, mode: str = "safe"):
        _check_alpha(alpha)
        if mode not in ("safe", "risky"):
            raise DomainError(f"mode must be 'safe' or 'risky', got {mode!r}")
        self.mdp, self.alpha, self.mode, self.risky = mdp, alpha, mode, mode == "risky"
        _, self.v_star = _require_balanced(mdp)

    def table(self) -> _Particles:
        return _Particles(self.mdp, _state_table(self.mdp), self.alpha)

    def pick(self, out: np.ndarray) -> np.ndarray:
        q1 = out[: out.size // 2].reshape(self.mdp.action_mask.shape)
        # the risky pick is the lowest q1, i.e. the highest -q1
        q1 = np.where(self.mdp.action_mask, -q1 if self.risky else q1, -np.inf)
        return np.arange(q1.shape[0]) * q1.shape[1] + q1.argmax(axis=1)

    def step(self, out: np.ndarray, picked: np.ndarray) -> ControlStep:
        q1, q2 = out.reshape(2, *self.mdp.action_mask.shape)
        return ControlStep(q1, q1.ravel()[picked], q2.ravel()[picked], q2)

    def __iter__(self):
        start = np.concatenate([np.zeros(self.mdp.n_states), self.v_star / (1.0 - self.alpha)])
        return _rounds(self.table(), start, self.pick, lambda r: self.step(r.out, r.picked), 0.0)

    def result(self, run: SweepRun) -> ControlResult:
        """The control solution at the last round of ``run``.

        q1 and q2 are the certificate sweep's left and right tail tables. A
        state's action set holds the admissible actions whose q1 is within
        ``TIE_TOL`` of the selected one.
        """
        step = run.value
        return ControlResult(
            mode=self.mode,
            alpha=self.alpha,
            v1=step.v1,
            v2=step.v2,
            q1=step.q1,
            q2=step.q2,
            action_sets=optimal_action_sets(self.mdp, -step.q1 if self.risky else step.q1),
            v_star=self.v_star,
            residual=run.residual,
            iterations=run.iterations,
        )


def svi(mdp: Mdp, alpha: float, mode: str = "safe", tol: float = DEFAULT_TOL) -> ControlResult:
    """Safe or risky control by rounds of order iteration, at most ``mdp.DEFAULT_MAX_ITER``.

    Each round freezes every entry's particle order and each state's picked
    action, solves the pair that fixes, and certifies it with one sweep
    whose change of (v1, v2) is the residual. A round whose change is above
    gamma times the last one takes a plain sweep instead. That sweep
    contracts by a factor of at most gamma * max(1, alpha / (1 - alpha)),
    so past alpha = 1/2 convergence rests on the rounds, with
    ConvergenceError on exhaustion.
    See ``ControlRounds.result`` for q2 and the action sets.
    """
    rounds = ControlRounds(mdp, alpha, mode)
    run = run_sweeps(rounds, tol).require_converged(f"{mode} control", "rounds")
    return rounds.result(run)


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


def optimality_certificate(mdp: Mdp, alpha: float, mode: str = "safe") -> CertificateReport:
    """Verify a control solution by evaluating every deterministic policy.

    Every deterministic admissible policy gets a full two-sided evaluation,
    all of them stacked as ``spe_stack`` stacks them, on the one state table
    they share; its own left value at each state must not beat the claimed
    optimum (exceed it for safe, undercut it for risky) by more than
    ``diatomic.CHECK_TOL``. More than ``ENUMERATION_CAP``
    policies raise ResourceError before any solve.
    """
    total = math.prod(len(group) for group in mdp.action_sets)
    if total > ENUMERATION_CAP:
        raise ResourceError(
            f"{total} deterministic policies exceed the enumeration cap of {ENUMERATION_CAP}"
        )
    result = svi(mdp, alpha, mode=mode, tol=REFERENCE_TOL)
    risky = mode == "risky"
    # the greedy policy is among the candidates: group[0] of each action set
    greedy = tuple(group[0] for group in result.action_sets)
    candidates = list(itertools.product(*mdp.action_sets))
    table, first = _state_table(mdp), np.arange(mdp.n_states) * mdp.n_actions

    def played(b):  # every candidate's table is the state table; b plays (y, choices[y])
        return table, first + candidates[b]

    solves = _stack_solves(mdp, len(candidates), played, alpha, CHECK_SPE_TOL)
    worst = -np.inf
    witness = None
    attained = np.inf
    for choices, sol in zip(candidates, solves):
        own = sol.double_q.q1[np.arange(mdp.n_states), list(choices)]
        violation = float((result.v1 - own).max() if risky else (own - result.v1).max())
        if violation > worst:
            worst = violation
            witness = choices
        if choices == greedy:
            attained = float(np.abs(own - result.v1).max())
    ok = worst <= diatomic.CHECK_TOL and attained <= diatomic.CHECK_TOL
    return CertificateReport(
        ok=ok,
        mode=mode,
        max_violation=worst,
        attained_gap=attained,
        witness=witness,
        n_checked=len(candidates),
    )

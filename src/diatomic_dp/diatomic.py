"""Two-sided tail-mean value functions and their Bellman recursion.

A value pair (q1, q2) summarizes each entry's return distribution by its
left tail mean at level alpha and its right tail mean at level 1 - alpha.
The recursion below is the expected Bellman operator composed with the
two-point distribution projection, carried out directly on the pair so no
atom lists are ever materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .dist import left_tail_weights, right_tail_weights
from .errors import DomainError
from .mdp import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    Mdp,
    Policy,
    check_policy,
    operator_sweeps,
    run_sweeps,
)

ORDER_TOL = 1e-9
CHECK_TOL = 1e-8  # default verdict tolerance of the coherence, certificate and axiom checks
CHECK_SPE_TOL = 1e-11  # fixed-point tolerance of the spe solves inside those checks


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"tail level must lie strictly inside (0, 1), got {alpha}")


@dataclass(frozen=True)
class DoubleQ:
    """Left and right tail-mean tables at a common level.

    q1[x, a] is the mean of the worst alpha-fraction of outcomes, q2[x, a]
    the mean of the best (1 - alpha)-fraction, so q1 <= q2 entrywise.
    """

    q1: np.ndarray
    q2: np.ndarray
    alpha: float

    def __init__(self, q1, q2, alpha: float):
        _check_alpha(alpha)
        q1 = np.asarray(q1, dtype=np.float64)
        q2 = np.asarray(q2, dtype=np.float64)
        if q1.shape != q2.shape or q1.ndim != 2:
            raise DomainError(f"mismatched table shapes {q1.shape} and {q2.shape}")
        if not (np.isfinite(q1).all() and np.isfinite(q2).all()):
            raise DomainError("tail-mean tables must be finite")
        gap = float((q1 - q2).max())
        if gap > ORDER_TOL:
            raise DomainError(f"left tail mean exceeds right tail mean by {gap}")
        object.__setattr__(self, "q1", q1)
        object.__setattr__(self, "q2", q2)
        object.__setattr__(self, "alpha", float(alpha))
        q1.flags.writeable = False
        q2.flags.writeable = False

    @staticmethod
    def zeros(mdp: Mdp, alpha: float) -> "DoubleQ":
        shape = (mdp.n_states, mdp.n_actions)
        return DoubleQ(np.zeros(shape), np.zeros(shape), alpha)

    @property
    def mean(self) -> np.ndarray:
        """The plain expected table recovered from the two tails."""
        return self.alpha * self.q1 + (1.0 - self.alpha) * self.q2


def diatomic_bellman_apply(mdp: Mdp, policy: Policy, dq: DoubleQ) -> DoubleQ:
    """One sweep of the projected distributional operator on a value pair.

    Every entry (x, a) gets 2*S*A particles: successor entry (y, b) under
    the policy contributes mass alpha * P(y|x,a) * pi(b|y) at value
    r(x,a,y) + gamma * q1(y,b), and the complementary mass at the q2 value.
    The new pair is the left/right tail mean of that particle cloud.
    Zero-mass particles are kept; the cumulative clamps ignore them exactly.
    """
    check_policy(mdp, policy)
    s, a_n = mdp.n_states, mdp.n_actions
    m = s * a_n
    alpha = dq.alpha
    link = np.einsum("xay,yb->xayb", mdp.transition, policy.probs).reshape(s, a_n, m)
    shifted = mdp.reward[:, :, :, None]
    vals = np.concatenate(
        [
            (shifted + mdp.gamma * dq.q1[None, None, :, :]).reshape(s, a_n, m),
            (shifted + mdp.gamma * dq.q2[None, None, :, :]).reshape(s, a_n, m),
        ],
        axis=2,
    )
    wts = np.concatenate([alpha * link, (1.0 - alpha) * link], axis=2)

    order = np.argsort(vals, axis=2, kind="stable")
    v = np.take_along_axis(vals, order, axis=2)
    w = np.take_along_axis(wts, order, axis=2)
    q1 = (left_tail_weights(w, alpha) * v).sum(axis=2) / alpha
    q2 = (right_tail_weights(w, 1.0 - alpha) * v).sum(axis=2) / (1.0 - alpha)
    return DoubleQ(q1, q2, alpha)


@dataclass(frozen=True)
class SpeSolve:
    """Fixed-point solve output for the value-pair recursion."""

    double_q: DoubleQ
    residual: float
    iterations: int
    history: tuple[float, ...] | None = None


def _pair_change(new: DoubleQ, old: DoubleQ) -> float:
    return float(max(np.abs(new.q1 - old.q1).max(), np.abs(new.q2 - old.q2).max()))


def pair_sweeps(mdp: Mdp, policy: Policy, alpha: float) -> Iterator[tuple[DoubleQ, float]]:
    """Sweeps of the projected operator from the zero pair; residuals span both tables."""
    check_policy(mdp, policy)
    return operator_sweeps(
        lambda dq: diatomic_bellman_apply(mdp, policy, dq), DoubleQ.zeros(mdp, alpha), _pair_change
    )


def spe(
    mdp: Mdp,
    policy: Policy,
    alpha: float,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    record_history: bool = False,
) -> SpeSolve:
    """Iterate the projected operator from the zero pair to its fixed point.

    The operator is a gamma-contraction in the sup norm over both tables,
    so the iteration converges geometrically from any start; zero is the
    conventional one. Residual is the sup-norm change of the last sweep.
    """
    history: list[float] = []
    run = run_sweeps(
        pair_sweeps(mdp, policy, alpha),
        tol,
        max_iter,
        on_sweep=(lambda it, dq, residual: history.append(residual)) if record_history else None,
    ).require_converged("value pair")
    return SpeSolve(
        run.value, run.residual, run.iterations, tuple(history) if record_history else None
    )


@dataclass(frozen=True)
class CoherenceReport:
    """Whether a policy's value pair is constant on each state's support.

    max_spread is the largest within-support range over states and both
    tables; witness names (state, action_low, action_high) for that range.
    """

    ok: bool
    max_spread: float
    witness: tuple[int, int, int] | None


def alpha_coherence(
    mdp: Mdp,
    policy: Policy,
    alpha: float,
    tol: float = CHECK_TOL,
    double_q: DoubleQ | None = None,
) -> CoherenceReport:
    """Check that both tail-mean tables are flat across each support set.

    Deterministic policies pass trivially (singleton supports). Pass a
    precomputed fixed point as double_q to skip the solve.
    """
    check_policy(mdp, policy)
    if double_q is None:
        double_q = spe(mdp, policy, alpha).double_q
    worst = 0.0
    witness = None
    for x in range(mdp.n_states):
        sup = policy.support(x)
        for table in (double_q.q1, double_q.q2):
            row = table[x, sup]
            spread = float(row.max() - row.min())
            if spread > worst:
                worst = spread
                witness = (x, int(sup[np.argmin(row)]), int(sup[np.argmax(row)]))
    return CoherenceReport(ok=worst <= tol, max_spread=worst, witness=witness)

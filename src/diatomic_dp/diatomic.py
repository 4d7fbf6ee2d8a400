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
from .errors import DomainError, ResourceError
from .mdp import DEFAULT_MAX_ITER, DEFAULT_TOL, Mdp, Policy, check_policy, run_sweeps

ORDER_TOL = 1e-9
CHECK_TOL = 1e-8  # default verdict tolerance of the coherence, certificate and axiom checks
CHECK_SPE_TOL = 1e-11  # fixed-point tolerance of the spe solves inside those checks
# largest dense particle count 2(SA)^2: one particle array of the dense layout,
# half the (2SA)^2 system a round solves
PARTICLE_CAP = 2**27
_CHUNK = 2**16  # particles per chunk of rows when a round fills its linear system


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


def _check_size(mdp: Mdp) -> None:
    """ResourceError unless the dense particle count 2(SA)^2 is within PARTICLE_CAP."""
    dense = 2 * (mdp.n_states * mdp.n_actions) ** 2
    if dense > PARTICLE_CAP:
        raise ResourceError(
            f"{mdp.n_states} states x {mdp.n_actions} actions give {dense} particle "
            f"slots, over the cap of {PARTICLE_CAP}"
        )


class _Particles:
    """Every entry's particle cloud, in a padded (S*A, K) layout built once per solve.

    Only entries the policy plays, pi(b|y) > 0, are particle sources, so a
    pair is carried as the stacked vector q = (q1, q2) over those entries
    (``played`` indexes them in the stacked (q1, q2) of all 2SA entries).
    Entry e = (x, a) lists its successors (y, b) with P(y|x,a) * pi(b|y) > 0
    first and pads to the widest entry with zero-mass played successors,
    so no two particles of one entry share a source. Each successor gives
    two particles: mass alpha * P * pi at r(x,a,y) + gamma * q1(y,b) and the
    complementary mass at the q2 value. Every sweep leaves each entry's
    particles in the order it sorted them, so the next sort starts nearly
    sorted and ``solve`` reads the order from the table.
    """

    def __init__(self, mdp: Mdp, policy: Policy, alpha: float):
        s, a_n = mdp.n_states, mdp.n_actions
        m = s * a_n
        sources = np.flatnonzero(policy.probs.ravel() > 0.0)
        k = sources.size
        link = (mdp.transition[:, :, :, None] * policy.probs[None, None, :, :]).reshape(m, m)
        link = link[:, sources]
        width = int(np.count_nonzero(link, axis=1).max())
        succ = np.argsort(link == 0.0, axis=1, kind="stable")[:, :width]
        mass = np.take_along_axis(link, succ, axis=1)
        reward = np.take_along_axis(mdp.reward.reshape(m, s), sources[succ] // a_n, axis=1)
        self.shape, self.gamma, self.alpha = (s, a_n), mdp.gamma, alpha
        self.rows = np.arange(m)[:, None]
        self.sources = sources
        self.played = np.concatenate([sources, sources + m])
        self.src = np.concatenate([succ, succ + k], axis=1).astype(np.int32)
        self.reward = np.concatenate([reward, reward], axis=1)
        self.mass = np.concatenate([alpha * mass, (1.0 - alpha) * mass], axis=1)
        self.tails = ((left_tail_weights, alpha), (right_tail_weights, 1.0 - alpha))

    def sweep(self, q: np.ndarray) -> np.ndarray:
        """The operator at the played pair q, as the stacked pair over all 2SA entries."""
        vals = self.reward + self.gamma * q[self.src]
        at = (self.rows, np.argsort(vals, axis=1, kind="stable"))
        vals = vals[at]
        self.src = self.src[at]
        self.reward = self.reward[at]
        self.mass = self.mass[at]
        del at  # the sort order goes before the tail-weight temporaries: lower peak memory
        return np.concatenate(
            [(tail(self.mass, level) * vals).sum(axis=1) / level for tail, level in self.tails]
        )

    def solve(self) -> np.ndarray:
        """The fixed point of the affine map that the last sweep's order fixes.

        With every entry's order frozen, the operator on the played pair is
        q -> c + gamma M q with M row-stochastic; this solves (I - gamma M) q = c.
        The rows are filled in chunks of about _CHUNK particles, so the
        temporaries stay small beside the matrix.
        """
        k = self.sources.size
        n = 2 * k
        a = np.zeros((n, n))
        c = np.empty(n)
        step = max(1, _CHUNK // self.src.shape[1])
        for lo in range(0, k, step):
            rows = self.sources[lo : lo + step]
            i = np.arange(lo, lo + rows.size)
            mass, reward = self.mass[rows], self.reward[rows]
            cells = self.src[rows] + (i * n)[:, None]
            for block, (tail, level) in enumerate(self.tails):
                w = tail(mass, level) / level
                c[block * k + i] = (w * reward).sum(axis=1)
                np.put(a, cells + block * k * n, -self.gamma * w)
        a.reshape(-1)[:: n + 1] += 1.0
        return np.linalg.solve(a, c)

    def pair(self, out: np.ndarray) -> DoubleQ:
        m = out.size // 2
        return DoubleQ(out[:m].reshape(self.shape), out[m:].reshape(self.shape), self.alpha)


def diatomic_bellman_apply(mdp: Mdp, policy: Policy, dq: DoubleQ) -> DoubleQ:
    """One sweep of the projected distributional operator on a value pair.

    Every entry (x, a) sorts the particles of its successor entries (y, b)
    with P(y|x,a) * pi(b|y) > 0: mass alpha * P(y|x,a) * pi(b|y) at value
    r(x,a,y) + gamma * q1(y,b), and the complementary mass at the q2 value.
    The new pair is the left/right tail mean of that particle cloud.
    """
    check_policy(mdp, policy)
    _check_size(mdp)
    cloud = _Particles(mdp, policy, dq.alpha)
    return cloud.pair(cloud.sweep(np.concatenate([dq.q1.ravel(), dq.q2.ravel()])[cloud.played]))


@dataclass(frozen=True)
class SpeSolve:
    """Fixed-point solve output for the value-pair recursion; iterations counts rounds."""

    double_q: DoubleQ
    residual: float
    iterations: int
    history: tuple[float, ...] | None = None


def _rounds(cloud: _Particles) -> Iterator[tuple[DoubleQ, float]]:
    def certify(point):
        out = cloud.sweep(point)
        return out, float(np.abs(out[cloud.played] - point).max())

    out, residual = certify(np.zeros(cloud.played.size))
    while True:
        last = out
        out, new_residual = certify(cloud.solve())
        if not new_residual <= cloud.gamma * residual:  # also catches a NaN candidate
            out, new_residual = certify(last[cloud.played])
        residual = new_residual
        yield cloud.pair(out), residual


def pair_rounds(mdp: Mdp, policy: Policy, alpha: float) -> Iterator[tuple[DoubleQ, float]]:
    """Rounds of order iteration on the projected operator, from the zero pair.

    A round freezes every entry's particle order at the current pair,
    solves the affine map that order fixes for its fixed point, and sweeps
    the operator once there as the certificate: it yields that sweep's
    output and change. If the change is above gamma times the previous
    round's, the round takes a plain sweep from the previous output
    instead, so residuals contract by at least gamma per round.
    """
    check_policy(mdp, policy)
    _check_alpha(alpha)
    _check_size(mdp)
    return _rounds(_Particles(mdp, policy, alpha))


def spe(
    mdp: Mdp,
    policy: Policy,
    alpha: float,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    record_history: bool = False,
) -> SpeSolve:
    """Solve the projected operator's fixed point by rounds of order iteration.

    The operator is a gamma-contraction in the sup norm over both tables,
    so its fixed point is unique. Residual is the change of the last
    round's certificate sweep on the entries the policy plays (the others
    are read off those in the sweep), and the returned pair is that
    sweep's output, within gamma * residual / (1 - gamma) of the fixed
    point everywhere; max_iter counts rounds.
    """
    history: list[float] = []
    run = run_sweeps(
        pair_rounds(mdp, policy, alpha),
        tol,
        max_iter,
        on_sweep=(lambda it, dq, residual: history.append(residual)) if record_history else None,
    ).require_converged("value pair", "rounds")
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

    Deterministic policies pass trivially (singleton supports), without a
    solve. Pass a precomputed fixed point as double_q to skip the solve.
    """
    check_policy(mdp, policy)
    _check_alpha(alpha)
    if (np.count_nonzero(policy.probs, axis=1) == 1).all():
        return CoherenceReport(ok=0.0 <= tol, max_spread=0.0, witness=None)
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

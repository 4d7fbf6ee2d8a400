"""Worst/best-case verification on the doubled state space.

Each original state x splits into a worst substate (index 2x) and a best
substate (2x + 1). A constrained family of kernels over the doubled space
reproduces the original dynamics in an alpha-weighted average while
steering mass toward one substate or the other. The operations here build
those kernels explicitly, evaluate policies against them by brute force,
and check the resulting extremes against the fast two-sided recursion.

Everything in this module favors transparency over speed: it is the
independent route against which the projected fixed points are judged.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .diatomic import CHECK_SPE_TOL, CHECK_TOL, DoubleQ, _check_alpha, alpha_coherence, spe
from .errors import DomainError, PreconditionError, PropertyFailure, ResourceError
from .mdp import REFERENCE_TOL, Mdp, Policy, check_policy, state_values

PERMUTATION_STATE_CAP = 4
CANDIDATE_CAP = 1_000_000
_SOLVE_CHUNK = 65_536
ATTAIN_TOL = 1e-9  # a candidate within this of both extremes attains them
SLACK_TOL = 1e-9  # numerical allowance on the tail-bracketing slacks
MEMBERSHIP_TOL = 1e-9  # largest constraint violation a member of the uncertainty set may show


def worst_sub(x: int) -> int:
    return 2 * x


def best_sub(x: int) -> int:
    return 2 * x + 1


@dataclass(frozen=True)
class AugmentedKernel:
    """Transition table over doubled states: shape (2S, A, 2S)."""

    probs: np.ndarray

    def __init__(self, probs):
        probs = np.asarray(probs, dtype=np.float64)
        if probs.ndim != 3 or probs.shape[0] != probs.shape[2] or probs.shape[0] % 2:
            raise DomainError(f"augmented kernel shape {probs.shape} is not (2S, A, 2S)")
        if not np.isfinite(probs).all():
            raise DomainError("augmented kernel contains non-finite entries")
        if probs.min() < -1e-12:
            raise DomainError(f"negative transition probability: {probs.min()}")
        probs = np.maximum(probs, 0.0)
        dev = np.abs(probs.sum(axis=2) - 1.0).max()
        if dev > 1e-9:
            raise DomainError(f"augmented kernel rows sum off by {dev}")
        object.__setattr__(self, "probs", probs)
        probs.flags.writeable = False

    @property
    def n_states(self) -> int:
        return self.probs.shape[0] // 2

    @property
    def n_actions(self) -> int:
        return self.probs.shape[1]


@dataclass(frozen=True)
class ConstrainedPermutation:
    """Visit order of the doubled states, worst substate always first.

    ranks[s] is the 1-based position of augmented state s; the constraint
    is ranks[2x] < ranks[2x + 1] for every original x.
    """

    ranks: tuple[int, ...]

    def __init__(self, ranks):
        ranks = tuple(int(r) for r in ranks)
        n = len(ranks)
        if n % 2 or sorted(ranks) != list(range(1, n + 1)):
            raise DomainError(f"ranks {ranks} are not a bijection onto 1..{n}")
        for x in range(n // 2):
            if ranks[2 * x] >= ranks[2 * x + 1]:
                raise DomainError(
                    f"state {x}: worst substate must precede best "
                    f"(ranks {ranks[2 * x]} vs {ranks[2 * x + 1]})"
                )
        object.__setattr__(self, "ranks", ranks)

    @staticmethod
    def from_sequence(seq) -> "ConstrainedPermutation":
        """Build from the list of augmented states in visit order."""
        ranks = [0] * len(seq)
        for pos, s in enumerate(seq):
            ranks[s] = pos + 1
        return ConstrainedPermutation(ranks)

    @property
    def sequence(self) -> tuple[int, ...]:
        return tuple(int(s) for s in np.argsort(self.ranks, kind="stable"))


@functools.cache
def _visit_orders(n_states: int) -> tuple[tuple[int, ...], ...]:
    """All visit orders keeping each worst substate before its best one.

    Sequences of doubled states in lexicographic order; there are
    (2n)!/2^n of them, and PERMUTATION_STATE_CAP keeps that at 2520.
    """
    if n_states < 1:
        raise DomainError(f"need at least one state, got {n_states}")
    if n_states > PERMUTATION_STATE_CAP:
        raise ResourceError(
            f"permutation enumeration over {n_states} states exceeds the cap of "
            f"{PERMUTATION_STATE_CAP}"
        )
    return tuple(
        seq
        for seq in itertools.permutations(range(2 * n_states))
        if all(seq.index(2 * x) < seq.index(2 * x + 1) for x in range(n_states))
    )


def enumerate_constrained_permutations(n_states: int):
    """``_visit_orders`` as ConstrainedPermutation objects, in the same order."""
    for seq in _visit_orders(n_states):
        yield ConstrainedPermutation.from_sequence(seq)


def _augmented_masses(mdp: Mdp, alpha: float) -> np.ndarray:
    """Successor masses on doubled states: (S, A, 2S) with alpha-split."""
    s = mdp.n_states
    m = np.empty((s, mdp.n_actions, 2 * s))
    m[:, :, 0::2] = alpha * mdp.transition
    m[:, :, 1::2] = (1.0 - alpha) * mdp.transition
    return m


def _permutation_rows(masses: np.ndarray, alpha: float, seqs) -> tuple[np.ndarray, np.ndarray]:
    """Worst and best substate rows for every (x, a) under each visit order.

    masses is the (S, A, 2S) alpha-split table and seqs an (n_orders, 2S)
    list of visit orders; the (n_orders, S, A, 2S) rows come from running
    the cumulative clamps along each order and scattering back.
    """
    # Independent oracle, so not dist's kernel (its cum - alpha clamp differs in the last bit).
    seqs = np.asarray(seqs)
    ms = np.moveaxis(masses[:, :, seqs], 2, 0)
    cum = np.cumsum(ms, axis=3)
    before = cum - ms
    low_sorted = np.clip(np.minimum(ms, alpha - before), 0.0, None) / alpha
    high_sorted = np.clip(np.minimum(ms, cum - alpha), 0.0, None) / (1.0 - alpha)
    # Scatter into empty_like rather than gather a C-ordered copy: the gathered
    # layout keeps each row strided, and BLAS rounds risky_lp's 1-D dots by stride.
    low = np.empty_like(low_sorted)
    high = np.empty_like(high_sorted)
    np.put_along_axis(low, seqs[:, None, None, :], low_sorted, axis=3)
    np.put_along_axis(high, seqs[:, None, None, :], high_sorted, axis=3)
    return low, high


def _order_rows(mdp: Mdp, alpha: float) -> tuple[tuple, np.ndarray, np.ndarray]:
    """Every visit order with its worst and best rows: (sequences, low, high).

    low[i, x, a] and high[i, x, a] are the substate rows that order
    sequences[i] induces for (x, a); both are (n_orders, S, A, 2S).
    """
    sequences = _visit_orders(mdp.n_states)
    low, high = _permutation_rows(_augmented_masses(mdp, alpha), alpha, sequences)
    return sequences, low, high


def permutation_kernel(mdp: Mdp, alpha: float, sigma: ConstrainedPermutation) -> AugmentedKernel:
    """The extreme member of the constrained family induced by one order.

    The worst substate row fills successors greedily in visit order until
    mass alpha is spent; the best substate row takes what remains.
    """
    _check_alpha(alpha)
    if len(sigma.ranks) != 2 * mdp.n_states:
        raise DomainError(
            f"permutation over {len(sigma.ranks)} substates does not fit "
            f"{mdp.n_states} states"
        )
    low, high = _permutation_rows(_augmented_masses(mdp, alpha), alpha, [sigma.sequence])
    probs = np.empty((2 * mdp.n_states, mdp.n_actions, 2 * mdp.n_states))
    probs[0::2] = low[0]
    probs[1::2] = high[0]
    return AugmentedKernel(probs)


def risk_neutral_kernel(mdp: Mdp, alpha: float) -> AugmentedKernel:
    """Both substates transition exactly like the original chain."""
    _check_alpha(alpha)
    m = _augmented_masses(mdp, alpha)
    probs = np.empty((2 * mdp.n_states, mdp.n_actions, 2 * mdp.n_states))
    probs[0::2] = m
    probs[1::2] = m
    return AugmentedKernel(probs)


@dataclass(frozen=True)
class UncertaintyReport:
    """Constraint check outcome; truthy exactly when all families hold."""

    ok: bool
    max_violation: float
    constraint: str | None
    where: tuple[int, int, int] | None

    def __bool__(self) -> bool:
        return self.ok


def _check_fits(mdp: Mdp, kernel: AugmentedKernel) -> None:
    if kernel.n_states != mdp.n_states or kernel.n_actions != mdp.n_actions:
        raise DomainError("kernel shape does not match the MDP")


def in_uncertainty_set(mdp: Mdp, alpha: float, kernel: AugmentedKernel) -> UncertaintyReport:
    """Check the three defining constraint families entrywise.

    Two alpha-weighted marginals must reproduce the original kernel, and
    the worst substate must favor worst successors by the alpha odds ratio.
    """
    _check_alpha(alpha)
    _check_fits(mdp, kernel)
    p = kernel.probs
    low_rows, high_rows = p[0::2], p[1::2]
    families = (
        (
            "worst-successor marginal",
            np.abs(
                alpha * low_rows[:, :, 0::2]
                + (1.0 - alpha) * high_rows[:, :, 0::2]
                - alpha * mdp.transition
            ),
        ),
        (
            "best-successor marginal",
            np.abs(
                alpha * low_rows[:, :, 1::2]
                + (1.0 - alpha) * high_rows[:, :, 1::2]
                - (1.0 - alpha) * mdp.transition
            ),
        ),
        (
            "worst-row priority",
            np.clip(
                alpha / (1.0 - alpha) * low_rows[:, :, 1::2] - low_rows[:, :, 0::2],
                0.0,
                None,
            ),
        ),
    )
    name, viol = max(families, key=lambda family: family[1].max())
    worst_v = float(viol.max())
    ok = worst_v <= MEMBERSHIP_TOL
    return UncertaintyReport(
        ok=ok,
        max_violation=worst_v,
        constraint=None if ok else name,
        where=None if ok else tuple(int(i) for i in np.unravel_index(viol.argmax(), viol.shape)),
    )


def _lift_reward(mdp: Mdp) -> np.ndarray:
    return np.repeat(np.repeat(mdp.reward, 2, axis=0), 2, axis=2)


def _substate_values(gamma: float, pbar: np.ndarray, rbar: np.ndarray) -> np.ndarray:
    """Solve (I - gamma P̄) v = r̄ for doubled-chain values, batched over leading axes."""
    eye = np.eye(pbar.shape[-1])
    return np.linalg.solve(eye - gamma * pbar, rbar[..., None])[..., 0]


def augmented_policy_eval(mdp: Mdp, policy: Policy, kernel: AugmentedKernel) -> np.ndarray:
    """Expected value of the policy in the doubled chain, per substate.

    Rewards and the policy cannot see substates, so they are lifted
    blindly; only the kernel distinguishes worst from best.
    """
    check_policy(mdp, policy)
    _check_fits(mdp, kernel)
    pi = np.repeat(policy.probs, 2, axis=0)
    pbar = np.einsum("sa,sat->st", pi, kernel.probs)
    rbar = np.einsum("sa,sat,sat->s", pi, kernel.probs, _lift_reward(mdp))
    return _substate_values(mdp.gamma, pbar, rbar)


@dataclass(frozen=True)
class WorstBestResult:
    """Extremes over the assembled kernel candidates.

    v_worst[x] is the infimum of worst-substate values, v_best[x] the
    supremum of best-substate values; kernel is the first candidate (in
    enumeration order) attaining both everywhere, ties tells whether that
    attainer was unique among candidates.
    """

    v_worst: np.ndarray
    v_best: np.ndarray
    kernel: AugmentedKernel
    ties: bool
    n_candidates: int


def _support_pairs(mdp: Mdp, policy: Policy) -> list[tuple[int, int]]:
    return [(x, a) for x in range(mdp.n_states) for a in policy.support(x)]


def _require_coherent(mdp: Mdp, policy: Policy, alpha: float, double_q=None) -> None:
    """PreconditionError naming the widest spread unless the policy is alpha-coherent."""
    coh = alpha_coherence(mdp, policy, alpha, double_q=double_q)
    if not coh.ok:
        raise PreconditionError(
            f"policy is not coherent at level {alpha}: value spread "
            f"{coh.max_spread:.3e} at state/actions {coh.witness}"
        )


def worst_best_case(
    mdp: Mdp,
    policy: Policy,
    alpha: float,
    candidate_cap: int = CANDIDATE_CAP,
    double_q: DoubleQ | None = None,
) -> WorstBestResult:
    """Brute-force the value extremes over permutation-built kernels.

    Candidates assign one visit order per supported (x, a); rows that
    several orders share are deduplicated first, then every combination is
    evaluated by a direct linear solve on the doubled chain. The search
    space is restricted to permutation rows because the extremes are known
    to be attained there; disagreement with the two-sided recursion in
    tests would indicate a bug, not a gap in that restriction. Pass the
    policy's fixed point as double_q to skip the coherence check's solve.
    """
    _check_alpha(alpha)
    check_policy(mdp, policy)
    if mdp.n_states > PERMUTATION_STATE_CAP:
        raise ResourceError(
            f"{mdp.n_states} states exceed the enumeration cap of {PERMUTATION_STATE_CAP}"
        )
    _require_coherent(mdp, policy, alpha, double_q)

    s = mdp.n_states
    pairs = _support_pairs(mdp, policy)

    # one (low, high) row pair per visit order, deduplicated per (x, a)
    _, all_low, all_high = _order_rows(mdp, alpha)
    rep_low, rep_high, rep_counts = [], [], []
    for x, a in pairs:
        stacked = np.concatenate([all_low[:, x, a, :], all_high[:, x, a, :]], axis=1)
        _, first = np.unique(np.round(stacked, 12), axis=0, return_index=True)
        keep = np.sort(first)  # preserve enumeration order of representatives
        rep_low.append(all_low[keep, x, a, :])
        rep_high.append(all_high[keep, x, a, :])
        rep_counts.append(len(keep))

    n_cand = 1
    for c in rep_counts:
        n_cand *= c
    if n_cand > candidate_cap:
        raise ResourceError(
            f"{n_cand} kernel candidates exceed the cap of {candidate_cap}"
        )

    r_lift = _lift_reward(mdp)
    r_low = [rl @ r_lift[2 * x, a] for (x, a), rl in zip(pairs, rep_low)]
    r_high = [rh @ r_lift[2 * x + 1, a] for (x, a), rh in zip(pairs, rep_high)]

    pi = policy.probs
    v_under = np.empty((n_cand, s))
    v_over = np.empty((n_cand, s))
    for lo in range(0, n_cand, _SOLVE_CHUNK):
        hi = min(lo + _SOLVE_CHUNK, n_cand)
        digits = np.unravel_index(np.arange(lo, hi), rep_counts)
        pbar = np.zeros((hi - lo, 2 * s, 2 * s))
        rbar = np.zeros((hi - lo, 2 * s))
        for j, (x, a) in enumerate(pairs):
            w = pi[x, a]
            idx = digits[j]
            pbar[:, 2 * x, :] += w * rep_low[j][idx]
            pbar[:, 2 * x + 1, :] += w * rep_high[j][idx]
            rbar[:, 2 * x] += w * r_low[j][idx]
            rbar[:, 2 * x + 1] += w * r_high[j][idx]
        v = _substate_values(mdp.gamma, pbar, rbar)
        v_under[lo:hi] = v[:, 0::2]
        v_over[lo:hi] = v[:, 1::2]

    v_worst = v_under.min(axis=0)
    v_best = v_over.max(axis=0)
    attains = (v_under <= v_worst + ATTAIN_TOL).all(axis=1) & (
        v_over >= v_best - ATTAIN_TOL
    ).all(axis=1)
    hits = np.flatnonzero(attains)
    if len(hits) == 0:
        raise PropertyFailure(
            "no single kernel attains the worst and best extremes together; "
            "the permutation-row search or the solve is buggy"
        )
    winner = int(hits[0])

    # assemble the winning kernel; rows outside the support stay neutral
    probs = risk_neutral_kernel(mdp, alpha).probs.copy()
    digits = np.unravel_index(winner, rep_counts)
    for j, (x, a) in enumerate(pairs):
        probs[2 * x, a] = rep_low[j][digits[j]]
        probs[2 * x + 1, a] = rep_high[j][digits[j]]
    kernel = AugmentedKernel(probs)
    membership = in_uncertainty_set(mdp, alpha, kernel)
    if not membership.ok:
        raise PropertyFailure(
            f"assembled kernel leaves the constraint set: {membership.constraint} "
            f"violated by {membership.max_violation:.3e} at {membership.where}"
        )
    return WorstBestResult(
        v_worst=v_worst,
        v_best=v_best,
        kernel=kernel,
        ties=len(hits) > 1,
        n_candidates=n_cand,
    )


@dataclass(frozen=True)
class BavarGapReport:
    """Tail-mean bracketing of the projected pair by the true return tails.

    Each entry is (x, a, left_gap, right_gap); gaps are slack in the two
    inequalities (nonnegative up to eps_k means they hold).
    """

    ok: bool
    eps_k: float
    entries: tuple
    min_slack: float


def bavar_vs_avar_gap(
    mdp: Mdp,
    policy: Policy,
    alpha: float,
    k: int,
) -> BavarGapReport:
    """Check that the projected pair sits inside the true tail means.

    The true k-step return tails bracket the fixed-point pair up to the
    truncation bound eps_k = gamma^k max|r| / (1 - gamma): the left tail
    mean cannot exceed v1 and the right cannot undercut v2, each within
    eps_k plus a small numerical allowance.
    """
    from .dbo import return_avars

    dq = spe(mdp, policy, alpha, tol=REFERENCE_TOL).double_q
    _require_coherent(mdp, policy, alpha, dq)
    ra = return_avars(mdp, policy, alpha, k)
    v1, v2 = state_values(dq.q1, policy), state_values(dq.q2, policy)
    entries = []
    min_slack = np.inf
    for x in range(mdp.n_states):
        for a in policy.support(x):
            left_gap = float(v1[x]) + ra.error_bound - float(ra.left[x, a])
            right_gap = float(ra.right[x, a]) + ra.error_bound - float(v2[x])
            entries.append((x, int(a), left_gap, right_gap))
            min_slack = min(min_slack, left_gap, right_gap)
    return BavarGapReport(
        ok=min_slack >= -SLACK_TOL,
        eps_k=ra.error_bound,
        entries=tuple(entries),
        min_slack=float(min_slack),
    )


@dataclass(frozen=True)
class AxiomsReport:
    """Risk-measure axiom check outcome for one state.

    violations maps axiom name to the worst observed violation; ok means
    every one stayed within tolerance.
    """

    ok: bool
    state: int
    violations: dict
    n_trials: int


def coherence_axioms_check(
    mdp: Mdp,
    policy: Policy,
    alpha: float,
    x: int,
    n_trials: int = 50,
    seed: int = 0,
    tol: float = CHECK_TOL,
) -> AxiomsReport:
    """Exercise the four risk-measure axioms on random reward tables.

    The functional under test maps a reward table to (1 - gamma) times the
    policy's fixed-point tail value at state x: the right tail must be
    translation-covariant, subadditive, positively homogeneous, and
    monotone; the left tail mirrors those (superadditive, same otherwise).
    Each evaluation reruns the full fixed-point solve on the perturbed
    table; no incremental shortcut is taken.
    """
    check_policy(mdp, policy)
    if not 0 <= x < mdp.n_states:
        raise DomainError(f"state {x} out of range")

    def tails(reward_table):
        dq = spe(mdp.with_reward(reward_table), policy, alpha, tol=CHECK_SPE_TOL).double_q
        f1 = (1.0 - mdp.gamma) * float(state_values(dq.q1, policy)[x])
        f2 = (1.0 - mdp.gamma) * float(state_values(dq.q2, policy)[x])
        return f1, f2

    rng = np.random.default_rng(seed)
    shape = mdp.reward.shape
    worst = {
        "translation": 0.0,
        "subadditivity": 0.0,
        "homogeneity": 0.0,
        "monotonicity": 0.0,
    }
    for _ in range(n_trials):
        r1 = rng.uniform(-2.0, 2.0, size=shape)
        r2 = rng.uniform(-2.0, 2.0, size=shape)
        beta = float(rng.uniform(0.0, 3.0))
        f1_r1, f2_r1 = tails(r1)
        f1_r2, f2_r2 = tails(r2)

        f1_shift, f2_shift = tails(r1 + beta)
        worst["translation"] = max(
            worst["translation"],
            abs(f2_shift - (f2_r1 + beta)),
            abs(f1_shift - (f1_r1 + beta)),
        )

        f1_sum, f2_sum = tails(r1 + r2)
        worst["subadditivity"] = max(
            worst["subadditivity"],
            f2_sum - (f2_r1 + f2_r2),  # right tail: subadditive
            (f1_r1 + f1_r2) - f1_sum,  # left tail: superadditive
        )

        f1_scale, f2_scale = tails(beta * r1)
        worst["homogeneity"] = max(
            worst["homogeneity"],
            abs(f2_scale - beta * f2_r1),
            abs(f1_scale - beta * f1_r1),
        )

        f1_dom, f2_dom = tails(r1 - rng.uniform(0.0, 1.0, size=shape))
        worst["monotonicity"] = max(
            worst["monotonicity"], f2_dom - f2_r1, f1_dom - f1_r1
        )

    ok = max(worst.values()) <= tol
    return AxiomsReport(ok=ok, state=x, violations=worst, n_trials=n_trials)

"""Two-sided tail-mean value functions and their Bellman recursion.

A value pair (q1, q2) summarizes each entry's return distribution by its
left tail mean at level alpha and its right tail mean at level 1 - alpha.
The recursion below is the expected Bellman operator composed with the
two-point distribution projection, carried out directly on the pair so no
atom lists are ever materialized.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .dist import tail_weights
from .errors import DomainError, ResourceError
from .mdp import DEFAULT_TOL, Mdp, Policy, check_policy, run_sweeps

ORDER_TOL = 1e-9
CHECK_TOL = 1e-8  # verdict tolerance of the coherence, certificate and axiom checks
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


class _Successors(NamedTuple):
    """Every entry's successors among k unknowns, in a padded (S*A, W) layout.

    Row e = (x, a) of ``succ`` lists the unknowns e moves positive mass
    onto, in index order, then pads to the widest row with zero-mass
    unknowns, so no unknown appears twice in a row. ``mass`` holds each
    listed unknown's mass and ``reward`` the step reward r(x, a, y) onto
    its state y. A table of ``problems`` stacked problems (``_stack``)
    holds problem b's rows after those of problems 0..b-1.
    """

    succ: np.ndarray
    mass: np.ndarray
    reward: np.ndarray
    k: int
    problems: int


def _successors(mdp: Mdp, link: np.ndarray, states: np.ndarray) -> _Successors:
    """The table of ``link``, where ``link[e, j]`` is the mass entry e moves
    onto unknown j and ``states[j]`` is that unknown's state."""
    m, k = link.shape
    width = int(np.count_nonzero(link, axis=1).max())
    succ = np.argsort(link == 0.0, axis=1, kind="stable")[:, :width]
    mass = np.take_along_axis(link, succ, axis=1)
    reward = np.take_along_axis(mdp.reward.reshape(m, -1), states[succ], axis=1)
    return _Successors(succ, mass, reward, k, 1)


def _stack(tables: Sequence[_Successors]) -> _Successors:
    """One table for problems that share k and the successor width.

    Problem b's unknowns are offset by b * 2k, so each problem's stacked
    pair (q1, q2) is one contiguous block of the stack's pair, and no row
    reaches into another problem. A lone table is its own stack, uncopied.
    """
    if len(tables) == 1:
        return tables[0]
    k, width = tables[0].k, tables[0].succ.shape[1]
    if any(t.k != k or t.succ.shape[1] != width for t in tables):
        raise DomainError("stacked problems must share their unknown count and successor width")
    return _Successors(
        np.concatenate([t.succ + 2 * k * b for b, t in enumerate(tables)]),
        np.concatenate([t.mass for t in tables]),
        np.concatenate([t.reward for t in tables]),
        k,
        len(tables),
    )


def _state_table(mdp: Mdp) -> _Successors:
    """The table whose unknowns are the states (link P): ``svi``'s, and the
    played table of every deterministic policy (``_played_table`` scales
    each link by 1.0), whose played entries alone differ."""
    s = mdp.n_states
    return _successors(mdp, mdp.transition.reshape(-1, s), np.arange(s))


def _played_table(mdp: Mdp, policy: Policy) -> tuple[_Successors, np.ndarray]:
    """The table whose unknowns are the entries the policy plays, with those entries.

    Entry (x, a) moves mass P(y|x,a) * pi(b|y) onto each played entry
    (y, b), so its row lists its successor entries in (y, b) order.
    """
    _check_size(mdp)
    sources = np.flatnonzero(policy.probs.ravel() > 0.0)
    states = sources // mdp.n_actions
    link = mdp.transition.reshape(-1, mdp.n_states)[:, states] * policy.probs.ravel()[sources]
    return _successors(mdp, link, states), sources


class _Particles:
    """Every entry's particle cloud over the unknowns of a successor table.

    A pair is carried as the stacked vector q = (q1, q2) over the unknowns:
    ``spe``'s unknowns are the entries its policy plays (``_played_table``),
    ``svi``'s are the states (link P). A stack of problems carries one such
    block per problem, one after the other. Each successor gives two
    particles: mass alpha * mass at r + gamma * q1 and the complementary
    mass at the q2 value. Every sweep leaves each entry's particles in the
    order it sorted them, so the next sort starts nearly sorted and
    ``solve`` reads the order from the table.
    """

    def __init__(self, mdp: Mdp, table: _Successors, alpha: float):
        succ, mass, reward, k, self.problems = table
        self.shape, self.gamma, self.alpha = (mdp.n_states, mdp.n_actions), mdp.gamma, alpha
        self.levels = (alpha, 1.0 - alpha)
        self.src = np.concatenate([succ, succ + k], axis=1).astype(np.int32)
        # each entry's first slot in the flat particle arrays
        self.offsets = np.arange(0, self.src.size, self.src.shape[1])[:, None]
        self.reward = np.concatenate([reward, reward], axis=1)
        self.mass = np.concatenate([alpha * mass, (1.0 - alpha) * mass], axis=1)

    def sweep(self, q: np.ndarray) -> np.ndarray:
        """The operator at the unknowns' pair q: every row's left tail mean, then every right."""
        vals = q.take(self.src)
        vals *= self.gamma
        vals += self.reward
        at = np.argsort(vals, axis=1, kind="stable")
        at += self.offsets  # flat slots: one take per array gathers every row
        vals = vals.take(at)
        self.src = self.src.take(at)
        self.reward = self.reward.take(at)
        self.mass = self.mass.take(at)
        del at  # the sort order goes before the tail weights: lower peak memory
        sums = []
        for w, level in self._tails(self.mass):
            w *= vals  # in place, and reduced before the right weights are built
            sums.append(w.sum(axis=1) / level)
        return np.concatenate(sums)

    def _tails(self, mass: np.ndarray):
        """The left tail's weights on sorted ``mass`` with its level, then the right's."""
        return zip(tail_weights(mass, *self.levels), self.levels)

    def solve(self, sources: np.ndarray) -> np.ndarray:
        """The fixed point of the affine map that the last sweep's order fixes.

        ``sources[j]`` is the entry whose cloud gives unknown j. With every
        entry's order frozen, the map on a problem's pair is
        q -> c + gamma M q with M row-stochastic; this solves each problem's
        (I - gamma M) q = c, all in one batched solve. The rows are filled
        in chunks of about _CHUNK particles, so the temporaries stay small
        beside the matrices.
        """
        k = sources.size // self.problems
        n = 2 * k
        a = np.zeros((self.problems, n, n))
        c = np.empty(self.problems * n)
        step = max(1, _CHUNK // self.src.shape[1])
        for lo in range(0, sources.size, step):
            rows = sources[lo : lo + step]
            b, i = np.divmod(np.arange(lo, lo + rows.size), k)
            at = b * n + i  # the unknown's q1 slot in the stacked pair
            mass, reward = self.mass[rows], self.reward[rows]
            # problem b's matrix starts at b * n * n, and its columns at pair slot b * n
            cells = self.src[rows] + ((at - b) * n)[:, None]
            for block, (w, level) in enumerate(self._tails(mass)):
                w /= level
                c[block * k + at] = (w * reward).sum(axis=1)
                np.put(a, cells + block * k * n, -self.gamma * w)
        a.reshape(self.problems, -1)[:, :: n + 1] += 1.0
        return np.linalg.solve(a, c.reshape(self.problems, n, 1)).reshape(-1)

    def at(self, sources: np.ndarray) -> np.ndarray:
        """Where the pair of the entries ``sources`` sits in a sweep's output, by problem."""
        sources = sources.reshape(self.problems, -1)
        return np.concatenate([sources, sources + self.offsets.size], axis=1).reshape(-1)

    def pair(self, out: np.ndarray) -> DoubleQ:
        m = out.size // 2
        return DoubleQ(out[:m].reshape(self.shape), out[m:].reshape(self.shape), self.alpha)


def _particles(mdp: Mdp, tables, alpha: float) -> tuple[_Particles, np.ndarray]:
    """``spe``'s particles on the stack of (played table, played entries) ``tables``,
    with the stack's entries.

    Problem b's played entries are offset by b * S * A. The tables die on
    return, so the rounds hold only the particles.
    """
    m = tables[0][0].succ.shape[0]
    sources = np.concatenate([played + b * m for b, (_, played) in enumerate(tables)])
    return _Particles(mdp, _stack([table for table, _ in tables]), alpha), sources


def _played(problems: Sequence[tuple[Mdp, Policy]], alpha: float) -> tuple[_Particles, np.ndarray]:
    """``spe``'s particles on the stacked ``_played_table`` of the problems, with their entries."""
    return _particles(problems[0][0], [_played_table(*problem) for problem in problems], alpha)


def diatomic_bellman_apply(mdp: Mdp, policy: Policy, dq: DoubleQ) -> DoubleQ:
    """One sweep of the projected distributional operator on a value pair.

    Every entry (x, a) sorts the particles of its successor entries (y, b)
    with P(y|x,a) * pi(b|y) > 0: mass alpha * P(y|x,a) * pi(b|y) at value
    r(x,a,y) + gamma * q1(y,b), and the complementary mass at the q2 value.
    The new pair is the left/right tail mean of that particle cloud.
    """
    check_policy(mdp, policy)
    cloud, sources = _played([(mdp, policy)], dq.alpha)
    stacked = np.concatenate([dq.q1.ravel(), dq.q2.ravel()])
    return cloud.pair(cloud.sweep(stacked[cloud.at(sources)]))


@dataclass(frozen=True)
class SpeSolve:
    """Fixed-point solve output for the value-pair recursion; iterations counts rounds."""

    double_q: DoubleQ
    residual: float
    iterations: int


class _Round(NamedTuple):
    """A round of a stack as ``_rounds`` shows it.

    ``out`` is the certificate sweep's output and ``picked`` the entry
    behind each unknown; ``residual`` and ``rounds`` hold each problem's
    change and round. A problem that has stopped shows its stopping round.
    """

    out: np.ndarray
    picked: np.ndarray
    residual: np.ndarray
    rounds: np.ndarray


def _hold(held: _Round, current: _Round, stopped: np.ndarray) -> _Round:
    """``current`` with the ``stopped`` problems' parts taken from ``held``."""
    b = stopped.size
    return _Round(
        np.where(np.tile(stopped.repeat(held.out.size // (2 * b)), 2), held.out, current.out),
        np.where(stopped.repeat(held.picked.size // b), held.picked, current.picked),
        np.where(stopped, held.residual, current.residual),
        np.where(stopped, held.rounds, current.rounds),
    )


def _rounds(
    cloud: _Particles, start, pick, value: Callable[[_Round], Any], tol: float
) -> Iterator[tuple[Any, float]]:
    """Rounds of order iteration on ``cloud``'s stack, from the unknowns' pair ``start``.

    A round freezes every entry's particle order and the entry behind each
    unknown (``pick(out)`` names those at a sweep's output ``out``), solves
    the affine maps they fix, and sweeps once there as the certificate. A
    problem whose change of its unknowns' pair is above gamma times its
    previous round's change re-sweeps from its previous round's pair (a
    plain sweep); the others re-sweep at their candidate, which leaves
    their orders and outputs as they were. A problem stops at its first
    round with a change of at most ``tol``, and later rounds show it as it
    was there. Each round yields ``value`` of what it shows and the largest
    change shown, so ``run_sweeps`` at ``tol`` ends the stack when its last
    problem stops, and every problem ends as its own run would. A stack of
    one needs no stop of its own and passes tol 0.
    """
    n = start.size // cloud.problems  # each problem's stacked pair

    def certify(point):
        out = cloud.sweep(point)
        picked = pick(out)
        new = out[cloud.at(picked)]
        return out, picked, new, np.abs(new - point).reshape(-1, n).max(axis=1)

    out, picked, new, residual = certify(start)
    stopped = np.zeros(cloud.problems, dtype=bool)
    for it in itertools.count(1):
        last = new
        point = cloud.solve(picked)
        out, picked, new, new_residual = certify(point)
        failed = ~stopped & ~(new_residual <= cloud.gamma * residual)  # also catches NaN
        if failed.any():
            out, picked, new, new_residual = certify(np.where(failed.repeat(n), last, point))
        residual = new_residual
        shown = _Round(out, picked, residual, np.full(cloud.problems, it))
        if stopped.any():
            shown = _hold(held, shown, stopped)
        held, stopped = shown, shown.residual <= tol
        yield value(shown), float(shown.residual.max())


def pair_rounds(mdp: Mdp, policy: Policy, alpha: float) -> Iterator[tuple[DoubleQ, float]]:
    """Rounds of order iteration on the projected operator, from the zero pair.

    The unknowns are the entries the policy plays, each its own source; a
    round yields its certificate sweep's pair and change, and residuals
    contract by at least gamma per round (see ``_rounds``).
    """
    check_policy(mdp, policy)
    _check_alpha(alpha)
    cloud, sources = _played([(mdp, policy)], alpha)
    return _rounds(
        cloud, np.zeros(2 * sources.size), lambda out: sources, lambda r: cloud.pair(r.out), 0.0
    )


def spe_stack(problems: Sequence[tuple[Mdp, Policy]], alpha: float, tol: float) -> list[SpeSolve]:
    """``spe`` of every (mdp, policy) problem, solved in stacks on one particle table.

    The problems share the discount, the table shape, the number of played
    entries and the successor width, as the deterministic policies of one
    MDP do, or one policy on reward tables over one kernel. Each problem
    stops at the round its own ``spe`` would and returns that run's output
    bit for bit. A stack holds as many problems as keep its dense particle
    count, 2(SA)^2 per problem, within ``PARTICLE_CAP`` (at least one);
    ConvergenceError if a problem exhausts ``mdp.DEFAULT_MAX_ITER`` rounds.
    """
    for mdp, policy in problems:
        check_policy(mdp, policy)
    _check_alpha(alpha)
    if not problems:
        return []
    mdp = problems[0][0]
    if any(m.gamma != mdp.gamma or m.transition.shape != mdp.transition.shape for m, _ in problems):
        raise DomainError("stacked problems must share the discount and the table shape")
    return _stack_solves(mdp, len(problems), lambda b: _played_table(*problems[b]), alpha, tol)


def _stack_solves(mdp: Mdp, n: int, played, alpha: float, tol: float) -> list[SpeSolve]:
    """``spe_stack`` of n problems on ``mdp``'s discount and table shape, where
    ``played(b)`` builds problem b's played table and played entries."""
    _check_size(mdp)
    solves = []
    chunk = max(1, PARTICLE_CAP // (2 * (mdp.n_states * mdp.n_actions) ** 2))
    for lo in range(0, n, chunk):
        cloud, sources = _particles(mdp, [played(b) for b in range(lo, min(lo + chunk, n))], alpha)
        start = np.zeros(2 * sources.size)
        rounds = _rounds(cloud, start, lambda out: sources, lambda r: r, tol)
        last = run_sweeps(rounds, tol).require_converged("value pair", "rounds").value
        q1, q2 = last.out.reshape(2, cloud.problems, *cloud.shape)
        solves += [
            SpeSolve(DoubleQ(q1[b], q2[b], alpha), float(last.residual[b]), int(last.rounds[b]))
            for b in range(cloud.problems)
        ]
    return solves


def spe(mdp: Mdp, policy: Policy, alpha: float, tol: float = DEFAULT_TOL) -> SpeSolve:
    """Solve the projected operator's fixed point by rounds of order iteration.

    The operator is a gamma-contraction in the sup norm over both tables,
    so its fixed point is unique. Residual is the change of the last
    round's certificate sweep on the entries the policy plays (the others
    are read off those in the sweep), and the returned pair is that
    sweep's output, within gamma * residual / (1 - gamma) of the fixed
    point everywhere in exact arithmetic; float rounding adds a term of
    order eps * max|q| / (1 - gamma) that the bound leaves out. At most
    ``mdp.DEFAULT_MAX_ITER`` rounds run; this is ``spe_stack`` of one problem.
    """
    return spe_stack([(mdp, policy)], alpha, tol)[0]


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
    double_q: DoubleQ | None = None,
) -> CoherenceReport:
    """Check that both tail-mean tables are flat across each support set, within ``CHECK_TOL``.

    Deterministic policies pass trivially (singleton supports), without a
    solve. Pass a precomputed fixed point as double_q to skip the solve.
    """
    check_policy(mdp, policy)
    _check_alpha(alpha)
    if (np.count_nonzero(policy.probs, axis=1) == 1).all():
        return CoherenceReport(ok=True, max_spread=0.0, witness=None)
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
    return CoherenceReport(ok=worst <= CHECK_TOL, max_spread=worst, witness=witness)

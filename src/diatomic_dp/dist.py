"""Finitely supported distributions on the real line.

Atoms are kept in a canonical form (sorted values, merged duplicates, no
zero-mass atoms) so that quantiles, tail expectations and Wasserstein
distances reduce to closed-form sweeps over the sorted support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DomainError, StructuralError

MERGE_TOL = 1e-12
PROB_SUM_TOL = 1e-9
WEIGHT_SUM_TOL = 1e-9


def _canonicalize(values: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort, merge near-equal values and drop zero-mass atoms.

    The anchor rule: in sorted order, a value more than ``MERGE_TOL`` above
    the current group's anchor (its first value) starts a new group. The
    anchor never exceeds the previous value, so a gap above ``MERGE_TOL``
    always starts a group; only runs of smaller gaps need the rule applied
    value by value, and only past ``MERGE_TOL`` from the value that opens
    the run.
    """
    # stable: tied values add their masses in input order. The atoms arrive
    # as a few sorted runs (mixtures and dbo_apply concatenate distributions),
    # on which numpy's stable sort is cheaper than its default one.
    order = np.argsort(values, kind="stable")
    values = values[order]
    probs = probs[order]
    starts = np.empty(len(values), dtype=bool)
    starts[:1] = True
    starts[1:] = np.diff(values) > MERGE_TOL
    # Each run's opening value is its base, and a value within MERGE_TOL of
    # it joins its group. The first value past that starts a group (every
    # earlier anchor lies at or below the base); the rest follow the rule.
    base = np.maximum.accumulate(np.where(starts, np.arange(len(values)), 0))
    anchor = -np.inf
    for i in np.flatnonzero(values - values[base] > MERGE_TOL).tolist():
        if values[i] - anchor > MERGE_TOL:
            starts[i], anchor = True, values[i]
    groups = np.cumsum(starts) - 1
    first = np.flatnonzero(starts)
    # bincount adds each group's terms in index order
    merged_p = np.bincount(groups, weights=probs)
    weighted = np.bincount(groups, weights=probs * values)
    sizes = np.diff(first, append=len(values))
    # Probability-weighted representative for true merges; singleton groups
    # keep their value bit-for-bit. Zero-mass groups are dropped.
    with np.errstate(invalid="ignore", divide="ignore"):
        merged_v = np.where(sizes > 1, weighted / merged_p, values[first])
    keep = merged_p > 0.0
    return merged_v[keep], merged_p[keep]


@dataclass(frozen=True)
class DiscreteDist:
    """A probability distribution with finitely many atoms.

    ``values`` is strictly increasing after construction and ``probs`` are
    positive and sum to one.
    """

    values: np.ndarray
    probs: np.ndarray

    def __init__(self, values, probs):
        values = np.asarray(values, dtype=np.float64).ravel()
        probs = np.asarray(probs, dtype=np.float64).ravel()
        if values.shape != probs.shape:
            raise StructuralError(
                f"values and probs differ in length: {values.shape} vs {probs.shape}"
            )
        if values.size == 0:
            raise DomainError("a distribution needs at least one atom")
        if not np.all(np.isfinite(values)):
            raise DomainError("atom values must be finite")
        if np.any(probs < -1e-12):
            raise DomainError(f"negative atom probability: {probs.min()}")
        probs = np.maximum(probs, 0.0)
        total = probs.sum()
        if not math.isfinite(total):  # a NaN or infinite probability spoils the sum
            raise DomainError("atom probabilities contain non-finite entries")
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise DomainError(f"atom probabilities sum to {total}, expected 1")
        probs = probs / total
        values, probs = _canonicalize(values, probs)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probs", probs)
        self.values.setflags(write=False)
        self.probs.setflags(write=False)

    @staticmethod
    def dirac(value: float) -> "DiscreteDist":
        return DiscreteDist([value], [1.0])

    @property
    def n_atoms(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(zip(self.values, self.probs))


@dataclass(frozen=True)
class Diatomic:
    """Two-atom summary: mass ``alpha`` at ``theta1`` and ``1 - alpha`` at ``theta2``."""

    theta1: float
    theta2: float
    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.theta1 > self.theta2 + MERGE_TOL:
            raise DomainError(
                f"lower atom {self.theta1} exceeds upper atom {self.theta2}"
            )

    def as_dist(self) -> DiscreteDist:
        return DiscreteDist([self.theta1, self.theta2], [self.alpha, 1.0 - self.alpha])


def quantile(d: DiscreteDist, tau: float) -> float:
    """Generalized inverse CDF: the smallest atom whose cumulative mass reaches ``tau``."""
    if not 0.0 < tau <= 1.0:
        raise DomainError(f"quantile level must lie in (0, 1], got {tau}")
    cum = np.cumsum(d.probs)
    j = int(np.searchsorted(cum, tau, side="left"))
    return float(d.values[min(j, d.n_atoms - 1)])


def expectation(d: DiscreteDist) -> float:
    return float(np.dot(d.values, d.probs))


def pushforward_affine(d: DiscreteDist, r0: float, gamma: float) -> DiscreteDist:
    """Image of ``d`` under v -> r0 + gamma * v."""
    if not 0.0 <= gamma < 1.0:
        raise DomainError(f"contraction factor must lie in [0, 1), got {gamma}")
    if not math.isfinite(r0):
        raise DomainError("shift must be finite")
    return DiscreteDist(r0 + gamma * d.values, d.probs)


def _clamp(w: np.ndarray, ahead: np.ndarray, level: float) -> np.ndarray:
    """The tail clamp: each particle's mass inside a tail of mass ``level``.

    ``ahead`` is the mass the tail takes before it reaches each particle;
    the particle gets the rest of ``level``, at most its own mass ``w``
    and at least zero, so the one straddling the line gets a fraction.
    Works in the memory of ``ahead``.
    """
    np.subtract(level, ahead, out=ahead)
    np.minimum(w, ahead, out=ahead)
    return np.maximum(ahead, 0.0, out=ahead)


def tail_weights(w: np.ndarray, alpha: float, level: float) -> Iterator[np.ndarray]:
    """Each particle's mass inside the lowest ``alpha`` fraction, then the highest ``level``.

    ``w`` holds particle masses sorted by ascending value along the last
    axis. Both tails come from one cumulative sum, and the right weights
    are built in its memory only when asked for: a caller that reduces
    the left weights first holds two particle-sized arrays, not three.
    """
    cum = np.cumsum(w, axis=-1)
    yield _clamp(w, cum - w, alpha)
    # level - (1 - cum) instead of cum - (1 - level): keeps the top particle's
    # weight exact when the cumulative sum lands on 1
    yield _clamp(w, np.subtract(1.0, cum, out=cum), level)


def avar_left(d: DiscreteDist, alpha: float) -> float:
    """Mean of the lowest ``alpha`` fraction of outcomes.

    Equals (1/alpha) * integral of the quantile function over (0, alpha].
    Boundary atoms straddling the alpha line contribute fractionally; the
    min/max clamps take care of that without special cases.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"tail fraction must lie in (0, 1), got {alpha}")
    w = next(tail_weights(d.probs, alpha, 1.0 - alpha))
    return float(np.dot(w, d.values) / alpha)


def avar_right(d: DiscreteDist, level: float) -> float:
    """Mean of the highest ``level`` fraction of outcomes."""
    if not 0.0 < level < 1.0:
        raise DomainError(f"tail fraction must lie in (0, 1), got {level}")
    _, w = tail_weights(d.probs, 1.0 - level, level)
    return float(np.dot(w, d.values) / level)


def avar_left_dual(d: DiscreteDist, alpha: float) -> tuple[float, np.ndarray]:
    """Lower-tail mean via its dual program.

    Minimizes <lam, values> over 0 <= lam_i <= probs_i with sum(lam) = alpha.
    A greedy fill in value order attains the optimum; returns the value
    together with the optimizing allocation ``lam``.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"tail fraction must lie in (0, 1), got {alpha}")
    lam = np.zeros(d.n_atoms)
    remaining = alpha
    for j in range(d.n_atoms):
        take = min(d.probs[j], remaining)
        lam[j] = take
        remaining -= take
        if remaining <= 0.0:
            break
    return float(np.dot(lam, d.values) / alpha), lam


def project_w2_diatomic(d: DiscreteDist, alpha: float) -> Diatomic:
    """Best two-atom approximation in quadratic Wasserstein distance.

    With masses fixed at (alpha, 1 - alpha) the optimum places the atoms at
    the conditional means of the lower-alpha and upper-(1-alpha) tails.
    """
    return Diatomic(avar_left(d, alpha), avar_right(d, 1.0 - alpha), alpha)


def wasserstein(d1: DiscreteDist, d2: DiscreteDist, p: float = 2.0) -> float:
    """p-Wasserstein distance between two atomic distributions.

    Both quantile functions are piecewise constant, so the defining integral
    is summed exactly over the merged cumulative-probability breakpoints.
    ``p = math.inf`` gives the uniform distance between quantile functions.
    """
    if not (p >= 1.0):
        raise DomainError(f"order must satisfy p >= 1, got {p}")
    cum1 = np.cumsum(d1.probs)
    cum2 = np.cumsum(d2.probs)
    taus = np.union1d(cum1, cum2)
    taus[-1] = 1.0
    q1 = d1.values[np.minimum(np.searchsorted(cum1, taus, side="left"), d1.n_atoms - 1)]
    q2 = d2.values[np.minimum(np.searchsorted(cum2, taus, side="left"), d2.n_atoms - 1)]
    widths = np.diff(np.concatenate(([0.0], taus)))
    gaps = np.abs(q1 - q2)
    if math.isinf(p):
        # Cells thinner than 1e-12 are cumulative-sum rounding artifacts
        # (breakpoints that coincide mathematically but differ by a few
        # ulps); counting them would inflate the sup by a full atom gap.
        return float(gaps[widths > 1e-12].max(initial=0.0))
    return float(np.dot(widths, gaps**p) ** (1.0 / p))


def mix(components: list[tuple[float, DiscreteDist]]) -> DiscreteDist:
    """Finite mixture. Weights must be nonnegative and sum to one."""
    if not components:
        raise DomainError("mixture needs at least one component")
    weights = np.array([w for w, _ in components], dtype=np.float64)
    if np.any(weights < -1e-15):
        raise DomainError(f"negative mixture weight: {weights.min()}")
    weights = np.maximum(weights, 0.0)
    if abs(weights.sum() - 1.0) > WEIGHT_SUM_TOL:
        raise DomainError(f"mixture weights sum to {weights.sum()}, expected 1")
    values = np.concatenate([c.values for _, c in components])
    probs = np.concatenate([w * c.probs for w, (_, c) in zip(weights, components)])
    return DiscreteDist(values, probs)

"""Exact tail means of k-step returns via lazy outcome-tree traversal.

The k-step return distribution of entry (x, a) is a finite tree: each
level branches over the supported successor pairs and adds a discounted
reward. Materializing it needs (branching)^k atoms, but the tail means
only depend on the alpha-quantile atom and the mass and partial
expectation around it, and those are recoverable from a small
neighborhood of the quantile.

The traversal keeps a frontier of unresolved subtrees plus a bracket
[qlo, qhi] that provably contains the quantile: qlo is the crossing
point of the optimistic CDF built from subtree value-interval lower
ends, qhi the crossing of the pessimistic one built from upper ends.
Every subtree entirely below the bracket folds into running mass and
partial-expectation accumulators (its exact mean comes from a dynamic
program over steps remaining), everything above the bracket is dropped,
and only straddlers descend a level. The subtree holding the quantile
atom can never resolve, so the surviving leaves determine the quantile
and the tail means exactly; interval endpoints carry float noise, which
a small resolution margin absorbs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diatomic import _check_alpha, _played_table
from .errors import DomainError, ResourceError
from .mdp import Mdp, Policy, check_policy

_MARGIN = 1e-12  # resolution margin around the bracket (times scale)
NODE_CAP = 2_000_000  # budget of return-tree nodes visited per entry


def _stable_sort(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable sorting permutation of the 1-D ``keys``, and the sorted keys.

    Tied keys keep their input order, which fixes every later prefix sum.
    numpy's default sort, much cheaper than its stable sort of floats,
    differs from it only inside runs of tied keys; a default sort of the
    int64 keys tie-run index * n + position puts each run back in order.
    """
    order = keys.argsort()
    ordered = keys.take(order)
    tied = ordered[1:] == ordered[:-1]
    if tied.any():
        run = np.concatenate(([0], np.cumsum(~tied))) * keys.size
        order = np.sort(run + order) - run
        ordered = keys.take(order)  # -0.0 and 0.0 tie, so re-read the signs
    return order, ordered


class _ReturnTree:
    def __init__(self, mdp: Mdp, policy: Policy, k: int):
        check_policy(mdp, policy)
        if k < 1:
            raise DomainError(f"need at least one step, got {k}")
        self.k = k
        self.pow = mdp.gamma ** np.arange(k + 1)

        # The children of entry e are its successor entries in diatomic's
        # played table: child[e, :n_children[e]], with step probabilities
        # P(y|x,a) pi(b|y) and edge rewards r(x,a,y); zero-mass padding follows.
        table, sources = _played_table(mdp, policy)
        self.child, self.prob, self.reward = sources[table.succ], table.mass, table.reward
        self.n_children = np.count_nonzero(self.prob, axis=1)
        self.key_type = np.min_scalar_type(self.child.shape[0] - 1)
        real = self.prob > 0.0
        self.real = None if real.all() else real  # the mask that drops padding, if any

        # Value-interval and mean DPs indexed by steps remaining: (min, max, mean).
        rest = np.zeros((3, k + 1, self.child.shape[0]))
        for j in range(1, k + 1):
            low, high, mean = (self.reward + mdp.gamma * r[self.child] for r in rest[:, j - 1])
            rest[0, j] = np.where(real, low, np.inf).min(axis=1)
            rest[1, j] = np.where(real, high, -np.inf).max(axis=1)
            # one dot per row over the real children and zero padding, on a fresh mean
            # table: the batched dot rounds by memory layout
            rest[2, j] = (self.prob[:, None, :] @ mean[:, :, None])[:, 0, 0]
        # offset[:, t] = gamma^t * rest[:, k - t], added to a depth-t node's reward so far
        self.offset = self.pow[:k, None] * rest[:, k:0:-1]
        self.margin = _MARGIN * max(1.0, float(np.abs(rest[:2, k]).max()))

    def _expand(self, ent, p, s, t):
        """The children of the depth-t nodes, grouped by entry in a stable order, whole
        child rows without the zero-mass padding: later sums add in a fixed order."""
        child = self.child.take(ent, axis=0).ravel()
        p = (p[:, None] * self.prob.take(ent, axis=0)).ravel()
        s = (s[:, None] + self.pow[t] * self.reward.take(ent, axis=0)).ravel()
        if self.real is None:
            return child, p, s
        real = self.real.take(ent, axis=0).ravel().nonzero()[0]
        return child.take(real), p.take(real), s.take(real)

    @staticmethod
    def _sorted(keys, p, start: float, alpha: float, bound: float):
        """The keys in stable order, their masses, and the first index where start plus
        the cumulative mass reaches alpha (else the last). Only the keys <= bound are
        sorted, unless alpha lies beyond them: the stable sort of that prefix (taken
        in frontier order) is the prefix of the stable sort, so every sum agrees."""
        head = (keys <= bound).nonzero()[0]
        if head.size < keys.size:
            order, ordered = _stable_sort(keys.take(head))
            probs = p.take(head.take(order))
            i = int((start + probs.cumsum()).searchsorted(alpha, side="left"))
            if i < probs.size:
                return ordered, probs, i
        order, ordered = _stable_sort(keys)
        probs = p.take(order)
        i = int((start + probs.cumsum()).searchsorted(alpha, side="left"))
        return ordered, probs, min(i, probs.size - 1)

    @staticmethod
    def _crossing(ends, p, start: float, alpha: float, bound: float = np.inf) -> float:
        """Smallest endpoint at which start + mass of endpoints <= it reaches alpha."""
        ordered, _, i = _ReturnTree._sorted(ends, p, start, alpha, bound)
        return float(ordered[i])

    def avars(self, root: int, alpha: float) -> tuple[float, float]:
        vmin, vmax, mean = (float(v) for v in self.offset[:, 0, root])
        if vmin == vmax:
            return mean, mean
        lo_offset, hi_offset, mean_offset = self.offset
        ent, p, s = np.array([root], dtype=np.int64), np.array([1.0]), np.array([0.0])
        below_mass = below_wsum = 0.0
        visited, qhi = 0, np.inf
        for t in range(self.k):
            lo, hi = s + lo_offset[t][ent], s + hi_offset[t][ent]
            # the pessimistic crossing cannot rise above the last one's by more
            # than interval noise, nor the optimistic one above the pessimistic
            qhi = self._crossing(hi, p, below_mass, alpha, qhi + self.margin)
            qlo = self._crossing(lo, p, below_mass, alpha, qhi)
            folded = hi <= qlo - self.margin
            full = folded.nonzero()[0]
            if full.size:
                p_full, s_full = p.take(full), s.take(full) + mean_offset[t][ent.take(full)]
                below_mass += float(p_full.sum())
                below_wsum += float((p_full * s_full).sum())
            keep = (~folded & (lo < qhi + self.margin)).nonzero()[0]
            kept = ent.take(keep)
            visited += int(self.n_children[kept].sum())  # the next frontier's size
            if visited > NODE_CAP:
                raise ResourceError(
                    f"return-tree traversal exceeded {NODE_CAP} nodes; "
                    "the branching-discount product is too large for this horizon"
                )
            # the smallest key type that holds every entry id: uint8 and uint16
            # keys take numpy's radix sort
            node = keep[kept.astype(self.key_type).argsort(kind="stable")]
            ent, p, s = self._expand(ent.take(node), p.take(node), s.take(node), t)

        # The frontier now holds every leaf the quantile atom could be; the
        # accumulated mass is exactly the mass of leaves resolved below it.
        values, probs, idx = self._sorted(s, p, below_mass, alpha, qhi + self.margin)
        q = float(values[idx])
        lt = values < q
        eq = values == q
        mass_lt = below_mass + float(probs[lt].sum())
        wsum_lt = below_wsum + float((probs[lt] * values[lt]).sum())
        mass_le = mass_lt + float(probs[eq].sum())
        wsum_le = wsum_lt + q * float(probs[eq].sum())
        left = (wsum_lt + (alpha - mass_lt) * q) / alpha
        right = ((mean - wsum_le) + (mass_le - alpha) * q) / (1.0 - alpha)
        return left, right


def exact_return_avars(
    mdp: Mdp,
    policy: Policy,
    alpha: float,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Left/right tail means of every entry's k-step return distribution."""
    _check_alpha(alpha)
    tree = _ReturnTree(mdp, policy, k)
    left, right = np.array([tree.avars(root, alpha) for root in range(tree.child.shape[0])]).T
    shape = (mdp.n_states, mdp.n_actions)
    return left.reshape(shape), right.reshape(shape)


@dataclass(frozen=True)
class ReturnAvars:
    """Tail means of k-step return approximations, with their a-priori error."""

    left: np.ndarray
    right: np.ndarray
    error_bound: float
    k: int


def truncation_bound(mdp: Mdp, k: int) -> float:
    """gamma^k * max|r| / (1 - gamma), the cost of truncating returns at k steps.

    It bounds the uniform quantile distance, so the error of every tail mean.
    """
    return mdp.gamma**k * mdp.reward_span() / (1.0 - mdp.gamma) if mdp.gamma > 0.0 else 0.0


def return_avars(mdp: Mdp, policy: Policy, alpha: float, k: int) -> ReturnAvars:
    """Per-(x, a) left/right tail means of the k-step return distribution.

    The distribution is the k-fold operator image of the point mass at
    zero; ``truncation_bound`` bounds the tail-mean error and is returned
    alongside the estimates. The tail means are exact, computed by the
    lazy traversal above, which checks the arguments.
    """
    left, right = exact_return_avars(mdp, policy, alpha, k)
    return ReturnAvars(left, right, truncation_bound(mdp, k), k)

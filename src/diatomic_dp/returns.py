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

import numpy as np

from .diatomic import _check_alpha
from .errors import DomainError, ResourceError
from .mdp import Mdp, Policy, check_policy

_MARGIN = 1e-12  # resolution margin around the bracket (times scale)
NODE_CAP = 2_000_000  # default budget of return-tree nodes visited per entry


class _ReturnTree:
    def __init__(self, mdp: Mdp, policy: Policy, k: int, node_cap: int):
        check_policy(mdp, policy)
        if k < 1:
            raise DomainError(f"need at least one step, got {k}")
        self.k = k
        self.node_cap = node_cap
        s_n, a_n = mdp.n_states, mdp.n_actions
        self.n_entries = s_n * a_n
        self.pow = mdp.gamma ** np.arange(k + 1)

        # Per-entry child arrays: successor entry ids, step probabilities
        # P(y|x,a) pi(b|y), and edge rewards r(x,a,y).
        self.child_ids: list[np.ndarray] = []
        self.child_probs: list[np.ndarray] = []
        self.child_rewards: list[np.ndarray] = []
        for x in range(s_n):
            for a in range(a_n):
                ids, probs, rewards = [], [], []
                for y in range(s_n):
                    p_y = mdp.transition[x, a, y]
                    if p_y == 0.0:
                        continue
                    for b in policy.support(y):
                        ids.append(y * a_n + b)
                        probs.append(p_y * policy.probs[y, b])
                        rewards.append(mdp.reward[x, a, y])
                self.child_ids.append(np.array(ids, dtype=np.int64))
                self.child_probs.append(np.array(probs))
                self.child_rewards.append(np.array(rewards))
        self.n_children = np.array([ids.size for ids in self.child_ids])

        # Value-interval and mean DPs indexed by steps remaining.
        self.min_rest = np.zeros((k + 1, self.n_entries))
        self.max_rest = np.zeros((k + 1, self.n_entries))
        self.mean_rest = np.zeros((k + 1, self.n_entries))
        for j in range(1, k + 1):
            for e in range(self.n_entries):
                ids = self.child_ids[e]
                rewards = self.child_rewards[e]
                self.min_rest[j, e] = (
                    rewards + mdp.gamma * self.min_rest[j - 1, ids]
                ).min()
                self.max_rest[j, e] = (
                    rewards + mdp.gamma * self.max_rest[j - 1, ids]
                ).max()
                self.mean_rest[j, e] = float(
                    np.dot(
                        self.child_probs[e],
                        rewards + mdp.gamma * self.mean_rest[j - 1, ids],
                    )
                )
        scale = max(
            1.0, float(np.abs(self.min_rest[k]).max()), float(np.abs(self.max_rest[k]).max())
        )
        self.margin = _MARGIN * scale

    def _expand(self, ent, p, s, t):
        parts_e, parts_p, parts_s = [], [], []
        for e in np.unique(ent):
            sel = ent == e
            cp, cr, ci = self.child_probs[e], self.child_rewards[e], self.child_ids[e]
            parts_p.append((p[sel][:, None] * cp[None, :]).ravel())
            parts_s.append((s[sel][:, None] + self.pow[t] * cr[None, :]).ravel())
            parts_e.append(np.tile(ci, sel.sum()))
        return (
            np.concatenate(parts_e),
            np.concatenate(parts_p),
            np.concatenate(parts_s),
        )

    @staticmethod
    def _crossing(ends: np.ndarray, p: np.ndarray, start: float, alpha: float) -> float:
        """Smallest endpoint at which start + mass of endpoints <= it reaches alpha."""
        order = np.argsort(ends, kind="stable")
        cum = start + np.cumsum(p[order])
        i = min(int(np.searchsorted(cum, alpha, side="left")), len(cum) - 1)
        return float(ends[order[i]])

    def avars(self, root: int, alpha: float) -> tuple[float, float]:
        vmin = float(self.min_rest[self.k, root])
        vmax = float(self.max_rest[self.k, root])
        mean = float(self.mean_rest[self.k, root])
        if vmin == vmax:
            return mean, mean

        ent = np.array([root], dtype=np.int64)
        p = np.array([1.0])
        s = np.array([0.0])
        below_mass = 0.0
        below_wsum = 0.0
        visited = 0
        for t in range(self.k):
            rem = self.k - t
            lo = s + self.pow[t] * self.min_rest[rem, ent]
            hi = s + self.pow[t] * self.max_rest[rem, ent]
            qlo = self._crossing(lo, p, below_mass, alpha)
            qhi = self._crossing(hi, p, below_mass, alpha)
            full = hi <= qlo - self.margin
            if full.any():
                below_mass += float(p[full].sum())
                below_wsum += float(
                    (p[full] * (s[full] + self.pow[t] * self.mean_rest[rem, ent[full]])).sum()
                )
            keep = ~full & (lo < qhi + self.margin)
            visited += int(self.n_children[ent[keep]].sum())  # the next frontier's size
            if visited > self.node_cap:
                raise ResourceError(
                    f"return-tree traversal exceeded {self.node_cap} nodes; "
                    "the branching-discount product is too large for this horizon"
                )
            ent, p, s = self._expand(ent[keep], p[keep], s[keep], t)

        # The frontier now holds every leaf the quantile atom could be; the
        # accumulated mass is exactly the mass of leaves resolved below it.
        order = np.argsort(s, kind="stable")
        values, probs = s[order], p[order]
        cum = below_mass + np.cumsum(probs)
        idx = min(int(np.searchsorted(cum, alpha, side="left")), len(cum) - 1)
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
    node_cap: int = NODE_CAP,
) -> tuple[np.ndarray, np.ndarray]:
    """Left/right tail means of every entry's k-step return distribution."""
    _check_alpha(alpha)
    tree = _ReturnTree(mdp, policy, k, node_cap)
    left = np.zeros((mdp.n_states, mdp.n_actions))
    right = np.zeros((mdp.n_states, mdp.n_actions))
    for x in range(mdp.n_states):
        for a in range(mdp.n_actions):
            left[x, a], right[x, a] = tree.avars(x * mdp.n_actions + a, alpha)
    return left, right

"""Distributional Bellman operator on tables of return distributions.

Each application pushes every entry's distribution through the dynamics:
atom counts multiply by up to the number of supported (state, action)
pairs, so repeated application grows exponentially. ``dbo_iterate`` fails
loudly on a configurable atom budget; ``return_avars`` gets the k-step tail
means from an exact lazy tree walk (see ``returns.py``) that never builds
the table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dist import DiscreteDist, mix, pushforward_affine
from .errors import DomainError, ResourceError, StructuralError
from .mdp import Mdp, Policy, check_policy
from .returns import NODE_CAP, exact_return_avars

ATOM_CAP = 2_000_000


class DistFunction:
    """A return distribution per (state, action) pair."""

    def __init__(self, dists: list[list[DiscreteDist]]):
        if not dists or not dists[0]:
            raise StructuralError("need at least one state and one action")
        width = len(dists[0])
        if any(len(row) != width for row in dists):
            raise StructuralError("ragged distribution table")
        self.dists = [list(row) for row in dists]

    @staticmethod
    def constant(mdp: Mdp, d: DiscreteDist) -> "DistFunction":
        return DistFunction([[d] * mdp.n_actions for _ in range(mdp.n_states)])

    @staticmethod
    def dirac_zero(mdp: Mdp) -> "DistFunction":
        return DistFunction.constant(mdp, DiscreteDist.dirac(0.0))

    @property
    def n_states(self) -> int:
        return len(self.dists)

    @property
    def n_actions(self) -> int:
        return len(self.dists[0])

    def entry(self, x: int, a: int) -> DiscreteDist:
        return self.dists[x][a]

    def total_atoms(self) -> int:
        return sum(d.n_atoms for row in self.dists for d in row)

    def max_atoms(self) -> int:
        return max(d.n_atoms for row in self.dists for d in row)

    def expectation_table(self) -> np.ndarray:
        return np.array(
            [[float(np.dot(d.values, d.probs)) for d in row] for row in self.dists]
        )


def _check_shapes(mdp: Mdp, df: DistFunction) -> None:
    if (df.n_states, df.n_actions) != (mdp.n_states, mdp.n_actions):
        raise StructuralError(
            f"distribution table is {df.n_states}x{df.n_actions}, "
            f"MDP is {mdp.n_states}x{mdp.n_actions}"
        )


def dbo_apply(mdp: Mdp, policy: Policy, df: DistFunction) -> DistFunction:
    """One dynamics step: mix the successor entries' pushforwards.

    Entry (x, a) becomes the mixture over supported (x', a') of the image
    of entry (x', a') under v -> r(x, a, x') + gamma * v, weighted by
    P(x'|x, a) pi(a'|x').
    """
    check_policy(mdp, policy)
    _check_shapes(mdp, df)
    out = []
    supports = [policy.support(x) for x in range(mdp.n_states)]
    for x in range(mdp.n_states):
        row = []
        for a in range(mdp.n_actions):
            components = []
            for y in range(mdp.n_states):
                p_y = mdp.transition[x, a, y]
                if p_y == 0.0:
                    continue
                for b in supports[y]:
                    w = p_y * policy.probs[y, b]
                    if w == 0.0:
                        continue
                    components.append(
                        (w, pushforward_affine(df.entry(y, b), mdp.reward[x, a, y], mdp.gamma))
                    )
            row.append(mix(components))
        out.append(row)
    return DistFunction(out)


def _prune(d: DiscreteDist, eps: float) -> DiscreteDist:
    keep = d.probs >= eps
    if not keep.any():
        raise DomainError(f"prune threshold {eps} would remove every atom")
    probs = d.probs[keep]
    return DiscreteDist(d.values[keep], probs / probs.sum())


def dbo_iterate(
    mdp: Mdp,
    policy: Policy,
    df: DistFunction,
    k: int,
    prune_eps: float = 0.0,
    atom_cap: int = ATOM_CAP,
) -> DistFunction:
    """Apply the operator ``k`` times with canonicalization after each step.

    With ``prune_eps > 0`` atoms below that probability are dropped after
    each step and the rest renormalized: an approximation, but one that
    keeps long horizons tractable. Exceeding ``atom_cap`` raises instead of
    thrashing.
    """
    if k < 0:
        raise DomainError(f"step count must be nonnegative, got {k}")
    if prune_eps < 0.0:
        raise DomainError(f"prune threshold must be nonnegative, got {prune_eps}")
    for _ in range(k):
        df = dbo_apply(mdp, policy, df)
        if prune_eps > 0.0:
            df = DistFunction([[_prune(d, prune_eps) for d in row] for row in df.dists])
        total = df.total_atoms()
        if total > atom_cap:
            raise ResourceError(
                f"atom budget exceeded: {total} > {atom_cap}; "
                "raise the cap or pass prune_eps to trade exactness for size"
            )
    return df


@dataclass(frozen=True)
class ReturnAvars:
    """Tail means of k-step return approximations, with their a-priori error."""

    left: np.ndarray
    right: np.ndarray
    error_bound: float
    k: int


def return_avars(
    mdp: Mdp,
    policy: Policy,
    alpha: float,
    k: int,
    node_cap: int = NODE_CAP,
) -> ReturnAvars:
    """Per-(x, a) left/right tail means of the k-step return distribution.

    The distribution is the k-fold operator image of the point mass at
    zero; truncating at k costs at most gamma^k * max|r| / (1 - gamma) in
    the uniform quantile distance, which bounds the tail-mean error and is
    returned alongside the estimates. The tail means are exact, computed by
    a lazy traversal of the outcome tree, which checks the arguments.
    """
    span = mdp.reward_span()
    bound = mdp.gamma**k * span / (1.0 - mdp.gamma) if mdp.gamma > 0.0 else 0.0
    left, right = exact_return_avars(mdp, policy, alpha, k, node_cap=node_cap)
    return ReturnAvars(left, right, bound, k)

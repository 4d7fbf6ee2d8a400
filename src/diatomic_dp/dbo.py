"""Distributional Bellman operator on tables of return distributions.

Each application pushes every entry's distribution through the dynamics:
atom counts multiply by up to the number of supported (state, action)
pairs, so repeated application grows exponentially, and ``dbo_apply``
raises once the entries it has built hold more than ``ATOM_CAP`` atoms.
``dbo_apply`` builds each entry from its successors in a plain loop that
shares nothing with the solvers: it is the reference that the lazy k-step
tail means of ``returns`` are checked against.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .dist import DiscreteDist
from .errors import DomainError, ResourceError, StructuralError
from .mdp import Mdp, Policy, check_policy

ATOM_CAP = 2_000_000  # most atoms a table may hold after a step


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
    """One dynamics step, each entry built as one distribution.

    Entry (x, a) becomes the mixture over supported (x', a') of the image
    of entry (x', a') under v -> r(x, a, x') + gamma * v, weighted by
    P(x'|x, a) pi(a'|x'). Raises ResourceError as soon as the entries built
    so far hold more than ``ATOM_CAP`` atoms; one entry holds at most as
    many atoms as all of ``df``.
    """
    check_policy(mdp, policy)
    _check_shapes(mdp, df)
    ys, bs = np.nonzero(policy.probs)  # the supported (x', a') in index order
    dists = [df.entry(y, b) for y, b in zip(ys, bs)]
    scaled = [mdp.gamma * d.values for d in dists]
    masses = [d.probs / d.probs.sum() for d in dists]
    out, total = [], 0
    for x in range(mdp.n_states):
        row = []
        for a in range(mdp.n_actions):
            weights = mdp.transition[x, a, ys] * policy.probs[ys, bs]
            live = np.flatnonzero(weights > 0.0)
            d = DiscreteDist(
                np.concatenate([mdp.reward[x, a, ys[i]] + scaled[i] for i in live]),
                np.concatenate([weights[i] * masses[i] for i in live]),
            )
            total += d.n_atoms
            if total > ATOM_CAP:
                raise ResourceError(
                    f"atom budget exceeded: {total} > {ATOM_CAP} in the first "
                    f"{x * mdp.n_actions + a + 1} of {mdp.n_states * mdp.n_actions} entries"
                )
            row.append(d)
        out.append(row)
    return DistFunction(out)


def dbo_steps(mdp: Mdp, policy: Policy, df: DistFunction, k: int) -> Iterator[DistFunction]:
    """The tables after each of ``k`` operator steps from ``df`` (see ``dbo_apply``)."""
    if k < 0:
        raise DomainError(f"step count must be nonnegative, got {k}")
    for _ in range(k):
        df = dbo_apply(mdp, policy, df)
        yield df


def dbo_iterate(mdp: Mdp, policy: Policy, df: DistFunction, k: int) -> DistFunction:
    """The table after ``k`` operator steps from ``df`` (see ``dbo_steps``)."""
    for df in dbo_steps(mdp, policy, df, k):
        pass
    return df

"""Seeded input generators for the benchmark workloads.

Every instance comes from a ``numpy.random.Generator`` seeded by the
workload seed, so one seed always gives the same inputs. Dense kernels
draw a Dirichlet row over all successors; sparse kernels give each
(x, a) row ``succ`` successors chosen at random. Balanced instances use
the reward shift of ``corpus.random_balanced_mdp``: each (x, a) reward row
is moved by a constant so that every action has Q*(x, a) = v(x).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from diatomic_dp import Mdp, Policy


@dataclass(frozen=True)
class Instance:
    """One generated MDP with the parameters that go with it."""

    name: str
    mdp: Mdp
    alpha: float
    policy: Policy

    @cached_property
    def record(self) -> dict:
        """S, A, gamma, alpha and sparsity, as written into the results file."""
        link = self.mdp.transition[:, :, :, None] * self.policy.probs[None, None, :, :]
        s, a = self.mdp.n_states, self.mdp.n_actions
        return {
            "name": self.name,
            "S": s,
            "A": a,
            "gamma": self.mdp.gamma,
            "alpha": self.alpha,
            "nnz": int(np.count_nonzero(self.mdp.transition)),
            "particles": 2 * s * s * a * a,
            "live_particles": 2 * int(np.count_nonzero(link)),
        }


def kernel(rng: np.random.Generator, s: int, a: int, succ: int | None) -> np.ndarray:
    """(S, A, S) transition table; ``succ=None`` is dense."""
    if succ is None:
        return rng.dirichlet(np.ones(s), size=(s, a))
    table = np.zeros((s, a, s))
    targets = np.argsort(rng.random((s, a, s)), axis=2)[:, :, :succ]
    np.put_along_axis(table, targets, rng.dirichlet(np.ones(succ), size=(s, a)), axis=2)
    return table


def random_mdp(rng, s: int, a: int, gamma: float, succ: int | None) -> Mdp:
    """Unstructured instance, rewards uniform in [-1, 3] as in ``corpus.random_mdp``."""
    transition = kernel(rng, s, a, succ)
    reward = rng.uniform(-1.0, 3.0, size=(s, a, s)) * (transition > 0.0)
    return Mdp(transition=transition, reward=reward, gamma=gamma)


def balanced_mdp(rng, s: int, a: int, gamma: float, succ: int | None) -> Mdp:
    """Every action optimal in every state (the ``corpus.random_balanced_mdp`` shift)."""
    transition = kernel(rng, s, a, succ)
    v = rng.uniform(0.0, 4.0, size=s)
    reward = rng.uniform(-1.0, 1.0, size=(s, a, s)) * (transition > 0.0)
    onestep = np.einsum("xay,xay->xa", transition, reward + gamma * v[None, None, :])
    reward = (reward + (v[:, None] - onestep)[:, :, None]) * (transition > 0.0)
    return Mdp(transition=transition, reward=reward, gamma=gamma)


def random_policy(rng, mdp: Mdp) -> Policy:
    """Per state, a Dirichlet row over a random non-empty subset of the actions."""
    probs = np.zeros((mdp.n_states, mdp.n_actions))
    for x in range(mdp.n_states):
        support = rng.permutation(mdp.n_actions)[: int(rng.integers(1, mdp.n_actions + 1))]
        probs[x, support] = rng.dirichlet(np.ones(len(support)))
    return Policy(probs)


def deterministic_policies(mdp: Mdp):
    """Every deterministic admissible policy with its choice vector."""
    for choices in itertools.product(*mdp.action_sets):
        yield Policy.deterministic(mdp, choices), choices


def distribution(rng, n_atoms: int) -> list[dict]:
    """A discrete distribution in the ``avar`` subcommand's file format."""
    values = rng.uniform(-10.0, 10.0, size=n_atoms)
    probs = rng.dirichlet(np.ones(n_atoms))
    return [{"value": float(v), "prob": float(p)} for v, p in zip(values, probs)]

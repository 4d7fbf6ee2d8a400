"""Bundled example MDPs and seeded random generators.

``fig1`` is the two-state instance used throughout the tests: action a1
stays put, action a2 jumps uniformly, and every action is optimal
(Q*(x1, .) = 2, Q*(x2, .) = 4 at gamma = 1/2).
"""

from __future__ import annotations

import importlib.resources
import json
import pathlib

import numpy as np

from .mdp import Mdp, mdp_from_dict, save_mdp

# Seeds for the stock corpus; the discount for the 3-state instances is
# deliberately lower so that k-step return trees stay narrow enough for the
# exact tail-mean queries used in the verification suite.
CORPUS_2STATE_SEEDS = tuple(range(100, 120))
CORPUS_3STATE_SEEDS = tuple(range(300, 305))
CORPUS_2STATE_GAMMA = 0.5
CORPUS_3STATE_GAMMA = 0.4


def fig1_mdp() -> Mdp:
    text = importlib.resources.files("diatomic_dp").joinpath("data/fig1.json").read_text()
    return mdp_from_dict(json.loads(text))


def random_mdp(n_states: int, n_actions: int, gamma: float, seed: int) -> Mdp:
    """Unstructured instance: Dirichlet rows, uniform rewards in [-1, 3]."""
    rng = np.random.default_rng(seed)
    transition = rng.dirichlet(np.ones(n_states), size=(n_states, n_actions))
    reward = rng.uniform(-1.0, 3.0, size=(n_states, n_actions, n_states))
    return Mdp(transition=transition, reward=reward, gamma=gamma)


def random_balanced_mdp(n_states: int, n_actions: int, gamma: float, seed: int) -> Mdp:
    """Instance where every action is optimal in every state.

    Draw target state values v and an arbitrary kernel, then shift each
    (x, a) reward row by a constant so its expected one-step value equals
    v(x) exactly. All actions then share Q*(x, a) = v(x).
    """
    rng = np.random.default_rng(seed)
    transition = rng.dirichlet(np.ones(n_states), size=(n_states, n_actions))
    v = rng.uniform(0.0, 4.0, size=n_states)
    reward = rng.uniform(-1.0, 1.0, size=(n_states, n_actions, n_states))
    onestep = np.einsum("xay,xay->xa", transition, reward + gamma * v[None, None, :])
    reward = reward + (v[:, None] - onestep)[:, :, None]
    return Mdp(transition=transition, reward=reward, gamma=gamma)


def stock_corpus() -> list[tuple[str, Mdp]]:
    """The fixed evaluation corpus: fig1 plus seeded balanced instances."""
    items = [("fig1", fig1_mdp())]
    for seed in CORPUS_2STATE_SEEDS:
        items.append(
            (f"balanced_s2_seed{seed}", random_balanced_mdp(2, 2, CORPUS_2STATE_GAMMA, seed))
        )
    for seed in CORPUS_3STATE_SEEDS:
        items.append(
            (f"balanced_s3_seed{seed}", random_balanced_mdp(3, 2, CORPUS_3STATE_GAMMA, seed))
        )
    return items


def bundled_corpus(out_dir: str) -> list[str]:
    """Write the stock corpus as JSON files; returns the paths."""
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, mdp in stock_corpus():
        path = out / f"{name}.json"
        save_mdp(mdp, str(path))
        paths.append(str(path))
    return paths

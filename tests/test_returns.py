"""The exact-tail walk of ``returns`` against the walk it replaced, byte for byte."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diatomic_dp.corpus import fig1_mdp, random_balanced_mdp, random_mdp
from diatomic_dp.diatomic import _played_table
from diatomic_dp.mdp import Mdp, Policy
from diatomic_dp.returns import _MARGIN, _ReturnTree, exact_return_avars

# ---------------------------------------------------------------------------
# the reference: the level walk as it was, every sort one stable argsort
# ---------------------------------------------------------------------------


def stable_sort(keys):
    order = np.argsort(keys, kind="stable")
    return order, keys[order]


class ReferenceWalk:
    """The walk before offset tables, whole-row gathers and bounded prefix
    sorts: interval ends formed per level, children gathered cell by cell,
    every crossing and the leaves on a full stable sort."""

    def __init__(self, mdp, policy, k):
        self.k = k
        self.pow = mdp.gamma ** np.arange(k + 1)
        table, sources = _played_table(mdp, policy)
        self.child, self.prob, self.reward = sources[table.succ], table.mass, table.reward
        self.n_children = np.count_nonzero(self.prob, axis=1)
        real = self.prob > 0.0
        self.min_rest = np.zeros((k + 1, self.child.shape[0]))
        self.max_rest = np.zeros_like(self.min_rest)
        self.mean_rest = np.zeros_like(self.min_rest)
        for j in range(1, k + 1):
            low, high, mean = (
                self.reward + mdp.gamma * rest[j - 1, self.child]
                for rest in (self.min_rest, self.max_rest, self.mean_rest)
            )
            self.min_rest[j] = np.where(real, low, np.inf).min(axis=1)
            self.max_rest[j] = np.where(real, high, -np.inf).max(axis=1)
            self.mean_rest[j] = (self.prob[:, None, :] @ mean[:, :, None])[:, 0, 0]
        scale = max(
            1.0, float(np.abs(self.min_rest[k]).max()), float(np.abs(self.max_rest[k]).max())
        )
        self.margin = _MARGIN * scale

    def expand(self, ent, p, s, t):
        node = ent.argsort(kind="stable")
        counts = self.n_children[ent[node]]
        node = node.repeat(counts)
        first = np.repeat(counts.cumsum() - counts, counts)
        cell = ent[node] * self.child.shape[1] + np.arange(node.size) - first
        return (
            self.child.ravel()[cell],
            p[node] * self.prob.ravel()[cell],
            s[node] + self.pow[t] * self.reward.ravel()[cell],
        )

    @staticmethod
    def crossing(ends, p, start, alpha):
        order, ordered = stable_sort(ends)
        cum = start + p[order].cumsum()
        i = min(int(cum.searchsorted(alpha, side="left")), len(cum) - 1)
        return float(ordered[i])

    def avars(self, root, alpha):
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
        for t in range(self.k):
            rem = self.k - t
            lo = s + self.pow[t] * self.min_rest[rem, ent]
            hi = s + self.pow[t] * self.max_rest[rem, ent]
            qlo = self.crossing(lo, p, below_mass, alpha)
            qhi = self.crossing(hi, p, below_mass, alpha)
            full = hi <= qlo - self.margin
            if full.any():
                below_mass += float(p[full].sum())
                below_wsum += float(
                    (p[full] * (s[full] + self.pow[t] * self.mean_rest[rem, ent[full]])).sum()
                )
            keep = ~full & (lo < qhi + self.margin)
            ent, p, s = self.expand(ent[keep], p[keep], s[keep], t)
        order, values = stable_sort(s)
        probs = p[order]
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


def reference_avars(mdp, policy, alpha, k):
    walk = ReferenceWalk(mdp, policy, k)
    return np.array([walk.avars(root, alpha) for root in range(walk.child.shape[0])]).T


def sparse_mdp(seed, n_states=4, n_actions=2, gamma=0.7):
    """One to three successors per (x, a), so the played rows differ in width."""
    rng = np.random.default_rng(seed)
    transition = np.zeros((n_states, n_actions, n_states))
    for x in range(n_states):
        for a in range(n_actions):
            succ = rng.choice(n_states, size=int(rng.integers(1, 4)), replace=False)
            transition[x, a, succ] = rng.dirichlet(np.ones(succ.size))
    reward = rng.uniform(-1.0, 3.0, size=transition.shape)
    return Mdp(transition=transition, reward=reward, gamma=gamma)


def integer_rewards(mdp):
    return mdp.with_reward(np.round(mdp.reward))


def cases():
    """(name, mdp, policy): padded and unpadded child tables, tied and distinct rewards."""
    fig1 = fig1_mdp()
    yield "fig1-uniform", fig1, Policy.uniform(fig1)
    yield "fig1-always1", fig1, Policy.always(fig1, 1)
    # a1 self-loops, so some roots have vmin == vmax and others do not
    yield "fig1-mixed", fig1, Policy(np.array([[1.0, 0.0], [0.5, 0.5]]))
    for seed in range(3):
        sparse = sparse_mdp(seed)
        yield f"sparse{seed}-uniform", sparse, Policy.uniform(sparse)
        yield f"sparse{seed}-always0-int", integer_rewards(sparse), Policy.always(sparse, 0)
    dense = random_mdp(3, 3, 0.6, seed=4)
    # zero entries in a stochastic policy pad every row that reaches a state it skips
    zeros = Policy(np.array([[0.5, 0.0, 0.5], [0.0, 1.0, 0.0], [0.2, 0.3, 0.5]]))
    yield "dense-zeros", dense, zeros
    yield "dense-int", integer_rewards(dense), Policy.uniform(dense)
    balanced = random_balanced_mdp(3, 2, 0.5, seed=5)
    yield "balanced-always1", balanced, Policy.always(balanced, 1)


CASES = list(cases())


def test_cases_cover_both_table_layouts_and_point_roots():
    trees = [_ReturnTree(mdp, pi, 6) for _, mdp, pi in CASES]
    padded = [tree.real is not None for tree in trees]
    assert any(padded) and not all(padded)
    # roots whose 6-step return is one point (vmin == vmax) take the mean shortcut
    assert any((tree.offset[0, 0] == tree.offset[1, 0]).any() for tree in trees)


@pytest.mark.parametrize("name, mdp, policy", CASES, ids=[c[0] for c in CASES])
@pytest.mark.parametrize("alpha", [0.01, 0.37, 0.99])
@pytest.mark.parametrize("k", [1, 6])
def test_walk_bytes_equal_the_reference(name, mdp, policy, alpha, k):
    left, right = exact_return_avars(mdp, policy, alpha, k)
    want_left, want_right = reference_avars(mdp, policy, alpha, k)
    assert left.ravel().tobytes() == want_left.tobytes()
    assert right.ravel().tobytes() == want_right.tobytes()


LONG = [("fig1-uniform", 0.5), ("fig1-mixed", 0.01), ("fig1-mixed", 0.99)]
LONG += [("sparse0-always0-int", alpha) for alpha in (0.01, 0.5, 0.99)]


@pytest.mark.parametrize("name, alpha", LONG)
def test_long_walk_bytes_equal_the_reference(name, alpha):
    _, mdp, policy = next(c for c in CASES if c[0] == name)
    left, right = exact_return_avars(mdp, policy, alpha, 30)
    want_left, want_right = reference_avars(mdp, policy, alpha, 30)
    assert left.ravel().tobytes() == want_left.tobytes()
    assert right.ravel().tobytes() == want_right.tobytes()


def test_offset_tables_are_the_level_products():
    mdp, k = sparse_mdp(1), 7
    policy = Policy.uniform(mdp)
    tree, walk = _ReturnTree(mdp, policy, k), ReferenceWalk(mdp, policy, k)
    for t in range(k):
        for got, rest in zip(tree.offset[:, t], (walk.min_rest, walk.max_rest, walk.mean_rest)):
            assert got.tobytes() == (walk.pow[t] * rest[k - t]).tobytes()
    assert tree.margin == walk.margin


# ---------------------------------------------------------------------------
# the bounded crossing
# ---------------------------------------------------------------------------


@st.composite
def frontiers(draw):
    """Interval ends with exact ties and zero masses, a start mass and a level."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 200))
    ends = rng.choice(rng.uniform(-5.0, 5.0, size=draw(st.integers(1, 12))), size=n)
    p = rng.uniform(1e-6, 1.0, size=n) * (rng.random(n) >= draw(st.floats(0.0, 0.5)))
    p = p / max(p.sum(), 1.0)
    return ends, p, draw(st.floats(0.0, 0.5)), draw(st.floats(0.01, 0.99))


@settings(max_examples=300, deadline=None)
@given(frontiers())
def test_bounded_crossing_equals_the_unbounded(frontier):
    ends, p, start, alpha = frontier
    q = _ReturnTree._crossing(ends, p, start, alpha)
    assert q == ReferenceWalk.crossing(ends, p, start, alpha)
    below = float(ends[ends < q].max()) if (ends < q).any() else q - 1.0
    # below the crossing the prefix falls short and the full sort decides
    for bound in (below, np.nextafter(q, -np.inf), q, np.nextafter(q, np.inf), q + 1.0):
        assert _ReturnTree._crossing(ends, p, start, alpha, bound) == q


@settings(max_examples=200, deadline=None)
@given(frontiers())
def test_sorted_prefix_is_the_full_sorts_prefix(frontier):
    ends, p, start, alpha = frontier
    full, full_probs, i = _ReturnTree._sorted(ends, p, start, alpha, np.inf)
    order, _ = stable_sort(ends)
    assert full.tobytes() == ends[order].tobytes()
    assert full_probs.tobytes() == p[order].tobytes()
    ordered, probs, j = _ReturnTree._sorted(ends, p, start, alpha, full[i])
    assert j == i
    assert ordered.tobytes() == full[: ordered.size].tobytes()
    assert probs.tobytes() == full_probs[: probs.size].tobytes()

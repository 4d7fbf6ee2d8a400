import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from diatomic_dp import dbo, returns
from diatomic_dp.corpus import fig1_mdp, random_balanced_mdp, random_mdp, stock_corpus
from diatomic_dp.dbo import DistFunction, dbo_apply, dbo_iterate, dbo_steps
from diatomic_dp.dist import (
    DiscreteDist,
    avar_left,
    avar_right,
    expectation,
    mix,
    pushforward_affine,
    wasserstein,
)
from diatomic_dp.errors import DomainError, ResourceError
from diatomic_dp.mdp import Mdp, Policy, evaluate_policy
from diatomic_dp.returns import _ReturnTree, _stable_sort, exact_return_avars, return_avars


# ---------------------------------------------------------------------------
# independent fission oracle: enumerate outcome trees with plain recursion
# ---------------------------------------------------------------------------

def fission_oracle(mdp, policy, mu0_atoms, k):
    """Atoms of the k-step table, computed without the package's machinery.

    mu0_atoms is a list of (value, prob); returns {(x, a): (values, probs)}
    with atoms merged on 12 decimals.
    """

    def entry_atoms(x, a, depth):
        if depth == 0:
            return [(v, p) for v, p in mu0_atoms]
        out = []
        for y in range(mdp.n_states):
            p_y = mdp.transition[x, a, y]
            if p_y == 0.0:
                continue
            for b in range(mdp.n_actions):
                w = p_y * policy.probs[y, b]
                if w == 0.0:
                    continue
                for v, p in entry_atoms(y, b, depth - 1):
                    out.append((mdp.reward[x, a, y] + mdp.gamma * v, w * p))
        return out

    table = {}
    for x in range(mdp.n_states):
        for a in range(mdp.n_actions):
            merged = {}
            for v, p in entry_atoms(x, a, k):
                key = round(v, 12)
                merged[key] = merged.get(key, 0.0) + p
            vals = np.array(sorted(merged))
            table[(x, a)] = (vals, np.array([merged[v] for v in vals]))
    return table


def quantile_curve(values, probs, taus):
    cum = np.cumsum(probs)
    idx = np.minimum(np.searchsorted(cum, taus, side="left"), len(values) - 1)
    return values[idx]


def mixture_apply(mdp, policy, df):
    """The operator as a loop: one pushforward per successor entry, then one mixture."""
    out = []
    for x in range(mdp.n_states):
        row = []
        for a in range(mdp.n_actions):
            components = []
            for y in range(mdp.n_states):
                p_y = mdp.transition[x, a, y]
                if p_y == 0.0:
                    continue
                for b in policy.support(y):
                    w = p_y * policy.probs[y, b]
                    if w == 0.0:
                        continue
                    components.append(
                        (w, pushforward_affine(df.entry(y, b), mdp.reward[x, a, y], mdp.gamma))
                    )
            row.append(mix(components))
        out.append(row)
    return DistFunction(out)


@pytest.fixture
def fig1():
    return fig1_mdp()


@pytest.fixture
def start_dist():
    # 0.3 delta_-1 + 0.7 delta_1
    return DiscreteDist([-1.0, 1.0], [0.3, 0.7])


class TestApply:
    @pytest.mark.parametrize("gamma", [0.3, 0.9, 0.0])
    def test_equals_the_mixture_loop(self, gamma):
        mdps = [random_mdp(3, 2, gamma, seed=4), *(m for _, m in stock_corpus())]
        for mdp in (replace(m, gamma=gamma) for m in mdps):
            rng = np.random.default_rng(3)
            stochastic = Policy(rng.dirichlet(np.ones(mdp.n_actions), size=mdp.n_states))
            for pi in (Policy.uniform(mdp), Policy.always(mdp, 0), stochastic):
                df = DistFunction.dirac_zero(mdp)
                for got in dbo_steps(mdp, pi, df, 4):
                    want = mixture_apply(mdp, pi, df)
                    for d, w in zip(sum(got.dists, []), sum(want.dists, [])):
                        if gamma > 0.0:  # the same atoms bit for bit
                            assert np.array_equal(d.values, w.values)
                            assert np.array_equal(d.probs, w.probs)
                        else:  # the loop merges each successor's atoms first
                            assert_allclose(d.values, w.values, rtol=0, atol=1e-15)
                            assert_allclose(d.probs, w.probs, rtol=0, atol=1e-15)
                    df = got

    def test_one_step_atoms(self, fig1, start_dist):
        df = dbo_apply(fig1, Policy.uniform(fig1), DistFunction.constant(fig1, start_dist))
        # rewards are independent of the successor here, so each entry has
        # exactly the two shifted atoms with the starting masses
        d = df.entry(0, 0)
        assert_allclose(d.values, [0.5, 1.5], atol=1e-15)
        assert_allclose(d.probs, [0.3, 0.7], atol=1e-15)
        d = df.entry(0, 1)
        assert_allclose(d.values, [0.0, 1.0], atol=1e-15)
        assert_allclose(d.probs, [0.3, 0.7], atol=1e-15)

    def test_matches_enumeration(self, fig1, start_dist):
        pi = Policy.uniform(fig1)
        df = DistFunction.constant(fig1, start_dist)
        for k in (1, 2, 3):
            out = dbo_iterate(fig1, pi, df, k)
            oracle = fission_oracle(
                fig1, pi, list(zip(start_dist.values, start_dist.probs)), k
            )
            taus = np.linspace(1e-6, 1.0, 701)
            for (x, a), (vals, probs) in oracle.items():
                d = out.entry(x, a)
                assert_allclose(
                    quantile_curve(d.values, d.probs, taus),
                    quantile_curve(vals, probs, taus),
                    atol=1e-9,
                )

    def test_matches_enumeration_random(self):
        m = random_mdp(3, 2, 0.7, seed=77)
        rng = np.random.default_rng(8)
        pi = Policy(rng.dirichlet(np.ones(2), size=3))
        df = DistFunction.dirac_zero(m)
        out = dbo_iterate(m, pi, df, 3)
        oracle = fission_oracle(m, pi, [(0.0, 1.0)], 3)
        taus = np.linspace(1e-6, 1.0, 501)
        for (x, a), (vals, probs) in oracle.items():
            d = out.entry(x, a)
            assert_allclose(
                quantile_curve(d.values, d.probs, taus),
                quantile_curve(vals, probs, taus),
                atol=1e-9,
            )

    def test_gamma_zero_collapses_to_reward_dists(self):
        m = random_mdp(3, 2, 0.0, seed=5)
        df = dbo_apply(m, Policy.uniform(m), DistFunction.constant(m, DiscreteDist.dirac(9.0)))
        for x in range(3):
            for a in range(2):
                d = df.entry(x, a)
                support = {round(r, 10) for r in m.reward[x, a]}
                assert {round(v, 10) for v in d.values} <= support

    def test_mass_preserved(self, fig1, start_dist):
        df = dbo_iterate(fig1, Policy.uniform(fig1), DistFunction.constant(fig1, start_dist), 4)
        for row in df.dists:
            for d in row:
                assert_allclose(d.probs.sum(), 1.0, atol=1e-12)

    def test_expectation_commutes_with_bellman(self, fig1, start_dist):
        pi = Policy.uniform(fig1)
        df = DistFunction.constant(fig1, start_dist)
        from diatomic_dp.mdp import bellman_policy_op

        for _ in range(3):
            stepped = dbo_apply(fig1, pi, df)
            assert_allclose(
                stepped.expectation_table(),
                bellman_policy_op(fig1, pi, df.expectation_table()),
                atol=1e-12,
            )
            df = stepped

    def test_mixture_linearity(self, fig1):
        pi = Policy.uniform(fig1)
        d1 = DiscreteDist([-2.0, 1.0], [0.5, 0.5])
        d2 = DiscreteDist([0.0, 3.0], [0.25, 0.75])
        lam = 0.3
        mixed = DistFunction.constant(fig1, mix([(lam, d1), (1.0 - lam, d2)]))
        out_mixed = dbo_apply(fig1, pi, mixed)
        out1 = dbo_apply(fig1, pi, DistFunction.constant(fig1, d1))
        out2 = dbo_apply(fig1, pi, DistFunction.constant(fig1, d2))
        for x in range(2):
            for a in range(2):
                want = mix([(lam, out1.entry(x, a)), (1.0 - lam, out2.entry(x, a))])
                got = out_mixed.entry(x, a)
                assert wasserstein(got, want, 1.0) <= 1e-12

    def test_contraction_telescopes(self, fig1, start_dist):
        pi = Policy.uniform(fig1)
        frames = [DistFunction.constant(fig1, start_dist)]
        for _ in range(6):
            frames.append(dbo_apply(fig1, pi, frames[-1]))

        def sup_dist(a, b):
            return max(
                wasserstein(a.entry(x, c), b.entry(x, c), math.inf)
                for x in range(2)
                for c in range(2)
            )

        gaps = [sup_dist(frames[i + 1], frames[i]) for i in range(6)]
        for i in range(5):
            assert gaps[i + 1] <= fig1.gamma * gaps[i] + 1e-9


class TestIterate:
    def test_zero_steps_is_identity(self, fig1, start_dist):
        df = DistFunction.constant(fig1, start_dist)
        out = dbo_iterate(fig1, Policy.uniform(fig1), df, 0)
        assert out.entry(0, 0) is df.entry(0, 0)

    def test_atom_budget_stops_before_the_last_entry(self, monkeypatch):
        mdp = random_mdp(3, 2, 0.9, seed=4)
        pi = Policy.uniform(mdp)
        table = dbo_apply(mdp, pi, DistFunction.dirac_zero(mdp))
        first = dbo_apply(mdp, pi, table).entry(0, 0).n_atoms
        built = []

        def counted(values, probs):
            built.append(len(values))
            return DiscreteDist(values, probs)

        monkeypatch.setattr(dbo, "DiscreteDist", counted)
        monkeypatch.setattr(dbo, "ATOM_CAP", first)  # the second entry goes over
        with pytest.raises(ResourceError, match="in the first 2 of 6 entries"):
            dbo_iterate(mdp, pi, table, 1)
        assert len(built) == 2

    def test_atom_budget_enforced(self, fig1, start_dist, monkeypatch):
        monkeypatch.setattr(dbo, "ATOM_CAP", 100)
        with pytest.raises(ResourceError, match="atom budget exceeded"):
            dbo_iterate(
                fig1,
                Policy.uniform(fig1),
                DistFunction.constant(fig1, start_dist),
                6,
            )

    def test_negative_step_count_rejected(self, fig1, start_dist):
        with pytest.raises(DomainError, match="step count must be nonnegative"):
            dbo_iterate(fig1, Policy.uniform(fig1), DistFunction.constant(fig1, start_dist), -1)


def dense_tails(mdp, pi, alpha, k):
    """Tail means of the materialized k-step table: the oracle for the lazy engine."""
    df = dbo_iterate(mdp, pi, DistFunction.dirac_zero(mdp), k)
    left = np.array([[avar_left(d, alpha) for d in row] for row in df.dists])
    right = np.array([[avar_right(d, 1.0 - alpha) for d in row] for row in df.dists])
    return left, right


class TestReturnAvars:
    def test_single_state_truncated_geometric(self):
        m = Mdp(transition=np.ones((1, 1, 1)), reward=np.ones((1, 1, 1)), gamma=0.5)
        res = return_avars(m, Policy.always(m, 0), alpha=0.3, k=10)
        want = sum(0.5**t for t in range(10))
        assert_allclose(res.left[0, 0], want, atol=1e-12)
        assert_allclose(res.right[0, 0], want, atol=1e-12)
        assert_allclose(res.error_bound, 0.5**10 * 1.0 / 0.5, atol=1e-15)

    def test_deterministic_chain_exact(self, fig1):
        # always-a1 self-loops: every return is deterministic
        res = return_avars(fig1, Policy.always(fig1, 0), alpha=0.5, k=12)
        want_x1 = sum(0.5**t for t in range(12))  # reward 1 forever
        assert_allclose(res.left[0, 0], want_x1, atol=1e-12)
        assert_allclose(res.right[0, 0], want_x1, atol=1e-12)

    def test_lazy_equals_dense_small_horizon(self, fig1):
        pi = Policy.always(fig1, 1)
        for k in (1, 3, 8, 12):
            dense_left, dense_right = dense_tails(fig1, pi, 0.5, k)
            lazy_left, lazy_right = exact_return_avars(fig1, pi, 0.5, k)
            assert_allclose(lazy_left, dense_left, atol=1e-11)
            assert_allclose(lazy_right, dense_right, atol=1e-11)

    def test_lazy_equals_dense_random(self):
        for seed in (0, 1, 2):
            m = random_balanced_mdp(2, 2, 0.5, seed=seed)
            for choice in ([0, 0], [0, 1], [1, 0], [1, 1]):
                pi = Policy.deterministic(m, choice)
                dense_left, dense_right = dense_tails(m, pi, 0.37, 9)
                lazy_left, lazy_right = exact_return_avars(m, pi, 0.37, 9)
                assert_allclose(lazy_left, dense_left, atol=1e-10)
                assert_allclose(lazy_right, dense_right, atol=1e-10)

    def test_long_horizon_switches_to_lazy(self, fig1):
        res = return_avars(fig1, Policy.always(fig1, 1), alpha=0.5, k=30)
        # k = 30 tail bound
        assert_allclose(res.error_bound, 0.5**30 * 2.5 / 0.5, atol=1e-20)
        # the two-atom fixed point of the risky policy brackets these tails
        assert res.left[0, 1] <= 1.5 + res.error_bound + 1e-12
        assert res.right[0, 1] >= 2.5 - res.error_bound - 1e-12
        assert res.left[1, 1] <= 3.5 + res.error_bound + 1e-12
        assert res.right[1, 1] >= 4.5 - res.error_bound - 1e-12

    def test_tail_identity_on_lazy_engine(self, fig1):
        # alpha * left + (1 - alpha) * right must equal the k-step mean,
        # which in turn matches classic policy evaluation up to the bound
        pi = Policy.always(fig1, 1)
        alpha = 0.41
        res = return_avars(fig1, pi, alpha, k=26)
        mean = alpha * res.left + (1.0 - alpha) * res.right
        q_pi = evaluate_policy(fig1, pi, tol=1e-13).q
        assert np.abs(mean - q_pi).max() <= res.error_bound + 1e-10

    def test_bad_args(self, fig1):
        pi = Policy.uniform(fig1)
        with pytest.raises(DomainError):
            return_avars(fig1, pi, alpha=0.0, k=5)
        with pytest.raises(DomainError):
            return_avars(fig1, pi, alpha=0.5, k=0)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.2, math.nan])
    def test_exact_tails_reject_bad_level(self, fig1, alpha):
        with pytest.raises(DomainError):
            exact_return_avars(fig1, Policy.uniform(fig1), alpha, 5)
        with pytest.raises(DomainError):
            return_avars(fig1, Policy.uniform(fig1), alpha, 5)

    def test_node_budget_enforced(self, fig1, monkeypatch):
        monkeypatch.setattr(returns, "NODE_CAP", 3)
        with pytest.raises(ResourceError, match="node"):
            exact_return_avars(fig1, Policy.uniform(fig1), 0.5, 30)

    def test_node_budget_checked_before_expanding(self, monkeypatch):
        mdp = random_mdp(30, 4, 0.9, seed=3)
        built = []
        expand = _ReturnTree._expand

        def counting_expand(tree, *args):
            out = expand(tree, *args)
            built.append(len(out[0]))
            return out

        monkeypatch.setattr(_ReturnTree, "_expand", counting_expand)
        monkeypatch.setattr(returns, "NODE_CAP", 200_000)
        with pytest.raises(ResourceError, match="exceeded 200000 nodes"):
            exact_return_avars(mdp, Policy.uniform(mdp), 0.5, 6)
        assert built and sum(built) <= 200_000


# ---------------------------------------------------------------------------
# the frontier sorts against one stable argsort each
# ---------------------------------------------------------------------------

def stable_sort(keys):
    """One stable argsort, as every frontier sort was: the reference for ``_stable_sort``."""
    order = np.argsort(keys, kind="stable")
    return order, keys[order]


def crossing_stable(ends, p, start, alpha):
    """``_ReturnTree._crossing`` on one stable argsort: its reference."""
    order = np.argsort(ends, kind="stable")
    cum = start + np.cumsum(p[order])
    i = min(int(np.searchsorted(cum, alpha, side="left")), len(cum) - 1)
    return float(ends[order[i]])


@st.composite
def frontiers(draw):
    """Interval ends with exact ties, near ties (0.3e-12 to 2e-12 apart) and zero masses."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 200))
    pool = rng.uniform(-5.0, 5.0, size=draw(st.integers(1, 8)))
    ends = rng.choice(pool, size=n)
    near = rng.random(n) < draw(st.floats(0.0, 1.0))
    ends[near] += rng.uniform(0.3e-12, 2e-12, size=near.sum())
    p = rng.uniform(1e-6, 1.0, size=n) * (rng.random(n) >= draw(st.floats(0.0, 0.5)))
    p = p / max(p.sum(), 1.0)
    return ends, p, draw(st.floats(0.0, 0.5)), draw(st.floats(0.01, 0.99))


@settings(max_examples=300, deadline=None)
@given(frontiers())
def test_frontier_sorts_equal_one_stable_argsort(frontier):
    ends, p, start, alpha = frontier
    order, ordered = _stable_sort(ends)
    want_order, want_ordered = stable_sort(ends)
    assert np.array_equal(order, want_order)
    assert ordered.tobytes() == want_ordered.tobytes()
    assert _ReturnTree._crossing(ends, p, start, alpha) == crossing_stable(ends, p, start, alpha)


@st.composite
def sort_keys(draw):
    """Keys in long tie runs, all equal, in -0.0/0.0 pairs, or with no ties."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 300))
    kind = draw(st.sampled_from(["runs", "equal", "zeros", "distinct"]))
    if kind == "runs":
        return rng.choice(rng.uniform(-5.0, 5.0, size=draw(st.integers(1, 4))), size=n)
    if kind == "equal":
        return np.full(n, draw(st.floats(-5.0, 5.0)))
    if kind == "zeros":
        return rng.choice([-0.0, 0.0, -1.0, 1.0], size=n)
    return rng.permutation(np.arange(n) + rng.uniform(0.0, 0.5, size=n))


@settings(max_examples=300, deadline=None)
@given(sort_keys())
def test_stable_sort_equals_stable_argsort(keys):
    order, ordered = _stable_sort(keys)
    want = np.argsort(keys, kind="stable")
    assert np.array_equal(order, want)
    assert ordered.tobytes() == keys[want].tobytes()  # signs of zero included


@pytest.mark.parametrize("seed", range(4))
def test_walk_equals_the_all_stable_walk(seed, monkeypatch):
    # integer rewards and a uniform policy: wide frontiers full of tied ends
    base = random_mdp(3, 2, 0.5, seed=seed)
    mdp = base.with_reward(np.round(base.reward))
    pi = Policy.uniform(mdp)
    alpha = (0.2, 0.37, 0.5, 0.8)[seed]
    left, right = exact_return_avars(mdp, pi, alpha, 8)
    # the reference walk: every sort one stable argsort, on int64 entry keys
    monkeypatch.setattr(returns, "_stable_sort", stable_sort)
    tree = _ReturnTree(mdp, pi, 8)
    tree.key_type = np.dtype(np.int64)
    want = np.array([tree.avars(root, alpha) for root in range(tree.child.shape[0])]).T
    assert left.ravel().tobytes() == want[0].tobytes()
    assert right.ravel().tobytes() == want[1].tobytes()

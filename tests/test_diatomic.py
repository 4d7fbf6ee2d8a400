import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from diatomic_dp import diatomic
from diatomic_dp import mdp as mdp_module
from diatomic_dp.cli import main
from diatomic_dp.corpus import fig1_mdp, random_mdp
from diatomic_dp.diatomic import (
    DoubleQ,
    SpeSolve,
    alpha_coherence,
    diatomic_bellman_apply,
    pair_rounds,
    spe,
    spe_stack,
)
from diatomic_dp.dist import (
    Diatomic,
    mix,
    project_w2_diatomic,
    pushforward_affine,
)
from diatomic_dp.errors import ConvergenceError, DomainError, ResourceError
from diatomic_dp.mdp import Mdp, Policy, evaluate_policy, run_sweeps, save_mdp


@pytest.fixture
def fig1():
    return fig1_mdp()


def traced_rounds(mdp, policy, alpha, tol):
    """``spe``'s rounds run to ``tol``: the run and every round's residual."""
    history = []
    run = run_sweeps(
        pair_rounds(mdp, policy, alpha), tol, on_sweep=lambda it, dq, r: history.append(r)
    )
    return run, history


def dist_level_apply(mdp, policy, dq):
    """Same operator, but through the explicit distribution pipeline:
    mix the pushed-forward two-point laws, then project back."""
    q1 = np.empty_like(dq.q1)
    q2 = np.empty_like(dq.q2)
    for x in range(mdp.n_states):
        for a in range(mdp.n_actions):
            comps = []
            for y in range(mdp.n_states):
                p_y = mdp.transition[x, a, y]
                if p_y == 0.0:
                    continue
                for b in range(mdp.n_actions):
                    w = p_y * policy.probs[y, b]
                    if w == 0.0:
                        continue
                    two_point = Diatomic(dq.q1[y, b], dq.q2[y, b], dq.alpha).as_dist()
                    comps.append(
                        (w, pushforward_affine(two_point, mdp.reward[x, a, y], mdp.gamma))
                    )
            proj = project_w2_diatomic(mix(comps), dq.alpha)
            q1[x, a], q2[x, a] = proj.theta1, proj.theta2
    return DoubleQ(q1, q2, dq.alpha)


def dense_apply(mdp, policy, dq):
    """The dense-layout sweep: every successor entry (y, b) is a particle of
    every entry, zero-mass ones included, sorted in one (S, A, 2SA) array."""
    s, a_n = mdp.n_states, mdp.n_actions
    m = s * a_n
    alpha = dq.alpha
    link = np.einsum("xay,yb->xayb", mdp.transition, policy.probs).reshape(s, a_n, m)
    shifted = mdp.reward[:, :, :, None]
    vals = np.concatenate(
        [
            (shifted + mdp.gamma * dq.q1[None, None, :, :]).reshape(s, a_n, m),
            (shifted + mdp.gamma * dq.q2[None, None, :, :]).reshape(s, a_n, m),
        ],
        axis=2,
    )
    wts = np.concatenate([alpha * link, (1.0 - alpha) * link], axis=2)
    order = np.argsort(vals, axis=2, kind="stable")
    v = np.take_along_axis(vals, order, axis=2)
    w = np.take_along_axis(wts, order, axis=2)
    left, right = clip_tail_weights(w, alpha, 1.0 - alpha)
    q1 = (left * v).sum(axis=2) / alpha
    q2 = (right * v).sum(axis=2) / (1.0 - alpha)
    return DoubleQ(q1, q2, alpha)


def clip_tail_weights(w, alpha, level):
    """The tail clamps as np.clip passes, each on its own cumulative sum:
    the reference for ``dist.tail_weights``."""
    cum = np.cumsum(w, axis=-1)
    yield np.clip(np.minimum(w, alpha - (cum - w)), 0.0, None)
    cum = np.cumsum(w, axis=-1)
    yield np.clip(np.minimum(w, (cum - 1.0) + level), 0.0, None)


def fancy_index_sweep(cloud, q):
    """``_Particles.sweep`` gathering each sorted row with (rows, order) fancy
    indexing and clamping with ``clip_tail_weights``: its reference."""
    vals = cloud.reward + cloud.gamma * q[cloud.src]
    at = (np.arange(vals.shape[0])[:, None], np.argsort(vals, axis=1, kind="stable"))
    vals = vals[at]
    cloud.src, cloud.reward, cloud.mass = cloud.src[at], cloud.reward[at], cloud.mass[at]
    levels = (cloud.alpha, 1.0 - cloud.alpha)
    tails = clip_tail_weights(cloud.mass, *levels)
    return np.concatenate([(w * vals).sum(axis=1) / level for w, level in zip(tails, levels)])


def value_iteration_pair(mdp, policy, alpha, tol):
    """Dense sweeps from the zero pair until one moves the pair by at most tol."""
    dq = DoubleQ.zeros(mdp, alpha)
    while True:
        new = dense_apply(mdp, policy, dq)
        change = max(np.abs(new.q1 - dq.q1).max(), np.abs(new.q2 - dq.q2).max())
        if change <= tol:
            return new
        dq = new


def sparse_instance(seed, n_states=4, n_actions=2, gamma=0.9):
    """Two successors per (x, a) and a policy that plays one or two actions per state."""
    rng = np.random.default_rng(seed)
    transition = np.zeros((n_states, n_actions, n_states))
    for x in range(n_states):
        for a in range(n_actions):
            succ = rng.choice(n_states, size=2, replace=False)
            transition[x, a, succ] = rng.dirichlet(np.ones(2))
    reward = rng.uniform(-1.0, 3.0, size=transition.shape) * (transition > 0.0)
    mdp = Mdp(transition=transition, reward=reward, gamma=gamma)
    probs = np.zeros((n_states, n_actions))
    for x in range(n_states):
        support = rng.permutation(n_actions)[: int(rng.integers(1, n_actions + 1))]
        probs[x, support] = rng.dirichlet(np.ones(len(support)))
    return mdp, Policy(probs)


def tied_instance(seed, gamma=0.9):
    """Integer rewards on a uniform kernel: many particles share a value."""
    rng = np.random.default_rng(seed)
    n_states, n_actions = 3, 2
    transition = np.full((n_states, n_actions, n_states), 1.0 / n_states)
    reward = rng.integers(0, 3, size=transition.shape).astype(float)
    return Mdp(transition=transition, reward=reward, gamma=gamma)


def layout_instance(layout):
    """A 12-state dense, a 12-state sparse or a tied instance, with a mixed policy."""
    if layout == "dense":
        mdp = random_mdp(12, 3, 0.9, seed=11)
        return mdp, Policy.uniform(mdp)
    if layout == "sparse":
        return sparse_instance(11, n_states=12, n_actions=3)
    mdp = tied_instance(11)
    return mdp, Policy.uniform(mdp)


def random_pair(rng, shape, alpha):
    base = rng.uniform(-3.0, 3.0, size=shape)
    gap = rng.uniform(0.0, 2.0, size=shape)
    return DoubleQ(base, base + gap, alpha)


class TestDoubleQ:
    def test_rejects_crossed_tables(self):
        with pytest.raises(DomainError, match="exceeds"):
            DoubleQ([[1.0]], [[0.5]], 0.5)

    def test_rejects_bad_level(self):
        for alpha in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(DomainError):
                DoubleQ([[0.0]], [[0.0]], alpha)

    def test_mean_blends_tables(self):
        dq = DoubleQ([[1.0, 2.0]], [[3.0, 6.0]], 0.25)
        assert_allclose(dq.mean, [[2.5, 5.0]])

    def test_tables_frozen(self):
        dq = DoubleQ.zeros(fig1_mdp(), 0.5)
        with pytest.raises(ValueError):
            dq.q1[0, 0] = 1.0


class TestApply:
    def test_matches_distribution_pipeline(self, fig1):
        rng = np.random.default_rng(3)
        for alpha in (0.2, 0.5, 0.81):
            pi = Policy(rng.dirichlet(np.ones(2), size=2))
            dq = random_pair(rng, (2, 2), alpha)
            fast = diatomic_bellman_apply(fig1, pi, dq)
            slow = dist_level_apply(fig1, pi, dq)
            assert_allclose(fast.q1, slow.q1, atol=1e-12)
            assert_allclose(fast.q2, slow.q2, atol=1e-12)

    def test_matches_distribution_pipeline_random_mdp(self):
        rng = np.random.default_rng(11)
        for seed in range(4):
            m = random_mdp(3, 2, 0.6, seed=seed)
            pi = Policy(rng.dirichlet(np.ones(2), size=3))
            dq = random_pair(rng, (3, 2), 0.35)
            fast = diatomic_bellman_apply(m, pi, dq)
            slow = dist_level_apply(m, pi, dq)
            assert_allclose(fast.q1, slow.q1, atol=1e-12)
            assert_allclose(fast.q2, slow.q2, atol=1e-12)

    def test_averaging_recovers_expected_operator(self, fig1):
        from diatomic_dp.mdp import bellman_policy_op

        rng = np.random.default_rng(7)
        pi = Policy(rng.dirichlet(np.ones(2), size=2))
        dq = random_pair(rng, (2, 2), 0.3)
        out = diatomic_bellman_apply(fig1, pi, dq)
        assert_allclose(out.mean, bellman_policy_op(fig1, pi, dq.mean), atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        alpha=st.floats(0.05, 0.95),
        shift=st.floats(-5.0, 5.0),
    )
    def test_operator_laws(self, seed, alpha, shift):
        m = fig1_mdp()
        rng = np.random.default_rng(seed)
        pi = Policy(rng.dirichlet(np.ones(2), size=2))
        dq = random_pair(rng, (2, 2), alpha)
        other = random_pair(rng, (2, 2), alpha)
        out = diatomic_bellman_apply(m, pi, dq)

        # cash translation scales by the discount
        shifted = DoubleQ(dq.q1 + shift, dq.q2 + shift, alpha)
        out_shift = diatomic_bellman_apply(m, pi, shifted)
        assert_allclose(out_shift.q1, out.q1 + m.gamma * shift, atol=1e-10)
        assert_allclose(out_shift.q2, out.q2 + m.gamma * shift, atol=1e-10)

        # monotone in both tables
        bigger = DoubleQ(np.maximum(dq.q1, other.q1), np.maximum(dq.q2, other.q2), alpha)
        out_big = diatomic_bellman_apply(m, pi, bigger)
        assert (out_big.q1 >= out.q1 - 1e-10).all()
        assert (out_big.q2 >= out.q2 - 1e-10).all()

        # sup-norm contraction at rate gamma
        out_other = diatomic_bellman_apply(m, pi, other)
        dist_in = max(
            np.abs(dq.q1 - other.q1).max(), np.abs(dq.q2 - other.q2).max()
        )
        dist_out = max(
            np.abs(out.q1 - out_other.q1).max(), np.abs(out.q2 - out_other.q2).max()
        )
        assert dist_out <= m.gamma * dist_in + 1e-10

        # left output is concave, right output convex, in the value pair
        lam = 0.375
        blend = DoubleQ(
            lam * dq.q1 + (1 - lam) * other.q1,
            lam * dq.q2 + (1 - lam) * other.q2,
            alpha,
        )
        out_blend = diatomic_bellman_apply(m, pi, blend)
        assert (out_blend.q1 >= lam * out.q1 + (1 - lam) * out_other.q1 - 1e-10).all()
        assert (out_blend.q2 <= lam * out.q2 + (1 - lam) * out_other.q2 + 1e-10).all()


class TestSpe:
    def test_two_state_fixed_point(self, fig1):
        res = spe(fig1, Policy.always(fig1, 1), alpha=0.5, tol=1e-13)
        assert_allclose(res.double_q.q1, [[1.75, 1.5], [3.75, 3.5]], atol=1e-11)
        assert_allclose(res.double_q.q2, [[2.25, 2.5], [4.25, 4.5]], atol=1e-11)

    def test_is_a_fixed_point(self, fig1):
        pi = Policy.always(fig1, 1)
        res = spe(fig1, pi, 0.5, tol=1e-13)
        again = diatomic_bellman_apply(fig1, pi, res.double_q)
        assert_allclose(again.q1, res.double_q.q1, atol=1e-12)
        assert_allclose(again.q2, res.double_q.q2, atol=1e-12)

    def test_brackets_expected_values(self):
        for seed in range(5):
            m = random_mdp(3, 2, 0.7, seed=seed)
            rng = np.random.default_rng(seed + 50)
            pi = Policy(rng.dirichlet(np.ones(2), size=3))
            res = spe(m, pi, alpha=0.4, tol=1e-12)
            q_pi = evaluate_policy(m, pi, tol=1e-13).q
            assert (res.double_q.q1 <= q_pi + 1e-9).all()
            assert (q_pi <= res.double_q.q2 + 1e-9).all()
            assert_allclose(res.double_q.mean, q_pi, atol=1e-9)

    def test_deterministic_world_collapses_the_pair(self):
        m = Mdp(
            transition=np.array([[[0.0, 1.0]], [[0.0, 1.0]]]),
            reward=np.array([[[0.0, 2.0]], [[0.0, -1.0]]]),
            gamma=0.5,
        )
        pi = Policy.always(m, 0)
        res = spe(m, pi, alpha=0.37, tol=1e-13)
        assert_allclose(res.double_q.q1, res.double_q.q2, atol=1e-10)
        assert_allclose(res.double_q.q1, evaluate_policy(m, pi, tol=1e-13).q, atol=1e-9)

    def test_history_contracts_geometrically(self, fig1):
        res = spe(fig1, Policy.uniform(fig1), 0.5, tol=1e-10)
        assert isinstance(res, SpeSolve)
        _, history = traced_rounds(fig1, Policy.uniform(fig1), 0.5, 1e-10)
        assert len(history) == res.iterations
        assert history[-1] == res.residual
        for early, late in zip(history[1:], history[2:]):
            assert late <= fig1.gamma * early + 1e-12

    def test_max_iter_exhaustion(self, monkeypatch):
        mdp = random_mdp(3, 2, 0.99, seed=2)
        assert spe(mdp, Policy.uniform(mdp), 0.1, tol=1e-12).iterations > 3
        monkeypatch.setattr(mdp_module, "DEFAULT_MAX_ITER", 3)
        with pytest.raises(ConvergenceError, match="after 3 rounds") as err:
            spe(mdp, Policy.uniform(mdp), 0.1, tol=1e-12)
        assert err.value.iterations == 3
        assert err.value.residual > 1e-12


def _rounds_cases():
    for gamma in (0.6, 0.9, 0.99):
        for seed in range(2):
            mdp = random_mdp(3, 2, gamma, seed=seed)
            pi = Policy(np.random.default_rng(seed + 20).dirichlet(np.ones(2), size=3))
            yield pytest.param(mdp, pi, id=f"dense-g{gamma}-s{seed}")
            yield pytest.param(*sparse_instance(seed, gamma=gamma), id=f"sparse-g{gamma}-s{seed}")
            mdp = tied_instance(seed, gamma=gamma)
            yield pytest.param(mdp, Policy.uniform(mdp), id=f"ties-g{gamma}-s{seed}")
            yield pytest.param(mdp, Policy.always(mdp, 1), id=f"ties-always-g{gamma}-s{seed}")


class TestRounds:
    @pytest.mark.parametrize("mdp, pi", list(_rounds_cases()))
    def test_rounds_agree_with_value_iteration(self, mdp, pi):
        tol, ref_tol = 1e-10, 1e-13
        for alpha in (0.25, 0.5, 0.8):
            got = spe(mdp, pi, alpha, tol=tol).double_q
            want = value_iteration_pair(mdp, pi, alpha, ref_tol)
            bound = mdp.gamma * (tol + ref_tol) / (1.0 - mdp.gamma)
            assert np.abs(got.q1 - want.q1).max() <= bound
            assert np.abs(got.q2 - want.q2).max() <= bound

    @pytest.mark.parametrize("mdp, pi", list(_rounds_cases()))
    def test_residuals_contract_by_gamma_and_certify_tol(self, mdp, pi):
        res, history = traced_rounds(mdp, pi, 0.3, 1e-12)
        assert res.residual <= 1e-12
        assert res.iterations <= 10  # plain sweeps would need hundreds at gamma 0.99
        for early, late in zip(history, history[1:]):
            assert late <= mdp.gamma * early

    def test_chunked_fill_equals_one_chunk(self, monkeypatch):
        mdp, pi = sparse_instance(3, n_states=6, n_actions=3)
        whole, whole_history = traced_rounds(mdp, pi, 0.35, 1e-12)
        monkeypatch.setattr(diatomic, "_CHUNK", 8)  # one or two rows per chunk
        chunked, chunked_history = traced_rounds(mdp, pi, 0.35, 1e-12)
        assert chunked_history == whole_history
        assert np.array_equal(chunked.value.q1, whole.value.q1)
        assert np.array_equal(chunked.value.q2, whole.value.q2)

    def test_garbage_solve_falls_back_to_sweeps(self, fig1, monkeypatch):
        pi = Policy.uniform(fig1)
        want = spe(fig1, pi, 0.5, tol=1e-12).double_q
        for garbage in (1e6, np.nan):
            monkeypatch.setattr(np.linalg, "solve", lambda a, c, g=garbage: np.full_like(c, g))
            res, history = traced_rounds(fig1, pi, 0.5, 1e-12)
            monkeypatch.undo()
            # every round took the plain sweep, which halves the residual at gamma = 1/2
            assert res.converged and res.iterations > 30
            for early, late in zip(history, history[1:]):
                assert late <= fig1.gamma * early + 1e-15
            assert_allclose(res.value.q1, want.q1, atol=1e-11)
            assert_allclose(res.value.q2, want.q2, atol=1e-11)


def assert_same_solves(got, want):
    """Stacked and solo solves agree bit for bit, stop round and residual included."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.double_q.q1.tobytes() == w.double_q.q1.tobytes()
        assert g.double_q.q2.tobytes() == w.double_q.q2.tobytes()
        assert (g.residual, g.iterations) == (w.residual, w.iterations)


def deterministic_problems(mdp):
    return [(mdp, Policy.deterministic(mdp, c)) for c in itertools.product(*mdp.action_sets)]


class TestStack:
    @pytest.mark.parametrize("chunk", [None, 8])
    def test_problems_stop_in_their_own_rounds(self, chunk, monkeypatch):
        problems = deterministic_problems(random_mdp(3, 2, 0.9, seed=2))
        want = [spe(mdp, pi, 0.3, tol=1e-12) for mdp, pi in problems]
        assert len({w.iterations for w in want}) > 1  # the stack outlives some problems
        if chunk is not None:  # fill chunks of one or two rows, across problem boundaries
            monkeypatch.setattr(diatomic, "_CHUNK", chunk)
        assert_same_solves(spe_stack(problems, 0.3, 1e-12), want)

    @pytest.mark.parametrize("garbage", [1e6, np.nan])
    def test_one_problem_falls_back_to_sweeps(self, fig1, garbage, monkeypatch):
        problems = deterministic_problems(fig1)
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, c: np.full_like(c, garbage))
        spoiled = spe(*problems[1], 0.5, tol=1e-12)
        monkeypatch.undo()
        want = [spe(mdp, pi, 0.5, tol=1e-12) for mdp, pi in problems]
        want[1] = spoiled

        def spoil_one(a, c):
            x = solve(a, c)
            x[1] = garbage
            return x

        monkeypatch.setattr(np.linalg, "solve", spoil_one)
        got = spe_stack(problems, 0.5, 1e-12)
        monkeypatch.undo()
        # every round of problem 1 took the plain sweep; the others kept their rounds
        assert spoiled.iterations > 30 and max(w.iterations for w in want if w is not spoiled) <= 2
        assert_same_solves(got, want)

    def test_one_exhausted_problem_raises_as_its_own_run(self, monkeypatch):
        mdp = random_mdp(3, 2, 0.99, seed=2)
        pi = Policy.uniform(mdp)
        problems = [(mdp.with_reward(np.zeros_like(mdp.reward)), pi), (mdp, pi)]
        problems.append((mdp.with_reward(np.round(mdp.reward)), pi))
        monkeypatch.setattr(mdp_module, "DEFAULT_MAX_ITER", 5)
        assert [spe(*problems[b], 0.1, tol=1e-12).iterations for b in (0, 2)] == [1, 4]
        with pytest.raises(ConvergenceError) as solo:
            spe(mdp, pi, 0.1, tol=1e-12)
        with pytest.raises(ConvergenceError) as stacked:
            spe_stack(problems, 0.1, 1e-12)
        assert str(stacked.value) == str(solo.value)
        assert (stacked.value.residual, stacked.value.iterations) == (solo.value.residual, 5)

    def test_stacks_hold_at_most_the_cap(self, fig1, monkeypatch):
        problems = deterministic_problems(fig1)
        want = [spe(mdp, pi, 0.5) for mdp, pi in problems]
        stacks = []
        particles = diatomic._Particles

        def counted(mdp, table, alpha):
            stacks.append(table.problems)
            return particles(mdp, table, alpha)

        monkeypatch.setattr(diatomic, "_Particles", counted)
        monkeypatch.setattr(diatomic, "PARTICLE_CAP", 3 * 2 * 4**2)  # fig1: 2 (S*A)^2 = 32 each
        assert_same_solves(spe_stack(problems, 0.5, 1e-10), want)
        assert stacks == [3, 1]

    def test_problems_must_share_their_layout(self, fig1):
        other = random_mdp(3, 2, 0.5, seed=0)
        with pytest.raises(DomainError, match="discount and the table shape"):
            spe_stack([(fig1, Policy.uniform(fig1)), (other, Policy.uniform(other))], 0.5, 1e-10)
        with pytest.raises(DomainError, match="unknown count and successor width"):
            spe_stack([(fig1, Policy.uniform(fig1)), (fig1, Policy.always(fig1, 0))], 0.5, 1e-10)
        assert spe_stack([], 0.5, 1e-10) == []


def child_lists(mdp, policy):
    """Each entry's (successor entries, masses, rewards), by plain loops over (x, a, y, b)."""
    lists = []
    for x in range(mdp.n_states):
        for a in range(mdp.n_actions):
            ids, probs, rewards = [], [], []
            for y in range(mdp.n_states):
                p_y = mdp.transition[x, a, y]
                if p_y == 0.0:
                    continue
                for b in policy.support(y):
                    ids.append(y * mdp.n_actions + b)
                    probs.append(p_y * policy.probs[y, b])
                    rewards.append(mdp.reward[x, a, y])
            lists.append((ids, probs, rewards))
    return lists


class TestSuccessors:
    @pytest.mark.parametrize("seed", range(4))
    def test_played_table_equals_child_lists(self, seed):
        sparse, sparse_pi = sparse_instance(seed)
        dense = random_mdp(3, 3, 0.8, seed=seed)
        mixed = np.eye(2)[np.zeros(4, dtype=int)]
        mixed[0] = 0.5  # entries that reach state 0 get one successor more than the others
        cases = [(sparse, sparse_pi), (sparse, Policy(mixed)), (sparse, Policy.always(sparse, 1))]
        cases += [(dense, Policy.always(dense, 0)), (dense, Policy(np.tile([0.5, 0.0, 0.5], (3, 1))))]
        padded = 0
        for mdp, policy in cases:
            table, sources = diatomic._played_table(mdp, policy)
            lists = child_lists(mdp, policy)
            width = max(len(ids) for ids, _, _ in lists)
            assert table.succ.shape == table.mass.shape == table.reward.shape == (len(lists), width)
            assert table.k == sources.size
            for e, (ids, probs, rewards) in enumerate(lists):
                n = len(ids)
                assert sources[table.succ[e, :n]].tolist() == ids
                assert table.mass[e, :n].tolist() == probs
                assert table.reward[e, :n].tolist() == rewards
                assert not table.mass[e, n:].any()  # zero-mass padding
                assert len(set(table.succ[e].tolist())) == width  # no unknown twice in a row
                padded += width - n
        assert padded > 0

    def test_state_table_lists_the_kernel_support(self):
        mdp, _ = sparse_instance(5)
        s = mdp.n_states
        table = diatomic._successors(mdp, mdp.transition.reshape(-1, s), np.arange(s))
        for e, row in enumerate(mdp.transition.reshape(-1, s)):
            ys = np.flatnonzero(row)
            assert table.succ[e].tolist() == ys.tolist()  # two successors each: no padding
            assert table.mass[e].tolist() == row[ys].tolist()
            assert table.reward[e].tolist() == mdp.reward.reshape(-1, s)[e, ys].tolist()


class TestParticles:
    @pytest.mark.parametrize("seed", range(6))
    def test_live_sweep_equals_dense_layout(self, seed):
        rng = np.random.default_rng(seed)
        sparse, sparse_pi = sparse_instance(seed)
        cases = [(sparse, sparse_pi), (sparse, Policy.uniform(sparse))]
        for mdp in (random_mdp(3, 3, 0.8, seed=seed), tied_instance(seed)):
            cases += [(mdp, Policy.uniform(mdp)), (mdp, Policy.always(mdp, 0))]
        for mdp, policy in cases:
            for alpha in (0.1, 0.5, 0.93):
                dq = random_pair(rng, (mdp.n_states, mdp.n_actions), alpha)
                if seed % 2:  # integer pairs put ties between particles
                    dq = DoubleQ(np.round(dq.q1), np.round(dq.q1) + 1.0, alpha)
                got = diatomic_bellman_apply(mdp, policy, dq)
                want = dense_apply(mdp, policy, dq)
                assert_allclose(got.q1, want.q1, rtol=0, atol=1e-12)
                assert_allclose(got.q2, want.q2, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("layout", ["dense", "sparse", "ties"])
    @pytest.mark.parametrize("start", ["zero", "random"])
    def test_sweep_equals_fancy_index_sweep(self, layout, start):
        mdp, policy = layout_instance(layout)
        got_cloud, sources = diatomic._played([(mdp, policy)], 0.35)
        want_cloud, _ = diatomic._played([(mdp, policy)], 0.35)
        rng = np.random.default_rng(11)
        q = np.zeros(2 * sources.size)
        if start == "random":
            q = rng.uniform(-3.0, 3.0, size=q.size)
        for _ in range(4):  # the first sweep sorts from the table order, the rest nearly sorted rows
            got, want = got_cloud.sweep(q), fancy_index_sweep(want_cloud, q)
            assert got.tobytes() == want.tobytes()
            for name in ("src", "reward", "mass"):
                assert getattr(got_cloud, name).tobytes() == getattr(want_cloud, name).tobytes()
            q = got[got_cloud.at(sources)] + rng.uniform(0.0, 1e-3, size=q.size)

    @pytest.mark.parametrize("layout", ["dense", "sparse", "ties"])
    def test_rounds_equal_reference_kernels(self, layout, monkeypatch):
        mdp, policy = layout_instance(layout)
        got, got_history = traced_rounds(mdp, policy, 0.35, 1e-12)
        # every sweep and every solve's row fill on the reference kernels
        monkeypatch.setattr(diatomic._Particles, "sweep", fancy_index_sweep)
        monkeypatch.setattr(diatomic, "tail_weights", clip_tail_weights)
        want, want_history = traced_rounds(mdp, policy, 0.35, 1e-12)
        assert got_history == want_history
        assert got.value.q1.tobytes() == want.value.q1.tobytes()
        assert got.value.q2.tobytes() == want.value.q2.tobytes()

    def test_cap_raises_before_allocating(self, fig1, monkeypatch, tmp_path, capsys):
        def no_table(*args):
            raise AssertionError("particle table built past the cap")

        monkeypatch.setattr(diatomic, "PARTICLE_CAP", 2 * 4**2 - 1)  # fig1: 2 (S*A)^2 = 32
        monkeypatch.setattr(diatomic, "_Particles", no_table)
        pi = Policy.uniform(fig1)
        with pytest.raises(ResourceError, match="over the cap of 31"):
            spe(fig1, pi, 0.5)
        with pytest.raises(ResourceError, match="over the cap of 31"):
            diatomic_bellman_apply(fig1, pi, DoubleQ.zeros(fig1, 0.5))
        path = tmp_path / "fig1.json"
        save_mdp(fig1, path)
        assert main(["spe", str(path), "--out", str(tmp_path / "r")]) == 2
        assert "over the cap of 31" in capsys.readouterr().err
        assert not (tmp_path / "r" / "result.json").exists()

    def test_cap_admits_the_size_it_names(self, fig1, monkeypatch):
        monkeypatch.setattr(diatomic, "PARTICLE_CAP", 2 * 4**2)
        assert spe(fig1, Policy.uniform(fig1), 0.5).residual <= 1e-10


class TestCoherence:
    def test_deterministic_policies_are_coherent(self, fig1):
        for choice in ([0, 0], [0, 1], [1, 0], [1, 1]):
            rep = alpha_coherence(fig1, Policy.deterministic(fig1, choice), 0.5)
            assert rep.ok
            assert rep.max_spread <= 1e-10

    def test_mixed_support_with_unequal_values_flagged(self):
        # one state, two self-loop actions with different rewards: any
        # genuinely mixed policy sees both tables split across its support
        m = Mdp(
            transition=np.ones((1, 2, 1)),
            reward=np.array([[[0.0], [1.0]]]),
            gamma=0.5,
        )
        rep = alpha_coherence(m, Policy.uniform(m), 0.4)
        assert not rep.ok
        assert rep.max_spread == pytest.approx(1.0, abs=1e-9)
        assert rep.witness == (0, 0, 1)

    def test_singleton_supports_skip_the_solve(self, fig1, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved a pair for a deterministic policy")

        monkeypatch.setattr(diatomic, "spe", no_solve)
        rep = alpha_coherence(fig1, Policy.always(fig1, 0), 0.5)
        assert rep == diatomic.CoherenceReport(ok=True, max_spread=0.0, witness=None)
        with pytest.raises(DomainError):
            alpha_coherence(fig1, Policy.always(fig1, 0), 1.5)

    def test_reuses_supplied_fixed_point(self, fig1):
        pi = Policy.always(fig1, 1)
        dq = spe(fig1, pi, 0.5, tol=1e-13).double_q
        rep = alpha_coherence(fig1, pi, 0.5, double_q=dq)
        assert rep.ok

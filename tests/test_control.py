import numpy as np
import pytest
from numpy.testing import assert_allclose

from diatomic_dp import control, diatomic
from diatomic_dp import mdp as mdp_module
from diatomic_dp.control import (
    CertificateReport,
    ControlRounds,
    optimality_certificate,
    risky_bellman_apply,
    safe_bellman_apply,
    svi,
)
from diatomic_dp.corpus import fig1_mdp, random_balanced_mdp, random_mdp
from diatomic_dp.diatomic import spe
from diatomic_dp.errors import ConvergenceError, DomainError, PreconditionError, ResourceError
from diatomic_dp.mdp import Mdp, Policy, _require_balanced, optimal_action_sets, run_sweeps


@pytest.fixture
def fig1():
    return fig1_mdp()


def dense_tail_q_table(mdp, v1, v2, alpha):
    """Left tail mean at alpha of each entry's dense 2S-particle cloud: successor
    y gives mass alpha * P(y|x,a) at r(x,a,y) + gamma * v1(y) and the rest at
    the v2 analogue, zero-mass ones included, sorted in one (S, A, 2S) array."""
    vals = np.concatenate(
        [mdp.reward + mdp.gamma * v1[None, None, :], mdp.reward + mdp.gamma * v2[None, None, :]],
        axis=2,
    )
    wts = np.concatenate([alpha * mdp.transition, (1.0 - alpha) * mdp.transition], axis=2)
    order = np.argsort(vals, axis=2, kind="stable")
    v = np.take_along_axis(vals, order, axis=2)
    w = np.take_along_axis(wts, order, axis=2)
    # the left tail clamp on its own cumulative sum, independent of dist.tail_weights
    left = np.clip(np.minimum(w, alpha - (np.cumsum(w, axis=2) - w)), 0.0, None)
    return (left * v).sum(axis=2) / alpha


def reference_step(mdp, v1, v2, alpha, risky, v_star):
    """One dense sweep: (left table, selected v1, complementary v2)."""
    q1 = dense_tail_q_table(mdp, v1, v2, alpha)
    if risky:
        v1_next = np.where(mdp.action_mask, q1, np.inf).min(axis=1)
    else:
        v1_next = np.where(mdp.action_mask, q1, -np.inf).max(axis=1)
    return q1, v1_next, (v_star - alpha * v1_next) / (1.0 - alpha)


def reference_svi(mdp, alpha, risky, tol):
    """Dense sweeps from (0, v_star / (1 - alpha)) until one moves v1 by at most tol."""
    _, v_star = _require_balanced(mdp)
    v1, v2 = np.zeros(mdp.n_states), v_star / (1.0 - alpha)
    while True:
        q1, v1_next, v2 = reference_step(mdp, v1, v2, alpha, risky, v_star)
        if np.abs(v1_next - v1).max() <= tol:
            return q1, v1_next, v2
        v1 = v1_next


def sparse_balanced(seed, gamma, n_states=4, n_actions=2):
    """Two successors per entry, rewards shifted so every action has Q* = v(x)."""
    rng = np.random.default_rng(seed)
    transition = np.zeros((n_states, n_actions, n_states))
    for x in range(n_states):
        for a in range(n_actions):
            succ = rng.choice(n_states, size=2, replace=False)
            transition[x, a, succ] = rng.dirichlet(np.ones(2))
    v = rng.uniform(0.0, 4.0, size=n_states)
    reward = rng.uniform(-1.0, 3.0, size=transition.shape)
    onestep = np.einsum("xay,xay->xa", transition, reward + gamma * v[None, None, :])
    reward = (reward + (v[:, None] - onestep)[:, :, None]) * (transition > 0.0)
    return Mdp(transition=transition, reward=reward, gamma=gamma)


def tied_balanced(seed, gamma):
    """Uniform kernel, each state's actions permute one integer reward row:
    balanced exactly, with many particles sharing a value."""
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 3, size=(3, 3))
    reward = np.array([[rng.permutation(row) for _ in range(2)] for row in base], dtype=float)
    return Mdp(transition=np.full((3, 2, 3), 1.0 / 3.0), reward=reward, gamma=gamma)


def _balanced_cases():
    for gamma in (0.6, 0.9, 0.99):
        for seed in range(2):
            yield pytest.param(random_balanced_mdp(4, 2, gamma, seed), id=f"dense-g{gamma}-s{seed}")
            yield pytest.param(sparse_balanced(seed, gamma), id=f"sparse-g{gamma}-s{seed}")
            yield pytest.param(tied_balanced(seed, gamma), id=f"ties-g{gamma}-s{seed}")


class TestOneStep:
    def test_safe_sweep_from_rest(self, fig1):
        # v1 = 0 and v2 = v*/(1 - alpha): the conventional start
        step = safe_bellman_apply(fig1, np.zeros(2), np.array([4.0, 8.0]), 0.5)
        assert_allclose(step.q1, [[1.0, 0.5], [2.0, 2.5]], atol=1e-12)
        assert_allclose(step.v1, [1.0, 2.5], atol=1e-12)
        assert_allclose(step.v2, [3.0, 5.5], atol=1e-12)

    def test_risky_sweep_shares_the_table(self, fig1):
        safe = safe_bellman_apply(fig1, np.zeros(2), np.array([4.0, 8.0]), 0.5)
        risky = risky_bellman_apply(fig1, np.zeros(2), np.array([4.0, 8.0]), 0.5)
        assert_allclose(risky.q1, safe.q1, atol=0.0)
        assert_allclose(risky.v1, [0.5, 2.0], atol=1e-12)

    def test_rejects_unbalanced(self, fig1):
        reward = fig1.reward.copy()
        reward[0, 1] += 0.3  # a2 now strictly better at x1
        broken = fig1.with_reward(reward)
        with pytest.raises(PreconditionError, match="state 0"):
            safe_bellman_apply(broken, np.zeros(2), np.zeros(2), 0.5)

    def test_rejects_silly_level(self, fig1):
        with pytest.raises(DomainError):
            safe_bellman_apply(fig1, np.zeros(2), np.zeros(2), 1.0)


class TestSvi:
    def test_safe_two_state(self, fig1):
        res = svi(fig1, 0.5, mode="safe", tol=1e-12)
        assert_allclose(res.q1, [[2.0, 1.5], [4.0, 3.5]], atol=1e-10)
        assert_allclose(res.v1, [2.0, 4.0], atol=1e-10)
        assert_allclose(res.v2, [2.0, 4.0], atol=1e-10)
        assert res.action_sets == ((0,), (0,))

    def test_risky_two_state(self, fig1):
        res = svi(fig1, 0.5, mode="risky", tol=1e-12)
        assert_allclose(res.q1, [[1.75, 1.5], [3.75, 3.5]], atol=1e-10)
        assert_allclose(res.q2, [[2.25, 2.5], [4.25, 4.5]], atol=1e-10)
        assert_allclose(res.v1, [1.5, 3.5], atol=1e-10)
        assert_allclose(res.v2, [2.5, 4.5], atol=1e-10)
        assert res.action_sets == ((1,), (1,))

    def test_greedy_policy_attains_the_value(self, fig1):
        for mode in ("safe", "risky"):
            res = svi(fig1, 0.5, mode=mode, tol=1e-12)
            choices = [g[0] for g in res.action_sets]
            dq = spe(fig1, Policy.deterministic(fig1, choices), 0.5, tol=1e-13).double_q
            own = dq.q1[np.arange(2), choices]
            assert_allclose(own, res.v1, atol=1e-9)

    def test_tails_flank_the_optimum(self):
        for seed in (100, 104, 111):
            m = random_balanced_mdp(2, 2, 0.5, seed=seed)
            for alpha in (0.25, 0.5, 0.6):
                safe = svi(m, alpha, "safe", tol=1e-12)
                risky = svi(m, alpha, "risky", tol=1e-12)
                assert (risky.v1 <= safe.v1 + 1e-9).all()
                assert (safe.v1 <= safe.v_star + 1e-9).all()
                assert (safe.v2 >= safe.v_star - 1e-9).all()
                # the two tails average back to the optimum by construction
                blend = alpha * safe.v1 + (1 - alpha) * safe.v2
                assert_allclose(blend, safe.v_star, atol=1e-10)

    def test_three_state_instances(self):
        for seed in (300, 302):
            m = random_balanced_mdp(3, 2, 0.4, seed=seed)
            res = svi(m, 0.5, "safe", tol=1e-12)
            assert res.residual <= 1e-12
            assert all(len(g) >= 1 for g in res.action_sets)

    def test_unbalanced_rejected_with_witness(self):
        m = random_mdp(3, 2, 0.6, seed=1)
        with pytest.raises(PreconditionError, match="spread"):
            svi(m, 0.5)

    def test_mode_validated(self, fig1):
        with pytest.raises(DomainError, match="mode"):
            svi(fig1, 0.5, mode="yolo")

    def test_exhaustion_raises(self, monkeypatch):
        mdp = random_balanced_mdp(3, 2, 0.99, seed=1)
        assert svi(mdp, 0.5, tol=1e-12).iterations > 3
        monkeypatch.setattr(mdp_module, "DEFAULT_MAX_ITER", 3)
        with pytest.raises(ConvergenceError, match="after 3 rounds") as err:
            svi(mdp, 0.5, tol=1e-12)
        assert err.value.iterations == 3
        assert err.value.residual > 1e-12


class TestRounds:
    @pytest.mark.parametrize("mdp", list(_balanced_cases()))
    def test_rounds_agree_with_dense_sweeps(self, mdp):
        tol, ref_tol = 1e-10, 1e-13
        bound = mdp.gamma * (tol + ref_tol) / (1.0 - mdp.gamma)
        for alpha in (0.3, 0.5, 0.7):
            for mode in ("safe", "risky"):
                res = svi(mdp, alpha, mode, tol=tol)
                q1, v1, v2 = reference_svi(mdp, alpha, mode == "risky", ref_tol)
                q_star, _ = _require_balanced(mdp)
                assert res.residual <= tol
                assert np.abs(res.v1 - v1).max() <= bound
                assert np.abs(res.v2 - v2).max() <= bound
                assert np.abs(res.q1 - q1).max() <= bound
                assert np.abs(res.q2 - (q_star - alpha * q1) / (1.0 - alpha)).max() <= bound
                want = optimal_action_sets(mdp, -q1 if mode == "risky" else q1)
                assert res.action_sets == want

    @pytest.mark.parametrize("mdp", list(_balanced_cases()))
    def test_one_sweep_equals_dense_reference(self, mdp):
        rng = np.random.default_rng(7)
        _, v_star = _require_balanced(mdp)
        for alpha in (0.3, 0.5, 0.7):
            # unrelated v1 and v2: their tails do not average to v_star
            v1 = rng.uniform(-3.0, 3.0, size=mdp.n_states)
            for v2 in (v1 + rng.uniform(0.0, 2.0, size=v1.shape), np.round(v1)):
                for apply_step, risky in ((safe_bellman_apply, False), (risky_bellman_apply, True)):
                    step = apply_step(mdp, v1, v2, alpha)
                    q1, v1_next, v2_next = reference_step(mdp, v1, v2, alpha, risky, v_star)
                    assert_allclose(step.q1, q1, rtol=0, atol=1e-12)
                    assert_allclose(step.v1, v1_next, rtol=0, atol=1e-12)
                    assert_allclose(step.v2, v2_next, rtol=0, atol=1e-12)

    def test_nan_solve_falls_back_to_sweeps(self, fig1, monkeypatch):
        want = svi(fig1, 0.3, "risky", tol=1e-12)
        monkeypatch.setattr(np.linalg, "solve", lambda a, c: np.full_like(c, np.nan))
        history = []
        rounds = ControlRounds(fig1, 0.3, "risky")
        run = run_sweeps(rounds, 1e-12, 1000, on_sweep=lambda it, step, r: history.append(r))
        monkeypatch.undo()
        res = rounds.result(run)
        # every round took the plain sweep, which contracts by gamma = 1/2 at alpha <= 1/2
        assert run.converged and res.iterations > want.iterations
        for early, late in zip(history, history[1:]):
            assert late <= fig1.gamma * early + 1e-15
        assert_allclose(res.v1, want.v1, atol=1e-11)
        assert_allclose(res.q2, want.q2, atol=1e-11)
        assert res.action_sets == want.action_sets


class TestCertificate:
    def test_two_state_both_modes(self, fig1):
        for mode in ("safe", "risky"):
            rep = optimality_certificate(fig1, 0.5, mode=mode)
            assert isinstance(rep, CertificateReport)
            assert rep.ok, (mode, rep)
            assert rep.n_checked == 4
            assert rep.max_violation <= 1e-8
            assert rep.attained_gap <= 1e-8

    def test_corpus_instances(self):
        for seed in (101, 107):
            m = random_balanced_mdp(2, 2, 0.5, seed=seed)
            assert optimality_certificate(m, 0.35, "safe").ok
            assert optimality_certificate(m, 0.35, "risky").ok

    def test_three_state_enumeration(self):
        m = random_balanced_mdp(3, 2, 0.4, seed=301)
        rep = optimality_certificate(m, 0.5, "safe")
        assert rep.ok
        assert rep.n_checked == 8

    def test_verdict_reads_the_check_tolerance(self, fig1, monkeypatch):
        monkeypatch.setattr(diatomic, "CHECK_TOL", -1.0)  # no policy can pass
        assert not optimality_certificate(fig1, 0.5, "safe").ok

    def test_over_cap_raises(self, fig1, monkeypatch):
        monkeypatch.setattr(control, "ENUMERATION_CAP", 4)
        assert optimality_certificate(fig1, 0.5, "safe").n_checked == 4
        monkeypatch.setattr(control, "ENUMERATION_CAP", 3)
        monkeypatch.setattr(control, "svi", None)  # refused before any solve
        with pytest.raises(ResourceError, match="4 deterministic policies exceed"):
            optimality_certificate(fig1, 0.5, "safe")

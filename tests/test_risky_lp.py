"""Risky-control LP construction, duality, and recursion agreement."""

import numpy as np
import pytest

from diatomic_dp.control import svi
from diatomic_dp.corpus import fig1_mdp, random_balanced_mdp, random_mdp
from diatomic_dp import robust
from diatomic_dp.errors import PreconditionError, ResourceError
from diatomic_dp.mdp import Mdp
from diatomic_dp.robust import permutation_kernel
from diatomic_dp.risky_lp import (
    build_risky_dual,
    build_risky_primal,
    duality_gap_check,
    risky_constraint_rows,
)
from diatomic_dp.simplex import EQ, LEQ, solve


def single_loop_mdp(reward=3.0, gamma=0.5):
    return Mdp(
        transition=np.ones((1, 1, 1)),
        reward=np.full((1, 1, 1), reward),
        gamma=gamma,
    )


class TestPrimal:
    def test_two_state_shape(self):
        p = build_risky_primal(fig1_mdp(), 0.5)
        assert p.n_vars == 2
        assert p.n_rows == 2 * 2 * 6
        assert set(p.row_senses) == {LEQ}
        assert np.all(np.isinf(p.lower)) and np.all(np.isinf(p.upper))

    def test_two_state_optimum(self):
        sol = solve(build_risky_primal(fig1_mdp(), 0.5))
        assert sol.optimal
        assert sol.objective_value == pytest.approx(1.25, abs=1e-9)
        np.testing.assert_allclose(sol.x, [1.5, 3.5], atol=1e-9)

    def test_optimum_is_feasible_for_every_row(self):
        p = build_risky_primal(fig1_mdp(), 0.5)
        sol = solve(p)
        slack = p.b - p.a @ sol.x
        assert slack.min() >= -1e-8

    def test_single_state_single_action(self):
        p = build_risky_primal(single_loop_mdp(), 0.5)
        assert p.n_vars == 1
        assert p.n_rows == 1
        sol = solve(p)
        # deterministic world: the tail value is the plain value
        assert sol.x[0] == pytest.approx(6.0, abs=1e-9)
        assert sol.objective_value == pytest.approx(3.0, abs=1e-9)

    def test_row_budget_refuses_before_building(self, monkeypatch):
        # 2520 visit orders x 8 admissible entries = 20,160 rows, over simplex.ROW_CAP
        built = []
        monkeypatch.setattr(robust, "_permutation_rows", lambda *args: built.append(args))
        mdp = random_balanced_mdp(4, 2, gamma=0.5, seed=1)
        with pytest.raises(ResourceError, match="20160 constraint rows"):
            build_risky_primal(mdp, 0.5)
        assert built == []

    def test_rejects_unbalanced(self):
        with pytest.raises(PreconditionError, match="not balanced"):
            build_risky_primal(random_mdp(2, 2, gamma=0.5, seed=9), 0.5)

    def test_rejects_bad_weights(self):
        mdp = fig1_mdp()
        with pytest.raises(PreconditionError, match="positive"):
            build_risky_primal(mdp, 0.5, nu0=[1.0, 0.0])
        with pytest.raises(PreconditionError, match="sum"):
            build_risky_primal(mdp, 0.5, nu0=[0.9, 0.9])
        with pytest.raises(PreconditionError, match="shape"):
            build_risky_primal(mdp, 0.5, nu0=[1.0])
        with pytest.raises(PreconditionError, match="initial weights"):
            build_risky_primal(mdp, 0.5, nu0=[np.nan, 1.0])

    def test_rows_match_the_permutation_kernels(self):
        # row (x, a, sigma) is e_x - gamma (low[worst] - alpha/(1-alpha) low[best]),
        # low being the worst-substate row of sigma's kernel
        mdp = random_balanced_mdp(3, 2, gamma=0.4, seed=300)
        alpha = 0.4
        mat, _, labels = risky_constraint_rows(mdp, alpha)
        assert mat.shape == (3 * 2 * 90, 3)
        for row, (x, a, seq) in zip(mat, labels):
            kernel = permutation_kernel(mdp, alpha, seq)
            low = kernel.probs[2 * x, a]
            want = np.eye(3)[x] - mdp.gamma * (low[0::2] - alpha / (1.0 - alpha) * low[1::2])
            np.testing.assert_array_equal(row, want)


class TestDual:
    def test_two_state_shape(self):
        d = build_risky_dual(fig1_mdp(), 0.5)
        assert d.n_vars == 24
        assert d.n_rows == 2
        assert set(d.row_senses) == {EQ}

    def test_strong_duality_on_the_two_state_instance(self):
        mdp = fig1_mdp()
        primal = solve(build_risky_primal(mdp, 0.5))
        dual = solve(build_risky_dual(mdp, 0.5))
        assert dual.optimal
        assert dual.objective_value == pytest.approx(1.25, abs=1e-9)
        assert abs(primal.objective_value - dual.objective_value) <= 1e-9

    def test_dual_support_sits_on_the_risky_rows(self):
        mdp = fig1_mdp()
        dual = solve(build_risky_dual(mdp, 0.5))
        _, _, labels = risky_constraint_rows(mdp, 0.5)
        risky_actions = svi(mdp, 0.5, mode="risky").action_sets
        support = np.flatnonzero(dual.x > 1e-9)
        assert support.size > 0
        for idx in support:
            x, a, seq = labels[idx]
            assert a in risky_actions[x]
            # the binding visit order sorts worst substates below best ones
            # in continuation-value order, which here is the identity
            assert seq == (0, 1, 2, 3)

    def test_weak_duality_on_random_instances(self):
        for seed in (100, 105, 111):
            mdp = random_balanced_mdp(2, 2, gamma=0.5, seed=seed)
            primal = solve(build_risky_primal(mdp, 0.4))
            dual = solve(build_risky_dual(mdp, 0.4))
            assert dual.objective_value >= primal.objective_value - 1e-9


class TestGapCheck:
    def test_two_state_report(self):
        report = duality_gap_check(fig1_mdp(), 0.5)
        assert report.ok
        assert report.gap <= 1e-9
        np.testing.assert_allclose(report.v1, [1.5, 3.5], atol=1e-7)
        assert report.recursion_deviation <= 1e-7

    def test_report_carries_the_solved_primal(self):
        mdp = fig1_mdp()
        report = duality_gap_check(mdp, 0.5, nu0=[0.9, 0.1])
        problem = build_risky_primal(mdp, 0.5, nu0=[0.9, 0.1])
        for field in ("c", "a", "b"):
            np.testing.assert_array_equal(getattr(report.problem, field), getattr(problem, field))
        assert report.labels == risky_constraint_rows(mdp, 0.5)[2]

    def test_single_action_world_is_trivially_tight(self):
        report = duality_gap_check(single_loop_mdp(reward=-1.0, gamma=0.3), 0.5)
        assert report.ok
        assert report.gap <= 1e-9

    @pytest.mark.parametrize("seed", [100, 107, 115])
    def test_random_two_state_instances(self, seed):
        mdp = random_balanced_mdp(2, 2, gamma=0.5, seed=seed)
        report = duality_gap_check(mdp, 0.35)
        assert report.ok

    def test_random_three_state_instance(self):
        mdp = random_balanced_mdp(3, 2, gamma=0.4, seed=302)
        report = duality_gap_check(mdp, 0.5)
        assert report.ok

    def test_optimum_does_not_depend_on_the_weights(self):
        mdp = fig1_mdp()
        lopsided = duality_gap_check(mdp, 0.5, nu0=[0.9, 0.1])
        uniform = duality_gap_check(mdp, 0.5)
        assert lopsided.ok
        np.testing.assert_allclose(lopsided.v1, uniform.v1, atol=1e-7)

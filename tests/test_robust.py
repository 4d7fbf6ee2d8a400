"""Doubled-chain kernels, the constraint set, and brute-force extremes."""

import itertools

import numpy as np
import pytest

from diatomic_dp import diatomic, robust
from diatomic_dp.corpus import fig1_mdp, random_balanced_mdp, random_mdp
from diatomic_dp.diatomic import spe
from diatomic_dp.errors import (
    DomainError,
    PreconditionError,
    ResourceError,
)
from diatomic_dp.mdp import Mdp, Policy, evaluate_policy
from diatomic_dp.robust import (
    AugmentedKernel,
    _order_rows,
    augmented_policy_eval,
    bavar_vs_avar_gap,
    best_sub,
    coherence_axioms_check,
    in_uncertainty_set,
    permutation_kernel,
    risk_neutral_kernel,
    visit_orders,
    worst_best_case,
    worst_sub,
)


def deterministic_policies(mdp):
    for choices in itertools.product(*mdp.action_sets):
        yield Policy.deterministic(mdp, choices)


class TestPermutations:
    def test_counts_follow_the_halved_factorial(self):
        # (2n)! / 2^n for n = 1..4
        for n, want in [(1, 1), (2, 6), (3, 90), (4, 2520)]:
            assert len(visit_orders(n)) == want

    def test_every_member_keeps_worst_first(self):
        for order in visit_orders(3):
            for x in range(3):
                assert order.index(worst_sub(x)) < order.index(best_sub(x))

    def test_cap_is_enforced(self):
        with pytest.raises(ResourceError, match="cap of 4"):
            visit_orders(5)

    def test_two_state_orders_are_pinned(self):
        # lexicographic order: worst_best_case keeps the first attaining
        # candidate, so this order decides which kernel it reports
        want = [
            (0, 1, 2, 3),
            (0, 2, 1, 3),
            (0, 2, 3, 1),
            (2, 0, 1, 3),
            (2, 0, 3, 1),
            (2, 3, 0, 1),
        ]
        assert list(visit_orders(2)) == want

    def test_order_rows_match_a_greedy_fill(self):
        # reference: walk each visit order, giving the worst row the first
        # alpha of successor mass and the best row the rest
        mdp = random_mdp(3, 2, gamma=0.4, seed=5)
        alpha = 0.3
        entries = [(x, a) for x in range(3) for a in range(2)]
        low, high = _order_rows(mdp, alpha, entries)
        assert low.shape == high.shape == (90, 6, 6)
        for i, seq in enumerate(visit_orders(3)):
            for j, (x, a) in enumerate(entries):
                left = alpha
                want_low, want_high = np.zeros(6), np.zeros(6)
                for s in seq:
                    mass = mdp.transition[x, a, s // 2] * (alpha if s % 2 == 0 else 1 - alpha)
                    take = min(mass, max(left, 0.0))
                    left -= take
                    want_low[s] = take / alpha
                    want_high[s] = (mass - take) / (1 - alpha)
                np.testing.assert_allclose(low[i, j], want_low, atol=1e-12)
                np.testing.assert_allclose(high[i, j], want_high, atol=1e-12)

    def test_order_rows_build_only_the_listed_entries(self):
        mdp = random_mdp(3, 2, gamma=0.4, seed=5)
        entries = [(x, a) for x in range(3) for a in range(2)]
        low, high = _order_rows(mdp, 0.3, entries)
        part_low, part_high = _order_rows(mdp, 0.3, [(2, 1), (0, 0)])
        assert np.array_equal(part_low, low[:, [5, 0]])
        assert np.array_equal(part_high, high[:, [5, 0]])

    def test_rejects_non_bijection(self):
        with pytest.raises(DomainError, match="bijection"):
            permutation_kernel(fig1_mdp(), 0.5, (0, 0, 1, 2))

    def test_rejects_best_before_worst(self):
        with pytest.raises(DomainError, match="precede"):
            permutation_kernel(fig1_mdp(), 0.5, (1, 0, 2, 3))


class TestKernelValidation:
    def test_rejects_odd_state_count(self):
        with pytest.raises(DomainError, match="2S"):
            AugmentedKernel(np.ones((3, 1, 3)) / 3.0)

    def test_rejects_bad_row_sums(self):
        probs = np.zeros((2, 1, 2))
        probs[:, :, 0] = 0.9
        with pytest.raises(DomainError, match="sum"):
            AugmentedKernel(probs)

    def test_rejects_non_finite_entries(self):
        with pytest.raises(DomainError, match="non-finite"):
            AugmentedKernel(np.full((4, 2, 4), np.nan))

    def test_arrays_are_frozen(self):
        k = risk_neutral_kernel(fig1_mdp(), 0.5)
        with pytest.raises(ValueError):
            k.probs[0, 0, 0] = 1.0


class TestUncertaintySet:
    def test_risk_neutral_kernel_is_a_member(self):
        mdp = fig1_mdp()
        for alpha in (0.2, 0.5, 0.81):
            report = in_uncertainty_set(mdp, alpha, risk_neutral_kernel(mdp, alpha))
            assert report
            assert report.max_violation <= 1e-12

    def test_every_permutation_kernel_is_a_member(self):
        mdp = random_mdp(3, 2, gamma=0.4, seed=7)
        for alpha in (0.3, 0.5):
            for order in visit_orders(3):
                assert in_uncertainty_set(mdp, alpha, permutation_kernel(mdp, alpha, order))

    def test_marginal_violation_is_named(self):
        mdp = fig1_mdp()
        probs = risk_neutral_kernel(mdp, 0.5).probs.copy()
        # overload the worst successor from (x1, a1); priority still holds
        probs[0, 0] = 0.0
        probs[0, 0, 0] = 1.0
        report = in_uncertainty_set(mdp, 0.5, AugmentedKernel(probs))
        assert not report
        assert report.constraint == "worst-successor marginal"
        assert report.where == (0, 0, 0)
        assert report.max_violation == pytest.approx(0.25)

    def test_priority_violation_is_named(self):
        mdp = fig1_mdp()
        probs = risk_neutral_kernel(mdp, 0.5).probs.copy()
        # keep both marginals intact but give the worst row only best mass
        probs[0, 1] = [0.0, 0.5, 0.0, 0.5]
        probs[1, 1] = [0.5, 0.0, 0.5, 0.0]
        report = in_uncertainty_set(mdp, 0.5, AugmentedKernel(probs))
        assert not report
        assert report.constraint == "worst-row priority"

    def test_substate_swap_lands_in_the_mirror_set(self):
        # swapping worst and best substates maps level alpha to 1 - alpha;
        # that the image satisfies the priority constraint is exactly the
        # inequality implied for best rows at the original level
        mdp = random_mdp(2, 2, gamma=0.5, seed=11)
        alpha = 0.35
        for order in visit_orders(2):
            probs = permutation_kernel(mdp, alpha, order).probs
            swap = np.arange(2 * mdp.n_states).reshape(-1, 2)[:, ::-1].ravel()
            swapped = probs[swap][:, :, swap]
            assert in_uncertainty_set(mdp, 1.0 - alpha, AugmentedKernel(swapped))

    def test_convex_combinations_stay_inside(self):
        mdp = random_mdp(2, 2, gamma=0.5, seed=13)
        alpha = 0.5
        kernels = [
            permutation_kernel(mdp, alpha, order).probs
            for order in visit_orders(2)
        ]
        rng = np.random.default_rng(0)
        for _ in range(5):
            w = rng.dirichlet(np.ones(len(kernels)))
            mix = AugmentedKernel(np.tensordot(w, kernels, axes=1))
            assert in_uncertainty_set(mdp, alpha, mix)


class TestOptimalKernel:
    """The visit order sorted by continuation value yields the known extreme."""

    def test_fig1_star_kernel_entries(self):
        mdp = fig1_mdp()
        # continuation particles under always-a2 at level one half are
        # 1.25 < 1.75 < 2.25 < 2.75 in substate order, so the sorted visit
        # order is the identity
        p = permutation_kernel(mdp, 0.5, (0, 1, 2, 3)).probs
        a2 = 1
        for x in (0, 1):
            assert p[worst_sub(x), a2, worst_sub(0)] == 0.5
            assert p[worst_sub(x), a2, best_sub(0)] == 0.5
            assert p[best_sub(x), a2, worst_sub(1)] == 0.5
            assert p[best_sub(x), a2, best_sub(1)] == 0.5

    def test_fig1_star_kernel_value_split(self):
        mdp = fig1_mdp()
        kernel = permutation_kernel(mdp, 0.5, (0, 1, 2, 3))
        v = augmented_policy_eval(mdp, Policy.always(mdp, 1), kernel)
        np.testing.assert_allclose(v, [1.5, 2.5, 3.5, 4.5], atol=1e-10)


class TestAugmentedEval:
    def test_rejects_a_kernel_of_another_shape(self):
        mdp = fig1_mdp()
        other = risk_neutral_kernel(random_mdp(3, 2, gamma=0.5, seed=1), 0.5)
        with pytest.raises(DomainError, match="does not match"):
            augmented_policy_eval(mdp, Policy.uniform(mdp), other)

    def test_risk_neutral_kernel_reproduces_the_plain_value(self):
        mdp = random_mdp(3, 2, gamma=0.4, seed=21)
        policy = Policy.uniform(mdp)
        plain = evaluate_policy(mdp, policy)
        v_plain = (policy.probs * plain.q).sum(axis=1)
        v = augmented_policy_eval(mdp, policy, risk_neutral_kernel(mdp, 0.4))
        for x in range(mdp.n_states):
            assert v[worst_sub(x)] == pytest.approx(v_plain[x], abs=1e-9)
            assert v[best_sub(x)] == pytest.approx(v_plain[x], abs=1e-9)

    def test_alpha_blend_recovers_the_plain_value_for_any_member(self):
        # the two marginal constraints make the alpha-weighted pair of
        # substate values collapse to the original chain, whatever the
        # member kernel does inside the set
        mdp = random_mdp(2, 2, gamma=0.5, seed=23)
        alpha = 0.3
        policy = Policy.uniform(mdp)
        v_plain = (policy.probs * evaluate_policy(mdp, policy).q).sum(axis=1)
        kernels = [
            permutation_kernel(mdp, alpha, order).probs
            for order in visit_orders(2)
        ]
        rng = np.random.default_rng(3)
        for _ in range(4):
            w = rng.dirichlet(np.ones(len(kernels)))
            member = AugmentedKernel(np.tensordot(w, kernels, axes=1))
            v = augmented_policy_eval(mdp, policy, member)
            blend = alpha * v[0::2] + (1.0 - alpha) * v[1::2]
            np.testing.assert_allclose(blend, v_plain, atol=1e-8)


class TestWorstBest:
    def test_fig1_extremes_match_the_projected_fixed_point(self):
        mdp = fig1_mdp()
        res = worst_best_case(mdp, Policy.always(mdp, 1), 0.5)
        np.testing.assert_allclose(res.v_worst, [1.5, 3.5], atol=1e-9)
        np.testing.assert_allclose(res.v_best, [2.5, 4.5], atol=1e-9)
        assert res.n_candidates == 9
        assert res.ties is False

    def test_fig1_winning_kernel_is_the_star_kernel(self):
        mdp = fig1_mdp()
        res = worst_best_case(mdp, Policy.always(mdp, 1), 0.5)
        p = res.kernel.probs
        a2 = 1
        for x in (0, 1):
            assert p[worst_sub(x), a2, worst_sub(0)] == 0.5
            assert p[worst_sub(x), a2, best_sub(0)] == 0.5
            assert p[best_sub(x), a2, worst_sub(1)] == 0.5
            assert p[best_sub(x), a2, best_sub(1)] == 0.5
        assert in_uncertainty_set(mdp, 0.5, res.kernel)

    @pytest.mark.parametrize("seed", [100, 300])
    def test_candidates_are_the_unique_rows(self, seed):
        # np.unique on the rounded rows, the dedup's reference, counts the same representatives
        mdp = random_balanced_mdp(2 if seed < 300 else 3, 2, gamma=0.5, seed=seed)
        for choices in itertools.product(*mdp.action_sets):
            policy = Policy.deterministic(mdp, choices)
            pairs = [(x, a) for x in range(mdp.n_states) for a in policy.support(x)]
            low, high = _order_rows(mdp, 0.4, pairs)
            want = 1
            for j in range(len(pairs)):
                rows = np.round(np.concatenate([low[:, j], high[:, j]], axis=1), 12)
                want *= len(np.unique(rows, axis=0))
            assert worst_best_case(mdp, policy, 0.4).n_candidates == want

    def test_deterministic_world_pins_both_extremes(self):
        mdp = fig1_mdp()
        res = worst_best_case(mdp, Policy.always(mdp, 0), 0.5)
        np.testing.assert_allclose(res.v_worst, [2.0, 4.0], atol=1e-9)
        np.testing.assert_allclose(res.v_best, [2.0, 4.0], atol=1e-9)
        assert res.n_candidates == 1

    @pytest.mark.parametrize("seed", [100, 104, 113])
    def test_two_state_corpus_agrees_with_the_recursion(self, seed):
        mdp = random_balanced_mdp(2, 2, gamma=0.5, seed=seed)
        for alpha in (0.35, 0.5):
            for policy in deterministic_policies(mdp):
                res = worst_best_case(mdp, policy, alpha)
                dq = spe(mdp, policy, alpha, tol=1e-12).double_q
                choice = [policy.support(x)[0] for x in range(2)]
                v1 = dq.q1[np.arange(2), choice]
                v2 = dq.q2[np.arange(2), choice]
                np.testing.assert_allclose(res.v_worst, v1, atol=1e-7)
                np.testing.assert_allclose(res.v_best, v2, atol=1e-7)
                assert in_uncertainty_set(mdp, alpha, res.kernel)

    def test_three_state_corpus_agrees_with_the_recursion(self):
        mdp = random_balanced_mdp(3, 2, gamma=0.4, seed=301)
        policy = Policy.deterministic(mdp, [g[0] for g in mdp.action_sets])
        res = worst_best_case(mdp, policy, 0.5)
        dq = spe(mdp, policy, 0.5, tol=1e-12).double_q
        choice = [policy.support(x)[0] for x in range(3)]
        v1 = dq.q1[np.arange(3), choice]
        v2 = dq.q2[np.arange(3), choice]
        np.testing.assert_allclose(res.v_worst, v1, atol=1e-7)
        np.testing.assert_allclose(res.v_best, v2, atol=1e-7)

    def test_incoherent_policy_is_rejected(self):
        # two actions with different certain rewards: a uniform policy has
        # a genuine value spread at every level
        t = np.ones((1, 2, 1))
        r = np.zeros((1, 2, 1))
        r[0, 1, 0] = 1.0
        mdp = Mdp(transition=t, reward=r, gamma=0.5)
        with pytest.raises(PreconditionError, match="coherent"):
            worst_best_case(mdp, Policy.uniform(mdp), 0.5)

    def test_state_cap_is_enforced(self):
        mdp = random_mdp(5, 2, gamma=0.5, seed=31)
        policy = Policy.always(mdp, 0)
        with pytest.raises(ResourceError, match="cap"):
            worst_best_case(mdp, policy, 0.5)

    def test_candidate_cap_is_enforced(self, monkeypatch):
        monkeypatch.setattr(robust, "CANDIDATE_CAP", 1)
        mdp = random_balanced_mdp(2, 2, gamma=0.5, seed=100)
        policy = Policy.always(mdp, 0)
        with pytest.raises(ResourceError, match="candidates"):
            worst_best_case(mdp, policy, 0.5)


class TestTailBracketing:
    def test_fig1_truncated_tails_bracket_the_fixed_point(self):
        mdp = fig1_mdp()
        report = bavar_vs_avar_gap(mdp, Policy.always(mdp, 1), 0.5, k=30)
        assert report.ok
        assert report.eps_k == pytest.approx(0.5**30 * 2.5 / 0.5)
        assert len(report.entries) == 2
        assert report.min_slack >= -1e-9

    def test_deterministic_returns_have_exactly_the_truncation_slack(self):
        mdp = fig1_mdp()
        k = 12
        report = bavar_vs_avar_gap(mdp, Policy.always(mdp, 0), 0.5, k=k)
        assert report.ok
        # self-loop with constant reward: the truncated return falls short
        # of the value by v * gamma^k, and both tails equal the return
        values = {0: 2.0, 1: 4.0}
        for x, _, left_gap, right_gap in report.entries:
            deficit = values[x] * 0.5**k
            assert left_gap == pytest.approx(report.eps_k + deficit, abs=1e-12)
            assert right_gap == pytest.approx(report.eps_k - deficit, abs=1e-12)

    def test_incoherent_policy_is_rejected(self):
        t = np.ones((1, 2, 1))
        r = np.zeros((1, 2, 1))
        r[0, 1, 0] = 1.0
        mdp = Mdp(transition=t, reward=r, gamma=0.5)
        with pytest.raises(PreconditionError, match="coherent"):
            bavar_vs_avar_gap(mdp, Policy.uniform(mdp), 0.5, k=5)


class TestRiskAxioms:
    def test_fig1_tail_functionals_satisfy_all_four(self, monkeypatch):
        mdp = fig1_mdp()
        monkeypatch.setattr(robust, "AXIOM_TRIALS", 8)
        monkeypatch.setattr(robust, "AXIOM_SEED", 42)
        report = coherence_axioms_check(mdp, Policy.always(mdp, 1), 0.5, x=0)
        assert report.ok
        assert report.n_trials == 8
        assert set(report.violations) == {
            "translation",
            "subadditivity",
            "homogeneity",
            "monotonicity",
        }
        assert max(report.violations.values()) <= 1e-8

    def test_verdict_reads_the_check_tolerance(self, monkeypatch):
        mdp = fig1_mdp()
        monkeypatch.setattr(robust, "AXIOM_TRIALS", 1)
        monkeypatch.setattr(diatomic, "CHECK_TOL", -1.0)  # translation's |error| >= 0 fails
        assert not coherence_axioms_check(mdp, Policy.always(mdp, 1), 0.5, x=0).ok

    def test_state_out_of_range(self):
        mdp = fig1_mdp()
        with pytest.raises(DomainError, match="out of range"):
            coherence_axioms_check(mdp, Policy.always(mdp, 1), 0.5, x=7)

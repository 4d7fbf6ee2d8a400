"""Acceptance gate: twelve numbered end-to-end checks.

Each test covers one numbered claim about the toolkit, in order, with the
tolerances stated inline. Run with ``-v`` for one pass/fail line per
criterion, or ``-s`` for the printed detail lines.
"""

import itertools
import time

import numpy as np
from numpy.testing import assert_allclose

from diatomic_dp import diatomic, robust
from diatomic_dp import mdp as mdp_module
from diatomic_dp.control import (
    optimality_certificate,
    risky_bellman_apply,
    safe_bellman_apply,
    svi,
)
from diatomic_dp.corpus import (
    CORPUS_2STATE_GAMMA,
    CORPUS_3STATE_GAMMA,
    fig1_mdp,
    random_balanced_mdp,
    random_mdp,
    stock_corpus,
)
from diatomic_dp.diatomic import DoubleQ, diatomic_bellman_apply, spe
from diatomic_dp.dist import DiscreteDist, avar_left, avar_left_dual, avar_right
from diatomic_dp.mdp import Policy, evaluate_policy, is_balanced, value_iteration
from diatomic_dp.risky_lp import (
    build_risky_dual,
    build_risky_primal,
    duality_gap_check,
)
from diatomic_dp.robust import (
    bavar_vs_avar_gap,
    coherence_axioms_check,
    permutation_kernel,
    worst_best_case,
)
from diatomic_dp.simplex import EQ, LpProblem, solve


def best_time(fn, repeats=7):
    """Smallest wall time over several runs, after one warm-up call."""
    fn()
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def deterministic_policies(mdp):
    for choices in itertools.product(*mdp.action_sets):
        yield Policy.deterministic(mdp, list(choices)), choices


def test_criterion_01_four_atom_tail_means_golden():
    d = DiscreteDist([-5.0, -1.0, 4.0, 8.0], [0.2, 0.4, 0.2, 0.2])

    def work():
        return avar_left(d, 0.7), avar_right(d, 0.3)

    left, right = work()
    assert abs(left - (-1.0 / 0.7)) <= 1e-12
    assert abs(right - (2.0 / 0.3)) <= 1e-12
    elapsed = best_time(work)
    assert elapsed < 1e-3
    print(
        f"criterion 1: PASS - left {left:.12f} = -1/0.7, right {right:.12f}"
        f" = 2/0.3, {elapsed * 1e6:.0f} us"
    )


def test_criterion_02_two_state_value_iteration_golden():
    mdp = fig1_mdp()

    def work():
        return value_iteration(mdp, tol=1e-12)

    sol = work()
    assert_allclose(sol.q[0], [2.0, 2.0], atol=1e-9)
    assert_allclose(sol.q[1], [4.0, 4.0], atol=1e-9)
    assert is_balanced(mdp) is True
    elapsed = best_time(work)
    assert elapsed < 1e-2
    print(
        f"criterion 2: PASS - Q*(x1)=2, Q*(x2)=4 within 1e-9, balanced,"
        f" {elapsed * 1e3:.2f} ms"
    )


def test_criterion_03_two_tail_evaluation_golden(monkeypatch):
    mdp = fig1_mdp()
    pi = Policy.always(mdp, 1)
    monkeypatch.setattr(mdp_module, "DEFAULT_MAX_ITER", 60)

    def work():
        return spe(mdp, pi, alpha=0.5, tol=1e-9)

    sol = work()
    assert sol.iterations <= 60
    assert abs(sol.double_q.q1[0, 1] - 1.5) <= 1e-8
    assert abs(sol.double_q.q2[0, 1] - 2.5) <= 1e-8
    assert abs(sol.double_q.q1[1, 1] - 3.5) <= 1e-8
    assert abs(sol.double_q.q2[1, 1] - 4.5) <= 1e-8
    elapsed = best_time(work)
    assert elapsed < 1e-2
    print(
        f"criterion 3: PASS - (1.5, 2.5) at x1 and (3.5, 4.5) at x2 in"
        f" {sol.iterations} sweeps, {elapsed * 1e3:.2f} ms"
    )


def test_criterion_04_safe_control_golden():
    res = svi(fig1_mdp(), alpha=0.5, mode="safe", tol=1e-11)
    assert_allclose(res.q1[:, 0], res.v_star, atol=1e-8)
    assert_allclose(res.q2[:, 0], res.v_star, atol=1e-8)
    assert_allclose(res.v_star, [2.0, 4.0], atol=1e-8)
    assert res.action_sets == ((0,), (0,))
    print("criterion 4: PASS - Q1=Q2=V* on a1, safest set {a1} in both states")


def test_criterion_05_risky_control_golden():
    res = svi(fig1_mdp(), alpha=0.5, mode="risky", tol=1e-11)
    assert_allclose(res.q1[:, 1], [1.5, 3.5], atol=1e-8)
    assert_allclose(res.q2[:, 1], [2.5, 4.5], atol=1e-8)
    assert res.action_sets == ((1,), (1,))
    print(
        "criterion 5: PASS - Q1(.,a2)=(1.5, 3.5), Q2(.,a2)=(2.5, 4.5),"
        " riskiest set {a2}"
    )


def test_criterion_06_kernel_extremes_match_recursion():
    alpha = 0.5
    checked = 0
    for _, mdp in stock_corpus():
        idx = np.arange(mdp.n_states)
        for pi, choices in deterministic_policies(mdp):
            res = worst_best_case(mdp, pi, alpha)
            dq = spe(mdp, pi, alpha, tol=1e-12).double_q
            v1 = dq.q1[idx, list(choices)]
            v2 = dq.q2[idx, list(choices)]
            # worst_best_case itself enforces that one kernel attains both
            # extremes, so reaching this point certifies the common witness
            assert np.abs(res.v_worst - v1).max() <= 1e-7
            assert np.abs(res.v_best - v2).max() <= 1e-7
            checked += 1

    fig1 = fig1_mdp()
    res = worst_best_case(fig1, Policy.always(fig1, 1), alpha)
    star = permutation_kernel(fig1, alpha, (0, 1, 2, 3))
    risky_rows = res.kernel.probs[:, 1, :]
    assert np.array_equal(risky_rows, star.probs[:, 1, :])
    assert np.count_nonzero(risky_rows) == 8
    assert (risky_rows[risky_rows != 0.0] == 0.5).all()
    print(
        f"criterion 6: PASS - {checked} (instance, policy) pairs match the"
        " recursion within 1e-7; the eight 0.5 extreme-kernel entries are exact"
    )


def test_criterion_07_truncated_tail_means_bracket_fixed_point():
    checked = 0
    worst_slack = np.inf
    for _, mdp in stock_corpus():
        want_eps = mdp.gamma**30 * mdp.reward_span() / (1.0 - mdp.gamma)
        for pi, _ in deterministic_policies(mdp):
            rep = bavar_vs_avar_gap(mdp, pi, alpha=0.5, k=30)
            assert rep.ok
            assert rep.eps_k == want_eps
            assert len(rep.entries) == mdp.n_states
            assert rep.min_slack >= -1e-9
            worst_slack = min(worst_slack, rep.min_slack)
            checked += 1
    print(
        f"criterion 7: PASS - bracketing holds on {checked} (instance, policy)"
        f" pairs at k=30, worst slack {worst_slack:.3e}"
    )


def test_criterion_08_evaluation_operator_property_suite():
    rng = np.random.default_rng(20240808)
    for trial in range(200):
        n = int(rng.integers(2, 4))
        a_n = int(rng.integers(2, 4))
        gamma = float(rng.uniform(0.3, 0.7))
        mdp = random_mdp(n, a_n, gamma=gamma, seed=int(rng.integers(1 << 30)))
        pi = Policy(rng.dirichlet(np.ones(a_n), size=n))
        alpha = float(rng.uniform(0.1, 0.9))

        def pair():
            base = rng.uniform(-5.0, 5.0, size=(n, a_n))
            return DoubleQ(base, base + rng.uniform(0.0, 4.0, size=(n, a_n)), alpha)

        first, second = pair(), pair()
        out_first = diatomic_bellman_apply(mdp, pi, first)
        out_second = diatomic_bellman_apply(mdp, pi, second)

        # monotone in both tables
        upper = DoubleQ(
            np.maximum(first.q1, second.q1),
            np.maximum(first.q2, second.q2),
            alpha,
        )
        out_upper = diatomic_bellman_apply(mdp, pi, upper)
        assert (out_upper.q1 >= out_first.q1 - 1e-10).all()
        assert (out_upper.q2 >= out_first.q2 - 1e-10).all()
        assert (out_upper.q1 >= out_second.q1 - 1e-10).all()
        assert (out_upper.q2 >= out_second.q2 - 1e-10).all()

        # cash translation comes out scaled by exactly gamma
        shift = float(rng.uniform(-4.0, 4.0))
        out_shift = diatomic_bellman_apply(
            mdp, pi, DoubleQ(first.q1 + shift, first.q2 + shift, alpha)
        )
        assert np.abs(out_shift.q1 - (out_first.q1 + gamma * shift)).max() <= 1e-10
        assert np.abs(out_shift.q2 - (out_first.q2 + gamma * shift)).max() <= 1e-10

        # left output concave, right output convex along a segment
        lam = float(rng.uniform(0.2, 0.8))
        blend = DoubleQ(
            lam * first.q1 + (1 - lam) * second.q1,
            lam * first.q2 + (1 - lam) * second.q2,
            alpha,
        )
        out_blend = diatomic_bellman_apply(mdp, pi, blend)
        mix_q1 = lam * out_first.q1 + (1 - lam) * out_second.q1
        mix_q2 = lam * out_first.q2 + (1 - lam) * out_second.q2
        assert (out_blend.q1 >= mix_q1 - 1e-10).all()
        assert (out_blend.q2 <= mix_q2 + 1e-10).all()

        # sup-norm contraction at rate gamma
        dist_in = max(
            np.abs(first.q1 - second.q1).max(), np.abs(first.q2 - second.q2).max()
        )
        dist_out = max(
            np.abs(out_first.q1 - out_second.q1).max(),
            np.abs(out_first.q2 - out_second.q2).max(),
        )
        assert dist_out <= gamma * dist_in + 1e-10

        # fixed point: tails average back to the classic table and flank it
        dq = spe(mdp, pi, alpha, tol=1e-11).double_q
        q_pi = evaluate_policy(mdp, pi, tol=1e-12).q
        assert np.abs(alpha * dq.q1 + (1 - alpha) * dq.q2 - q_pi).max() <= 1e-8
        assert (dq.q1 <= q_pi + 1e-8).all()
        assert (q_pi <= dq.q2 + 1e-8).all()
    print(
        "criterion 8: PASS - 200 draws satisfy monotonicity, gamma-shift"
        " translation, concavity/convexity, contraction, averaging, and order"
    )


def test_criterion_09_control_operator_property_suite():
    rng = np.random.default_rng(20240909)
    for trial in range(200):
        n = int(rng.integers(2, 4))
        a_n = int(rng.integers(2, 4))
        gamma = float(rng.uniform(0.3, 0.6))
        mdp = random_balanced_mdp(n, a_n, gamma=gamma, seed=int(rng.integers(1 << 30)))
        alpha = float(rng.uniform(0.2, 0.5))
        safe = svi(mdp, alpha, mode="safe", tol=1e-11)
        risky = svi(mdp, alpha, mode="risky", tol=1e-11)
        v_star = safe.v_star

        def complement(v1):
            return (v_star - alpha * v1) / (1.0 - alpha)

        # one-sweep sup-norm contraction; alpha <= 1/2 keeps the modulus gamma
        v_a = rng.uniform(-5.0, 5.0, size=n)
        v_b = rng.uniform(-5.0, 5.0, size=n)
        for apply_step in (safe_bellman_apply, risky_bellman_apply):
            step_a = apply_step(mdp, v_a, complement(v_a), alpha, v_star=v_star)
            step_b = apply_step(mdp, v_b, complement(v_b), alpha, v_star=v_star)
            assert (
                np.abs(step_a.v1 - step_b.v1).max()
                <= gamma * np.abs(v_a - v_b).max() + 1e-10
            )

        # risky sweep is concave on inputs below the optimum
        low_a = v_star - rng.uniform(0.0, 3.0, size=n)
        low_b = v_star - rng.uniform(0.0, 3.0, size=n)
        lam = float(rng.uniform(0.2, 0.8))
        mix = lam * low_a + (1 - lam) * low_b
        out_mix = risky_bellman_apply(mdp, mix, complement(mix), alpha, v_star=v_star)
        out_a = risky_bellman_apply(mdp, low_a, complement(low_a), alpha, v_star=v_star)
        out_b = risky_bellman_apply(mdp, low_b, complement(low_b), alpha, v_star=v_star)
        assert (out_mix.v1 >= lam * out_a.v1 + (1 - lam) * out_b.v1 - 1e-10).all()

        # the left-table argmax/argmin sets agree with the right-table ones
        for result, pick_high in ((safe, True), (risky, False)):
            for x, group in enumerate(mdp.action_sets):
                q1_row = result.q1[x, list(group)]
                q2_row = result.q2[x, list(group)]
                if pick_high:
                    from_q1 = {a for a, v in zip(group, q1_row) if v >= q1_row.max() - 1e-8}
                    from_q2 = {a for a, v in zip(group, q2_row) if v <= q2_row.min() + 1e-8}
                else:
                    from_q1 = {a for a, v in zip(group, q1_row) if v <= q1_row.min() + 1e-8}
                    from_q2 = {a for a, v in zip(group, q2_row) if v >= q2_row.max() - 1e-8}
                assert from_q1 == from_q2

        # explicit enumeration certifies both claimed optima
        for mode in ("safe", "risky"):
            report = optimality_certificate(mdp, alpha, mode=mode)
            assert report.ok
            assert report.n_checked == a_n**n
    print(
        "criterion 9: PASS - 200 balanced instances satisfy contraction,"
        " concavity below the optimum, set agreement, and enumeration"
        " certificates"
    )


def test_criterion_10_linear_program_duality():
    fig1 = fig1_mdp()
    primal = build_risky_primal(fig1, alpha=0.5)
    assert primal.n_rows == 24
    sol_p = solve(primal)
    sol_d = solve(build_risky_dual(fig1, alpha=0.5))
    assert sol_p.optimal and sol_d.optimal
    assert_allclose(sol_p.x, [1.5, 3.5], atol=1e-7)
    assert abs(sol_p.objective_value - 1.25) <= 1e-7
    assert abs(sol_d.objective_value - 1.25) <= 1e-7
    assert abs(sol_p.objective_value - sol_d.objective_value) <= 1e-7
    risky_v1 = svi(fig1, 0.5, mode="risky", tol=1e-11).v1
    assert np.abs(sol_p.x - risky_v1).max() <= 1e-7

    rng = np.random.default_rng(20241010)
    for trial in range(10):
        if trial % 2 == 0:
            mdp = random_balanced_mdp(
                2, 2, CORPUS_2STATE_GAMMA, seed=int(rng.integers(1 << 30))
            )
        else:
            mdp = random_balanced_mdp(
                3, 2, CORPUS_3STATE_GAMMA, seed=int(rng.integers(1 << 30))
            )
        alpha = float(rng.uniform(0.25, 0.5))
        report = duality_gap_check(mdp, alpha)
        assert report.ok
        assert report.gap <= 1e-7
        assert report.recursion_deviation <= 1e-7
    print(
        "criterion 10: PASS - 24 rows, primal = dual = 1.25, V1 = (1.5, 3.5);"
        " 10 random instances close the gap within 1e-7"
    )


def test_criterion_11_risk_measure_axioms_under_reward_perturbations(monkeypatch):
    fig1 = fig1_mdp()
    pi = Policy.always(fig1, 1)
    expected = {"translation", "subadditivity", "homogeneity", "monotonicity"}
    assert (robust.AXIOM_TRIALS, diatomic.CHECK_TOL) == (50, 1e-8)
    for state in (0, 1):
        monkeypatch.setattr(robust, "AXIOM_SEED", 11 + state)
        report = coherence_axioms_check(fig1, pi, alpha=0.5, x=state)
        assert report.ok
        assert report.n_trials == 50
        assert set(report.violations) == expected
        assert max(report.violations.values()) <= 1e-8
    print(
        "criterion 11: PASS - both tail functionals pass all four axioms over"
        " 50 reward perturbations per state at 1e-8"
    )


def test_criterion_12_tail_mean_against_dual_and_linear_program():
    rng = np.random.default_rng(20241212)
    for trial in range(500):
        n = int(rng.integers(1, 13))
        values = rng.uniform(-10.0, 10.0, size=n)
        probs = rng.dirichlet(np.ones(n))
        alpha = float(rng.uniform(0.05, 0.95))
        d = DiscreteDist(values, probs)
        closed = avar_left(d, alpha)
        dual_value, lam = avar_left_dual(d, alpha)
        lp = solve(
            LpProblem(
                c=d.values,
                a=np.ones((1, n)),
                row_senses=[EQ],
                b=np.array([1.0]),
                sense="min",
                lower=np.zeros(n),
                upper=d.probs / alpha,
            )
        )
        assert lp.optimal
        assert abs(closed - dual_value) <= 1e-9
        assert abs(closed - lp.objective_value) <= 1e-9
        assert abs(dual_value - lp.objective_value) <= 1e-9
        assert abs(lam.sum() - alpha) <= 1e-12
    print(
        "criterion 12: PASS - closed form, greedy dual, and simplex agree"
        " within 1e-9 on 500 random distributions"
    )

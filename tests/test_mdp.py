import json
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from diatomic_dp import mdp as mdp_module
from diatomic_dp.corpus import fig1_mdp, random_balanced_mdp, random_mdp
from diatomic_dp.errors import (
    ConvergenceError,
    DomainError,
    InputError,
    ResourceError,
    StructuralError,
)
from diatomic_dp.mdp import (
    Mdp,
    Policy,
    balance_gap,
    bellman_policy_op,
    evaluate_policy,
    is_balanced,
    load_mdp,
    mdp_from_dict,
    mdp_to_dict,
    optimal_action_sets,
    reduce_to_balanced,
    save_mdp,
    state_values,
    value_iteration,
)


def q_pi_linear_solve(mdp, policy):
    """Independent oracle: Q^pi = (I - gamma P Pi)^-1 r_bar on (x, a) space."""
    s, a = mdp.n_states, mdp.n_actions
    n = s * a
    p_pi = np.einsum("xay,yb->xayb", mdp.transition, policy.probs).reshape(n, n)
    r_bar = mdp.expected_reward.reshape(n)
    q = np.linalg.solve(np.eye(n) - mdp.gamma * p_pi, r_bar)
    return q.reshape(s, a)


@pytest.fixture
def fig1():
    return fig1_mdp()


class TestBellmanOp:
    def test_one_step_from_zero(self, fig1):
        q = bellman_policy_op(fig1, Policy.always(fig1, 0), np.zeros((2, 2)))
        # expected immediate rewards
        assert_allclose(q, [[1.0, 0.5], [2.0, 2.5]], atol=1e-15)

    def test_gamma_zero(self):
        m = random_mdp(3, 2, 0.0, seed=5)
        q = bellman_policy_op(m, Policy.uniform(m), np.ones((3, 2)))
        assert_allclose(q, m.expected_reward, atol=1e-15)

    def test_fixed_point_invariance(self, fig1):
        pi = Policy.uniform(fig1)
        sol = evaluate_policy(fig1, pi, tol=1e-12)
        assert_allclose(bellman_policy_op(fig1, pi, sol.q), sol.q, atol=1e-9)

    def test_contraction(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            m = random_mdp(3, 2, rng.uniform(0.1, 0.95), seed=int(rng.integers(1e6)))
            pi = Policy(rng.dirichlet(np.ones(2), size=3))
            q1 = rng.normal(size=(3, 2))
            q2 = rng.normal(size=(3, 2))
            lhs = np.abs(
                bellman_policy_op(m, pi, q1) - bellman_policy_op(m, pi, q2)
            ).max()
            assert lhs <= m.gamma * np.abs(q1 - q2).max() + 1e-12


class TestEvaluatePolicy:
    def test_fig1_stay_policy(self, fig1):
        sol = evaluate_policy(fig1, Policy.always(fig1, 0), tol=1e-12)
        # self-loops: q(x, a1) = r / (1 - gamma)
        assert_allclose(sol.q[:, 0], [2.0, 4.0], atol=1e-10)
        assert sol.residual <= 1e-12

    def test_single_state_geometric(self):
        m = Mdp(transition=np.ones((1, 1, 1)), reward=np.full((1, 1, 1), 0.7), gamma=0.9)
        sol = evaluate_policy(m, Policy.always(m, 0), tol=1e-12)
        assert_allclose(sol.q[0, 0], 7.0, atol=1e-9)

    def test_against_linear_solve(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            m = random_mdp(4, 3, rng.uniform(0.2, 0.9), seed=int(rng.integers(1e6)))
            pi = Policy(rng.dirichlet(np.ones(3), size=4))
            sol = evaluate_policy(m, pi, tol=1e-12)
            assert_allclose(sol.q, q_pi_linear_solve(m, pi), atol=1e-8)

    def test_max_iter_exhausted(self, fig1, monkeypatch):
        monkeypatch.setattr(mdp_module, "DEFAULT_MAX_ITER", 3)
        with pytest.raises(ConvergenceError) as err:
            evaluate_policy(fig1, Policy.uniform(fig1), tol=1e-12)
        assert err.value.iterations == 3
        assert err.value.residual > 1e-12

    def test_values_consistent(self, fig1):
        pi = Policy.uniform(fig1)
        sol = evaluate_policy(fig1, pi, tol=1e-12)
        v = state_values(sol.q, pi)
        assert_allclose(v, 0.5 * sol.q.sum(axis=1), atol=1e-15)


class TestValueIteration:
    def test_fig1_optimum(self, fig1):
        sol = value_iteration(fig1, tol=1e-12)
        assert_allclose(sol.q, [[2.0, 2.0], [4.0, 4.0]], atol=1e-10)

    def test_single_action_reduces_to_evaluation(self):
        m = random_mdp(3, 1, 0.6, seed=99)
        vi = value_iteration(m, tol=1e-12)
        ev = evaluate_policy(m, Policy.always(m, 0), tol=1e-12)
        assert_allclose(vi.q, ev.q, atol=1e-10)

    def test_dominates_random_policies(self):
        rng = np.random.default_rng(17)
        m = random_mdp(3, 3, 0.7, seed=23)
        q_star = value_iteration(m, tol=1e-12).q
        for _ in range(100):
            pi = Policy(rng.dirichlet(np.ones(3), size=3))
            q_pi = evaluate_policy(m, pi, tol=1e-11).q
            assert np.all(q_star >= q_pi - 1e-8)

    def test_monotone(self):
        rng = np.random.default_rng(41)
        m = random_mdp(3, 2, 0.8, seed=12)
        mask = m.action_mask

        def step(q):
            v = np.where(mask, q, -np.inf).max(axis=1)
            return np.einsum(
                "xay,xay->xa", m.transition, m.reward + m.gamma * v[None, None, :]
            )

        for _ in range(20):
            lo = rng.normal(size=(3, 2))
            hi = lo + rng.uniform(0.0, 2.0, size=(3, 2))
            assert np.all(step(lo) <= step(hi) + 1e-12)


class TestActionMask:
    def test_mask_is_cached_and_read_only(self, fig1):
        restricted = replace(fig1, action_sets=((1,), (0, 1)))
        mask = restricted.action_mask
        assert mask is restricted.action_mask
        assert mask.tolist() == [[False, True], [True, True]]
        assert fig1.action_mask.all()
        with pytest.raises(ValueError):
            mask[0, 0] = not mask[0, 0]


class TestBalance:
    def test_fig1_is_balanced(self, fig1, monkeypatch):
        monkeypatch.setattr(mdp_module, "BALANCE_TOL", 1e-9)
        assert is_balanced(fig1)
        assert optimal_action_sets(fig1, value_iteration(fig1).q) == ((0, 1), (0, 1))

    def test_perturbed_reward_breaks_balance(self, fig1):
        r = fig1.reward.copy()
        r[0, 0, :] += 1.0
        m = fig1.with_reward(r)
        assert not is_balanced(m)
        gap, (x, best, worst) = balance_gap(m)
        assert x == 0 and best == 0 and worst == 1
        assert gap > 0.5

    def test_single_action_always_balanced(self):
        assert is_balanced(random_mdp(4, 1, 0.5, seed=3))

    def test_random_balanced_generator(self, monkeypatch):
        monkeypatch.setattr(mdp_module, "BALANCE_TOL", 1e-9)
        for seed in range(8):
            m = random_balanced_mdp(3, 3, 0.6, seed=seed)
            assert is_balanced(m)

    def test_reduce_keeps_original_indices(self, fig1, monkeypatch):
        r = fig1.reward.copy()
        r[0, 1, :] -= 0.5  # make a2 strictly worse in x1
        m = fig1.with_reward(r)
        reduced = reduce_to_balanced(m)
        assert reduced.action_sets[0] == (0,)
        assert reduced.action_sets[1] == (0, 1)
        monkeypatch.setattr(mdp_module, "BALANCE_TOL", 1e-9)
        assert is_balanced(reduced)
        # dense tables untouched, actions keep their original ids
        assert reduced.transition is m.transition or np.array_equal(
            reduced.transition, m.transition
        )

    def test_reduce_random_instances(self, monkeypatch):
        monkeypatch.setattr(mdp_module, "BALANCE_TOL", 1e-8)
        for seed in range(6):
            m = random_mdp(3, 3, 0.65, seed=seed + 50)
            reduced = reduce_to_balanced(m)
            assert is_balanced(reduced)
            for x, group in enumerate(reduced.action_sets):
                assert set(group) <= set(range(3))
                assert len(group) >= 1

    def test_policies_respect_reduced_sets(self, fig1):
        r = fig1.reward.copy()
        r[0, 1, :] -= 0.5
        reduced = reduce_to_balanced(fig1.with_reward(r))
        with pytest.raises(DomainError):
            Policy.deterministic(reduced, [1, 1])
        pi = Policy.uniform(reduced)
        assert pi.probs[0, 1] == 0.0
        with pytest.raises(DomainError):
            evaluate_policy(reduced, Policy(np.array([[0.0, 1.0], [1.0, 0.0]])))


class TestJsonInterchange:
    def test_fig1_round_trip(self, fig1, tmp_path):
        path = tmp_path / "m.json"
        save_mdp(fig1, str(path))
        back = load_mdp(str(path))
        assert_allclose(back.transition, fig1.transition, atol=1e-15)
        assert_allclose(back.reward, fig1.reward, atol=1e-15)
        assert back.gamma == fig1.gamma
        assert back.states == fig1.states

    def test_missing_entries_default_to_zero(self):
        doc = {
            "gamma": 0.5,
            "states": ["s"],
            "actions": ["a"],
            "transitions": [{"x": 0, "a": 0, "next": 0, "p": 1.0}],
        }
        m = mdp_from_dict(doc)
        assert m.reward[0, 0, 0] == 0.0

    @pytest.mark.parametrize(
        "patch",
        [
            {"gamma": "0.5"},
            {"gamma": None},
            {"gamma": [0.5]},
            {"transitions": [{"x": 0, "a": 0, "next": 0, "p": True}]},
            {"transitions": [{"x": 0, "a": 0, "next": 0, "p": "1"}]},
            {"rewards": [{"x": 0, "a": 0, "next": 0, "r": "2"}]},
            {"rewards": [{"x": 0, "a": 0, "next": 0, "r": False}]},
            {"rewards": [{"x": 0, "a": 0, "next": 0, "r": 10**400}]},
        ],
        ids=[
            "gamma-text", "gamma-null", "gamma-list", "mass-bool", "mass-text",
            "reward-text", "reward-bool", "reward-huge-integer",
        ],
    )
    def test_only_json_numbers_are_read_as_numbers(self, patch):
        doc = {
            "gamma": 0.5,
            "states": ["s"],
            "actions": ["a"],
            "transitions": [{"x": 0, "a": 0, "next": 0, "p": 1}],
            "rewards": [{"x": 0, "a": 0, "next": 0, "r": 2}],
        }
        assert mdp_from_dict(doc).reward[0, 0, 0] == 2.0  # integers are numbers
        with pytest.raises(InputError, match="JSON number|out of range"):
            mdp_from_dict({**doc, **patch})

    @pytest.mark.parametrize(
        "bad, message",
        [
            (
                [{"x": 0, "a": 0, "next": 2, "p": 0.5}, {"x": 0, "a": 0, "p": 0.5}],
                "transition entry #1 indexes out of range: {'x': 0, 'a': 0, 'next': 2, 'p': 0.5}",
            ),
            (
                [{"x": 0, "a": 0, "p": 0.5}, {"x": 0.0, "a": 0, "next": 0, "p": 0.5}],
                "bad transition entry #1: {'x': 0, 'a': 0, 'p': 0.5} ('next')",
            ),
            (
                [{"x": 0, "a": True, "next": 0, "p": 0.5}, {"x": 0, "a": 0, "next": 0, "p": "1"}],
                "transition entry #1 has a non-integer index: "
                "{'x': 0, 'a': True, 'next': 0, 'p': 0.5}",
            ),
            (
                [{"x": 0, "a": 0, "next": 0, "p": None}, [0, 0, 0, 0.5]],
                "transition entry #1 'p' must be a JSON number, got None",
            ),
            (
                [{"x": 0, "a": 0, "next": 0, "p": 10**400}, {"x": 9, "a": 0, "next": 0, "p": 0.5}],
                "transition entry #1 'p' is out of range (int too large to convert to float)",
            ),
        ],
        ids=["range-key", "key-float-index", "bool-index-text", "null-list", "huge-range"],
    )
    def test_reports_the_first_of_several_bad_entries(self, bad, message):
        good = {"x": 0, "a": 0, "next": 1, "p": 0.5}
        doc = {"gamma": 0.5, "states": ["s", "t"], "actions": ["a"], "transitions": [good, *bad]}
        with pytest.raises(InputError) as err:
            mdp_from_dict(doc)
        assert str(err.value) == message

    def test_duplicate_entries_sum_in_document_order(self):
        doc = {
            "gamma": 0.5,
            "states": ["s"],
            "actions": ["a"],
            "transitions": [{"x": 0, "a": 0, "next": 0, "p": 1.0}],
            "rewards": [{"x": 0, "a": 0, "next": 0, "r": r} for r in (0.1, 0.2, 0.3)],
        }
        assert (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)
        assert mdp_from_dict(doc).reward[0, 0, 0] == (0.1 + 0.2) + 0.3

    def test_table_budget_refuses_before_allocating(self, monkeypatch):
        # S*A*S = 8 entries per table: one over a cap of 7, within a cap of 8
        doc = {
            "gamma": 0.5,
            "states": ["s", "t"],
            "actions": ["a", "b"],
            "transitions": [
                {"x": x, "a": a, "next": x, "p": 1.0} for x in range(2) for a in range(2)
            ],
        }
        monkeypatch.setattr(mdp_module, "TABLE_CAP", 8)
        assert mdp_from_dict(doc).n_states == 2
        monkeypatch.setattr(mdp_module, "TABLE_CAP", 7)
        monkeypatch.setattr(mdp_module.np, "zeros", None)  # nothing may be allocated
        with pytest.raises(ResourceError, match="8 S.A.S table entries exceed the cap of 7"):
            mdp_from_dict(doc)

    def test_small_row_noise_renormalized(self):
        doc = {
            "gamma": 0.5,
            "states": ["s", "t"],
            "actions": ["a"],
            "transitions": [
                {"x": 0, "a": 0, "next": 0, "p": 0.5 + 4e-8},
                {"x": 0, "a": 0, "next": 1, "p": 0.5},
                {"x": 1, "a": 0, "next": 1, "p": 1.0},
            ],
        }
        m = mdp_from_dict(doc)
        assert_allclose(m.transition[0, 0].sum(), 1.0, atol=1e-15)

    def test_large_row_deviation_rejected(self):
        doc = {
            "gamma": 0.5,
            "states": ["s"],
            "actions": ["a"],
            "transitions": [{"x": 0, "a": 0, "next": 0, "p": 1.01}],
        }
        with pytest.raises(InputError):
            mdp_from_dict(doc)

    def test_bad_index_rejected(self):
        doc = {
            "gamma": 0.5,
            "states": ["s"],
            "actions": ["a"],
            "transitions": [{"x": 0, "a": 0, "next": 3, "p": 1.0}],
        }
        with pytest.raises(InputError):
            mdp_from_dict(doc)

    def test_duplicate_names_rejected(self, fig1):
        with pytest.raises(StructuralError, match="unique"):
            replace(fig1, states=("s", "s"))
        with pytest.raises(StructuralError, match="unique"):
            replace(fig1, actions=("a", "a"))

    def test_parse_error_has_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"gamma": 0.5,\n  "states": [}\n')
        with pytest.raises(InputError) as err:
            load_mdp(str(path))
        assert "line 2" in str(err.value)

    def test_duplicate_entries_accumulate(self):
        doc = {
            "gamma": 0.0,
            "states": ["s"],
            "actions": ["a"],
            "transitions": [
                {"x": 0, "a": 0, "next": 0, "p": 0.5},
                {"x": 0, "a": 0, "next": 0, "p": 0.5},
            ],
        }
        m = mdp_from_dict(doc)
        assert m.transition[0, 0, 0] == 1.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_mass_rejected(self, bad):
        doc = {
            "gamma": 0.5,
            "states": ["s"],
            "actions": ["a"],
            "transitions": [{"x": 0, "a": 0, "next": 0, "p": bad}],
        }
        with pytest.raises(InputError, match="non-finite"):
            mdp_from_dict(doc)
        with pytest.raises(DomainError, match="non-finite"):
            Policy([[bad, 1.0]])

    def test_gamma_out_of_range(self):
        with pytest.raises(InputError):
            mdp_from_dict(
                {
                    "gamma": 1.0,
                    "states": ["s"],
                    "actions": ["a"],
                    "transitions": [{"x": 0, "a": 0, "next": 0, "p": 1.0}],
                }
            )

    def test_serialized_form_is_schema_shaped(self, fig1):
        doc = mdp_to_dict(fig1)
        assert set(doc) == {"gamma", "states", "actions", "transitions", "rewards"}
        assert all(set(e) == {"x", "a", "next", "p"} for e in doc["transitions"])
        assert all(set(e) == {"x", "a", "next", "r"} for e in doc["rewards"])
        json.dumps(doc)

"""Simplex solver against hand cases and a vertex-enumeration oracle."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diatomic_dp import simplex
from diatomic_dp.errors import DomainError, ResourceError, SolverError, StructuralError
from diatomic_dp.simplex import EQ, GEQ, LEQ, LpProblem, _pivot, solve


def brute_force_extremes(c, a, b):
    """Max and min of c @ x over {x >= 0, a @ x <= b} by vertex enumeration.

    Stacks the rows with the nonnegativity bounds, tries every square
    active set, keeps the feasible solves. Assumes the polytope is bounded
    so the extremes sit on vertices.
    """
    m, n = a.shape
    rows = np.vstack([a, -np.eye(n)])
    rhs = np.concatenate([b, np.zeros(n)])
    combos = np.array(list(itertools.combinations(range(m + n), n)))
    mats = rows[combos]
    dets = np.abs(np.linalg.det(mats))
    good = dets > 1e-10
    verts = np.linalg.solve(mats[good], rhs[combos[good]][:, :, None])[:, :, 0]
    feas = (verts @ a.T <= b + 1e-9).all(axis=1) & (verts >= -1e-9).all(axis=1)
    objs = verts[feas] @ c
    return float(objs.max()), float(objs.min())


class TestHandCases:
    def test_single_bound(self):
        sol = solve(LpProblem(c=[1.0], a=[[1.0]], row_senses=[LEQ], b=[3.0]))
        assert sol.optimal
        assert sol.x[0] == pytest.approx(3.0)
        assert sol.objective_value == pytest.approx(3.0)
        assert sol.dual_values[0] == pytest.approx(1.0)

    def test_infeasible_pair(self):
        sol = solve(
            LpProblem(
                c=[1.0],
                a=[[1.0], [1.0]],
                row_senses=[LEQ, GEQ],
                b=[0.0, 1.0],
            )
        )
        assert sol.status == "infeasible"
        assert sol.x is None

    def test_unbounded_ray(self):
        sol = solve(LpProblem(c=[1.0], a=[[0.0]], row_senses=[LEQ], b=[1.0]))
        assert sol.status == "unbounded"

    def test_equality_row(self):
        sol = solve(
            LpProblem(
                c=[1.0, 2.0],
                a=[[1.0, 1.0]],
                row_senses=[EQ],
                b=[2.0],
                sense="min",
            )
        )
        assert sol.optimal
        np.testing.assert_allclose(sol.x, [2.0, 0.0], atol=1e-9)
        assert sol.objective_value == pytest.approx(2.0)

    def test_min_with_surplus_row(self):
        sol = solve(
            LpProblem(c=[1.0], a=[[1.0]], row_senses=[GEQ], b=[2.0], sense="min")
        )
        assert sol.optimal
        assert sol.x[0] == pytest.approx(2.0)
        assert sol.dual_values[0] == pytest.approx(1.0)

    def test_max_pushed_onto_a_geq_row(self):
        sol = solve(LpProblem(c=[-1.0], a=[[1.0]], row_senses=[GEQ], b=[2.0]))
        assert sol.optimal
        assert sol.x[0] == pytest.approx(2.0)
        # raising the right-hand side lowers the (maximized) objective
        assert sol.dual_values[0] == pytest.approx(-1.0)

    def test_box_only_problem(self):
        sol = solve(
            LpProblem(
                c=[1.0, -2.0, 0.5],
                a=np.zeros((0, 3)),
                row_senses=[],
                b=[],
                lower=[-1.0, -1.0, -1.0],
                upper=[2.0, 2.0, 2.0],
            )
        )
        assert sol.optimal
        np.testing.assert_allclose(sol.x, [2.0, -1.0, 2.0], atol=1e-9)
        assert sol.dual_values.shape == (0,)

    def test_free_variable_reaches_negative_values(self):
        sol = solve(
            LpProblem(
                c=[1.0, 1.0],
                a=[[1.0, 1.0]],
                row_senses=[GEQ],
                b=[-5.0],
                sense="min",
                lower=[-np.inf, 0.0],
            )
        )
        assert sol.optimal
        assert sol.objective_value == pytest.approx(-5.0)
        assert sol.x[0] == pytest.approx(-5.0)

    def test_pinned_variable_by_equal_bounds(self):
        sol = solve(
            LpProblem(
                c=[1.0, 1.0],
                a=[[1.0, 1.0]],
                row_senses=[LEQ],
                b=[10.0],
                lower=[2.5, 0.0],
                upper=[2.5, 4.0],
            )
        )
        assert sol.optimal
        assert sol.x[0] == pytest.approx(2.5)
        assert sol.x[1] == pytest.approx(4.0)

    def test_crossed_bounds_are_infeasible(self):
        sol = solve(
            LpProblem(
                c=[1.0],
                a=[[1.0]],
                row_senses=[LEQ],
                b=[9.0],
                lower=[3.0],
                upper=[1.0],
            )
        )
        assert sol.status == "infeasible"


class TestDegeneracy:
    def test_beale_cycling_example_terminates(self):
        # classic cycling instance for the most-negative-cost rule; Bland's
        # rule must walk through it and stop at the known optimum
        sol = solve(
            LpProblem(
                c=[-0.75, 150.0, -0.02, 6.0],
                a=[
                    [0.25, -60.0, -0.04, 9.0],
                    [0.5, -90.0, -0.02, 3.0],
                    [0.0, 0.0, 1.0, 0.0],
                ],
                row_senses=[LEQ, LEQ, LEQ],
                b=[0.0, 0.0, 1.0],
                sense="min",
            )
        )
        assert sol.optimal
        assert sol.objective_value == pytest.approx(-0.05, abs=1e-10)
        np.testing.assert_allclose(sol.x, [0.04, 0.0, 1.0, 0.0], atol=1e-9)

    def test_redundant_equality_rows_are_tolerated(self):
        sol = solve(
            LpProblem(
                c=[1.0, 1.0],
                a=[[1.0, 1.0], [2.0, 2.0]],
                row_senses=[EQ, EQ],
                b=[2.0, 4.0],
                sense="min",
            )
        )
        assert sol.optimal
        assert sol.objective_value == pytest.approx(2.0)


class TestDuals:
    def test_strong_duality_and_dual_feasibility(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = rng.uniform(0.1, 1.5, size=(4, 6))
            b = rng.uniform(1.0, 4.0, size=4)
            c = rng.uniform(-1.0, 2.0, size=6)
            sol = solve(LpProblem(c=c, a=a, row_senses=[LEQ] * 4, b=b))
            assert sol.optimal
            y = sol.dual_values
            assert y.min() >= -1e-9
            assert y @ b == pytest.approx(sol.objective_value, abs=1e-8)
            assert (a.T @ y - c).min() >= -1e-8

    def test_complementary_slackness(self):
        rng = np.random.default_rng(6)
        a = rng.uniform(0.1, 1.5, size=(5, 5))
        b = rng.uniform(1.0, 4.0, size=5)
        c = rng.uniform(0.1, 2.0, size=5)
        sol = solve(LpProblem(c=c, a=a, row_senses=[LEQ] * 5, b=b))
        slack = b - a @ sol.x
        assert np.abs(sol.dual_values * slack).max() <= 1e-7


class TestVertexOracle:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_bounded_lps_match_enumeration(self, seed):
        rng = np.random.default_rng(1000 + seed)
        a = rng.uniform(0.1, 1.5, size=(5, 10))
        b = rng.uniform(1.0, 4.0, size=5)
        c = rng.uniform(-1.0, 2.0, size=10)
        best, worst = brute_force_extremes(c, a, b)
        hi = solve(LpProblem(c=c, a=a, row_senses=[LEQ] * 5, b=b, sense="max"))
        lo = solve(LpProblem(c=c, a=a, row_senses=[LEQ] * 5, b=b, sense="min"))
        assert hi.objective_value == pytest.approx(best, abs=1e-7)
        assert lo.objective_value == pytest.approx(worst, abs=1e-7)


class TestValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(StructuralError, match="does not match"):
            LpProblem(c=[1.0, 2.0], a=[[1.0]], row_senses=[LEQ], b=[1.0])

    def test_bad_sense(self):
        with pytest.raises(DomainError, match="min or max"):
            LpProblem(c=[1.0], a=[[1.0]], row_senses=[LEQ], b=[1.0], sense="maximize")

    def test_bad_row_sense(self):
        with pytest.raises(StructuralError, match="senses"):
            LpProblem(c=[1.0], a=[[1.0]], row_senses=["<"], b=[1.0])

    def test_non_finite_coefficients(self):
        with pytest.raises(DomainError, match="finite"):
            LpProblem(c=[np.nan], a=[[1.0]], row_senses=[LEQ], b=[1.0])

    def test_size_cap(self):
        n = 2_001
        with pytest.raises(ResourceError, match="cap"):
            solve(
                LpProblem(
                    c=np.ones(n),
                    a=np.ones((1, n)),
                    row_senses=[LEQ],
                    b=[1.0],
                )
            )


# ---------------------------------------------------------------------------
# the sparse-row pivot against the dense rank-1 update
# ---------------------------------------------------------------------------

def dense_pivot(tab, basis, row, col):
    """The pivot as one dense rank-1 update over the whole tableau: the reference for ``_pivot``."""
    tab[row] /= tab[row, col]
    factor = tab[:, col].copy()
    factor[row] = 0.0
    tab -= np.outer(factor, tab[row])
    basis[row] = col


@st.composite
def tableaux(draw):
    """A tableau with a mostly-zero pivot row, and the pivot position."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, w = draw(st.integers(1, 8)), draw(st.integers(1, 12))
    tab = rng.integers(-4, 5, size=(m + 1, w + 1)) * rng.uniform(0.5, 2.0, size=(m + 1, w + 1))
    tab *= rng.random((m + 1, w + 1)) >= draw(st.floats(0.0, 0.95))
    row, col = draw(st.integers(0, m - 1)), draw(st.integers(0, w - 1))
    tab[row, col] = draw(st.sampled_from([-3.0, -0.5, 0.25, 1.0, 7.0]))
    return tab, row, col


@settings(max_examples=200, deadline=None)
@given(tableaux())
def test_pivot_equals_the_dense_update(case):
    tab, row, col = case
    want, want_basis = tab.copy(), np.zeros(len(tab) - 1, dtype=np.int64)
    got_basis = want_basis.copy()
    dense_pivot(want, want_basis, row, col)
    _pivot(tab, got_basis, row, col)
    # equal as numbers; where the pivot row is zero the dense update also
    # subtracted a signed zero, which can only flip the sign of a zero
    assert np.array_equal(tab, want)
    assert np.array_equal(got_basis, want_basis)


@st.composite
def small_lps(draw):
    """Small integer LPs of every sense and bound kind; optimal, infeasible or unbounded."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    a = rng.integers(-3, 4, size=(m, n)) * (rng.random((m, n)) >= draw(st.floats(0.0, 0.8)))
    return LpProblem(
        c=rng.integers(-3, 4, size=n),
        a=a,
        row_senses=[(LEQ, EQ, GEQ)[i] for i in rng.integers(0, 3, size=m)],
        b=rng.integers(-4, 5, size=m),
        sense=draw(st.sampled_from(["min", "max"])),
        lower=rng.choice([0.0, -1.0, -np.inf], size=n),
        upper=rng.choice([np.inf, np.inf, 5.0], size=n),
    )


def outcome(p):
    """Status, the bytes of x and of the duals, and the objective of one solve (or its error)."""
    try:
        sol = solve(p)
    except SolverError as exc:
        return ("raised", str(exc))
    arrays = [None if v is None else v.tobytes() for v in (sol.x, sol.dual_values)]
    return (sol.status, *arrays, sol.objective_value)


@settings(max_examples=200, deadline=None)
@given(small_lps())
@example(LpProblem(c=[1.0], a=[[1.0]], row_senses=[LEQ], b=[-1.0]))  # infeasible
@example(LpProblem(c=[1.0], a=[[-1.0]], row_senses=[LEQ], b=[1.0]))  # unbounded
@example(LpProblem(c=[1.0, 1.0], a=[[1.0, 2.0]], row_senses=[EQ], b=[4.0]))  # optimal
def test_solves_equal_the_dense_pivot_solves(p):
    got = outcome(p)
    with mock.patch.object(simplex, "_pivot", dense_pivot):
        want = outcome(p)
    assert got == want

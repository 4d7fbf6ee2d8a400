import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from diatomic_dp.dist import (
    MERGE_TOL,
    Diatomic,
    DiscreteDist,
    avar_left,
    avar_left_dual,
    avar_right,
    expectation,
    mix,
    project_w2_diatomic,
    pushforward_affine,
    quantile,
    wasserstein,
    _canonicalize,
)
from diatomic_dp.errors import DomainError, StructuralError


@pytest.fixture
def four_atom():
    # 0.2 delta_-5 + 0.4 delta_-1 + 0.2 delta_4 + 0.2 delta_8
    return DiscreteDist([-5.0, -1.0, 4.0, 8.0], [0.2, 0.4, 0.2, 0.2])


def random_dist(rng, max_atoms=12):
    n = rng.integers(1, max_atoms + 1)
    values = rng.uniform(-50.0, 50.0, size=n)
    probs = rng.uniform(0.05, 1.0, size=n)
    return DiscreteDist(values, probs / probs.sum())


# ---------------------------------------------------------------------------
# construction / canonical form
# ---------------------------------------------------------------------------

class TestCanonicalForm:
    def test_sorted_and_normalized(self):
        d = DiscreteDist([3.0, -1.0, 2.0], [0.25, 0.5, 0.25])
        assert np.all(np.diff(d.values) > 0)
        assert_allclose(d.probs.sum(), 1.0, atol=1e-15)

    def test_exact_duplicates_merge(self):
        d = DiscreteDist([1.0, 1.0, 2.0], [0.25, 0.25, 0.5])
        assert d.n_atoms == 2
        assert_allclose(d.probs, [0.5, 0.5])

    def test_near_duplicates_merge(self):
        d = DiscreteDist([1.0, 1.0 + 1e-13, 2.0], [0.25, 0.25, 0.5])
        assert d.n_atoms == 2

    def test_zero_mass_atoms_dropped(self):
        d = DiscreteDist([1.0, 5.0, 9.0], [0.5, 0.0, 0.5])
        assert d.n_atoms == 2
        assert 5.0 not in d.values

    def test_bad_mass_rejected(self):
        with pytest.raises(DomainError):
            DiscreteDist([0.0, 1.0], [0.6, 0.6])
        with pytest.raises(DomainError):
            DiscreteDist([0.0, 1.0], [1.3, -0.3])
        with pytest.raises(DomainError):
            DiscreteDist([1.0, 2.0], [float("nan"), 1.0])
        with pytest.raises(DomainError):
            DiscreteDist([1.0, 2.0], [float("inf"), 1.0])
        with pytest.raises(StructuralError):
            DiscreteDist([0.0, 1.0], [1.0])

    def test_singleton_values_survive_bitwise(self):
        vals = [-5.0, -1.0, 4.0, 8.0]
        d = DiscreteDist(vals, [0.2, 0.4, 0.2, 0.2])
        assert list(d.values) == vals


def canonicalize_loop(values, probs):
    """The canonical form with one Python step per atom: the reference for ``_canonicalize``."""
    order = np.argsort(values, kind="stable")
    values = values[order]
    probs = probs[order]
    groups = np.zeros(len(values), dtype=np.int64)
    gid = 0
    anchor = values[0] if len(values) else 0.0
    for i in range(1, len(values)):
        if values[i] - anchor > MERGE_TOL:
            gid += 1
            anchor = values[i]
        groups[i] = gid
    n_groups = gid + 1
    merged_p = np.zeros(n_groups)
    np.add.at(merged_p, groups, probs)
    sizes = np.zeros(n_groups, dtype=np.int64)
    np.add.at(sizes, groups, 1)
    weighted = np.zeros(n_groups)
    np.add.at(weighted, groups, probs * values)
    first = np.zeros(n_groups)
    first[groups[::-1]] = values[::-1]
    with np.errstate(invalid="ignore", divide="ignore"):
        merged_v = np.where(sizes > 1, weighted / merged_p, first)
    keep = merged_p > 0.0
    return merged_v[keep], merged_p[keep]


@st.composite
def near_tie_atoms(draw):
    """Shuffled atoms whose sorted gaps mix near ties, exact ties and wide gaps, some massless."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 60))
    kinds = [
        rng.uniform(0.3e-12, 2e-12, size=n),  # near ties
        np.zeros(n),  # exact ties
        np.full(n, MERGE_TOL),
        rng.uniform(0.0, 3.0, size=n),
    ]
    weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))) + 1e-9
    kind = rng.choice(4, size=n, p=weights / weights.sum())
    gaps = np.choose(kind, kinds)
    values = rng.permutation(draw(st.floats(-20.0, 20.0)) + np.cumsum(gaps))
    probs = rng.uniform(0.0, 1.0, size=n) * (rng.random(n) >= draw(st.floats(0.0, 0.5)))
    return values, probs


@settings(max_examples=300, deadline=None)
@given(near_tie_atoms())
def test_canonical_form_equals_the_atom_loop(atoms):
    got = _canonicalize(*atoms)
    want = canonicalize_loop(*atoms)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()  # bit for bit, signs of zero included


def test_anchor_rule_splits_a_long_near_tie_chain():
    # gaps of 0.6e-12: the third value is more than MERGE_TOL above the
    # anchor 0 and opens a group, which the fourth joins
    d = DiscreteDist([0.0, 0.6e-12, 1.2e-12, 1.8e-12], [0.25] * 4)
    assert d.n_atoms == 2
    assert_allclose(d.values, [0.3e-12, 1.5e-12], rtol=1e-12)


# ---------------------------------------------------------------------------
# quantile / expectation
# ---------------------------------------------------------------------------

class TestQuantile:
    def test_four_atom_median(self, four_atom):
        assert quantile(four_atom, 0.5) == -1.0

    def test_dirac(self):
        d = DiscreteDist.dirac(3.5)
        for tau in (0.01, 0.5, 1.0):
            assert quantile(d, tau) == 3.5

    def test_against_linear_scan(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            d = random_dist(rng)
            for tau in rng.uniform(1e-6, 1.0, size=8):
                cum = 0.0
                for v, p in d:
                    cum += p
                    if cum >= tau - 1e-15:
                        expected = v
                        break
                assert quantile(d, tau) == expected

    def test_domain(self, four_atom):
        with pytest.raises(DomainError):
            quantile(four_atom, 0.0)
        with pytest.raises(DomainError):
            quantile(four_atom, 1.5)


class TestExpectation:
    def test_four_atom(self, four_atom):
        # 0.2*(-5) + 0.4*(-1) + 0.2*4 + 0.2*8 = 1
        assert_allclose(expectation(four_atom), 1.0, atol=1e-15)

    def test_matches_quantile_integral(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            d = random_dist(rng)
            taus = (np.arange(200_000) + 0.5) / 200_000
            cum = np.cumsum(d.probs)
            idx = np.minimum(np.searchsorted(cum, taus, side="left"), d.n_atoms - 1)
            assert_allclose(expectation(d), d.values[idx].mean(), atol=1e-2)


# ---------------------------------------------------------------------------
# pushforward
# ---------------------------------------------------------------------------

class TestPushforward:
    def test_per_atom_map(self, four_atom):
        out = pushforward_affine(four_atom, 0.0, 0.5)
        assert_allclose(out.values, [-2.5, -0.5, 2.0, 4.0])
        assert_allclose(out.probs, four_atom.probs)

    def test_gamma_zero_collapses(self, four_atom):
        out = pushforward_affine(four_atom, 2.0, 0.0)
        assert out.n_atoms == 1
        assert out.values[0] == 2.0

    def test_dirac(self):
        out = pushforward_affine(DiscreteDist.dirac(2.0), 1.0, 0.5)
        assert out.n_atoms == 1
        assert out.values[0] == 2.0

    def test_rejects_expansion(self, four_atom):
        with pytest.raises(DomainError):
            pushforward_affine(four_atom, 0.0, 1.0)


# ---------------------------------------------------------------------------
# tail means
# ---------------------------------------------------------------------------

class TestTailMeans:
    def test_four_atom_left(self, four_atom):
        # lower 0.7: all of -5 (0.2), all of -1 (0.4), 0.1 of 4
        assert_allclose(avar_left(four_atom, 0.7), -1.0 / 0.7, atol=1e-12)

    def test_four_atom_right(self, four_atom):
        # upper 0.3: 0.1 of 4 plus all of 8 (0.2)
        assert_allclose(avar_right(four_atom, 0.3), 2.0 / 0.3, atol=1e-12)

    def test_dirac_all_levels(self):
        d = DiscreteDist.dirac(-2.0)
        for a in (0.1, 0.5, 0.9):
            assert avar_left(d, a) == -2.0
            assert avar_right(d, a) == -2.0

    def test_two_point_split(self):
        d = DiscreteDist([0.0, 10.0], [0.5, 0.5])
        assert avar_left(d, 0.5) == 0.0
        assert avar_right(d, 0.5) == 10.0

    def test_boundary_level_exact(self):
        # alpha exactly on a cumulative breakpoint: clamps give the exact
        # partial sums with no special-casing
        d = DiscreteDist([1.0, 2.0, 4.0], [0.25, 0.25, 0.5])
        assert_allclose(avar_left(d, 0.25), 1.0, atol=1e-15)
        assert_allclose(avar_left(d, 0.5), 1.5, atol=1e-15)
        assert_allclose(avar_right(d, 0.5), 4.0, atol=1e-15)

    def test_greedy_dual_matches(self, four_atom):
        value, lam = avar_left_dual(four_atom, 0.7)
        assert_allclose(value, -1.0 / 0.7, atol=1e-12)
        assert_allclose(lam, [0.2, 0.4, 0.1, 0.0], atol=1e-15)

    def test_dual_allocation_feasible(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            d = random_dist(rng)
            alpha = rng.uniform(0.05, 0.95)
            value, lam = avar_left_dual(d, alpha)
            assert np.all(lam >= 0.0)
            assert np.all(lam <= d.probs + 1e-15)
            assert_allclose(lam.sum(), alpha, atol=1e-12)
            assert_allclose(value, avar_left(d, alpha), atol=1e-12)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(-40.0, 40.0, allow_nan=False),
            st.floats(0.01, 1.0, allow_nan=False),
        ),
        min_size=1,
        max_size=10,
    ),
    st.floats(0.02, 0.98),
)
def test_tail_mean_properties(atoms, alpha):
    values = np.array([v for v, _ in atoms])
    raw = np.array([p for _, p in atoms])
    d = DiscreteDist(values, raw / raw.sum())
    left = avar_left(d, alpha)
    right = avar_right(d, 1.0 - alpha)
    mean = expectation(d)
    # the two tails average back to the mean
    assert_allclose(alpha * left + (1.0 - alpha) * right, mean, atol=1e-10)
    # ordering
    assert left <= mean + 1e-10
    assert mean <= right + 1e-10
    assert d.values[0] - 1e-10 <= left
    assert right <= d.values[-1] + 1e-10
    # dual equals primal
    dual_value, _ = avar_left_dual(d, alpha)
    assert_allclose(dual_value, left, atol=1e-11)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.02, 0.98))
def test_tail_means_equal_clip_clamps(seed, alpha):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 12))
    raw = rng.choice([0.1, 0.25, 0.5, 1.0], size=n) * rng.integers(1, 4, size=n)
    d = DiscreteDist(rng.uniform(-5.0, 5.0, size=n), raw / raw.sum())
    cum = np.cumsum(d.probs)
    # the np.clip clamps, each on its own cumulative sum: the reference kernels
    left = np.clip(np.minimum(d.probs, alpha - (cum - d.probs)), 0.0, None)
    right = np.clip(np.minimum(d.probs, (cum - 1.0) + (1.0 - alpha)), 0.0, None)
    assert avar_left(d, alpha) == float(np.dot(left, d.values) / alpha)
    level = 1.0 - alpha
    assert avar_right(d, level) == float(np.dot(right, d.values) / level)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_left_tail_monotone_in_level(seed):
    rng = np.random.default_rng(seed)
    d = random_dist(rng)
    grid = np.linspace(0.05, 0.95, 10)
    lefts = [avar_left(d, a) for a in grid]
    rights = [avar_right(d, 1.0 - a) for a in grid]
    assert np.all(np.diff(lefts) >= -1e-10)
    assert np.all(np.diff(rights) >= -1e-10)


# ---------------------------------------------------------------------------
# two-atom projection
# ---------------------------------------------------------------------------

class TestProjection:
    def test_four_atom(self, four_atom):
        di = project_w2_diatomic(four_atom, 0.7)
        assert_allclose(di.theta1, -1.0 / 0.7, atol=1e-12)
        assert_allclose(di.theta2, 2.0 / 0.3, atol=1e-12)

    def test_dirac_fixed(self):
        di = project_w2_diatomic(DiscreteDist.dirac(1.25), 0.3)
        assert di.theta1 == di.theta2 == 1.25

    def test_two_atoms_fixed_point(self):
        d = Diatomic(-1.0, 3.0, 0.25).as_dist()
        di = project_w2_diatomic(d, 0.25)
        assert_allclose([di.theta1, di.theta2], [-1.0, 3.0], atol=1e-14)

    def test_optimal_among_random_candidates(self):
        rng = np.random.default_rng(19)
        for _ in range(5):
            d = random_dist(rng)
            alpha = rng.uniform(0.1, 0.9)
            di = project_w2_diatomic(d, alpha)
            best = wasserstein(d, di.as_dist(), 2.0)
            lo, hi = d.values[0], d.values[-1]
            for _ in range(1000):
                t1 = rng.uniform(lo, hi)
                t2 = rng.uniform(t1, hi)
                cand = DiscreteDist([t1, t2], [alpha, 1.0 - alpha])
                assert best <= wasserstein(d, cand, 2.0) + 1e-12

    def test_atom_order_enforced(self):
        with pytest.raises(DomainError):
            Diatomic(2.0, 1.0, 0.5)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.05, 0.95))
def test_projection_nonexpansive_in_sup_distance(seed, alpha):
    rng = np.random.default_rng(seed)
    d1 = random_dist(rng)
    d2 = random_dist(rng)
    p1 = project_w2_diatomic(d1, alpha)
    p2 = project_w2_diatomic(d2, alpha)
    w_inf = wasserstein(d1, d2, math.inf)
    assert abs(p1.theta1 - p2.theta1) <= w_inf + 1e-11
    assert abs(p1.theta2 - p2.theta2) <= w_inf + 1e-11


# ---------------------------------------------------------------------------
# Wasserstein distances
# ---------------------------------------------------------------------------

class TestWasserstein:
    def test_identical(self, four_atom):
        for p in (1.0, 2.0, math.inf):
            assert wasserstein(four_atom, four_atom, p) == 0.0

    def test_diracs(self):
        a, b = DiscreteDist.dirac(0.0), DiscreteDist.dirac(3.0)
        for p in (1.0, 2.0, math.inf):
            assert_allclose(wasserstein(a, b, p), 3.0, atol=1e-15)

    def test_against_grid_quadrature(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            d1, d2 = random_dist(rng), random_dist(rng)
            taus = (np.arange(400_000) + 0.5) / 400_000

            def quant(d):
                cum = np.cumsum(d.probs)
                idx = np.minimum(np.searchsorted(cum, taus, side="left"), d.n_atoms - 1)
                return d.values[idx]

            gaps = np.abs(quant(d1) - quant(d2))
            for p in (1.0, 2.0):
                approx = (gaps**p).mean() ** (1.0 / p)
                assert_allclose(wasserstein(d1, d2, p), approx, atol=5e-3)
            assert wasserstein(d1, d2, math.inf) >= gaps.max() - 1e-12

    def test_order_monotone(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            d1, d2 = random_dist(rng), random_dist(rng)
            w1 = wasserstein(d1, d2, 1.0)
            w2 = wasserstein(d1, d2, 2.0)
            winf = wasserstein(d1, d2, math.inf)
            assert w1 <= w2 + 1e-10
            assert w2 <= winf + 1e-10

    def test_rejects_bad_order(self, four_atom):
        with pytest.raises(DomainError):
            wasserstein(four_atom, four_atom, 0.5)


# ---------------------------------------------------------------------------
# mixtures
# ---------------------------------------------------------------------------

class TestMix:
    def test_single_component(self, four_atom):
        out = mix([(1.0, four_atom)])
        assert_allclose(out.values, four_atom.values)
        assert_allclose(out.probs, four_atom.probs)

    def test_overlapping_atoms_merge(self):
        out = mix([(0.5, DiscreteDist.dirac(1.0)), (0.5, DiscreteDist.dirac(1.0))])
        assert out.n_atoms == 1
        assert out.probs[0] == 1.0

    def test_uniform_of_diracs(self):
        comps = [(0.25, DiscreteDist.dirac(float(v))) for v in range(4)]
        out = mix(comps)
        assert_allclose(out.values, [0.0, 1.0, 2.0, 3.0])
        assert_allclose(out.probs, [0.25] * 4)

    def test_expectation_linear(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            d1, d2 = random_dist(rng), random_dist(rng)
            w = rng.uniform(0.1, 0.9)
            out = mix([(w, d1), (1.0 - w, d2)])
            assert_allclose(
                expectation(out),
                w * expectation(d1) + (1.0 - w) * expectation(d2),
                atol=1e-10,
            )

    def test_bad_weights(self, four_atom):
        with pytest.raises(DomainError):
            mix([(0.7, four_atom), (0.7, four_atom)])
        with pytest.raises(DomainError):
            mix([])

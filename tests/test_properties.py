"""Cross-module property tests driven by hypothesis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from msot.busemann import _piecewise_inner, is_geodesic_ray_1d
from msot.flows import simplex_project
from msot.gw import gw1d_inner
from msot.measures import (
    build_circle_profile,
    build_profile,
    circle_w1_batched,
    circle_w1_level_median,
    circle_w2_uniform_batched,
    circle_wp_batched,
    dual_1d_batched,
    nw_corner,
    wasserstein_1d,
    wasserstein_1d_batched,
)
from msot.spd import (
    coordinate_le,
    kernel_features,
    sample_unit_symmetric,
)
from msot.unbalanced import UnbalancedParams, phi_conj, sliced_dual, suot
from msot.sliced import (
    DirectionSet,
    EuclideanSlicer,
    sample_directions,
    sliced_cost,
    sliced_cost_matrix,
)
from msot.sphere import _project_frames, sample_stiefel, ssw, ssw2_vs_uniform
from oracles import (
    circle_profile,
    circle_w1_level_median_profile,
    circle_w2_vs_uniform_profile,
    circle_wp_bisection,
    dual_sweep,
    is_geodesic_ray_1d_walk,
    piecewise_inner_walk,
    quantile_features_loop,
    ssw2_vs_uniform_per_frame,
    ssw_per_frame,
    wasserstein_1d_lp,
    wasserstein_1d_walk,
)
from samples import sample_spd_cloud

finite_floats = st.floats(-100.0, 100.0, allow_nan=False)


def positive_weights(n):
    return hnp.arrays(
        np.float64, n, elements=st.floats(0.01, 5.0, allow_nan=False)
    )


@st.composite
def weighted_profile(draw, max_atoms=10):
    n = draw(st.integers(1, max_atoms))
    pts = draw(hnp.arrays(np.float64, n, elements=finite_floats))
    w = draw(positive_weights(n))
    return build_profile(pts, w / w.sum())


class TestWassersteinProperties:
    @given(weighted_profile(), weighted_profile())
    @settings(max_examples=80, deadline=None)
    def test_symmetry_and_nonnegativity(self, mu, nu):
        d = wasserstein_1d(mu, nu, 2)
        assert d >= 0
        assert d == pytest.approx(wasserstein_1d(nu, mu, 2), rel=1e-10, abs=1e-10)

    @given(weighted_profile())
    @settings(max_examples=40, deadline=None)
    def test_identity_of_indiscernibles(self, mu):
        assert wasserstein_1d(mu, mu, 2) == 0.0

    @given(weighted_profile(), weighted_profile(), st.floats(-30, 30))
    @settings(max_examples=60, deadline=None)
    def test_translation_moves_cost_continuously(self, mu, nu, shift):
        base = wasserstein_1d(mu, nu, 1)
        moved = wasserstein_1d(
            build_profile(mu.positions + shift, mu.weights), nu, 1
        )
        # W1 is 1-Lipschitz in a rigid translation of one argument
        assert abs(moved - base) <= abs(shift) + 1e-9


class TestDualSweepProperties:
    @given(weighted_profile(), weighted_profile(), st.sampled_from([1.0, 2.0, 3.0]))
    @settings(max_examples=80, deadline=None)
    def test_strong_duality_and_global_feasibility(self, mu, nu, p):
        nu = build_profile(nu.positions, nu.weights * (mu.total_mass / nu.total_mass))
        pots = sliced_dual(mu, nu, p=p)
        dual = float(np.sum(pots.f * mu.weights) + np.sum(pots.g * nu.weights))
        assert dual == pytest.approx(wasserstein_1d(mu, nu, p), rel=1e-9, abs=1e-9)
        cost = np.abs(mu.positions[:, None] - nu.positions[None, :]) ** p
        assert np.max(pots.f[:, None] + pots.g[None, :] - cost) <= 1e-9

    @given(st.integers(2, 9), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_tied_uniform_profiles_stay_feasible(self, n, seed):
        # same-size uniform clouds tie at every pairing: the diagonal-anchor
        # branch must keep the pair feasible and complementary-slack
        rng = np.random.default_rng(seed)
        mu = build_profile(rng.normal(size=n))
        nu = build_profile(rng.normal(size=n))
        pots = sliced_dual(mu, nu, p=2)
        dual = float(np.sum(pots.f * mu.weights) + np.sum(pots.g * nu.weights))
        assert dual == pytest.approx(wasserstein_1d(mu, nu, 2), abs=1e-10)
        cost = (mu.positions[:, None] - nu.positions[None, :]) ** 2
        assert np.max(pots.f[:, None] + pots.g[None, :] - cost) <= 1e-10


@st.composite
def exact_tie_rows(draw):
    """Row-sorted atoms with integer weights / 8 and equal row totals.

    Exact binary fractions make every cumulative weight exact, so the
    scalar walk and the batched merge see the same ties; zero-mass atoms,
    coincident positions and identical profiles all occur.
    """
    L, n, m = draw(st.integers(1, 4)), draw(st.integers(1, 8)), draw(st.integers(1, 8))
    total = draw(st.integers(1, 24))

    def weights(k):
        cuts = draw(st.lists(st.integers(0, total), min_size=k - 1, max_size=k - 1))
        return np.diff([0, *sorted(cuts), total]) / 8.0

    position = st.one_of(st.integers(-3, 3).map(float), st.floats(-5.0, 5.0))
    x = np.sort(draw(hnp.arrays(np.float64, (L, n), elements=position)), axis=-1)
    a = np.stack([weights(n) for _ in range(L)])
    if n == m and draw(st.booleans()):
        return x, a, x.copy(), a.copy()
    y = np.sort(draw(hnp.arrays(np.float64, (L, m), elements=position)), axis=-1)
    return x, a, y, np.stack([weights(m) for _ in range(L)])


@st.composite
def float_rows(draw):
    """Row-sorted atoms with float probability weights, some of them zero."""
    L, n, m = draw(st.integers(1, 4)), draw(st.integers(1, 10)), draw(st.integers(1, 10))
    weight = st.one_of(st.just(0.0), st.floats(0.01, 5.0))

    def side(k):
        x = np.sort(draw(hnp.arrays(np.float64, (L, k), elements=st.floats(-5.0, 5.0))))
        w = draw(hnp.arrays(np.float64, (L, k), elements=weight))
        w[:, draw(st.integers(0, k - 1))] += 1.0  # positive mass on every row
        return x, w / w.sum(axis=-1, keepdims=True)

    return (*side(n), *side(m))


class TestBatchedDualKernel:
    @given(exact_tie_rows(), st.sampled_from([1.0, 1.5, 2.0]))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_scalar_sweep_on_exact_ties(self, rows, p):
        x, a, y, b = rows
        f, g = dual_1d_batched(x, a, y, b, p)
        for ell in range(x.shape[0]):
            f_walk, g_walk = dual_sweep(x[ell], a[ell], y[ell], b[ell], p)
            assert np.max(np.abs(f[ell] - f_walk)) <= 1e-12
            assert np.max(np.abs(g[ell] - g_walk)) <= 1e-12

    @given(float_rows(), st.sampled_from([1.0, 1.5, 2.0]))
    @settings(max_examples=150, deadline=None)
    def test_optimal_and_feasible_on_float_weights(self, rows, p):
        # where ``rb -= ra`` of the walk and the cumulative sums round a
        # near-tie differently, the two staircases differ but both are optimal
        x, a, y, b = rows
        f, g = dual_1d_batched(x, a, y, b, p)
        for ell in range(x.shape[0]):
            mu, nu = build_profile(x[ell], a[ell]), build_profile(y[ell], b[ell])
            dual = float(f[ell] @ a[ell] + g[ell] @ b[ell])
            assert dual == pytest.approx(wasserstein_1d(mu, nu, p), rel=1e-10, abs=1e-10)
            cost = np.abs(x[ell][:, None] - y[ell][None, :]) ** p
            assert np.max(f[ell][:, None] + g[ell][None, :] - cost) <= 1e-9


@st.composite
def shared_weight_columns(draw):
    """``(n, L)`` and ``(m, L)`` integer-valued columns with one weight vector
    per side, integers from 0 to 3 scaled to the same integer total: ties
    between values, exact ties between cumulative weights and zero weights
    all occur, as does ``n != m``."""
    L, n, m = draw(st.integers(1, 4)), draw(st.integers(1, 8)), draw(st.integers(1, 8))

    def side(k):
        w = np.array(draw(st.lists(st.integers(0, 3), min_size=k, max_size=k)), float)
        w[draw(st.integers(0, k - 1))] += 1.0  # positive mass
        x = draw(hnp.arrays(np.float64, (k, L), elements=st.integers(-3, 3).map(float)))
        return x, w

    (u, a), (v, b) = side(n), side(m)
    return u, a * b.sum(), v, b * a.sum()


@st.composite
def eighths_profile(draw):
    """A profile of mass 1 in multiples of 1/8, zero weights included."""
    n = draw(st.integers(1, 8))
    cuts = draw(st.lists(st.integers(0, 8), min_size=n - 1, max_size=n - 1))
    position = st.one_of(st.integers(-3, 3).map(float), st.floats(-5.0, 5.0))
    x = draw(hnp.arrays(np.float64, n, elements=position))
    return build_profile(x, np.diff([0, *sorted(cuts), 8]) / 8.0)


class TestMergeReaders:
    """The readers of the one stable merge against per-level binary searches."""

    @given(shared_weight_columns(), st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    @settings(max_examples=150, deadline=None)
    def test_cost_kernel_matches_walk_and_lp(self, columns, p):
        u, a, v, b = columns
        got = wasserstein_1d_batched(u, v, a, b, p)
        for ell in range(u.shape[1]):
            mu, nu = build_profile(u[:, ell], a), build_profile(v[:, ell], b)
            walk = wasserstein_1d_walk(mu, nu, p)
            lp = wasserstein_1d_lp(u[:, ell], a, v[:, ell], b, p)
            assert got[ell] == pytest.approx(walk, rel=1e-12, abs=1e-12)
            assert got[ell] == pytest.approx(lp, rel=1e-12, abs=1e-12)

    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.integers(0, 3), min_size=1, max_size=9),
        st.integers(1, 6),
        st.integers(1, 5),
    )
    @settings(max_examples=100, deadline=None)
    def test_kernel_features_equal_per_slice_search(
        self, seed, counts, n_grid, n_slices
    ):
        rng = np.random.default_rng(seed)
        # atoms drawn from three matrices: tied coordinates on every slice
        distinct = sample_spd_cloud(2, 3, seed=seed % 1000)
        cloud = distinct[rng.integers(0, 3, len(counts))]
        w = np.array(counts, float)
        w[0] += 1.0
        slices = sample_unit_symmetric(2, n_slices, seed=seed % 997)
        # levels j / (n_grid + 1) of an integer mass often hit cumulative weights
        grid = np.arange(1, n_grid + 1) / (n_grid + 1)
        feats = kernel_features(cloud, slices, n_grid, grid=grid, weights=w)
        want = quantile_features_loop(coordinate_le(cloud, slices), w, grid)
        assert np.array_equal(feats.values, want / np.sqrt(n_grid * n_slices))

    @given(eighths_profile(), eighths_profile(), eighths_profile(), eighths_profile())
    @settings(max_examples=150, deadline=None)
    def test_busemann_steps_equal_walk(self, a1, a0, b1, b0):
        assert is_geodesic_ray_1d(a0, a1) == is_geodesic_ray_1d_walk(a0, a1)
        assert _piecewise_inner(a1, a0, b1, b0) == piecewise_inner_walk(a1, a0, b1, b0)


class TestSimplexProjectProperties:
    @given(hnp.arrays(np.float64, st.integers(1, 12), elements=finite_floats))
    @settings(max_examples=100, deadline=None)
    def test_output_on_simplex(self, v):
        p = simplex_project(v)
        assert np.all(p >= 0)
        assert np.sum(p) == pytest.approx(1.0, abs=1e-9)

    @given(hnp.arrays(np.float64, st.integers(1, 12), elements=finite_floats))
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, v):
        p = simplex_project(v)
        assert np.allclose(simplex_project(p), p, atol=1e-12)


class TestNwCornerProperties:
    @given(positive_weights(6), positive_weights(4))
    @settings(max_examples=80, deadline=None)
    def test_marginals(self, a, b):
        b = b * (a.sum() / b.sum())
        plan = nw_corner(a, b)
        assert np.all(plan >= 0)
        assert np.allclose(plan.sum(axis=1), a, atol=1e-9)
        assert np.allclose(plan.sum(axis=0), b, atol=1e-9)

    @given(positive_weights(5), positive_weights(5))
    @settings(max_examples=60, deadline=None)
    def test_gw1d_value_invariant_to_sign_flip(self, a, b):
        rng = np.random.default_rng(int(np.sum(a * 1000)))
        a = a / a.sum()
        b = b / b.sum()
        x = np.sort(rng.normal(size=5))
        y = np.sort(rng.normal(size=5))
        _, value = gw1d_inner(x, a, y, b)
        _, flipped = gw1d_inner(np.sort(-x), a[::-1], y, b)
        assert value == pytest.approx(flipped, rel=1e-9, abs=1e-9)


class TestPhiConjProperties:
    @given(st.floats(-5, 50), st.floats(0.01, 100))
    @settings(max_examples=100, deadline=None)
    def test_monotone_and_bounded_above(self, x, rho):
        assert phi_conj(x, rho) <= rho
        assert phi_conj(x + 0.1, rho) >= phi_conj(x, rho)

    @given(st.floats(0.0, 10.0), st.floats(0.5, 100))
    @settings(max_examples=60, deadline=None)
    def test_below_identity_on_nonnegatives(self, x, rho):
        assert phi_conj(x, rho) <= x + 1e-12


class TestCircleProperties:
    @given(
        hnp.arrays(np.float64, st.integers(1, 8), elements=st.floats(0, 0.999)),
        hnp.arrays(np.float64, st.integers(1, 8), elements=st.floats(0, 0.999)),
    )
    @settings(max_examples=60, deadline=None)
    def test_w1_symmetric_and_bounded_by_half(self, a1, a2):
        mu = build_circle_profile(a1)
        nu = build_circle_profile(a2)
        d = circle_w1_level_median(mu, nu)
        assert 0 <= d <= 0.5 + 1e-12
        assert d == pytest.approx(circle_w1_level_median(nu, mu), abs=1e-12)


# angles that put atoms, cumulative weights and shift events on each other:
# the circle's ends (1 - ulp reduces to itself, 0 and 1 coincide), the
# dyadic midpoints of the shift bisection and grids k/n
EDGE_ANGLES = [0.0, 1.0 - 2.0**-53, 0.25, 0.5, 0.75, 1.0]


@st.composite
def circle_angle_rows(draw):
    """``(L, n)`` and ``(L, m)`` angle rows with one weight vector per side:
    tie-heavy grids, circle ends, exact duplicates, identical sides, ``n !=
    m``, and uniform, integer (zero weights included) or float weights."""
    L, n = draw(st.integers(1, 4)), draw(st.sampled_from([1, 2, 3, 4, 5, 8]))
    m = draw(st.one_of(st.just(n), st.integers(1, 8)))

    def angles(k):
        kind = draw(st.sampled_from(["grid", "edges", "float", "duplicates"]))
        if kind == "grid":
            cells = st.integers(0, 4 * k)
            return draw(hnp.arrays(np.float64, (L, k), elements=cells)) / (4 * k)
        if kind == "edges":
            edges = st.sampled_from(EDGE_ANGLES)
            return draw(hnp.arrays(np.float64, (L, k), elements=edges))
        row = draw(hnp.arrays(np.float64, (L, k), elements=st.floats(0.0, 1.0)))
        return row if kind == "float" else np.repeat(row[:, :1], k, axis=1)

    def weights(k):
        kind = draw(st.sampled_from(["uniform", "integer", "float"]))
        if kind == "uniform":
            return None
        if kind == "integer":
            w = np.array(draw(st.lists(st.integers(0, 3), min_size=k, max_size=k)), float)
            w[draw(st.integers(0, k - 1))] += 1.0
        else:
            w = draw(hnp.arrays(np.float64, k, elements=st.floats(0.01, 1.0)))
        return w / w.sum()

    x, a = angles(n), weights(n)
    if m == n and draw(st.booleans()):
        return x, a, x.copy(), a  # identical sides
    return x, a, angles(m), weights(m)


# values that are themselves rounding residue (a bisection that ends next
# to a zero minimum) compare to 1e-15 absolute
RTOL, ATOL = 1e-12, 1e-15


class TestFrameBatchedCircleSolvers:
    """The frame-batched circle solvers against one profile per frame."""

    @given(circle_angle_rows(), st.sampled_from([1.0, 1.5, 2.0, 3.0]),
           st.sampled_from([1e-6, 1e-9]))
    @settings(max_examples=300, deadline=None)
    def test_shift_bisection_equals_per_frame_oracle(self, rows, p, eps):
        x, a, y, b = rows
        got = circle_wp_batched(x, y, a, b, p=p, eps=eps)
        for ell in range(x.shape[0]):
            mu, nu = circle_profile(x[ell], a), circle_profile(y[ell], b)
            want = circle_wp_bisection(mu, nu, p, eps)
            assert got[ell] == pytest.approx(want, rel=RTOL, abs=ATOL)

    @given(circle_angle_rows())
    @settings(max_examples=300, deadline=None)
    def test_w1_and_uniform_closed_forms_equal_per_frame_oracles(self, rows):
        x, a, y, b = rows
        w1 = circle_w1_batched(x, y, a, b)
        w2 = circle_w2_uniform_batched(x, a)
        for ell in range(x.shape[0]):
            mu, nu = circle_profile(x[ell], a), circle_profile(y[ell], b)
            assert w1[ell] == pytest.approx(
                circle_w1_level_median_profile(mu, nu), rel=RTOL, abs=ATOL)
            assert w2[ell] == pytest.approx(
                circle_w2_vs_uniform_profile(mu), rel=RTOL, abs=ATOL)

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 2, 5, 20]),
        st.sampled_from([1, 2, 5, 20]),
        st.sampled_from(["uniform", "weighted", "duplicates", "identical"]),
        st.sampled_from([1.0, 1.5, 2.0, 3.0]),
        st.sampled_from([1e-6, 1e-9]),
    )
    @settings(max_examples=80, deadline=None)
    def test_ssw_equals_per_frame_oracle(self, seed, n, m, kind, p, eps):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, 3))
        y = x.copy() if kind == "identical" else rng.standard_normal((m, 3))
        if kind == "duplicates":
            x[n // 2:] = x[0]
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        y /= np.linalg.norm(y, axis=1, keepdims=True)
        a = b = None
        if kind == "weighted":
            a, b = rng.random(n), rng.integers(0, 3, len(y)).astype(float)
            b[0] += 1.0
            a, b = a / a.sum(), b / b.sum()
        frames = sample_stiefel(3, 6, seed=seed % 1000)
        u, v = _project_frames(x, frames), _project_frames(y, frames)
        aa = np.full(n, 1.0 / n) if a is None else a
        bb = np.full(len(y), 1.0 / len(y)) if b is None else b
        want = ssw_per_frame(u, v, aa, bb, p, eps)
        assert ssw(x, y, frames, p=p, x_weights=a, y_weights=b, eps=eps) == pytest.approx(
            want, rel=RTOL, abs=ATOL)
        assert ssw2_vs_uniform(x, frames, x_weights=a) == pytest.approx(
            ssw2_vs_uniform_per_frame(u, aa), rel=RTOL, abs=ATOL)


@st.composite
def tied_clouds(draw):
    """One to four clouds of 1 to 8 points on the integer grid {-2..2}^2,
    so atoms repeat within and across clouds, each uniform or with weights
    in multiples of 1/8 (zeros included), so levels tie across clouds."""
    clouds, weights = [], []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 8))
        cell = st.integers(-2, 2).map(float)
        clouds.append(draw(hnp.arrays(np.float64, (n, 2), elements=cell)))
        cuts = draw(st.lists(st.integers(0, 8), min_size=n - 1, max_size=n - 1))
        eighths = np.diff([0, *sorted(cuts), 8]) / 8.0
        weights.append(draw(st.sampled_from([None, eighths])))
    return clouds, weights


class TestSortedSlices:
    """The per-measure / per-pair split of the 1D cost kernel against the
    whole kernel, one pair at a time."""

    @given(tied_clouds(), st.sampled_from([1.0, 1.5, 2.0, 3.0]), st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_matrix_equals_sliced_cost_per_pair(self, clouds_weights, p, n_random):
        clouds, weights = clouds_weights
        # the axes and diagonals tie grid points on every slice
        axes = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]])
        dirs = np.vstack([axes / np.linalg.norm(axes, axis=1, keepdims=True),
                          sample_directions(2, n_random + 1, seed=n_random).dirs])
        slicer = EuclideanSlicer(DirectionSet(dirs=dirs, seed=0))
        got = sliced_cost_matrix(slicer, clouds, p, weights)
        k = len(clouds)
        assert got.shape == (k, k)
        assert np.array_equal(np.diag(got), np.zeros(k))
        for i in range(k):
            for j in range(i + 1, k):
                want = sliced_cost(slicer, clouds[i], clouds[j], p, weights[i], weights[j])
                assert got[i, j] == got[j, i] == want


class TestSuotScaleInvariance:
    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_value_nonnegative_at_moderate_rho(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(5, 2))
        y = rng.normal(size=(6, 2))
        slicer = EuclideanSlicer(sample_directions(2, 8, seed=seed))
        value, _, _ = suot(
            x, y, slicer, UnbalancedParams(rho1=2.0, rho2=2.0, n_iters=25)
        )
        assert value >= -1e-10

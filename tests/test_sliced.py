import numpy as np
import pytest

from msot.errors import InvalidInput, MassMismatch
from msot.measures import build_profile, wasserstein_1d
from msot.sliced import (
    UNIT_ATOL,
    DirectionSet,
    matched_residual,
    sample_directions,
    sorted_residual,
    sw2_subgradient,
    sw_p,
)

from oracles import (
    matched_residual_stable,
    sorted_residual_stable,
    sw2_subgradient_stable,
    wasserstein_pp_permutations,
)


class TestSampleDirections:
    def test_s0_is_signs(self):
        dirs = sample_directions(1, 3, seed=0)
        assert set(np.abs(dirs.dirs.ravel())) == {1.0}

    def test_deterministic(self):
        a = sample_directions(5, 100, seed=7)
        b = sample_directions(5, 100, seed=7)
        assert np.array_equal(a.dirs, b.dirs)

    def test_unit_norm(self):
        dirs = sample_directions(8, 64, seed=1)
        assert np.max(np.abs(np.linalg.norm(dirs.dirs, axis=1) - 1)) <= 1e-12

    def test_second_moment_isotropy(self):
        d = 3
        dirs = sample_directions(d, 10_000, seed=2)
        second = dirs.dirs.T @ dirs.dirs / dirs.n_projections
        assert np.max(np.abs(second - np.eye(d) / d)) <= 0.02

    def test_invalid(self):
        with pytest.raises(InvalidInput):
            sample_directions(0, 3)
        with pytest.raises(InvalidInput):
            sample_directions(3, 0)


class TestDirectionSet:
    """Directions are unit rows to within ``UNIT_ATOL``: doubled rows would
    saturate the geodesic arctanh clip, zero rows make every slice a tie."""

    @pytest.mark.parametrize("scale, ok", [(1.0 + 0.5 * UNIT_ATOL, True),
                                           (1.0 - 0.5 * UNIT_ATOL, True),
                                           (1.0 + 2.0 * UNIT_ATOL, False),
                                           (1.0 - 2.0 * UNIT_ATOL, False)])
    def test_unit_norm_tolerance(self, scale, ok):
        dirs = sample_directions(3, 4, seed=1).dirs.copy()
        dirs[2] *= scale
        if ok:
            assert DirectionSet(dirs, 1).n_projections == 4
        else:
            with pytest.raises(InvalidInput, match="row 2 is off by"):
                DirectionSet(dirs, 1)

    @pytest.mark.parametrize("bad, message", [
        (lambda d: 2.0 * d, "unit norm"),
        (np.zeros_like, "unit norm"),
        (lambda d: np.full_like(d, np.nan), "finite"),
        (lambda d: np.where(d > 0, np.inf, d), "finite"),
        (lambda d: np.full_like(d, 1e200), "unit norm"),
        (lambda d: d[0], r"\(L, d\) array"),
        (lambda d: d[:0], r"\(L, d\) array"),
        (lambda d: d[None], r"\(L, d\) array"),
        (lambda d: d.tolist(), r"\(L, d\) array"),
    ])
    def test_rejected(self, bad, message):
        dirs = sample_directions(3, 4, seed=1).dirs
        with pytest.raises(InvalidInput, match=message):
            DirectionSet(bad(dirs), 1)


class TestSwP:
    def test_identity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(10, 4))
        dirs = sample_directions(4, 20, seed=0)
        assert sw_p(x, x, dirs) == 0.0

    def test_dimension_mismatch(self):
        dirs = sample_directions(3, 5, seed=0)
        with pytest.raises(InvalidInput):
            sw_p(np.zeros((2, 3)), np.zeros((2, 4)), dirs)

    def test_mass_mismatch(self):
        dirs = sample_directions(2, 5, seed=0)
        with pytest.raises(MassMismatch):
            sw_p(
                np.zeros((2, 2)),
                np.ones((2, 2)),
                dirs,
                x_weights=[0.5, 0.5],
                y_weights=[0.5, 0.6],
            )

    def test_axis_supported_dilation(self):
        # measures on the e1 axis: SW2^2 = W2^2 / d
        rng = np.random.default_rng(3)
        for d in (2, 5):
            n = 60
            x1, y1 = rng.normal(size=n), rng.normal(size=n) + 0.5
            x = np.zeros((n, d))
            x[:, 0] = x1
            y = np.zeros((n, d))
            y[:, 0] = y1
            w1 = wasserstein_1d(build_profile(x1), build_profile(y1), 2)
            dirs = sample_directions(d, 10_000, seed=4)
            assert sw_p(x, y, dirs) == pytest.approx(w1 / d, rel=0.05)

    def test_isotropic_gaussians(self):
        rng = np.random.default_rng(5)
        d, n = 5, 4000
        mu, m = np.full(d, 0.7), np.full(d, -0.3)
        sigma, s = 1.0, 2.0
        x = mu + sigma * rng.standard_normal((n, d))
        y = m + s * rng.standard_normal((n, d))
        dirs = sample_directions(d, 3000, seed=6)
        expected = np.sum((mu - m) ** 2) / d + (sigma - s) ** 2
        assert sw_p(x, y, dirs) == pytest.approx(expected, rel=0.07)

    def test_upper_bounded_by_wasserstein(self):
        rng = np.random.default_rng(7)
        p = 2.0
        for _ in range(10):
            n, d = int(rng.integers(2, 7)), 3
            x = rng.normal(size=(n, d))
            y = rng.normal(size=(n, d))
            dirs = sample_directions(d, 100, seed=int(rng.integers(1000)))
            cost = np.linalg.norm(x[:, None] - y[None, :], axis=-1)
            w = wasserstein_pp_permutations(cost, p)
            assert sw_p(x, y, dirs, p=p) <= w + 1e-9

    def test_translation_equivariance(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(6, 3))
        y = rng.normal(size=(7, 3))
        c = np.array([1.0, -2.0, 0.5])
        dirs = sample_directions(3, 50, seed=9)
        assert sw_p(x + c, y + c, dirs) == pytest.approx(
            sw_p(x, y, dirs), rel=1e-12, abs=1e-12
        )

    def test_mc_variance_decay(self):
        # variance of the estimator decays ~ 1/L: log-log slope -1 +- 0.2
        rng = np.random.default_rng(10)
        x = rng.normal(size=(30, 4))
        y = rng.normal(size=(30, 4)) + 1.0
        ls = np.array([10, 100, 1000])
        variances = []
        for L in ls:
            vals = [
                sw_p(x, y, sample_directions(4, int(L), seed=1000 + r))
                for r in range(60)
            ]
            variances.append(np.var(vals))
        slope = np.polyfit(np.log(ls), np.log(variances), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.2)


class TestSw2Subgradient:
    def test_zero_on_identical_clouds(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 3))
        dirs = sample_directions(3, 10, seed=0)
        assert np.max(np.abs(sw2_subgradient(x, x, dirs))) == 0.0

    def test_single_pair_formula(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 4))
        y = rng.normal(size=(1, 4))
        dirs = sample_directions(4, 37, seed=2)
        theta = dirs.dirs
        want = 2.0 / 37 * ((x - y) @ theta.T) @ theta
        assert np.allclose(sw2_subgradient(x, y, dirs), want, atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        n, d = 6, 3
        x = rng.normal(size=(n, d))
        y = rng.normal(size=(n, d))
        dirs = sample_directions(d, 25, seed=3)
        grad = sw2_subgradient(x, y, dirs)
        h = 1e-6
        for i in range(n):
            for k in range(d):
                xp = x.copy()
                xp[i, k] += h
                xm = x.copy()
                xm[i, k] -= h
                fd = (sw_p(xp, y, dirs) - sw_p(xm, y, dirs)) / (2 * h)
                assert grad[i, k] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_requires_matching_shapes(self):
        dirs = sample_directions(2, 3, seed=0)
        with pytest.raises(InvalidInput):
            sw2_subgradient(np.zeros((3, 2)), np.zeros((4, 2)), dirs)

    def test_direction_set_immutable(self):
        dirs = sample_directions(2, 3, seed=0)
        assert isinstance(dirs, DirectionSet)
        with pytest.raises(AttributeError):
            dirs.dirs = np.zeros((3, 2))


def _duplicate_atoms(n, d, seed):
    """A cloud on an integer grid, so atoms repeat and projections tie."""
    return np.random.default_rng(seed).integers(-2, 3, size=(n, d)).astype(float)


class TestResidualsAgainstStableSort:
    """The sorted-matching residuals are bit-identical to numpy's stable sort
    down the columns, ties included."""

    @pytest.mark.parametrize("seed", range(4))
    def test_sorted_and_matched_residual(self, seed):
        x, y = _duplicate_atoms(40, 3, seed), _duplicate_atoms(40, 3, seed + 10)
        theta = sample_directions(3, 25, seed=seed).dirs
        xc, yc = x @ theta.T, y @ theta.T
        # whole-integer coordinate columns tie on every slice
        xc[:, :5], yc[:, :5] = np.round(xc[:, :5]), np.round(yc[:, :5])
        y_sorted = np.sort(yc, axis=0, kind="stable")
        assert np.array_equal(sorted_residual(xc, y_sorted), sorted_residual_stable(xc, y_sorted))
        assert np.array_equal(matched_residual(xc, yc), matched_residual_stable(xc, yc))

    @pytest.mark.parametrize("seed", range(4))
    def test_sw2_subgradient(self, seed):
        x, y = _duplicate_atoms(30, 2, seed), _duplicate_atoms(30, 2, seed + 20)
        dirs = sample_directions(2, 16, seed=seed)
        assert np.array_equal(sw2_subgradient(x, y, dirs), sw2_subgradient_stable(x, y, dirs))

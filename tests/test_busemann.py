import numpy as np
import pytest
from scipy.stats import norm

from msot.busemann import (
    BWGaussian,
    GaussianRay,
    QuantileRay,
    bw_distance_sq,
    busemann_bw,
    busemann_gaussian1d,
    busemann_w1d,
    gaussian_pca_1d,
    is_geodesic_ray_1d,
    project_on_ray,
    ray_domain_gaussian1d,
)
from msot.errors import DegenerateData, InvalidInput, NotARay
from msot.measures import build_profile

from oracles import bw_geodesic_point


def discretized_gaussian(m, s, n=10_000):
    """Midpoint-quantile discretization of N(m, s^2)."""
    qs = (np.arange(n) + 0.5) / n
    return build_profile(m + s * norm.ppf(qs))


def discretized_unit_ray(m0, s0, m1, s1, n=10_000):
    """Discretize a Gaussian ray and renormalize it to exact unit speed.

    The discretization perturbs W2 at order 1/n, which the strict
    unit-speed invariant would reject.
    """
    mu0 = discretized_gaussian(m0, s0, n)
    mu1 = discretized_gaussian(m1, s1, n)
    speed = np.sqrt(np.mean((mu1.positions - mu0.positions) ** 2))
    rescaled = build_profile(
        mu0.positions + (mu1.positions - mu0.positions) / speed
    )
    return QuantileRay(mu0=mu0, mu1=rescaled)


def unit_gaussian_ray(m0, s0, dm, ds):
    speed = np.hypot(dm, ds)
    return GaussianRay(m0=m0, s0=s0, m1=m0 + dm / speed, s1=s0 + ds / speed)


class TestGeodesicRayCriterion:
    def test_dirac_start_always_ray(self):
        mu0 = build_profile([0.3], [1.0])
        rng = np.random.default_rng(0)
        for _ in range(5):
            mu1 = build_profile(rng.normal(size=6))
            ok, witness = is_geodesic_ray_1d(mu0, mu1)
            assert ok and witness is None

    def test_gaussian_spread_criterion(self):
        grow = is_geodesic_ray_1d(
            discretized_gaussian(0.0, 1.0, 500), discretized_gaussian(0.5, 2.0, 500)
        )
        shrink = is_geodesic_ray_1d(
            discretized_gaussian(0.0, 1.0, 500), discretized_gaussian(0.5, 0.5, 500)
        )
        assert grow[0] is True
        assert shrink[0] is False and shrink[1] is not None

    def test_empirical_pairwise_condition(self):
        x = np.array([0.0, 1.0, 3.0])
        y_ok = np.array([0.0, 1.5, 4.0])  # gaps grow
        y_bad = np.array([0.0, 0.5, 1.0])  # gaps shrink
        assert is_geodesic_ray_1d(build_profile(x), build_profile(y_ok))[0]
        assert not is_geodesic_ray_1d(build_profile(x), build_profile(y_bad))[0]


class TestBusemannW1D:
    def _ray(self):
        mu0 = build_profile([0.0], [1.0])
        mu1 = build_profile([-1.0, 1.0])  # W2^2 = 1: unit speed
        return QuantileRay(mu0=mu0, mu1=mu1)

    def test_zero_at_origin(self):
        ray = self._ray()
        assert busemann_w1d(ray, ray.mu0) == pytest.approx(0.0, abs=1e-15)

    def test_linear_along_ray(self):
        ray = self._ray()
        for t in (0.0, 0.5, 1.0, 3.0):
            qs = np.array([0.5, 1.0])
            positions = ray.quantiles_at(t, qs)
            nu = build_profile(positions, np.diff(qs, prepend=0.0))
            assert busemann_w1d(ray, nu) == pytest.approx(-t, abs=1e-8)

    def test_decreasing_levels_rejected(self):
        with pytest.raises(InvalidInput, match="non-decreasing"):
            self._ray().quantiles_at(1.0, np.array([1.0, 0.5]))

    def test_gaussian_cross_check(self):
        # ray N(0,1) -> N(0,2), target N(0,3): value -(s1-s0)(s-s0) = -2
        ray = discretized_unit_ray(0.0, 1.0, 0.0, 2.0)
        nu = discretized_gaussian(0.0, 3.0)
        assert busemann_w1d(ray, nu) == pytest.approx(-2.0, abs=1e-2)

    def test_non_unit_speed_rejected(self):
        with pytest.raises(NotARay):
            QuantileRay(mu0=build_profile([0.0], [1.0]), mu1=build_profile([2.0], [1.0]))

    def test_non_ray_rejected(self):
        with pytest.raises(NotARay):
            QuantileRay(
                mu0=build_profile([0.0, 2.0]), mu1=build_profile([0.5, 1.5])
            )


class TestBusemannGaussian1D:
    def test_zero_at_origin(self):
        ray = unit_gaussian_ray(0.3, 1.1, 1.0, 1.0)
        assert busemann_gaussian1d(ray, 0.3, 1.1) == 0.0

    def test_on_ray_linearity(self):
        ray = unit_gaussian_ray(-0.5, 0.8, 0.6, 0.8)
        for t in (0.0, 0.5, 1.0, 3.0):
            m_t, s_t = ray.at(t)
            assert busemann_gaussian1d(ray, m_t, s_t) == pytest.approx(-t, abs=1e-12)

    def test_matches_quantile_form_on_discretizations(self):
        ray = unit_gaussian_ray(0.0, 1.0, 0.0, 1.0)
        qray = discretized_unit_ray(0.0, 1.0, 0.0, 2.0)
        for m, s in [(0.5, 1.5), (-1.0, 0.7), (2.0, 3.0)]:
            closed = busemann_gaussian1d(ray, m, s)
            quad = busemann_w1d(qray, discretized_gaussian(m, s))
            assert quad == pytest.approx(closed, abs=1e-3)

    def test_invalid_sigma(self):
        ray = unit_gaussian_ray(0.0, 1.0, 1.0, 0.0)
        with pytest.raises(InvalidInput):
            busemann_gaussian1d(ray, 0.0, -1.0)


def random_bw_ray(d, seed):
    """Unit-speed BW ray via a dilation-type target covariance."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    vals = rng.random(d) + 0.5
    sigma0 = q @ np.diag(vals) @ q.T
    m0 = rng.normal(size=d)
    # scale A = I + alpha R for psd R to satisfy the ray condition
    r = q @ np.diag(rng.random(d) + 0.1) @ q.T
    direction_m = rng.normal(size=d)
    # normalize speed: W2^2 = |dm|^2 + tr((A - I) Sigma0 (A - I))
    alpha = 1.0
    a = np.eye(d) + alpha * r
    var_part = np.trace((a - np.eye(d)) @ sigma0 @ (a - np.eye(d)))
    speed = np.sqrt(np.dot(direction_m, direction_m) + var_part)
    a = np.eye(d) + (alpha / speed) * r
    dm = direction_m / speed
    sigma1 = a @ sigma0 @ a
    return (
        BWGaussian(mean=m0, cov=sigma0),
        BWGaussian(mean=m0 + dm, cov=sigma1),
    )


class TestBusemannBW:
    def test_zero_at_origin(self):
        mu0, mu1 = random_bw_ray(3, seed=0)
        assert busemann_bw(mu0, mu1, mu0) == pytest.approx(0.0, abs=1e-10)

    def test_reduces_to_gaussian1d(self):
        ray = unit_gaussian_ray(0.1, 1.0, 0.0, 1.0)
        mu0 = BWGaussian(mean=np.array([ray.m0]), cov=np.array([[ray.s0**2]]))
        mu1 = BWGaussian(mean=np.array([ray.m1]), cov=np.array([[ray.s1**2]]))
        for m, s in [(0.5, 1.3), (-2.0, 0.4)]:
            nu = BWGaussian(mean=np.array([m]), cov=np.array([[s**2]]))
            assert busemann_bw(mu0, mu1, nu) == pytest.approx(
                busemann_gaussian1d(ray, m, s), abs=1e-10
            )

    def test_commuting_diagonal_formula(self):
        d = 3
        rng = np.random.default_rng(1)
        s0 = np.diag(rng.random(d) + 0.5)
        growth = np.diag(rng.random(d) + 0.2)
        a = np.eye(d) + growth
        dm = rng.normal(size=d)
        speed = np.sqrt(dm @ dm + np.trace(growth @ s0 @ growth))
        a = np.eye(d) + growth / speed
        dm = dm / speed
        mu0 = BWGaussian(mean=np.zeros(d), cov=s0)
        mu1 = BWGaussian(mean=dm, cov=a @ s0 @ a)
        sig = np.diag(rng.random(d) + 0.3)
        nu = BWGaussian(mean=rng.normal(size=d), cov=sig)
        want = -np.dot(mu1.mean - mu0.mean, nu.mean - mu0.mean) - np.trace(
            (np.sqrt(mu1.cov) - np.sqrt(mu0.cov)) @ (np.sqrt(sig) - np.sqrt(mu0.cov))
        )
        assert busemann_bw(mu0, mu1, nu) == pytest.approx(want, abs=1e-10)

    def test_linear_along_geodesic(self):
        mu0, mu1 = random_bw_ray(3, seed=2)
        for t in (0.5, 1.0, 2.0):
            nu = bw_geodesic_point(mu0, mu1, t)
            assert busemann_bw(mu0, mu1, nu) == pytest.approx(-t, abs=1e-8)

    def test_unit_speed_enforced(self):
        mu0, mu1 = random_bw_ray(2, seed=3)
        bad = BWGaussian(mean=2 * mu1.mean, cov=4.0 * mu1.cov)
        with pytest.raises(NotARay):
            busemann_bw(mu0, bad, mu0)

    def test_ray_condition_enforced(self):
        d = 2
        s0 = np.eye(d)
        shrink = 0.5 * np.eye(d)
        dm = np.zeros(d)
        speed = np.sqrt(np.trace((shrink - np.eye(d)) @ s0 @ (shrink - np.eye(d))))
        a = np.eye(d) + (shrink - np.eye(d)) / speed
        mu0 = BWGaussian(mean=dm, cov=s0)
        mu1 = BWGaussian(mean=dm, cov=a @ s0 @ a)
        assert bw_distance_sq(mu0, mu1) == pytest.approx(1.0, abs=1e-8)
        with pytest.raises(NotARay):
            busemann_bw(mu0, mu1, mu0)


class TestNonFiniteParameters:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["m0", "s0", "m1", "s1"])
    def test_gaussian_ray(self, field, bad):
        params = {"m0": 0.0, "s0": 1.0, "m1": 0.0, "s1": 2.0, field: bad}
        with pytest.raises(InvalidInput):
            GaussianRay(**params)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("arg", ["m", "s"])
    def test_busemann_gaussian1d(self, arg, bad):
        ray = GaussianRay(m0=0.0, s0=1.0, m1=0.0, s1=2.0)
        with pytest.raises(InvalidInput):
            busemann_gaussian1d(ray, **{"m": 0.5, "s": 1.5, arg: bad})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["mean", "cov"])
    def test_bw_gaussian(self, field, bad):
        params = {"mean": np.zeros(2), "cov": np.eye(2)}
        params[field].flat[0] = bad
        with pytest.raises(InvalidInput):
            BWGaussian(**params)


class TestRayDomainAndProjection:
    def test_domain_formula(self):
        ray = unit_gaussian_ray(0.0, 1.0, 0.0, 1.0)  # s0=1, s1=2
        lo, hi = ray_domain_gaussian1d(ray)
        assert lo == pytest.approx(-1.0)
        assert hi == np.inf

    def test_line_case(self):
        ray = unit_gaussian_ray(0.0, 1.0, 1.0, 0.0)  # s1 = s0
        assert ray_domain_gaussian1d(ray) == (-np.inf, np.inf)

    def test_dilation_ray_domain(self):
        s0 = 0.7
        ray = GaussianRay(m0=0.0, s0=s0, m1=0.0, s1=1.0 + s0)
        lo, _ = ray_domain_gaussian1d(ray)
        assert lo == pytest.approx(-s0)

    def test_projection_of_origin(self):
        ray = unit_gaussian_ray(0.5, 1.0, 0.3, 0.4)
        t, clipped, params = project_on_ray(ray, (0.5, 1.0))
        assert t == pytest.approx(0.0, abs=1e-14)
        assert not clipped
        assert params == pytest.approx((0.5, 1.0))

    def test_projection_of_on_ray_point(self):
        ray = unit_gaussian_ray(0.0, 1.0, 0.6, 0.8)
        for t_true in (0.3, 1.7):
            m_t, s_t = ray.at(t_true)
            t, clipped, _ = project_on_ray(ray, (m_t, s_t))
            assert t == pytest.approx(t_true, abs=1e-12)
            assert not clipped

    def test_dilation_ray_never_clips(self):
        # for the pure dilation ray any sigma > 0 projects inside the domain
        ray = GaussianRay(m0=0.0, s0=1.0, m1=0.0, s1=2.0)
        rng = np.random.default_rng(4)
        for _ in range(50):
            s = 10.0 ** rng.uniform(-3, 3)
            _, clipped, _ = project_on_ray(ray, (rng.normal(), s))
            assert not clipped

    def test_clipping_reported(self):
        ray = unit_gaussian_ray(0.0, 1.0, 0.0, 1.0)
        # B = -(s-s0) => t = s - 1 < -1 requires s < 0: impossible; use the
        # mean component to push the coordinate below the domain instead
        ray2 = unit_gaussian_ray(0.0, 1.0, 0.8, 0.6)
        t, clipped, params = project_on_ray(ray2, (-10.0, 1.0))
        lo, _ = ray_domain_gaussian1d(ray2)
        assert clipped
        assert t == pytest.approx(lo)
        # the domain edge is the Dirac end of the ray
        assert params[1] == pytest.approx(0.0, abs=1e-12)
        _ = ray


class TestGaussianPCA:
    @pytest.mark.parametrize("bad", [(1, 1, np.nan), (1, 0, np.nan), (2, 1, np.inf)])
    def test_non_finite_rows_are_invalid(self, bad):
        data = np.array([[0.0, 1.0], [1.0, 2.0], [2.0, 0.5]])
        row, col, value = bad
        data[row, col] = value
        with pytest.raises(InvalidInput):
            gaussian_pca_1d(data)

    def test_equal_means_component(self):
        rng = np.random.default_rng(0)
        data = np.stack([np.full(30, 0.7), rng.random(30) + 0.5], axis=1)
        ray1, ray2, _ = gaussian_pca_1d(data, origin=(0.7, 1.0))
        assert (ray1.m1, ray1.s1) == pytest.approx((0.7, 2.0), abs=1e-12)
        assert (ray2.m1, ray2.s1) == pytest.approx((1.7, 1.0), abs=1e-12)

    def test_equal_sigmas_component(self):
        rng = np.random.default_rng(1)
        data = np.stack([rng.normal(size=30), np.full(30, 1.5)], axis=1)
        ray1, _, _ = gaussian_pca_1d(data, origin=(0.0, 1.5))
        assert (ray1.m1, ray1.s1) == pytest.approx((1.0, 1.5), abs=1e-12)

    def test_matches_dense_angle_sweep(self):
        rng = np.random.default_rng(2)
        for trial in range(5):
            data = np.stack(
                [rng.normal(size=40), rng.random(40) * 2 + 0.2], axis=1
            )
            m0 = float(np.mean(data[:, 0]))
            s0 = float(np.mean(data[:, 1]))
            ray1, _, scores = gaussian_pca_1d(data)
            # dense sweep oracle over feasible angles
            best_var, best_phi = -np.inf, None
            for phi in np.linspace(0.0, np.pi, 10_000):
                direction = np.array([np.cos(phi), np.sin(phi)])
                vals = (data - np.array([m0, s0])) @ direction
                if np.var(vals) > best_var:
                    best_var, best_phi = np.var(vals), phi
            got = np.array([ray1.m1 - m0, ray1.s1 - s0])
            want = np.array([np.cos(best_phi), np.sin(best_phi)])
            assert np.allclose(got, want, atol=1e-3)
            assert np.var(scores[:, 0]) == pytest.approx(best_var, rel=1e-6)

    def test_variance_beats_random_directions(self):
        rng = np.random.default_rng(3)
        data = np.stack([rng.normal(size=50), rng.random(50) + 0.5], axis=1)
        _, _, scores = gaussian_pca_1d(data)
        first_var = np.var(scores[:, 0])
        m0 = float(np.mean(data[:, 0]))
        s0 = float(np.mean(data[:, 1]))
        for _ in range(100):
            phi = rng.uniform(0.0, np.pi)
            direction = np.array([np.cos(phi), np.sin(phi)])
            vals = (data - np.array([m0, s0])) @ direction
            assert np.var(vals) <= first_var + 1e-12

    def test_components_orthogonal(self):
        rng = np.random.default_rng(4)
        data = np.stack([rng.normal(size=20), rng.random(20) + 0.3], axis=1)
        ray1, ray2, _ = gaussian_pca_1d(data)
        v1 = np.array([ray1.m1 - ray1.m0, ray1.s1 - ray1.s0])
        v2 = np.array([ray2.m1 - ray2.m0, ray2.s1 - ray2.s0])
        assert abs(np.dot(v1, v2)) <= 1e-10

    def test_degenerate_data(self):
        data = np.tile([0.5, 1.0], (10, 1))
        with pytest.raises(DegenerateData):
            gaussian_pca_1d(data, origin=(0.5, 1.0))

    def test_tie_convention(self):
        # isotropic moment matrix: bisector at pi/4
        data = np.array([[1.0, 1.0 + 1.0], [-1.0, 1.0 - 1.0 + 0.5]])
        # construct exact tie: M11 == M22, M12 == 0
        data = np.array(
            [[1.0, 2.0], [-1.0, 2.0], [0.0, 3.0], [0.0, 1.0]], dtype=float
        )
        ray1, _, _ = gaussian_pca_1d(data, origin=(0.0, 2.0))
        assert (ray1.m1 - 0.0, ray1.s1 - 2.0) == pytest.approx(
            (np.cos(np.pi / 4), np.sin(np.pi / 4)), abs=1e-12
        )

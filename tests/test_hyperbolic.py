import numpy as np
import pytest

from msot.errors import InvalidInput
from msot.hyperbolic import (
    busemann_coordinate,
    exp_map,
    geodesic_coordinate,
    ghsw,
    hhsw,
    lorentz_to_poincare,
    minkowski_ip,
    origin,
    poincare_to_lorentz,
    riemannian_step_lorentz,
    sample_wrapped_normal,
    validate_lorentz,
)
from msot.sliced import DirectionSet, sample_directions

from oracles import dist_lorentz, wasserstein_pp_permutations


def wrapped_cloud(d, n, scale=0.5, seed=0, mean_pull=1.0):
    """Wrapped-normal test cloud around a pulled-away mean."""
    rng = np.random.default_rng(seed)
    tangent = np.concatenate([[0.0], rng.normal(size=d) * mean_pull])
    mean = exp_map(origin(d)[None, :], tangent[None, :])[0]
    return sample_wrapped_normal(mean, scale * np.eye(d), n, seed=seed + 1)


class TestModelConversions:
    def test_origin_maps_to_zero(self):
        assert np.allclose(lorentz_to_poincare(origin(3)), 0.0)

    def test_zero_maps_to_origin(self):
        assert np.allclose(poincare_to_lorentz(np.zeros((1, 3))), origin(3))

    def test_round_trip(self):
        x = wrapped_cloud(3, 100, seed=5)
        back = poincare_to_lorentz(lorentz_to_poincare(x))
        assert np.max(np.abs(back - x)) <= 1e-10

    def test_invariant_violation_rejected(self):
        with pytest.raises(InvalidInput):
            validate_lorentz(np.array([[1.0, 1.0, 0.0]]))
        with pytest.raises(InvalidInput):
            poincare_to_lorentz(np.array([[1.2, 0.0]]))


class TestGeodesicCoordinate:
    def test_origin_is_zero(self):
        ideal = sample_directions(3, 5, seed=0).dirs
        coords = geodesic_coordinate(origin(3), ideal, model="lorentz")
        assert np.max(np.abs(coords)) <= 1e-12

    def test_on_geodesic_identity(self):
        rng = np.random.default_rng(1)
        vt = rng.normal(size=3)
        vt /= np.linalg.norm(vt)
        for t in (-2.0, 0.5, 3.0):
            x = np.cosh(t) * origin(3) + np.sinh(t) * np.concatenate([[0.0], vt])
            got = geodesic_coordinate(x, vt[None, :], model="lorentz")[0, 0]
            assert got == pytest.approx(t, abs=1e-10)

    def test_models_agree(self):
        x = wrapped_cloud(4, 50, seed=2)
        ideal = sample_directions(4, 7, seed=3).dirs
        lor = geodesic_coordinate(x, ideal, model="lorentz")
        poi = geodesic_coordinate(lorentz_to_poincare(x), ideal, model="poincare")
        assert np.max(np.abs(lor - poi)) <= 1e-9

    def test_models_agree_to_rounding_on_a_large_cloud(self):
        """Away from the boundary both closed forms are well conditioned:
        the earlier Poincare form was 1.2e-9 off the Lorentz one here."""
        x = wrapped_cloud(5, 1000, seed=12)
        ideal = sample_directions(5, 200, seed=13).dirs
        lor = geodesic_coordinate(x, ideal, model="lorentz")
        poi = geodesic_coordinate(lorentz_to_poincare(x), ideal, model="poincare")
        assert np.max(np.abs(lor - poi)) <= 1e-13

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_poincare_near_the_ideal_point(self):
        """On the ray ``x = t v`` the Poincare geodesic coordinate is ``2
        artanh(t)``, to the last double below 1: the expansion of ``(1 +
        |x|^2)^2 - 4 <x, v>^2`` cancelled there (an error of 2e-2 at ``1 - t
        = 1e-8``, and the clip value from 1e-9 on).  Axis directions keep
        ``t v`` exact in floats."""
        ideal = np.vstack([np.eye(3), -np.eye(3)])
        gaps = np.array([10.0**-k for k in range(1, 16)] + [2.0**-53])
        for t in 1.0 - gaps:
            got = geodesic_coordinate(t * ideal, ideal, model="poincare")
            want = np.log1p(2.0 * t / (1.0 - t))  # log((1 + t) / (1 - t)), 1 - t exact
            assert np.all(np.abs(np.diag(got) - want) <= 1e-9 * want)
            # and minus that on the opposite ray
            assert np.all(np.abs(np.diag(np.roll(got, 3, axis=1)) + want) <= 1e-9 * want)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_poincare_near_the_hyperplane(self):
        """Within 1e-9 to 1e-300 of ``<x, e_1> = 0`` the coordinate is ``2
        <x, e_1> / (1 + |x|^2)`` to first order; the earlier form returned 0
        there.  Exactly on the hyperplane it is 0."""
        rng = np.random.default_rng(14)
        x = rng.uniform(-0.6, 0.6, (40, 3))
        x[:, 0] = rng.choice([-1.0, 1.0], 40) * 10.0 ** -rng.uniform(9.0, 300.0, 40)
        x[-1, 0] = 0.0
        got = geodesic_coordinate(x, np.eye(3)[:1], model="poincare")[:, 0]
        want = 2.0 * x[:, 0] / (1.0 + np.sum(x**2, axis=-1))
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))
        assert got[-1] == 0.0

    def test_poincare_matches_50_digits(self):
        """Against the quadratic root ``s`` evaluated to 50 digits, ``2
        artanh(s)``, on boundary, near-hyperplane and interior points."""
        import mpmath  # a test dependency: fails, not skips, when missing
        rng = np.random.default_rng(15)
        ideal = np.vstack([np.eye(3)[:1], sample_directions(3, 5, seed=16).dirs])
        edge = rng.normal(size=(10, 3))
        edge *= (1.0 - 10.0 ** -rng.uniform(6.0, 15.0, 10))[:, None] / np.linalg.norm(
            edge, axis=1, keepdims=True)
        flat = rng.uniform(-0.5, 0.5, (10, 3))
        flat[:, 0] = 10.0 ** -rng.uniform(9.0, 15.0, 10)
        x = np.vstack([edge, flat, lorentz_to_poincare(wrapped_cloud(3, 10, seed=17))])
        got = geodesic_coordinate(x, ideal, model="poincare")
        with mpmath.workdps(50):
            def truth(point, v):
                ip = mpmath.fsum(mpmath.mpf(a) * mpmath.mpf(b) for a, b in zip(point, v))
                ip /= mpmath.sqrt(mpmath.fsum(mpmath.mpf(b) ** 2 for b in v))  # unit v
                xx = mpmath.fsum(mpmath.mpf(a) ** 2 for a in point)
                s = (1 + xx - mpmath.sqrt((1 + xx) ** 2 - 4 * ip**2)) / (2 * ip)
                return float(2 * mpmath.atanh(s))

            want = np.array([[truth(p, v) for v in ideal] for p in x])
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))

    def test_lipschitz_vs_geodesic_distance(self):
        x = wrapped_cloud(3, 40, seed=4)
        y = wrapped_cloud(3, 40, seed=5)
        ideal = sample_directions(3, 11, seed=6).dirs
        px = geodesic_coordinate(x, ideal, model="lorentz")
        py = geodesic_coordinate(y, ideal, model="lorentz")
        dist = dist_lorentz(x, y)
        assert np.all(np.abs(px - py) <= dist[:, None] + 1e-9)


class TestBusemannCoordinate:
    def test_origin_is_zero(self):
        ideal = sample_directions(3, 5, seed=0).dirs
        assert np.max(np.abs(busemann_coordinate(origin(3), ideal))) <= 1e-12

    def test_on_ray_value(self):
        # B^v(gamma(t)) = -t since cosh(t) - sinh(t) = exp(-t)
        rng = np.random.default_rng(1)
        vt = rng.normal(size=3)
        vt /= np.linalg.norm(vt)
        for t in (-1.5, 0.3, 2.0):
            x = np.cosh(t) * origin(3) + np.sinh(t) * np.concatenate([[0.0], vt])
            got = busemann_coordinate(x, vt[None, :], model="lorentz")[0, 0]
            assert got == pytest.approx(-t, abs=1e-10)

    def test_models_agree(self):
        x = wrapped_cloud(4, 50, seed=7)
        ideal = sample_directions(4, 9, seed=8).dirs
        lor = busemann_coordinate(x, ideal, model="lorentz")
        poi = busemann_coordinate(lorentz_to_poincare(x), ideal, model="poincare")
        assert np.max(np.abs(lor - poi)) <= 1e-9

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_poincare_near_the_ideal_point(self):
        """On the ray ``x = t v`` the Poincare Busemann value is
        ``log((1 - t) / (1 + t))``; the expansion of ``|v - x|^2`` cancels
        there (to 0, and -inf, at ``t = 1 - 1e-12``), so near pairs take the
        difference.  Axis directions keep ``t v`` exact in floats."""
        ideal = np.vstack([np.eye(3), -np.eye(3)])
        gaps = [10.0**-k for k in range(1, 16)] + [3e-9, 2.0**-53]
        for t in 1.0 - np.array(gaps):
            got = np.diag(busemann_coordinate(t * ideal, ideal, model="poincare"))
            want = np.log((1.0 - t) / (1.0 + t))
            assert np.all(np.abs(got - want) <= 1e-9 * abs(want))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_hhsw_of_a_point_near_the_ideal_point_is_finite(self):
        ideal = np.vstack([np.eye(3)[:1], sample_directions(3, 7, seed=2).dirs])
        x = lorentz_to_poincare(wrapped_cloud(3, 20, seed=4))
        x[0] = (1.0 - 1e-12) * ideal[0]
        y = lorentz_to_poincare(wrapped_cloud(3, 20, seed=5))
        dirs = DirectionSet(ideal, 0)
        assert np.isfinite(hhsw(x, y, dirs, model="poincare"))

    def test_lipschitz(self):
        x = wrapped_cloud(3, 40, seed=9)
        y = wrapped_cloud(3, 40, seed=10)
        ideal = sample_directions(3, 11, seed=11).dirs
        bx = busemann_coordinate(x, ideal)
        by = busemann_coordinate(y, ideal)
        dist = dist_lorentz(x, y)
        assert np.all(np.abs(bx - by) <= dist[:, None] + 1e-9)


class TestSlicedDistances:
    def test_identity(self):
        x = wrapped_cloud(3, 20, seed=0)
        dirs = sample_directions(3, 30, seed=1)
        assert ghsw(x, x, dirs) == 0.0
        assert hhsw(x, x, dirs) == 0.0

    def test_symmetry(self):
        x = wrapped_cloud(3, 12, seed=2)
        y = wrapped_cloud(3, 15, seed=3)
        dirs = sample_directions(3, 25, seed=4)
        assert ghsw(x, y, dirs) == pytest.approx(ghsw(y, x, dirs), abs=1e-12)
        assert hhsw(x, y, dirs) == pytest.approx(hhsw(y, x, dirs), abs=1e-12)

    def test_model_equivalence(self):
        x = wrapped_cloud(3, 10, seed=5)
        y = wrapped_cloud(3, 11, seed=6)
        dirs = sample_directions(3, 40, seed=7)
        xb, yb = lorentz_to_poincare(x), lorentz_to_poincare(y)
        assert ghsw(x, y, dirs) == pytest.approx(
            ghsw(xb, yb, dirs, model="poincare"), abs=1e-9
        )
        assert hhsw(x, y, dirs) == pytest.approx(
            hhsw(xb, yb, dirs, model="poincare"), abs=1e-9
        )

    def test_triangle_inequality(self):
        rng = np.random.default_rng(8)
        p = 2.0
        dirs = sample_directions(3, 20, seed=9)
        for trial in range(100):
            a = wrapped_cloud(3, 5, seed=100 + trial)
            b = wrapped_cloud(3, 5, seed=200 + trial)
            c = wrapped_cloud(3, 5, seed=300 + trial)
            dab = ghsw(a, b, dirs, p=p) ** (1 / p)
            dac = ghsw(a, c, dirs, p=p) ** (1 / p)
            dcb = ghsw(c, b, dirs, p=p) ** (1 / p)
            assert dab <= dac + dcb + 1e-9
        _ = rng

    def test_upper_bounded_by_geodesic_wasserstein(self):
        rng = np.random.default_rng(10)
        dirs = sample_directions(3, 500, seed=11)
        for trial in range(20):
            n = int(rng.integers(2, 8))
            x = wrapped_cloud(3, n, seed=400 + trial)
            y = wrapped_cloud(3, n, seed=500 + trial)
            cost = dist_lorentz(
                np.repeat(x, n, axis=0), np.tile(y, (n, 1))
            ).reshape(n, n)
            w = wasserstein_pp_permutations(cost, 2.0)
            assert ghsw(x, y, dirs) <= w + 1e-9
            assert hhsw(x, y, dirs) <= w + 1e-9


class TestWrappedNormal:
    def test_degenerate_limit(self):
        mean = origin(3)
        samples = sample_wrapped_normal(mean, 1e-12 * np.eye(3), 50, seed=0)
        assert np.max(dist_lorentz(samples, np.broadcast_to(mean, samples.shape))) <= 1e-4

    def test_samples_on_hyperboloid(self):
        x = wrapped_cloud(4, 200, seed=1)
        assert np.max(np.abs(minkowski_ip(x, x) + 1.0)) <= 1e-9

    def test_center_concentrates_at_mean(self):
        from msot.hyperbolic import project_to_hyperboloid

        mean = exp_map(origin(3)[None, :], np.array([[0.0, 0.7, -0.2, 0.4]]))[0]
        samples = sample_wrapped_normal(mean, 0.01 * np.eye(3), 10_000, seed=2)
        # Frechet-like center estimate: ambient average projected back
        center = project_to_hyperboloid(samples.mean(axis=0)[None, :])
        assert dist_lorentz(center, mean[None, :])[0] <= 0.1

    def test_non_spd_cov_rejected(self):
        with pytest.raises(InvalidInput):
            sample_wrapped_normal(origin(2), -np.eye(2), 5)


class TestRiemannianStep:
    def test_zero_gradient_is_identity(self):
        x = wrapped_cloud(3, 5, seed=0)
        out = riemannian_step_lorentz(x, np.zeros_like(x), 0.1)
        assert np.max(np.abs(out - x)) <= 1e-12

    def test_output_on_hyperboloid(self):
        x = wrapped_cloud(3, 5, seed=1)
        g = np.random.default_rng(2).normal(size=x.shape)
        out = riemannian_step_lorentz(x, g, 0.05)
        assert np.max(np.abs(minkowski_ip(out, out) + 1.0)) <= 1e-9

    def test_descends_squared_distance(self):
        rng = np.random.default_rng(3)
        for trial in range(50):
            x = wrapped_cloud(3, 1, seed=10 + trial)
            y = wrapped_cloud(3, 1, seed=90 + trial)
            # ambient euclidean gradient of f(x) = d_L(x, y)^2
            ip = minkowski_ip(x, y)[0]
            coef = -2.0 * np.arccosh(max(-ip, 1.0)) / max(np.sqrt(ip**2 - 1.0), 1e-9)
            grad = coef * (_j_apply(y))
            before = dist_lorentz(x, y)[0] ** 2
            after = dist_lorentz(riemannian_step_lorentz(x, grad, 1e-3), y)[0] ** 2
            assert after <= before + 1e-12
        _ = rng


def _j_apply(y):
    out = y.copy()
    out[..., 0] = -out[..., 0]
    return out

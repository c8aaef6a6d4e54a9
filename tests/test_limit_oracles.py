"""Independent oracles from the defining limits and exact enumerations.

Every Busemann implementation is checked against its definition
``B(x) = lim_t (d(gamma(t), x) - t)`` evaluated far along the ray, and the
circle binary search against exact enumeration of the kinks of the shift
cost (which is convex piecewise affine in the shift).
"""

import numpy as np
import pytest

from msot.busemann import BWGaussian, bw_distance_sq, busemann_bw
from msot.hyperbolic import (
    HyperbolicSlicer,
    busemann_coordinate,
    origin,
    sample_wrapped_normal,
)
from msot.measures import build_circle_profile, circle_wp_binary_search
from msot.sliced import sample_directions
from msot.spd import (
    busemann_ai,
    coordinate_le,
    dist_ai,
    dist_le,
    sample_unit_symmetric,
    spd_exp,
)
from msot.unbalanced import UnbalancedParams, suot
from oracles import bw_geodesic_point, circle_shift_cost, dist_lorentz
from samples import sample_spd_cloud


class TestHyperbolicBusemannLimit:
    def test_matches_defining_limit(self):
        rng = np.random.default_rng(0)
        x = sample_wrapped_normal(origin(3), 0.4 * np.eye(3), 10, seed=1)
        for trial in range(5):
            vt = rng.normal(size=3)
            vt /= np.linalg.norm(vt)
            closed = busemann_coordinate(x, vt[None, :], model="lorentz")[:, 0]
            for t, tol in ((10.0, 1e-3), (20.0, 1e-6)):
                gamma_t = np.cosh(t) * origin(3) + np.sinh(t) * np.concatenate(
                    [[0.0], vt]
                )
                limit = dist_lorentz(x, np.broadcast_to(gamma_t, x.shape)) - t
                assert np.max(np.abs(limit - closed)) <= tol


class TestSpdBusemannLimits:
    def test_le_coordinate_is_geodesic_argmin(self):
        # grid oracle of argmin_t d_LE(exp(tA), M)
        rng = np.random.default_rng(2)
        for trial in range(5):
            a = sample_unit_symmetric(3, 1, seed=10 + trial)[0]
            m = sample_spd_cloud(3, 1, seed=20 + trial)[0]
            t_star = coordinate_le(m, a)
            grid = t_star + np.linspace(-1.0, 1.0, 2001)
            dists = [dist_le(spd_exp(t * a), m) for t in grid]
            assert dist_le(spd_exp(t_star * a), m) <= np.min(dists) + 1e-10
            _ = rng

    def test_ai_busemann_matches_defining_limit(self):
        # d_AI(exp(tA), M) - t converges to the Busemann value at O(1/t);
        # Richardson extrapolation removes the leading term
        for trial in range(5):
            a = sample_unit_symmetric(3, 1, seed=30 + trial)[0]
            m = sample_spd_cloud(3, 1, seed=40 + trial)[0]
            closed = busemann_ai(m, a)
            f10 = dist_ai(spd_exp(10.0 * a), m) - 10.0
            f20 = dist_ai(spd_exp(20.0 * a), m) - 20.0
            assert abs(f20 - closed) <= abs(f10 - closed) + 1e-12
            assert 2.0 * f20 - f10 == pytest.approx(closed, abs=5e-3)


class TestBwBusemannLimit:
    def test_matches_defining_limit(self):
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        sigma0 = q @ np.diag(rng.random(3) + 0.5) @ q.T
        growth = q @ np.diag(rng.random(3) + 0.2) @ q.T
        dm = rng.normal(size=3)
        speed = np.sqrt(dm @ dm + np.trace(growth @ sigma0 @ growth))
        a = np.eye(3) + growth / speed
        mu0 = BWGaussian(mean=np.zeros(3), cov=sigma0)
        mu1 = BWGaussian(mean=dm / speed, cov=a @ sigma0 @ a)
        for trial in range(5):
            nu = BWGaussian(
                mean=rng.normal(size=3),
                cov=np.diag(rng.random(3) + 0.4),
            )
            closed = busemann_bw(mu0, mu1, nu)
            # the limit converges at O(1/t): a decade in t buys a decade
            errs = []
            for t in (1e3, 1e5):
                mu_t = bw_geodesic_point(mu0, mu1, t)
                errs.append(abs(np.sqrt(bw_distance_sq(mu_t, nu)) - t - closed))
            assert errs[1] <= 5e-5
            assert errs[1] <= errs[0] / 50.0


class TestCircleKinkOracle:
    @staticmethod
    def exact_circle_cost(mu, nu, p):
        """Exact minimum over the shift: the cost is convex piecewise affine
        with kinks only where breakpoints of the two cdfs collide."""
        kinks = (nu.cum[None, :] - mu.cum[:, None]).ravel()
        candidates = np.concatenate([kinks, kinks - 1.0, kinks + 1.0, [-1.0, 1.0]])
        candidates = candidates[(candidates >= -1.0) & (candidates <= 1.0)]
        return min(circle_shift_cost(mu, nu, float(alpha), p) for alpha in candidates)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_binary_search_matches_exact_kink_minimum(self, p):
        rng = np.random.default_rng(4)
        for trial in range(15):
            mu = build_circle_profile(rng.random(rng.integers(2, 8)))
            w = rng.random(rng.integers(2, 8))
            nu = build_circle_profile(rng.random(w.size), w / w.sum())
            exact = self.exact_circle_cost(mu, nu, p)
            got = circle_wp_binary_search(mu, nu, p=p, eps=1e-9)
            assert got == pytest.approx(exact, abs=1e-7)
            assert got >= exact - 1e-12


class TestHorosphericalSlicer:
    def test_model_agreement_through_suot(self):
        from msot.hyperbolic import lorentz_to_poincare

        x = sample_wrapped_normal(origin(2), 0.2 * np.eye(2), 7, seed=5)
        y = sample_wrapped_normal(origin(2), 0.2 * np.eye(2), 8, seed=6)
        dirs = sample_directions(2, 15, seed=7)
        params = UnbalancedParams(rho1=1.0, rho2=1.0, n_iters=20)
        v_l, _, _ = suot(
            x, y, HyperbolicSlicer(dirs, model="lorentz", kind="horospherical"), params
        )
        v_p, _, _ = suot(
            lorentz_to_poincare(x),
            lorentz_to_poincare(y),
            HyperbolicSlicer(dirs, model="poincare", kind="horospherical"),
            params,
        )
        assert v_l == pytest.approx(v_p, abs=1e-9)

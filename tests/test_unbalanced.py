import numpy as np
import pytest
from scipy.special import logsumexp

from msot.errors import DualOverflow, InvalidInput, MassMismatch
from msot.hyperbolic import (
    HyperbolicSlicer,
    exp_map,
    origin,
    poincare_to_lorentz,
    sample_wrapped_normal,
)
from msot.measures import build_profile, wasserstein_1d
from msot.sliced import EuclideanSlicer, sample_directions, sw_p
from msot.unbalanced import (
    DualPotentials,
    UnbalancedParams,
    fw_translation,
    norm_reweight,
    phi_conj,
    sliced_dual,
    suot,
    usw,
)


class TestPhiConj:
    def test_zero(self):
        assert phi_conj(0.0, 3.0) == 0.0

    def test_at_rho(self):
        rho = 2.5
        assert phi_conj(rho, rho) == pytest.approx(rho * (1 - np.exp(-1)))

    def test_linear_limit(self):
        assert phi_conj(1.0, 1e6) == pytest.approx(1.0, abs=1e-6)


class TestNormReweight:
    def test_zero_potentials_identity(self):
        a = np.array([0.2, 0.8])
        b = np.array([0.5, 0.5])
        pair = norm_reweight(a, b, DualPotentials(np.zeros(2), np.zeros(2)), 1.0, 1.0)
        assert np.array_equal(pair.source, a)
        assert np.array_equal(pair.target, b)

    def test_constant_potential_scales_uniformly(self):
        a = np.array([0.3, 0.7])
        c = 1.7
        pair = norm_reweight(
            a, a, DualPotentials(np.full(2, c), np.zeros(2)), 2.0, 2.0
        )
        assert np.allclose(pair.source, a * np.exp(-c / 2.0))

    def test_infinite_rho_limit(self):
        a = np.array([0.3, 0.7])
        f = np.array([1.0, -2.0])
        pair = norm_reweight(a, a, DualPotentials(f, f), 1e12, 1e12)
        assert np.max(np.abs(pair.source - a)) <= 1e-9


class TestFwTranslation:
    def test_symmetric_inputs_zero(self):
        a = np.array([0.5, 0.5])
        f = np.array([0.1, 0.4])
        assert fw_translation(a, a, f, f, 1.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_doubled_source_mass(self):
        rho = 3.0
        a = np.array([1.0, 1.0])
        b = np.array([0.5, 0.5])
        lam = fw_translation(a, b, np.zeros(2), np.zeros(2), rho, rho)
        assert lam == pytest.approx(rho / 2 * np.log(2.0))

    def test_improves_dual_objective(self):
        rng = np.random.default_rng(0)
        params = UnbalancedParams(rho1=0.7, rho2=1.3)
        for _ in range(20):
            a = rng.random(5) + 0.1
            b = rng.random(4) + 0.1
            f = rng.normal(size=5)
            g = rng.normal(size=4)

            def dual(fv, gv):
                return float(
                    np.sum(a * phi_conj(fv, params.rho1))
                    + np.sum(b * phi_conj(gv, params.rho2))
                )

            lam = fw_translation(a, b, f, g, params.rho1, params.rho2)
            assert dual(f + lam, g - lam) >= dual(f, g) - 1e-12

    def test_zero_mass_rejected(self):
        with pytest.raises(InvalidInput):
            fw_translation(np.zeros(2), np.ones(2), np.zeros(2), np.zeros(2), 1, 1)

    def test_matches_the_logsumexp_closed_form(self):
        # potentials of a few hundred over rho = 0.5 overflow a plain exp
        rng = np.random.default_rng(3)
        a, b = rng.random(7) + 0.1, rng.random(5) + 0.1
        f, g = 300 * rng.normal(size=(4, 7)), 300 * rng.normal(size=(4, 5))
        want = (0.5 * 2.0 / 2.5) * (
            logsumexp(-f / 0.5, b=a, axis=-1) - logsumexp(-g / 2.0, b=b, axis=-1)
        )
        got = fw_translation(a, b, f, g, 0.5, 2.0)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)

    def test_zero_weight_atoms_do_not_set_the_shift(self):
        # the zero-weight atoms lead every exponent by over 745, where a
        # shift taken from them underflows all the weighted terms
        rng = np.random.default_rng(4)
        a, b = rng.random(7) + 0.1, rng.random(5) + 0.1
        a[[0, 4]] = 0.0
        b[2] = 0.0
        f, g = 300 * rng.normal(size=(4, 7)), 300 * rng.normal(size=(4, 5))
        f[:, 0], g[:, 2] = -3000.0, -9000.0
        want = (0.5 * 2.0 / 2.5) * (
            logsumexp(-f / 0.5, b=a, axis=-1) - logsumexp(-g / 2.0, b=b, axis=-1)
        )
        got = fw_translation(a, b, f, g, 0.5, 2.0)
        assert np.all(np.isfinite(got))
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)


class TestSlicedDual:
    def test_identical_profiles_give_zeros(self):
        mu = build_profile([0.0, 1.0, 2.0])
        pots = sliced_dual(mu, mu, p=2)
        assert np.max(np.abs(pots.f)) == 0.0
        assert np.max(np.abs(pots.g)) == 0.0

    def test_single_atoms(self):
        mu = build_profile([0.0], [1.0])
        nu = build_profile([2.0], [1.0])
        pots = sliced_dual(mu, nu, p=2)
        assert pots.f[0] == 0.0
        assert pots.g[0] == pytest.approx(4.0)

    def test_strong_duality_on_random_profiles(self):
        rng = np.random.default_rng(1)
        for p in (1.0, 2.0, 3.0):
            for _ in range(10):
                a = rng.random(10) + 0.05
                b = rng.random(10) + 0.05
                b *= a.sum() / b.sum()
                mu = build_profile(rng.normal(size=10), a)
                nu = build_profile(rng.normal(size=10), b)
                pots = sliced_dual(mu, nu, p=p)
                dual_val = float(
                    np.sum(pots.f * mu.weights) + np.sum(pots.g * nu.weights)
                )
                assert dual_val == pytest.approx(
                    wasserstein_1d(mu, nu, p), abs=1e-10
                )

    def test_global_feasibility(self):
        rng = np.random.default_rng(2)
        for p in (1.0, 2.0):
            for _ in range(10):
                mu = build_profile(rng.normal(size=8))
                nu = build_profile(rng.normal(size=8))
                pots = sliced_dual(mu, nu, p=p)
                cost = np.abs(mu.positions[:, None] - nu.positions[None, :]) ** p
                slack = pots.f[:, None] + pots.g[None, :] - cost
                assert np.max(slack) <= 1e-12

    def test_mass_mismatch(self):
        with pytest.raises(MassMismatch):
            sliced_dual(build_profile([0.0], [1.0]), build_profile([0.0], [0.5]))

    def test_zero_weight_atoms_get_consistent_potentials(self):
        mu = build_profile([0.0, 0.5, 1.0], [0.5, 0.0, 0.5])
        nu = build_profile([0.0, 1.0], [0.5, 0.5])
        pots = sliced_dual(mu, nu, p=2)
        cost = np.abs(mu.positions[:, None] - nu.positions[None, :]) ** 2
        assert np.max(pots.f[:, None] + pots.g[None, :] - cost) <= 1e-12


def gaussian_cloud(n, d, seed, shift=0.0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, d)) + shift


class TestSuot:
    def test_identity_is_zero(self):
        x = gaussian_cloud(10, 3, seed=0)
        slicer = EuclideanSlicer(sample_directions(3, 20, seed=1))
        value, _, _ = suot(x, x, slicer, UnbalancedParams(rho1=1.0, rho2=1.0))
        assert abs(value) <= 1e-8

    def test_balanced_limit_matches_sw(self):
        x = gaussian_cloud(12, 3, seed=2)
        y = gaussian_cloud(15, 3, seed=3, shift=0.7)
        dirs = sample_directions(3, 50, seed=4)
        slicer = EuclideanSlicer(dirs)
        params = UnbalancedParams(rho1=1e6, rho2=1e6, n_iters=150)
        value, _, _ = suot(x, y, slicer, params)
        assert value == pytest.approx(sw_p(x, y, dirs), rel=1e-3)

    def test_dual_value_nondecreasing(self):
        x = gaussian_cloud(8, 2, seed=5)
        y = gaussian_cloud(9, 2, seed=6, shift=1.0)
        slicer = EuclideanSlicer(sample_directions(2, 10, seed=7))
        _, _, history = suot(
            x,
            y,
            slicer,
            UnbalancedParams(rho1=0.5, rho2=2.0, n_iters=30, eps=-np.inf),
            x_weights=np.full(8, 0.15),
            y_weights=np.full(9, 0.1),
        )
        assert np.all(np.diff(history) >= -1e-10)

    def test_symmetry_with_equal_rhos(self):
        x = gaussian_cloud(7, 2, seed=8)
        y = gaussian_cloud(6, 2, seed=9, shift=0.5)
        slicer = EuclideanSlicer(sample_directions(2, 25, seed=10))
        params = UnbalancedParams(rho1=0.8, rho2=0.8, n_iters=40)
        a = np.full(7, 0.2)
        b = np.full(6, 0.13)
        v_xy, _, _ = suot(x, y, slicer, params, x_weights=a, y_weights=b)
        v_yx, _, _ = suot(y, x, slicer, params, x_weights=b, y_weights=a)
        assert v_xy == pytest.approx(v_yx, abs=1e-9)

    def test_finite_on_unequal_masses(self):
        x = gaussian_cloud(5, 2, seed=11)
        y = gaussian_cloud(5, 2, seed=12)
        dirs = sample_directions(2, 5, seed=13)
        a = np.full(5, 0.4)
        b = np.full(5, 0.1)
        with pytest.raises(MassMismatch):
            sw_p(x, y, dirs, x_weights=a, y_weights=b)
        value, _, _ = suot(
            x, y, EuclideanSlicer(dirs), UnbalancedParams(), x_weights=a, y_weights=b
        )
        assert np.isfinite(value)
        assert value >= 0


class TestZeroWeightAtoms:
    # the zero-weight source at 5 leads the exponents of the translation by
    # 1500 at rho = 0.05: its balanced potential is 75 below the weighted one
    x, y = np.array([[0.0], [5.0]]), np.array([[10.0]])
    slicer = EuclideanSlicer(sample_directions(1, 1, seed=0))
    params = UnbalancedParams(rho1=0.05, rho2=0.05, n_iters=10)

    def test_suot_ignores_them(self):
        value, pots, _ = suot(
            self.x, self.y, self.slicer, self.params, x_weights=[1.0, 0.0]
        )
        alone, _, _ = suot(self.x[:1], self.y, self.slicer, self.params)
        assert np.all(np.isfinite(pots.f)) and np.all(np.isfinite(pots.g))
        assert value == pytest.approx(alone, rel=1e-12)

    def test_usw_ignores_them(self):
        value, pots, marginals, _ = usw(
            self.x, self.y, self.slicer, self.params, x_weights=[1.0, 0.0]
        )
        alone, _, _, _ = usw(self.x[:1], self.y, self.slicer, self.params)
        assert np.all(np.isfinite(pots.f)) and np.all(np.isfinite(pots.g))
        assert marginals.source[1] == 0.0
        assert value == pytest.approx(alone, rel=1e-12)


class TestLargeCoordinates:
    # costs near 1e8: the staircase sums a rounded cost difference per
    # step, so its feasibility error is about 1e-8 in absolute terms
    rng = np.random.default_rng(0)
    x = 1e4 * (1 + rng.random((300, 2)))
    y = 1e4 * (1 + rng.random((3, 2)))
    slicer = EuclideanSlicer(sample_directions(2, 4, seed=0))
    params = UnbalancedParams(rho1=1e9, rho2=1e9, n_iters=3)

    def test_suot_and_usw_accept_them(self):
        v_suot, pots, _ = suot(self.x, self.y, self.slicer, self.params)
        v_usw, _, _, _ = usw(self.x, self.y, self.slicer, self.params)
        assert np.isfinite(v_suot) and np.isfinite(v_usw)
        assert v_suot <= v_usw * (1 + 1e-12)
        # every slice's pair stays feasible relative to the cost scale
        proj_x = self.slicer.coordinates(self.x).T
        proj_y = self.slicer.coordinates(self.y).T
        cost = (proj_x[:, :, None] - proj_y[:, None, :]) ** 2
        slack = pots.f[:, :, None] + pots.g[:, None, :] - cost
        assert np.max(slack) <= 1e-9 * np.max(cost)


class TestNoFiniteRound:
    # costs of order 1e7 (1e9 for usw) against rho = 1: exp(-f / rho)
    # overflows on every Frank-Wolfe round, so there is no answer to return
    params = UnbalancedParams(rho1=1.0, rho2=1.0)

    @staticmethod
    def clouds(seed, scale):
        rng = np.random.default_rng(seed)
        return rng.uniform(scale, 4 * scale, (400, 2)), rng.uniform(0, 3, (3, 2))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("seed", [0, 2, 3])
    def test_suot_raises_a_numerical_failure(self, seed):
        x, y = self.clouds(seed, 1e3)
        slicer = EuclideanSlicer(sample_directions(2, 5, 0))
        with pytest.raises(DualOverflow, match="no finite dual value") as info:
            suot(x, y, slicer, self.params)
        assert not isinstance(info.value, InvalidInput)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("seed", [0, 2, 3])
    def test_usw_raises_a_numerical_failure(self, seed):
        x, y = self.clouds(0, 1e4)
        slicer = EuclideanSlicer(sample_directions(2, 1, seed))
        with pytest.raises(DualOverflow, match="raise rho") as info:
            usw(x, y, slicer, self.params)
        assert not isinstance(info.value, InvalidInput)


class TestUsw:
    def test_balanced_limit_matches_sw(self):
        x = gaussian_cloud(10, 3, seed=0)
        y = gaussian_cloud(14, 3, seed=1, shift=0.6)
        dirs = sample_directions(3, 50, seed=2)
        params = UnbalancedParams(rho1=1e6, rho2=1e6, n_iters=150)
        value, _, marginals, _ = usw(x, y, EuclideanSlicer(dirs), params)
        assert value == pytest.approx(sw_p(x, y, dirs), rel=1e-3)
        # at huge rho the optimal marginals stay put
        assert np.max(np.abs(marginals.source - 1.0 / 10)) <= 1e-6

    def test_suot_below_usw(self):
        rng = np.random.default_rng(3)
        for trial in range(50):
            n, m = int(rng.integers(3, 8)), int(rng.integers(3, 8))
            x = rng.normal(size=(n, 2))
            y = rng.normal(size=(m, 2)) + 0.5
            a = rng.random(n) + 0.1
            b = rng.random(m) + 0.1
            dirs = sample_directions(2, 10, seed=100 + trial)
            slicer = EuclideanSlicer(dirs)
            params = UnbalancedParams(rho1=0.5, rho2=1.5, n_iters=80)
            v_suot, _, _ = suot(x, y, slicer, params, x_weights=a, y_weights=b)
            v_usw, _, _, _ = usw(x, y, slicer, params, x_weights=a, y_weights=b)
            assert v_suot <= v_usw + 1e-8

    def test_nonnegative_and_symmetric(self):
        x = gaussian_cloud(6, 2, seed=4)
        y = gaussian_cloud(7, 2, seed=5, shift=0.4)
        slicer = EuclideanSlicer(sample_directions(2, 20, seed=6))
        params = UnbalancedParams(rho1=1.1, rho2=1.1, n_iters=40)
        a = np.full(6, 0.21)
        b = np.full(7, 0.09)
        v_xy, _, _, _ = usw(x, y, slicer, params, x_weights=a, y_weights=b)
        v_yx, _, _, _ = usw(y, x, slicer, params, x_weights=b, y_weights=a)
        assert v_xy >= 0
        assert v_xy == pytest.approx(v_yx, abs=1e-9)

    def test_planted_outlier_mass_removed(self):
        rng = np.random.default_rng(7)
        core = rng.normal(size=(20, 2)) * 0.1
        outlier = np.array([[10.0, 10.0]])
        x = np.concatenate([core, outlier])
        a = np.concatenate([np.full(20, 0.9 / 20), [0.1]])
        y = rng.normal(size=(25, 2)) * 0.1
        slicer = EuclideanSlicer(sample_directions(2, 30, seed=8))
        params = UnbalancedParams(rho1=1.0, rho2=1.0, n_iters=30)
        _, _, marginals, _ = usw(x, y, slicer, params, x_weights=a)
        assert marginals.source[-1] < 0.1 * a[-1]

    def test_dual_value_nondecreasing(self):
        x = gaussian_cloud(9, 2, seed=9)
        y = gaussian_cloud(8, 2, seed=10, shift=0.8)
        slicer = EuclideanSlicer(sample_directions(2, 15, seed=11))
        _, _, _, history = usw(
            x,
            y,
            slicer,
            UnbalancedParams(rho1=0.6, rho2=1.4, n_iters=30, eps=-np.inf),
            x_weights=np.full(9, 0.2),
            y_weights=np.full(8, 0.1),
        )
        assert np.all(np.diff(history) >= -1e-10)

    def test_stochastic_slices_flag(self):
        x = gaussian_cloud(6, 2, seed=12)
        y = gaussian_cloud(6, 2, seed=13, shift=0.3)
        slicer = EuclideanSlicer(sample_directions(2, 10, seed=14))
        params = UnbalancedParams(rho1=1.0, rho2=1.0, n_iters=10)

        def fresh(t):
            return EuclideanSlicer(sample_directions(2, 10, seed=1000 + t))

        v_fixed, _, _, _ = usw(x, y, slicer, params)
        v_stoch, _, _, _ = usw(x, y, slicer, params, stochastic_slicer=fresh)
        assert np.isfinite(v_stoch)
        # fixed-slice mode is deterministic
        v_fixed2, _, _, _ = usw(x, y, slicer, params)
        assert v_fixed == v_fixed2


class TestSlicerPluggability:
    def test_hyperbolic_rho_sweep_outlier_mass(self):
        # Poincare-disk mixture with a far outlier mode: the reweighted mass
        # kept at the outlier grows with rho (less discarding)
        rng = np.random.default_rng(0)
        core = sample_wrapped_normal(origin(2), 0.05 * np.eye(2), 15, seed=1)
        far_mean = exp_map(origin(2)[None, :], np.array([[0.0, 3.5, 0.0]]))[0]
        outliers = sample_wrapped_normal(far_mean, 0.05 * np.eye(2), 5, seed=2)
        x = np.concatenate([core, outliers])
        a = np.concatenate([np.full(15, 0.8 / 15), np.full(5, 0.2 / 5)])
        y = sample_wrapped_normal(origin(2), 0.05 * np.eye(2), 20, seed=3)
        slicer = HyperbolicSlicer(sample_directions(2, 25, seed=4), kind="geodesic")
        kept = []
        for rho in (1e-3, 1e-1, 1e1):
            params = UnbalancedParams(rho1=rho, rho2=rho, n_iters=25)
            _, _, marginals, _ = usw(x, y, slicer, params, x_weights=a)
            kept.append(float(np.sum(marginals.source[15:])))
        assert kept[0] < kept[1] < kept[2]
        _ = rng

    def test_spd_slicer_runs(self):
        from msot.spd import SpdSlicer, sample_spd_cloud, sample_unit_symmetric

        x = sample_spd_cloud(3, 6, seed=0)
        y = sample_spd_cloud(3, 7, seed=1)
        slicer = SpdSlicer(sample_unit_symmetric(3, 10, seed=2))
        value, _, _ = suot(x, y, slicer, UnbalancedParams(n_iters=15))
        assert np.isfinite(value)

    def test_poincare_inputs_through_conversion(self):
        x = sample_wrapped_normal(origin(2), 0.1 * np.eye(2), 8, seed=5)
        y = sample_wrapped_normal(origin(2), 0.1 * np.eye(2), 9, seed=6)
        from msot.hyperbolic import lorentz_to_poincare

        dirs = sample_directions(2, 20, seed=7)
        lorentz_slicer = HyperbolicSlicer(dirs, model="lorentz")
        poincare_slicer = HyperbolicSlicer(dirs, model="poincare")
        params = UnbalancedParams(rho1=1.0, rho2=1.0, n_iters=20)
        v_l, _, _ = suot(x, y, lorentz_slicer, params)
        v_p, _, _ = suot(
            lorentz_to_poincare(x), lorentz_to_poincare(y), poincare_slicer, params
        )
        assert v_l == pytest.approx(v_p, abs=1e-9)
        _ = poincare_to_lorentz

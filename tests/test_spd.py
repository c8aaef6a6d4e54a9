import numpy as np
import pytest

from msot import spd
from msot.errors import DegenerateDirection, InvalidInput, NotPositiveDefinite
from msot.spd import (
    SpdSlicer,
    busemann_ai,
    coordinate_le,
    dist_ai,
    dist_le,
    gaussian_kernel,
    hspdsw,
    kernel_features,
    logsw,
    logsw_directions,
    sample_unit_symmetric,
    spd_exp,
    spd_log,
    spdsw,
    sym_eig,
    sym_to_vec,
)
from msot.measures import build_profile, wasserstein_1d

from oracles import busemann_ai_loop, wasserstein_pp_permutations
from samples import sample_spd_cloud


class TestSymEig:
    def test_identity(self):
        vals, vecs = sym_eig(np.eye(4))
        assert np.allclose(vals, 1.0)
        assert np.allclose(vecs @ vecs.T, np.eye(4))

    def test_diagonal(self):
        vals, vecs = sym_eig(np.diag([3.0, 1.0]))
        assert np.allclose(vals, [3.0, 1.0])
        assert np.allclose(np.abs(vecs), np.eye(2))

    def test_reconstruction(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(6, 6))
        m = (z + z.T) / 2
        vals, vecs = sym_eig(m)
        recon = vecs @ np.diag(vals) @ vecs.T
        assert np.linalg.norm(recon - m) <= 1e-9 * np.linalg.norm(m)
        assert np.linalg.norm(vecs.T @ vecs - np.eye(6)) <= 1e-9
        assert np.all(np.diff(vals) <= 0)

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidInput):
            sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestLogExp:
    def test_log_identity(self):
        assert np.allclose(spd_log(np.eye(3)), 0.0)

    def test_exp_diagonal(self):
        assert np.allclose(spd_exp(np.diag([1.0, 2.0])), np.diag(np.exp([1.0, 2.0])))

    def test_round_trip(self):
        cloud = sample_spd_cloud(5, 20, seed=1)
        back = spd_exp(spd_log(cloud))
        for m, b in zip(cloud, back):
            assert np.linalg.norm(b - m) <= 1e-8 * np.linalg.norm(m)

    def test_log_rejects_non_pd(self):
        with pytest.raises(NotPositiveDefinite):
            spd_log(np.diag([1.0, 0.0]))


class TestDistances:
    def test_zero_on_diagonal(self):
        m = sample_spd_cloud(3, 1, seed=2)[0]
        assert dist_le(m, m) == 0.0
        assert dist_ai(m, m) <= 1e-12

    def test_commuting_pairs_agree(self):
        x = np.diag([1.0, 4.0, 0.5])
        y = np.diag([2.0, 1.0, 3.0])
        assert dist_le(x, y) == pytest.approx(dist_ai(x, y), abs=1e-10)

    def test_le_lower_bounds_ai(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            x, y = sample_spd_cloud(4, 2, seed=100 + trial)
            assert dist_le(x, y) <= dist_ai(x, y) + 1e-9
        _ = rng


class TestSampleUnitSymmetric:
    def test_symmetric_unit_norm(self):
        slices = sample_unit_symmetric(3, 50, seed=0)
        assert np.max(np.abs(slices - np.swapaxes(slices, 1, 2))) <= 1e-12
        norms = np.linalg.norm(slices, axis=(1, 2))
        assert np.max(np.abs(norms - 1.0)) <= 1e-12

    def test_mean_is_zero(self):
        slices = sample_unit_symmetric(2, 10_000, seed=1)
        assert np.max(np.abs(slices.mean(axis=0))) <= 0.03

    def test_distinct_eigenvalues(self):
        slices = sample_unit_symmetric(4, 200, seed=2)
        gaps = []
        for a in slices:
            vals, _ = sym_eig(a)
            gaps.append(np.min(-np.diff(vals)))
        assert min(gaps) > 0


class TestCoordinateLE:
    def test_identity_is_zero(self):
        a = sample_unit_symmetric(3, 1, seed=0)[0]
        assert coordinate_le(np.eye(3), a) == pytest.approx(0.0, abs=1e-14)

    def test_on_geodesic(self):
        a = sample_unit_symmetric(3, 1, seed=1)[0]
        for t in (-1.0, 0.25, 2.0):
            m = spd_exp(t * a)
            assert coordinate_le(m, a) == pytest.approx(t, abs=1e-10)

    def test_one_product_matches_the_entrywise_contraction(self):
        x = sample_spd_cloud(3, 500, seed=3)
        slices = sample_unit_symmetric(3, 200, seed=4)
        want = np.einsum("nij,lij->nl", spd_log(x), slices)
        got = coordinate_le(x, slices)
        assert np.max(np.abs(got - want)) <= 8 * np.finfo(float).eps * np.max(np.abs(want))

    def test_lipschitz_vs_le_distance(self):
        slices = sample_unit_symmetric(3, 20, seed=2)
        for trial in range(10):
            x, y = sample_spd_cloud(3, 2, seed=10 + trial)
            cx = coordinate_le(x, slices)
            cy = coordinate_le(y, slices)
            assert np.max(np.abs(cx - cy)) <= dist_le(x, y) + 1e-9


class TestBusemannAI:
    def test_identity_is_zero(self):
        a = sample_unit_symmetric(3, 1, seed=0)[0]
        assert busemann_ai(np.eye(3), a) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_commuting_case(self):
        a = np.diag([0.8, -0.2, -0.4])
        a = a / np.linalg.norm(a)
        m = np.diag([2.0, 1.0, 0.5])
        assert busemann_ai(m, a) == pytest.approx(-coordinate_le(m, a), abs=1e-12)

    def test_on_ray(self):
        a = sample_unit_symmetric(4, 1, seed=1)[0]
        for t in (-1.5, 0.5, 2.5):
            assert busemann_ai(spd_exp(t * a), a) == pytest.approx(-t, abs=1e-9)

    def test_congruence_invariance_through_diagonalization(self):
        # B^A(M) computed directly equals the value after the A-eigenbasis
        # rotation, the invariance the UDU route relies on
        a = sample_unit_symmetric(3, 1, seed=2)[0]
        vals, vecs = sym_eig(a)
        m = sample_spd_cloud(3, 1, seed=3)[0]
        rotated = vecs.T @ m @ vecs
        assert busemann_ai(m, a) == pytest.approx(
            busemann_ai(rotated, np.diag(vals)), abs=1e-9
        )

    def test_degenerate_direction_rejected(self):
        with pytest.raises(DegenerateDirection):
            busemann_ai(np.eye(2), np.eye(2) / np.sqrt(2.0))

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_batch_matches_per_atom_loop(self, d):
        x = sample_spd_cloud(d, 30, seed=d, spread=1.5)
        slices = sample_unit_symmetric(d, 25, seed=10 + d)
        want = np.stack([busemann_ai_loop(x, a) for a in slices], axis=1)
        got = SpdSlicer(slices, kind="horospherical").coordinates(x)
        np.testing.assert_allclose(got, -want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            busemann_ai(x, slices[3]), want[:, 3], rtol=0, atol=1e-12
        )
        assert busemann_ai(x[7], slices[3]) == pytest.approx(want[7, 3], abs=1e-12)

    @pytest.mark.parametrize("entries", [27, 900])
    def test_blocks_match_one_batch(self, monkeypatch, entries):
        # 27 entries: blocks of 1 atom x 3 slices; 900: 4 atoms x all 25 slices
        x = sample_spd_cloud(3, 30, seed=3, spread=1.5)
        slices = sample_unit_symmetric(3, 25, seed=13)
        slicer = SpdSlicer(slices, kind="horospherical")
        whole = slicer.coordinates(x)
        monkeypatch.setattr(spd, "AI_BLOCK_ENTRIES", entries)
        np.testing.assert_array_equal(slicer.coordinates(x), whole)
        bad_x = x.copy()
        bad_x[-1] = np.diag([1.0, 2.0, -1.0])
        with pytest.raises(NotPositiveDefinite):
            slicer.coordinates(bad_x)

    def test_one_bad_slice_or_atom_fails_the_batch(self):
        x = sample_spd_cloud(3, 10, seed=0)
        slices = sample_unit_symmetric(3, 8, seed=1)
        bad_slices = slices.copy()
        bad_slices[5] = np.diag([1.0, 1.0, 0.0]) / np.sqrt(2.0)
        with pytest.raises(DegenerateDirection):
            SpdSlicer(bad_slices, kind="horospherical").coordinates(x)
        bad_x = x.copy()
        bad_x[4] = np.diag([1.0, 2.0, -1.0])
        with pytest.raises(NotPositiveDefinite):
            SpdSlicer(slices, kind="horospherical").coordinates(bad_x)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("spread", [1.0, 1.5, 3.0])
    def test_matches_cholesky_loop_on_ill_conditioned_atoms(self, d, spread):
        # both routes lose about cond(M) * eps in the smallest pivot (the
        # slices have unit Frobenius norm); 1.5 * eps * cond was the worst
        # seen over d = 2-6, three spreads and four seeds
        x = sample_spd_cloud(d, 30, seed=100 * d, spread=spread)
        slices = sample_unit_symmetric(d, 25, seed=200 * d)
        want = -np.stack([busemann_ai_loop(x, a) for a in slices], axis=1)
        got = SpdSlicer(slices, kind="horospherical").coordinates(x)
        tol = 8 * np.finfo(float).eps * np.linalg.cond(x)
        assert np.all(np.abs(got - want) <= tol[:, None])

    def test_matches_50_digit_elimination(self):
        # the truth is exact for the float64 atoms and the float64
        # eigenpairs of the slices, which both routes share
        import mpmath  # a test dependency: fails, not skips, when missing
        x = sample_spd_cloud(3, 30, seed=0, spread=3.0)
        slices = sample_unit_symmetric(3, 6, seed=50)
        vals, vecs = sym_eig(slices)
        truth = np.empty((30, 6))
        with mpmath.workdps(50):
            for l in range(6):
                p = mpmath.matrix(vecs[l].tolist())
                for i, m in enumerate(x):
                    r = p.T * mpmath.matrix(m.tolist()) * p
                    total = 0
                    for k in (2, 1, 0):
                        total += vals[l, k] * mpmath.log(r[k, k])
                        r = r[:k, :k] - r[:k, k] * r[k, :k] / r[k, k] if k else r
                    truth[i, l] = float(total)
        got = SpdSlicer(slices, kind="horospherical").coordinates(x)
        loop = -np.stack([busemann_ai_loop(x, a) for a in slices], axis=1)
        eps = np.finfo(float).eps
        tol = eps * (np.linalg.cond(x)[:, None] + 8 * np.abs(truth))
        assert np.all(np.abs(got - truth) <= tol)
        assert np.all(np.abs(loop - truth) <= tol)

    @pytest.mark.parametrize("d, n", [(2, 30), (5, 30), (3, 1)])
    @pytest.mark.parametrize("entries", [1, 27, 900])
    def test_blocks_match_the_whole_call(self, monkeypatch, d, n, entries):
        x = sample_spd_cloud(d, n, seed=d + n, spread=1.5)
        slices = sample_unit_symmetric(d, 25, seed=d)
        whole = spd._busemann_ai_batch(x, slices)
        monkeypatch.setattr(spd, "AI_BLOCK_ENTRIES", entries)
        np.testing.assert_array_equal(spd._busemann_ai_batch(x, slices), whole)
        for l in (0, 24):
            np.testing.assert_array_equal(busemann_ai(x, slices[l]), whole[:, l])

    def test_late_failing_pivot_raises_without_warning(self, recwarn):
        # P^T M P = diag(-1, 1, 2): the first two pivots (from the bottom)
        # pass, the third fails
        slices = sample_unit_symmetric(3, 1, seed=5)
        _, vecs = sym_eig(slices[0])
        bad = vecs @ np.diag([-1.0, 1.0, 2.0]) @ vecs.T
        x = sample_spd_cloud(3, 6, seed=6)
        x[3] = (bad + bad.T) / 2.0
        with pytest.raises(NotPositiveDefinite):
            SpdSlicer(slices, kind="horospherical").coordinates(x)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


class TestSlicedDistances:
    def test_identity(self):
        x = sample_spd_cloud(3, 8, seed=0)
        slices = sample_unit_symmetric(3, 20, seed=1)
        assert spdsw(x, x, slices) == 0.0
        assert hspdsw(x, x, slices) == 0.0

    def test_symmetry_and_triangle(self):
        slices = sample_unit_symmetric(3, 15, seed=2)
        for trial in range(30):
            a = sample_spd_cloud(3, 4, seed=100 + trial)
            b = sample_spd_cloud(3, 4, seed=200 + trial)
            c = sample_spd_cloud(3, 4, seed=300 + trial)
            dab = spdsw(a, b, slices)
            assert dab == pytest.approx(spdsw(b, a, slices), abs=1e-12)
            root = dab**0.5
            assert root <= spdsw(a, c, slices) ** 0.5 + spdsw(c, b, slices) ** 0.5 + 1e-9

    def test_positive_on_distinct_clouds(self):
        slices = sample_unit_symmetric(3, 50, seed=3)
        x = sample_spd_cloud(3, 4, seed=4)
        y = sample_spd_cloud(3, 4, seed=5)
        assert spdsw(x, y, slices) > 0

    def test_equals_symsw_of_log_pushforwards(self):
        # t^A(log M) = Tr(A log M): slicing the log images with the same
        # symmetric directions must match exactly
        x = sample_spd_cloud(3, 5, seed=6)
        y = sample_spd_cloud(3, 6, seed=7)
        slices = sample_unit_symmetric(3, 25, seed=8)
        direct = spdsw(x, y, slices)
        lx, ly = spd_log(x), spd_log(y)
        coords_x = np.einsum("nij,lij->nl", lx, slices)
        coords_y = np.einsum("nij,lij->nl", ly, slices)
        from msot.measures import wasserstein_1d_batched

        manual = float(np.mean(wasserstein_1d_batched(coords_x, coords_y, p=2)))
        assert direct == pytest.approx(manual, abs=1e-12)

    def test_upper_bound_by_scaled_wasserstein(self):
        # SPDSW_2^2 <= W_2^2 / d with the Log-Euclidean ground cost
        rng = np.random.default_rng(9)
        slices = sample_unit_symmetric(3, 500, seed=10)
        d = 3
        for trial in range(10):
            n = int(rng.integers(2, 7))
            x = sample_spd_cloud(d, n, seed=400 + trial)
            y = sample_spd_cloud(d, n, seed=500 + trial)
            cost = np.array([[dist_le(xi, yj) for yj in y] for xi in x])
            w = wasserstein_pp_permutations(cost, 2.0)
            assert spdsw(x, y, slices) <= w / d + 1e-9

    def test_hspdsw_pseudo_metric_axioms(self):
        slices = sample_unit_symmetric(3, 10, seed=11)
        x = sample_spd_cloud(3, 4, seed=12)
        y = sample_spd_cloud(3, 4, seed=13)
        assert hspdsw(x, y, slices) >= 0
        assert hspdsw(x, y, slices) == pytest.approx(hspdsw(y, x, slices), abs=1e-12)

    def test_logsw_identity_and_symmetry(self):
        x = sample_spd_cloud(3, 5, seed=14)
        y = sample_spd_cloud(3, 5, seed=15)
        dirs = logsw_directions(3, 30, seed=16)
        assert logsw(x, x, dirs) == 0.0
        assert logsw(x, y, dirs) == pytest.approx(logsw(y, x, dirs), abs=1e-12)

    def test_sym_to_vec_isometry(self):
        rng = np.random.default_rng(17)
        z = rng.normal(size=(4, 4))
        s = (z + z.T) / 2
        assert np.linalg.norm(sym_to_vec(s)) == pytest.approx(
            np.linalg.norm(s), abs=1e-12
        )

    def test_empirical_convergence_trend(self):
        # spdsw between a cloud and its n-sample bootstrap decreases in n
        rng = np.random.default_rng(18)
        slices = sample_unit_symmetric(2, 50, seed=19)
        reference = sample_spd_cloud(2, 2000, seed=20)
        means = []
        for n in (10, 100, 1000):
            vals = []
            for rep in range(20):
                idx = rng.integers(0, reference.shape[0], size=n)
                vals.append(spdsw(reference[idx], reference, slices))
            means.append(np.mean(vals))
        assert means[0] > means[1] > means[2]


class TestKernel:
    def test_self_kernel_is_one(self):
        cloud = sample_spd_cloud(3, 6, seed=0)
        slices = sample_unit_symmetric(3, 10, seed=1)
        f = kernel_features(cloud, slices, n_quantiles=6)
        assert gaussian_kernel(f, f, 1.0) == 1.0

    def test_feature_distance_equals_spdsw_at_matching_grid(self):
        x = sample_spd_cloud(3, 7, seed=2)
        y = sample_spd_cloud(3, 7, seed=3)
        slices = sample_unit_symmetric(3, 12, seed=4)
        fx = kernel_features(x, slices, n_quantiles=7)
        fy = kernel_features(y, slices, n_quantiles=7)
        sq = float(np.sum((fx.values - fy.values) ** 2))
        assert sq == pytest.approx(spdsw(x, y, slices), abs=1e-10)

    def test_gram_matrix_psd(self):
        slices = sample_unit_symmetric(2, 15, seed=5)
        clouds = [sample_spd_cloud(2, 5, seed=10 + i) for i in range(10)]
        feats = [kernel_features(c, slices, n_quantiles=5) for c in clouds]
        gram = np.array(
            [[gaussian_kernel(f, g, sigma=1.0) for g in feats] for f in feats]
        )
        assert np.min(np.linalg.eigvalsh(gram)) >= -1e-8

    def test_bad_sigma(self):
        cloud = sample_spd_cloud(2, 3, seed=6)
        slices = sample_unit_symmetric(2, 4, seed=7)
        f = kernel_features(cloud, slices, n_quantiles=3)
        for sigma in (0.0, np.nan, np.inf):
            with pytest.raises(InvalidInput):
                gaussian_kernel(f, f, sigma)

    def test_bad_grid(self):
        cloud = sample_spd_cloud(2, 3, seed=8)
        slices = sample_unit_symmetric(2, 4, seed=9)
        with pytest.raises(InvalidInput):
            kernel_features(cloud, slices, n_quantiles=3, grid=np.array([0.0, 0.5]))


class TestQuantileMatchesOrderStatistics:
    def test_midpoint_grid_hits_order_statistics(self):
        cloud = sample_spd_cloud(2, 9, seed=0)
        slices = sample_unit_symmetric(2, 3, seed=1)
        feats = kernel_features(cloud, slices, n_quantiles=9)
        coords = coordinate_le(cloud, slices)
        expected = np.sort(coords, axis=0) / np.sqrt(9 * 3)
        assert np.allclose(feats.values, expected, atol=1e-14)

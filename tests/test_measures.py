import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from msot import measures
from msot.errors import InvalidInput, MassMismatch
from msot.measures import (
    build_circle_profile,
    build_profile,
    circle_w1_level_median,
    circle_w2_vs_uniform,
    circle_w1_batched,
    circle_w2_uniform_batched,
    circle_wp_batched,
    circle_wp_binary_search,
    dual_1d_batched,
    quantile,
    stable_order,
    validate_weights,
    wasserstein_1d,
    wasserstein_1d_batched,
)

from oracles import (
    ahead_masked,
    batched_costs_whole,
    circle_profile,
    circle_w1_along_axis,
    circle_w1_level_median_profile,
    circle_w2_uniform_dirac,
    circle_w2_vs_uniform_profile,
    circle_wp_bisection,
    circle_wpp_grid,
    dual_1d_batched_gathers,
    wasserstein_1d_lp,
    wasserstein_1d_walk,
)
from samples import LAYOUTS, unchanged


class TestBuildProfile:
    def test_sorts_positions(self):
        prof = build_profile([3.0, 1.0, 2.0], [1 / 3, 1 / 3, 1 / 3])
        assert np.allclose(prof.positions, [1.0, 2.0, 3.0])

    def test_single_atom(self):
        prof = build_profile([0.0], [1.0])
        assert prof.cum.tolist() == [1.0]

    def test_ties_kept_in_input_order(self):
        prof = build_profile([1.0, 1.0], [0.2, 0.8])
        assert prof.positions.tolist() == [1.0, 1.0]
        assert np.allclose(prof.cum, [0.2, 1.0])

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidInput):
            build_profile([0.0, 1.0], [0.5, -0.5])

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput):
            build_profile([], [])


def _stable_reference(rows):
    order = np.argsort(rows, axis=-1, kind="stable")
    return order, np.take_along_axis(rows, order, axis=-1)


# ties of every kind: repeats, an integer grid, signed zeros, infinities, NaN
_TIED = st.one_of(
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]),
    st.integers(-3, 3).map(float),
    st.floats(allow_nan=True, allow_infinity=True),
)


class TestStableOrder:
    @settings(max_examples=300, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=12),
            elements=_TIED,
        )
    )
    def test_is_the_stable_argsort(self, rows):
        order, ordered = stable_order(rows)
        want_order, want = _stable_reference(rows)
        assert np.array_equal(order, want_order)
        assert ordered.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(7, 1), (1, 9), (9,), (1,)])
    def test_one_column_and_one_row(self, shape):
        rows = np.random.default_rng(0).integers(0, 3, size=shape).astype(float)
        rows.flat[0] = -0.0
        order, ordered = stable_order(rows)
        want_order, want = _stable_reference(rows)
        assert order.shape == ordered.shape == shape
        assert np.array_equal(order, want_order)
        assert ordered.tobytes() == want.tobytes()

    def test_distinct_and_tied_rows_in_one_call(self):
        rng = np.random.default_rng(1)
        rows = rng.normal(size=(40, 30))
        rows[::3] = np.round(rows[::3])
        rows[5, 4] = np.nan
        rows[7, :2] = [0.0, -0.0]
        order, ordered = stable_order(rows)
        want_order, want = _stable_reference(rows)
        assert np.array_equal(order, want_order)
        assert ordered.tobytes() == want.tobytes()


class TestQuantile:
    def test_inf_convention_on_uniform_pair(self):
        prof = build_profile([0.0, 1.0])
        assert quantile(prof, 0.5) == 0.0

    def test_dirac(self):
        prof = build_profile([3.0], [1.0])
        for q in (1e-12, 0.3, 1.0):
            assert quantile(prof, q) == 3.0

    def test_step_through_cum(self):
        prof = build_profile([0.0, 1.0], [0.3, 0.7])
        assert quantile(prof, 0.31) == 1.0

    def test_out_of_range(self):
        prof = build_profile([0.0], [1.0])
        with pytest.raises(InvalidInput):
            quantile(prof, -0.1)
        with pytest.raises(InvalidInput):
            quantile(prof, 1.1)

    def test_round_trip_at_atoms(self):
        rng = np.random.default_rng(0)
        prof = build_profile(rng.normal(size=7), None)
        # distinct positions: the round trip is an exact identity
        for x, c in zip(prof.positions, prof.cum):
            assert quantile(prof, c) == x

    def test_round_trip_with_ties_never_decreases(self):
        prof = build_profile([0.0, 1.0, 1.0, 2.0], [0.1, 0.3, 0.4, 0.2])
        for x, c in zip(prof.positions, prof.cum):
            assert quantile(prof, c) >= x


class TestWasserstein1D:
    def test_diracs(self):
        mu = build_profile([0.0], [1.0])
        nu = build_profile([1.0], [1.0])
        assert wasserstein_1d(mu, nu, 2) == pytest.approx(1.0, abs=1e-15)

    def test_identity(self):
        mu = build_profile([0.0, 1.0, 2.0])
        assert wasserstein_1d(mu, mu, 2) == 0.0

    def test_interleaved_pair(self):
        # brute force over the 2 matchings: matched 0->1, 2->3 costs 1
        mu = build_profile([0.0, 2.0])
        nu = build_profile([1.0, 3.0])
        assert wasserstein_1d(mu, nu, 2) == pytest.approx(1.0, abs=1e-12)

    def test_mass_mismatch(self):
        mu = build_profile([0.0], [1.0])
        nu = build_profile([1.0], [0.5])
        with pytest.raises(MassMismatch):
            wasserstein_1d(mu, nu, 2)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_matches_lp_oracle(self, p):
        rng = np.random.default_rng(42)
        for _ in range(5):
            n, m = rng.integers(2, 7, size=2)
            x, y = rng.normal(size=n), rng.normal(size=m)
            a = rng.random(n) + 0.1
            a /= a.sum()
            b = rng.random(m) + 0.1
            b /= b.sum()
            got = wasserstein_1d(build_profile(x, a), build_profile(y, b), p)
            want = wasserstein_1d_lp(x, a, y, b, p)
            assert got == pytest.approx(want, abs=1e-9)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(7)
        p = 2.0
        for _ in range(200):
            profs = [
                build_profile(rng.normal(size=rng.integers(2, 6)))
                for _ in range(3)
            ]
            a, b, c = profs
            dab = wasserstein_1d(a, b, p)
            dba = wasserstein_1d(b, a, p)
            assert dab == pytest.approx(dba, abs=1e-15)
            dac = wasserstein_1d(a, c, p) ** (1 / p)
            dcb = wasserstein_1d(c, b, p) ** (1 / p)
            assert dab ** (1 / p) <= dac + dcb + 1e-9

    def test_zero_iff_equal_profiles(self):
        mu = build_profile([0.0, 1.0], [0.25, 0.75])
        nu = build_profile([0.0, 1.0], [0.3, 0.7])
        assert wasserstein_1d(mu, nu, 2) > 0
        assert wasserstein_1d(mu, mu, 2) == 0.0

    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=12),
        st.lists(st.floats(-50, 50), min_size=1, max_size=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_hypothesis_nonnegative_and_symmetric(self, xs, ys):
        mu = build_profile(np.array(xs))
        nu = build_profile(np.array(ys))
        d = wasserstein_1d(mu, nu, 2)
        assert d >= 0
        assert d == pytest.approx(wasserstein_1d(nu, mu, 2), rel=1e-12, abs=1e-12)


class TestBatchedWasserstein:
    @pytest.mark.parametrize("p", [1.0, 2.0, 2.5])
    def test_matches_scalar_path(self, p):
        rng = np.random.default_rng(3)
        n, m, L = 6, 4, 5
        u = rng.normal(size=(n, L))
        v = rng.normal(size=(m, L))
        a = rng.random(n) + 0.05
        a /= a.sum()
        b = rng.random(m) + 0.05
        b /= b.sum()
        got = wasserstein_1d_batched(u, v, a, b, p=p)
        for ell in range(L):
            mu, nu = build_profile(u[:, ell], a), build_profile(v[:, ell], b)
            assert got[ell] == wasserstein_1d(mu, nu, p)
            assert got[ell] == pytest.approx(wasserstein_1d_walk(mu, nu, p), abs=1e-12)

    def test_peak_memory_per_merged_breakpoint(self):
        # the general-weight path holds a few (L, n + m) arrays at a time
        rng = np.random.default_rng(5)
        n = m = 1000
        L = 100
        u, v = rng.normal(size=(n, L)), rng.normal(size=(m, L))
        a, b = rng.random(n) + 0.1, rng.random(m) + 0.1
        a, b = a / a.sum(), b / b.sum()
        tracemalloc.start()
        try:
            wasserstein_1d_batched(u, v, a, b, p=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 56 * L * (n + m)

    def test_uniform_weights_default(self):
        rng = np.random.default_rng(4)
        u = rng.normal(size=(5, 3))
        v = rng.normal(size=(5, 3))
        got = wasserstein_1d_batched(u, v, p=2)
        want = np.mean((np.sort(u, axis=0) - np.sort(v, axis=0)) ** 2, axis=0)
        assert np.allclose(got, want, atol=1e-12)


@pytest.fixture(params=[1, 2], ids=["one-worker", "pooled"])
def workers(request, monkeypatch):
    """One worker, or two on a pool of their own that split every line-kernel
    call of two or more columns into one block each."""
    pool = ThreadPoolExecutor(request.param) if request.param > 1 else None
    monkeypatch.setattr(measures, "_WORKERS", request.param)
    monkeypatch.setattr(measures, "_pool", pool)
    monkeypatch.setattr(measures, "_SPLIT_ENTRIES", 1)
    yield request.param
    if pool is not None:
        pool.shutdown()


def _chunk_case(kind, seed, L):
    """``(40, L)`` and ``(m, L)`` values with exact ties in the first columns,
    with weights for ``kind``: matched uniform (m = 40), uniform of unequal
    counts (m = 31), or weighted with zero weights on both sides."""
    n, m = 40, 40 if kind == "matched" else 31
    rng = np.random.default_rng(seed)
    u, v = rng.normal(size=(n, L)), rng.normal(size=(m, L)) + 0.2
    u[:, :4], v[:, :4] = np.round(u[:, :4], 1), np.round(v[:, :4], 1)
    if kind != "weighted":
        return u, v, None, None
    a, b = rng.uniform(0.0, 2.0, n), rng.uniform(0.5, 1.0, m)
    a[::7], b[3::5] = 0.0, 0.0
    return u, v, a / a.sum(), b / b.sum()


class TestChunkedLineKernel:
    """The line kernel runs each block's slices in chunks of at most
    ``_CHUNK_ENTRIES`` atom-slice entries (``_MERGE_CHUNK_ENTRIES`` where
    weights merge), each chunk one block of rows; L = 23 is a prime, so 3
    and 5 rows divide neither the call nor a block, and 30 rows take it
    whole."""

    @pytest.mark.parametrize("layout", ["c", "fortran"])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("kind", ["matched", "uniform", "weighted"])
    @pytest.mark.parametrize("rows", [1, 3, 5, 30])
    def test_chunks_are_the_whole_body(self, workers, monkeypatch, rows, kind, p, layout):
        L = 23
        u, v, a, b = _chunk_case(kind, rows, L)
        u, v = LAYOUTS[layout](u), LAYOUTS[layout](v)
        for name in ("_CHUNK_ENTRIES", "_MERGE_CHUNK_ENTRIES"):
            monkeypatch.setattr(measures, name, rows * (len(u) + len(v)))
        chunk, widths = measures._chunk_costs, []
        monkeypatch.setattr(measures, "_chunk_costs",
                            lambda u, *rest: widths.append(len(u)) or chunk(u, *rest))
        same = unchanged(u, v, *(w for w in (a, b) if w is not None))
        got = wasserstein_1d_batched(u, v, a, b, p)
        want = batched_costs_whole(u, v, validate_weights(a, len(u)),
                                   validate_weights(b, len(v)), p)
        assert np.array_equal(got, want)
        assert same()
        blocks = [L] if workers == 1 else [11, 12]
        assert sum(widths) == L and max(widths) == min(rows, max(blocks))
        assert len(widths) == sum(-(-block // rows) for block in blocks)

    def test_a_column_past_one_chunk_is_a_chunk_of_its_own(self, workers, monkeypatch):
        rng = np.random.default_rng(9)
        u, v = rng.normal(size=(measures._CHUNK_ENTRIES, 3)), rng.normal(size=(7, 3))
        b = np.full(7, 1.0 / 7)
        chunk, widths = measures._chunk_costs, []
        monkeypatch.setattr(measures, "_chunk_costs",
                            lambda u, *rest: widths.append(len(u)) or chunk(u, *rest))
        got = wasserstein_1d_batched(u, v, None, b)
        want = batched_costs_whole(u, v, validate_weights(None, len(u)), b, 2.0)
        assert np.array_equal(got, want)
        assert widths == [1, 1, 1]


class TestCircleW2VsUniform:
    def test_dirac_is_one_twelfth(self):
        mu = build_circle_profile([0.5], [1.0])
        assert circle_w2_vs_uniform(mu) == pytest.approx(1 / 12, abs=1e-15)
        # independent geodesic-integral oracle
        assert circle_w2_uniform_dirac(0.5) == pytest.approx(1 / 12, abs=1e-9)

    def test_two_antipodal_atoms(self):
        mu = build_circle_profile([0.0, 0.5])
        assert circle_w2_vs_uniform(mu) == pytest.approx(1 / 48, abs=1e-15)

    def test_rotation_invariant(self):
        rng = np.random.default_rng(5)
        angles = rng.random(8)
        w = rng.random(8)
        w /= w.sum()
        base = circle_w2_vs_uniform(build_circle_profile(angles, w))
        for shift in (0.1, 0.33, 0.77):
            rotated = circle_w2_vs_uniform(build_circle_profile(angles + shift, w))
            assert rotated == pytest.approx(base, abs=1e-10)

    def test_uniform_grid_vanishes(self):
        n = 1000
        mu = build_circle_profile((np.arange(n) + 0.5) / n)
        assert circle_w2_vs_uniform(mu) <= 1.0 / n**2

    def test_general_weights_path_matches_uniform_path(self):
        rng = np.random.default_rng(6)
        angles = rng.random(9)
        general = circle_w2_vs_uniform(
            build_circle_profile(angles, np.full(9, 1 / 9) + 0.0)
        )
        # force the general-weights branch with an imperceptible perturbation
        w = np.full(9, 1 / 9)
        w[0] += 1e-10
        w[1] -= 1e-10
        perturbed = circle_w2_vs_uniform(build_circle_profile(angles, w))
        assert perturbed == pytest.approx(general, abs=1e-8)


class TestCircleW1LevelMedian:
    def test_antipodal_diracs(self):
        mu = build_circle_profile([0.25], [1.0])
        nu = build_circle_profile([0.75], [1.0])
        assert circle_w1_level_median(mu, nu) == pytest.approx(0.5, abs=1e-15)

    def test_wraparound_distance(self):
        mu = build_circle_profile([0.1], [1.0])
        nu = build_circle_profile([0.9], [1.0])
        assert circle_w1_level_median(mu, nu) == pytest.approx(0.2, abs=1e-15)

    def test_identity(self):
        rng = np.random.default_rng(8)
        mu = build_circle_profile(rng.random(6))
        assert circle_w1_level_median(mu, mu) == pytest.approx(0.0, abs=1e-15)

    def test_cyclic_shift_invariance(self):
        rng = np.random.default_rng(21)
        a1, a2 = rng.random(6), rng.random(5)
        w2 = rng.random(5)
        w2 /= w2.sum()
        base = circle_w1_level_median(
            build_circle_profile(a1), build_circle_profile(a2, w2)
        )
        for shift in (0.15, 0.62, 0.9):
            rotated = circle_w1_level_median(
                build_circle_profile(a1 + shift),
                build_circle_profile(a2 + shift, w2),
            )
            assert rotated == pytest.approx(base, abs=1e-10)

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(3):
            mu = build_circle_profile(rng.random(4))
            nu = build_circle_profile(rng.random(5))
            got = circle_w1_level_median(mu, nu)
            want = circle_wpp_grid(
                mu.angles, mu.weights, nu.angles, nu.weights, p=1, n_grid=400
            )
            assert got == pytest.approx(want, abs=2e-3)
            assert got <= want + 1e-10


class TestCircleBinarySearch:
    def test_diracs_squared(self):
        mu = build_circle_profile([0.1], [1.0])
        nu = build_circle_profile([0.9], [1.0])
        got = circle_wp_binary_search(mu, nu, p=2, eps=1e-6)
        assert got == pytest.approx(0.04, abs=1e-6)

    def test_identity(self):
        rng = np.random.default_rng(10)
        mu = build_circle_profile(rng.random(7))
        assert circle_wp_binary_search(mu, mu, p=2, eps=1e-6) <= 1e-12

    def test_p1_agrees_with_level_median(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            mu = build_circle_profile(rng.random(8))
            nu = build_circle_profile(rng.random(8))
            bs = circle_wp_binary_search(mu, nu, p=1, eps=1e-8)
            lm = circle_w1_level_median(mu, nu)
            assert bs == pytest.approx(lm, abs=1e-5)

    def test_agrees_with_uniform_closed_form_on_fine_grid(self):
        rng = np.random.default_rng(12)
        mu = build_circle_profile(rng.random(20))
        n = 1000
        grid = build_circle_profile((np.arange(n) + 0.5) / n)
        bs = circle_wp_binary_search(mu, grid, p=2, eps=1e-8)
        closed = circle_w2_vs_uniform(mu)
        assert bs == pytest.approx(closed, abs=1e-3)

    def test_cyclic_shift_invariance(self):
        rng = np.random.default_rng(13)
        a1, a2 = rng.random(6), rng.random(7)
        w2 = rng.random(7)
        w2 /= w2.sum()
        base = circle_wp_binary_search(
            build_circle_profile(a1), build_circle_profile(a2, w2), p=2, eps=1e-9
        )
        for shift in (0.2, 0.55):
            rotated = circle_wp_binary_search(
                build_circle_profile(a1 + shift),
                build_circle_profile(a2 + shift, w2),
                p=2,
                eps=1e-9,
            )
            assert rotated == pytest.approx(base, abs=1e-10)

    def test_bad_eps(self):
        mu = build_circle_profile([0.1], [1.0])
        with pytest.raises(InvalidInput):
            circle_wp_binary_search(mu, mu, p=2, eps=0.0)

    def test_matches_grid_oracle_p2(self):
        rng = np.random.default_rng(14)
        mu = build_circle_profile(rng.random(4))
        nu = build_circle_profile(rng.random(4))
        got = circle_wp_binary_search(mu, nu, p=2, eps=1e-9)
        want = circle_wpp_grid(
            mu.angles, mu.weights, nu.angles, nu.weights, p=2, n_grid=500
        )
        assert got <= want + 1e-9
        assert got == pytest.approx(want, abs=2e-3)


def _integer_grid_rows(rng, L, n, m, zeros):
    """Sorted integer-grid atoms with repeats, and integer weights of equal
    row totals over a power of two, so cumulative weights tie exactly."""
    x = np.sort(rng.integers(-3, 4, size=(L, n)), axis=-1).astype(float)
    y = np.sort(rng.integers(-3, 4, size=(L, m)), axis=-1).astype(float)
    a = rng.integers(0 if zeros else 1, 4, size=(L, n))
    a[:, rng.integers(n)] += 1
    b = np.stack([rng.multinomial(total, np.full(m, 1.0 / m)) for total in a.sum(axis=-1)])
    return x, a / 8.0, y, b / 8.0


def _dual_outcome(kernel, *args):
    try:
        return kernel(*args)
    except (InvalidInput, MassMismatch) as err:
        return type(err), str(err)


class TestFlatGatherDifferential:
    """The dual kernel, ``_ahead`` and the weighted circle ``W_1`` read
    through flat positions give the bits of their 2-D gather bodies."""

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("n, m", [(1, 1), (1, 6), (6, 1), (5, 5), (7, 4), (3, 9)])
    @pytest.mark.parametrize("zeros", [False, True])
    def test_dual_on_integer_grids_with_ties(self, p, n, m, zeros):
        rng = np.random.default_rng([n, m, int(2 * p), zeros])
        for _ in range(20):
            rows = _integer_grid_rows(rng, 6, n, m, zeros)
            f, g = dual_1d_batched(*rows, p)
            f_ref, g_ref = dual_1d_batched_gathers(*rows, p)
            assert np.array_equal(f, f_ref) and np.array_equal(g, g_ref)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("kind, n", [("uniform", 9), ("equal", 9), ("zero", 9),
                                         ("uniform", 1), ("uniform", 2), ("equal", 2)])
    def test_dual_on_matched_rows(self, monkeypatch, kind, n, p):
        """Equal, strictly rising levels on both sides skip the merge; a zero
        weight repeats a level and takes it."""
        rng = np.random.default_rng([n, int(2 * p)])
        x, y = np.sort(rng.normal(size=(2, 6, n)), axis=-1)
        a = np.full((6, n), 1.0 / n) if kind == "uniform" else rng.uniform(0.5, 1.0, (6, n))
        if kind == "zero":
            a[:, 2:4] = 0.0
        a /= a.sum(axis=-1, keepdims=True)
        merge, merges = measures._merge, []
        monkeypatch.setattr(measures, "_merge", lambda both: merges.append(1) or merge(both))
        f, g = dual_1d_batched(x, a, y, a.copy(), p)
        assert len(merges) == (kind == "zero")
        f_ref, g_ref = dual_1d_batched_gathers(x, a, y, a.copy(), p)
        assert np.array_equal(f, f_ref) and np.array_equal(g, g_ref)

    @pytest.mark.parametrize("seed", range(4))
    def test_dual_errors_match(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        x, a, y, b = _integer_grid_rows(rng, 5, 6, 4, zeros=True)
        got = _dual_outcome(dual_1d_batched, x, a, y, 1.5 * b, 2.0)
        assert got[0] is MassMismatch
        assert got == _dual_outcome(dual_1d_batched_gathers, x, a, y, 1.5 * b, 2.0)
        # the staircase is feasible by construction; columns taken in
        # reverse on unsorted atoms are not
        ranks = measures._ranks
        monkeypatch.setattr(measures, "_ranks", lambda *args: ranks(*args)[:, ::-1].copy())
        x, y = rng.normal(size=x.shape), rng.normal(size=y.shape)
        got = _dual_outcome(dual_1d_batched, x, a, y, b, 2.0)
        assert got[0] is InvalidInput and "feasibility" in got[1]
        assert got == _dual_outcome(dual_1d_batched_gathers, x, a, y, b, 2.0)

    @pytest.mark.parametrize("n, m", [(1, 1), (1, 5), (5, 1), (40, 40), (33, 17)])
    def test_ahead_on_merges_with_ties(self, n, m):
        rng = np.random.default_rng([n, m])
        halves = [np.sort(rng.integers(0, 6, size=(8, k)), axis=-1) for k in (n, m)]
        order = measures._merge(np.concatenate(halves, axis=-1).astype(float))
        assert np.array_equal(measures._ahead(order.copy(), n), ahead_masked(order, n))

    @pytest.mark.parametrize("n, m", [(1, 1), (1, 6), (6, 6), (9, 4)])
    def test_weighted_circle_w1(self, n, m):
        rng = np.random.default_rng([n, m])
        for _ in range(10):
            x = rng.integers(0, 8, size=(5, n)) / 8.0
            y = rng.integers(0, 8, size=(5, m)) / 8.0
            a, b = rng.integers(0, 3, size=n) + 0.0, rng.integers(0, 3, size=m) + 0.0
            a[0] += 1.0
            b[-1] += 1.0
            args = (x, y, a / a.sum(), b / b.sum())
            assert np.array_equal(circle_w1_batched(*args), circle_w1_along_axis(*args))


def _mod_edge_values():
    """Finite doubles where a reduction modulo 1 could go wrong: random bit
    patterns, integers small and past 2^53, signed zeros, subnormals, and
    the neighbours of integers on both sides."""
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2**64, size=200_000, dtype=np.uint64).view(np.float64)
    ints = np.concatenate([np.arange(-1000.0, 1001.0), 2.0 ** np.arange(50, 60),
                           -(2.0 ** np.arange(50, 60)), [1e300, -1e300]])
    tiny = np.finfo(float).smallest_subnormal * rng.integers(1, 2**52, size=1000)
    near = np.concatenate([np.nextafter(ints, np.inf), np.nextafter(ints, -np.inf)])
    values = np.concatenate([bits, ints, [0.0, -0.0], tiny, -tiny, near])
    return values[np.isfinite(values)]


class TestCircleReduction:
    """Angles are reduced to the circle by ``a - floor(a)``, which is
    ``np.mod(a, 1.0)`` bit for bit on finite doubles."""

    def test_floor_difference_is_mod_on_edge_values(self):
        a = _mod_edge_values()
        assert np.array_equal((a - np.floor(a)).view(np.int64), np.mod(a, 1.0).view(np.int64))
        rows = a[: a.size // 500 * 500].reshape(500, -1)
        angles, weights, cum = measures._circle_rows(rows)
        assert np.array_equal(angles.view(np.int64),
                              np.sort(np.mod(rows, 1.0), axis=-1).view(np.int64))
        # one cumulative row for all rows, as each row cumulated on its own
        each = np.cumsum(np.full(rows.shape, 1.0 / rows.shape[1]), axis=-1)
        each /= each[:, -1:]
        assert np.all(weights == 1.0 / rows.shape[1]) and np.array_equal(cum, each)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_solvers_match_oracles_outside_the_unit_interval(self, weighted):
        """Negative angles, angles above 1, exact integers and -0.0, against
        one oracle profile per row, and bit for bit against the angles
        reduced beforehand."""
        rng = np.random.default_rng(12)
        L, n = 6, 9
        x = rng.random((L, n)) + rng.integers(-3, 4, size=(L, n))
        y = rng.random((L, n)) + rng.integers(-3, 4, size=(L, n))
        x[:, 0], x[:, 1], y[:, 2] = -0.0, rng.integers(-3, 4, size=L), 2.0
        x[:, 3] = y[:, 4] = -0.25
        a = b = None
        if weighted:
            a, b = rng.uniform(0.0, 1.0, n), rng.uniform(0.5, 1.0, n)
            a[::4] = 0.0
            a, b = a / a.sum(), b / b.sum()
        same = unchanged(x, y)
        solvers = [lambda u, v: circle_w2_uniform_batched(u, a),
                   lambda u, v: circle_w1_batched(u, v, a, b),
                   lambda u, v: circle_wp_batched(u, v, a, b, p=1.5, eps=1e-9),
                   lambda u, v: circle_wp_batched(u, v, a, b, p=2.0, eps=1e-9)]
        got = [solve(x, y) for solve in solvers]
        assert same()
        for values, solve in zip(got, solvers):
            assert np.array_equal(values, solve(np.mod(x, 1.0), np.mod(y, 1.0)))
        for ell in range(L):
            mu, nu = circle_profile(x[ell], a), circle_profile(y[ell], b)
            want = [circle_w2_vs_uniform_profile(mu), circle_w1_level_median_profile(mu, nu),
                    circle_wp_bisection(mu, nu, 1.5, 1e-9), circle_wp_bisection(mu, nu, 2.0, 1e-9)]
            for values, value in zip(got, want):
                assert values[ell] == pytest.approx(value, rel=1e-12, abs=1e-15)

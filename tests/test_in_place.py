"""The line path written in place: the hyperbolic slicer coordinates and the
matched-uniform 1D kernel against their earlier out-of-place bodies, bit for
bit, with every input left as it was; and the peak memory of the sliced
distances that run them and of the weighted 1D kernel's chunks."""

import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from msot import measures, spd
from msot.errors import InvalidInput
from msot.hyperbolic import (
    HyperbolicSlicer,
    busemann_coordinate,
    geodesic_coordinate,
    ghsw,
    hhsw,
    lorentz_to_poincare,
    sample_wrapped_normal,
)
from msot.measures import sort_slices, wasserstein_1d_batched, wasserstein_1d_sorted
from msot.sliced import DirectionSet, sample_directions, sw_p
from oracles import (
    busemann_coordinate_out_of_place,
    geodesic_coordinate_out_of_place,
    paired_cost_out_of_place,
    sorted_rows_out_of_place,
    uniform_w1d_out_of_place,
)
from samples import LAYOUTS, sample_spd_cloud, unchanged

D = 4


def _lorentz(n, seed):
    mean = np.zeros(D + 1)
    mean[0], mean[1] = np.sqrt(2.0), 1.0
    return sample_wrapped_normal(mean, 0.5 * np.eye(D), n, seed=seed)


def _poincare(n, seed):
    """Ball points, with some on the hyperplane ``<x, e_1> = 0`` (the
    ``s = 0`` branch along the first direction) and some within 1e-6 to
    1e-12 of the boundary, on ``-e_1`` up to the last double above -1 (the
    arctanh clip; near ``e_1`` itself the Busemann function is ``-inf``)."""
    rng = np.random.default_rng(seed)
    on_plane = rng.uniform(-0.5, 0.5, (6, D))
    on_plane[:, 0] = 0.0
    edge = rng.normal(size=(8, D))
    edge *= (1.0 - 10.0 ** -rng.uniform(6.0, 12.0, 8))[:, None] / np.linalg.norm(
        edge, axis=1, keepdims=True)
    radii = np.array([-1.0 + 1e-12, np.nextafter(-1.0, 0.0)])
    on_axis = radii[:, None] * np.eye(D)[0]
    return np.vstack([lorentz_to_poincare(_lorentz(n, seed)), on_plane, np.zeros((1, D)),
                      edge, on_axis])


def _ideal(L=40):
    """Unit directions whose first row is ``e_1``."""
    ideal = sample_directions(D, L, seed=5).dirs.copy()
    ideal[0] = np.eye(D)[0]
    return ideal


CLOUDS = {"lorentz": _lorentz, "poincare": _poincare}


@pytest.mark.parametrize("model", ["lorentz", "poincare"])
class TestHyperbolicCoordinates:
    def test_geodesic_coordinate_is_the_out_of_place_body(self, model):
        x, ideal = CLOUDS[model](60, 1), _ideal()
        same = unchanged(x, ideal)
        got = geodesic_coordinate(x, ideal, model=model)
        assert np.array_equal(got, geodesic_coordinate_out_of_place(x, ideal, model))
        assert same()

    def test_busemann_coordinate_is_the_out_of_place_body(self, model):
        x, ideal = CLOUDS[model](60, 2), _ideal()
        same = unchanged(x, ideal)
        got = busemann_coordinate(x, ideal, model=model)
        assert np.array_equal(got, busemann_coordinate_out_of_place(x, ideal, model))
        assert same()

    @pytest.mark.parametrize("kind", ["geodesic", "horospherical"])
    def test_slicer_coordinates(self, model, kind):
        x, ideal = CLOUDS[model](60, 3), _ideal()
        same = unchanged(x, ideal)
        got = HyperbolicSlicer(DirectionSet(ideal, 0), model, kind).coordinates(x)
        want = (geodesic_coordinate_out_of_place(x, ideal, model) if kind == "geodesic"
                else -busemann_coordinate_out_of_place(x, ideal, model))
        assert np.array_equal(got, want)
        assert same()


def test_poincare_cloud_reaches_both_branches():
    """The Poincare inputs above hit ``<x, v> = 0`` exactly and the clip."""
    x, ideal = _poincare(60, 1), _ideal()
    assert np.any(x @ ideal.T == 0.0)
    got = geodesic_coordinate(x, ideal, model="poincare")
    assert np.any(np.abs(got) == 2.0 * np.arctanh(1.0 - 1e-15))


def test_spd_horospherical_slicer_negates_the_busemann_batch():
    x = sample_spd_cloud(3, 20, seed=4)
    slices = spd.sample_unit_symmetric(3, 15, seed=2)
    same = unchanged(x, slices)
    got = spd.SpdSlicer(slices, kind="horospherical").coordinates(x)
    assert np.array_equal(got, -spd._busemann_ai_batch(x, slices))
    assert same()


def _columns(n, L, seed):
    """``(n, L)`` coordinates with exact ties in the first columns."""
    values = np.random.default_rng(seed).normal(size=(n, L))
    values[:, :3] = np.round(values[:, :3], 1)
    return values


@pytest.mark.parametrize("layout", list(LAYOUTS))
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
class TestUniformLineKernel:
    def test_batched_is_the_out_of_place_body(self, layout, p):
        u, v = (LAYOUTS[layout](_columns(50, 12, s)) for s in (0, 1))
        same = unchanged(u, v)
        got = wasserstein_1d_batched(u, v, p=p)
        assert np.array_equal(got, uniform_w1d_out_of_place(u, v, p))
        assert same()

    def test_sorted_halves_are_the_out_of_place_bodies(self, layout, p):
        u, v = (LAYOUTS[layout](_columns(50, 12, s)) for s in (2, 3))
        same = unchanged(u, v)
        su, sv = sort_slices(u), sort_slices(v)
        assert same()
        assert np.array_equal(su.rows, sorted_rows_out_of_place(u))
        assert np.array_equal(sv.rows, sorted_rows_out_of_place(v))
        sorted_same = unchanged(su.rows, sv.rows, su.cum, sv.cum)
        got = wasserstein_1d_sorted(su, sv, p)
        assert np.array_equal(got, paired_cost_out_of_place(su.rows, sv.rows, 1.0 / 50, p))
        # a matrix compares each sorted measure with many others
        assert sorted_same()
        assert np.array_equal(got, wasserstein_1d_batched(u, v, p=p))


def _same_bits(a, b):
    return a.dtype == b.dtype and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_powered_is_each_expression_it_replaces(p):
    """``measures._powered`` writes ``|d|^p`` over ``d`` with the bits of the
    expressions the 1D solvers wrote out: ``d * d`` at p = 2, ``np.abs(d) **
    p`` and the abs then square or power of ``_paired_cost``."""
    rng = np.random.default_rng(int(2 * p))
    d = rng.normal(size=(5, 40)) * 10.0 ** rng.uniform(-8.0, 8.0, (5, 40))
    d[:, :4] = [0.0, -0.0, 1.0, -1.0]
    paired = np.abs(d)
    if p == 2:
        np.square(paired, out=paired)
    elif p != 1:
        np.power(paired, p, out=paired)
    wants = [np.abs(d) ** p, paired] + ([d * d] if p == 2 else [])
    work = d.copy()
    got = measures._powered(work, p)
    assert got is work
    assert all(_same_bits(got, want) for want in wants)


def test_weighted_kernel_leaves_its_inputs():
    u = np.asfortranarray(_columns(30, 8, 4))
    v = np.ascontiguousarray(_columns(20, 8, 5).T).T
    a, b = np.full(30, 2.0 / 30), np.linspace(1.0, 2.0, 20)
    b *= 2.0 / np.sum(b)
    same = unchanged(u, v, a, b)
    wasserstein_1d_batched(u, v, a, b, p=2.0)
    sort_slices(u, a)
    assert same()


@pytest.mark.parametrize("values", [np.zeros(3), np.zeros((2, 3, 4)), 1.0])
def test_line_kernels_reject_values_not_one_column_per_slice(values):
    with pytest.raises(InvalidInput, match=r"values must be an \(n, L\) array"):
        wasserstein_1d_batched(values, np.zeros((3, 1)))
    with pytest.raises(InvalidInput, match=r"values must be an \(n, L\) array"):
        wasserstein_1d_batched(np.zeros((3, 1)), values)
    with pytest.raises(InvalidInput, match=r"values must be an \(n, L\) array"):
        sort_slices(values)


def _peak_bytes(call):
    """Peak traced bytes of ``call()`` above what was live before it."""
    call()  # warm: lazy set-up is not the call's
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _hyperbolic_call(distance, model):
    dirs = sample_directions(5, 500, seed=1)
    x, y = (sample_wrapped_normal(np.r_[np.sqrt(1.0 + s * s), s, 0, 0, 0, 0],
                                  0.5 * np.eye(5), 1000, seed=3 + k)
            for k, s in enumerate((0.0, 1.0)))
    if model == "poincare":
        x, y = lorentz_to_poincare(x), lorentz_to_poincare(y)
    return lambda: distance(x, y, dirs, model=model), 1000 * 500


def _sw_call():
    dirs = sample_directions(10, 500, seed=1)
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(2000, 10)), rng.normal(size=(2000, 10)) + 1.0
    return lambda: sw_p(x, y, dirs), 2000 * 500


@pytest.mark.parametrize("case", ["ghsw-lorentz", "hhsw-lorentz", "ghsw-poincare",
                                  "hhsw-poincare", "sw_p-uniform"])
def test_line_path_peak_is_at_most_four_and_a_half_coordinate_arrays(case):
    """Both clouds' ``(n, L)`` coordinates and one sorted copy of each are
    four arrays; the earlier out-of-place path held six."""
    name, model = case.split("-")
    call, entries = (_sw_call() if name == "sw_p"
                     else _hyperbolic_call({"ghsw": ghsw, "hhsw": hhsw}[name], model))
    assert _peak_bytes(call) <= 4.5 * entries * 8


@pytest.mark.parametrize("workers", [1, 2])
def test_weighted_kernel_peak_is_bounded_by_chunks_and_workers(monkeypatch, workers):
    """Each worker holds the sorts, merge, gathers and ``|d|^p`` of one chunk
    of columns at a time, at most six arrays of ``_CHUNK_ENTRIES`` entries
    (4.8 at numpy 2.4). The call's whole ``(L, n + m)`` levels array alone
    would be past that."""
    rng = np.random.default_rng(6)
    n, m, L = 3000, 2500, 500
    u, v = rng.normal(size=(n, L)), rng.normal(size=(m, L))
    a, b = rng.uniform(0.0, 1.0, n), rng.uniform(0.5, 1.0, m)
    a[::11] = 0.0
    a, b = a / a.sum(), b / b.sum()
    bound = 6 * measures._CHUNK_ENTRIES * 8 * workers
    assert L * (n + m) * 8 > bound and (n + m) * L >= measures._SPLIT_ENTRIES
    pool = ThreadPoolExecutor(workers) if workers > 1 else None
    monkeypatch.setattr(measures, "_WORKERS", workers)
    monkeypatch.setattr(measures, "_pool", pool)
    try:
        assert _peak_bytes(lambda: wasserstein_1d_batched(u, v, a, b, p=1.5)) <= bound
    finally:
        if pool is not None:
            pool.shutdown()

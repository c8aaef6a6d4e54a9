"""Slice-major coordinates: every line slicer returns ``(n, L)`` coordinates
whose columns are contiguous, the transpose of a C-ordered ``(L, n)`` array.
The line kernels give the same bits on C- and Fortran-ordered copies of the
same coordinates, pooled and on one thread, and the slice-major product
stays within rounding of the atom-major ``x @ dirs.T``."""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import pytest

from msot import measures
from msot.hyperbolic import HyperbolicSlicer, ghsw, lorentz_to_poincare, sample_wrapped_normal
from msot.measures import (
    sort_slices,
    sorted_rows,
    wasserstein_1d_batched,
    wasserstein_1d_sorted,
)
from msot.sliced import EuclideanSlicer, sample_directions, sliced_cost_matrix, sw_p
from msot.spd import SpdSlicer, coordinate_le, sample_unit_symmetric, spd_log, spdsw
from samples import LAYOUTS, sample_spd_cloud

EPS = np.finfo(float).eps


def _lorentz(n, d, seed, shift=0.0):
    mean = np.zeros(d + 1)
    mean[0], mean[1] = np.sqrt(1.0 + shift * shift), shift
    return sample_wrapped_normal(mean, 0.5 * np.eye(d), n, seed=seed)


def _hyperbolic(model, kind):
    x = _lorentz(80, 4, seed=1)
    x = lorentz_to_poincare(x) if model == "poincare" else x
    return HyperbolicSlicer(sample_directions(4, 37, seed=2), model, kind), x


SLICERS = {
    "euclidean": lambda: (EuclideanSlicer(sample_directions(6, 37, seed=2)),
                          np.random.default_rng(0).normal(size=(80, 6))),
    **{f"hyperbolic-{model}-{kind}": (lambda m=model, k=kind: _hyperbolic(m, k))
       for model in ("lorentz", "poincare") for kind in ("geodesic", "horospherical")},
    **{f"spd-{kind}": (lambda k=kind: (SpdSlicer(sample_unit_symmetric(3, 37, seed=2), k),
                                       sample_spd_cloud(3, 80, seed=1)))
       for kind in ("geodesic", "horospherical")},
}


@pytest.mark.parametrize("name", list(SLICERS))
@pytest.mark.parametrize("layout", list(LAYOUTS))
def test_slicers_return_contiguous_columns(name, layout):
    """Whatever the layout of the atoms, one contiguous column per slice."""
    slicer, x = SLICERS[name]()
    got = slicer.coordinates(LAYOUTS[layout](x) if x.ndim == 2 else x)
    assert got.shape == (80, 37)
    assert got.flags.f_contiguous and not got.flags.c_contiguous
    assert np.array_equal(got, slicer.coordinates(np.ascontiguousarray(x)))


@pytest.fixture(params=[1, 2], ids=["one-thread", "pooled"])
def workers(request, monkeypatch):
    """The line kernels on one thread (no pool is built) or on two workers."""
    pool = ThreadPoolExecutor(request.param) if request.param > 1 else None
    monkeypatch.setattr(measures, "_WORKERS", request.param)
    monkeypatch.setattr(measures, "_pool", pool)
    yield request.param
    if pool is not None:
        pool.shutdown()


def _case(kind, n, m, L, seed):
    """C-ordered ``(n, L)`` and ``(m, L)`` coordinates with weights for
    ``kind``: matched uniform, uniform with exact ties in every column, or
    weighted with zero weights."""
    rng = np.random.default_rng(seed)
    u, v = rng.normal(size=(n, L)), rng.normal(size=(m, L)) + 0.3
    if kind == "ties":
        u, v = np.round(u, 1), np.round(v, 1)
    if kind != "weighted":
        return u, v, None, None
    a, b = rng.uniform(0.0, 2.0, n), rng.uniform(0.5, 1.0, m)
    a[::9] = 0.0
    return u, v, a / a.sum(), b / b.sum()


KINDS = ["uniform", "ties", "weighted"]
ORDERS = [1.0, 1.5, 2.0]


@pytest.mark.parametrize("p", ORDERS)
@pytest.mark.parametrize("kind", KINDS)
def test_batched_kernel_is_layout_blind(workers, kind, p):
    """Past the pool's split and over several chunks of columns."""
    u, v, a, b = _case(kind, 2100, 2100 if kind != "weighted" else 2050, 64, seed=1)
    assert (len(u) + len(v)) * 64 >= measures._SPLIT_ENTRIES
    want = wasserstein_1d_batched(u, v, a, b, p=p)
    got = wasserstein_1d_batched(np.asfortranarray(u), np.asfortranarray(v), a, b, p=p)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("p", ORDERS)
@pytest.mark.parametrize("kind", KINDS)
def test_sorted_halves_are_layout_blind(kind, p):
    u, v, a, b = _case(kind, 300, 300 if kind != "weighted" else 250, 40, seed=2)
    sides = [(sort_slices(u, a), sort_slices(v, b)),
             (sort_slices(np.asfortranarray(u), a), sort_slices(np.asfortranarray(v), b))]
    for (c, f) in zip(*sides):
        assert np.array_equal(c.rows, f.rows) and np.array_equal(c.cum, f.cum)
    want, got = (wasserstein_1d_sorted(su, sv, p) for su, sv in sides)
    assert np.array_equal(got, want)
    assert np.array_equal(got, wasserstein_1d_batched(u, v, a, b, p=p))


@pytest.mark.parametrize("kind", KINDS)
def test_sorted_rows_are_layout_blind(kind):
    u = _case(kind, 300, 300, 40, seed=3)[0]
    (rows, order), (f_rows, f_order) = sorted_rows(u), sorted_rows(np.asfortranarray(u))
    assert np.array_equal(rows, f_rows) and np.array_equal(order, f_order)


@dataclass(frozen=True)
class LayoutSlicer:
    """Euclidean projections handed over in a chosen layout."""

    dirs: np.ndarray
    layout: str

    def coordinates(self, points):
        return LAYOUTS[self.layout](np.asarray(points) @ self.dirs.T)


@pytest.mark.parametrize("p", ORDERS)
@pytest.mark.parametrize("weighted", [False, True])
def test_matrix_is_layout_blind(workers, weighted, p):
    """Five clouds past the pair gate, so that the pairs pool."""
    rng = np.random.default_rng(4)
    L, n = 64, measures._SPLIT_ENTRIES // 128 + 7
    clouds = [rng.normal(size=(n, 3)) + 0.1 * k for k in range(5)]
    clouds[0][:, 0] = np.round(clouds[0][:, 0], 1)
    weights = None
    if weighted:
        weights = [rng.uniform(0.0, 1.0, n) for _ in clouds]
        weights = [w / w.sum() for w in weights]
    dirs = sample_directions(3, L, seed=5).dirs
    want, got = (sliced_cost_matrix(LayoutSlicer(dirs, layout), clouds, p, weights)
                 for layout in ("c", "fortran"))
    assert np.array_equal(got, want)


def _dot_bound(x, dirs):
    """How far two summation orders of every ``<x_i, theta_l>`` may differ:
    ``d eps sum_k |x_ik theta_lk|``."""
    return x.shape[1] * EPS * (np.abs(x) @ np.abs(dirs).T)


@pytest.mark.parametrize("n, d, L", [(2000, 10, 500), (1000, 5, 500), (1000, 10, 200)])
def test_projection_is_the_atom_major_product_within_rounding(n, d, L):
    """The benchmark's shapes: a few coordinates move in their last bits
    (none at L = 200), within the dot-product bound, and ``sw_p`` stays
    within 1e-12 of the atom-major route, uniform and weighted."""
    rng = np.random.default_rng(6)
    x, y = rng.normal(size=(n, d)), rng.normal(size=(n, d)) + 1.0
    dirs = sample_directions(d, L, seed=7)
    got, atom_major = EuclideanSlicer(dirs).coordinates(x), x @ dirs.dirs.T
    assert np.all(np.abs(got - atom_major) <= _dot_bound(x, dirs.dirs))
    a = rng.uniform(0.5, 1.0, n)
    for w in (None, a / a.sum()):
        want = np.mean(wasserstein_1d_batched(atom_major, y @ dirs.dirs.T, w))
        assert abs(sw_p(x, y, dirs, x_weights=w) - want) <= 1e-12 * want


def test_hyperbolic_and_spd_within_rounding_of_atom_major():
    """The Lorentz geodesic coordinate and ``ghsw`` on the benchmark's 1000 x
    5 x 500 shape, and the Log-Euclidean coordinate and ``spdsw``, against
    their atom-major products."""
    x, y = _lorentz(1000, 5, seed=8), _lorentz(1000, 5, seed=9, shift=1.0)
    dirs = sample_directions(5, 500, seed=10)

    def atom_major(pts):
        ratio = np.clip((pts[:, 1:] @ dirs.dirs.T) / pts[:, :1], -1.0 + 1e-15, 1.0 - 1e-15)
        return np.arctanh(ratio)

    got = HyperbolicSlicer(dirs).coordinates(x)
    bound = _dot_bound(x[:, 1:], dirs.dirs) / x[:, :1] / (1.0 - np.tanh(got) ** 2)
    assert np.all(np.abs(got - atom_major(x)) <= 2.0 * bound + 4.0 * EPS * np.abs(got))
    want = np.mean(wasserstein_1d_batched(atom_major(x), atom_major(y)))
    assert abs(ghsw(x, y, dirs) - want) <= 1e-12 * want

    sx, sy = sample_spd_cloud(3, 200, seed=11), sample_spd_cloud(3, 200, seed=12, spread=1.5)
    slices = sample_unit_symmetric(3, 100, seed=13)
    flat = slices.reshape(100, -1)
    logs = spd_log(sx).reshape(200, -1)
    assert np.all(np.abs(coordinate_le(sx, slices) - logs @ flat.T) <= _dot_bound(logs, flat))
    want = np.mean(wasserstein_1d_batched(logs @ flat.T, spd_log(sy).reshape(200, -1) @ flat.T))
    assert abs(spdsw(sx, sy, slices) - want) <= 1e-12 * want

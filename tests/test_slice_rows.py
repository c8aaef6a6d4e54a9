"""The slicer row protocol: every package slicer prepares a cloud once and
maps any block of slices ``[lo, hi)`` to C-ordered ``(hi - lo, n)`` rows,
which are the columns of its ``coordinates`` bit for bit.  ``sliced_cost``
maps, sorts and costs those rows chunk by chunk, one block of slices per
worker, with the value of the route through whole coordinates; an object
with only ``coordinates`` still works; and ``x``'s error comes before
``y``'s wherever each is raised."""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
import pytest

from msot import measures, spd
from msot.errors import InvalidAtom, NotPositiveDefinite
from msot.hyperbolic import HyperbolicSlicer, lorentz_to_poincare, sample_wrapped_normal
from msot.measures import wasserstein_1d_batched
from msot.sliced import (
    EuclideanSlicer,
    LineSlicer,
    sample_directions,
    sliced_cost,
    sliced_cost_matrix,
)
from msot.spd import SpdSlicer, sample_unit_symmetric
from samples import sample_spd_cloud, unchanged

L = 37  # a prime: no block or chunk size divides it


def _lorentz(n, seed, shift=0.0):
    mean = np.array([np.sqrt(1.0 + shift * shift), shift, 0.0, 0.0, 0.0])
    return sample_wrapped_normal(mean, 0.5 * np.eye(4), n, seed=seed)


def _hyperbolic(model, kind):
    def make(n, seed):
        x = _lorentz(n, seed, 0.3 * (seed % 2))
        x = lorentz_to_poincare(x) if model == "poincare" else x
        return HyperbolicSlicer(sample_directions(4, L, seed=2), model, kind), x

    return make


def _spd(kind):
    return lambda n, seed: (SpdSlicer(sample_unit_symmetric(3, L, seed=2), kind),
                            sample_spd_cloud(3, n, seed=seed, spread=1.0 + 0.3 * (seed % 2)))


SLICERS = {
    "euclidean": lambda n, seed: (EuclideanSlicer(sample_directions(6, L, seed=2)),
                                  np.random.default_rng(seed).normal(size=(n, 6)) + 0.2 * seed),
    **{f"hyperbolic-{model}-{kind}": _hyperbolic(model, kind)
       for model in ("lorentz", "poincare") for kind in ("geodesic", "horospherical")},
    **{f"spd-{kind}": _spd(kind) for kind in ("geodesic", "horospherical")},
}


@pytest.fixture(params=[1, 2], ids=["one-worker", "pooled"])
def workers(request, monkeypatch):
    """One worker, or two on a pool of their own that split every kernel
    call into one block of slices each."""
    pool = ThreadPoolExecutor(request.param) if request.param > 1 else None
    monkeypatch.setattr(measures, "_WORKERS", request.param)
    monkeypatch.setattr(measures, "_pool", pool)
    monkeypatch.setattr(measures, "_SPLIT_ENTRIES", 1)
    yield request.param
    if pool is not None:
        pool.shutdown()


@pytest.mark.parametrize("n", [1, 80])
@pytest.mark.parametrize("name", list(SLICERS))
def test_row_blocks_are_the_columns(name, n):
    """Random block edges, the first block one slice wide."""
    slicer, x = SLICERS[name](n, seed=1)
    assert isinstance(slicer, LineSlicer) and slicer.n_slices == L
    same = unchanged(x)
    whole = slicer.coordinates(x)
    features = slicer.prepare(x)
    cuts = np.random.default_rng(n).choice(np.arange(2, L), size=5, replace=False)
    edges = [0, 1, *np.sort(cuts), L]
    for lo, hi in zip(edges, edges[1:]):
        rows = slicer.rows(features, lo, hi)
        assert rows.shape == (hi - lo, n) and rows.flags.c_contiguous
        assert np.array_equal(rows, whole[:, lo:hi].T)
    assert same()


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("name", list(SLICERS))
def test_sliced_cost_is_the_coordinate_route(workers, monkeypatch, name, weighted, p):
    """Chunks of five slices, the last of two; the pooled blocks hold 18
    and 19 slices.  The route through whole coordinates is the parent's."""
    slicer, x = SLICERS[name](80, seed=1)
    _, y = SLICERS[name](60, seed=2)
    a = b = None
    if weighted:
        rng = np.random.default_rng(3)
        a, b = rng.uniform(0.0, 1.0, 80), rng.uniform(0.5, 1.0, 60)
        a[::7] = 0.0
        a, b = a / a.sum(), b / b.sum()
    for chunk in ("_CHUNK_ENTRIES", "_MERGE_CHUNK_ENTRIES"):
        monkeypatch.setattr(measures, chunk, 5 * (80 + 60))
    same = unchanged(x, y, *(w for w in (a, b) if w is not None))
    want = float(np.mean(wasserstein_1d_batched(
        slicer.coordinates(x), slicer.coordinates(y), a, b, p)))
    assert sliced_cost(slicer, x, y, p, a, b) == want
    assert same()


@dataclass(frozen=True)
class CoordinatesOnly:
    """A slicer without the row protocol, returning one cached array per
    cloud in the layout ``order``."""

    slicer: object
    order: str
    cache: dict

    def coordinates(self, points):
        key = id(points)
        if key not in self.cache:
            self.cache[key] = np.asarray(self.slicer.coordinates(points), order=self.order)
        return self.cache[key]


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("name", ["euclidean", "hyperbolic-lorentz-horospherical"])
def test_an_object_with_only_coordinates_works(workers, name, order):
    slicer, x = SLICERS[name](80, seed=1)
    _, y = SLICERS[name](60, seed=2)
    _, z = SLICERS[name](70, seed=3)
    other = CoordinatesOnly(slicer, order, {})
    cached = [other.coordinates(c) for c in (x, y, z)]
    same = unchanged(*cached)
    assert sliced_cost(other, x, y, 1.5) == sliced_cost(slicer, x, y, 1.5)
    assert np.array_equal(sliced_cost_matrix(other, [x, y, z]),
                          sliced_cost_matrix(slicer, [x, y, z]))
    assert same()


def _off_at(x, i):
    bad = x.copy()
    bad[i] *= 1.5  # off the hyperboloid
    return bad


def _outside_at(x, i):
    bad = x.copy()
    bad[i] *= 1.5 / np.linalg.norm(bad[i])
    return bad


def _not_symmetric_at(x, i):
    bad = x.copy()
    bad[i, 0, 1] += 0.5
    return bad


BAD_ATOM = {
    "hyperbolic-lorentz-geodesic": _off_at,
    "hyperbolic-poincare-horospherical": _outside_at,
    "spd-geodesic": _not_symmetric_at,
}


@pytest.mark.parametrize("n_slices", [20, 300])
@pytest.mark.parametrize("name", list(BAD_ATOM))
def test_x_bad_atom_comes_before_y_bad_atom(monkeypatch, name, n_slices):
    """600 + 600 atoms: on 20 slices the kernel stays whole and the clouds
    are prepared on the pool, one task each; on 300 the kernel runs in
    blocks and the clouds are prepared on the calling thread.  x's atom 7
    is named, not y's atom 2, pooled or on one thread."""
    pool = ThreadPoolExecutor(2)
    monkeypatch.setattr(measures, "_WORKERS", 2)
    monkeypatch.setattr(measures, "_pool", pool)
    try:
        slicer, x = SLICERS[name](600, seed=1)
        _, y = SLICERS[name](600, seed=2)
        slicer = replace(slicer, **_slices(slicer, n_slices))
        x, y = BAD_ATOM[name](x, 7), BAD_ATOM[name](y, 2)
        with pytest.raises(InvalidAtom) as pooled:
            sliced_cost(slicer, x, y)
        monkeypatch.setattr(measures, "_WORKERS", 1)
        with pytest.raises(InvalidAtom) as serial:
            sliced_cost(slicer, x, y)
    finally:
        pool.shutdown()
    assert pooled.value.index == serial.value.index == 7
    assert str(pooled.value) == str(serial.value)


def _slices(slicer, n_slices):
    """The slice field of ``slicer``, drawn again with ``n_slices`` slices."""
    if isinstance(slicer, SpdSlicer):
        return {"slices": sample_unit_symmetric(3, n_slices, seed=2)}
    return {"dirs": sample_directions(slicer.dirs.dirs.shape[1], n_slices, seed=2)}


def _rotation_slices(cosines):
    """Unit-Frobenius 2 x 2 slices ``P diag(0.8, -0.6) P^T`` whose leading
    eigenvector is ``(c, sqrt(1 - c^2))``."""
    c = np.asarray(cosines)
    s = np.sqrt(1.0 - c * c)
    p = np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2)
    return np.einsum("lik,k,ljk->lij", p, np.array([0.8, -0.6]), p)


def test_x_late_ai_failure_comes_before_y_early_one(workers, monkeypatch):
    """Atoms ``diag(1e-14, 1)`` in x and ``diag(1, 1e-14)`` in y: the
    elimination's first pivot is ``1e-14 / (p_1^T M p_1)``, above the 1e-13
    floor only where ``p_1`` holds little of the small eigenvector.  On the
    first 20 of 40 slices (leading eigenvector cosine 0.1) x's atom passes
    and y's fails; on the last 20 (cosine 0.99) x's fails and y's passes.
    In chunks of five slices, pooled in two blocks of 20, x's error in the
    second block comes first.  Each cloud's error names its atom count."""
    rows = spd._horospherical_ai_rows

    def naming(sym, a_vals, a_vecs):
        try:
            return rows(sym, a_vals, a_vecs)
        except NotPositiveDefinite:
            raise NotPositiveDefinite(f"{sym.shape[1] // 2} atoms") from None

    monkeypatch.setattr(spd, "_horospherical_ai_rows", naming)
    monkeypatch.setattr(measures, "_MERGE_CHUNK_ENTRIES", 5 * (7 + 5))
    slicer = SpdSlicer(_rotation_slices([0.1] * 20 + [0.99] * 20), "horospherical")
    x, y = sample_spd_cloud(2, 7, seed=1), sample_spd_cloud(2, 5, seed=2)
    bad_x, bad_y = x.copy(), y.copy()
    bad_x[4], bad_y[1] = np.diag([1e-14, 1.0]), np.diag([1.0, 1e-14])
    fx, fy = slicer.prepare(bad_x), slicer.prepare(bad_y)
    slicer.rows(fx, 0, 20), slicer.rows(fy, 20, 40)
    with pytest.raises(NotPositiveDefinite, match="^7 atoms$"):
        slicer.rows(fx, 20, 40)
    with pytest.raises(NotPositiveDefinite, match="^5 atoms$"):
        slicer.rows(fy, 0, 20)
    with pytest.raises(NotPositiveDefinite, match="^5 atoms$"):
        sliced_cost(slicer, x, bad_y)
    with pytest.raises(NotPositiveDefinite, match="^7 atoms$"):
        sliced_cost(slicer, bad_x, bad_y)

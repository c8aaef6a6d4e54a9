"""The pooled paths against their serial bodies, bit for bit: the line kernel
in column blocks, both clouds' coordinates of a sliced cost, the per-cloud
sorts and the pair blocks of a matrix, and the great circles of ``ssw`` and
``ssw2_vs_uniform`` in frame blocks.  Also which calls stay on one thread,
which error a pooled call raises, numpy's error state inside a task, and a
forked child's own pool."""

import multiprocessing
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from msot import measures, sliced, sphere
from msot.errors import InvalidInput, MassMismatch, MeasureZeroProjection
from msot.hyperbolic import HyperbolicSlicer, ghsw, sample_wrapped_normal
from msot.measures import validate_weights, wasserstein_1d_batched
from msot.sliced import EuclideanSlicer, sample_directions, sliced_cost_matrix, sw_p
from msot.spd import spdsw, sample_unit_symmetric
from msot.sphere import sample_stiefel, ssw, ssw2_vs_uniform
from samples import LAYOUTS, sample_spd_cloud, unchanged

WORKERS = 2  # the kernel splits a large call into one block per worker


class SpyPool(ThreadPoolExecutor):
    """The shared pool, recording the function and the future of every task."""

    def __init__(self):
        super().__init__(WORKERS, thread_name_prefix="spy")
        self.tasks, self.futures = [], []

    def submit(self, fn, /, *args, **kwargs):
        future = super().submit(fn, *args, **kwargs)
        self.tasks.append(args[1])  # ``fn`` runs ``args[1]`` under ``args[0]``
        self.futures.append(future)
        return future


@pytest.fixture
def pool(monkeypatch):
    """Two workers whatever the machine or ``MSOT_THREADS``, on a spy pool."""
    spy = SpyPool()
    monkeypatch.setattr(measures, "_WORKERS", WORKERS)
    monkeypatch.setattr(measures, "_pool", spy)
    yield spy
    spy.shutdown()


def _line_case(kind, L, seed):
    """``(n, L)`` and ``(m, L)`` values with exact ties in the first column,
    just past the split threshold, with weights for ``kind``: matched
    uniform (n = m), uniform of unequal counts, or weighted."""
    n = measures._SPLIT_ENTRIES // (2 * L) + 7
    m = n if kind == "matched" else n - 5
    rng = np.random.default_rng(seed)
    u, v = rng.normal(size=(n, L)), rng.normal(size=(m, L)) + 0.3
    u[:, 0], v[:, 0] = np.round(u[:, 0], 1), np.round(v[:, 0], 1)
    if kind != "weighted":
        return u, v, None, None
    a, b = rng.uniform(0.0, 2.0, n), rng.uniform(0.5, 1.0, m)
    a[::9] = 0.0
    return u, v, a / a.sum(), b / b.sum()


@pytest.mark.parametrize("layout", list(LAYOUTS))
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("kind", ["matched", "uniform", "weighted"])
@pytest.mark.parametrize("L", [1, 3, 10, 64])
def test_kernel_blocks_are_the_serial_body(pool, L, kind, p, layout):
    """L = 1 stays whole, and L = 3 is not a multiple of the block count."""
    u, v, a, b = _line_case(kind, L, seed=L)
    u, v = LAYOUTS[layout](u), LAYOUTS[layout](v)
    same = unchanged(u, v, *(w for w in (a, b) if w is not None))
    got = wasserstein_1d_batched(u, v, a, b, p=p)
    want = measures._batched_costs(u, v, validate_weights(a, len(u)),
                                   validate_weights(b, len(v)), p)
    assert np.array_equal(got, want)
    assert same()
    blocks = min(WORKERS, L)
    assert pool.tasks == [measures._batched_costs] * (blocks if blocks > 1 else 0)


@pytest.mark.parametrize("m", [2047, 2048])
def test_kernel_splits_at_its_threshold(pool, m):
    """(2048 + m) * 64 slices is one entry-row short of 2^18, then 2^18."""
    rng = np.random.default_rng(0)
    wasserstein_1d_batched(rng.normal(size=(2048, 64)), rng.normal(size=(m, 64)))
    split = (2048 + m) * 64 >= measures._SPLIT_ENTRIES
    assert pool.tasks == [measures._batched_costs] * (WORKERS if split else 0)


def test_one_worker_builds_no_pool(monkeypatch):
    monkeypatch.setattr(measures, "_WORKERS", 1)
    monkeypatch.setattr(measures, "_pool", None)
    u, v, _, _ = _line_case("matched", 64, seed=1)
    got = wasserstein_1d_batched(u, v)
    assert measures._pool is None
    uniform = validate_weights(None, len(u))
    assert np.array_equal(got, measures._batched_costs(u, v, uniform, uniform, 2.0))


def test_small_calls_submit_nothing(pool):
    rng = np.random.default_rng(2)
    x, y = rng.normal(size=(200, 10)), rng.normal(size=(200, 10))
    dirs = sample_directions(10, 50, seed=1)
    sw_p(x, y, dirs)
    sw_p(x, y, dirs, x_weights=np.full(200, 0.005), y_weights=np.full(200, 0.005))
    sliced_cost_matrix(EuclideanSlicer(dirs), [x, y, x[:100], y[:100]])
    assert len(x) + len(y) < sliced._SPLIT_ATOMS
    u, v = _sphere_cloud(200, 1), _sphere_cloud(200, 2, 1.0)
    frames = sample_stiefel(3, 50, seed=1)
    ssw(u, v, frames)
    ssw2_vs_uniform(u, frames)
    assert (len(u) + len(v)) * len(frames) < sphere._SPLIT_FRAME_ENTRIES
    assert pool.tasks == []


def _serial(monkeypatch, call):
    with monkeypatch.context() as m:
        m.setattr(measures, "_WORKERS", 1)
        return call()


def _lorentz(n, seed, shift=0.0):
    mean = np.array([np.sqrt(1.0 + shift * shift), shift, 0.0, 0.0, 0.0])
    return sample_wrapped_normal(mean, 0.5 * np.eye(4), n, seed=seed)


@pytest.mark.parametrize("layout", list(LAYOUTS))
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("L", [37, 300])
def test_sliced_cost_is_the_serial_one(pool, monkeypatch, L, weighted, p, layout):
    """Both clouds' coordinates run on the pool; at L = 300 the kernel is
    split too."""
    rng = np.random.default_rng(L)
    x, y = LAYOUTS[layout](rng.normal(size=(700, 6))), LAYOUTS[layout](rng.normal(size=(600, 6)))
    a = b = None
    if weighted:
        a, b = rng.uniform(0.5, 1.0, 700), rng.uniform(0.5, 1.0, 600)
        a, b = a / a.sum(), b / b.sum()
    dirs = sample_directions(6, L, seed=3)
    same = unchanged(x, y, dirs.dirs, *(w for w in (a, b) if w is not None))
    got = sw_p(x, y, dirs, p, a, b)
    assert got == _serial(monkeypatch, lambda: sw_p(x, y, dirs, p, a, b))
    assert same()
    blocks = WORKERS if (700 + 600) * L >= measures._SPLIT_ENTRIES else 0
    coordinates = [t for t in pool.tasks if t != measures._batched_costs]
    assert len(coordinates) == 2 and pool.tasks.count(measures._batched_costs) == blocks


def test_hyperbolic_and_spd_costs_are_the_serial_ones(pool, monkeypatch):
    x, y, dirs = _lorentz(600, 1), _lorentz(500, 2, 0.5), sample_directions(4, 40, seed=2)
    calls = [
        lambda: ghsw(x, y, dirs, p=1.5),
        lambda: spdsw(sample_spd_cloud(3, 500, seed=1), sample_spd_cloud(3, 520, seed=2),
                      sample_unit_symmetric(3, 30, seed=4)),
    ]
    for call in calls:
        assert call() == _serial(monkeypatch, call)
    assert len(pool.tasks) == 4


@pytest.mark.parametrize("weighted", [False, True])
def test_matrix_is_the_serial_one(pool, monkeypatch, weighted):
    rng = np.random.default_rng(5)
    clouds = [LAYOUTS["fortran"](rng.normal(size=(n, 6)) + 0.1 * k)
              for k, n in enumerate((300, 300, 250, 320))]
    weights = None
    if weighted:
        weights = [rng.uniform(0.5, 1.0, len(c)) for c in clouds]
        weights = [w / w.sum() for w in weights]
    slicer = EuclideanSlicer(sample_directions(6, 60, seed=7))
    same = unchanged(*clouds, *(weights or []))
    got = sliced_cost_matrix(slicer, clouds, 2.0, weights)
    assert np.array_equal(got, _serial(monkeypatch,
                                       lambda: sliced_cost_matrix(slicer, clouds, 2.0, weights)))
    assert same()
    assert pool.tasks == [sliced._sorted_side] * 4


def _matrix_case(kind, k, L, seed):
    """``k`` clouds whose mean pair is just past the pair gate for ``kind``:
    matched uniform (equal counts), uniform of unequal counts, or weighted
    with zero weights; every cloud has exact ties on its first axis."""
    gate = measures._SPLIT_ENTRIES if kind == "matched" else sliced._SPLIT_MERGE_ENTRIES
    n = gate // (2 * L) + 7
    rng = np.random.default_rng(seed)
    counts = [n if kind == "matched" else n + 3 * j - 4 for j in range(k)]
    clouds = [rng.normal(size=(c, 4)) + 0.1 * j for j, c in enumerate(counts)]
    for cloud in clouds:
        cloud[:, 0] = np.round(cloud[:, 0], 1)
    if kind != "weighted":
        return clouds, None
    weights = [rng.uniform(0.0, 2.0, c) for c in counts]
    for w in weights:
        w[::9] = 0.0
    return clouds, [w / w.sum() for w in weights]


def _pair_loop(slicer, clouds, p, weights):
    """The pairs of a matrix one at a time, as the serial loop ran them."""
    sides = [sliced._sorted_side(slicer, c, w, c.shape[1:])
             for c, w in zip(clouds, weights or [None] * len(clouds))]
    values = np.zeros((len(sides), len(sides)))
    for i, j in zip(*np.triu_indices(len(sides), 1)):
        values[i, j] = values[j, i] = np.mean(
            measures.wasserstein_1d_sorted(sides[i], sides[j], p))
    return values


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("kind", ["matched", "uniform", "weighted"])
def test_pair_blocks_are_the_serial_loop(pool, monkeypatch, kind, p):
    """Five clouds: ten pairs in two blocks of five, the second starting
    inside row 1; each entry is also the sliced cost of its pair."""
    clouds, weights = _matrix_case(kind, 5, 32, seed=int(2 * p))
    slicer = EuclideanSlicer(sample_directions(4, 32, seed=5))
    same = unchanged(*clouds, *(weights or []))
    got = sliced_cost_matrix(slicer, clouds, p, weights)
    assert np.array_equal(got, _pair_loop(slicer, clouds, p, weights))
    assert np.array_equal(got, _serial(monkeypatch,
                                       lambda: sliced_cost_matrix(slicer, clouds, p, weights)))
    assert same()
    assert pool.tasks == [sliced._sorted_side] * 5 + [sliced._pair_costs] * WORKERS
    w = weights or [None] * 5
    for i, j in [(0, 1), (1, 3), (3, 4)]:
        assert got[i, j] == sliced.sliced_cost(slicer, clouds[i], clouds[j], p, w[i], w[j])


def _gate_matrix(pool, kind, counts, L):
    """Run a matrix of clouds of ``counts`` atoms on ``L`` slices, matched
    uniform or weighted (equal masses, not uniform, so that every pair
    merges); the pair blocks it submitted."""
    rng = np.random.default_rng(3)
    clouds = [rng.normal(size=(c, 3)) for c in counts]
    weights = None
    if kind == "weighted":
        weights = [rng.uniform(0.5, 1.0, c) for c in counts]
        weights = [w / w.sum() for w in weights]
    sliced_cost_matrix(EuclideanSlicer(sample_directions(3, L, seed=1)), clouds, 2.0, weights)
    return [t for t in pool.tasks if t is sliced._pair_costs]


@pytest.mark.parametrize("short", [1, 0])
@pytest.mark.parametrize("kind", ["matched", "weighted"])
def test_pairs_split_at_their_gate(pool, kind, short):
    """Four clouds on 64 slices: the mean pair holds 32 times the total atom
    count in entries, one atom-row short of the gate for ``kind``, then on it.
    Weights of equal masses that are not uniform make every pair merge."""
    gate = measures._SPLIT_ENTRIES if kind == "matched" else sliced._SPLIT_MERGE_ENTRIES
    n = gate // 128
    counts = [n] * 3 + [n - short] if kind == "weighted" else [n - short] * 4
    pairs = _gate_matrix(pool, kind, counts, 64)
    assert pairs == [sliced._pair_costs] * (0 if short else WORKERS)


@pytest.mark.parametrize("short", [1, 0])
@pytest.mark.parametrize("kind", ["matched", "weighted"])
def test_three_clouds_split_at_their_gate(pool, kind, short):
    """Three clouds on 64 slices, whose three pairs split two and one: the
    one matched pair outside the larger block must hold four times the
    gate, so the mean pair does too, ``gate / 32`` atoms a cloud; merging
    pairs keep the mean-pair gate, ``gate / 128``.  One atom-row short of
    it, then on it."""
    gate = measures._SPLIT_ENTRIES if kind == "matched" else sliced._SPLIT_MERGE_ENTRIES
    n = gate // 32 if kind == "matched" else gate // 128
    counts = [n] * 2 + [n - short] if kind == "weighted" else [n - short] * 3
    pairs = _gate_matrix(pool, kind, counts, 64)
    assert pairs == [sliced._pair_costs] * (0 if short else WORKERS)


def test_one_pair_submits_no_pair_block(pool):
    """Two clouds far past both gates: the one pair stays on the calling
    thread, after both clouds are sorted on the pool."""
    rng = np.random.default_rng(4)
    clouds = [rng.normal(size=(6000, 3)), rng.normal(size=(6000, 3)) + 0.2]
    slicer = EuclideanSlicer(sample_directions(3, 64, seed=2))
    got = sliced_cost_matrix(slicer, clouds)
    assert pool.tasks == [sliced._sorted_side] * 2
    assert got[0, 1] == got[1, 0] == sliced.sliced_cost(slicer, *clouds)


def test_mass_mismatch_in_the_second_block(pool, monkeypatch):
    """Masses 1 + (0, 6, 6, -6, 0) 1e-10 on five clouds: no pair of the
    first block, (0, 1)-(1, 2), is more than ``MASS_ATOL`` apart, and the
    first that is, (1, 3), opens the second block."""
    clouds, _ = _matrix_case("matched", 5, 32, seed=6)
    weights = [np.full(len(c), (1.0 + e * 1e-10) / len(c)) for c, e in
               zip(clouds, (0, 6, 6, -6, 0))]
    slicer = EuclideanSlicer(sample_directions(4, 32, seed=5))
    with pytest.raises(MassMismatch) as pooled:
        sliced_cost_matrix(slicer, clouds, 2.0, weights)
    assert [t for t in pool.tasks if t is sliced._pair_costs] == [sliced._pair_costs] * WORKERS
    assert all(f.done() for f in pool.futures)
    with pytest.raises(MassMismatch) as serial:
        _serial(monkeypatch, lambda: sliced_cost_matrix(slicer, clouds, 2.0, weights))
    assert str(pooled.value) == str(serial.value)
    with pytest.raises(MassMismatch) as pair:
        sliced.sliced_cost(slicer, clouds[1], clouds[3], 2.0, weights[1], weights[3])
    assert str(pooled.value) == str(pair.value)


BAD = {
    "shape": lambda c: np.column_stack([c, c[:, :1]]),
    "nan": lambda c: np.where(np.arange(len(c))[:, None] == 3, np.nan, c),
    "off": lambda c: c * 1.5,  # off the hyperboloid
}


@pytest.mark.parametrize("first, later", [("shape", "nan"), ("off", "nan"), ("nan", "shape"),
                                          ("off", "shape")])
def test_matrix_names_the_first_bad_cloud(pool, monkeypatch, first, later):
    clouds = [_lorentz(300, k) for k in range(5)]
    clouds[1], clouds[3] = BAD[first](clouds[1]), BAD[later](clouds[3])
    slicer = HyperbolicSlicer(sample_directions(4, 20, seed=1))
    with pytest.raises(InvalidInput) as pooled:
        sliced_cost_matrix(slicer, clouds)
    with pytest.raises(InvalidInput) as serial:
        _serial(monkeypatch, lambda: sliced_cost_matrix(slicer, clouds))
    assert str(pooled.value) == str(serial.value)
    assert len(pool.tasks) == 5 and all(f.done() for f in pool.futures)


def test_sliced_cost_raises_x_error_after_y_task(pool, monkeypatch):
    """Both clouds are off the hyperboloid, by different amounts."""
    x, y = BAD["off"](_lorentz(600, 1)), 2.0 * _lorentz(600, 2)
    slicer = HyperbolicSlicer(sample_directions(4, 20, seed=1))
    with pytest.raises(InvalidInput) as pooled:
        sliced.sliced_cost(slicer, x, y)
    with pytest.raises(InvalidInput) as serial:
        _serial(monkeypatch, lambda: sliced.sliced_cost(slicer, x, y))
    assert str(pooled.value) == str(serial.value)
    assert len(pool.tasks) == 2 and all(f.done() for f in pool.futures)


def test_tasks_run_in_the_callers_numpy_error_state(pool):
    """Squares past the largest double overflow in every column: under the
    caller's ``errstate(over="ignore")`` the pooled tasks return ``inf`` as
    the serial body does, and warn nothing."""
    u, v, _, _ = _line_case("matched", 64, seed=3)
    u, v = u * 1e200, -v * 1e200
    uniform = validate_weights(None, len(u))
    with warnings.catch_warnings(), np.errstate(over="ignore"):
        warnings.simplefilter("error", RuntimeWarning)
        got = wasserstein_1d_batched(u, v)
        want = measures._batched_costs(u, v, uniform, uniform, 2.0)
    assert np.all(np.isinf(want)) and np.array_equal(got, want)
    assert len(pool.tasks) == WORKERS


def _sphere_cloud(n, seed, pull=0.0):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, 3))
    z[:, 0] += pull
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _sphere_case(L, above, weighted, seed):
    """Two clouds of unequal counts whose ``(n + m) L`` entries are just past
    the frame-block threshold of ``ssw``, and so past that of
    ``ssw2_vs_uniform`` too, or well below both, with weights if asked."""
    n = sphere._SPLIT_SSW_ENTRIES // (2 * L) + 7 if above else 40
    m = n - 5
    x, y = _sphere_cloud(n, seed), _sphere_cloud(m, seed + 1, 1.0)
    if not weighted:
        return x, y, None, None
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(0.5, 1.0, n), rng.uniform(0.0, 1.0, m)
    b[::7] = 0.0
    return x, y, a / a.sum(), b / b.sum()


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("above", [False, True])
@pytest.mark.parametrize("L", [1, 2, 37])
def test_frame_blocks_are_the_serial_body(pool, monkeypatch, L, above, weighted, p):
    """L = 1 stays whole, L = 2 is one frame per block and L = 37 is odd."""
    x, y, a, b = _sphere_case(L, above, weighted, seed=L)
    # one cloud of as many atoms as both
    xy, c = np.concatenate([x, y]), None if a is None else np.concatenate([a, b]) / 2
    frames = sample_stiefel(3, L, seed=L)
    same = unchanged(x, y, frames, *(w for w in (a, b) if w is not None))
    calls = [lambda: ssw(x, y, frames, p, a, b), lambda: ssw2_vs_uniform(xy, frames, c)]
    for call in calls:
        assert call() == _serial(monkeypatch, call)
    assert same()
    blocks = min(WORKERS, L) if above else 1
    assert pool.tasks == [sphere._block_costs] * (2 * blocks if blocks > 1 else 0)


@pytest.mark.parametrize("m", [3 * 2**10 - 1, 3 * 2**10])
def test_frames_split_at_their_threshold(pool, m):
    """(2^10 + m) * 16 frames is one entry-row short of 2^16, then 2^16:
    ``ssw2_vs_uniform`` of both clouds as one splits there, and ``ssw``,
    whose gate is 2^17, does not."""
    x, y, frames = _sphere_cloud(2**10, 1), _sphere_cloud(m, 2), sample_stiefel(3, 16, seed=3)
    ssw2_vs_uniform(np.concatenate([x, y]), frames)
    ssw(x, y, frames)
    split = (2**10 + m) * 16 >= sphere._SPLIT_FRAME_ENTRIES
    assert (2**10 + m) * 16 < sphere._SPLIT_SSW_ENTRIES
    assert pool.tasks == [sphere._block_costs] * (WORKERS if split else 0)


@pytest.mark.parametrize("m", [7 * 2**10 - 1, 7 * 2**10])
def test_ssw_frames_split_at_their_threshold(pool, m):
    """(2^10 + m) * 16 frames is one entry-row short of 2^17, then 2^17."""
    ssw(_sphere_cloud(2**10, 1), _sphere_cloud(m, 2), sample_stiefel(3, 16, seed=3), p=1.0)
    split = (2**10 + m) * 16 >= sphere._SPLIT_SSW_ENTRIES
    assert pool.tasks == [sphere._block_costs] * (WORKERS if split else 0)


# a frame of the second block that maps the north pole, atom 5 of one
# cloud, onto the origin of its plane; and a second fault checked first.
# Two clouds of 1700 atoms on 40 frames are past the gate of ``ssw``
ZERO_FAULTS = {
    "alone": {},
    "order": {"p": 0.5},
    "weights": {"x_weights": np.full(1700, 2.0 / 1700)},
}


@pytest.mark.parametrize("cloud", [0, 1])
@pytest.mark.parametrize("fault", list(ZERO_FAULTS))
def test_zero_projection_in_the_second_block(pool, monkeypatch, fault, cloud):
    clouds = [_sphere_cloud(1700, 1), _sphere_cloud(1700, 2, 1.0)]
    clouds[cloud][5] = [0.0, 0.0, 1.0]
    frames = sample_stiefel(3, 40, seed=2)
    frames[30] = np.eye(3)[:, :2]
    kwargs = ZERO_FAULTS[fault]
    with pytest.raises(ValueError) as pooled:
        ssw(*clouds, frames, **kwargs)
    with pytest.raises(ValueError) as serial:
        _serial(monkeypatch, lambda: ssw(*clouds, frames, **kwargs))
    assert type(pooled.value) is type(serial.value)
    assert str(pooled.value) == str(serial.value)
    assert (type(pooled.value) is MeasureZeroProjection) == (fault == "alone")
    assert len(pool.tasks) == (WORKERS if fault == "alone" else 0)
    assert all(f.done() for f in pool.futures)


def _child_sw_p(x, y, dirs, want):
    assert measures._pool is None
    assert sw_p(x, y, dirs) == want
    assert measures._pool is not None


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork on this platform")
def test_forked_child_builds_its_own_pool(pool):
    rng = np.random.default_rng(4)
    x, y = rng.normal(size=(700, 6)), rng.normal(size=(700, 6)) + 0.5
    dirs = sample_directions(6, 200, seed=3)
    want = sw_p(x, y, dirs)
    assert pool.tasks  # the parent's pool has live threads
    child = multiprocessing.get_context("fork").Process(target=_child_sw_p,
                                                        args=(x, y, dirs, want))
    with warnings.catch_warnings():
        # Python 3.12 warns when a process with threads forks
        warnings.simplefilter("ignore", DeprecationWarning)
        child.start()
    child.join(timeout=60)
    hung = child.is_alive()
    if hung:
        child.kill()
        child.join()
    assert not hung
    assert child.exitcode == 0

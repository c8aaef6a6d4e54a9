"""Discrete measures on the real line and on the circle.

Every sliced distance in this package reduces to one of the 1D solvers
below, each batched over the rows (slices or frames) of one call: on the
line, the quantile-based closed form read off one stable merge of the
cumulative weights; on the circle, the closed form against the uniform
measure, the level median for ``p = 1`` and a bisection on the shift
otherwise.  On matched uniform rows the circle solvers search nothing: the
shift cost is linear between the events ``k/n``, so an integer bisection
over cyclic shifts of the sorted atoms finds its minimizing event.  The
scalar functions taking profiles are the one-row cases.

The line kernel reads each measure through a row map, ``(lo, hi) ->`` the
C-ordered ``(hi - lo, n)`` coordinates of slices ``[lo, hi)`` in a fresh
array it owns: a slicer's own map (:class:`msot.sliced.LineSlicer`) or
copies of the columns of ``(n, L)`` values.  It runs each call in
consecutive chunks of at most ``2**17`` atom-slice entries; per chunk it
maps both measures, sorts the rows in place (or argsorts them with their
weights) and takes the 1D costs, so its map, sort, merge, gather and power
temporaries stay near 1 MiB each and no call holds a whole ``(n, L)``
array.  Large problems run on a thread pool, one per process and created
on first use: the line kernel in contiguous blocks of slices, one per
worker, each mapping, sorting and costing its own slices; through
:mod:`msot.sliced` the preparation of separate clouds, the rows and sorts
of the clouds of a matrix and its pairs in blocks; and through
:mod:`msot.sphere` the projections and circle solves of frame blocks.
Every reduction runs along the rows of one block or chunk, so the results
are those of one thread and one whole call, bit for bit.

An iterative solve (a Frank-Wolfe loop, a flow) runs in one scratch
(:func:`_solve_scratch`): the kernels it calls round after round write
their large temporaries into the arrays :func:`_buffer` keeps for them by
role, rather than mapping and faulting in fresh ones every round.
"""

import contextvars
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, MassMismatch

# absolute tolerance for all total-mass comparisons
MASS_ATOL = 1e-9

# fewest atom-slice entries, (n + m) * L, of a line-kernel call that is
# split into blocks of slices on the pool; below it a thread hand-off costs
# more than the second core saves
_SPLIT_ENTRIES = 2**18
# most atom-slice entries of one chunk of slices in the line kernel: each
# float temporary of a chunk is about 1 MiB, small enough to be reused from
# the allocator's free lists rather than mapped and faulted in anew
_CHUNK_ENTRIES = 2**17
# the same where the chunk merges cumulative weights: its levels, merge
# order, ranks and gathers are some ten such arrays at once, and at 2^17
# (about 12 MiB) glibc trims them off the heap after every chunk, to fault
# them in again, unless a larger array freed earlier raised its threshold
_MERGE_CHUNK_ENTRIES = 2**16
# fewest atoms, over all clouds, that are prepared (or mapped and sorted,
# in a matrix) one cloud per pooled task
_SPLIT_ATOMS = 1000


def _worker_count():
    """Cores this process may run on, capped by a positive ``MSOT_THREADS``."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cores = os.cpu_count() or 1
    cap = os.environ.get("MSOT_THREADS", "")
    return min(cores, int(cap)) if cap.isdigit() and int(cap) > 0 else cores


_WORKERS = _worker_count()
_pool = None
_pool_lock = threading.Lock()


def _executor():
    """The shared pool of ``_WORKERS`` threads, created on first use, or
    None with one worker.  ``concurrent.futures`` loads only here."""
    global _pool
    if _WORKERS < 2:
        return None
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(_WORKERS, thread_name_prefix="msot")
        return _pool


def _drop_pool():
    """A forked child has none of its parent's threads: the first pooled
    call there builds its own pool."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # no fork on Windows
    os.register_at_fork(after_in_child=_drop_pool)


def _in_order(fn, calls, pool):
    """``[fn(*args) for args in calls]``, each call a task of ``pool`` (when
    not None) run under the caller's numpy error state, which numpy 1.x
    keeps per thread.  Every task ends before the first exception in input
    order is raised.  A task must not submit to the pool itself."""
    if pool is None:
        return [fn(*args) for args in calls]
    from concurrent.futures import wait

    err = dict(np.geterr(), call=np.geterrcall())
    futures = [pool.submit(_in_errstate, err, fn, *args) for args in calls]
    wait(futures)
    return [future.result() for future in futures]


def _in_errstate(err, fn, *args):
    """``fn(*args)`` under the numpy error state ``err``."""
    with np.errstate(**err):
        return fn(*args)


def _in_blocks(fn, L, split, block, sizes=None):
    """``fn(*block(lo, hi))`` on contiguous blocks ``[lo, hi)`` of
    ``range(L)``, one per worker but at most ``L``, each a task of the pool,
    concatenated in order.  The blocks hold equal counts of items, or with
    positive integer ``sizes`` of the items, equal totals: an item goes to
    the block whose share of the total holds the midpoint of its cumulative
    size, so no block exceeds its share by more than one item.  A call not
    ``split``, too small to gain, runs ``fn(*block(0, L))`` whole on the
    calling thread, as does a process with one worker."""
    blocks = min(_WORKERS, L) if split else 1
    pool = _executor() if blocks > 1 else None
    if pool is None:
        return fn(*block(0, L))
    if sizes is None:
        edges = [L * k // blocks for k in range(blocks + 1)]
    else:
        # the items whose midpoint lies below k / blocks of the total, that
        # is (2 end - size) blocks < 2 k total, in integers
        ends = np.cumsum(sizes)
        mids = (2 * ends - sizes) * blocks
        edges = np.searchsorted(mids, 2 * ends[-1] * np.arange(blocks + 1)).tolist()
    calls = [block(lo, hi) for lo, hi in zip(edges, edges[1:])]
    return np.concatenate(_in_order(fn, calls, pool))


def _largest_block(L):
    """Items in the largest block of a split :func:`_in_blocks` call."""
    return -(-L // min(_WORKERS, L))


# (thread id, {key: array}) of the solve running in this context, or None
_SCRATCH = contextvars.ContextVar("msot_scratch", default=None)


@contextmanager
def _solve_scratch():
    """One scratch for the solve run in this block, or in each call of a
    function it decorates: every :func:`_buffer` call of a role and shape
    returns the same array until the block ends, when the arrays go.  A pool
    task, another thread or a nested solve sees none of them."""
    token = _SCRATCH.set((threading.get_ident(), {}))
    try:
        yield
    finally:
        _SCRATCH.reset(token)


def _buffer(role, shape, dtype=np.float64):
    """An uninitialized array of the tuple ``shape`` and the scalar type
    ``dtype`` for ``role``: the scratch's own inside a solve on this thread,
    a fresh one otherwise.  Its contents are only good until the next call
    of the role, so it never leaves the call that fills it."""
    scratch = _SCRATCH.get()
    if scratch is None or scratch[0] != threading.get_ident():
        return np.empty(shape, dtype)
    key = (role, shape, dtype)
    held = scratch[1].get(key)
    if held is None:
        held = scratch[1][key] = np.empty(shape, dtype)
    return held


def _gather(values, idx, role):
    """``np.take(values, idx)`` written into the ``role`` buffer.  Under its
    default ``mode="raise"`` ``np.take`` buffers ``out``; ``"wrap"`` reads
    the same entries at every index ``"raise"`` accepts."""
    return values.take(idx, out=_buffer(role, idx.shape, values.dtype.type), mode="wrap")


def validate_weights(weights, n=None):
    """Check non-negativity/finiteness and return weights as a float array.

    ``weights=None`` stands for uniform probability weights on ``n`` atoms.
    """
    if weights is None:
        return np.full(n, 1.0 / n)
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise InvalidInput("weights must be a non-empty 1D array")
    if n is not None and w.size != n:
        raise InvalidInput(f"expected {n} weights, got {w.size}")
    if not np.all(np.isfinite(w)):
        raise InvalidInput("weights must be finite")
    if np.any(w < 0):
        raise InvalidInput("weights must be nonnegative")
    return w


@dataclass(frozen=True)
class SortedProfile:
    """Sorted 1D atoms with aligned weights and cumulative weights.

    Atoms at exactly equal positions are kept separate (input order),
    which keeps dual-potential extraction per-atom later on.
    """

    positions: np.ndarray
    weights: np.ndarray
    cum: np.ndarray

    @property
    def total_mass(self):
        return float(self.cum[-1])


def build_profile(points, weights=None):
    """Build a :class:`SortedProfile` by stable-sorting atoms by position."""
    x = np.asarray(points, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise InvalidInput("points must be a non-empty 1D array")
    if not np.all(np.isfinite(x)):
        raise InvalidInput("points must be finite")
    w = validate_weights(weights, n=x.size)
    order, x = stable_order(x)
    w = w[order]
    return SortedProfile(positions=x, weights=w, cum=np.cumsum(w))


def quantile(profile, q):
    """Left-continuous generalized inverse ``inf{x : F(x) >= q}``.

    ``q`` must lie in ``[0, total mass]``; ``q = 0`` returns the first atom.
    """
    q = float(q)
    if q < 0 or q > profile.total_mass + MASS_ATOL:
        raise InvalidInput(f"quantile level {q} outside [0, {profile.total_mass}]")
    return float(quantile_rows(profile.positions, profile.cum, np.array([q]))[0])


def quantile_rows(values, cum, levels):
    """Row-wise :func:`quantile` at non-decreasing ``levels``.

    ``values``/``cum`` are sorted atoms and their cumulative weights; all
    three are ``(L, .)`` rows or one 1D row.  A level's index counts the
    weights below it: its :func:`_ranks` in a merge with the levels ahead.
    """
    shape = np.shape(levels)
    values, cum, levels = np.atleast_2d(values, cum, levels)
    if np.any(np.diff(levels, axis=-1) < 0):
        raise InvalidInput("quantile levels must be non-decreasing along rows")
    k = levels.shape[-1]
    first = _merge(np.concatenate([levels, cum], axis=-1)) < k
    return _take_rows(values, _ranks(first, k)).reshape(shape)


def wasserstein_1d(mu, nu, p=2.0):
    r"""Exact :math:`W_p^p` between two profiles of equal total mass: the
    one-column case of :func:`wasserstein_1d_batched`."""
    u, v = mu.positions[:, None], nu.positions[:, None]
    return float(wasserstein_1d_batched(u, v, mu.weights, nu.weights, p)[0])


def check_positive(value, name):
    """Reject a parameter that is not a positive finite number (``value <= 0``
    alone lets NaN through)."""
    if not (np.isfinite(value) and value > 0):
        raise InvalidInput(f"{name} must be positive and finite, got {value}")


def check_order(p):
    """Reject a transport order that is not finite or is below 1, where the
    costs are not convex."""
    check_positive(p, "order p")
    if p < 1:
        raise InvalidInput(f"order p must be >= 1, got {p}")


def wasserstein_1d_batched(u_values, v_values, u_weights=None, v_weights=None, p=2.0):
    r"""Column-wise :math:`W_p^p` between 1D measures sharing fixed weights.

    ``u_values`` has shape ``(n, L)`` and ``v_values`` shape ``(m, L)``; the
    weights apply to every column.  Returns an array of length ``L``.
    Matched uniform clouds pair sorted values; otherwise the counts of a
    :func:`_merge` of the cumulative weights are the quantile indices
    ``(i_k, j_k)`` and the cost is :math:`\sum_k (q_k - q_{k-1})
    c(u_{i_k}, v_{j_k})` over the merged levels, computed in place.  Each
    side is sorted on its own, so :func:`_sorted_slices` and
    :func:`wasserstein_1d_sorted` split the work between the measures and
    the pairs of many measures.  The kernel (:func:`_line_costs`) reads
    copies of the columns, chunk by chunk.
    """
    check_order(p)
    u_values, v_values = _columns(u_values), _columns(v_values)
    n, L = u_values.shape
    m, Lv = v_values.shape
    if L != Lv:
        raise InvalidInput("u_values and v_values must have the same column count")
    u_weights = validate_weights(u_weights, n=n)
    v_weights = validate_weights(v_weights, n=m)
    check_masses(float(np.sum(u_weights)), float(np.sum(v_weights)))
    return _line_costs(_column_rows(u_values), _column_rows(v_values), L, u_weights, v_weights, p)


def _line_costs(u_rows, v_rows, L, u_weights, v_weights, p):
    """The line kernel: the 1D costs of ``L`` slices of two measures whose
    row maps ``u_rows(lo, hi)`` and ``v_rows(lo, hi)`` return fresh C-ordered
    ``(hi - lo, n)`` coordinates of slices ``[lo, hi)``, on validated
    weights of equal mass.  A call of at least ``_SPLIT_ENTRIES`` atom-slice
    entries runs in contiguous blocks of slices on the pool, one per worker,
    so that each worker maps, sorts and costs its own slices."""
    n, m = len(u_weights), len(v_weights)
    return _in_blocks(_batched_costs, L, (n + m) * L >= _SPLIT_ENTRIES,
                      lambda lo, hi: (u_rows, v_rows, u_weights, v_weights, p, lo, hi))


def _batched_costs(u_rows, v_rows, u_weights, v_weights, p, lo, hi):
    """The costs of slices ``[lo, hi)`` of :func:`_line_costs`, in
    consecutive chunks of at most ``_CHUNK_ENTRIES`` atom-slice entries, or
    ``_MERGE_CHUNK_ENTRIES`` where weights merge (one slice at least), each
    mapped by both row maps into one result: every reduction runs along one
    row, so the costs are those of the whole call, bit for bit."""
    chunk = _CHUNK_ENTRIES if _matched_uniform(u_weights, v_weights) else _MERGE_CHUNK_ENTRIES
    step = max(1, chunk // (len(u_weights) + len(v_weights)))
    costs = np.empty(hi - lo)
    for start in range(lo, hi, step):
        stop = min(start + step, hi)
        costs[start - lo:stop - lo] = _chunk_costs(
            u_rows(start, stop), v_rows(start, stop), u_weights, v_weights, p)
    return costs


def _chunk_costs(u_rows, v_rows, u_weights, v_weights, p):
    """One chunk of :func:`_batched_costs` on ``(s, n)`` and ``(s, m)`` rows
    it owns and overwrites."""
    # every operation runs along the contiguous rows.  Ties between equal
    # values do not change the cost, so the value path may use the (faster)
    # default sort; only the subgradient needs stability.
    if _matched_uniform(u_weights, v_weights):
        # matched uniform clouds: sorted pairing, no quantile merge needed
        u_rows.sort(axis=-1)
        v_rows.sort(axis=-1)
        u_rows -= v_rows
        return _paired_cost(u_rows, u_weights[0], p)
    (L, n), m = u_rows.shape, v_rows.shape[1]
    levels = np.empty((L, n + m))
    u_sorted = _sorted_with_cum(u_rows, u_weights, levels[:, :n])
    v_sorted = _sorted_with_cum(v_rows, v_weights, levels[:, n:])
    return _merged_cost(u_sorted, v_sorted, levels, p)


@dataclass(frozen=True)
class SortedSlices:
    """One measure's half of :func:`wasserstein_1d_batched`: its ``(L, n)``
    slice coordinates sorted along rows, its weights, their cumulative sums
    in row order (one ``(n,)`` row for all slices when the weights are
    uniform) and its total mass."""

    rows: np.ndarray
    weights: np.ndarray
    cum: np.ndarray
    mass: float


def _sorted_slices(rows, weights):
    """The per-measure half of :func:`wasserstein_1d_batched` on ``(L, n)``
    rows it owns and may sort in place, with validated weights: each slice
    is sorted once, to compare with many measures."""
    cum = np.empty(weights.shape if float(np.ptp(weights)) == 0.0 else rows.shape)
    return SortedSlices(_sorted_with_cum(rows, weights, cum), weights, cum,
                        float(np.sum(weights)))


def wasserstein_1d_sorted(u, v, p=2.0):
    """The per-pair half of :func:`wasserstein_1d_batched` on two
    :class:`SortedSlices`, with the same values: the sorted-row difference
    on matched uniform rows, one :func:`_merge` otherwise."""
    check_order(p)
    (L, n), (Lv, m) = u.rows.shape, v.rows.shape
    if L != Lv:
        raise InvalidInput("both measures need one row per slice")
    check_masses(u.mass, v.mass)
    if _matched_uniform(u.weights, v.weights):
        return _paired_cost(u.rows - v.rows, u.weights[0], p)
    levels = np.empty((L, n + m))
    levels[:, :n], levels[:, n:] = u.cum, v.cum
    return _merged_cost(u.rows, v.rows, levels, p)


def check_masses(mu_mass, nu_mass):
    """Reject two total masses more than ``MASS_ATOL`` apart."""
    if abs(mu_mass - nu_mass) > MASS_ATOL:
        raise MassMismatch(f"total masses differ: {mu_mass} vs {nu_mass}")


def _powered(d, p):
    """The ground cost ``|d|^p`` of every 1D solver, written over ``d``."""
    if p == 2:
        return np.square(d, out=d)
    np.abs(d, out=d)
    return d if p == 1 else np.power(d, p, out=d)


def _paired_cost(diff, weight, p):
    """Row sums of ``weight |diff|^p`` for the difference of sorted rows of
    equal length, computed in ``diff``, which is overwritten."""
    return np.sum(_powered(diff, p), axis=-1) * weight


def _merged_cost(u_sorted, v_sorted, levels, p):
    """Row-wise :math:`W_p^p` of sorted rows whose cumulative weights are
    the two halves of ``levels``, which is overwritten."""
    n, N = u_sorted.shape[1], levels.shape[1]
    order = _merge(levels)
    ahead = _ahead(order, n)
    merged = _permuted_rows(levels, order)
    del order
    # the rise of every merged level, written over the caller's levels
    delta = levels
    delta[:, 0] = merged[:, 0]
    np.subtract(merged[:, 1:], merged[:, :-1], out=delta[:, 1:])
    del merged
    behind = np.arange(N) - ahead
    cost = _take_rows(u_sorted, ahead)
    del ahead
    cost -= _take_rows(v_sorted, behind)
    del behind
    cost = _powered(cost, p)
    cost *= delta
    return np.sum(cost, axis=-1)


def stable_order(rows):
    """Stable ``argsort`` of ``(L, n)`` rows (or one row), with the sorted rows:
    the vectorized default sort, whose order is the only one on a row that
    rises strictly; the other rows (ties, ``0.0``/``-0.0``, NaN) sort again."""
    rows = np.asarray(rows)
    flat = np.atleast_2d(rows)
    n = flat.shape[1]
    order = np.argsort(flat, axis=-1)
    ordered = np.take(flat, _flat_positions(order, n))
    tied = ~np.all(ordered[:, 1:] > ordered[:, :-1], axis=-1)
    if np.any(tied):
        order[tied] = np.argsort(flat[tied], axis=-1, kind="stable")
        ordered[tied] = np.take(flat[tied], _flat_positions(order[tied], n))
    return order.reshape(rows.shape), ordered.reshape(rows.shape)


def sorted_rows(columns):
    """Stably sorted ``(L, n)`` rows of ``(n, L)`` coordinates, with the sort
    (:func:`stable_order` of the columns laid out as contiguous rows)."""
    order, rows = stable_order(np.ascontiguousarray(np.asarray(columns, dtype=float).T))
    return rows, order


def slice_mean(values, order):
    """Mean over rows of row-sorted ``values``, returned in atom order."""
    L, n = values.shape
    return np.bincount(order.ravel(), weights=values.ravel(), minlength=n) / L


def dual_1d_batched(x, a, y, b, p=2.0):
    r"""Row-wise balanced 1D dual potentials along the monotone coupling.

    ``x``/``a`` are ``(L, n)`` and ``y``/``b`` are ``(L, m)``: sorted atoms and
    aligned weights per row, the two rows of a slice of equal mass (to
    ``MASS_ATOL``, relative above unit mass).  Returns ``(f, g)`` with
    ``f[:, 0] = 0`` and ``f_i + g_j = c(i, j) = |x_i - y_j|^p`` on the
    north-west staircase, read off one :func:`_merge` of the cumulative
    weights: row ``i`` advances at column ``j``, the number of target
    breakpoints merged before its own, adding ``c(i+1, j) - c(i, j)`` to
    ``f`` (a row-wise cumsum).  Where the r-th source breakpoint of a level
    meets the r-th target breakpoint there, both indices advance and the
    step is clamped to ``min(max(0, c(i+1, j+1) - c(i, j+1)), c(i+1, j) -
    c(i, j))``, the flattest value feasible for the cells it skips.  Then
    ``g[j] = c(i, j) - f[i]`` at the row ``i`` holding on reaching column
    ``j``.  Rows of two equal, strictly rising level sequences need no
    merge: there the i-th breakpoints pair, so row ``i`` steps, clamped, at
    column ``i``.  Feasibility of every step's cell ``(i+1, j)`` is asserted
    to 1e-9 relative to the largest such cost (absolute below unit cost).
    """
    check_order(p)
    x, a, y, b = (np.asarray(v, dtype=float) for v in (x, a, y, b))
    cum_a = np.cumsum(a, axis=-1, out=_buffer("cum_a", a.shape))
    cum_b = np.cumsum(b, axis=-1, out=_buffer("cum_b", b.shape))
    gap = np.abs(cum_a[:, -1] - cum_b[:, -1]) / np.maximum(cum_a[:, -1], 1.0)
    if np.any(gap > MASS_ATOL):
        raise MassMismatch(f"total masses differ, by up to {np.max(gap):.2e} relative")
    (L, n), m = x.shape, y.shape[1]

    def cost(u, v, role):
        """``|u - v|^p`` in the ``role`` buffer, which ``u`` or ``v`` may be."""
        return _powered(np.subtract(u, v, out=_buffer(role, v.shape)), p)

    # the last breakpoints never move the staircase
    a_levels, b_levels = cum_a[:, :-1], cum_b[:, :-1]
    # the flat positions of the steps, and of the cells next to them; the
    # ``gathered`` buffer holds one gather after another, each spent before
    # the next, and ``by_column`` the level ranks, then the reached rows
    at = _buffer("at", a_levels.shape, np.intp)
    near_at = _buffer("near_at", a_levels.shape, np.intp)
    if n == m and np.array_equal(a_levels, b_levels) and np.all(
            a_levels[:, 1:] > a_levels[:, :-1]):
        col = np.broadcast_to(np.arange(n - 1), (L, n - 1))
        _flat_positions(col, m, out=at)
        tie = np.ones((L, n - 1), dtype=bool)
    else:
        # a target breakpoint merges ahead of an equal source one, so
        # ``col`` counts those at or below
        both = _buffer("both", (L, n + m - 2))
        both[:, :m - 1], both[:, m - 1:] = b_levels, a_levels
        col = _ranks(_merge(both) >= m - 1, n - 1)
        _flat_positions(col, m, out=at)
        tie = (col > 0) & (_gather(cum_b, np.subtract(at, 1, out=near_at), "gathered")
                           == a_levels)
        if np.any(tie):
            # on a shared level, pair the r-th breakpoints of the two sides;
            # the unpaired rest of the source side steps at the level's last
            # column
            on_level = _buffer("by_column", (L, m), np.intp)
            on_level[:, 0] = 0
            on_level[:, 1:] = _run_rank(b_levels) + 1
            paired = np.where(tie, np.take(on_level, at), 0)
            rank = _run_rank(a_levels)
            tie = rank < paired
            col -= np.maximum(paired - rank, 0)
            _flat_positions(col, m, out=at)

    y_at = _gather(y, at, "gathered")
    landing = cost(x[:, 1:], y_at, "landing")
    step = cost(x[:, :-1], y_at, "step")
    np.subtract(landing, step, out=step)
    if np.any(tie):
        y_next = _gather(y, np.add(at, col < m - 1, out=near_at), "gathered")
        flat = cost(x[:, 1:], y_next, "flat")
        np.subtract(flat, cost(x[:, :-1], y_next, "gathered"), out=flat)
        np.maximum(flat, 0.0, out=flat)
        np.copyto(step, np.minimum(flat, step, out=flat), where=tie)
    f = np.zeros((L, n))
    np.cumsum(step, axis=-1, out=f[:, 1:])

    # column j is reached at the row given by the steps taken at columns
    # below j (a tied step is taken at the column it leaves)
    reached = _buffer("by_column", (L, m), np.intp)
    reached[:, 0] = 0
    if m > 1:
        counts = np.bincount(at.ravel(), minlength=L * m)
        np.cumsum(counts.reshape(L, m)[:, :-1], axis=-1, out=reached[:, 1:])
    reached = _flat_positions(reached, n, out=reached)
    g = np.take(f, reached)
    np.subtract(cost(_gather(x, reached, "gathered"), y, "gathered"), g, out=g)

    slack = _gather(g, at, "gathered")
    np.add(f[:, 1:], slack, out=slack)
    slack -= landing
    if slack.size and np.max(slack) > 1e-9 * max(1.0, np.max(np.abs(landing, out=landing))):
        raise InvalidInput(f"dual pair violates feasibility by {np.max(slack):.2e}")
    return f, g


def nw_support(a, b):
    """Support of the north-west corner (monotone) coupling of two weight vectors.

    Returns ``(rows, cols, mass)``, ``n + m`` entries (some of zero mass): at
    every position of a :func:`_merge` of the cumulative weights, the rise of
    the merged level, in the cell of the counts of each side's breakpoints
    below it.  A cell may appear more than once.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    check_masses(float(a.sum()), float(b.sum()))
    n, m = a.size, b.size
    levels = np.concatenate([np.cumsum(a), np.cumsum(b)])[None]
    order = _merge(levels)
    ahead = _ahead(order, n)[0]
    rise = np.diff(_permuted_rows(levels, order)[0], prepend=0.0)
    cols = np.minimum(np.arange(n + m) - ahead, m - 1)
    return np.minimum(ahead, n - 1), cols, rise


def dense_plan(rows, cols, mass, shape):
    """The ``shape`` coupling holding ``mass`` at cells ``(rows, cols)``, summed
    in order where a cell repeats: one ``bincount``, the only dense array."""
    n, m = shape
    return np.bincount(rows * m + cols, weights=mass, minlength=n * m).reshape(n, m)


def nw_corner(a, b):
    """North-west corner (monotone) coupling of two weight vectors: the dense
    form of :func:`nw_support`."""
    return dense_plan(*nw_support(a, b), (np.size(a), np.size(b)))


def _run_rank(levels):
    """Position of every entry inside its run of equal values along rows."""
    idx = np.arange(levels.shape[-1])
    starts = np.ones(levels.shape, dtype=bool)
    starts[:, 1:] = levels[:, 1:] != levels[:, :-1]
    return idx - np.maximum.accumulate(np.where(starts, idx, 0), axis=-1)


def _merge(both):
    """Row-wise stable merge of two row-sorted halves ``both[:, :n]`` and
    ``both[:, n:]``, the first half ahead on ties: the stable ``argsort``
    of the rows, a merge of two runs.

    Where the merged level rises at position ``k``, the count of each
    half's entries before ``k`` is ``searchsorted(half, level)``: the
    quantile index every 1D solver here reads, via :func:`_ahead` at every
    position or :func:`_ranks` at the entries of one half.
    """
    return np.argsort(both, axis=-1, kind="stable")


def _ahead(order, n):
    """First-half entries before every position of a :func:`_merge`: ``i``
    at the i-th first-half entry, ``k - j`` at the j-th second-half one."""
    # both are min(n + k - order, order): at order = i < n, k >= i and so
    # n + k - i >= n > i; at order = n + j, k - j <= n <= n + j
    ahead = np.arange(n, n + order.shape[-1]) - order
    return np.minimum(ahead, order, out=ahead)


def _ranks(mask, count):
    """False positions before each of the ``count`` True ones per mask row."""
    L, N = mask.shape
    pos = np.flatnonzero(mask).reshape(L, count)
    pos -= N * np.arange(L)[:, None]
    pos -= np.arange(count)
    return pos


def _flat_positions(idx, n, out=None):
    """Flat positions of row-wise indices ``idx`` into C-ordered rows of length
    ``n``: ``np.take`` there is several times faster than ``values[rows, idx]``."""
    return np.add(idx, np.arange(0, idx.shape[0] * n, n)[:, None], out=out)


def _take_rows(values, idx):
    """``values[l, min(idx[l, k], n - 1)]`` as one flat take; reuses ``idx``."""
    np.minimum(idx, values.shape[1] - 1, out=idx)
    return _permuted_rows(values, idx)


def _permuted_rows(values, idx):
    """``values[l, idx[l, k]]`` as one flat take, for indices already below
    the row length, e.g. a row permutation; reuses ``idx``."""
    return np.take(values.ravel(), _flat_positions(idx, values.shape[1], out=idx))


def _columns(values):
    """``(n, L)`` coordinates as a float array, one column per slice."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise InvalidInput(f"values must be an (n, L) array, got shape {values.shape}")
    return values


def _column_rows(values):
    """The row map of ``(n, L)`` coordinates: ``(lo, hi) ->`` a C-ordered
    copy of columns ``[lo, hi)`` as rows, which its caller may overwrite
    (``np.ascontiguousarray`` would be a view of Fortran-ordered values)."""
    return lambda lo, hi: np.array(values[:, lo:hi].T, order="C")


def _sorted_with_cum(rows, weights, cum):
    """Sorted ``(L, n)`` rows: ``rows`` itself, sorted in place, when the
    weights are uniform, and otherwise a new array ordered by an ``argsort``
    that leaves ``rows`` as it was.  Their cumulative weights go to ``cum``,
    which may be one ``(n,)`` row when the weights are uniform."""
    if float(np.ptp(weights)) == 0.0:
        cum[:] = np.cumsum(weights)
        rows.sort(axis=-1)
        return rows
    sorter = np.argsort(rows, axis=-1)
    np.cumsum(weights[sorter], axis=-1, out=cum)
    return _permuted_rows(rows, sorter)


# ---------------------------------------------------------------------------
# Circle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CircleProfile:
    """Probability measure on the circle parameterized by [0, 1)."""

    angles: np.ndarray
    weights: np.ndarray
    cum: np.ndarray


def build_circle_profile(angles, weights=None):
    """Build a :class:`CircleProfile`; angles are reduced modulo 1."""
    a = np.asarray(angles, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise InvalidInput("angles must be a non-empty 1D array")
    return CircleProfile(*(np.array(rows[0]) for rows in _circle_rows(a[None], weights)))


def _circle_rows(angles, weights=None):
    """Sorted ``(L, n)`` angle rows in [0, 1), with aligned weights and
    cumulative weights: ``weights`` is one probability vector for all rows.

    The cumulative weights end at exactly 1, so periodic lifts use an exact
    unit of mass.
    """
    a = np.asarray(angles, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise InvalidInput("angles must be non-empty (L, n) rows")
    if not np.all(np.isfinite(a)):
        raise InvalidInput("angles must be finite")
    w = validate_weights(weights, n=a.shape[1])
    check_probability(w)
    # np.mod(a, 1.0), bit for bit on finite doubles, without its scalar loop
    a = a - np.floor(a)
    if float(np.ptp(w)) == 0.0:
        # equal weights need no permutation, so no stable sort, and every
        # row has the same cumulative weights
        cum = np.cumsum(w)
        cum /= cum[-1]
        a.sort(axis=-1)
        return a, np.broadcast_to(w, a.shape), np.broadcast_to(cum, a.shape)
    order, a = stable_order(a)
    w = w[order]
    cum = np.cumsum(w, axis=-1)
    cum /= cum[:, -1:]
    return a, w, cum


def check_probability(weights):
    """Reject weights whose total is more than ``MASS_ATOL`` off 1."""
    if abs(np.sum(weights) - 1.0) > MASS_ATOL:
        raise InvalidInput("circle profiles must carry probability weights")


def circle_w2_vs_uniform(mu):
    """Exact :math:`W_2^2` between ``mu`` and the uniform measure on the
    circle: the one-row case of :func:`circle_w2_uniform_batched`."""
    return float(circle_w2_uniform_batched(mu.angles[None], mu.weights)[0])


def circle_w2_uniform_batched(angles, weights=None):
    r"""Row-wise exact :math:`W_2^2` against the uniform measure on the circle.

    Uniform-weight inputs use the sorted closed form

    .. math::
        \frac1n\sum_i x_i^2 - \Big(\frac1n\sum_i x_i\Big)^2
        + \frac{1}{n^2}\sum_i (n+1-2i)x_i + \frac{1}{12},

    general weights the exact integral of
    :math:`t \mapsto (F_\mu^{-1}(t) - t - \hat\alpha)^2` with the optimal
    shift :math:`\hat\alpha = \int x\,d\mu - 1/2`.
    """
    x, w, cum = _circle_rows(angles, weights)
    n = x.shape[1]
    if np.max(np.abs(w[0] - 1.0 / n)) <= 1e-12:
        i = np.arange(1, n + 1)
        return (
            np.mean(x**2, axis=-1)
            - np.mean(x, axis=-1) ** 2
            + np.sum((n + 1 - 2 * i) * x, axis=-1) / n**2
            + 1.0 / 12.0
        )
    alpha = np.sum(w * x, axis=-1, keepdims=True) - 0.5
    upper = x - alpha - np.concatenate([np.zeros((x.shape[0], 1)), cum[:, :-1]], axis=-1)
    lower = x - alpha - cum
    return np.sum(upper**3 - lower**3, axis=-1) / 3.0


def circle_w1_level_median(mu, nu):
    """Exact circle :math:`W_1`: the one-row case of :func:`circle_w1_batched`."""
    w1 = circle_w1_batched(mu.angles[None], nu.angles[None], mu.weights, nu.weights)
    return float(w1[0])


def circle_w1_batched(x_angles, y_angles, x_weights=None, y_weights=None):
    r"""Row-wise exact circle :math:`W_1` via the level-median closed form

    .. math::
        W_1(\mu,\nu) = \int_0^1 |F_\mu(t) - F_\nu(t) - \mathrm{LevMed}|\,dt,

    where the level median is the smallest minimizer of the shift.  On
    matched uniform rows the shift cost is the interpolation of its values
    at the ``n`` events (see :func:`circle_wp_batched`), so ``W_1`` is their
    minimum.
    """
    x, a, _, y, b, _ = _circle_pair(x_angles, y_angles, x_weights, y_weights)
    if _matched_uniform(a[0], b[0]):
        # the least event cost: C(k*) is the smaller of C(k*) and C(k*+1),
        # and C(n) the smaller of C(n-1) and C(n)
        n = x.shape[1]
        costs = _event_costs(x, y, 1.0)
        turn = np.minimum(_event_argmin(costs, x.shape), n - 1)
        return np.min(costs(turn), axis=-1) / n
    events = np.concatenate([x, y], axis=-1)
    N = events.shape[1]
    # two sorted runs, which the stable sort (timsort) merges in linear time
    at = _flat_positions(np.argsort(events, axis=-1, kind="stable"), N)
    events = np.take(events, at)
    values = np.cumsum(np.take(np.concatenate([a, -b], axis=-1), at), axis=-1)
    lengths = np.empty_like(events)
    lengths[:, :-1] = np.diff(events, axis=-1)
    lengths[:, -1] = 1.0 - events[:, -1] + events[:, 0]
    order, levels = stable_order(values)
    cum_len = np.cumsum(np.take(lengths, _flat_positions(order, N, out=order)), axis=-1)
    median = np.sum(cum_len < 0.5, axis=-1, keepdims=True)
    lev_med = np.take(levels, _flat_positions(median, N))
    return np.sum(lengths * np.abs(values - lev_med), axis=-1)


def circle_wp_binary_search(mu, nu, p=2.0, eps=1e-6):
    """Circle :math:`W_p^p` by bisection on the cdf shift: the one-row case
    of :func:`circle_wp_batched`."""
    wp = circle_wp_batched(mu.angles[None], nu.angles[None], mu.weights, nu.weights, p, eps)
    return float(wp[0])


def circle_wp_batched(x_angles, y_angles, x_weights=None, y_weights=None, p=2.0, eps=1e-6):
    r"""Row-wise circle :math:`W_p^p` by bisection on the cdf shift.

    Minimizes :math:`\alpha \mapsto \int_0^1 |F_\mu^{-1}(t) -
    (F_\nu - \alpha)^{-1}(t)|^p\,dt` over the shift of every row at once;
    the objective is convex, so the sign of its right derivative steers a
    bisection of the bracket :math:`[-1, 1]` down to width ``eps``, and the
    value is the least of the costs at the final ``lo``, midpoint and ``hi``.

    On matched uniform rows (``n`` atoms of weight ``1/n`` on both sides)
    the cost is linear between the events ``k/n``, where it is
    :math:`C(k) = \frac1n\sum_i |x_i - \tilde y_{i+k}|^p` on the lifted
    sorted atoms, so the slope on ``[k/n, (k+1)/n)`` has the sign of
    ``C(k+1) - C(k)``: an integer bisection finds where it turns positive,
    and the shift bisection reads its signs off that index.  Other rows
    evaluate the right derivative at every step, from row-wise exact
    searches of the lifted quantiles.
    """
    check_order(p)
    check_positive(eps, "eps")
    x, a, cum_a, y, b, cum_b = _circle_pair(x_angles, y_angles, x_weights, y_weights)
    lo, hi = np.full(x.shape[0], -1.0), np.full(x.shape[0], 1.0)
    width = 2.0
    if _matched_uniform(a[0], b[0]):
        n = x.shape[1]
        costs = _event_costs(x, y, p)
        turn = _event_argmin(costs, x.shape)
        # a flat cell reads as falling: the bracket then closes on the end
        # of the flat run, where the interpolated cost is the same minimum
        while width > eps:
            mid = 0.5 * (lo + hi)
            up = np.floor(mid * n) >= turn
            hi, lo = np.where(up, mid, hi), np.where(up, lo, mid)
            width *= 0.5
        values = []
        for shift in (lo * n, 0.5 * (lo + hi) * n, hi * n):
            cell = np.clip(np.floor(shift), -n, n - 1).astype(np.intp)
            ends, frac = costs(cell), shift - cell
            values.append((1.0 - frac) * ends[:, 0] + frac * ends[:, 1])
        return np.minimum.reduce(values) / n
    y_next = np.roll(y, -1, axis=-1)
    y_next[:, -1] += 1.0
    while width > eps:
        # a zero slope pins the row: lo = hi = mid, and mid stays put
        mid = 0.5 * (lo + hi)
        slope = _shift_slope(x, cum_a, y, y_next, cum_b, mid, p)
        hi, lo = np.where(slope >= 0, mid, hi), np.where(slope <= 0, mid, lo)
        width *= 0.5
    # the minimizer lies in [lo, hi]; evaluating all three candidates makes
    # the value exact when a bracket endpoint sits on the kink itself
    return np.minimum.reduce(
        [_shift_cost(x, cum_a, y, cum_b, s, p) for s in (lo, 0.5 * (lo + hi), hi)]
    )


def _circle_pair(x_angles, y_angles, x_weights, y_weights):
    """:func:`_circle_rows` of both sides, which must have as many rows."""
    x_rows = _circle_rows(x_angles, x_weights)
    y_rows = _circle_rows(y_angles, y_weights)
    if x_rows[0].shape[0] != y_rows[0].shape[0]:
        raise InvalidInput("both sides need one angle row per slice")
    return x_rows + y_rows


def _matched_uniform(a, b):
    """Whether two weight vectors are equal uniform ones: the case where
    sorted atoms pair one to one."""
    return a.size == b.size and float(np.ptp(a)) == float(np.ptp(b)) == 0.0 and a[0] == b[0]


def _event_costs(x, y, p):
    r"""``k -> (n C(k), n C(k+1))`` on sorted ``(L, n)`` rows, where
    :math:`n C(k) = \sum_i |x_i - \tilde y_{i+k}|^p` and the lift is
    :math:`\tilde y_{j+n} = \tilde y_j + 1`, for one shift per row in
    ``[-n, n - 1]``; both costs read one window of ``n + 1`` lifted atoms."""
    L, n = x.shape
    lifted = np.concatenate([y - 1.0, y, y + 1.0], axis=-1)
    windows = np.lib.stride_tricks.sliding_window_view(lifted, n + 1, axis=-1)
    rows = np.arange(L)

    def costs(k):
        window = windows[rows, k + n]
        pair = (x - window[:, :-1], x - window[:, 1:])
        return np.stack([_power_sums(d, p) for d in pair], axis=-1)

    return costs


def _power_sums(d, p):
    """Row sums of ``|d|^p``, overwriting ``d``."""
    if p == 2:
        return np.einsum("ij,ij->i", d, d)
    return np.sum(_powered(d, p), axis=-1)


def _event_argmin(costs, shape):
    """Per row of ``(L, n)`` rows, the least ``k`` in ``[-n, n]`` with
    ``C(k+1) > C(k)`` (``n`` if none): the minimizing event of the convex
    sequence, by integer bisection."""
    L, n = shape
    lo, hi = np.full(L, -n), np.full(L, n)
    while np.any(lo < hi):
        active = lo < hi
        mid = np.minimum((lo + hi) // 2, n - 1)
        pair = costs(mid)
        rising = pair[:, 1] > pair[:, 0]
        hi = np.where(active & rising, mid, hi)
        lo = np.where(active & ~rising, mid + 1, lo)
    return lo


def _periodic_rows(x, cum, s, side):
    """Row-wise quantile lifted to the universal cover, Q(s + k) = Q(s) + k,
    at levels ``s`` ascending along each row over at most one period;
    ``side="left"`` reduces ``s`` to (0, 1], ``"right"`` to [0, 1).

    The reduced levels are an ascending row rotated at the wrap, so their
    ranks among ``cum`` are read off one :func:`_merge` of the row turned
    back, ahead of ``cum`` on ties for ``side="left"``.
    """
    (L, n), N = cum.shape, s.shape[1]
    k = np.ceil(s) - 1.0 if side == "left" else np.floor(s)
    start = np.sum(k < k[:, -1:], axis=-1, keepdims=True)
    u = _take_rows(s - k, (start + np.arange(N)) % N)
    if side == "left":
        ranks = _ranks(_merge(np.concatenate([u, cum], axis=-1)) < N, N)
    else:
        ranks = _ranks(_merge(np.concatenate([cum, u], axis=-1)) >= n, N)
    return _take_rows(x, _take_rows(ranks, (np.arange(N) - start) % N)) + k


def _shift_cost(x, cum_a, y, cum_b, alpha, p):
    """Exact row-wise shifted cost ``int_0^1 |Qmu(t) - Qnu(t + alpha)|^p dt``.

    Both quantiles are constant on the open intervals between merged
    breakpoints, so evaluating at interval midpoints is exact and immune
    to the float round-trip of the shift.
    """
    alpha = alpha[:, None]
    breaks = cum_b - alpha
    breaks = breaks - np.ceil(breaks) + 1.0  # into (0, 1]
    qs = np.sort(np.concatenate([cum_a, breaks], axis=-1), axis=-1)
    delta = np.diff(qs, axis=-1, prepend=0.0)
    mids = qs - 0.5 * delta
    diff = _periodic_rows(x, cum_a, mids, "left")
    diff -= _periodic_rows(y, cum_b, mids + alpha, "left")
    return np.sum(delta * _powered(diff, p), axis=-1)


def _shift_slope(x, cum_a, y, y_next, cum_b, alpha, p):
    """Row-wise right derivative of the shifted cost in the shift: at the
    level ``cum_b[j] - alpha`` where ``Qnu(t + alpha)`` steps from ``y[j]``
    to ``y_next[j]`` (the next atom, lifted), ``Qmu`` from the right pays
    the difference of the two costs."""
    xr = _periodic_rows(x, cum_a, cum_b - alpha[:, None], "right")
    return np.sum(_powered(xr - y_next, p) - _powered(xr - y, p), axis=-1)

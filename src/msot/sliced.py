r"""Sliced-Wasserstein distance on Euclidean space, and the shared slicing core.

Every line-valued sliced distance of the package is :func:`sliced_cost`: a
slicer puts each cloud on ``L`` lines, the exact 1D costs of the ``L``
slices are averaged, and :func:`validate_pair` checks the inputs once on
the way in.  The package's slicers follow the row protocol of
:class:`LineSlicer`: each cloud is prepared once, and the line kernel maps
any block of slices on demand.  Euclidean slicing uses directions drawn
uniformly on the unit sphere; the module also holds the analytic a.e.
subgradient of :math:`SW_2^2` with respect to particle positions used by
the gradient-flow schemes.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import InvalidInput
from .measures import (
    _SPLIT_ATOMS,
    _SPLIT_ENTRIES,
    _column_rows,
    _columns,
    _executor,
    _in_blocks,
    _in_order,
    _largest_block,
    _line_costs,
    _matched_uniform,
    _sorted_slices,
    check_masses,
    check_order,
    sorted_rows,
    validate_weights,
    wasserstein_1d_sorted,
)

# largest distance of a direction's norm from 1
UNIT_ATOL = 1e-9
# fewest atom-slice entries of the mean pair of a matrix whose pairs merge
# cumulative weights (some 25 times the work per entry of a difference of
# sorted rows) for the pairs to run in blocks on the pool
_SPLIT_MERGE_ENTRIES = 2**16


@dataclass(frozen=True)
class DirectionSet:
    """Unit directions (one per row) together with the seed that drew them.
    Rows that are not finite, or whose norm is more than ``UNIT_ATOL`` from
    1, are rejected."""

    dirs: np.ndarray
    seed: int

    def __post_init__(self):
        dirs = self.dirs
        if not (isinstance(dirs, np.ndarray) and dirs.ndim == 2 and dirs.size > 0):
            raise InvalidInput("directions must be a non-empty (L, d) array")
        if not np.all(np.isfinite(dirs)):
            raise InvalidInput("directions must be finite")
        with np.errstate(over="ignore"):  # huge entries: an inf norm, rejected
            err = np.abs(np.linalg.norm(dirs, axis=1) - 1.0)
        if not np.all(err <= UNIT_ATOL):
            raise InvalidInput(
                f"directions must have unit norm: row {int(np.argmax(err))} "
                f"is off by {np.max(err):.2e}"
            )

    @property
    def n_projections(self):
        return self.dirs.shape[0]


def sample_directions(d, n_projections, seed=0):
    r"""Draw ``n_projections`` i.i.d. directions uniform on :math:`S^{d-1}`.

    Uses the Gaussian-normalize construction: sample
    :math:`Z_\ell \sim \mathcal{N}(0, I_d)` and return
    :math:`Z_\ell / \|Z_\ell\|_2`.  Deterministic given ``seed``.
    """
    if d < 1 or n_projections < 1:
        raise InvalidInput("d and n_projections must be positive")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n_projections, d))
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    # resample the measure-zero event of a zero draw
    while np.any(norms == 0):
        bad = norms[:, 0] == 0
        z[bad] = rng.standard_normal((int(np.sum(bad)), d))
        norms = np.linalg.norm(z, axis=1, keepdims=True)
    return DirectionSet(dirs=z / norms, seed=seed)


def haar_orthonormal(z):
    """Q factors of a stack of Gaussian matrices, signs fixed to be Haar.

    The QR factor is made unique by a positive diagonal of ``R``, which
    makes ``Q`` Haar-distributed on the Stiefel manifold of its shape.
    """
    q, r = np.linalg.qr(z)
    signs = np.sign(np.einsum("...ii->...i", r))
    signs[signs == 0] = 1.0
    return q * signs[:, None, :]


class LineSlicer:
    """The row protocol of the package's line slicers.  A subclass has
    ``n_slices``; ``prepare(points)``, which checks one cloud and computes
    what every slice of it needs, once per cloud; and ``rows(features, lo,
    hi)``, the C-ordered ``(hi - lo, n)`` coordinates of slices ``[lo, hi)``
    of the prepared cloud, a fresh array its caller may overwrite."""

    def coordinates(self, points):
        """``(n, L)`` line coordinates: all rows, transposed, so that each
        slice's column is contiguous and sorts without a transposing copy."""
        return self.rows(self.prepare(points), 0, self.n_slices).T


def _product_rows(dirs, points, lo, hi):
    """Rows ``[lo, hi)`` of the ``(L, n)`` product ``dirs @ points.T``, with
    the bits of the whole product.  numpy hands a product with one row or
    one column to gemv or a dot, whose sums round differently from the
    matrix product's: one slice of several is read off a two-slice product,
    and one atom's rows off the whole product."""
    L = len(dirs)
    if len(points) == 1:
        return (dirs @ points.T)[lo:hi]
    if hi - lo == 1 < L:
        start = min(lo, L - 2)
        return (dirs[start:start + 2] @ points.T)[lo - start:hi - start]
    return dirs[lo:hi] @ points.T


def _row_map(slicer, points):
    """``(rows, L)``: the row map ``(lo, hi) -> (hi - lo, n)`` of one cloud
    through ``slicer`` and its slice count.  Any slicer other than a
    :class:`LineSlicer` maps the cloud whole through ``coordinates``, and
    the rows are copies of its columns."""
    if isinstance(slicer, LineSlicer):
        return partial(slicer.rows, slicer.prepare(points)), slicer.n_slices
    values = _columns(slicer.coordinates(points))
    return _column_rows(values), values.shape[1]


def point_rows(points):
    """Vector-valued atoms as an ``(n, d)`` array; a single point is one row."""
    x = np.atleast_2d(np.asarray(points, dtype=float))
    if x.ndim != 2:
        raise InvalidInput(f"points must be one per row, got shape {x.shape}")
    return x


def validate_pair(x, y, x_weights=None, y_weights=None):
    """The input boundary of every sliced distance.

    Checks that both clouds are non-empty and finite, with atoms of the
    same shape, and that their weights (uniform when ``None``) are valid
    and carry positive total mass.  Returns ``(x, a, y, b)`` as float
    arrays.  Membership of the manifold is left to each slicer.
    """
    x, a = validate_cloud(x, x_weights)
    y, b = validate_cloud(y, y_weights)
    if x.shape[1:] != y.shape[1:]:
        raise InvalidInput(f"atom shape mismatch: {x.shape[1:]} vs {y.shape[1:]}")
    return x, a, y, b


def validate_cloud(points, weights=None):
    """One side of :func:`validate_pair`: returns ``(points, weights)``."""
    x = np.asarray(points, dtype=float)
    if x.ndim < 2 or x.size == 0:
        raise InvalidInput("points must be a non-empty array with one atom per row")
    if not np.all(np.isfinite(x)):
        raise InvalidInput("points must be finite")
    w = validate_weights(weights, n=x.shape[0])
    if not np.sum(w) > 0:
        raise InvalidInput("measures must carry positive total mass")
    return x, w


def sliced_cost(slicer, x, y, p=2.0, x_weights=None, y_weights=None):
    r"""Monte-Carlo sliced :math:`W_p^p` through any line-valued slicer.

    The result is the mean over the ``L`` slices of the exact 1D
    :math:`W_p^p` between the two clouds' coordinate measures.  A
    :class:`LineSlicer` prepares each cloud once; the line kernel then maps,
    sorts and costs chunks of slices, in one block of slices per worker
    once the call holds ``_SPLIT_ENTRIES`` atom-slice entries, and never
    holds a cloud's ``(n, L)`` coordinates.  Any other object with
    ``coordinates(points) -> (n, L)`` maps each cloud whole, and the kernel
    reads copies of the columns.  Where the kernel stays whole, clouds of
    ``_SPLIT_ATOMS`` atoms in all are prepared on the pool, one task each.
    ``x``'s error comes first.
    """
    x, a, y, b = validate_pair(x, y, x_weights, y_weights)
    atoms = len(x) + len(y)
    split = isinstance(slicer, LineSlicer) and atoms * slicer.n_slices >= _SPLIT_ENTRIES
    pool = _executor() if atoms >= _SPLIT_ATOMS and not split else None
    (u_rows, L), (v_rows, Lv) = _in_order(_row_map, [(slicer, x), (slicer, y)], pool)
    check_order(p)
    if L != Lv:
        raise InvalidInput("u_values and v_values must have the same column count")
    check_masses(float(np.sum(a)), float(np.sum(b)))
    try:
        costs = _line_costs(u_rows, v_rows, L, a, b, p)
    except ValueError:
        # a row map failed, in x or in y: x's own error, if any, comes first
        u_rows(0, L)
        raise
    return float(np.mean(costs))


def sliced_cost_matrix(slicer, clouds, p=2.0, weights=None):
    """:func:`sliced_cost` of every pair of ``k`` clouds, as a symmetric
    ``(k, k)`` array with a zero diagonal and bit-identical entries.

    Each cloud is validated, mapped to its ``(L, n)`` rows and sorted in
    place once; each pair then runs only
    :func:`measures.wasserstein_1d_sorted`.  The order ``p`` is checked
    first, then the clouds in turn (each against the atom shape of the
    first), then the pairs' total masses in row order.  Large sets of
    clouds are mapped and sorted on the pool, one task each, and large
    pairs (:func:`_split_pairs`) run in row order as one contiguous block
    per worker, the blocks cut at equal totals of ``n_i + n_j``.
    """
    check_order(p)
    weights = [None] * len(clouds) if weights is None else weights
    pairs, sides = list(zip(clouds, weights, strict=True)), []
    if pairs:
        x, _ = pairs[0] = validate_cloud(*pairs[0])
        pool = _executor() if len(pairs) * len(x) >= _SPLIT_ATOMS else None
        calls = [(slicer, *pair, x.shape[1:]) for pair in pairs]
        sides = _in_order(_sorted_side, calls, pool)
    k = len(sides)
    values = np.zeros((k, k))
    rows, cols = np.triu_indices(k, 1)
    if rows.size:
        counts = np.array([side.rows.shape[1] for side in sides])
        values[rows, cols] = values[cols, rows] = _in_blocks(
            _pair_costs, rows.size, _split_pairs(sides),
            lambda lo, hi: (sides, rows[lo:hi], cols[lo:hi], p), counts[rows] + counts[cols])
    return values


def _split_pairs(sides):
    """Whether the pairs of :func:`sliced_cost_matrix` run on the pool: when
    the mean pair holds ``_SPLIT_ENTRIES`` atom-slice entries, ``(n_i +
    n_j) L``, or ``_SPLIT_MERGE_ENTRIES`` where pairs merge.  A pool task
    holds whole pairs, and on smaller ones the threads lose more taking
    turns on the GIL between numpy calls than the other cores save.  Where
    the largest block holds most of the unmerged pairs (three on two
    workers) the pairs outside it must also hold four times the gate: the
    largest block alone takes nearly as long as the serial loop."""
    k, (L, _) = len(sides), sides[0].rows.shape
    paired = all(_matched_uniform(sides[0].weights, side.weights) for side in sides)
    gate = _SPLIT_ENTRIES if paired else _SPLIT_MERGE_ENTRIES
    entries = 2 * L * sum(side.rows.shape[1] for side in sides)  # k mean pairs
    pairs = k * (k - 1) // 2
    outside = pairs - _largest_block(pairs)
    lopsided = paired and 2 * outside < pairs
    return entries >= gate * k and (not lopsided or outside * entries >= 4 * gate * k)


def _pair_costs(sides, rows, cols, p):
    """The mean 1D cost of every pair ``(sides[i], sides[j])`` of one block
    of :func:`sliced_cost_matrix`, in order."""
    return np.array([np.mean(wasserstein_1d_sorted(sides[i], sides[j], p))
                     for i, j in zip(rows, cols)])


def _sorted_side(slicer, x, w, shape):
    """One cloud of :func:`sliced_cost_matrix`: validated, checked against
    the atom shape of the first cloud, mapped and sorted."""
    x, w = validate_cloud(x, w)
    if x.shape[1:] != shape:
        raise InvalidInput(f"atom shape mismatch: {shape} vs {x.shape[1:]}")
    rows, L = _row_map(slicer, x)
    return _sorted_slices(rows(0, L), w)


@dataclass(frozen=True)
class EuclideanSlicer(LineSlicer):
    """Linear projections ``x -> <theta, x>`` for a shared direction set."""

    dirs: DirectionSet

    @property
    def n_slices(self):
        return self.dirs.n_projections

    def prepare(self, points):
        points = np.asarray(points, dtype=float)
        d = self.dirs.dirs.shape[1]
        if points.ndim != 2 or points.shape[1] != d:
            raise InvalidInput(f"points must be an (n, {d}) array, got {points.shape}")
        return points

    def rows(self, points, lo, hi):
        return _product_rows(self.dirs.dirs, points, lo, hi)


def sw_p(x, y, dirs, p=2.0, x_weights=None, y_weights=None):
    r"""Monte-Carlo :math:`SW_p^p` between two weighted point clouds.

    Returns :math:`\frac1L \sum_\ell W_p^p(\langle\theta_\ell, x\rangle_\#\mu,
    \langle\theta_\ell, y\rangle_\#\nu)` with the 1D costs computed exactly.
    """
    return sliced_cost(EuclideanSlicer(dirs), x, y, p, x_weights, y_weights)


def matched_residual(x_coords, y_coords):
    """Sorted-matching residual of equal-size coordinate columns.

    Per column, sorted coordinates are matched (:func:`measures.stable_order`)
    and the difference ``x_(i) - y_(i)`` is written back to the atom of ``x``
    that holds rank ``i``.  Returns an array of the shape of ``x_coords``.
    """
    return sorted_residual(x_coords, sorted_rows(y_coords)[0].T)


def sorted_residual(x_coords, y_sorted):
    """:func:`matched_residual` against columns ``y_sorted`` sorted already,
    e.g. a fixed target matched many times.  The columns sort as contiguous
    rows (:func:`measures.sorted_rows` on :func:`measures.stable_order`) and
    the residual is scattered back into an ``(n, L)`` array."""
    diff, sigma = sorted_rows(x_coords)
    diff -= np.asarray(y_sorted).T
    L, n = diff.shape
    resid = np.empty((n, L))
    resid.ravel()[sigma * L + np.arange(L)[:, None]] = diff
    return resid


def sw2_subgradient(x, y, dirs):
    r"""Analytic a.e. gradient of :math:`SW_2^2` w.r.t. the positions of ``x``.

    Restricted to uniform weights and equal atom counts, where the optimal
    1D couplings are sorted matchings.  For each slice, sorted projections
    are matched and :math:`\frac{2}{nL}(\langle\theta, x_{\sigma(i)}\rangle -
    \langle\theta, y_{\tau(i)}\rangle)\,\theta` accumulates onto atom
    :math:`\sigma(i)`.  Valid wherever the projections are pairwise
    distinct; ties keep the stable-sort permutation.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise InvalidInput("sw2_subgradient needs equal atom counts and dimension")
    theta = dirs.dirs
    coeff = matched_residual(x @ theta.T, y @ theta.T)
    return (2.0 / (x.shape[0] * theta.shape[0])) * coeff @ theta

r"""Sliced-Wasserstein distance on Euclidean space, and the shared slicing core.

Every line-valued sliced distance of the package is :func:`sliced_cost`: a
slicer maps each cloud to ``(n, L)`` line coordinates, the exact 1D costs
of the ``L`` columns are averaged, and :func:`validate_pair` checks the
inputs once on the way in.  Euclidean slicing uses directions drawn
uniformly on the unit sphere; the module also holds the analytic a.e.
subgradient of :math:`SW_2^2` with respect to particle positions used by
the gradient-flow schemes.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .measures import validate_weights, wasserstein_1d_batched


@dataclass(frozen=True)
class DirectionSet:
    """Unit directions (one per row) together with the seed that drew them."""

    dirs: np.ndarray
    seed: int

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

    ``slicer.coordinates(points)`` maps a cloud to its ``(n, L)`` line
    coordinates; the result is the mean over the ``L`` columns of the exact
    1D :math:`W_p^p` between the coordinate measures.
    """
    x, a, y, b = validate_pair(x, y, x_weights, y_weights)
    costs = wasserstein_1d_batched(
        slicer.coordinates(x), slicer.coordinates(y), a, b, p=p
    )
    return float(np.mean(costs))


@dataclass(frozen=True)
class EuclideanSlicer:
    """Linear projections ``x -> <theta, x>`` for a shared direction set."""

    dirs: DirectionSet

    def coordinates(self, points):
        points = np.asarray(points, dtype=float)
        d = self.dirs.dirs.shape[1]
        if points.ndim != 2 or points.shape[1] != d:
            raise InvalidInput(f"points must be an (n, {d}) array, got {points.shape}")
        return points @ self.dirs.dirs.T


def sw_p(x, y, dirs, p=2.0, x_weights=None, y_weights=None):
    r"""Monte-Carlo :math:`SW_p^p` between two weighted point clouds.

    Returns :math:`\frac1L \sum_\ell W_p^p(\langle\theta_\ell, x\rangle_\#\mu,
    \langle\theta_\ell, y\rangle_\#\nu)` with the 1D costs computed exactly.
    """
    return sliced_cost(EuclideanSlicer(dirs), x, y, p, x_weights, y_weights)


def matched_residual(x_coords, y_coords):
    """Sorted-matching residual of equal-size coordinate columns.

    Per column, sorted coordinates are matched (stable sort) and the
    difference ``x_(i) - y_(i)`` is written back to the atom of ``x`` that
    holds rank ``i``.  Returns an array of the shape of ``x_coords``.
    """
    return sorted_residual(x_coords, np.sort(y_coords, axis=0, kind="stable"))


def sorted_residual(x_coords, y_sorted):
    """:func:`matched_residual` against columns ``y_sorted`` sorted already,
    e.g. a fixed target matched many times."""
    sigma = np.argsort(x_coords, axis=0, kind="stable")
    diff = np.take_along_axis(x_coords, sigma, axis=0) - y_sorted
    resid = np.empty_like(diff)
    np.put_along_axis(resid, sigma, diff, axis=0)
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

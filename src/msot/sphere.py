r"""Spherical sliced Wasserstein on :math:`S^{d-1}`.

Great circles are sampled as two-frames on the Stiefel manifold
:math:`\mathbb{V}_{d,2}`, points are projected with the closed form
:math:`P^U(x) = U^T x / \|U^T x\|_2` and compared with the frame-batched
circle Wasserstein solvers of :mod:`msot.measures`: one call solves every
great circle, with no loop over frames.
"""

import numpy as np

from .errors import InvalidInput, MeasureZeroProjection, check_atoms
from .measures import circle_w1_batched, circle_w2_uniform_batched, circle_wp_batched
from .sliced import haar_orthonormal, point_rows, validate_cloud, validate_pair

PROJECTION_FLOOR = 1e-12


def sample_stiefel(d, n_projections, seed=0):
    """Uniform two-frames: Gaussian (d, 2) matrices through a sign-fixed QR."""
    if d < 3:
        raise InvalidInput("great-circle slicing needs ambient dimension >= 3")
    if n_projections < 1:
        raise InvalidInput("n_projections must be positive")
    rng = np.random.default_rng(seed)
    return haar_orthonormal(rng.standard_normal((n_projections, d, 2)))


def validate_sphere(points):
    """Unit-sphere points as ``(n, d)`` rows; names the first atom off it."""
    x = point_rows(points)
    # negated comparison so that non-finite coordinates fail too
    with np.errstate(over="ignore"):  # huge coordinates: an inf norm, rejected
        off = np.abs(np.linalg.norm(x, axis=-1) - 1.0)
    check_atoms(off <= 1e-6, "not on the unit sphere")
    return x


def project_circle(points, frame):
    r"""Angles in ``[0, 1)`` of the great-circle projections of ``points``.

    The plane coordinates are ``z = U^T x / ||U^T x||_2`` and the angle
    convention is ``(pi + atan2(-z_2, -z_1)) / (2 pi)``.  Points whose plane
    projection is numerically zero have no almost-everywhere-unique image
    and raise :class:`MeasureZeroProjection` (resample the slice).  The
    one-frame case of :func:`_project_frames`.
    """
    return _project_frames(points, np.asarray(frame)[None])[0]


def _project_frames(points, frames):
    """Great-circle angles of ``points`` on every frame, shape ``(L, n)``.

    All ``L`` frames are applied in one product; see :func:`project_circle`
    for the angle convention and the measure-zero check.
    """
    x = validate_sphere(points)
    frames = np.asarray(frames, dtype=float)
    if frames.shape[-2] != x.shape[1]:
        raise InvalidInput(
            f"frames in R^{frames.shape[-2]} cannot slice points in R^{x.shape[1]}"
        )
    z = x @ frames  # (L, n, 2)
    norms = np.linalg.norm(z, axis=-1, keepdims=True)
    if np.min(norms) <= PROJECTION_FLOOR:
        raise MeasureZeroProjection(
            "a point projects onto the orthogonal complement of the frame"
        )
    return circle_coordinates(z / norms)


def circle_coordinates(z):
    """Angle in [0, 1) of unit vectors in the plane (shared convention)."""
    z = np.atleast_2d(z)
    return (np.pi + np.arctan2(-z[..., 1], -z[..., 0])) / (2.0 * np.pi)


def ssw(x, y, frames, p=2.0, x_weights=None, y_weights=None, eps=1e-6):
    r"""Spherical sliced Wasserstein :math:`SSW_p^p` between two clouds.

    Averages the circle :math:`W_p^p` between projected angle profiles over
    the Stiefel frames, all frames solved at once: the level-median closed
    form for ``p = 1`` and the shift bisection otherwise.
    """
    x, a, y, b = validate_pair(point_rows(x), point_rows(y), x_weights, y_weights)
    u, v = _project_frames(x, frames), _project_frames(y, frames)
    if p == 1:
        return float(np.mean(circle_w1_batched(u, v, a, b)))
    return float(np.mean(circle_wp_batched(u, v, a, b, p=p, eps=eps)))


def ssw2_vs_uniform(x, frames, x_weights=None):
    r"""Monte-Carlo :math:`SSW_2^2` against the uniform measure on the sphere.

    Great-circle projections of the uniform measure are uniform on the
    circle, so each slice reduces to the closed form of
    :func:`msot.measures.circle_w2_uniform_batched`; no uniform samples needed.
    """
    x, a = validate_cloud(point_rows(x), x_weights)
    return float(np.mean(circle_w2_uniform_batched(_project_frames(x, frames), a)))

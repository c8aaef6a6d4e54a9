r"""Spherical sliced Wasserstein on :math:`S^{d-1}`.

Great circles are sampled as two-frames on the Stiefel manifold
:math:`\mathbb{V}_{d,2}`, points are projected with the closed form
:math:`P^U(x) = U^T x / \|U^T x\|_2` and compared with the frame-batched
circle Wasserstein solvers of :mod:`msot.measures`, with no loop over
frames.  A large call runs in contiguous frame blocks on the pool of
:mod:`msot.measures`, one per worker, each block projecting both clouds
onto its frames and solving them; no step sums across frames, so the
per-frame costs are those of one thread, bit for bit.
"""

from functools import partial

import numpy as np

from .errors import InvalidInput, MeasureZeroProjection, check_atoms
from .measures import (
    _in_blocks,
    check_order,
    check_positive,
    check_probability,
    circle_w1_batched,
    circle_w2_uniform_batched,
    circle_wp_batched,
)
from .sliced import haar_orthonormal, point_rows, validate_cloud, validate_pair

PROJECTION_FLOOR = 1e-12
# fewest atom-frame entries, (n + m) * L, of a call whose frames run in
# blocks on the pool; below it the blocks' tasks contend for the GIL and
# the call runs slower than on one thread.  The closed form against the
# uniform measure gains from 2^16 entries; the solvers of ``ssw``, which
# make more small numpy calls per frame, only from 2^17
_SPLIT_FRAME_ENTRIES = 2**16
_SPLIT_SSW_ENTRIES = 2**17


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
    if np.ndim(frame) != 2:
        raise InvalidInput(f"project_circle takes one (d, 2) frame, got shape {np.shape(frame)}")
    return _project_frames(points, frame)[0]


def _project_frames(points, frames):
    """Great-circle angles of ``points`` on every frame, shape ``(L, n)``.

    All ``L`` frames are applied in one product; see :func:`project_circle`
    for the angle convention and the measure-zero check.
    """
    x = validate_sphere(points)
    return _angles(x, _frames_for(frames, x.shape[1]))


def _frames_for(frames, d):
    """``frames`` as a float ``(L, d, 2)`` stack of frames in ``R^d``, with
    ``L >= 1``; one ``(d, 2)`` frame is a stack of one, as in
    :func:`project_circle`."""
    given = np.asarray(frames, dtype=float)
    frames = given[None] if given.ndim == 2 else given
    if frames.ndim != 3 or frames.shape[0] == 0 or frames.shape[2] != 2:
        raise InvalidInput("frames must be one (d, 2) frame or a non-empty (L, d, 2) "
                           f"stack, got shape {given.shape}")
    if frames.shape[1] != d:
        raise InvalidInput(f"frames in R^{frames.shape[1]} cannot slice points in R^{d}")
    return frames


def _angles(x, frames):
    """:func:`_project_frames` of sphere points checked against the frames."""
    z = x @ frames  # (L, n, 2)
    # the sums np.linalg.norm(z, axis=-1) takes, bit for bit, without its
    # slow reduction along an axis of two
    norms = np.sqrt(z[..., 0] * z[..., 0] + z[..., 1] * z[..., 1])
    if np.min(norms) <= PROJECTION_FLOOR:
        raise MeasureZeroProjection(
            "a point projects onto the orthogonal complement of the frame"
        )
    return circle_coordinates(z, norms)


def _frame_costs(solve, clouds, frames, split_entries):
    """``solve`` of the clouds' angles on every frame, one cost per frame.

    The clouds and frames come checked, so the only error a block can raise
    is a zero projection, whose message is the same in every block.  Calls
    with ``split_entries`` atom-frame entries or more run one block of
    frames per worker.
    """
    split = sum(map(len, clouds)) * len(frames) >= split_entries
    return _in_blocks(_block_costs, len(frames), split,
                      lambda lo, hi: (solve, clouds, frames[lo:hi]))


def _block_costs(solve, clouds, frames):
    """One block of :func:`_frame_costs`: project every cloud, then solve."""
    return solve(*(_angles(x, frames) for x in clouds))


def circle_coordinates(z, norms=1.0):
    """Angle in [0, 1) of the unit vectors ``z / norms`` in the plane (shared
    convention); the division runs on each coordinate."""
    z = np.atleast_2d(z)
    return (np.pi + np.arctan2(-(z[..., 1] / norms), -(z[..., 0] / norms))) / (2.0 * np.pi)


def ssw(x, y, frames, p=2.0, x_weights=None, y_weights=None, eps=1e-6):
    r"""Spherical sliced Wasserstein :math:`SSW_p^p` between two clouds.

    Averages the circle :math:`W_p^p` between projected angle profiles over
    the Stiefel frames: the level-median closed form for ``p = 1`` and the
    shift bisection otherwise.  Every input is checked before the first
    projection, so a zero projection is reported only on inputs that are
    otherwise valid.
    """
    x, a, y, b = validate_pair(point_rows(x), point_rows(y), x_weights, y_weights)
    x = validate_sphere(x)
    frames = _frames_for(frames, x.shape[1])
    y = validate_sphere(y)
    if p == 1:
        solve = partial(circle_w1_batched, x_weights=a, y_weights=b)
    else:
        check_order(p)
        check_positive(eps, "eps")
        solve = partial(circle_wp_batched, x_weights=a, y_weights=b, p=p, eps=eps)
    check_probability(a)
    check_probability(b)
    return float(np.mean(_frame_costs(solve, [x, y], frames, _SPLIT_SSW_ENTRIES)))


def ssw2_vs_uniform(x, frames, x_weights=None):
    r"""Monte-Carlo :math:`SSW_2^2` against the uniform measure on the sphere.

    Great-circle projections of the uniform measure are uniform on the
    circle, so each slice reduces to the closed form of
    :func:`msot.measures.circle_w2_uniform_batched`; no uniform samples needed.
    """
    x, a = validate_cloud(point_rows(x), x_weights)
    x = validate_sphere(x)
    frames = _frames_for(frames, x.shape[1])
    check_probability(a)
    solve = partial(circle_w2_uniform_batched, weights=a)
    return float(np.mean(_frame_costs(solve, [x], frames, _SPLIT_FRAME_ENTRIES)))

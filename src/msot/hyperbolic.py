r"""Hyperbolic geometry kernels and sliced distances.

Points live either on the Lorentz hyperboloid
:math:`\mathbb{L}^d = \{x \in \mathbb{R}^{d+1} : \langle x,x\rangle_\mathbb{L}
= -1,\ x_0 > 0\}` or in the Poincaré ball
:math:`\mathbb{B}^d = \{x \in \mathbb{R}^d : \|x\|_2 < 1\}`.  Slicing
directions are ideal points :math:`\tilde v \in S^{d-1}`, lifted on the
hyperboloid to :math:`v = (0, \tilde v) \in T_{x^0}\mathbb{L}^d`.

Both models are accepted everywhere.  The geodesic and Busemann
coordinates evaluate a closed form of their own in each model; Poincaré
points are not lifted to the hyperboloid first.  Near the ball's boundary
the Poincaré geodesic coordinate is the more accurate of the two routes.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, check_atoms
from .sliced import DirectionSet, _project, point_rows, sliced_cost

LORENTZ_ATOL = 1e-9
_ARCTANH_CLIP = 1.0 - 1e-15
# atom-slice entries of one block of the Poincare geodesic coordinate: each
# of its two temporaries is 512 KiB and stays in a core's L2; with smaller
# blocks two clouds mapped on the pool take turns on the GIL between their
# many small calls
_COORD_BLOCK_ENTRIES = 2**16


def minkowski_ip(x, y):
    """Minkowski product ``-x0*y0 + sum_i xi*yi`` along the last axis."""
    return -x[..., 0] * y[..., 0] + np.sum(x[..., 1:] * y[..., 1:], axis=-1)


def origin(d):
    """The hyperboloid origin ``x^0 = (1, 0, ..., 0)``."""
    x0 = np.zeros(d + 1)
    x0[0] = 1.0
    return x0


def validate_lorentz(x):
    """Hyperboloid points as ``(n, d + 1)`` rows; names the first atom off it."""
    x = point_rows(x)
    if x.shape[1] < 1:
        raise InvalidInput("Lorentz points need a time coordinate")
    # negated comparisons so that non-finite coordinates fail too
    timelike = x[:, 0] > 0
    with np.errstate(over="ignore", invalid="ignore"):
        err = np.abs(minkowski_ip(x, x) + 1.0)
    # finite coordinates whose squares overflow (inf - inf) are off by inf
    err[np.isnan(err) & np.all(np.isfinite(x), axis=1)] = np.inf
    check_atoms(timelike & (err <= LORENTZ_ATOL), lambda i: (
        f"points off the hyperboloid by {err[i]:.2e}" if timelike[i]
        else "Lorentz points need a positive time coordinate"))
    return x


def validate_poincare(x):
    """Poincare ball points as ``(n, d)`` rows; names the first atom outside."""
    x = point_rows(x)
    with np.errstate(over="ignore"):  # huge coordinates: an inf norm, rejected
        norms = np.linalg.norm(x, axis=-1)
    check_atoms(norms < 1.0, "Poincare points must have norm < 1")
    return x


def lorentz_to_poincare(x):
    """Isometric projection ``x -> x_{1:d} / (1 + x_0)``."""
    x = validate_lorentz(x)
    return x[:, 1:] / (1.0 + x[:, :1])


def poincare_to_lorentz(x):
    """Isometric lift ``x -> (1 + |x|^2, 2x) / (1 - |x|^2)``."""
    x = validate_poincare(x)
    sq = np.sum(x**2, axis=-1, keepdims=True)
    return np.concatenate([1.0 + sq, 2.0 * x], axis=-1) / (1.0 - sq)


def project_to_hyperboloid(x):
    """Re-normalize the time coordinate so that <x, x>_L = -1 exactly."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    out = x.copy()
    out[:, 0] = np.sqrt(1.0 + np.sum(x[:, 1:] ** 2, axis=-1))
    return out


def geodesic_coordinate(x, ideal, model="lorentz"):
    r"""Signed coordinate of the geodesic projection onto ``span(x^0, v)``.

    Lorentz: :math:`P^v(x) = \operatorname{arctanh}(-\langle x,v
    \rangle_\mathbb{L} / \langle x,x^0\rangle_\mathbb{L})`.
    Poincaré: :math:`P^{\tilde v}(x) = \operatorname{sign}(\langle x,
    \tilde v\rangle) \frac12 \log(1 + 4 |\langle x, \tilde v\rangle| /
    \|x - s \tilde v\|_2^2)` with :math:`s = \operatorname{sign}(\langle
    x, \tilde v\rangle)`, which is :math:`2 \operatorname{arctanh}(t)` at
    :math:`x = t \tilde v` and cancels neither near :math:`\pm\tilde v` nor
    near :math:`\langle x, \tilde v\rangle = 0`.

    Returns an ``(n, L)`` array for ``n`` points and ``L`` directions, its
    columns contiguous.
    """
    ideal = np.atleast_2d(ideal)
    if model == "lorentz":
        x = validate_lorentz(x)
        # -<x, v>_L / <x, x0>_L = <x_{1:}, ideal> / x0, as an (n, L) matrix;
        # a contiguous x0 keeps the loops down the columns contiguous
        out = _project(x[:, 1:], ideal)
        out /= np.ascontiguousarray(x[:, :1])
        np.clip(out, -_ARCTANH_CLIP, _ARCTANH_CLIP, out=out)
        return np.arctanh(out, out=out)
    if model == "poincare":
        x = validate_poincare(x)
        out = _project(x, ideal)
        _poincare_geodesic_rows(out.T, x, ideal)
        return out
    raise InvalidInput(f"unknown model {model!r}")


def _poincare_geodesic_rows(rows, x, ideal):
    """The Poincare geodesic coordinate written over the ``(L, n)`` rows of
    products ``<x, v>``, in blocks of slices whose few temporaries stay in
    cache."""
    L, n = rows.shape
    sq, v_sq = np.sum(x**2, axis=-1), np.sum(ideal**2, axis=-1)
    step = max(1, min(L, _COORD_BLOCK_ENTRIES // max(n, 1)))
    num, den = np.empty((step, n)), np.empty((step, n))
    for lo in range(0, L, step):
        ip = rows[lo : lo + step]
        s = len(ip)
        t, sq_dist = np.abs(ip, out=num[:s]), den[:s]
        t *= 2.0
        np.add(v_sq[lo : lo + s, None], sq, out=sq_dist)
        sq_dist -= t  # |x|^2 - 2 |<x, v>| + |v|^2
        _summed_where_cancelled(sq_dist, x, ideal[lo : lo + s], ip)
        t *= 2.0
        t /= sq_dist
        np.log1p(t, out=t)
        t *= 0.5
        np.copysign(t, ip, out=ip)


def _summed_where_cancelled(sq_dist, x, ideal, ip=None):
    """Where the expansion ``sq_dist`` of ``|x - s v|^2`` over ``(L, n)``
    rows falls below 1e-4 it cancels: write the sum of squared differences
    there.  ``s`` is the sign of ``ip`` (+1 at 0), or +1 without ``ip``."""
    if np.min(sq_dist, initial=np.inf) < 1e-4:
        r, c = np.nonzero(sq_dist < 1e-4)
        near = ideal[r] if ip is None else np.where(ip[r, c] < 0.0, -1.0, 1.0)[:, None] * ideal[r]
        sq_dist[r, c] = np.sum((x[c] - near) ** 2, axis=-1)


def j_flip(v):
    """``J v`` for ``J = diag(-1, 1, ..., 1)``: ``x @ (J v).T`` is ``<x, v>_L``."""
    out = v.copy()
    out[..., 0] = -out[..., 0]
    return out


def busemann_coordinate(x, ideal, model="lorentz"):
    r"""Busemann function of the geodesic ray with ideal point ``ideal``.

    Lorentz: :math:`B^v(x) = \log(-\langle x, x^0+v\rangle_\mathbb{L})`;
    Poincaré: :math:`B^{\tilde v}(x) = \log(\|\tilde v - x\|_2^2 /
    (1 - \|x\|_2^2))`.  Shape ``(n, L)``.
    """
    ideal = np.atleast_2d(ideal)
    if model == "lorentz":
        x = validate_lorentz(x)
        # -<x, x0 + v>_L = x0 - <x_{1:}, v>
        out = _project(x[:, 1:], ideal)
        np.subtract(np.ascontiguousarray(x[:, :1]), out, out=out)
        return np.log(out, out=out)
    if model == "poincare":
        x = validate_poincare(x)
        x_sq = np.sum(x**2, axis=-1)[:, None]
        # |v - x|^2 / (1 - |x|^2); the expansion of |v - x|^2 cancels near the
        # ideal point, so the few pairs nearer than 1e-2 take the difference
        out = _project(2.0 * x, ideal)
        np.subtract(np.sum(ideal**2, axis=-1)[None, :], out, out=out)
        out += x_sq
        _summed_where_cancelled(out.T, x, ideal)
        out /= 1.0 - x_sq
        return np.log(out, out=out)
    raise InvalidInput(f"unknown model {model!r}")


@dataclass(frozen=True)
class HyperbolicSlicer:
    """Geodesic or horospherical coordinates on hyperbolic space.

    The horospherical coordinate is the negated Busemann function, so that
    points on the ray map to their parameter.
    """

    dirs: DirectionSet
    model: str = "lorentz"
    kind: str = "geodesic"

    def coordinates(self, points):
        points = point_rows(points)
        # Lorentz points carry the time coordinate ahead of the directions'
        d = self.dirs.dirs.shape[1] + (self.model == "lorentz")
        if points.shape[1] != d:
            raise InvalidInput(f"these directions need {self.model} points in R^{d}")
        if self.kind == "geodesic":
            return geodesic_coordinate(points, self.dirs.dirs, model=self.model)
        if self.kind == "horospherical":
            out = busemann_coordinate(points, self.dirs.dirs, model=self.model)
            return np.negative(out, out=out)
        raise InvalidInput(f"unknown hyperbolic slicer kind {self.kind!r}")


def ghsw(x, y, dirs, p=2.0, x_weights=None, y_weights=None, model="lorentz"):
    r"""Geodesic hyperbolic sliced Wasserstein, :math:`GHSW_p^p`.

    Draw :math:`\tilde v \sim \mathrm{Unif}(S^{d-1})`, project both clouds
    with the geodesic coordinate and average the 1D :math:`W_p^p` costs.
    Lorentz and Poincaré inputs give the same value with shared slices.
    """
    slicer = HyperbolicSlicer(dirs, model=model, kind="geodesic")
    return sliced_cost(slicer, point_rows(x), point_rows(y), p, x_weights, y_weights)


def hhsw(x, y, dirs, p=2.0, x_weights=None, y_weights=None, model="lorentz"):
    r"""Horospherical hyperbolic sliced Wasserstein, :math:`HHSW_p^p`.

    Same Monte-Carlo average with the horospherical coordinate of
    :class:`HyperbolicSlicer` as the line coordinate.
    """
    slicer = HyperbolicSlicer(dirs, model=model, kind="horospherical")
    return sliced_cost(slicer, point_rows(x), point_rows(y), p, x_weights, y_weights)


def parallel_transport_from_origin(v, target):
    r"""Transport tangent vectors from :math:`T_{x^0}` to :math:`T_{target}`.

    ``PT_{x->y}(v) = v + <y, v>_L (x + y) / (1 - <x, y>_L)``.
    """
    x0 = origin(target.shape[-1] - 1)
    coef = minkowski_ip(target[None, :], v) / (
        1.0 - minkowski_ip(x0[None, :], target[None, :])
    )
    return v + coef[:, None] * (x0 + target)[None, :]


def exp_map(x, v):
    """Exponential map ``exp_x(v)`` for tangent vectors ``v`` at ``x``."""
    norms = np.sqrt(np.maximum(minkowski_ip(v, v), 0.0))
    out = np.where(
        norms[:, None] > 0,
        np.cosh(norms)[:, None] * x
        + np.sinh(norms)[:, None] * v / np.where(norms[:, None] > 0, norms[:, None], 1.0),
        x,
    )
    return project_to_hyperboloid(out)


def sample_wrapped_normal(mean, cov, n, seed=0):
    """Sample a wrapped normal on the hyperboloid.

    Gaussian draws in the tangent space at the origin are parallel
    transported to ``mean`` and pushed through the exponential map.
    """
    mean = validate_lorentz(mean)[0]
    cov = np.asarray(cov, dtype=float)
    d = mean.size - 1
    if cov.shape != (d, d):
        raise InvalidInput(f"covariance must be ({d}, {d})")
    if np.any(np.linalg.eigvalsh((cov + cov.T) / 2.0) <= 0):
        raise InvalidInput("covariance must be symmetric positive definite")
    rng = np.random.default_rng(seed)
    z = rng.multivariate_normal(np.zeros(d), cov, size=n, method="cholesky")
    v = np.concatenate([np.zeros((n, 1)), z], axis=-1)
    u = parallel_transport_from_origin(v, mean)
    return exp_map(np.broadcast_to(mean, u.shape), u)


def riemannian_step_lorentz(x, euclid_grad, lr):
    """One Riemannian gradient-descent step on the hyperboloid.

    The ambient gradient is converted with ``grad f(x) = Proj_x(J grad)``
    where ``J = diag(-1, 1, ..., 1)`` and
    ``Proj_x(z) = z + <x, z>_L x``, then followed along ``exp_x``.
    The output is re-normalized onto the hyperboloid to absorb roundoff.
    """
    x = validate_lorentz(x)
    g = np.atleast_2d(np.asarray(euclid_grad, dtype=float))
    jg = j_flip(g)
    rgrad = jg + minkowski_ip(x, jg)[:, None] * x
    return exp_map(x, -lr * rgrad)

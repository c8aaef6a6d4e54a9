r"""Busemann functions on Wasserstein space.

A unit-speed geodesic ray :math:`(\mu_t)_{t \ge 0}` in
:math:`(\mathcal{P}_2, W_2)` defines
:math:`B^\mu(\nu) = \lim_t (W_2(\mu_t, \nu) - t)`.  This module certifies
rays (1D quantile criterion, Gaussian covariance criterion), evaluates the
closed forms (1D, 1D-Gaussian, Bures-Wasserstein), projects measures on a
ray and runs the closed-form PCA of 1D Gaussians.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateData, InvalidInput, NotARay, check_atoms
from .measures import SortedProfile, quantile_rows
from .spd import inv_sqrt_eig, sym_eig

UNIT_SPEED_ATOL = 1e-10
RAY_EIG_SLACK = 1e-9


@dataclass(frozen=True)
class GaussianRay:
    """Unit-speed 1D-Gaussian geodesic ray through (m0, s0) and (m1, s1)."""

    m0: float
    s0: float
    m1: float
    s1: float

    def __post_init__(self):
        if not self.s0 > 0:
            raise InvalidInput("s0 must be positive")
        if not self.s1 >= self.s0:
            raise NotARay("geodesic rays need s1 >= s0")
        speed = (self.m1 - self.m0) ** 2 + (self.s1 - self.s0) ** 2
        if not abs(speed - 1.0) <= UNIT_SPEED_ATOL:
            raise NotARay(f"ray must have unit speed, got W2^2 = {speed}")

    def at(self, t):
        """Interpolated parameters (m_t, s_t) along the ray."""
        return (
            self.m0 + t * (self.m1 - self.m0),
            self.s0 + t * (self.s1 - self.s0),
        )


@dataclass(frozen=True)
class BWGaussian:
    """Gaussian measure of the Bures-Wasserstein space."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        if not np.all(np.isfinite(mean)):
            raise InvalidInput("mean must be finite")
        vals, _ = sym_eig(cov)
        if np.min(vals) <= 0:
            raise InvalidInput("covariance must be positive definite")


def is_geodesic_ray_1d(mu0, mu1):
    """Check the quantile criterion for a 1D geodesic ray.

    The displacement interpolation of ``(mu0, mu1)`` extends to a ray iff
    the difference of quantile functions is non-decreasing; returns
    ``(flag, witness)`` with the first violating breakpoint pair if not.
    """
    qs, (q0, q1) = _steps(mu0, mu1)
    diff = q1 - q0
    drops = np.nonzero(np.diff(diff) < -1e-12)[0]
    if drops.size == 0:
        return True, None
    k = int(drops[0])
    return False, (float(qs[k]), float(diff[k]), float(diff[k + 1]))


@dataclass(frozen=True)
class QuantileRay:
    """Unit-speed ray backed by two sorted probability profiles."""

    mu0: SortedProfile
    mu1: SortedProfile

    def __post_init__(self):
        ok, witness = is_geodesic_ray_1d(self.mu0, self.mu1)
        if not ok:
            raise NotARay(f"quantile difference decreases at {witness}")
        speed = _piecewise_inner(self.mu1, self.mu0, self.mu1, self.mu0)
        if abs(speed - 1.0) > 1e-8:
            raise NotARay(f"ray must have unit speed, got W2^2 = {speed}")

    def quantiles_at(self, t, qs):
        """Quantiles of the ray at time ``t`` on non-decreasing levels ``qs``."""
        q0 = quantile_rows(self.mu0.positions, self.mu0.cum, qs)
        return q0 + t * (quantile_rows(self.mu1.positions, self.mu1.cum, qs) - q0)


def _steps(*profiles):
    """Sorted union ``qs`` of the profiles' cumulative weights, with every
    profile's left-continuous quantile function on it."""
    qs = np.sort(np.concatenate([p.cum for p in profiles]))
    return qs, [quantile_rows(p.positions, p.cum, qs) for p in profiles]


def _piecewise_inner(a1, a0, b1, b0):
    """Exact ``<Q_a1 - Q_a0, Q_b1 - Q_b0>_{L^2([0,1])}`` for step quantiles."""
    qs, (qa1, qa0, qb1, qb0) = _steps(a1, a0, b1, b0)
    delta = np.diff(qs, prepend=0.0)
    return float(np.sum(delta * (qa1 - qa0) * (qb1 - qb0)))


def busemann_w1d(ray, nu):
    r"""Closed form on :math:`\mathcal{P}_2(\mathbb{R})`:

    .. math::
        B^\mu(\nu) = -\langle F_{\mu_1}^{-1} - F_{\mu_0}^{-1},
        F_\nu^{-1} - F_{\mu_0}^{-1}\rangle_{L^2([0,1])},

    evaluated exactly on the merged breakpoints.
    """
    return -_piecewise_inner(ray.mu1, ray.mu0, nu, ray.mu0)


def busemann_gaussian1d(ray, m, s):
    """1D-Gaussian closed form ``-(m1-m0)(m-m0) - (s1-s0)(s-s0)``."""
    validate_gaussians([[m, s]])
    return -(ray.m1 - ray.m0) * (m - ray.m0) - (ray.s1 - ray.s0) * (s - ray.s0)


def _sqrt_eig(vals, vecs):
    """``M^{1/2}`` from ``(vals, vecs) = sym_eig(M)``, clamped at 0."""
    return vecs @ np.diag(np.sqrt(np.maximum(vals, 0.0))) @ vecs.T


def _trace_sqrt_psd(mat):
    vals, _ = sym_eig((mat + mat.T) / 2.0)
    return float(np.sum(np.sqrt(np.maximum(vals, 0.0))))


def bw_distance_sq(mu, nu):
    """Squared Bures-Wasserstein distance between two Gaussians."""
    s = _sqrt_eig(*sym_eig(mu.cov))
    cross = _trace_sqrt_psd(s @ nu.cov @ s)
    return float(
        np.sum((mu.mean - nu.mean) ** 2)
        + np.trace(mu.cov) + np.trace(nu.cov) - 2.0 * cross
    )


def bw_ray_map(mu0, mu1):
    """Transport matrix ``A`` of the BW geodesic, with the ray check.

    ``A = S^{-1/2}(S^{1/2} Sigma_1 S^{1/2})^{1/2} S^{-1/2}`` for
    ``S = Sigma_0``; raises unless ``A >= I`` (within eigenvalue slack) and
    the pair has unit speed.
    """
    vals, vecs = sym_eig(mu0.cov)
    s_half = _sqrt_eig(vals, vecs)
    s_inv_half = inv_sqrt_eig(vals, vecs)
    inner = _sqrt_eig(*sym_eig(s_half @ mu1.cov @ s_half))
    a = s_inv_half @ inner @ s_inv_half
    a = (a + a.T) / 2.0
    a_vals, _ = sym_eig(a - np.eye(a.shape[0]))
    if np.min(a_vals) < -RAY_EIG_SLACK:
        raise NotARay("covariances do not satisfy the ray condition A >= I")
    speed = bw_distance_sq(mu0, mu1)
    if abs(speed - 1.0) > 1e-8:
        raise NotARay(f"ray must have unit speed, got W2^2 = {speed}")
    return a


def busemann_bw(mu0, mu1, nu):
    r"""Closed form on the Bures-Wasserstein space:

    .. math::
        B^\mu(\nu) = -\langle m_1 - m_0, m - m_0\rangle
        + \mathrm{tr}(\Sigma_0 (A - I))
        - \mathrm{tr}\big((\Sigma^{1/2}(\Sigma_0 - \Sigma_0 A - A\Sigma_0
          + \Sigma_1)\Sigma^{1/2})^{1/2}\big).
    """
    a = bw_ray_map(mu0, mu1)
    sig_half = _sqrt_eig(*sym_eig(nu.cov))
    middle = mu0.cov - mu0.cov @ a - a @ mu0.cov + mu1.cov
    tail = _trace_sqrt_psd(sig_half @ middle @ sig_half)
    return float(
        -np.dot(mu1.mean - mu0.mean, nu.mean - mu0.mean)
        + np.trace(mu0.cov @ (a - np.eye(a.shape[0])))
        - tail
    )


def ray_domain_gaussian1d(ray):
    """Maximal parameter interval of a 1D-Gaussian ray.

    ``[-s0 / (s1 - s0), +inf)`` for a genuine ray; the whole line when
    ``s1 = s0`` (the ray is a translation line).
    """
    if ray.s1 == ray.s0:
        return (-np.inf, np.inf)
    return (-ray.s0 / (ray.s1 - ray.s0), np.inf)


def project_on_ray(ray, nu):
    """Project a measure on a ray: coordinate ``t = -B(nu)``, then clip.

    ``ray`` is a :class:`GaussianRay` with ``nu = (m, s)``, or a
    :class:`QuantileRay` with ``nu`` a sorted profile (no domain clipping
    available there).  Returns ``(t, clipped, params_at_t)``.
    """
    if isinstance(ray, GaussianRay):
        m, s = nu
        t = -busemann_gaussian1d(ray, m, s)
        lo, _ = ray_domain_gaussian1d(ray)
        clipped = t < lo
        t_used = max(t, lo)
        return t_used, clipped, ray.at(t_used)
    t = -busemann_w1d(ray, nu)
    qs, (q0, q1) = _steps(ray.mu0, ray.mu1)
    return t, False, (qs, q0 + t * (q1 - q0))


def _unit_direction(phi):
    """(cos, sin) with exact values on the axis-aligned special cases."""
    if phi == 0.0:
        return 1.0, 0.0
    if phi == np.pi / 2.0:
        return 0.0, 1.0
    if phi == np.pi:
        return -1.0, 0.0
    return float(np.cos(phi)), float(np.sin(phi))


def validate_gaussians(data):
    """1D Gaussians as ``(n, 2)`` rows of a finite mean and a finite
    ``sigma > 0``; names the first offending atom (atom 0 when the rows
    have another width)."""
    pts = np.asarray(data, dtype=float)
    if pts.ndim != 2:
        raise InvalidInput("data must be an (n, 2) array of (mean, sigma) rows")
    if pts.shape[1] == 2:
        ok = np.all(np.isfinite(pts), axis=1) & (pts[:, 1] > 0)
    else:
        ok = np.zeros(len(pts), dtype=bool)
    check_atoms(ok, "gaussian1d rows are (mean, sigma>0)")
    return pts


def gaussian_pca_1d(data, origin=None):
    r"""Closed-form Busemann PCA of 1D Gaussians ``(m_k, s_k)``.

    Maximizes the variance of the projected scores over unit-speed rays
    from the origin (the dataset barycenter by default) under the
    half-plane constraint ``s >= s0``.  With
    :math:`\theta = \arccos((M_{11}-M_{22}) / \sqrt{(M_{11}-M_{22})^2
    + 4M_{12}^2})` the first component sits at the half angle and the
    second at its in-constraint orthogonal; for a negative cross moment
    the half angle is reflected through the vertical axis, which the angle
    sweep oracle in the test suite pins down.  Returns the two rays and
    the ``(n, 2)`` score matrix of ray coordinates ``-B``.
    """
    pts = validate_gaussians(data)
    if origin is None:
        origin = (float(np.mean(pts[:, 0])), float(np.mean(pts[:, 1])))
    m0, s0 = origin
    centered = pts - np.array([m0, s0])
    if np.max(np.abs(centered)) <= 1e-15:
        raise DegenerateData("all distributions identical: no principal ray")
    mom = centered.T @ centered / pts.shape[0]
    mean = centered.mean(axis=0)
    mom = mom - np.outer(mean, mean)
    gap = mom[0, 0] - mom[1, 1]
    denom = np.hypot(gap, 2.0 * mom[0, 1])
    if denom <= 1e-15:
        theta = np.pi / 2.0  # symmetric tie: bisector convention
    else:
        theta = np.arccos(gap / denom)
    phi1 = theta / 2.0 if mom[0, 1] >= 0 else np.pi - theta / 2.0
    phi2 = phi1 + np.pi / 2.0 if phi1 < np.pi / 2.0 else phi1 - np.pi / 2.0
    rays = tuple(
        GaussianRay(m0=m0, s0=s0, m1=m0 + c, s1=s0 + s)
        for c, s in (_unit_direction(phi1), _unit_direction(phi2))
    )
    # -busemann_gaussian1d(ray, m, s) for every row and ray
    step = np.array([[ray.m1 - ray.m0, ray.s1 - ray.s0] for ray in rays])
    scores = centered[:, :1] * step[:, 0] + centered[:, 1:] * step[:, 1]
    return rays[0], rays[1], scores

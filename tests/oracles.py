"""Independent brute-force oracles the test suite checks the fast paths against.

Everything here deliberately avoids the quantile/merge machinery of the
package: couplings are solved as explicit linear programs or permutation
enumerations, integrals by quadrature or dense grids.  The exceptions are
the earlier bodies of rewritten kernels (``dual_1d_batched_gathers``,
``ahead_masked``, ``circle_w1_along_axis``, ``nw_corner_add_at``,
``gw1d_inner_dense``, ``pairwise_from_zeros``, and the ``*_out_of_place``
slicer coordinates and matched-uniform line kernel, the unchunked
``batched_costs_whole``, and the fresh-array Frank-Wolfe loop
``frank_wolfe_fresh`` behind ``suot_fresh``/``usw_fresh`` and interaction
matrices ``InteractionFresh``), kept as references for their replacements, and
two ground truths that only the tests need: ``dist_lorentz``, the
hyperboloid distance behind the geodesic cost matrices, and
``bw_geodesic_point``, which puts Gaussians on a Bures-Wasserstein ray.
"""

import csv
import itertools
import math

from types import SimpleNamespace

import numpy as np
from scipy import integrate, optimize
from scipy.linalg import null_space

from msot import busemann, hyperbolic, measures
from msot.errors import InvalidInput, MassMismatch
from msot.flows import InteractionFunctional
from msot.sliced import validate_pair


def wasserstein_1d_lp(x, a, y, b, p):
    """1D W_p^p as an explicit transportation LP (scipy linprog)."""
    cost = np.abs(np.asarray(x)[:, None] - np.asarray(y)[None, :]) ** p
    plan = transport_lp(np.asarray(a, float), np.asarray(b, float), cost)
    return float(np.sum(plan * cost))


def transport_lp(a, b, cost):
    """Solve min <cost, plan> over the transportation polytope."""
    n, m = cost.shape
    A_eq = []
    for i in range(n):
        row = np.zeros((n, m))
        row[i, :] = 1.0
        A_eq.append(row.ravel())
    for j in range(m):
        col = np.zeros((n, m))
        col[:, j] = 1.0
        A_eq.append(col.ravel())
    b_eq = np.concatenate([a, b])
    res = optimize.linprog(
        cost.ravel(), A_eq=np.array(A_eq), b_eq=b_eq, bounds=(0, None), method="highs"
    )
    assert res.success, res.message
    return res.x.reshape(n, m)


def quantile_search(profile, qs):
    """Left-continuous quantiles of a sorted profile at levels ``qs``, one
    binary search of its cumulative weights per level."""
    idx = np.searchsorted(profile.cum, qs, side="left")
    return profile.positions[np.minimum(idx, profile.positions.size - 1)]


def quantile_steps(*profiles):
    """Sorted union of the profiles' cumulative weights and every profile's
    quantiles there: the quantile functions as step functions."""
    qs = np.sort(np.concatenate([p.cum for p in profiles]), kind="stable")
    return qs, [quantile_search(p, qs) for p in profiles]


def wasserstein_1d_walk(mu, nu, p):
    """1D W_p^p integrated step by step over the merged breakpoints."""
    qs, (q_mu, q_nu) = quantile_steps(mu, nu)
    return float(np.sum(np.diff(qs, prepend=0.0) * np.abs(q_mu - q_nu) ** p))


def is_geodesic_ray_1d_walk(mu0, mu1):
    """Quantile criterion of a 1D ray checked on the merged breakpoints:
    ``(flag, witness)`` with the first drop of ``Q_mu1 - Q_mu0``."""
    qs, (q0, q1) = quantile_steps(mu0, mu1)
    diff = q1 - q0
    drops = np.nonzero(np.diff(diff) < -1e-12)[0]
    if drops.size == 0:
        return True, None
    k = int(drops[0])
    return False, (float(qs[k]), float(diff[k]), float(diff[k + 1]))


def piecewise_inner_walk(a1, a0, b1, b0):
    """``<Q_a1 - Q_a0, Q_b1 - Q_b0>_{L^2}`` summed over the merged breakpoints."""
    qs, (qa1, qa0, qb1, qb0) = quantile_steps(a1, a0, b1, b0)
    return float(np.sum(np.diff(qs, prepend=0.0) * (qa1 - qa0) * (qb1 - qb0)))


def quantile_features_loop(coords, weights, grid):
    """Left quantiles of every column of ``(n, L)`` coordinates at the mass
    fractions ``grid``, one ``searchsorted`` per slice; shape ``(k, L)``."""
    order = np.argsort(coords, axis=0, kind="stable")
    values = np.take_along_axis(coords, order, axis=0)
    cums = np.cumsum(np.asarray(weights)[order], axis=0)
    out = np.empty((len(grid), coords.shape[1]))
    for i in range(coords.shape[1]):
        idx = np.searchsorted(cums[:, i], grid * cums[-1, i], side="left")
        out[:, i] = values[np.minimum(idx, coords.shape[0] - 1), i]
    return out


def nw_corner_greedy(a, b):
    """North-west corner plan by the greedy fill from the top-left cell."""
    n, m = len(a), len(b)
    plan = np.zeros((n, m))
    i = j = 0
    ra, rb = a[0], b[0]
    while i < n and j < m:
        move = min(ra, rb)
        plan[i, j] = move
        ra -= move
        rb -= move
        if ra == 0.0:
            i += 1
            ra = a[i] if i < n else 0.0
        if rb == 0.0:
            j += 1
            rb = b[j] if j < m else 0.0
    return plan


def wasserstein_pp_permutations(cost_matrix, p):
    """W_p^p for uniform weights by enumerating all permutations (n <= 8)."""
    n = cost_matrix.shape[0]
    best = np.inf
    rows = np.arange(n)
    for perm in itertools.permutations(range(n)):
        val = float(np.sum(cost_matrix[rows, list(perm)] ** p)) / n
        best = min(best, val)
    return best


def wasserstein_pp_assignment(cost_matrix, p):
    """W_p^p for uniform weights via the exact assignment solver."""
    r, c = optimize.linear_sum_assignment(cost_matrix**p)
    return float(np.sum(cost_matrix[r, c] ** p)) / cost_matrix.shape[0]


def circle_dist(x, y):
    d = np.abs(x - y) % 1.0
    return np.minimum(d, 1.0 - d)


def circle_w2_uniform_dirac(x):
    """W2^2 between a Dirac at x and Unif(S^1) by quadrature."""
    val, _ = integrate.quad(lambda y: circle_dist(x, y) ** 2, 0.0, 1.0)
    return val


def circle_wpp_grid(mu_angles, mu_weights, nu_angles, nu_weights, p, n_grid=4001):
    """Circle W_p^p by dense grid search over the cut followed by an LP.

    For every candidate cut, the circle is unrolled to the line at that cut
    and the resulting 1D problem is solved exactly; on a fine enough grid
    including all atom positions this brackets the true optimum.
    """
    cuts = np.concatenate(
        [np.linspace(0.0, 1.0, n_grid, endpoint=False), mu_angles, nu_angles]
    )
    best = np.inf
    for cut in np.unique(cuts):
        xs = (mu_angles - cut) % 1.0
        ys = (nu_angles - cut) % 1.0
        best = min(best, wasserstein_1d_lp(xs, mu_weights, ys, nu_weights, p))
    return best


def circle_profile(angles, weights=None):
    """Angles reduced modulo 1 and stably sorted, with aligned weights and
    cumulative weights rescaled to end at exactly 1."""
    x = np.mod(np.asarray(angles, dtype=float), 1.0)
    w = np.full(x.size, 1.0 / x.size) if weights is None else np.asarray(weights, float)
    order = np.argsort(x, kind="stable")
    cum = np.cumsum(w[order])
    return SimpleNamespace(angles=x[order], weights=w[order], cum=cum / cum[-1])


def circle_w2_vs_uniform_profile(mu):
    """W_2^2 of a circle profile against the uniform measure, one profile at
    a time: the sorted closed form for uniform weights, else the integral of
    ``(F_mu^{-1}(t) - t - alpha)^2`` at the optimal shift."""
    x, w, cum = mu.angles, mu.weights, mu.cum
    n = x.size
    if np.max(np.abs(w - 1.0 / n)) <= 1e-12:
        i = np.arange(1, n + 1)
        spread = np.mean(x**2) - np.mean(x) ** 2
        return float(spread + np.sum((n + 1 - 2 * i) * x) / n**2 + 1.0 / 12.0)
    alpha = float(np.sum(w * x)) - 0.5
    upper = x - alpha - np.concatenate([[0.0], cum[:-1]])
    lower = x - alpha - cum
    return float(np.sum(upper**3 - lower**3) / 3.0)


def cdf_difference_steps(mu, nu):
    """``F_mu - F_nu`` on the circle as ``(values, lengths)`` of its arcs,
    the wrap-around arc included."""
    events = np.concatenate([mu.angles, nu.angles])
    signed = np.concatenate([mu.weights, -nu.weights])
    order = np.argsort(events, kind="stable")
    events, signed = events[order], signed[order]
    values = np.cumsum(signed)
    lengths = np.empty_like(events)
    lengths[:-1] = np.diff(events)
    lengths[-1] = 1.0 - events[-1] + events[0]
    return values, lengths


def circle_w1_level_median_profile(mu, nu):
    """Circle W_1 of two profiles as ``int |F_mu - F_nu - LevMed|``."""
    values, lengths = cdf_difference_steps(mu, nu)
    order = np.argsort(values, kind="stable")
    cum_len = np.cumsum(lengths[order])
    lev_med = values[order][np.searchsorted(cum_len, 0.5, side="left")]
    return float(np.sum(lengths * np.abs(values - lev_med)))


def periodic_quantile(profile, s, side="left"):
    """Quantile lifted to the universal cover, Q(s + k) = Q(s) + k, by one
    binary search per level."""
    s = np.asarray(s, dtype=float)
    k = np.ceil(s) - 1.0 if side == "left" else np.floor(s)
    idx = np.searchsorted(profile.cum, s - k, side=side)
    return profile.angles[np.clip(idx, 0, profile.angles.size - 1)] + k


def circle_shift_cost(mu, nu, alpha, p):
    """``int_0^1 |Qmu(t) - Qnu(t + alpha)|^p dt``, exact at the midpoints of
    the merged breakpoints."""
    nu_breaks = nu.cum - alpha
    nu_breaks = nu_breaks - np.ceil(nu_breaks) + 1.0  # into (0, 1]
    qs = np.sort(np.concatenate([mu.cum, nu_breaks]), kind="stable")
    delta = np.diff(qs, prepend=0.0)
    mids = qs - 0.5 * delta
    diff = np.abs(periodic_quantile(mu, mids) - periodic_quantile(nu, mids + alpha))
    return float(np.sum(delta * diff**p))


def circle_shift_slope(mu, nu, alpha, p):
    """Right derivative of :func:`circle_shift_cost` in the shift."""
    m = nu.angles.size
    s = nu.cum - alpha
    k = np.ceil(s) - 1.0
    t = s - k  # in (0, 1]
    lift = t + alpha - nu.cum
    y_left = nu.angles + lift
    y_right = np.empty(m)
    y_right[:-1] = nu.angles[1:] + lift[:-1]
    y_right[-1] = nu.angles[0] + lift[-1] + 1.0
    x = periodic_quantile(mu, t, side="right")
    return float(np.sum(np.abs(x - y_right) ** p - np.abs(x - y_left) ** p))


def circle_wp_bisection(mu, nu, p, eps):
    """Circle W_p^p of two profiles by scalar bisection of the shift on the
    sign of :func:`circle_shift_slope`, down to bracket width ``eps``; the
    least cost at the final ``lo``, midpoint and ``hi``."""
    lo, hi = -1.0, 1.0
    while hi - lo > eps:
        mid = 0.5 * (lo + hi)
        g = circle_shift_slope(mu, nu, mid, p)
        if g > 0:
            hi = mid
        elif g < 0:
            lo = mid
        else:
            lo = hi = mid
    return min(circle_shift_cost(mu, nu, s, p) for s in (lo, 0.5 * (lo + hi), hi))


def ssw_per_frame(x_frames, y_frames, a, b, p, eps):
    """SSW_p^p from ``(L, n)`` great-circle angles, one profile pair per
    frame: the level median for ``p = 1``, the bisection otherwise."""
    total = 0.0
    for x_angles, y_angles in zip(x_frames, y_frames):
        mu = circle_profile(x_angles, a)
        nu = circle_profile(y_angles, b)
        if p == 1:
            total += circle_w1_level_median_profile(mu, nu)
        else:
            total += circle_wp_bisection(mu, nu, p, eps)
    return total / len(x_frames)


def ssw2_vs_uniform_per_frame(x_frames, a):
    """SSW_2^2 against the uniform measure, one closed form per frame."""
    values = [circle_w2_vs_uniform_profile(circle_profile(f, a)) for f in x_frames]
    return sum(values) / len(x_frames)


def gw_inner_exhaustive(x, a, y, b):
    """Inner-GW objective minimized over vertices of the coupling polytope.

    Only valid for uniform weights with equal atom counts, where the
    vertices are the permutation matrices divided by n.
    """
    n = len(x)
    best = np.inf
    for perm in itertools.permutations(range(n)):
        plan = np.zeros((n, n))
        plan[np.arange(n), list(perm)] = 1.0 / n
        val = gw_inner_objective(x, y, plan)
        best = min(best, val)
    return best


def gw_inner_objective(x, y, plan):
    """Quartic inner-GW objective evaluated by the naive quadruple sum."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    cost = (x[:, None, None, None] * x[None, None, :, None]
            - y[None, :, None, None] * y[None, None, None, :]) ** 2
    return float(np.einsum("ijkl,ij,kl->", cost, plan, plan))


def nw_corner_add_at(a, b):
    """``measures.nw_corner`` scattered into a dense plan with ``np.add.at``:
    the reference its ``bincount`` densification must match bit for bit."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    measures.check_masses(float(a.sum()), float(b.sum()))
    n, m = a.size, b.size
    levels = np.concatenate([np.cumsum(a), np.cumsum(b)])[None]
    order = measures._merge(levels)
    ahead = measures._ahead(order, n)
    rise = np.diff(measures._take_rows(levels, order), prepend=0.0)
    plan = np.zeros((n, m))
    cols = np.minimum(np.arange(n + m) - ahead, m - 1)
    np.add.at(plan, (np.minimum(ahead, n - 1), cols), rise)
    return plan


def gw1d_inner_dense(x, a, y, b):
    """``gw.gw1d_inner`` from its two dense candidate plans, the ascending NW
    plan and the one of the reversed source, each valued through ``x @ plan @
    y``.  Returns ``(plan, value, other)``, ``other`` the losing value."""
    x, a, y, b = (np.asarray(v, dtype=float) for v in (x, a, y, b))
    const = float(np.sum(a * x**2)) ** 2 + float(np.sum(b * y**2)) ** 2
    asc = nw_corner_add_at(a, b)
    desc = nw_corner_add_at(a[::-1], b)[::-1, :]
    val_asc = const - 2.0 * float(x @ asc @ y) ** 2
    val_desc = const - 2.0 * float(x @ desc @ y) ** 2
    if val_asc <= val_desc:
        return asc, val_asc, val_desc
    return desc, val_desc, val_asc


def hw_tensor_naive(x_cloud, y_cloud, plan, axis_weights=None):
    """Naive quadruple loop for the Hadamard-Wasserstein tensor product."""
    n, d = x_cloud.shape
    m = y_cloud.shape[0]
    w = np.ones(d) if axis_weights is None else np.asarray(axis_weights, float)
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for k in range(n):
                for ell in range(m):
                    diff = x_cloud[i] * x_cloud[k] - y_cloud[j] * y_cloud[ell]
                    acc += float(np.sum(w * diff**2)) * plan[k, ell]
            out[i, j] = acc
    return out


def complete_basis_null_space(basis):
    """The complement of ``basis``'s columns by ``scipy.linalg.null_space``,
    the reference for ``msot.gw._complete_basis``."""
    p, k = basis.shape
    return np.zeros((p, 0)) if k == p else null_space(basis.T)


def ring_radial_force(radius, a, b):
    """Radial mean-field gradient of ``W(z) = |z|^a/a - |z|^b/b`` on a uniform
    ring of radius ``radius`` in the plane, by quadrature.

    Evaluated at ``x = R e_r`` against ``y = R (cos t, sin t)``, ``t`` uniform
    on ``[0, 2 pi)``: the average of ``(|z|^(a-2) - |z|^(b-2)) z . e_r`` with
    ``z = x - y``.  Positive means the gradient points outward, so the
    flow ``-grad`` pulls the ring in.
    """
    r = float(radius)

    def integrand(t):
        radial = r * (1.0 - np.cos(t))
        norm = np.hypot(radial, r * np.sin(t))
        if norm == 0.0:
            return 0.0
        return (norm ** (a - 2.0) - norm ** (b - 2.0)) * radial

    val, _ = integrate.quad(
        integrand, 0.0, 2.0 * np.pi, epsabs=1e-13, epsrel=1e-12, limit=200
    )
    return val / (2.0 * np.pi)


def ring_equilibrium_radius(a, b):
    """Radius ``R > 0`` at which :func:`ring_radial_force` vanishes (brentq)."""
    hi = 1.0
    while ring_radial_force(hi, a, b) <= 0.0:
        hi *= 2.0
    lo = hi
    while ring_radial_force(lo, a, b) >= 0.0:
        lo /= 2.0
    return optimize.brentq(
        lambda r: ring_radial_force(r, a, b),
        lo,
        hi,
        xtol=1e-15,
        rtol=4 * np.finfo(float).eps,
    )


def busemann_ai_loop(m, a):
    """Affine-invariant Busemann function of ``t -> exp(tA)``, atom by atom.

    The per-atom reference for the batched coordinate: eigenbasis ``P`` of
    ``A`` with eigenvalues descending, rotation ``P^T M P``, diagonal ``D``
    of its UDU factorization read off the Cholesky factor of the
    index-reversed matrix, and ``-<eigenvalues, log D>``.  ``m`` is an
    ``(n, d, d)`` cloud; returns a length-``n`` array.
    """
    vals, vecs = np.linalg.eigh(a)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    out = np.empty(len(m))
    for i, mat in enumerate(m):
        rotated = vecs.T @ mat @ vecs
        rotated = (rotated + rotated.T) / 2.0
        chol = np.linalg.cholesky(rotated[::-1, ::-1])
        out[i] = -float(np.dot(vals, np.log(np.diag(chol)[::-1] ** 2)))
    return out


def dual_sweep(x, a, y, b, p):
    """Potentials of the balanced 1D problem between sorted atom lists.

    Walks the staircase support of the north-west (monotone) coupling,
    anchoring ``f[0] = 0`` and propagating ``f_i + g_j = |x_i - y_j|^p``
    along it.  On an exact mass tie the support is disconnected and both
    indices advance; the new anchor is then free inside the interval cut
    out by the two adjacent constraints (nonempty by the Monge property of
    convex 1D costs) and we keep it as flat as allowed, which returns the
    all-zero pair on identical profiles instead of a climbing one.
    """

    def cost(i, j):
        return np.abs(x[i] - y[j]) ** p

    n, m = x.size, y.size
    f = np.zeros(n)
    g = np.zeros(m)
    g[0] = cost(0, 0)
    i = j = 0
    ra, rb = a[0], b[0]
    while i < n - 1 or j < m - 1:
        if i < n - 1 and j < m - 1 and ra == rb:
            lower = f[i] + cost(i + 1, j + 1) - cost(i, j + 1)
            upper = cost(i + 1, j) - g[j]
            i += 1
            j += 1
            f[i] = min(max(f[i - 1], lower), upper)
            g[j] = cost(i, j) - f[i]
            ra, rb = a[i], b[j]
        elif j == m - 1 or (i < n - 1 and ra < rb):
            rb -= ra
            i += 1
            ra = a[i]
            f[i] = cost(i, j) - g[j]
        else:
            ra -= rb
            j += 1
            rb = b[j]
            g[j] = cost(i, j) - f[i]
    return f, g


def potential_per_atom(v, grad_v, points, weights):
    """Potential energy ``int V dmu`` evaluated one atom at a time.

    Returns ``(value, particle_gradient, node_values)``: the weighted sum of
    ``V`` at the atoms, ``w_i grad V(x_i)`` stacked, and ``V`` per atom.
    """
    vals = np.apply_along_axis(v, 1, points)
    grads = np.stack([grad_v(x) for x in points])
    return float(np.sum(weights * vals)), weights[:, None] * grads, vals


def interaction_dense(points, weights, a, b):
    """Power-law interaction energy through the full ``(n, n, d)`` tensor of
    pairwise differences.

    Returns ``(value, particle_gradient, node_gradient)`` for the kernel
    ``W(z) = |z|^a/a - |z|^b/b``: ``1/2 w^T W w``, the force
    ``w_i sum_j w_j W'(r_ij)/r_ij (x_i - x_j)`` summed by ``einsum``, and
    ``W @ w``.
    """
    diff = points[:, None, :] - points[None, :, :]
    norms = np.sqrt(np.sum(diff**2, axis=-1))
    kernel = norms**a / a - norms**b / b
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = np.where(norms > 0, norms ** (a - 2) - norms ** (b - 2), 0.0)
    force = np.einsum("ij,ijk->ik", coef * weights[None, :], diff)
    value = 0.5 * float(weights @ kernel @ weights)
    return value, weights[:, None] * force, kernel @ weights


def interaction_on_norms(points, weights, a, b):
    """Power-law interaction energy and force through the distances: ``sqrt``
    of the squared distances, then their powers ``r**a``, ``r**(a - 2)``, with
    the force ``x * rowsum(C) - C @ x`` on the centered cloud.

    Returns ``(value, particle_gradient)``: the reference for
    ``InteractionFunctional``, which takes powers of the squared distances.
    """
    diff = points[:, None, :] - points[None, :, :]
    norms = np.sqrt(np.sum(diff**2, axis=-1))
    kernel = norms**a / a - norms**b / b
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = np.where(norms > 0, norms ** (a - 2) - norms ** (b - 2), 0.0)
    coef *= weights[None, :]
    centered = points - np.mean(points, axis=0)
    force = centered * np.sum(coef, axis=1)[:, None] - coef @ centered
    return 0.5 * float(weights @ kernel @ weights), weights[:, None] * force


def pairwise_from_zeros(points):
    """Squared distances between all rows, summed one coordinate at a time
    into an ``(n, n)`` array that starts from zeros: the earlier body of
    ``InteractionFunctional._pairwise``."""
    n = points.shape[0]
    sq = np.zeros((n, n))
    diff = np.empty((n, n))
    for col in points.T:
        np.subtract.outer(col, col, out=diff)
        sq += np.square(diff, out=diff)
    return sq


def dist_lorentz(x, y):
    """Hyperboloid geodesic distance ``arccosh(-<x, y>_L)`` between paired
    rows, clamped at 0 for roundoff."""
    x, y = np.atleast_2d(x), np.atleast_2d(y)
    ip = x[..., 0] * y[..., 0] - np.sum(x[..., 1:] * y[..., 1:], axis=-1)
    return np.arccosh(np.maximum(ip, 1.0))


def bw_geodesic_point(mu0, mu1, t):
    """Point at time ``t`` (also beyond [0, 1]) of the Bures-Wasserstein
    geodesic through ``mu0`` and ``mu1``: mean ``(1 - t) m_0 + t m_1``,
    covariance ``M Sigma_0 M`` with ``M = (1 - t) I + t A``."""
    a = busemann.bw_ray_map(mu0, mu1)
    mix = (1.0 - t) * np.eye(a.shape[0]) + t * a
    return busemann.BWGaussian(
        mean=(1.0 - t) * mu0.mean + t * mu1.mean, cov=mix @ mu0.cov @ mix
    )


def euler_particles_loop(initial, value, particle_gradient, step_size, n_steps):
    """Euclidean forward-Euler particle flow that takes ``particle_gradient``
    at ``x_k`` and, apart, ``value`` at ``x_{k+1}`` on every step.

    Returns the per-step energies and positions.
    """
    x = np.asarray(initial, dtype=float).copy()
    n = x.shape[0]
    energies, positions = [value(x)], [x.copy()]
    for _ in range(n_steps):
        x = x - step_size * n * particle_gradient(x)
        energies.append(value(x))
        positions.append(x.copy())
    return np.array(energies), np.array(positions)


def sorted_rows_stable(columns):
    """Stably sorted ``(L, n)`` rows of ``(n, L)`` coordinates, with the sort,
    by numpy's stable sort alone: the reference for ``measures.sorted_rows``."""
    rows = np.ascontiguousarray(np.asarray(columns, dtype=float).T)
    order = np.argsort(rows, axis=-1, kind="stable")
    return np.take_along_axis(rows, order, axis=-1), order


def sorted_residual_stable(x_coords, y_sorted):
    """Sorted-matching residual down the columns by numpy's stable sort: the
    reference for ``sliced.sorted_residual``."""
    sigma = np.argsort(x_coords, axis=0, kind="stable")
    diff = np.take_along_axis(x_coords, sigma, axis=0) - y_sorted
    resid = np.empty_like(diff)
    np.put_along_axis(resid, sigma, diff, axis=0)
    return resid


def matched_residual_stable(x_coords, y_coords):
    """The reference for ``sliced.matched_residual``."""
    return sorted_residual_stable(x_coords, np.sort(y_coords, axis=0, kind="stable"))


def sw2_subgradient_stable(x, y, dirs):
    """``sliced.sw2_subgradient`` written on :func:`matched_residual_stable`."""
    theta = dirs.dirs
    coeff = matched_residual_stable(x @ theta.T, y @ theta.T)
    return (2.0 / (x.shape[0] * theta.shape[0])) * coeff @ theta


def swjko_particles_loop(
    initial, functional, tau, n_steps, inner, n_projections, seed, subgradient=None
):
    """Backward-Euler particle flow written out with ``subgradient`` (the
    public ``sw2_subgradient`` by default) on every inner step.

    Returns the per-step ``(energy, objective, residual_grad, positions)``.
    """
    from msot.sliced import sample_directions, sw2_subgradient, sw_p

    subgradient = sw2_subgradient if subgradient is None else subgradient
    x = np.asarray(initial, dtype=float).copy()
    n, d = x.shape
    records = [(functional.value(x), functional.value(x), None, x.copy())]
    for k in range(1, n_steps + 1):
        dirs = sample_directions(d, n_projections, seed=seed + k)
        prev = x.copy()
        grad = np.zeros_like(x)
        for _ in range(inner.n_steps):
            grad = 1.0 / (2.0 * tau) * subgradient(
                x, prev, dirs
            ) + functional.particle_gradient(x)
            x = x - inner.learning_rate * n * grad
        energy = functional.value(x)
        objective = 1.0 / (2.0 * tau) * sw_p(x, prev, dirs) + energy
        records.append((energy, objective, float(np.linalg.norm(n * grad)), x.copy()))
    return records


def ghsw_gradient_dense(x, target, ideal):
    """Ambient gradient of 1/2 GHSW_2^2 toward ``target`` on the Lorentz
    model through the full ``(n, L, d)`` tensor of coordinate gradients."""
    from msot.hyperbolic import geodesic_coordinate
    from msot.sliced import matched_residual

    n, n_proj = x.shape[0], ideal.shape[0]
    resid = matched_residual(
        geodesic_coordinate(x, ideal, model="lorentz"),
        geodesic_coordinate(target, ideal, model="lorentz"),
    )
    v = np.concatenate([np.zeros((n_proj, 1)), ideal], axis=-1)
    jv = v.copy()
    jv[:, 0] = -jv[:, 0]
    u = x @ jv.T
    w = -x[:, :1]
    jx0 = np.zeros(x.shape[1])
    jx0[0] = -1.0
    denom = (1.0 - (u / w) ** 2) * w**2
    grad_coords = (
        -jv[None, :, :] * w[:, :, None] + u[:, :, None] * jx0[None, None, :]
    ) / denom[:, :, None]
    return np.einsum("nl,nld->nd", resid, grad_coords) / (n * n_proj)


def load_dataset_rows(path, geometry, relative_symmetry=False):
    """Row-by-row CSV loader, the reference for ``msot.cli.load_dataset``.

    Every cell is parsed by its own ``float`` call and every atom is checked
    on its own, in file order, so the first error raised is the first
    offending row's.  Returns ``(atoms, weights)``.  SPD symmetry is
    checked to the absolute ``SYM_ATOL``, or with ``relative_symmetry`` to
    ``SYM_ATOL`` times the file's largest entry (at least 1), the
    library's rule.
    """
    from msot.errors import InvalidInput
    from msot.hyperbolic import LORENTZ_ATOL, minkowski_ip
    from msot.spd import EIG_FLOOR, SYM_ATOL

    if geometry not in ("euclidean", "lorentz", "poincare", "spd", "sphere", "gaussian1d"):
        raise InvalidInput(f"unknown geometry {geometry!r}")
    with open(path, newline="") as handle:
        rows = [row for row in csv.reader(handle) if row and any(c.strip() for c in row)]
    if len(rows) < 2:
        raise InvalidInput(f"{path}: need a header row and at least one atom")
    header, rows = [cell.strip() for cell in rows[0]], rows[1:]

    def parse(cell, k):
        try:
            value = float(cell)
        except ValueError as exc:
            raise InvalidInput(f"{path}: row {k}: malformed number {cell!r}") from exc
        if not math.isfinite(value):
            raise InvalidInput(f"{path}: row {k}: non-finite number {cell!r}")
        return value

    has_weight = header[-1].lower() == "weight"
    value_cols = len(header) - (1 if has_weight else 0)
    atoms, weights = [], []
    for k, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise InvalidInput(f"{path}: row {k}: expected {len(header)} cells, got {len(row)}")
        atoms.append([parse(c, k) for c in row[:value_cols]])
        if has_weight:
            w = parse(row[-1], k)
            if w < 0:
                raise InvalidInput(f"{path}: row {k}: negative weight")
            weights.append(w)
    data = np.array(atoms, dtype=float)
    w = np.array(weights) if has_weight else np.full(len(data), 1.0 / len(data))
    # huge finite coordinates overflow to an inf norm or error, quietly
    with np.errstate(over="ignore", invalid="ignore"):
        for k, row in enumerate(data, start=2):
            reason = None
            if geometry == "lorentz":
                err = abs(minkowski_ip(row, row) + 1.0)
                if np.isnan(err):  # finite squares that overflow: inf - inf
                    err = np.inf
                if not row[0] > 0:
                    reason = "Lorentz points need a positive time coordinate"
                elif not err <= LORENTZ_ATOL:
                    reason = f"points off the hyperboloid by {err:.2e}"
            elif geometry == "poincare" and not np.linalg.norm(row[None], axis=-1)[0] < 1.0:
                reason = "Poincare points must have norm < 1"
            elif geometry == "sphere" and abs(np.linalg.norm(row) - 1.0) > 1e-6:
                reason = "not on the unit sphere"
            elif geometry == "gaussian1d" and (row.size != 2 or row[1] <= 0):
                reason = "gaussian1d rows are (mean, sigma>0)"
            if reason:
                raise InvalidInput(f"{path}: row {k}: {reason}")
    if geometry != "spd":
        return data, w
    if header[0].lower() != "dim":
        raise InvalidInput(f"{path}: SPD files need a leading 'dim' column")
    d = int(data[0, 0])
    if np.any(data[:, 0] != d):
        raise InvalidInput(f"{path}: inconsistent 'dim' entries")
    if data.shape[1] - 1 != d * d:
        raise InvalidInput(f"{path}: expected {d * d} matrix entries per row for dim {d}")
    if d < 1:
        raise InvalidInput(f"{path}: 'dim' must be a positive integer, got {d}")
    mats = data[:, 1:].reshape(-1, d, d)
    sym_tol = SYM_ATOL * max(1.0, np.max(np.abs(mats))) if relative_symmetry else SYM_ATOL
    for k, mat in enumerate(mats, start=2):
        if np.max(np.abs(mat - mat.T)) > sym_tol:
            raise InvalidInput(f"{path}: row {k}: matrix not symmetric")
        if np.min(np.linalg.eigvalsh((mat + mat.T) / 2.0)) <= EIG_FLOOR:
            raise InvalidInput(f"{path}: row {k}: matrix not positive definite")
    return mats, w


def matrix_per_pair(name, paths, geometry, cfg):
    """``msot matrix`` as one ``compute_distance`` call per pair: every file
    is loaded, then projected and sorted again for each pair it is in."""
    from msot import cli

    datasets = [cli.load_dataset(path, geometry) for path in paths]
    k = len(datasets)
    values = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            values[i, j], _ = cli.compute_distance(name, datasets[i], datasets[j], cfg)
            values[j, i] = values[i, j]
    return values


def dual_1d_batched_gathers(x, a, y, b, p=2.0):
    """``measures.dual_1d_batched`` read through 2-D ``arr[rows, idx]``
    gathers: the reference its flat-position reads must match bit for bit."""
    measures.check_order(p)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    cum_a, cum_b = np.cumsum(a, axis=-1), np.cumsum(b, axis=-1)
    gap = np.abs(cum_a[:, -1] - cum_b[:, -1]) / np.maximum(cum_a[:, -1], 1.0)
    if np.any(gap > measures.MASS_ATOL):
        raise MassMismatch(f"total masses differ, by up to {np.max(gap):.2e} relative")
    (L, n), m = x.shape, y.shape[1]
    rows = np.arange(L)[:, None]

    def cost(u, v):
        d = u - v
        return d * d if p == 2 else np.abs(d) ** p

    a_levels, b_levels = cum_a[:, :-1], cum_b[:, :-1]
    merged = measures._merge(np.concatenate([b_levels, a_levels], axis=-1))
    col = measures._ranks(merged >= m - 1, n - 1)
    below = np.concatenate([np.full((L, 1), -np.inf), b_levels], axis=-1)
    tie = below[rows, col] == a_levels
    if np.any(tie):
        on_level = np.zeros((L, m), dtype=np.intp)
        on_level[:, 1:] = measures._run_rank(b_levels) + 1
        paired = np.where(tie, on_level[rows, col], 0)
        rank = measures._run_rank(a_levels)
        tie = rank < paired
        col = col - np.maximum(paired - rank, 0)

    y_at = y[rows, col]
    landing = cost(x[:, 1:], y_at)
    step = landing - cost(x[:, :-1], y_at)
    if np.any(tie):
        y_next = y[rows, np.minimum(col + 1, m - 1)]
        flat = cost(x[:, 1:], y_next) - cost(x[:, :-1], y_next)
        step = np.where(tie, np.minimum(np.maximum(flat, 0.0), step), step)
    f = np.zeros((L, n))
    np.cumsum(step, axis=-1, out=f[:, 1:])

    reached = np.zeros((L, m), dtype=np.intp)
    if m > 1:
        counts = np.bincount((col + rows * m).ravel(), minlength=L * m)
        np.cumsum(counts.reshape(L, m)[:, :-1], axis=-1, out=reached[:, 1:])
    g = cost(x[rows, reached], y) - f[rows, reached]

    slack = f[:, 1:] + g[rows, col] - landing
    if slack.size and np.max(slack) > 1e-9 * max(1.0, np.max(np.abs(landing))):
        raise InvalidInput(f"dual pair violates feasibility by {np.max(slack):.2e}")
    return f, g


def ahead_masked(order, n):
    """``measures._ahead`` as a masked copy of the first-half entries."""
    ahead = np.arange(n, n + order.shape[-1]) - order
    np.copyto(ahead, order, where=order < n)
    return ahead


def circle_w1_along_axis(x_angles, y_angles, x_weights=None, y_weights=None):
    """The general branch of ``measures.circle_w1_batched`` read through
    ``np.take_along_axis``, for rows that are not matched uniform ones."""
    x, a, _, y, b, _ = measures._circle_pair(x_angles, y_angles, x_weights, y_weights)
    events = np.concatenate([x, y], axis=-1)
    order = np.argsort(events, axis=-1, kind="stable")
    events = np.take_along_axis(events, order, axis=-1)
    signed = np.take_along_axis(np.concatenate([a, -b], axis=-1), order, axis=-1)
    values = np.cumsum(signed, axis=-1)
    lengths = np.empty_like(events)
    lengths[:, :-1] = np.diff(events, axis=-1)
    lengths[:, -1] = 1.0 - events[:, -1] + events[:, 0]
    order, levels = measures.stable_order(values)
    cum_len = np.cumsum(np.take_along_axis(lengths, order, axis=-1), axis=-1)
    median = np.sum(cum_len < 0.5, axis=-1, keepdims=True)
    lev_med = np.take_along_axis(levels, median, axis=-1)
    return np.sum(lengths * np.abs(values - lev_med), axis=-1)


def geodesic_coordinate_out_of_place(x, ideal, model="lorentz"):
    """``hyperbolic.geodesic_coordinate`` with a fresh ``(n, L)`` array per
    step: the reference its in-place writes must match bit for bit."""
    if model == "lorentz":
        x = hyperbolic.validate_lorentz(x)
        ideal = np.atleast_2d(ideal)
        v = np.concatenate([np.zeros((ideal.shape[0], 1)), ideal], axis=-1)  # (0, ideal)
        num = -(x @ hyperbolic.j_flip(v).T)
        den = -x[:, :1]
        ratio = np.clip(num / den, -hyperbolic._ARCTANH_CLIP, hyperbolic._ARCTANH_CLIP)
        return np.arctanh(ratio)
    x = hyperbolic.validate_poincare(x)
    ideal = np.atleast_2d(ideal)
    ip = x @ ideal.T
    sq = np.sum(x**2, axis=-1, keepdims=True)
    disc = np.sqrt(np.maximum((1.0 + sq) ** 2 - 4.0 * ip**2, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(ip != 0.0, (1.0 + sq - disc) / (2.0 * ip), 0.0)
    return 2.0 * np.arctanh(np.clip(s, -hyperbolic._ARCTANH_CLIP, hyperbolic._ARCTANH_CLIP))


def busemann_coordinate_out_of_place(x, ideal, model="lorentz"):
    """``hyperbolic.busemann_coordinate`` with a fresh ``(n, L)`` array per
    step, and the Poincare ``|v - x|^2`` always expanded: the function takes
    the difference instead for pairs within 1e-2 of an ideal point, and
    agrees with this body bit for bit elsewhere."""
    ideal = np.atleast_2d(ideal)
    if model == "lorentz":
        x = hyperbolic.validate_lorentz(x)
        ip = -x[:, :1] + x[:, 1:] @ ideal.T
        return np.log(-ip)
    x = hyperbolic.validate_poincare(x)
    sq_dist = (
        np.sum(ideal**2, axis=-1)[None, :]
        - 2.0 * x @ ideal.T
        + np.sum(x**2, axis=-1)[:, None]
    )
    return np.log(sq_dist / (1.0 - np.sum(x**2, axis=-1))[:, None])


def sorted_rows_out_of_place(values):
    """The uniform sort of ``measures.sort_slices``: a contiguous ``(L, n)``
    copy of the columns, then a sorted copy of that."""
    return np.sort(np.ascontiguousarray(np.asarray(values, dtype=float).T), axis=-1)


def paired_cost_out_of_place(u_rows, v_rows, weight, p):
    """Row sums of ``weight |u - v|^p`` over sorted rows, one fresh array per
    step: ``measures._paired_cost`` before it wrote ``measures._powered``
    over the difference."""
    diff = np.abs(u_rows - v_rows)
    return np.sum(diff if p == 1 else diff**p, axis=-1) * weight


def uniform_w1d_out_of_place(u_values, v_values, p=2.0):
    """The matched-uniform branch of ``measures.wasserstein_1d_batched`` on
    sorted copies of contiguous copies of both sides."""
    u_rows = sorted_rows_out_of_place(u_values)
    v_rows = sorted_rows_out_of_place(v_values)
    return paired_cost_out_of_place(u_rows, v_rows, 1.0 / u_rows.shape[1], p)


def batched_costs_whole(u_values, v_values, u_weights, v_weights, p):
    """``measures._batched_costs`` before it ran in chunks of columns: every
    column at once, through one ``(L, n + m)`` levels array."""
    n, L = u_values.shape
    m = v_values.shape[0]
    if measures._matched_uniform(u_weights, v_weights):
        diff = measures._sorted_copy(u_values)
        diff -= measures._sorted_copy(v_values)
        return measures._paired_cost(diff, u_weights[0], p)
    levels = np.empty((L, n + m))
    u_sorted = measures._sorted_with_cum(u_values, u_weights, levels[:, :n])
    v_sorted = measures._sorted_with_cum(v_values, v_weights, levels[:, n:])
    return measures._merged_cost(u_sorted, v_sorted, levels, p)


def log_mass_where(weights, potential, rho):
    """The earlier ``unbalanced._log_mass``: ``np.where`` on every call."""
    z = np.where(weights > 0, -np.asarray(potential, dtype=float) / rho, -np.inf)
    top = np.max(z, axis=-1, keepdims=True)
    return np.log(np.sum(weights * np.exp(z - top), axis=-1)) + top[..., 0]


def _translated_fresh(a, b, f, g, params):
    rho1, rho2 = params.rho1, params.rho2
    tau = rho1 * rho2 / (rho1 + rho2)
    lam = np.asarray(tau * (log_mass_where(a, f, rho1) - log_mass_where(b, g, rho2)))
    return f + lam[..., None], g - lam[..., None]


def frank_wolfe_fresh(a, b, f, g, params, oracle):
    """The earlier ``unbalanced._frank_wolfe``: new arrays for every
    expression of every round, ``phi_conj`` taking its own exponential, and
    the best iterate kept by reference.  Returns ``((value, f, g),
    history)``, with ``(-inf, None, None)`` when no round is finite."""
    history = []
    best = (-np.inf, None, None)
    f, g = _translated_fresh(a, b, f, g, params)
    for t in range(params.n_iters):
        r, s = oracle(t, a * np.exp(-f / params.rho1), b * np.exp(-g / params.rho2))
        gamma = 2.0 / (3.0 + t)
        f, g = _translated_fresh(a, b, f + gamma * (r - f), g + gamma * (s - g), params)
        per_slice = np.sum(a * (params.rho1 * (1.0 - np.exp(-f / params.rho1))), axis=-1) + np.sum(
            b * (params.rho2 * (1.0 - np.exp(-g / params.rho2))), axis=-1
        )
        history.append(float(np.mean(per_slice)))
        if history[-1] > best[0]:
            best = (history[-1], f, g)
        if t > 0 and 0.0 <= history[-1] - history[-2] < params.eps:
            break
    return best, np.array(history)


def _mass_matched_gathers(xs, src, ys, tgt, p):
    tgt = tgt * (np.sum(src, axis=-1) / np.sum(tgt, axis=-1))[:, None]
    return dual_1d_batched_gathers(xs, src, ys, tgt, p)


def suot_fresh(x, y, slicer, params, x_weights=None, y_weights=None):
    """``unbalanced.suot`` through :func:`frank_wolfe_fresh` and
    :func:`dual_1d_batched_gathers`, with 2-D ``take_along_axis`` gathers
    and ``put_along_axis`` scatters.  Returns ``((value, f, g), history)``."""
    x, a, y, b = validate_pair(x, y, x_weights, y_weights)
    xs, x_order = measures.sorted_rows(slicer.coordinates(x))
    ys, y_order = measures.sorted_rows(slicer.coordinates(y))

    def oracle(t, src, tgt):
        fs, gs = _mass_matched_gathers(xs, np.take_along_axis(src, x_order, -1), ys,
                                       np.take_along_axis(tgt, y_order, -1), params.p)
        r, s = np.empty_like(fs), np.empty_like(gs)
        np.put_along_axis(r, x_order, fs, -1)
        np.put_along_axis(s, y_order, gs, -1)
        return r, s

    return frank_wolfe_fresh(a, b, np.zeros(xs.shape), np.zeros(ys.shape), params, oracle)


def usw_fresh(x, y, slicer, params, x_weights=None, y_weights=None, stochastic_slicer=None):
    """``unbalanced.usw`` through :func:`frank_wolfe_fresh` and
    :func:`dual_1d_batched_gathers`.  Returns ``((value, f, g), marginals,
    history)`` with the marginals ``(a exp(-f / rho1), b exp(-g / rho2))``."""
    x, a, y, b = validate_pair(x, y, x_weights, y_weights)

    def sorted_pair(sl):
        return measures.sorted_rows(sl.coordinates(x)), measures.sorted_rows(sl.coordinates(y))

    fixed = sorted_pair(slicer)

    def oracle(t, src, tgt):
        fresh = stochastic_slicer is not None and t > 0
        (xs, x_order), (ys, y_order) = sorted_pair(stochastic_slicer(t)) if fresh else fixed
        fs, gs = _mass_matched_gathers(xs, src[x_order], ys, tgt[y_order], params.p)
        return measures.slice_mean(fs, x_order), measures.slice_mean(gs, y_order)

    best, history = frank_wolfe_fresh(a, b, np.zeros(x.shape[0]), np.zeros(y.shape[0]),
                                      params, oracle)
    f, g = best[1:]
    return best, (a * np.exp(-f / params.rho1), b * np.exp(-g / params.rho2)), history


class InteractionFresh(InteractionFunctional):
    """``InteractionFunctional`` with its earlier ``_kernel``, ``_pairwise``
    and ``_force``: a new ``(n, n)`` array for every power and mask."""

    def _kernel(self, sq):
        kernel = sq ** (self.a / 2)
        kernel /= self.a
        kernel -= sq ** (self.b / 2) / self.b
        return kernel

    def _pairwise(self, points):
        if points.ndim != 2 or points.shape[1] == 0:
            raise InvalidInput(f"interaction needs (n, d) points, d >= 1, got {points.shape}")
        first, *rest = points.T
        sq = np.subtract.outer(first, first)
        np.square(sq, out=sq)
        diff = np.empty_like(sq)
        for col in rest:
            np.subtract.outer(col, col, out=diff)
            sq += np.square(diff, out=diff)
        return sq

    def _force(self, points, sq, w):
        with np.errstate(divide="ignore", invalid="ignore"):
            coef = sq ** (self.a / 2 - 1)
            coef -= sq ** (self.b / 2 - 1)
        coef[~(sq > 0)] = 0.0
        coef *= w[None, :]
        centered = points - np.mean(points, axis=0)
        force = centered * np.sum(coef, axis=1)[:, None] - coef @ centered
        return w[:, None] * force

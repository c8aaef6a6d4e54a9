"""Independent brute-force oracles the test suite checks the fast paths against.

Everything here deliberately avoids the quantile/merge machinery of the
package: couplings are solved as explicit linear programs or permutation
enumerations, integrals by quadrature or dense grids.
"""

import itertools

import numpy as np
from scipy import integrate, optimize


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


def swjko_particles_loop(initial, functional, tau, n_steps, inner, n_projections, seed):
    """Backward-Euler particle flow written out with the public
    ``sw2_subgradient`` on every inner step.

    Returns the per-step ``(energy, objective, residual_grad, positions)``.
    """
    from msot.sliced import sample_directions, sw2_subgradient, sw_p

    x = np.asarray(initial, dtype=float).copy()
    n, d = x.shape
    records = [(functional.value(x), functional.value(x), None, x.copy())]
    for k in range(1, n_steps + 1):
        dirs = sample_directions(d, n_projections, seed=seed + k)
        prev = x.copy()
        grad = np.zeros_like(x)
        for _ in range(inner.n_steps):
            grad = 1.0 / (2.0 * tau) * sw2_subgradient(
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

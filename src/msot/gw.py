r"""1D Gromov-Wasserstein, Hadamard-Wasserstein and Gaussian subspace detours.

The inner-GW objective between sorted 1D measures is minimized by one of
two north-west corner plans (ascending or reversed source), compared on
their supports by cross moment.  The Hadamard-Wasserstein cost
:math:`\|x \odot x' - y \odot y'\|_2^2` is the inner-GW cost in 1D and is
handled otherwise by a conditional gradient whose tensor product has an
:math:`O(d(n^2m + m^2n))` closed form.  Subspace detours between
Gaussians use the Monge-Knothe and Monge-Independent closed forms.
"""

import itertools

import numpy as np

from .errors import InstanceTooLarge, InvalidInput
from .measures import check_masses, dense_plan, nw_support, stable_order
from .sliced import validate_pair
from .spd import sym_eig

HW_EXHAUSTIVE_LIMIT = 8


def _gw1d_sorted(x, a, y, b):
    """The optimal one of the two NW supports between sorted 1D measures, and
    its inner-GW value.  The value is constant terms minus twice the squared
    cross moment ``sum_ij x_i y_j g_ij``, so the support of larger squared
    cross moment wins; the ascending one wins exact ties."""
    supports = [_linear_oracle_1d(a, b, 1.0), _linear_oracle_1d(a, b, -1.0)]
    cross = [float(np.sum(mass * x[rows] * y[cols])) for rows, cols, mass in supports]
    k = int(cross[1] ** 2 > cross[0] ** 2)
    mx = float(np.sum(a * x**2))
    my = float(np.sum(b * y**2))
    return supports[k], mx**2 + my**2 - 2.0 * cross[k] ** 2


def gw1d_inner(x, a, y, b):
    r"""Closed-form inner-GW between sorted 1D measures.

    Minimizes :math:`\sum_{ijkl} (x_i x_k - y_j y_l)^2
    \gamma_{ij}\gamma_{kl}` over couplings; an optimum lies in
    ``{NW(a, b), NW(a-, b)}`` and the ascending plan wins exact ties.
    Inputs pass :func:`~msot.sliced.validate_pair` as ``(n, 1)`` atoms.
    Returns ``(plan, value)``.
    """
    if np.ndim(x) != 1 or np.ndim(y) != 1:
        raise InvalidInput("gw1d_inner needs 1D arrays of atoms")
    x, a, y, b = validate_pair(
        np.asarray(x, dtype=float)[:, None], np.asarray(y, dtype=float)[:, None], a, b
    )
    x, y = x[:, 0], y[:, 0]
    if np.any(np.diff(x) < 0) or np.any(np.diff(y) < 0):
        raise InvalidInput("gw1d_inner expects sorted inputs")
    support, value = _gw1d_sorted(x, a, y, b)
    return dense_plan(*support, (x.size, y.size)), value


def gw1d(x, a, y, b):
    """:func:`gw1d_inner` of ``(n, 1)`` and ``(m, 1)`` atoms in any order,
    with the plan in input order.  Returns ``(plan, value)``."""
    if np.shape(x)[1:] != (1,) or np.shape(y)[1:] != (1,):
        raise InvalidInput("gw1d needs one-dimensional atoms")
    x, a, y, b = validate_pair(x, y, a, b)
    order_x, xs = stable_order(x[:, 0])
    order_y, ys = stable_order(y[:, 0])
    (rows, cols, mass), value = _gw1d_sorted(xs, a[order_x], ys, b[order_y])
    return dense_plan(order_x[rows], order_y[cols], mass, (x.shape[0], y.shape[0])), value


def hw_tensor(x_cloud, y_cloud, plan, axis_weights=None):
    r"""Tensor product :math:`\mathcal{L} \otimes \gamma` of the HW cost.

    .. math::
        \mathcal{L}\otimes\gamma = X^{(2)} p \mathbb{1}_m^T
        + \mathbb{1}_n q^T (Y^{(2)})^T - 2 \sum_t X_t \gamma Y_t^T,

    with :math:`X_t = (x_{it} x_{kt})_{ik}`, row/column marginals
    ``(p, q)`` of the plan, and optional per-axis weights implementing the
    separable degenerate cost.
    """
    x = np.asarray(x_cloud, dtype=float)
    y = np.asarray(y_cloud, dtype=float)
    plan = np.asarray(plan, dtype=float)
    if x.shape[1] != y.shape[1]:
        raise InvalidInput("clouds must share the ambient dimension")
    if plan.shape != (x.shape[0], y.shape[0]):
        raise InvalidInput("coupling shape does not match the clouds")
    d = x.shape[1]
    w = np.ones(d) if axis_weights is None else np.asarray(axis_weights, float)
    if w.shape != (d,) or np.any(w < 0):
        raise InvalidInput("axis weights must be d nonnegative reals")
    xt = np.einsum("it,kt->tik", x, x)  # (d, n, n)
    yt = np.einsum("jt,lt->tjl", y, y)
    x2 = np.einsum("t,tik->ik", w, xt**2)
    y2 = np.einsum("t,tjl->jl", w, yt**2)
    p = plan.sum(axis=1)
    q = plan.sum(axis=0)
    cross = np.einsum("t,tik,kl,tjl->ij", w, xt, plan, yt)
    return x2 @ p[:, None] + (y2 @ q)[None, :] - 2.0 * cross


def _hw_objective(x, y, plan, axis_weights):
    return float(np.sum(hw_tensor(x, y, plan, axis_weights) * plan))


def _linear_oracle_1d(a, b, grad_cross_sign):
    """The support ``(rows, cols, mass)`` of the comonotone or anticomonotone
    NW plan: the exact linear oracle in 1D, whose two answers
    :func:`_gw1d_sorted` compares."""
    if grad_cross_sign >= 0:
        return nw_support(a, b)
    rows, cols, mass = nw_support(a[::-1], b)
    return a.size - 1 - rows, cols, mass


def _linear_oracle_exhaustive(grad, a, b):
    """Exact oracle by permutation enumeration (uniform weights, n = m)."""
    n, m = grad.shape
    if n != m or np.max(np.abs(a - 1.0 / n)) > 1e-12 or np.max(np.abs(b - 1.0 / n)) > 1e-12:
        raise InvalidInput(
            "the exhaustive oracle needs uniform weights with equal atom counts"
        )
    if n > HW_EXHAUSTIVE_LIMIT:
        raise InstanceTooLarge(
            f"exhaustive oracle limited to n <= {HW_EXHAUSTIVE_LIMIT}, got {n}"
        )
    rows = np.arange(n)
    best_val, best_perm = np.inf, None
    for perm in itertools.permutations(range(n)):
        val = float(np.sum(grad[rows, list(perm)]))
        if val < best_val:
            best_val, best_perm = val, perm
    plan = np.zeros((n, n))
    plan[rows, list(best_perm)] = 1.0 / n
    return plan


def hw_solve(x_cloud, y_cloud, a=None, b=None, axis_weights=None, n_iters=50):
    r"""Conditional gradient for the discrete Hadamard-Wasserstein problem.

    In 1D the HW cost is the axis weight times the inner-GW cost, so the
    plan is :func:`gw1d`'s closed-form optimum.  For ``d >= 2`` each round,
    from the product coupling, solves the linear subproblem with cost
    :math:`2(\mathcal{L}\otimes\gamma)` exactly by permutation enumeration
    (desk scale) and steps with the exact line search of the quadratic
    objective.  Returns ``(plan, value)``.
    """
    x, a, y, b = validate_pair(x_cloud, y_cloud, a, b)
    check_masses(float(a.sum()), float(b.sum()))
    if x.shape[1] == 1:
        plan, _ = gw1d(x, a, y, b)
        return plan, _hw_objective(x, y, plan, axis_weights)
    plan = np.outer(a, b) / b.sum()
    for _ in range(n_iters):
        grad = 2.0 * hw_tensor(x, y, plan, axis_weights)
        direction = _linear_oracle_exhaustive(grad, a, b) - plan
        # exact line search on the quadratic objective along the segment
        slope = float(np.sum(grad * direction))
        curvature = float(np.sum(hw_tensor(x, y, direction, axis_weights) * direction))
        if slope >= -1e-15:
            break
        if curvature <= 0:
            step = 1.0
        else:
            step = min(1.0, max(0.0, -slope / (2.0 * curvature)))
        if step == 0.0:
            break
        plan = plan + step * direction
    return plan, _hw_objective(x, y, plan, axis_weights)


# ---------------------------------------------------------------------------
# Gaussian subspace detours
# ---------------------------------------------------------------------------


def _gw_gaussian_map(sigma_src, sigma_tgt):
    """Gaussian inner/quadratic GW restricted map with the +identity signs.

    ``T = P_tgt A P_src^T`` with ``A = [D_tgt^{1/2} (D_src^{(q)})^{-1/2},
    0]`` for eigenvalues sorted decreasing; shape (q, p) with q <= p.
    """
    p = np.asarray(sigma_src).shape[0]
    q = np.asarray(sigma_tgt).shape[0]
    if q == 0:
        return np.zeros((0, p))
    if q > p:
        raise InvalidInput("target dimension must not exceed source dimension")
    vals_s, vecs_s = sym_eig(sigma_src)
    vals_t, vecs_t = sym_eig(sigma_tgt)
    if np.min(vals_s) <= 1e-12:
        raise InvalidInput("source covariance is numerically singular")
    a = np.zeros((q, p))
    a[:, :q] = np.diag(np.sqrt(np.maximum(vals_t, 0.0)) / np.sqrt(vals_s[:q]))
    return vecs_t @ a @ vecs_s.T


def _split_blocks(cov, basis, basis_perp):
    main = basis.T @ cov @ basis
    cross = basis_perp.T @ cov @ basis
    perp = basis_perp.T @ cov @ basis_perp
    return main, cross, perp


def _complete_basis(basis):
    """An orthonormal basis of the complement of ``basis``'s columns, the
    rows of ``vh`` past the numerical rank (``scipy.linalg.null_space``'s
    rule, so a rank-deficient basis gets the wider complement)."""
    p, k = basis.shape
    if k == p:
        return np.zeros((p, 0))
    _, s, vh = np.linalg.svd(basis.T, full_matrices=True)
    tol = np.amax(s, initial=0.0) * np.finfo(s.dtype).eps * max(basis.shape)
    return vh[np.count_nonzero(s > tol) :].T


def mk_gaussian(sigma, lam, basis_e, basis_f):
    r"""Monge-Knothe map between Gaussians through subspace detours.

    ``sigma`` is the (p, p) source covariance, ``lam`` the (q, q) target
    covariance with ``p >= q``, and ``basis_e`` (p, k), ``basis_f`` (q, k)
    orthonormal bases of the detour subspaces (``k = k'``).  Returns the
    (q, p) matrix ``B`` with ``B Sigma B^T = Lambda``, block-triangular in
    the ``E + E^perp / F + F^perp`` bases, built from the Gaussian GW maps
    with the +identity sign convention.
    """
    sigma = np.asarray(sigma, dtype=float)
    lam = np.asarray(lam, dtype=float)
    ve = np.asarray(basis_e, dtype=float)
    vf = np.asarray(basis_f, dtype=float)
    p, k = ve.shape
    q, k2 = vf.shape
    if k != k2:
        raise InvalidInput("detour subspaces must share their dimension")
    if p < q:
        raise InvalidInput("need source dimension >= target dimension")
    ve_perp = _complete_basis(ve)
    vf_perp = _complete_basis(vf)
    sig_e, sig_cross, sig_perp = _split_blocks(sigma, ve, ve_perp)
    lam_f, lam_cross, lam_perp = _split_blocks(lam, vf, vf_perp)
    vals_e, _ = sym_eig(sig_e)
    if np.min(vals_e) <= 1e-12:
        raise InvalidInput("the source subspace covariance is singular")
    schur_sigma = sig_perp - sig_cross @ np.linalg.solve(sig_e, sig_cross.T)
    schur_lam = lam_perp - lam_cross @ np.linalg.solve(lam_f, lam_cross.T)
    t_ef = _gw_gaussian_map(sig_e, lam_f)
    t_perp = _gw_gaussian_map(schur_sigma, schur_lam)
    c = (lam_cross @ np.linalg.inv(t_ef.T) - t_perp @ sig_cross) @ np.linalg.inv(
        sig_e
    )
    b_blocks = np.zeros((q, p))
    b_blocks[:k, :k] = t_ef
    b_blocks[k:, :k] = c
    b_blocks[k:, k:] = t_perp
    v_src = np.concatenate([ve, ve_perp], axis=1)
    v_tgt = np.concatenate([vf, vf_perp], axis=1)
    return v_tgt @ b_blocks @ v_src.T


def mi_gaussian(sigma, lam, basis_e, basis_f):
    r"""Monge-Independent joint covariance through subspace detours.

    For centered Gaussians, returns the (p+q, p+q) covariance of
    :math:`\pi_{\mathrm{MI}}` with cross block
    :math:`C = (V_E\Sigma_E + V_{E^\perp}\Sigma_{E^\perp E}) T_{E,F}^T
    (V_F^T + \Lambda_F^{-1}\Lambda_{F^\perp F}^T V_{F^\perp}^T)`.
    """
    sigma = np.asarray(sigma, dtype=float)
    lam = np.asarray(lam, dtype=float)
    ve = np.asarray(basis_e, dtype=float)
    vf = np.asarray(basis_f, dtype=float)
    ve_perp = _complete_basis(ve)
    vf_perp = _complete_basis(vf)
    sig_e, sig_cross, _ = _split_blocks(sigma, ve, ve_perp)
    lam_f, lam_cross, _ = _split_blocks(lam, vf, vf_perp)
    t_ef = _gw_gaussian_map(sig_e, lam_f)
    c = (
        (ve @ sig_e + ve_perp @ sig_cross)
        @ t_ef.T
        @ (vf.T + np.linalg.solve(lam_f, lam_cross.T) @ vf_perp.T)
    )
    p, q = sigma.shape[0], lam.shape[0]
    gamma = np.zeros((p + q, p + q))
    gamma[:p, :p] = sigma
    gamma[:p, p:] = c
    gamma[p:, :p] = c.T
    gamma[p:, p:] = lam
    return gamma

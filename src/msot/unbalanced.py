r"""Sliced unbalanced optimal transport with KL marginal penalties.

Two losses over any slicer: SUOT relaxes the marginals of every projected
problem separately, USW performs one global reweighting of the inputs
optimized through the slices.  Both run Frank-Wolfe on the dual

.. math::
    \sup_{f \oplus g \le c}\ \int \varphi_1^\circ(f)\,d\mu
    + \int \varphi_2^\circ(g)\,d\nu,
    \qquad \varphi_i^\circ(x) = \rho_i (1 - e^{-x/\rho_i}),

whose linear oracle is the balanced 1D dual between the reweighted
projections.  A slicer is any object with ``coordinates(points) -> (n, L)``:
:class:`~msot.sliced.EuclideanSlicer`, :class:`~msot.hyperbolic.HyperbolicSlicer`
or :class:`~msot.spd.SpdSlicer`.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .errors import InvalidInput, MassMismatch
from .measures import merged_breakpoints
from .sliced import validate_pair


@dataclass(frozen=True)
class UnbalancedParams:
    """Penalty strengths and Frank-Wolfe schedule."""

    rho1: float = 1.0
    rho2: float = 1.0
    p: float = 2.0
    n_iters: int = 20
    eps: float = 1e-10

    def __post_init__(self):
        if self.rho1 <= 0 or self.rho2 <= 0:
            raise InvalidInput("rho1 and rho2 must be positive")
        if self.n_iters < 1:
            raise InvalidInput("at least one Frank-Wolfe round is required")
        if self.p < 1:
            raise InvalidInput("order p must be >= 1")


@dataclass(frozen=True)
class DualPotentials:
    """Dual values on source/target atoms (per slice or slice-averaged)."""

    f: np.ndarray
    g: np.ndarray


@dataclass(frozen=True)
class ReweightedPair:
    """Optimal marginals: inputs rescaled by ``exp(-potential / rho)``."""

    source: np.ndarray
    target: np.ndarray


# ---------------------------------------------------------------------------
# scalar pieces
# ---------------------------------------------------------------------------


def phi_conj(x, rho):
    r"""Legendre-type transform :math:`\varphi^\circ(x) = \rho(1 - e^{-x/\rho})`."""
    return rho * (1.0 - np.exp(-np.asarray(x, dtype=float) / rho))


def norm_reweight(source_weights, target_weights, potentials, rho1, rho2):
    """Optimal-marginal reweighting ``w_i = base_i * exp(-f_i / rho)``.

    First-order optimality of the KL terms in the dual; returns the pair of
    (not necessarily normalized) marginals.
    """
    f, g = potentials.f, potentials.g
    return ReweightedPair(
        source=np.asarray(source_weights, float) * np.exp(-np.asarray(f) / rho1),
        target=np.asarray(target_weights, float) * np.exp(-np.asarray(g) / rho2),
    )


def fw_translation(source_weights, target_weights, f, g, rho1, rho2):
    r"""Gauge-fix translation maximizing the dual over ``(f + t, g - t)``.

    The unique zero of the derivative,
    :math:`t = \frac{\rho_1\rho_2}{\rho_1+\rho_2} \log\frac{\langle \mu,
    e^{-f/\rho_1}\rangle}{\langle \nu, e^{-g/\rho_2}\rangle}`, which also
    equalizes the masses of the reweighted pair.
    """
    a = np.asarray(source_weights, dtype=float)
    b = np.asarray(target_weights, dtype=float)
    if np.sum(a) <= 0 or np.sum(b) <= 0:
        raise InvalidInput("translation undefined for zero total mass")
    tau = rho1 * rho2 / (rho1 + rho2)
    log_a = logsumexp(-np.asarray(f, float) / rho1, b=a, axis=-1)
    log_b = logsumexp(-np.asarray(g, float) / rho2, b=b, axis=-1)
    return tau * (log_a - log_b)


# ---------------------------------------------------------------------------
# balanced 1D dual along the monotone coupling
# ---------------------------------------------------------------------------


def _dual_sweep(x, a, y, b, p):
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


def sliced_dual(mu, nu, p=2.0):
    """Balanced dual potentials for two sorted profiles of equal mass.

    The pair is complementary-slack on the monotone support by
    construction, so its dual value equals the primal cost exactly;
    feasibility along the support staircase is re-checked here.
    """
    if abs(mu.total_mass - nu.total_mass) > 1e-9:
        raise MassMismatch(
            f"total masses differ: {mu.total_mass} vs {nu.total_mass}"
        )
    f, g = _dual_sweep(mu.positions, mu.weights, nu.positions, nu.weights, p)
    _check_support_feasibility(mu, nu, f, g, p)
    return DualPotentials(f=f, g=g)


def _check_support_feasibility(mu, nu, f, g, p, atol=1e-9):
    """Assert f_i + g_j <= c_ij along the monotone coupling staircase."""
    qs = merged_breakpoints([mu, nu])
    i_idx = np.clip(
        np.searchsorted(mu.cum, qs, side="left"), 0, mu.positions.size - 1
    )
    j_idx = np.clip(
        np.searchsorted(nu.cum, qs, side="left"), 0, nu.positions.size - 1
    )
    cost = np.abs(mu.positions[i_idx] - nu.positions[j_idx]) ** p
    slack = f[i_idx] + g[j_idx] - cost
    if np.max(slack) > atol:
        raise InvalidInput(f"dual pair violates feasibility by {np.max(slack):.2e}")


def _sorted_oracle(xs, ws, ys, wt, p):
    """Dual sweep after an exact mass match of the target side."""
    scale = np.sum(ws) / np.sum(wt)
    return _dual_sweep(xs, ws, ys, wt * scale, p)


def _sorted_coordinates(points, slicer):
    """Column-sorted ``(n, L)`` coordinates with the sort and its inverse."""
    coords = slicer.coordinates(points)
    order = np.argsort(coords, axis=0, kind="stable")
    inverse = np.argsort(order, axis=0, kind="stable")
    return np.take_along_axis(coords, order, axis=0), order, inverse


def _fw_step_size(t):
    # gamma_{t+1} = 2 / (2 + t + 1) for the round indexed by t = 0, 1, ...
    return 2.0 / (3.0 + t)


def suot(x, y, slicer, params, x_weights=None, y_weights=None):
    """Sliced unbalanced OT: per-slice KL-relaxed 1D problems.

    Returns ``(value, potentials, history)`` where ``potentials`` holds the
    per-slice dual pair (arrays of shape ``(L, n)`` and ``(L, m)``) and
    ``history`` the post-translation dual values per Frank-Wolfe round.
    """
    x, a, y, b = validate_pair(x, y, x_weights, y_weights)
    xs, x_order, x_inv = _sorted_coordinates(x, slicer)
    ys, y_order, y_inv = _sorted_coordinates(y, slicer)
    n, L = xs.shape
    m = ys.shape[0]
    f = np.zeros((L, n))
    g = np.zeros((L, m))
    history = []
    best = (-np.inf, None, None)
    for t in range(params.n_iters):
        lam = fw_translation(a, b, f, g, params.rho1, params.rho2)
        f += lam[:, None]
        g -= lam[:, None]
        src = a * np.exp(-f / params.rho1)  # (L, n)
        tgt = b * np.exp(-g / params.rho2)
        r = np.empty_like(f)
        s = np.empty_like(g)
        for ell in range(L):
            fs, gs = _sorted_oracle(
                xs[:, ell],
                src[ell, x_order[:, ell]],
                ys[:, ell],
                tgt[ell, y_order[:, ell]],
                params.p,
            )
            r[ell] = fs[x_inv[:, ell]]
            s[ell] = gs[y_inv[:, ell]]
        gamma = _fw_step_size(t)
        f += gamma * (r - f)
        g += gamma * (s - g)
        lam = fw_translation(a, b, f, g, params.rho1, params.rho2)
        f += lam[:, None]
        g -= lam[:, None]
        history.append(_suot_dual_value(a, b, f, g, params))
        if history[-1] > best[0]:
            best = (history[-1], f.copy(), g.copy())
        if t > 0 and 0.0 <= history[-1] - history[-2] < params.eps:
            break
    # fixed-step rounds can overshoot past the optimum (badly so for small
    # penalties); every post-translation iterate is a feasible dual, so the
    # best one seen is the honest answer
    value, f, g = best
    return value, DualPotentials(f=f, g=g), np.array(history)


def _suot_dual_value(a, b, f, g, params):
    per_slice = np.sum(a * phi_conj(f, params.rho1), axis=1) + np.sum(
        b * phi_conj(g, params.rho2), axis=1
    )
    return float(np.mean(per_slice))


def usw(x, y, slicer, params, x_weights=None, y_weights=None, stochastic_slicer=None):
    """Unbalanced sliced Wasserstein: one global reweighting of the inputs.

    A single potential pair on the original atoms is updated by the
    slice-averaged balanced oracles.  Returns ``(value, potentials,
    marginals, history)`` with the optimal marginals obtained by
    :func:`norm_reweight` of the final averaged potentials.

    ``stochastic_slicer`` optionally maps a round index to a fresh slicer
    (fresh slices per round); the default keeps the given slices fixed.
    """
    x, a, y, b = validate_pair(x, y, x_weights, y_weights)
    xs, x_order, x_inv = _sorted_coordinates(x, slicer)
    ys, y_order, y_inv = _sorted_coordinates(y, slicer)
    n, L = xs.shape
    m = ys.shape[0]
    f = np.zeros(n)
    g = np.zeros(m)
    history = []
    best = (-np.inf, None, None)
    for t in range(params.n_iters):
        if stochastic_slicer is not None and t > 0:
            fresh = stochastic_slicer(t)
            xs, x_order, x_inv = _sorted_coordinates(x, fresh)
            ys, y_order, y_inv = _sorted_coordinates(y, fresh)
        lam = float(fw_translation(a, b, f, g, params.rho1, params.rho2))
        f += lam
        g -= lam
        src = a * np.exp(-f / params.rho1)
        tgt = b * np.exp(-g / params.rho2)
        r = np.empty((L, n))
        s = np.empty((L, m))
        for ell in range(L):
            fs, gs = _sorted_oracle(
                xs[:, ell],
                src[x_order[:, ell]],
                ys[:, ell],
                tgt[y_order[:, ell]],
                params.p,
            )
            r[ell] = fs[x_inv[:, ell]]
            s[ell] = gs[y_inv[:, ell]]
        gamma = _fw_step_size(t)
        f += gamma * (np.mean(r, axis=0) - f)
        g += gamma * (np.mean(s, axis=0) - g)
        lam = float(fw_translation(a, b, f, g, params.rho1, params.rho2))
        f += lam
        g -= lam
        history.append(_usw_dual_value(a, b, f, g, params))
        if history[-1] > best[0]:
            best = (history[-1], f.copy(), g.copy())
        if t > 0 and 0.0 <= history[-1] - history[-2] < params.eps:
            break
    value, f, g = best
    potentials = DualPotentials(f=f, g=g)
    marginals = norm_reweight(a, b, potentials, params.rho1, params.rho2)
    return value, potentials, marginals, np.array(history)


def _usw_dual_value(a, b, f, g, params):
    return float(
        np.sum(a * phi_conj(f, params.rho1)) + np.sum(b * phi_conj(g, params.rho2))
    )

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

from .errors import DualOverflow, InvalidInput
from .measures import dual_1d_batched, slice_mean, sorted_rows
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
    return tau * (_log_mass(a, f, rho1) - _log_mass(b, g, rho2))


def _log_mass(weights, potential, rho):
    """``log sum_i w_i exp(-potential_i / rho)`` along the last axis, shifted
    by the largest exponent of positive weight (as ``scipy``'s logsumexp)."""
    z = np.where(weights > 0, -np.asarray(potential, dtype=float) / rho, -np.inf)
    top = np.max(z, axis=-1, keepdims=True)
    return np.log(np.sum(weights * np.exp(z - top), axis=-1)) + top[..., 0]


# ---------------------------------------------------------------------------
# balanced 1D dual along the monotone coupling
# ---------------------------------------------------------------------------


def sliced_dual(mu, nu, p=2.0):
    """Balanced dual potentials for two sorted profiles of equal mass.

    The one-row case of :func:`~msot.measures.dual_1d_batched` (which
    raises ``MassMismatch`` on masses 1e-9 apart): complementary-slack on
    the monotone support, so its dual value equals the primal cost exactly.
    """
    f, g = dual_1d_batched(
        mu.positions[None], mu.weights[None], nu.positions[None], nu.weights[None], p
    )
    return DualPotentials(f=f[0], g=g[0])


def _mass_matched_dual(xs, src, ys, tgt, p):
    """Per-slice balanced dual after scaling each target row to its source mass."""
    tgt = tgt * (np.sum(src, axis=-1) / np.sum(tgt, axis=-1))[:, None]
    return dual_1d_batched(xs, src, ys, tgt, p)


def _translated(a, b, f, g, params):
    lam = np.asarray(fw_translation(a, b, f, g, params.rho1, params.rho2))
    return f + lam[..., None], g - lam[..., None]


def _frank_wolfe(a, b, f, g, params, oracle):
    """Frank-Wolfe on the dual, ``f``/``g`` per slice (2D) or shared (1D).

    ``oracle(t, src, tgt)`` returns the balanced potentials between the
    reweighted marginals, laid out like ``f`` and ``g``.  Returns the best
    post-translation iterate as ``(value, f, g)`` and the dual values per
    round: fixed-step rounds can overshoot past the optimum (badly so for
    small penalties), and every post-translation iterate is a feasible dual,
    so the best one seen is the honest answer.  Raises ``DualOverflow``
    when no round has a finite dual value.
    """
    history = []
    best = (-np.inf, None, None)
    for t in range(params.n_iters):
        f, g = _translated(a, b, f, g, params)
        r, s = oracle(t, a * np.exp(-f / params.rho1), b * np.exp(-g / params.rho2))
        gamma = 2.0 / (3.0 + t)  # gamma_{t+1} = 2 / (2 + t + 1) for t = 0, 1, ...
        f, g = _translated(a, b, f + gamma * (r - f), g + gamma * (s - g), params)
        per_slice = np.sum(a * phi_conj(f, params.rho1), axis=-1) + np.sum(
            b * phi_conj(g, params.rho2), axis=-1
        )
        history.append(float(np.mean(per_slice)))
        if history[-1] > best[0]:
            best = (history[-1], f, g)
        if t > 0 and 0.0 <= history[-1] - history[-2] < params.eps:
            break
    if best[1] is None:
        raise DualOverflow(
            f"Frank-Wolfe found no finite dual value in {len(history)} rounds: "
            f"exp(-potential / rho) overflows when the transport costs dwarf the "
            f"penalties rho1={params.rho1}, rho2={params.rho2}; rescale the data "
            "or raise rho"
        )
    return best, np.array(history)


def suot(x, y, slicer, params, x_weights=None, y_weights=None):
    """Sliced unbalanced OT: per-slice KL-relaxed 1D problems.

    Returns ``(value, potentials, history)`` where ``potentials`` holds the
    per-slice dual pair (arrays of shape ``(L, n)`` and ``(L, m)``) and
    ``history`` the post-translation dual values per Frank-Wolfe round.
    """
    x, a, y, b = validate_pair(x, y, x_weights, y_weights)
    xs, x_order = sorted_rows(slicer.coordinates(x))
    ys, y_order = sorted_rows(slicer.coordinates(y))

    def oracle(t, src, tgt):
        src = np.take_along_axis(src, x_order, axis=-1)
        tgt = np.take_along_axis(tgt, y_order, axis=-1)
        fs, gs = _mass_matched_dual(xs, src, ys, tgt, params.p)
        r, s = np.empty_like(fs), np.empty_like(gs)
        np.put_along_axis(r, x_order, fs, axis=-1)
        np.put_along_axis(s, y_order, gs, axis=-1)
        return r, s

    (value, f, g), history = _frank_wolfe(
        a, b, np.zeros(xs.shape), np.zeros(ys.shape), params, oracle
    )
    return value, DualPotentials(f=f, g=g), history


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

    def sorted_pair(sl):
        return sorted_rows(sl.coordinates(x)), sorted_rows(sl.coordinates(y))

    fixed = sorted_pair(slicer)

    def oracle(t, src, tgt):
        fresh = stochastic_slicer is not None and t > 0
        rows = sorted_pair(stochastic_slicer(t)) if fresh else fixed
        (xs, x_order), (ys, y_order) = rows
        fs, gs = _mass_matched_dual(xs, src[x_order], ys, tgt[y_order], params.p)
        return slice_mean(fs, x_order), slice_mean(gs, y_order)

    (value, f, g), history = _frank_wolfe(
        a, b, np.zeros(x.shape[0]), np.zeros(y.shape[0]), params, oracle
    )
    potentials = DualPotentials(f=f, g=g)
    marginals = norm_reweight(a, b, potentials, params.rho1, params.rho2)
    return value, potentials, marginals, history

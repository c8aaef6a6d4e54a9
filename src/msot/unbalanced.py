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
from .measures import (
    _buffer,
    _flat_positions,
    _gather,
    _solve_scratch,
    check_order,
    check_positive,
    dual_1d_batched,
    slice_mean,
    sorted_rows,
)
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
        check_positive(self.rho1, "rho1")
        check_positive(self.rho2, "rho2")
        if self.n_iters < 1:
            raise InvalidInput("at least one Frank-Wolfe round is required")
        check_order(self.p)


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
    return _conj_of_exp(_exp_neg(np.asarray(x, dtype=float), rho), rho)


def _conj_of_exp(exp_neg, rho, out=None):
    """:func:`phi_conj` from ``exp_neg = exp(-x / rho)``, in ``out`` if given."""
    return np.multiply(rho, np.subtract(1.0, exp_neg, out=out), out=out)


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
    potential = np.asarray(potential, dtype=float)
    z = _buffer("log_mass", np.broadcast(weights, potential).shape)
    np.divide(np.negative(potential, out=z), rho, out=z)
    positive = weights > 0
    if not positive.all():
        np.copyto(z, -np.inf, where=~positive)
    top = np.max(z, axis=-1, keepdims=True)
    np.exp(np.subtract(z, top, out=z), out=z)
    return np.log(np.sum(np.multiply(weights, z, out=z), axis=-1)) + top[..., 0]


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
    """Per-slice balanced dual after scaling each target row to its source
    mass, in place."""
    tgt *= (np.sum(src, axis=-1) / np.sum(tgt, axis=-1))[:, None]
    return dual_1d_batched(xs, src, ys, tgt, p)


def _translate(a, b, f, g, params):
    """Apply :func:`fw_translation` to ``f`` and ``g`` in place."""
    lam = np.asarray(fw_translation(a, b, f, g, params.rho1, params.rho2))[..., None]
    f += lam
    g -= lam


def _exp_neg(potential, rho, out=None):
    """``exp(-potential / rho)``, in ``out`` if given."""
    return np.exp(np.divide(np.negative(potential, out=out), rho, out=out), out=out)


def _conj_sum(weights, exp_neg, rho, out):
    """``sum(weights * phi_conj(potential, rho))`` along the last axis, from
    ``exp_neg = exp(-potential / rho)``, in ``out``."""
    return np.sum(np.multiply(weights, _conj_of_exp(exp_neg, rho, out), out=out), axis=-1)


@_solve_scratch()
def _frank_wolfe(a, b, f, g, params, oracle):
    """Frank-Wolfe on the dual, ``f``/``g`` per slice (2D) or shared (1D).

    ``oracle(t, src, tgt)`` returns the balanced potentials between the
    reweighted marginals, laid out like ``f`` and ``g``, in arrays the loop
    may overwrite.  Returns the best post-translation iterate as ``(value,
    f, g)`` and the dual values per round: fixed-step rounds can overshoot
    past the optimum (badly so for small penalties), and every
    post-translation iterate is a feasible dual, so the best one seen is the
    honest answer.  Raises ``DualOverflow`` when no round has a finite dual
    value.

    The iterate ``f``/``g`` (fresh arrays of the caller) is updated in place,
    ``exp(-f / rho)`` is computed once per round, for that round's dual value
    and the next round's oracle input, and the loop and its oracle run in
    one scratch (:func:`~msot.measures._solve_scratch`).
    """
    rho1, rho2 = params.rho1, params.rho2
    history = []
    best_value, best_f, best_g = -np.inf, np.empty_like(f), np.empty_like(g)
    # every later round starts from the previous round's translated pair
    _translate(a, b, f, g, params)
    exp_f, exp_g = _exp_neg(f, rho1, np.empty_like(f)), _exp_neg(g, rho2, np.empty_like(g))
    for t in range(params.n_iters):
        r, s = oracle(t, np.multiply(a, exp_f, out=exp_f), np.multiply(b, exp_g, out=exp_g))
        gamma = 2.0 / (3.0 + t)  # gamma_{t+1} = 2 / (2 + t + 1) for t = 0, 1, ...
        f += np.multiply(gamma, np.subtract(r, f, out=r), out=r)
        g += np.multiply(gamma, np.subtract(s, g, out=s), out=s)
        _translate(a, b, f, g, params)
        _exp_neg(f, rho1, exp_f)
        _exp_neg(g, rho2, exp_g)
        per_slice = _conj_sum(a, exp_f, rho1, r) + _conj_sum(b, exp_g, rho2, s)
        history.append(float(np.mean(per_slice)))
        if history[-1] > best_value:
            best_value = history[-1]
            np.copyto(best_f, f)
            np.copyto(best_g, g)
        if t > 0 and 0.0 <= history[-1] - history[-2] < params.eps:
            break
    if best_value == -np.inf:
        raise DualOverflow(
            f"Frank-Wolfe found no finite dual value in {len(history)} rounds: "
            f"exp(-potential / rho) overflows when the transport costs dwarf the "
            f"penalties rho1={params.rho1}, rho2={params.rho2}; rescale the data "
            "or raise rho"
        )
    return (best_value, best_f, best_g), np.array(history)


def suot(x, y, slicer, params, x_weights=None, y_weights=None):
    """Sliced unbalanced OT: per-slice KL-relaxed 1D problems.

    Returns ``(value, potentials, history)`` where ``potentials`` holds the
    per-slice dual pair (arrays of shape ``(L, n)`` and ``(L, m)``) and
    ``history`` the post-translation dual values per Frank-Wolfe round.
    """
    x, a, y, b = validate_pair(x, y, x_weights, y_weights)
    xs, x_order = sorted_rows(slicer.coordinates(x))
    ys, y_order = sorted_rows(slicer.coordinates(y))
    # the sorts hold for the whole solve: every round reuses their flat positions
    x_at = _flat_positions(x_order, xs.shape[1])
    y_at = _flat_positions(y_order, ys.shape[1])

    def oracle(t, src, tgt):
        fs, gs = _mass_matched_dual(
            xs, _gather(src, x_at, "src_rows"), ys, _gather(tgt, y_at, "tgt_rows"), params.p)
        # the sorted rows are spent: the potentials go back to atom order there
        r, s = _buffer("src_rows", fs.shape), _buffer("tgt_rows", gs.shape)
        r.ravel()[x_at] = fs
        s.ravel()[y_at] = gs
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
        fs, gs = _mass_matched_dual(
            xs, _gather(src, x_order, "src_rows"), ys, _gather(tgt, y_order, "tgt_rows"), params.p)
        return slice_mean(fs, x_order), slice_mean(gs, y_order)

    (value, f, g), history = _frank_wolfe(
        a, b, np.zeros(x.shape[0]), np.zeros(y.shape[0]), params, oracle
    )
    potentials = DualPotentials(f=f, g=g)
    marginals = norm_reweight(a, b, potentials, params.rho1, params.rho2)
    return value, potentials, marginals, history

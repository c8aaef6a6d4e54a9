r"""Sliced-Wasserstein gradient-flow schemes.

Backward (JKO) schemes minimize
:math:`J(\mu) = \frac{1}{2\tau} SW_2^2(\mu, \mu_k) + \mathcal{F}(\mu)`
at every outer step, over particle positions or over grid weights
projected on the simplex; the forward scheme follows the particle
Wasserstein gradient directly, on Euclidean space or on the hyperboloid.
The optional dilation flag multiplies the coupling term by the ambient
dimension, matching the plain-Wasserstein dynamics on measure classes
where :math:`SW_2^2 = W_2^2/d`.  Each flow runs in one scratch
(:func:`~msot.measures._solve_scratch`), so the dual sweep and the
interaction matrices reuse their buffers from step to step.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import FlowDiverged, InvalidInput
from .hyperbolic import geodesic_coordinate, ghsw, riemannian_step_lorentz
from .measures import (
    _buffer,
    _gather,
    _solve_scratch,
    check_positive,
    dual_1d_batched,
    slice_mean,
    sorted_rows,
    validate_weights,
    wasserstein_1d_batched,
)
from .sliced import (
    matched_residual,
    sample_directions,
    sorted_residual,
    sw2_subgradient,
    sw_p,
)

ENTROPY_FLOOR = 1e-300


@dataclass(frozen=True)
class GridState:
    """Fixed nodes with simplex weights and a per-node volume element."""

    nodes: np.ndarray
    rho: np.ndarray
    cell_volume: float

    def __post_init__(self):
        if not np.all(np.isfinite(self.rho)):
            raise InvalidInput("grid weights must be finite")
        if abs(float(np.sum(self.rho)) - 1.0) > 1e-10 or np.any(self.rho < 0):
            raise InvalidInput("grid weights must lie on the probability simplex")
        check_positive(self.cell_volume, "cell volume")


@dataclass(frozen=True)
class FlowRecord:
    step: int
    energy: float
    objective: float | None = None
    residual_grad: float | None = None
    positions: np.ndarray | None = None
    rho: np.ndarray | None = None


_OPTIONAL_FIELDS = ("objective", "residual_grad", "positions", "rho")


@dataclass
class FlowTrace:
    """Per-step records of a flow, serializable as line-delimited JSON."""

    records: list = field(default_factory=list)

    def append(self, record):
        if self.records and record.step <= self.records[-1].step:
            raise InvalidInput("step indices must be strictly increasing")
        self.records.append(record)

    @property
    def energies(self):
        return np.array([r.energy for r in self.records])

    def to_jsonl(self):
        lines = []
        for r in self.records:
            payload = {"step": r.step, "energy": r.energy}
            for key in _OPTIONAL_FIELDS:
                if getattr(r, key) is not None:
                    payload[key] = np.asarray(getattr(r, key)).tolist()
            lines.append(json.dumps(payload, sort_keys=True, allow_nan=False))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text):
        trace = cls()
        for line in text.strip().splitlines():
            payload = json.loads(line)
            arrays = {k: np.array(payload.pop(k)) for k in ("positions", "rho") if k in payload}
            trace.append(FlowRecord(**payload, **arrays))
        return trace


# ---------------------------------------------------------------------------
# functionals
# ---------------------------------------------------------------------------


class Functional:
    """Energy on measures; subclasses fill in the supported surfaces.  A
    grid's energy is that of its nodes weighted by ``rho`` unless overridden."""

    def value(self, points, weights=None):
        raise InvalidInput(f"{type(self).__name__} unsupported on particle states")

    def particle_gradient(self, points, weights=None):
        raise InvalidInput(f"{type(self).__name__} has no particle gradient")

    def value_and_gradient(self, points, weights=None):
        """``(value, particle_gradient)`` at one state; a functional whose
        two surfaces share work overrides it to do that work once."""
        return self.value(points, weights), self.particle_gradient(points, weights)

    def grid_value(self, grid):
        return self.value(grid.nodes, grid.rho)

    def grid_gradient(self, grid):
        raise InvalidInput(f"{type(self).__name__} has no grid gradient")


class PotentialFunctional(Functional):
    r"""Potential energy :math:`\int V\,d\mu` with an analytic gradient.

    ``v`` and ``grad_v`` act on one point.  Every surface goes through the
    batched :meth:`values` and :meth:`gradients` on the whole ``(n, d)``
    array; here they call ``v`` and ``grad_v`` atom by atom, and a potential
    with a closed form overrides them with whole-array expressions.
    """

    def __init__(self, v, grad_v):
        self.v = v
        self.grad_v = grad_v

    def values(self, points):
        """``V`` at every row of ``points``, shape ``(n,)``."""
        return np.apply_along_axis(self.v, 1, points)

    def gradients(self, points):
        """``grad V`` at every row of ``points``, shape ``(n, d)``."""
        return np.stack([self.grad_v(x) for x in points])

    def value(self, points, weights=None):
        points = np.asarray(points, dtype=float)
        w = validate_weights(weights, n=points.shape[0])
        return float(np.sum(w * self.values(points)))

    def particle_gradient(self, points, weights=None):
        points = np.asarray(points, dtype=float)
        w = validate_weights(weights, n=points.shape[0])
        return w[:, None] * self.gradients(points)

    def grid_gradient(self, grid):
        return self.values(grid.nodes)


class _QuadraticPotential(PotentialFunctional):
    """``V(x) = strength/2 * |x - target|^2`` in closed form along the last
    axis; a 0-d target is the same center in every coordinate."""

    def __init__(self, target, strength):
        target = np.asarray(target, dtype=float)
        if target.ndim > 1 or not np.all(np.isfinite(target)):
            raise InvalidInput("the potential center must be a finite vector")
        if not np.isfinite(strength):
            raise InvalidInput("the potential strength must be finite")
        self.target = target
        self.strength = strength
        super().__init__(v=lambda x: float(self.values(x)), grad_v=self.gradients)

    def _offset(self, points):
        points = np.asarray(points, dtype=float)
        if self.target.ndim and points.shape[-1:] != self.target.shape:
            raise InvalidInput(
                f"the potential center has dimension {self.target.size}, "
                f"the atoms have shape {points.shape}"
            )
        return points - self.target

    def values(self, points):
        return 0.5 * self.strength * np.sum(self._offset(points) ** 2, axis=-1)

    def gradients(self, points):
        return self.strength * self._offset(points)


def quadratic_potential(target, strength=1.0):
    """``V(x) = strength/2 * |x - target|^2`` as a potential functional."""
    return _QuadraticPotential(target, strength)


class InteractionFunctional(Functional):
    r"""Interaction energy :math:`\frac12 \iint W(x - y)\,d\mu\,d\mu` with the
    power-law kernel :math:`W(z) = \|z\|^a/a - \|z\|^b/b` (repulsive-
    attractive for the default ``a = 4, b = 2``, gradient
    :math:`(\|z\|^2 - 1)z`).

    Energy and force are read off one ``(n, n)`` matrix of squared
    distances, in powers of it: the default kernel then needs no square
    root and no general power, only numpy's square, copy and ones.  The
    ``(n, n)`` matrices are :func:`~msot.measures._buffer` arrays, kept
    from step to step inside a flow: ``sq``, the zero-distance mask, and
    two power buffers that the coordinate differences, the kernel and the
    force take in turn."""

    def __init__(self, a=4.0, b=2.0):
        if not (np.isfinite(a) and np.isfinite(b)):
            raise InvalidInput("kernel exponents must be finite")
        if not 0 < b < a:
            raise InvalidInput("need 0 < b < a for a repulsive-attractive kernel")
        self.a = float(a)
        self.b = float(b)

    def _kernel(self, sq):
        """``W`` at squared distances ``sq``: ``sq**(a/2)/a - sq**(b/2)/b``,
        in place on the first power."""
        kernel = _scalar_power(sq, self.a / 2, _buffer("power_a", sq.shape))
        kernel /= self.a
        power_b = _scalar_power(sq, self.b / 2, _buffer("power_b", sq.shape))
        kernel -= np.divide(power_b, self.b, out=power_b)
        return kernel

    def _pairwise(self, points):
        """Squared distances between all rows, summed one coordinate at a
        time into a single ``(n, n)`` array, in the order of
        ``np.sum(diff**2, axis=-1)`` over the ``(n, n, d)`` differences."""
        if points.ndim != 2 or points.shape[1] == 0:
            raise InvalidInput(f"interaction needs (n, d) points, d >= 1, got {points.shape}")
        n = points.shape[0]
        first, *rest = points.T
        sq = np.subtract.outer(first, first, out=_buffer("sq", (n, n)))
        np.square(sq, out=sq)
        diff = _buffer("power_a", (n, n))
        for col in rest:
            np.subtract.outer(col, col, out=diff)
            sq += np.square(diff, out=diff)
        return sq

    def _energy(self, sq, w):
        return 0.5 * float(w @ self._kernel(sq) @ w)

    def _force(self, points, sq, w):
        r"""``w_i sum_j C_ij (x_i - x_j)`` with ``C_ij = w_j W'(r_ij) / r_ij``,
        ``0`` where ``r_ij = 0``, as :math:`x_i \sum_j C_{ij} - (C x)_i`.
        The force does not change under translation; centering the cloud
        first keeps the cancellation between the two terms at the scale of
        the cloud's spread."""
        with np.errstate(divide="ignore", invalid="ignore"):
            coef = _scalar_power(sq, self.a / 2 - 1, _buffer("power_a", sq.shape))
            coef -= _scalar_power(sq, self.b / 2 - 1, _buffer("power_b", sq.shape))
        off = np.greater(sq, 0.0, out=_buffer("off", sq.shape, np.bool_))
        np.copyto(coef, 0.0, where=np.logical_not(off, out=off))
        coef *= w[None, :]
        centered = points - np.mean(points, axis=0)
        force = centered * np.sum(coef, axis=1)[:, None] - coef @ centered
        return w[:, None] * force

    def _state(self, points, weights):
        points = np.asarray(points, dtype=float)
        w = validate_weights(weights, n=points.shape[0])
        return points, w, self._pairwise(points)

    def value(self, points, weights=None):
        _, w, sq = self._state(points, weights)
        return self._energy(sq, w)

    def particle_gradient(self, points, weights=None):
        points, w, sq = self._state(points, weights)
        return self._force(points, sq, w)

    def value_and_gradient(self, points, weights=None):
        points, w, sq = self._state(points, weights)
        return self._energy(sq, w), self._force(points, sq, w)

    def grid_gradient(self, grid):
        sq = self._pairwise(np.asarray(grid.nodes, dtype=float))
        return self._kernel(sq) @ grid.rho


# the ufunc numpy's ``**`` calls for these scalar exponents of a float array
_FAST_POWERS = {2.0: np.square, 1.0: np.positive, 0.5: np.sqrt}


def _scalar_power(base, exponent, out):
    """``base ** exponent`` for a float exponent above -1 (every power the
    kernel takes), bit for bit, written into ``out``: the ufuncs of
    ``**``'s fast paths, ones at exponent 0, and ``np.power`` otherwise."""
    if exponent == 0.0:
        out.fill(1.0)
        return out
    fast = _FAST_POWERS.get(exponent)
    return fast(base, out=out) if fast else np.power(base, exponent, out=out)


class EntropyFunctional(Functional):
    r"""Negative entropy :math:`\sum_i \log(\rho_i/l)\rho_i` on grids.

    Particle states carry no density, so the particle surface raises.
    """

    def grid_value(self, grid):
        rho = np.maximum(grid.rho, ENTROPY_FLOOR)
        return float(np.sum(np.log(rho / grid.cell_volume) * grid.rho))

    def grid_gradient(self, grid):
        rho = np.maximum(grid.rho, ENTROPY_FLOOR)
        return np.log(rho / grid.cell_volume) + 1.0


class SumFunctional(Functional):
    """Sum of functionals (Fokker-Planck = potential + entropy)."""

    def __init__(self, parts):
        self.parts = list(parts)

    def value(self, points, weights=None):
        return sum(p.value(points, weights) for p in self.parts)

    def particle_gradient(self, points, weights=None):
        return sum(p.particle_gradient(points, weights) for p in self.parts)

    def value_and_gradient(self, points, weights=None):
        pairs = [p.value_and_gradient(points, weights) for p in self.parts]
        return sum(v for v, _ in pairs), sum(g for _, g in pairs)

    def grid_value(self, grid):
        return sum(p.grid_value(grid) for p in self.parts)

    def grid_gradient(self, grid):
        return sum(p.grid_gradient(grid) for p in self.parts)


class SwToTargetFunctional(Functional):
    r"""Coupling energy :math:`\frac12 SW_2^2(\mu, \nu)` toward a fixed
    target cloud, with shared slices."""

    def __init__(self, target_points, dirs, target_weights=None):
        self.target = np.asarray(target_points, dtype=float)
        self.dirs = dirs
        self.target_weights = target_weights

    def value(self, points, weights=None):
        return 0.5 * sw_p(
            points,
            self.target,
            self.dirs,
            p=2.0,
            x_weights=weights,
            y_weights=self.target_weights,
        )

    def particle_gradient(self, points, weights=None):
        if weights is not None:
            raise InvalidInput("the analytic subgradient needs uniform weights")
        if np.asarray(points).shape[0] != self.target.shape[0]:
            raise InvalidInput("the analytic subgradient needs equal atom counts")
        return 0.5 * sw2_subgradient(points, self.target, self.dirs)

    def grid_gradient(self, grid):
        return 0.5 * _sw_weight_gradient(
            grid.nodes, grid.rho, self.target, self.target_weights, self.dirs
        )


class GhswToTargetFunctional(Functional):
    r"""Coupling energy :math:`\frac12 GHSW_2^2(\mu, \nu)` on the Lorentz
    model, with the analytic ambient gradient of the geodesic coordinates."""

    def __init__(self, target_points, dirs):
        self.target = np.asarray(target_points, dtype=float)
        self.dirs = dirs

    def value(self, points, weights=None):
        if weights is not None:
            raise InvalidInput("hyperbolic flows run on uniform clouds")
        return 0.5 * ghsw(points, self.target, self.dirs, p=2.0)

    def particle_gradient(self, points, weights=None):
        x = np.asarray(points, dtype=float)
        n = x.shape[0]
        if n != self.target.shape[0]:
            raise InvalidInput("the analytic subgradient needs equal atom counts")
        ideal = self.dirs.dirs
        n_proj = ideal.shape[0]
        resid = matched_residual(
            geodesic_coordinate(x, ideal, model="lorentz"),
            geodesic_coordinate(self.target, ideal, model="lorentz"),
        )  # (n, L)
        # ambient gradient of P^v(x) = arctanh(-<x,v>_L / <x,x0>_L), v = (0, ideal)
        u = x[:, 1:] @ ideal.T  # <x, v>_L, (n, L)
        w = -x[:, :1]  # <x, x0>_L, (n, 1)
        ratio = -u / w
        denom = (1.0 - ratio**2) * w**2
        # dP/dx = (-(Jv) w + u Jx0) / ((1 - r^2) w^2) with Jv = v and Jx0 = -e_0,
        # summed over slices against the residual without an (n, L, d) temporary
        r = resid / denom
        grad = np.empty_like(x)
        grad[:, 0] = -np.sum(r * u, axis=1)
        grad[:, 1:] = -w * (r @ ideal)
        return grad / (n * n_proj)


def _sw_weight_gradient(nodes, rho, target, target_weights, dirs):
    """Gradient of SW_2^2 w.r.t. the first measure's weights.

    By the envelope theorem this is the slice average of the source dual
    potential; the additive gauge is immaterial under simplex projection.
    """
    xs, x_order = sorted_rows(np.asarray(nodes, dtype=float) @ dirs.dirs.T)
    ys, y_order = sorted_rows(np.asarray(target, dtype=float) @ dirs.dirs.T)
    wt = validate_weights(target_weights, n=ys.shape[1])
    f, _ = dual_1d_batched(xs, rho[x_order], ys, wt[y_order], p=2.0)
    return slice_mean(f, x_order)


# ---------------------------------------------------------------------------
# simplex projection
# ---------------------------------------------------------------------------


def _check_finite(value, what, step, flow):
    if not np.all(np.isfinite(value)):
        raise FlowDiverged(f"{flow} flow diverged at step {step}: non-finite {what}")


def _named_later():
    """Overflow and invalid-value warnings off, for an evaluation whose
    non-finite result the :func:`_check_finite` call after it names."""
    return np.errstate(over="ignore", invalid="ignore")


def simplex_project(v):
    """Euclidean projection onto the probability simplex (sort-threshold)
    of ``v - max(v)``, whose test ``css_k - k u_k < 1`` holds at ``k = 1``
    and fails on overflow (``inf`` or NaN) only where it fails anyway."""
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise InvalidInput("cannot project a non-finite vector")
    with np.errstate(over="ignore", invalid="ignore"):
        v = v - np.max(v)
        u = np.sort(v)[::-1]
        css = np.cumsum(u)
        ks = np.arange(1, v.size + 1)
        k = int(np.max(ks[css - ks * u < 1.0]))
    tau = (1.0 - css[k - 1]) / k
    return np.maximum(v + tau, 0.0)


# ---------------------------------------------------------------------------
# flow drivers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InnerOptimizer:
    """Plain gradient descent settings for the inner JKO minimization."""

    learning_rate: float = 0.05
    n_steps: int = 50

    def __post_init__(self):
        check_positive(self.learning_rate, "inner learning rate")


@_solve_scratch()
def swjko_particles(
    initial,
    functional,
    tau,
    n_steps,
    inner=InnerOptimizer(),
    n_projections=100,
    seed=0,
    dilation=False,
    record_positions=False,
):
    """Backward-Euler flow on particle positions.

    Each outer step minimizes the proximal objective with ``inner.n_steps``
    gradient-descent iterations using the analytic SW subgradient, with
    slices fixed per outer step.  The descent applies per-particle
    (Wasserstein) gradients, i.e. ``n`` times the position gradient of the
    objective, so the learning-rate scale is independent of the particle
    count.  Records the functional value and the proximal objective of
    each accepted state.
    """
    check_positive(tau, "tau")
    x = np.asarray(initial, dtype=float).copy()
    n, d = x.shape
    factor = float(d) if dilation else 1.0
    with _named_later():
        energy = functional.value(x)
    _check_finite(energy, "energy", 0, "particle JKO")
    x0 = x.copy() if record_positions else None
    trace = FlowTrace([FlowRecord(step=0, energy=energy, objective=energy, positions=x0)])
    for k in range(1, n_steps + 1):
        dirs = sample_directions(d, n_projections, seed=seed + k)
        theta = dirs.dirs
        prev = x.copy()
        # sw2_subgradient(x, prev, dirs), with the fixed previous iterate's
        # projections sorted once per outer step
        prev_sorted = sorted_rows(prev @ theta.T)[0].T
        scale = 2.0 / (n * n_projections)
        grad = np.zeros_like(x)
        with _named_later():
            for _ in range(inner.n_steps):
                sw_grad = scale * sorted_residual(x @ theta.T, prev_sorted) @ theta
                grad = factor / (2.0 * tau) * sw_grad + functional.particle_gradient(x)
                _check_finite(grad, "gradient", k, "particle JKO")
                x = x - inner.learning_rate * n * grad
            energy = functional.value(x)
        _check_finite(energy, "energy", k, "particle JKO")
        objective = factor / (2.0 * tau) * sw_p(x, prev, dirs) + energy
        _check_finite(objective, "objective", k, "particle JKO")
        trace.append(
            FlowRecord(
                step=k,
                energy=energy,
                objective=objective,
                residual_grad=float(np.linalg.norm(n * grad)),
                positions=x.copy() if record_positions else None,
            )
        )
    return trace


@_solve_scratch()
def swjko_grid(
    grid,
    functional,
    tau,
    n_steps,
    inner=InnerOptimizer(),
    n_projections=100,
    seed=0,
    dilation=False,
    record_rho=False,
):
    """Backward-Euler flow on grid weights, projected on the simplex.

    The SW term between weighted grid profiles uses the general-weights 1D
    solver; its weight gradient is the slice-averaged dual potential.  A
    non-finite value raises :class:`FlowDiverged` naming the step."""
    check_positive(tau, "tau")
    nodes = np.asarray(grid.nodes, dtype=float)
    n, d = nodes.shape
    rho = np.asarray(grid.rho, dtype=float).copy()
    factor = float(d) if dilation else 1.0
    state = GridState(nodes=nodes, rho=rho, cell_volume=grid.cell_volume)
    energy = functional.grid_value(state)
    _check_finite(energy, "energy", 0, "grid")
    rho0 = rho.copy() if record_rho else None
    trace = FlowTrace([FlowRecord(step=0, energy=energy, objective=energy, rho=rho0)])
    for k in range(1, n_steps + 1):
        dirs = sample_directions(d, n_projections, seed=seed + k)
        coords = nodes @ dirs.dirs.T
        xs, order = sorted_rows(coords)
        rho_prev = rho.copy()
        prev_rows = rho_prev[order]
        grad = np.zeros(n)
        for _ in range(inner.n_steps):
            f, _ = dual_1d_batched(xs, _gather(rho, order, "rho_rows"), xs, prev_rows, 2.0)
            grad_sw = slice_mean(f, order)
            grad = factor / (2.0 * tau) * grad_sw + functional.grid_gradient(
                GridState(nodes=nodes, rho=rho, cell_volume=grid.cell_volume)
            )
            _check_finite(grad, "gradient", k, "grid")
            rho = simplex_project(rho - inner.learning_rate * grad)
        state = GridState(nodes=nodes, rho=rho, cell_volume=grid.cell_volume)
        energy = functional.grid_value(state)
        coupling = float(
            np.mean(
                wasserstein_1d_batched(coords, coords, rho, rho_prev, p=2.0)
            )
        )
        objective = factor / (2.0 * tau) * coupling + energy
        with np.errstate(over="ignore"):  # an overflow is reported just below
            residual = float(np.linalg.norm(grad - np.mean(grad)))
        _check_finite(
            [residual, energy, objective], "gradient, energy or objective", k, "grid"
        )
        trace.append(
            FlowRecord(
                step=k,
                energy=energy,
                objective=objective,
                residual_grad=residual,
                rho=rho.copy() if record_rho else None,
            )
        )
    return trace


@_solve_scratch()
def euler_particles(
    initial,
    functional,
    step_size,
    n_steps,
    geometry="euclidean",
    record_positions=False,
):
    """Forward-Euler particle flow of the Wasserstein gradient.

    Uniform particle clouds descend ``x_i <- x_i - tau n grad_i``; on the
    Lorentz geometry the ambient gradient goes through the Riemannian step.
    Each state is evaluated once, by ``value_and_gradient``: its energy is
    recorded and its gradient takes the next step.  The last state gets its
    energy only.
    """
    check_positive(step_size, "step size")
    if geometry not in ("euclidean", "lorentz"):
        raise InvalidInput(f"unsupported geometry {geometry!r}")
    x = np.asarray(initial, dtype=float).copy()
    n = x.shape[0]

    def evaluate(x, with_gradient):
        with _named_later():
            if not with_gradient:
                return functional.value(x), None
            energy, grad = functional.value_and_gradient(x)
            return energy, n * grad

    energy, grad = evaluate(x, n_steps > 0)
    _check_finite(energy, "energy", 0, "Euler")
    x0 = x.copy() if record_positions else None
    trace = FlowTrace([FlowRecord(step=0, energy=energy, positions=x0)])
    for k in range(1, n_steps + 1):
        _check_finite(grad, "gradient", k, "Euler")
        if geometry == "euclidean":
            x = x - step_size * grad
        else:
            x = riemannian_step_lorentz(x, grad, step_size)
        energy, grad = evaluate(x, k < n_steps)
        _check_finite(energy, "energy", k, "Euler")
        trace.append(
            FlowRecord(
                step=k,
                energy=energy,
                positions=x.copy() if record_positions else None,
            )
        )
    return trace

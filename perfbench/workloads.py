"""The benchmark's three workloads: seeded inputs and the op mix of each.

Inputs are generated here with numpy from the benchmark seed; msot only
ever receives the resulting arrays (or CSV files) plus slice seeds derived
from the benchmark seed.  Every op is one user-visible computation, slice
sampling included.  An op has

* ``run(rec)``: the timed computation, with spans around the public msot
  calls it makes (``rec`` is a no-op recorder in the untraced pass);
* ``digest(out)``: a finite scalar summary, which must repeat bit for bit;
* ``check(out)``: independent checks, run once per run outside timing;
* ``pieces(rec, out)``: optional re-computation through finer public calls
  (coordinates, 1D kernel, ingest...), timed for the per-layer metrics;
  it returns False when the pieces stop reproducing the op's output.
  The pieces are the benchmark's own composition (per slice, say, where
  msot may batch); when ``rerun`` is True they re-run the whole op, and
  run.py reports them missing once they take much longer than the op;
* ``stored``: whether the digest is compared with the seed-0 reference
  values in ``reference.json`` (ops without a cheap independent check).
"""

import dataclasses
import math
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import msot
import reference as ref
from msot import cli, flows, spd
from tracing import NULL

CIRCLE_EPS = 1e-6
CHECK_SLICES = 16


@dataclass
class Op:
    name: str
    run: Callable
    digest: Callable
    check: Callable
    pieces: Callable | None = None
    stored: bool = False
    rerun: bool = True


@dataclass
class Workload:
    name: str
    ops: list
    warmup: str
    tmpdir: Path | None = None

    def close(self):
        if self.tmpdir is not None:
            shutil.rmtree(self.tmpdir, ignore_errors=True)
            self.tmpdir = None


def finite(value):
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"non-finite output {value!r}")
    return value


def _all_finite(*arrays):
    return all(np.all(np.isfinite(np.asarray(a, dtype=float))) for a in arrays)


# ---------------------------------------------------------------------------
# seeded inputs (numpy only)
# ---------------------------------------------------------------------------


def _weights(rng, n):
    w = rng.random(n) + 0.1
    return w / w.sum()


def _lorentz(rng, n, d, scale, shift):
    """exp at the hyperboloid origin of Gaussian tangent vectors."""
    v = rng.standard_normal((n, d)) * scale + shift
    r = np.linalg.norm(v, axis=1, keepdims=True)
    return np.concatenate([np.cosh(r), np.sinh(r) / r * v], axis=1)


def _poincare(x):
    """The same points in the Poincare ball."""
    return x[:, 1:] / (1.0 + x[:, :1])


def _spd(rng, n, d, spread):
    z = rng.standard_normal((n, d, d)) * spread / np.sqrt(d)
    vals, vecs = np.linalg.eigh((z + z.transpose(0, 2, 1)) / 2.0)
    m = np.einsum("nik,nk,njk->nij", vecs, np.exp(vals), vecs)
    return (m + m.transpose(0, 2, 1)) / 2.0


def _sphere(rng, n, d, pull):
    z = rng.standard_normal((n, d))
    z[:, 0] += pull
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _grid(side, center):
    g = np.linspace(-2.0, 2.0, side)
    nodes = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
    rho = np.exp(-np.sum((nodes - center) ** 2, axis=1))
    return msot.GridState(nodes=nodes, rho=rho / rho.sum(), cell_volume=(g[1] - g[0]) ** 2)


# ---------------------------------------------------------------------------
# balanced line ops: slicer coordinates + exact 1D costs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LineKind:
    """How one sliced distance samples, calls msot, and projects."""

    sample_layer: str
    sample: Callable  # (d, L, seed) -> slice object
    array: Callable  # slice object -> stacked slices
    restrict: Callable  # (slice object, index) -> slice object
    call: Callable  # (x, y, slices, a, b, p) -> value
    coords: Callable  # (rec, points, slices) -> (n, L) via msot public calls
    own: Callable  # (points, slice array) -> (n, k), numpy only


def _span_coords(layer, fn):
    def coords(rec, points, slices):
        n = np.asarray(points).shape[0]
        with rec.span(layer) as span:
            out = fn(points, slices)
            span["atoms"] = n * out.shape[1]
        return out

    return coords


def _dirs_restrict(dirs, idx):
    return msot.DirectionSet(dirs=dirs.dirs[idx], seed=dirs.seed)


def _logsw_coords(rec, points, dirs):
    n = points.shape[0]
    with rec.span("spd.le_coord"):
        vec = spd.sym_to_vec(msot.spd_log(points))
    with rec.span("sliced.project", atoms=n * dirs.n_projections):
        return msot.EuclideanSlicer(dirs).coordinates(vec)


def _dirs_kind(call, layer, coords, own, dim_offset=0):
    return LineKind(
        sample_layer="sliced.directions",
        sample=lambda d, L, seed: msot.sample_directions(d - dim_offset, L, seed),
        array=lambda s: s.dirs,
        restrict=_dirs_restrict,
        call=call,
        coords=_span_coords(layer, coords),
        own=own,
    )


LINE_KINDS = {
    "sw": _dirs_kind(
        lambda x, y, s, a, b, p: msot.sw_p(x, y, s, p=p, x_weights=a, y_weights=b),
        "sliced.project",
        lambda pts, s: msot.EuclideanSlicer(s).coordinates(pts),
        lambda pts, arr: pts @ arr.T,
    ),
    "ghsw": _dirs_kind(
        lambda x, y, s, a, b, p: msot.ghsw(x, y, s, p=p, x_weights=a, y_weights=b),
        "hyperbolic.coord",
        lambda pts, s: msot.geodesic_coordinate(pts, s.dirs, model="lorentz"),
        ref.geodesic_coords,
        dim_offset=1,
    ),
    "hhsw": _dirs_kind(
        lambda x, y, s, a, b, p: msot.hhsw(x, y, s, p=p, x_weights=a, y_weights=b),
        "hyperbolic.coord",
        lambda pts, s: -msot.busemann_coordinate(pts, s.dirs, model="lorentz"),
        ref.horo_coords,
        dim_offset=1,
    ),
    "ghsw-poincare": _dirs_kind(
        lambda x, y, s, a, b, p: msot.ghsw(
            x, y, s, p=p, x_weights=a, y_weights=b, model="poincare"
        ),
        "hyperbolic.coord",
        lambda pts, s: msot.geodesic_coordinate(pts, s.dirs, model="poincare"),
        lambda pts, arr: ref.geodesic_coords(ref.lorentz_from_poincare(pts), arr),
    ),
    "hhsw-poincare": _dirs_kind(
        lambda x, y, s, a, b, p: msot.hhsw(
            x, y, s, p=p, x_weights=a, y_weights=b, model="poincare"
        ),
        "hyperbolic.coord",
        lambda pts, s: -msot.busemann_coordinate(pts, s.dirs, model="poincare"),
        lambda pts, arr: ref.horo_coords(ref.lorentz_from_poincare(pts), arr),
    ),
    "spdsw": LineKind(
        sample_layer="spd.slices",
        sample=lambda d, L, seed: msot.sample_unit_symmetric(d, L, seed),
        array=lambda s: s,
        restrict=lambda s, idx: s[idx],
        call=lambda x, y, s, a, b, p: msot.spdsw(x, y, s, p=p, x_weights=a, y_weights=b),
        coords=_span_coords("spd.le_coord", msot.coordinate_le),
        own=ref.le_coords,
    ),
    "logsw": LineKind(
        sample_layer="sliced.directions",
        sample=lambda d, L, seed: spd.logsw_directions(d, L, seed),
        array=lambda s: s.dirs,
        restrict=_dirs_restrict,
        call=lambda x, y, s, a, b, p: spd.logsw(x, y, s, p=p, x_weights=a, y_weights=b),
        coords=_logsw_coords,
        own=lambda pts, arr: ref.log_vec(pts) @ arr.T,
    ),
}


def line_op(name, kind_name, x, y, a, b, n_slices, slice_seed, check_rng, p=2.0):
    """A balanced sliced distance whose 1D problems the benchmark re-solves.

    The check evaluates the op through msot on a seeded subset of its
    slices and compares it with the numpy reference on the same slices.
    """
    kind = LINE_KINDS[kind_name]
    dim = x.shape[1]
    idx = np.sort(check_rng.choice(n_slices, size=min(CHECK_SLICES, n_slices), replace=False))

    def run(rec):
        with rec.span(kind.sample_layer):
            slices = kind.sample(dim, n_slices, slice_seed)
        with rec.span(f"call.{name}"):
            value = kind.call(x, y, slices, a, b, p)
        return value, slices

    def check(out):
        value, slices = out
        problems = [] if value >= 0 else [f"negative value {value!r}"]
        got = kind.call(x, y, kind.restrict(slices, idx), a, b, p)
        sub = kind.array(slices)[idx]
        want = ref.sliced(kind.own(x, sub), a, kind.own(y, sub), b, p)
        if not ref.close(got, want):
            problems.append(f"{idx.size} checked slices give {got!r}, reference {want!r}")
        return problems

    def pieces(rec, out):
        value, slices = out
        cx = kind.coords(rec, x, slices)
        cy = kind.coords(rec, y, slices)
        L = cx.shape[1]
        with rec.span("measures.w1d", problems=L, breakpoints=L * (cx.shape[0] + cy.shape[0])):
            costs = msot.wasserstein_1d_batched(cx, cy, a, b, p=p)
        return ref.close(float(np.mean(costs)), value, rtol=1e-12)

    return Op(name, run, lambda out: finite(out[0]), check, pieces)


# ---------------------------------------------------------------------------
# balanced ops without a cheap independent reference
# ---------------------------------------------------------------------------


def hspdsw_op(x, y, n_slices, slice_seed):
    def run(rec):
        with rec.span("spd.slices"):
            slices = msot.sample_unit_symmetric(x.shape[1], n_slices, slice_seed)
        with rec.span("call.hspdsw"):
            value = msot.hspdsw(x, y, slices)
        return value, slices

    def pieces(rec, out):
        value, slices = out
        with rec.span("spd.ai_busemann", atoms=(x.shape[0] + y.shape[0]) * n_slices):
            bx = np.stack([-msot.busemann_ai(x, s) for s in slices], axis=1)
            by = np.stack([-msot.busemann_ai(y, s) for s in slices], axis=1)
        with rec.span("measures.w1d", problems=n_slices,
                      breakpoints=n_slices * (x.shape[0] + y.shape[0])):
            costs = msot.wasserstein_1d_batched(bx, by)
        return ref.close(float(np.mean(costs)), value, rtol=1e-12)

    def check(out):
        return [] if out[0] >= 0 else [f"negative value {out[0]!r}"]

    return Op("hspdsw", run, lambda out: finite(out[0]), check, pieces, stored=True)


def ssw_op(name, x, y, n_slices, slice_seed, p):
    """SSW_p^p (y given) or SSW_2^2 against the uniform measure (y None)."""
    upper = 1.0 / 12.0 if y is None else 0.5**p

    def run(rec):
        with rec.span("sphere.frames"):
            frames = msot.sample_stiefel(x.shape[1], n_slices, slice_seed)
        with rec.span(f"call.{name}"):
            if y is None:
                value = msot.ssw2_vs_uniform(x, frames)
            else:
                value = msot.ssw(x, y, frames, p=p, eps=CIRCLE_EPS)
        return value, frames

    def pieces(rec, out):
        value, frames = out
        clouds = (x,) if y is None else (x, y)
        with rec.span("sphere.project", calls=len(clouds) * n_slices):
            angles = [[msot.project_circle(c, f) for f in frames] for c in clouds]
        iters = 0 if (y is None or p == 1) else math.ceil(math.log2(2.0 / CIRCLE_EPS))
        total = 0.0
        with rec.span("measures.circle", problems=n_slices, bisect=n_slices * iters):
            for k in range(n_slices):
                mu = msot.build_circle_profile(angles[0][k])
                if y is None:
                    total += msot.circle_w2_vs_uniform(mu)
                    continue
                nu = msot.build_circle_profile(angles[1][k])
                if p == 1:
                    total += msot.circle_w1_level_median(mu, nu)
                else:
                    total += msot.circle_wp_binary_search(mu, nu, p=p, eps=CIRCLE_EPS)
        return ref.close(total / n_slices, value, rtol=1e-12)

    def check(out):
        value = out[0]
        return [] if 0.0 <= value <= upper else [f"value {value!r} outside [0, {upper}]"]

    return Op(name, run, lambda out: finite(out[0]), check, pieces, stored=True)


def slices_balanced(seed, small, workdir):
    rng = np.random.default_rng([seed, 1])
    check_rng = np.random.default_rng([seed, 2])
    base = 1000 * seed
    n, L = (200, 50) if small else (2000, 500)
    x = rng.standard_normal((n, 10))
    y = rng.standard_normal((n, 10)) * 1.2 + 0.3
    a, b = _weights(rng, n), _weights(rng, n)
    nh, Lh = (100, 50) if small else (1000, 500)
    hx = _lorentz(rng, nh, 5, 0.5, 0.0)
    hy = _lorentz(rng, nh, 5, 0.4, 0.3)
    ns, Ls = (20, 10) if small else (200, 100)
    sx, sy = _spd(rng, ns, 3, 1.0), _spd(rng, ns, 3, 1.3)
    nc, Lc = (50, 10) if small else (500, 200)
    cx, cy = _sphere(rng, nc, 3, 0.0), _sphere(rng, nc, 3, 1.0)
    px, py = _poincare(hx), _poincare(hy)
    # small clouds expose fixed per-call costs next to the large ones
    nm, Lm = (50, 10) if small else (200, 50)
    ops = [
        line_op("sw_p.uniform", "sw", x, y, None, None, L, base + 1, check_rng),
        line_op("sw_p.weighted", "sw", x, y, a, b, L, base + 2, check_rng),
        line_op("sw_p.uniform.small", "sw", x[:nm], y[:nm], None, None, Lm, base + 8, check_rng),
        line_op("sw_p.weighted.small", "sw", x[:nm], y[:nm], a[:nm] / a[:nm].sum(),
                b[:nm] / b[:nm].sum(), Lm, base + 9, check_rng),
        line_op("ghsw.lorentz", "ghsw", hx, hy, None, None, Lh, base + 3, check_rng),
        line_op("hhsw.lorentz", "hhsw", hx, hy, None, None, Lh, base + 4, check_rng),
        line_op("ghsw.poincare", "ghsw-poincare", px, py, None, None, Lh, base + 3, check_rng),
        line_op("hhsw.poincare", "hhsw-poincare", px, py, None, None, Lh, base + 4, check_rng),
        line_op("spdsw", "spdsw", sx, sy, None, None, Ls, base + 5, check_rng),
        line_op("spdsw.weighted", "spdsw", sx, sy, _weights(rng, ns), _weights(rng, ns),
                Ls, base + 10, check_rng),
        line_op("logsw", "logsw", sx, sy, None, None, Ls, base + 6, check_rng),
        hspdsw_op(sx, sy, Ls, base + 5),
        ssw_op("ssw.p2", cx, cy, Lc, base + 7, 2.0),
        ssw_op("ssw.p1", cx, cy, Lc, base + 7, 1.0),
        ssw_op("ssw2_vs_uniform", cx, None, Lc, base + 7, 2.0),
    ]
    _pair_lorentz_poincare(ops)
    return Workload("slices-balanced", ops, warmup="sw_p.uniform")


def _pair_lorentz_poincare(ops):
    """ghsw/hhsw on Poincare inputs must agree with the same Lorentz cloud."""
    by_name = {op.name: op for op in ops}
    for kind in ("ghsw", "hhsw"):
        lorentz, poincare = by_name[f"{kind}.lorentz"], by_name[f"{kind}.poincare"]

        def check(out, lorentz=lorentz, own_check=poincare.check):
            problems = own_check(out)
            other = lorentz.run(NULL)[0]
            if not ref.close(out[0], other, rtol=1e-8):
                problems.append(f"Poincare value {out[0]!r} != Lorentz value {other!r}")
            return problems

        poincare.check = check


# ---------------------------------------------------------------------------
# unbalanced-flow
# ---------------------------------------------------------------------------


def unbalanced_op(name, solver, x, y, make_slicer, slicer_layer, n_slices, fw_rounds):
    # eps=0 disables the early stop on a small dual increase, so every op
    # does exactly ``fw_rounds`` rounds whatever the seed
    params = msot.UnbalancedParams(rho1=1.0, rho2=1.0, n_iters=fw_rounds, eps=0.0)
    atoms = x.shape[0] + y.shape[0]

    def run(rec):
        with rec.span(slicer_layer):
            slicer = make_slicer()
        with rec.span("unbalanced.solve") as span:
            result = solver(x, y, slicer, params)
            rounds = len(result[-1])
            span.update(rounds=rounds, calls=rounds * n_slices,
                        oracle_atoms=rounds * n_slices * atoms)
        return result

    def check(result):
        value, pots, history = result[0], result[1], result[-1]
        problems = []
        if not _all_finite(pots.f, pots.g, history):
            problems.append("non-finite potentials or history")
        elif value != np.max(history):
            problems.append(f"value {value!r} is not the best dual value {np.max(history)!r}")
        if len(result) == 4:
            m = result[2]
            if not (_all_finite(m.source, m.target) and np.all(m.source >= 0) and np.all(m.target >= 0)):
                problems.append("marginals not finite and non-negative")
        return problems

    return Op(name, run, lambda r: finite(r[0]), check, stored=True)


def flow_op(name, layer, counts, call, n_records):
    def run(rec):
        with rec.span(layer, **counts):
            return call()

    def check(trace):
        records = trace.records
        values = [r.energy for r in records] + [
            v for r in records for v in (r.objective, r.residual_grad) if v is not None
        ]
        problems = [] if len(records) == n_records else [f"{len(records)} records, expected {n_records}"]
        if not _all_finite(values):
            problems.append("non-finite energy, objective or residual")
        return problems

    def pieces(rec, trace):
        with rec.span("flows.trace_emit"):
            text = trace.to_jsonl()
        return np.array_equal(msot.FlowTrace.from_jsonl(text).energies, trace.energies)

    return Op(name, run, lambda t: finite(t.records[-1].energy), check, pieces, stored=True,
              rerun=False)


def grid_gradient_op(name, grid, target, n_slices, slice_seed):
    def run(rec):
        with rec.span("sliced.directions"):
            dirs = msot.sample_directions(2, n_slices, slice_seed)
        functional = msot.SwToTargetFunctional(target, dirs)
        with rec.span("flows.grid_weight_grad"):
            return functional.grid_gradient(grid)

    def digest(grad):
        # the potentials carry an additive gauge per slice: compare the
        # centred gradient, which the simplex projection actually uses
        return finite(np.linalg.norm(grad - np.mean(grad)))

    def check(grad):
        ok = grad.shape == (grid.nodes.shape[0],) and _all_finite(grad)
        return [] if ok else ["gradient not a finite vector over the nodes"]

    return Op(name, run, digest, check, stored=True)


def unbalanced_flow(seed, small, workdir):
    rng = np.random.default_rng([seed, 3])
    base = 1000 * seed
    fw = 3 if small else 10
    ops = []
    sizes = ((30, 10), (60, 20)) if small else ((100, 30), (300, 100))
    for tag, (n, L), pairs in (("small", sizes[0], 3), ("large", sizes[1], 1)):
        for k in range(pairs):
            x = rng.standard_normal((n, 2))
            y = rng.standard_normal((n, 2)) * 0.8 + 1.0
            seed_k = base + 10 * k + (1 if tag == "small" else 5)

            def make(L=L, s=seed_k):
                return msot.EuclideanSlicer(msot.sample_directions(2, L, s))

            for solver, label in ((msot.usw, "usw"), (msot.suot, "suot")):
                ops.append(unbalanced_op(f"{label}.euclidean.{tag}.{k}", solver, x, y,
                                         make, "sliced.directions", L, fw))
    n, L = (20, 10) if small else (100, 50)
    sx, sy = _spd(rng, n, 3, 1.0), _spd(rng, n, 3, 1.3)
    ops.append(unbalanced_op(
        "usw.spd", msot.usw, sx, sy,
        lambda: msot.SpdSlicer(msot.sample_unit_symmetric(3, L, base + 50)), "spd.slices", L, fw))
    hx, hy = _lorentz(rng, n, 5, 0.5, 0.0), _lorentz(rng, n, 5, 0.4, 0.3)
    ops.append(unbalanced_op(
        "usw.hyperbolic", msot.usw, hx, hy,
        lambda: msot.HyperbolicSlicer(msot.sample_directions(5, L, base + 60)),
        "sliced.directions", L, fw))

    sides = (5, 6) if small else (12, 20)
    inner = flows.InnerOptimizer(learning_rate=0.002, n_steps=3 if small else 20)
    fokker_planck = msot.SumFunctional(
        [flows.quadratic_potential(np.zeros(2)), msot.EntropyFunctional()]
    )
    target = rng.standard_normal((30 if small else 150, 2)) * 0.7
    for side in sides:
        grid = _grid(side, rng.uniform(-0.5, 0.5, size=2))
        ops.append(grid_gradient_op(f"grid_gradient.{side}x{side}", grid, target,
                                    10 if small else 50, base + 70 + side))
        ops.append(flow_op(
            f"swjko_grid.{side}x{side}", "flows.jko_grid", {"steps": 1, "inner": inner.n_steps},
            lambda grid=grid, s=base + 80 + side: msot.swjko_grid(
                grid, fokker_planck, tau=0.3, n_steps=1, inner=inner,
                n_projections=10 if small else 30, seed=s),
            2))
    n_e, steps_e = (30, 2) if small else (300, 10)
    for k in range(2):
        cloud = rng.standard_normal((n_e, 2)) * 0.3
        ops.append(flow_op(
            f"euler_particles.interaction.{k}", "flows.euler", {"steps": steps_e},
            lambda cloud=cloud: msot.euler_particles(
                cloud, msot.InteractionFunctional(), step_size=0.05, n_steps=steps_e),
            steps_e + 1))
    n_j, steps_j = (20, 1) if small else (200, 2)
    cloud = rng.standard_normal((n_j, 2))
    ops.append(flow_op(
        "swjko_particles.potential", "flows.jko_particles", {"steps": steps_j},
        lambda: msot.swjko_particles(
            cloud, flows.quadratic_potential(np.zeros(2)), tau=0.1, n_steps=steps_j,
            n_projections=10 if small else 50, seed=base + 90),
        steps_j + 1))
    return Workload("unbalanced-flow", ops, warmup="usw.euclidean.small.0")


# ---------------------------------------------------------------------------
# cli-batch
# ---------------------------------------------------------------------------


def _write_csv(path, data, header, weights=None):
    if weights is not None:
        data = np.column_stack([data, weights])
        header = header + ["weight"]
    np.savetxt(path, data, delimiter=",", header=",".join(header), comments="", fmt="%.17g")
    return str(path)


def _coord_header(d, prefix="x"):
    return [f"{prefix}{k}" for k in range(d)]


def _spd_csv(path, mats):
    d = mats.shape[1]
    data = np.column_stack([np.full(mats.shape[0], d), mats.reshape(mats.shape[0], -1)])
    return _write_csv(path, data, ["dim"] + [f"m{k}" for k in range(d * d)])


def _payload(path):
    return ref.strict_json(Path(path).read_text())


def _run_config(argv):
    args = cli.build_parser().parse_args(argv)
    names = [f.name for f in dataclasses.fields(cli.RunConfig)]
    return cli.RunConfig(**{k: getattr(args, k) for k in names})


def cli_op(name, argv, out_path, digest, check, reproduce, pairs=0):
    """One ``msot`` invocation through ``msot.cli.main`` with ``--out``.

    ``reproduce(rec, cfg)`` re-runs the command through ingest and compute
    calls and returns what the output file should contain.
    """
    argv = list(argv) + ["--out", out_path]
    span = "cli.main.pairwise" if pairs else "cli.main"

    def run(rec):
        with rec.span(span, pairs=pairs):
            try:
                return cli.main(argv)
            except SystemExit as exc:  # argparse rejecting argv is a failed op
                return exc.code if isinstance(exc.code, int) else int(exc.code is not None)

    def checked_digest(code):
        if code != 0:
            raise RuntimeError(f"msot exited with code {code}")
        return finite(digest(out_path))

    def pieces(rec, code):
        return reproduce(rec, _run_config(argv), out_path)

    return Op(name, run, checked_digest, lambda code: check(out_path), pieces)


def _ingest(rec, path, geometry):
    with rec.span("cli.ingest") as span:
        data = cli.load_dataset(path, geometry)
        span["rows"] = data.atoms.shape[0]
    return data


def _dist_op(name, kind, geometry, paths, extra, library_value=None, stored=False):
    """``msot dist``; the check compares with the library call on the arrays."""

    def check(out):
        payload = _payload(out)
        if library_value is None:
            ok = _all_finite(payload["value"])
            return [] if ok else ["non-finite value"]
        want = library_value()
        got = payload["value"]
        return [] if ref.close(got, want, rtol=1e-12) else [f"CLI {got!r} != library {want!r}"]

    def reproduce(rec, cfg, out):
        mu, nu = (_ingest(rec, p, geometry) for p in paths)
        with rec.span("cli.compute"):
            value, _ = cli.compute_distance(kind, mu, nu, cfg)
        return ref.close(value, _payload(out)["value"], rtol=1e-12)

    argv = ["dist", kind, *paths, "--geometry", geometry, *extra]
    op = cli_op(name, argv, paths[0] + f".{name}.json",
                lambda out: _payload(out)["value"], check, reproduce, pairs=1)
    op.stored = stored
    return op


def cli_batch(seed, small, workdir):
    rng = np.random.default_rng([seed, 4])
    check_rng = np.random.default_rng([seed, 5])
    d = Path(workdir)
    slice_seed = 1000 * seed + 7
    seed_args = ["--seed", str(slice_seed)]
    ops = []

    # two pairwise matrices, k files each, sharing slices within a matrix
    k, n_m, proj_m = (3, 50, 20) if small else (8, 1000, 200)
    for set_id in range(2):
        clouds = [rng.standard_normal((n_m, 10)) + 0.1 * j for j in range(k)]
        paths = [_write_csv(d / f"matrix{set_id}_{j}.csv", c, _coord_header(10))
                 for j, c in enumerate(clouds)]
        ops.append(_matrix_op(f"matrix.sw.{set_id}", paths, clouds, proj_m, seed_args, check_rng))

    n, proj = (100, 20) if small else (2000, 200)
    x, y = rng.standard_normal((n, 10)), rng.standard_normal((n, 10)) * 1.1 + 0.2
    a, b = _weights(rng, n), _weights(rng, n)
    paths = [_write_csv(d / "sw_a.csv", x, _coord_header(10), a),
             _write_csv(d / "sw_b.csv", y, _coord_header(10), b)]
    ops.append(_dist_op(
        "dist.sw.weighted", "sw", "euclidean", paths, ["--projections", str(proj), *seed_args],
        lambda: msot.sw_p(x, y, msot.sample_directions(10, proj, slice_seed),
                          x_weights=a, y_weights=b)))

    hx, hy = _lorentz(rng, n, 5, 0.5, 0.0), _lorentz(rng, n, 5, 0.4, 0.3)
    paths = [_write_csv(d / "h_a.csv", hx, _coord_header(6)),
             _write_csv(d / "h_b.csv", hy, _coord_header(6))]
    ops.append(_dist_op(
        "dist.ghsw.lorentz", "ghsw", "lorentz", paths, ["--projections", str(proj), *seed_args],
        lambda: msot.ghsw(hx, hy, msot.sample_directions(5, proj, slice_seed))))

    for name, kind, n_s, proj_s in (("dist.spdsw", "spdsw", 30 if small else 500, 20 if small else 200),
                                    ("dist.hspdsw", "hspdsw", 10 if small else 50, 5 if small else 20)):
        sx, sy = _spd(rng, n_s, 3, 1.0), _spd(rng, n_s, 3, 1.3)
        paths = [_spd_csv(d / f"{kind}_a.csv", sx), _spd_csv(d / f"{kind}_b.csv", sy)]
        fn = msot.spdsw if kind == "spdsw" else msot.hspdsw
        ops.append(_dist_op(
            name, kind, "spd", paths, ["--projections", str(proj_s), *seed_args],
            lambda fn=fn, sx=sx, sy=sy, p=proj_s: fn(sx, sy, msot.sample_unit_symmetric(3, p, slice_seed))))

    n_c, proj_c = (30, 5) if small else (200, 50)
    cx, cy = _sphere(rng, n_c, 3, 0.0), _sphere(rng, n_c, 3, 1.0)
    paths = [_write_csv(d / "s_a.csv", cx, _coord_header(3)),
             _write_csv(d / "s_b.csv", cy, _coord_header(3))]
    ops.append(_dist_op(
        "dist.ssw", "ssw", "sphere", paths, ["--projections", str(proj_c), *seed_args],
        lambda: msot.ssw(cx, cy, msot.sample_stiefel(3, proj_c, slice_seed), eps=CIRCLE_EPS)))

    n_u, proj_u, fw = (20, 5, 3) if small else (100, 30, 10)
    ux, uy = rng.standard_normal((n_u, 2)), rng.standard_normal((n_u, 2)) * 0.8 + 1.0
    paths = [_write_csv(d / "u_a.csv", ux, _coord_header(2)),
             _write_csv(d / "u_b.csv", uy, _coord_header(2))]
    ops.append(_dist_op(
        "dist.usw", "usw", "euclidean", paths,
        ["--projections", str(proj_u), "--fw-iters", str(fw), *seed_args], stored=True))

    ops.append(_pca_op(d, rng, 20 if small else 500))
    ops.append(_gw_op(d, rng, (20, 15) if small else (300, 250)))
    ops.append(_flow_op(d, rng, (20, 3) if small else (100, 10)))
    return Workload("cli-batch", ops, warmup="dist.usw")


def _matrix_op(name, paths, clouds, proj, seed_args, check_rng):
    k = len(paths)
    out_path = paths[0] + ".matrix.json"
    slice_seed = int(seed_args[1])
    i, j = np.triu_indices(k, 1)
    pick = check_rng.choice(i.size, size=min(3, i.size), replace=False)

    def digest(out):
        return float(np.sum(_payload(out)["values"]))

    def check(out):
        vals = np.array(_payload(out)["values"], dtype=float)
        problems = []
        if vals.shape != (k, k) or not np.array_equal(vals, vals.T) or np.any(np.diag(vals) != 0):
            return ["matrix not square, symmetric with a zero diagonal"]
        dirs = msot.sample_directions(clouds[0].shape[1], proj, slice_seed)
        for t in pick:
            want = msot.sw_p(clouds[i[t]], clouds[j[t]], dirs)
            if not ref.close(vals[i[t], j[t]], want, rtol=1e-12):
                problems.append(f"entry ({i[t]}, {j[t]}) {vals[i[t], j[t]]!r} != library {want!r}")
        return problems

    def reproduce(rec, cfg, out):
        data = [_ingest(rec, p, "euclidean") for p in paths]
        vals = np.zeros((k, k))
        with rec.span("cli.compute"):
            for a_, b_ in zip(i, j):
                vals[a_, b_], _ = cli.compute_distance("sw", data[a_], data[b_], cfg)
        return np.allclose(vals + vals.T, _payload(out)["values"], rtol=1e-12, atol=0)

    argv = ["matrix", "sw", *paths, "--projections", str(proj), *seed_args]
    return cli_op(name, argv, out_path, digest, check, reproduce, pairs=int(i.size))


def _pca_op(d, rng, n):
    rows = np.column_stack([rng.normal(0.0, 1.0, n), rng.uniform(0.5, 2.0, n)])
    path = _write_csv(d / "gauss.csv", rows, ["mean", "sigma"])
    out_path = path + ".pca.json"

    def digest(out):
        payload = _payload(out)
        return float(np.sum(payload["scores"])) + sum(
            sum(c.values()) for c in payload["components"])

    def check(out):
        _, _, want = msot.gaussian_pca_1d(rows)
        got = np.array(_payload(out)["scores"])
        ok = got.shape == want.shape and np.allclose(got, want, rtol=1e-12, atol=1e-14)
        return [] if ok else ["CLI scores differ from the library PCA"]

    def reproduce(rec, cfg, out):
        data = _ingest(rec, path, "gaussian1d")
        with rec.span("busemann.pca"):
            _, _, scores = msot.gaussian_pca_1d(data.atoms)
        return np.allclose(scores, _payload(out)["scores"], rtol=1e-12, atol=1e-14)

    return cli_op("pca", ["pca", path], out_path, digest, check, reproduce)


def _gw_op(d, rng, sizes):
    xs = rng.standard_normal((sizes[0], 1))
    ys = rng.standard_normal((sizes[1], 1)) * 1.5
    a, b = _weights(rng, sizes[0]), _weights(rng, sizes[1])
    paths = [_write_csv(d / "gw_a.csv", xs, ["x"], a), _write_csv(d / "gw_b.csv", ys, ["y"], b)]
    out_path = paths[0] + ".gw.json"

    def gw1d(x, wx, y, wy):
        ox, oy = np.argsort(x[:, 0], kind="stable"), np.argsort(y[:, 0], kind="stable")
        return msot.gw1d_inner(x[ox, 0], wx[ox], y[oy, 0], wy[oy])[1]

    def check(out):
        payload = _payload(out)
        plan = np.array(payload["plan"])
        problems = []
        if not (np.allclose(plan.sum(axis=1), a, atol=1e-12) and np.allclose(plan.sum(axis=0), b, atol=1e-12)):
            problems.append("plan marginals differ from the input weights")
        want = gw1d(xs, a, ys, b)
        if not ref.close(payload["value"], want, rtol=1e-12):
            problems.append(f"CLI {payload['value']!r} != library {want!r}")
        return problems

    def reproduce(rec, cfg, out):
        mu, nu = (_ingest(rec, p, "euclidean") for p in paths)
        with rec.span("gw.gw1d"):
            value = gw1d(mu.atoms, mu.weights, nu.atoms, nu.weights)
        return ref.close(value, _payload(out)["value"], rtol=1e-12)

    return cli_op("gw.gw1d", ["gw", "gw1d", *paths], out_path,
                  lambda out: _payload(out)["value"], check, reproduce)


def _flow_op(d, rng, sizes):
    n, steps = sizes
    cloud = rng.standard_normal((n, 2)) * 0.3
    path = _write_csv(d / "flow.csv", cloud, _coord_header(2))
    out_path = path + ".jsonl"
    tau = 0.05

    def lines(out):
        return [ref.strict_json(line) for line in Path(out).read_text().splitlines()]

    def check(out):
        records = lines(out)
        want = msot.euler_particles(cloud, msot.InteractionFunctional(), step_size=tau,
                                    n_steps=steps, record_positions=True).energies
        got = np.array([r["energy"] for r in records])
        ok = got.shape == want.shape and np.allclose(got, want, rtol=1e-12, atol=0)
        return [] if ok else ["CLI flow energies differ from the library flow"]

    def reproduce(rec, cfg, out):
        data = _ingest(rec, path, "euclidean")
        with rec.span("flows.euler.cli", steps=steps):
            trace = msot.euler_particles(data.atoms, msot.InteractionFunctional(),
                                         step_size=cfg.tau, n_steps=cfg.steps,
                                         record_positions=True)
        with rec.span("flows.trace_emit"):
            text = trace.to_jsonl()
        return text == Path(out).read_text()

    argv = ["flow", "euler", path, "--functional", "interaction", "--tau", str(tau),
            "--steps", str(steps), "--record-positions"]
    return cli_op("flow.euler", argv, out_path, lambda out: lines(out)[-1]["energy"],
                  check, reproduce)


BUILDERS = {
    "slices-balanced": slices_balanced,
    "unbalanced-flow": unbalanced_flow,
    "cli-batch": cli_batch,
}


def build(name, seed, small, root):
    """Generate the workload's inputs (and CSV files) in a fresh directory."""
    tmpdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=root))
    try:
        workload = BUILDERS[name](seed, small, tmpdir)
    except BaseException:
        shutil.rmtree(tmpdir, ignore_errors=True)
        raise
    workload.tmpdir = tmpdir
    return workload

"""Batch front door: dataset ingestion and the dist/flow/pca/matrix/gw
subcommands, with deterministic seeded runs and machine-readable outputs.

Every run is reproducible from the input files and the flag set: outputs
are JSON (JSONL for flow traces) with a config echo, numerically identical
across reruns except for the wallclock field.
"""

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import busemann, flows, gw, hyperbolic, sliced, spd, sphere, unbalanced
from .errors import InvalidInput

GEOMETRIES = ("euclidean", "lorentz", "poincare", "spd", "sphere", "circle", "gaussian1d")


@dataclass(frozen=True)
class Dataset:
    geometry: str
    atoms: np.ndarray
    weights: np.ndarray
    path: str


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    projections: int = 200
    p: float = 2.0
    rho1: float = 1.0
    rho2: float = 1.0
    tau: float = 0.1
    steps: int = 100
    eps: float = 1e-6
    fw_iters: int = 20

    def echo(self):
        return asdict(self)


def _read_rows(path):
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    if len(rows) < 2:
        raise InvalidInput(f"{path}: need a header row and at least one atom")
    return [cell.strip() for cell in rows[0]], rows[1:]


def _parse_float(cell, path, row_num):
    try:
        value = float(cell)
    except ValueError as exc:
        raise InvalidInput(f"{path}: row {row_num}: malformed number {cell!r}") from exc
    if not math.isfinite(value):
        raise InvalidInput(f"{path}: row {row_num}: non-finite number {cell!r}")
    return value


def load_dataset(path, geometry):
    """Load a CSV dataset and validate its atoms against the geometry.

    One atom per row; a header row is required; a trailing ``weight``
    column is optional (uniform weights otherwise).  SPD atoms carry a
    leading ``dim`` column followed by the d*d row-major entries.
    """
    if geometry not in GEOMETRIES:
        raise InvalidInput(f"unknown geometry {geometry!r}")
    header, rows = _read_rows(path)
    has_weight = header[-1].lower() == "weight"
    value_cols = len(header) - (1 if has_weight else 0)
    atoms, weights = [], []
    for k, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise InvalidInput(
                f"{path}: row {k}: expected {len(header)} cells, got {len(row)}"
            )
        values = [_parse_float(c, path, k) for c in row[:value_cols]]
        if has_weight:
            w = _parse_float(row[-1], path, k)
            if w < 0:
                raise InvalidInput(f"{path}: row {k}: negative weight")
            weights.append(w)
        atoms.append(values)
    data = np.array(atoms, dtype=float)
    w = np.array(weights) if has_weight else np.full(len(data), 1.0 / len(data))
    atoms = _validate_atoms(data, geometry, path, header)
    return Dataset(geometry=geometry, atoms=atoms, weights=w, path=path)


def _validate_atoms(data, geometry, path, header):
    for k in range(data.shape[0]):
        row_num = k + 2
        row = data[k]
        try:
            if geometry == "lorentz":
                hyperbolic.validate_lorentz(row)
            elif geometry == "poincare":
                hyperbolic.validate_poincare(row)
            elif geometry == "sphere":
                if abs(np.linalg.norm(row) - 1.0) > 1e-6:
                    raise InvalidInput("not on the unit sphere")
            elif geometry == "circle":
                if row.size != 1 or not 0.0 <= row[0] < 1.0:
                    raise InvalidInput("circle atoms are single angles in [0, 1)")
            elif geometry == "gaussian1d":
                if row.size != 2 or row[1] <= 0:
                    raise InvalidInput("gaussian1d rows are (mean, sigma>0)")
        except (InvalidInput, ValueError) as exc:
            raise InvalidInput(f"{path}: row {row_num}: {exc}") from exc
    if geometry == "spd":
        if header[0].lower() != "dim":
            raise InvalidInput(f"{path}: SPD files need a leading 'dim' column")
        d = int(data[0, 0])
        if np.any(data[:, 0] != d):
            raise InvalidInput(f"{path}: inconsistent 'dim' entries")
        if data.shape[1] - 1 != d * d:
            raise InvalidInput(
                f"{path}: expected {d * d} matrix entries per row for dim {d}"
            )
        mats = data[:, 1:].reshape(-1, d, d)
        for k, mat in enumerate(mats, start=2):
            if np.max(np.abs(mat - mat.T)) > spd.SYM_ATOL:
                raise InvalidInput(f"{path}: row {k}: matrix not symmetric")
            vals = np.linalg.eigvalsh((mat + mat.T) / 2.0)
            if np.min(vals) <= spd.EIG_FLOOR:
                raise InvalidInput(f"{path}: row {k}: matrix not positive definite")
        return mats
    return data


def _slicer(mu, cfg, kind):
    """Seeded slicer of the dataset's geometry (``kind`` is ignored on R^d)."""
    d = mu.atoms.shape[1]
    if mu.geometry == "euclidean":
        return sliced.EuclideanSlicer(
            sliced.sample_directions(d, cfg.projections, cfg.seed)
        )
    if mu.geometry == "spd":
        slices = spd.sample_unit_symmetric(d, cfg.projections, cfg.seed)
        return spd.SpdSlicer(slices, kind=kind)
    # hyperboloid atoms carry one more coordinate than the ball
    d -= 1 if mu.geometry == "lorentz" else 0
    dirs = sliced.sample_directions(d, cfg.projections, cfg.seed)
    return hyperbolic.HyperbolicSlicer(dirs, model=mu.geometry, kind=kind)


def _line(kind):
    def run(mu, nu, cfg):
        slicer = _slicer(mu, cfg, kind)
        return sliced.sliced_cost(
            slicer, mu.atoms, nu.atoms, cfg.p, mu.weights, nu.weights
        ), {}

    return run


def _logsw(mu, nu, cfg):
    dirs = spd.logsw_directions(mu.atoms.shape[1], cfg.projections, cfg.seed)
    return spd.logsw(mu.atoms, nu.atoms, dirs, cfg.p, mu.weights, nu.weights), {}


def _ssw(mu, nu, cfg):
    frames = sphere.sample_stiefel(mu.atoms.shape[1], cfg.projections, cfg.seed)
    value = sphere.ssw(
        mu.atoms, nu.atoms, frames, cfg.p, mu.weights, nu.weights, eps=cfg.eps
    )
    return value, {}


def _unbalanced_params(cfg):
    return unbalanced.UnbalancedParams(
        rho1=cfg.rho1, rho2=cfg.rho2, p=cfg.p, n_iters=cfg.fw_iters
    )


def _dual_extras(marginals, pots, history):
    return {
        "marginals": {
            "source": marginals.source.tolist(),
            "target": marginals.target.tolist(),
        },
        "dual_summary": {
            "f_mean": float(np.mean(pots.f)),
            "f_min": float(np.min(pots.f)),
            "f_max": float(np.max(pots.f)),
            "g_mean": float(np.mean(pots.g)),
            "g_min": float(np.min(pots.g)),
            "g_max": float(np.max(pots.g)),
            "rounds": int(history.size),
            "history_tail": [float(v) for v in history[-3:]],
        },
    }


def _suot(mu, nu, cfg):
    value, pots, history = unbalanced.suot(
        mu.atoms, nu.atoms, _slicer(mu, cfg, "geodesic"), _unbalanced_params(cfg),
        x_weights=mu.weights, y_weights=nu.weights,
    )
    # marginals of the slice-averaged dual pair
    mean_pots = unbalanced.DualPotentials(
        f=np.mean(pots.f, axis=0), g=np.mean(pots.g, axis=0)
    )
    marginals = unbalanced.norm_reweight(
        mu.weights, nu.weights, mean_pots, cfg.rho1, cfg.rho2
    )
    return value, _dual_extras(marginals, pots, history)


def _usw(mu, nu, cfg):
    value, pots, marginals, history = unbalanced.usw(
        mu.atoms, nu.atoms, _slicer(mu, cfg, "geodesic"), _unbalanced_params(cfg),
        x_weights=mu.weights, y_weights=nu.weights,
    )
    return value, _dual_extras(marginals, pots, history)


def _gw1d_sorted(mu, nu):
    """gw1d on sorted atoms: ``(plan, value, order_x, order_y)``."""
    if mu.atoms.shape[1] != 1:
        raise InvalidInput("gw1d needs one-dimensional atoms")
    order_x = np.argsort(mu.atoms[:, 0], kind="stable")
    order_y = np.argsort(nu.atoms[:, 0], kind="stable")
    plan, value = gw.gw1d_inner(
        mu.atoms[order_x, 0],
        mu.weights[order_x],
        nu.atoms[order_y, 0],
        nu.weights[order_y],
    )
    return plan, value, order_x, order_y


def _gw1d_plan(mu, nu, cfg):
    """gw1d with the plan put back in input order."""
    plan, value, order_x, order_y = _gw1d_sorted(mu, nu)
    unsorted_plan = np.zeros_like(plan)
    unsorted_plan[np.ix_(order_x, order_y)] = plan
    return unsorted_plan, value


def _hw_plan(mu, nu, cfg):
    return gw.hw_solve(
        mu.atoms, nu.atoms, a=mu.weights, b=nu.weights, n_iters=cfg.steps
    )


GW_PLANS = {"gw1d": _gw1d_plan, "hw": _hw_plan}


def _gw1d(mu, nu, cfg):
    # the support size does not depend on the order of the atoms
    plan, value, _, _ = _gw1d_sorted(mu, nu)
    return value, {"plan_support_size": int(np.count_nonzero(plan))}


def _hw(mu, nu, cfg):
    plan, value = _hw_plan(mu, nu, cfg)
    return value, {"plan_support_size": int(np.count_nonzero(plan > 1e-14))}


_HYPERBOLIC = ("lorentz", "poincare")
_SLICED = ("euclidean", *_HYPERBOLIC, "spd")

# distance name -> (accepted geometries, run(mu, nu, cfg) -> (value, extras))
DISTANCES = {
    "sw": (("euclidean",), _line("geodesic")),
    "ghsw": (_HYPERBOLIC, _line("geodesic")),
    "hhsw": (_HYPERBOLIC, _line("horospherical")),
    "spdsw": (("spd",), _line("geodesic")),
    "hspdsw": (("spd",), _line("horospherical")),
    "logsw": (("spd",), _logsw),
    "ssw": (("sphere",), _ssw),
    "suot": (_SLICED, _suot),
    "usw": (_SLICED, _usw),
    "gw1d": (("euclidean",), _gw1d),
    "hw": (("euclidean",), _hw),
}


def compute_distance(cmd, mu, nu, cfg):
    """Dispatch one distance computation; returns (value, extras dict)."""
    if cmd not in DISTANCES:
        raise InvalidInput(f"unknown distance {cmd!r}")
    allowed, run = DISTANCES[cmd]
    if mu.geometry not in allowed:
        raise InvalidInput(
            f"distance {cmd!r} supports geometries {allowed}, got {mu.geometry!r}"
        )
    if mu.geometry != nu.geometry:
        raise InvalidInput("both datasets must share the geometry tag")
    value, extras = run(mu, nu, cfg)
    return float(value), extras


def _write(text, out):
    if out:
        with open(out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit(payload, out):
    # a NaN is a numerical failure (exit 3), never a JSON token on stdout
    _write(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n", out)


def run_dist(args, cfg):
    mu = load_dataset(args.source, args.geometry)
    nu = load_dataset(args.target, args.geometry)
    start = time.perf_counter()
    value, extras = compute_distance(args.name, mu, nu, cfg)
    payload = {
        "command": "dist",
        "distance": args.name,
        "value": value,
        "inputs": [args.source, args.target],
        "config": cfg.echo() | {"geometry": args.geometry},
        **extras,
        "wallclock_ms": (time.perf_counter() - start) * 1e3,
    }
    _emit(payload, args.out)


def run_matrix(args, cfg):
    datasets = [load_dataset(path, args.geometry) for path in args.inputs]
    start = time.perf_counter()
    k = len(datasets)
    values = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            # shared slices: the seeded samplers inside compute_distance are
            # identical across pairs by construction
            values[i, j], _ = compute_distance(args.name, datasets[i], datasets[j], cfg)
            values[j, i] = values[i, j]
    payload = {
        "command": "matrix",
        "distance": args.name,
        "values": values.tolist(),
        "inputs": list(args.inputs),
        "config": cfg.echo() | {"geometry": args.geometry},
        "wallclock_ms": (time.perf_counter() - start) * 1e3,
    }
    _emit(payload, args.out)


def _parse_vector(text):
    try:
        return np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError as exc:
        raise InvalidInput(f"malformed vector {text!r}") from exc


def _build_functional(args, data, cfg):
    kind = args.functional
    if kind == "interaction":
        return flows.InteractionFunctional(a=args.kernel_a, b=args.kernel_b)
    if kind == "potential":
        center = _parse_vector(args.potential_center)
        return flows.quadratic_potential(center, strength=args.potential_strength)
    if kind == "fokker-planck":
        center = _parse_vector(args.potential_center)
        return flows.SumFunctional(
            [
                flows.quadratic_potential(center, strength=args.potential_strength),
                flows.EntropyFunctional(),
            ]
        )
    if kind == "sw-target":
        if not args.target:
            raise InvalidInput("sw-target flows need --target")
        target = load_dataset(args.target, args.geometry)
        if args.geometry == "lorentz":
            d = data.atoms.shape[1] - 1
            dirs = sliced.sample_directions(d, cfg.projections, cfg.seed)
            return flows.GhswToTargetFunctional(target.atoms, dirs)
        dirs = sliced.sample_directions(data.atoms.shape[1], cfg.projections, cfg.seed)
        return flows.SwToTargetFunctional(
            target.atoms, dirs, target_weights=None
        )
    raise InvalidInput(f"unknown functional {kind!r}")


def run_flow(args, cfg):
    geometry = args.geometry
    if geometry not in ("euclidean", "lorentz"):
        raise InvalidInput("flows run on euclidean or lorentz geometry")
    if geometry == "lorentz" and args.scheme != "euler":
        raise InvalidInput("JKO schemes are Euclidean; use the euler scheme on lorentz")
    data = load_dataset(args.input, geometry)
    functional = _build_functional(args, data, cfg)
    inner = flows.InnerOptimizer(
        learning_rate=args.inner_lr, n_steps=args.inner_steps
    )
    if args.scheme == "euler":
        trace = flows.euler_particles(
            data.atoms,
            functional,
            step_size=cfg.tau,
            n_steps=cfg.steps,
            geometry=geometry,
            record_positions=args.record_positions,
        )
    elif args.scheme == "jko-particles":
        trace = flows.swjko_particles(
            data.atoms,
            functional,
            tau=cfg.tau,
            n_steps=cfg.steps,
            inner=inner,
            n_projections=cfg.projections,
            seed=cfg.seed,
            dilation=args.dilation,
            record_positions=args.record_positions,
        )
    else:
        if args.cell_volume is None:
            raise InvalidInput("jko-grid needs --cell-volume")
        grid = flows.GridState(
            nodes=data.atoms, rho=data.weights, cell_volume=args.cell_volume
        )
        trace = flows.swjko_grid(
            grid,
            functional,
            tau=cfg.tau,
            n_steps=cfg.steps,
            inner=inner,
            n_projections=cfg.projections,
            seed=cfg.seed,
            dilation=args.dilation,
            record_rho=args.record_positions,
        )
    _write(trace.to_jsonl(), args.out)


def run_pca(args, cfg):
    data = load_dataset(args.input, "gaussian1d")
    start = time.perf_counter()
    origin = None
    if args.origin:
        vec = _parse_vector(args.origin)
        origin = (float(vec[0]), float(vec[1]))
    ray1, ray2, scores = busemann.gaussian_pca_1d(data.atoms, origin=origin)
    payload = {
        "command": "pca",
        "components": [
            {"m0": ray.m0, "s0": ray.s0, "m1": ray.m1, "s1": ray.s1}
            for ray in (ray1, ray2)
        ],
        "scores": scores.tolist(),
        "inputs": [args.input],
        "config": cfg.echo(),
        "wallclock_ms": (time.perf_counter() - start) * 1e3,
    }
    _emit(payload, args.out)


def run_gw(args, cfg):
    mu = load_dataset(args.source, "euclidean")
    nu = load_dataset(args.target, "euclidean")
    start = time.perf_counter()
    plan, value = GW_PLANS[args.name](mu, nu, cfg)
    payload = {
        "command": "gw",
        "problem": args.name,
        "value": float(value),
        "plan": plan.tolist(),
        "inputs": [args.source, args.target],
        "config": cfg.echo(),
        "wallclock_ms": (time.perf_counter() - start) * 1e3,
    }
    _emit(payload, args.out)


def _add_common(parser):
    parser.add_argument("--geometry", default="euclidean", choices=GEOMETRIES)
    parser.add_argument("--p", type=float, default=2.0)
    parser.add_argument("--projections", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rho1", type=float, default=1.0)
    parser.add_argument("--rho2", type=float, default=1.0)
    parser.add_argument("--tau", type=float, default=0.1)
    parser.add_argument("--steps", type=int, default=100)
    parser.add_argument("--eps", type=float, default=1e-6)
    parser.add_argument("--fw-iters", type=int, default=20)
    parser.add_argument("--out", default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="msot",
        description="Sliced optimal transport on Euclidean space and manifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dist = sub.add_parser("dist", help="distance between two datasets")
    p_dist.add_argument("name", choices=DISTANCES)
    p_dist.add_argument("source")
    p_dist.add_argument("target")
    _add_common(p_dist)

    p_matrix = sub.add_parser("matrix", help="pairwise distance matrix")
    p_matrix.add_argument("name", choices=DISTANCES)
    p_matrix.add_argument("inputs", nargs="+")
    _add_common(p_matrix)

    p_flow = sub.add_parser("flow", help="gradient-flow schemes")
    p_flow.add_argument("scheme", choices=("euler", "jko-particles", "jko-grid"))
    p_flow.add_argument("input")
    p_flow.add_argument(
        "--functional",
        default="interaction",
        choices=("interaction", "potential", "fokker-planck", "sw-target"),
    )
    p_flow.add_argument("--target", default=None)
    p_flow.add_argument("--potential-center", default="0.0,0.0")
    p_flow.add_argument("--potential-strength", type=float, default=1.0)
    p_flow.add_argument("--kernel-a", type=float, default=4.0)
    p_flow.add_argument("--kernel-b", type=float, default=2.0)
    p_flow.add_argument("--inner-lr", type=float, default=0.05)
    p_flow.add_argument("--inner-steps", type=int, default=50)
    p_flow.add_argument("--cell-volume", type=float, default=None)
    p_flow.add_argument("--dilation", action="store_true")
    p_flow.add_argument("--record-positions", action="store_true")
    _add_common(p_flow)

    p_pca = sub.add_parser("pca", help="Busemann PCA of 1D Gaussians")
    p_pca.add_argument("input")
    p_pca.add_argument("--origin", default=None)
    _add_common(p_pca)

    p_gw = sub.add_parser("gw", help="Gromov-Wasserstein solvers with plans")
    p_gw.add_argument("name", choices=GW_PLANS)
    p_gw.add_argument("source")
    p_gw.add_argument("target")
    _add_common(p_gw)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)})
    runner = {
        "dist": run_dist,
        "matrix": run_matrix,
        "flow": run_flow,
        "pca": run_pca,
        "gw": run_gw,
    }[args.command]
    try:
        runner(args, cfg)
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

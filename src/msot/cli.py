"""Batch front door: dataset ingestion and the dist/flow/pca/matrix/gw
subcommands, with deterministic seeded runs and machine-readable outputs.

A CSV file is read once.  A plain one (ASCII, no quote or odd line break,
a non-blank header first) is parsed by numpy's C reader; any other file,
or one that reader refuses, by a row reader that names the first bad row.

Every run is reproducible from the input files and the flag set: outputs
are JSON (JSONL for flow traces) with a config echo, numerically identical
across reruns except for the wallclock field.
"""

import argparse
import csv
import io
import json
import math
import os
import re
import sys
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, fields
from functools import cache, partial
from itertools import chain, compress, islice

import numpy as np

from . import busemann, flows, gw, hyperbolic, sliced, spd, sphere, unbalanced
from .errors import InvalidAtom, InvalidInput


@dataclass(frozen=True)
class Dataset:
    geometry: str
    atoms: np.ndarray
    weights: np.ndarray


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


# where ``str.splitlines`` and ``str.split(",")`` part from ``csv.reader``:
# quotes, NUL (an error to ``csv`` before Python 3.11) and the line breaks
# that only ``splitlines`` knows (the non-ASCII ones fail ``str.isascii``)
_CSV_ONLY = '"\x00\v\f\x1c\x1d\x1e'


def _read_text(path):
    try:
        with open(path, newline="") as handle:
            return handle.read()
    except OSError as exc:
        raise InvalidInput(f"{path}: cannot read file: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise InvalidInput(f"{path}: not UTF-8 text (byte {exc.start})") from exc


def _read_rows(path, text, lines, plain):
    if plain:
        rows = [line.split(",") for line in lines]
    else:
        try:
            rows = list(csv.reader(io.StringIO(text, newline="")))
        except csv.Error as exc:
            raise InvalidInput(f"{path}: malformed CSV: {exc}") from exc
    # drop blank rows: those with no non-whitespace character in any cell
    rows = list(compress(rows, map(str.strip, map("".join, rows))))
    if len(rows) < 2:
        raise InvalidInput(f"{path}: need a header row and at least one atom")
    return [cell.strip() for cell in rows[0]], rows[1:]


def _clean(values, has_weight):
    """Whether every cell is finite and every weight non-negative."""
    return np.all(np.isfinite(values)) and not (
        has_weight and np.any(values[:, -1] < 0)
    )


def _c_reader_table(text, lines):
    """The header and the ``(n, width)`` values of a plain file, read by
    numpy's C reader, or None where the row reader must read the file: one
    it refuses or reads to another shape, one with no header first or no
    body line, or one with a non-finite cell or a negative weight.

    The C reader converts each cell with ``PyOS_string_to_double``, as
    ``float`` does, so its values are the row reader's bit for bit.  It
    skips the empty lines and refuses a whitespace-only one.
    """
    n = sum(map(bool, lines)) - 1
    # the C reader strips the unit separator as whitespace, ``float`` does not
    if n < 1 or "\x1f" in text:
        return None
    header = [cell.strip() for cell in lines[0].split(",")]
    if not any(header):
        return None
    try:
        values = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    has_weight = header[-1].lower() == "weight"
    if values.shape != (n, len(header)) or not _clean(values, has_weight):
        return None
    return header, values


def _first_bad_row(path, rows, width, has_weight):
    """Raise the error of the first offending row in file order; only called
    once a whole-file check has failed, since it walks the rows."""
    for k, row in enumerate(rows, start=2):
        at = f"{path}: row {k}"
        if len(row) != width:
            raise InvalidInput(f"{at}: expected {width} cells, got {len(row)}")
        for cell in row:
            try:
                value = float(cell)
            except ValueError as exc:
                raise InvalidInput(f"{at}: malformed number {cell!r}") from exc
            if not math.isfinite(value):
                raise InvalidInput(f"{at}: non-finite number {cell!r}")
        if has_weight and float(row[-1]) < 0:
            raise InvalidInput(f"{at}: negative weight")
    raise AssertionError("no offending row")


def _spd_stack(data, header):
    """The ``(n, d, d)`` matrices of an SPD file: a ``dim`` column, then
    the ``d*d`` row-major entries of each atom."""
    if header[0].lower() != "dim":
        raise InvalidInput("SPD files need a leading 'dim' column")
    d = int(data[0, 0])
    if np.any(data[:, 0] != d):
        raise InvalidInput("inconsistent 'dim' entries")
    if data.shape[1] - 1 != d * d:
        raise InvalidInput(f"expected {d * d} matrix entries per row for dim {d}")
    if d < 1:
        raise InvalidInput(f"'dim' must be a positive integer, got {d}")
    return data[:, 1:].reshape(-1, d, d)


# geometry tag -> library membership check of the atom array; each raises
# InvalidAtom naming the first atom off the manifold
MEMBERSHIP = {
    "euclidean": sliced.point_rows,
    "lorentz": hyperbolic.validate_lorentz,
    "poincare": hyperbolic.validate_poincare,
    "spd": spd.validate_spd,
    "sphere": sphere.validate_sphere,
    "gaussian1d": busemann.validate_gaussians,
}
GEOMETRIES = tuple(MEMBERSHIP)


def load_dataset(path, geometry, weighted=True):
    """Load a CSV dataset and validate its atoms against the geometry.

    One atom per row; a header row is required; a trailing ``weight``
    column is optional (uniform weights otherwise), and rejected when
    ``weighted`` is False, for runs that read no weights.  SPD atoms carry
    a leading ``dim`` column followed by the d*d row-major entries.  Errors
    name the file; a bad row is named counting non-blank rows with the
    header as row 1.

    A plain file is parsed by numpy's C reader; any other file, or one that
    reader refuses, by the row reader, one ``float`` call per cell.  Both
    give the same atoms and weights bit for bit, and the same errors.
    """
    if geometry not in MEMBERSHIP:
        raise InvalidInput(f"unknown geometry {geometry!r}")
    text = _read_text(path)
    lines = text.splitlines()
    # plain: ``str.split(",")`` reads the lines as ``csv.reader`` would
    plain = (
        text.isascii()
        and not any(char in text for char in _CSV_ONLY)
        and max(map(len, lines), default=0) <= csv.field_size_limit()
    )
    table = _c_reader_table(text, lines) if plain else None
    if table is None:
        header, rows = _read_rows(path, text, lines, plain)
    else:
        header, values = table
    width = len(header)
    has_weight = header[-1].lower() == "weight"
    if has_weight and not weighted:
        raise InvalidInput(
            f"{path}: column {header[-1]!r} is not accepted: this run is unweighted"
        )
    if table is None:
        try:
            if set(map(len, rows)) != {width}:
                raise ValueError("ragged rows")
            cells = map(float, chain.from_iterable(rows))
            values = np.fromiter(cells, float, len(rows) * width).reshape(-1, width)
            if not _clean(values, has_weight):
                raise ValueError("non-finite cell or negative weight")
        except ValueError:
            _first_bad_row(path, rows, width, has_weight)
    n = values.shape[0]
    weights = values[:, -1].copy() if has_weight else np.full(n, 1.0 / n)
    atoms = np.ascontiguousarray(values[:, : width - has_weight])
    try:
        if geometry == "spd":
            atoms = _spd_stack(atoms, header)
        atoms = MEMBERSHIP[geometry](atoms)
    except InvalidAtom as exc:
        raise InvalidInput(f"{path}: row {exc.index + 2}: {exc.reason}") from exc
    except InvalidInput as exc:
        raise InvalidInput(f"{path}: {exc}") from exc
    if atoms.size == 0:
        raise InvalidInput(f"{path}: no coordinate column, only {header[-1]!r}")
    return Dataset(geometry=geometry, atoms=atoms, weights=weights)


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


@dataclass(frozen=True)
class Line:
    """A line-valued sliced distance: ``setup(mu, cfg)`` builds the seeded
    slicer that every pair shares, which reads ``points(atoms)`` of each
    dataset (the atoms themselves when ``points`` is None).  A matrix
    projects and sorts each dataset once."""

    setup: Callable
    points: Callable | None = None

    def _cloud(self, data):
        return data.atoms if self.points is None else self.points(data.atoms)

    def run(self, slicer, mu, nu, cfg):
        cost = sliced.sliced_cost(
            slicer, self._cloud(mu), self._cloud(nu), cfg.p, mu.weights, nu.weights
        )
        return cost, {}

    def matrix(self, slicer, datasets, cfg):
        clouds = [self._cloud(data) for data in datasets]
        weights = [data.weights for data in datasets]
        return sliced.sliced_cost_matrix(slicer, clouds, cfg.p, weights)


@dataclass(frozen=True)
class Pairwise:
    """A distance with no line coordinates: ``setup(mu, cfg)`` builds what
    every pair shares (slicer, frames, parameters) and ``run(shared, mu, nu,
    cfg) -> (value, extras)`` solves one pair; a matrix solves every pair."""

    setup: Callable
    run: Callable

    def matrix(self, shared, datasets, cfg):
        k = len(datasets)
        values = np.zeros((k, k))
        for i, j in zip(*np.triu_indices(k, 1)):
            value, _ = self.run(shared, datasets[i], datasets[j], cfg)
            values[i, j] = values[j, i] = value
        if k == 1:
            # a lone dataset is in no pair: solve it against itself for the
            # checks that run on a pair, and keep the zero diagonal
            self.run(shared, datasets[0], datasets[0], cfg)
        return values


def _logsw_slicer(mu, cfg):
    dirs = spd.logsw_directions(mu.atoms.shape[1], cfg.projections, cfg.seed)
    return sliced.EuclideanSlicer(dirs)


def _frames(mu, cfg):
    return sphere.sample_stiefel(mu.atoms.shape[1], cfg.projections, cfg.seed)


def _ssw(frames, mu, nu, cfg):
    value = sphere.ssw(
        mu.atoms, nu.atoms, frames, cfg.p, mu.weights, nu.weights, eps=cfg.eps
    )
    return value, {}


def _dual_extras(marginals, pots, history):
    return {
        "marginals": {"source": marginals.source, "target": marginals.target},
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


def _unbalanced_setup(mu, cfg):
    slicer = _slicer(mu, cfg, "geodesic")
    return slicer, unbalanced.UnbalancedParams(
        rho1=cfg.rho1, rho2=cfg.rho2, p=cfg.p, n_iters=cfg.fw_iters
    )


def _suot(shared, mu, nu, cfg):
    slicer, params = shared
    value, pots, history = unbalanced.suot(
        mu.atoms, nu.atoms, slicer, params, x_weights=mu.weights, y_weights=nu.weights
    )
    # marginals of the slice-averaged dual pair
    mean_pots = unbalanced.DualPotentials(
        f=np.mean(pots.f, axis=0), g=np.mean(pots.g, axis=0)
    )
    marginals = unbalanced.norm_reweight(
        mu.weights, nu.weights, mean_pots, cfg.rho1, cfg.rho2
    )
    return value, _dual_extras(marginals, pots, history)


def _usw(shared, mu, nu, cfg):
    slicer, params = shared
    value, pots, marginals, history = unbalanced.usw(
        mu.atoms, nu.atoms, slicer, params, x_weights=mu.weights, y_weights=nu.weights
    )
    return value, _dual_extras(marginals, pots, history)


def _gw1d_plan(mu, nu, cfg):
    return gw.gw1d(mu.atoms, mu.weights, nu.atoms, nu.weights)


def _hw_plan(mu, nu, cfg):
    return gw.hw_solve(
        mu.atoms, nu.atoms, a=mu.weights, b=nu.weights, n_iters=cfg.steps
    )


GW_PLANS = {"gw1d": _gw1d_plan, "hw": _hw_plan}


def _gw1d(_, mu, nu, cfg):
    plan, value = _gw1d_plan(mu, nu, cfg)
    return value, {"plan_support_size": int(np.count_nonzero(plan))}


def _hw(_, mu, nu, cfg):
    plan, value = _hw_plan(mu, nu, cfg)
    return value, {"plan_support_size": int(np.count_nonzero(plan > 1e-14))}


def _no_setup(mu, cfg):
    return None


_HYPERBOLIC = ("lorentz", "poincare")
_SLICED = ("euclidean", *_HYPERBOLIC, "spd")
_GEODESIC = Line(partial(_slicer, kind="geodesic"))
_HOROSPHERICAL = Line(partial(_slicer, kind="horospherical"))

# distance name -> (accepted geometries, Line or Pairwise)
DISTANCES = {
    "sw": (("euclidean",), _GEODESIC),
    "ghsw": (_HYPERBOLIC, _GEODESIC),
    "hhsw": (_HYPERBOLIC, _HOROSPHERICAL),
    "spdsw": (("spd",), _GEODESIC),
    "hspdsw": (("spd",), _HOROSPHERICAL),
    "logsw": (("spd",), Line(_logsw_slicer, spd.log_vectors)),
    "ssw": (("sphere",), Pairwise(_frames, _ssw)),
    "suot": (_SLICED, Pairwise(_unbalanced_setup, _suot)),
    "usw": (_SLICED, Pairwise(_unbalanced_setup, _usw)),
    "gw1d": (("euclidean",), Pairwise(_no_setup, _gw1d)),
    "hw": (("euclidean",), Pairwise(_no_setup, _hw)),
}


def _distance(cmd, geometry):
    """The distance ``cmd``, checked to accept the geometry."""
    if cmd not in DISTANCES:
        raise InvalidInput(f"unknown distance {cmd!r}")
    allowed, distance = DISTANCES[cmd]
    if geometry not in allowed:
        raise InvalidInput(
            f"distance {cmd!r} supports geometries {allowed}, got {geometry!r}"
        )
    return distance


def compute_distance(cmd, mu, nu, cfg):
    """Dispatch one distance computation; returns (value, extras dict)."""
    distance = _distance(cmd, mu.geometry)
    if mu.geometry != nu.geometry:
        raise InvalidInput("both datasets must share the geometry tag")
    value, extras = distance.run(distance.setup(mu, cfg), mu, nu, cfg)
    return float(value), extras


def _unwritable(out, exc):
    return InvalidInput(f"{out}: cannot write file: {exc.strerror or exc}")


def _write(text, out):
    if out:
        try:
            with open(out, "w") as handle:
                handle.write(text)
        except OSError as exc:
            raise _unwritable(out, exc) from exc
    else:
        sys.stdout.write(text)


def _check_out(out):
    """Raise :func:`_write`'s error before a run pays for ingest and compute
    when ``--out`` is a directory, an existing file that does not open for
    writing, or a new file whose parent is missing or not a directory.  The
    file is neither created nor truncated; every other failure is left to
    :func:`_write`."""
    if not out:
        return
    try:
        if os.path.isdir(out) or os.path.isfile(out):
            # no O_CREAT and no O_TRUNC: the file stays as it is
            os.close(os.open(out, os.O_WRONLY))
        else:
            # the trailing separator fails a parent that is not a directory
            os.stat(os.path.join(os.path.dirname(os.path.abspath(out)), ""))
    except OSError as exc:
        raise _unwritable(out, exc) from exc


def _json(value, pad=""):
    """The text of ``json.dumps(value, sort_keys=True, indent=2,
    allow_nan=False)`` nested at indent ``pad``.  An indent sends ``json`` to
    its pure-Python encoder, so dicts and lists are laid out here and each
    flat list of numbers goes through the C encoder in one call.  An array is
    the text of its ``tolist()``."""
    if isinstance(value, np.ndarray):
        text = _float_array(value, pad)
        return _json(value.tolist(), pad) if text is None else text
    inner = pad + "  "
    if isinstance(value, dict) and value and all(isinstance(k, str) for k in value):
        body = f",\n{inner}".join(
            f"{json.dumps(key)}: {_json(item, inner)}"
            for key, item in sorted(value.items())
        )
        return f"{{\n{inner}{body}\n{pad}}}"
    if isinstance(value, list) and value:
        return f"[\n{inner}{_list_items(value, inner)}\n{pad}]"
    # scalars, empty containers, tuples and dicts with non-string keys: a
    # JSON text holds no raw newline but its own, so re-indenting is a replace
    text = json.dumps(value, sort_keys=True, indent=2, allow_nan=False)
    return text.replace("\n", "\n" + pad)


def _list_items(values, pad):
    """The items of a non-empty list, one per line at indent ``pad``."""
    if not isinstance(values[0], (dict, list)):
        try:
            flat = json.dumps(values, allow_nan=False)[1:-1]
            if not any(c in flat for c in '"[{'):
                return flat.replace(", ", ",\n" + pad)
        except ValueError:
            # the C encoder's message leaves the value out: the item by item
            # encoding below raises the pure-Python encoder's, which has it
            pass
    return f",\n{pad}".join(_json(item, pad) for item in values)


def _float_rows(rows, sep):
    """The text of each row of a finite float64 ``(k, m)`` array, its cells
    joined by ``sep``.  A non-zero cell (``-0.0`` too) is its ``repr``, as
    the C encoder writes it, and a run of ``+0.0`` cells is one string
    multiplication, so a sparse plan pays a float object per non-zero cell
    only."""
    k, m = rows.shape
    nonzero = (rows.view(np.int64) != 0).ravel()
    # the runs of non-zero and of +0.0 cells, cut at each row's end
    first = np.ones(k * m, bool)
    np.not_equal(nonzero[1:], nonzero[:-1], out=first[1:])
    first[::m] = True
    starts = np.flatnonzero(first)
    stops = np.append(starts[1:], k * m)
    runs = zip(
        (stops - starts).tolist(), nonzero[starts].tolist(), (stops % m == 0).tolist()
    )
    texts = map(repr, rows.ravel()[nonzero].tolist())
    zero = "0.0" + sep
    lines, parts = [], []
    for length, is_cells, row_end in runs:
        if is_cells:
            parts += (sep.join(islice(texts, length)), sep)
        else:
            parts.append(zero * length)
        if row_end:
            lines.append("".join(parts)[: -len(sep)])
            parts = []
    return lines


def _float_array(values, pad):
    """``_json(values.tolist(), pad)`` of a finite float64 array with one or
    two non-empty axes, laid out from the array; None for any other array."""
    if (
        values.dtype != np.float64
        or values.ndim not in (1, 2)
        or 0 in values.shape
        or not np.isfinite(values).all()
    ):
        return None
    inner = pad + "  "
    cell_pad = inner + "  " if values.ndim == 2 else inner
    lines = _float_rows(values.reshape(-1, values.shape[-1]), ",\n" + cell_pad)
    if values.ndim == 1:
        return f"[\n{inner}{lines[0]}\n{pad}]"
    # the brackets go on the end rows, so the text is built in one join
    lines[0] = f"[\n{inner}[\n{cell_pad}{lines[0]}"
    lines[-1] = f"{lines[-1]}\n{inner}]\n{pad}]"
    return f"\n{inner}],\n{inner}[\n{cell_pad}".join(lines)


def _emit(args, start, payload):
    """Write a command's JSON payload, stamped with the command and the
    wall-clock milliseconds since ``start``, to ``--out`` or stdout."""
    payload["command"] = args.command
    payload["wallclock_ms"] = (time.perf_counter() - start) * 1e3
    # a NaN is a numerical failure (exit 3), never a JSON token on stdout
    _write(_json(payload) + "\n", args.out)


def run_dist(args, cfg):
    mu = load_dataset(args.source, args.geometry)
    nu = load_dataset(args.target, args.geometry)
    start = time.perf_counter()
    value, extras = compute_distance(args.name, mu, nu, cfg)
    payload = {
        "distance": args.name,
        "value": value,
        "inputs": [args.source, args.target],
        "config": cfg.echo() | {"geometry": args.geometry},
        **extras,
    }
    _emit(args, start, payload)


def run_matrix(args, cfg):
    datasets = [load_dataset(path, args.geometry) for path in args.inputs]
    start = time.perf_counter()
    distance = _distance(args.name, args.geometry)
    # the seeded slicer of the first dataset is every pair's; building it
    # checks the config even when there is no pair
    values = distance.matrix(distance.setup(datasets[0], cfg), datasets, cfg)
    payload = {
        "distance": args.name,
        "values": values,
        "inputs": list(args.inputs),
        "config": cfg.echo() | {"geometry": args.geometry},
    }
    _emit(args, start, payload)


def _parse_vector(text):
    try:
        return np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError as exc:
        raise InvalidInput(f"malformed vector {text!r}") from exc


def _parse_origin(text):
    """The ``--origin`` point ``mean,sigma`` of the Gaussian half-plane."""
    origin = _parse_vector(text)
    if origin.shape != (2,) or not (np.all(np.isfinite(origin)) and origin[1] > 0):
        raise InvalidInput(
            f"--origin must be finite 'mean,sigma' with sigma > 0, got {text!r}"
        )
    return float(origin[0]), float(origin[1])


def _build_functional(args, data, cfg):
    kind = args.functional
    if kind == "interaction":
        return flows.InteractionFunctional(a=args.kernel_a, b=args.kernel_b)
    if kind in ("potential", "fokker-planck"):
        center = _parse_vector(args.potential_center)
        potential = flows.quadratic_potential(center, strength=args.potential_strength)
        if kind == "potential":
            return potential
        return flows.SumFunctional([potential, flows.EntropyFunctional()])
    if kind == "sw-target":
        if not args.target:
            raise InvalidInput("sw-target flows need --target")
        target = load_dataset(args.target, args.geometry)
        dirs = _slicer(data, cfg, "geodesic").dirs
        if args.geometry == "lorentz":
            return flows.GhswToTargetFunctional(target.atoms, dirs)
        return flows.SwToTargetFunctional(target.atoms, dirs)
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
    data = load_dataset(args.input, "gaussian1d", weighted=False)
    start = time.perf_counter()
    origin = _parse_origin(args.origin) if args.origin else None
    ray1, ray2, scores = busemann.gaussian_pca_1d(data.atoms, origin=origin)
    payload = {
        "components": [
            {"m0": ray.m0, "s0": ray.s0, "m1": ray.m1, "s1": ray.s1}
            for ray in (ray1, ray2)
        ],
        "scores": scores,
        "inputs": [args.input],
        "config": cfg.echo(),
    }
    _emit(args, start, payload)


def run_gw(args, cfg):
    mu = load_dataset(args.source, "euclidean")
    nu = load_dataset(args.target, "euclidean")
    start = time.perf_counter()
    plan, value = GW_PLANS[args.name](mu, nu, cfg)
    payload = {
        "problem": args.name,
        "value": float(value),
        "plan": plan,
        "inputs": [args.source, args.target],
        "config": cfg.echo(),
    }
    _emit(args, start, payload)


def _add_common(parser):
    parser.add_argument("--geometry", default="euclidean", choices=GEOMETRIES)
    for f in fields(RunConfig):
        flag = "--" + f.name.replace("_", "-")
        parser.add_argument(flag, type=type(f.default), default=f.default)
    parser.add_argument("--out", default=None)


class _Parser(argparse.ArgumentParser):
    """A parser (subcommand parsers too) that reads a token starting ``-<digit>``
    or ``-.<digit>`` as a value: ``--origin -0.5,1``, ``--potential-strength
    -1e-3``; argparse's own pattern takes plain decimals such as ``-0.5`` only."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def build_parser():
    parser = _Parser(
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
    p_flow.add_argument("--inner-lr", type=float, default=flows.InnerOptimizer.learning_rate)
    p_flow.add_argument("--inner-steps", type=int, default=flows.InnerOptimizer.n_steps)
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


@cache
def _parser():
    """The one parser of :func:`main`; parsing leaves no state on it."""
    return build_parser()


# count flags that a negative value would turn into a silent no-op run or a
# numpy error
_COUNTS = ("seed", "steps", "inner_steps")


def _check_counts(args):
    for name in _COUNTS:
        value = getattr(args, name, 0)
        if value < 0:
            flag = "--" + name.replace("_", "-")
            raise InvalidInput(f"{flag} must be a non-negative integer, got {value}")


def main(argv=None):
    args = _parser().parse_args(argv)
    cfg = RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)})
    runner = {
        "dist": run_dist,
        "matrix": run_matrix,
        "flow": run_flow,
        "pca": run_pca,
        "gw": run_gw,
    }[args.command]
    try:
        _check_counts(args)
        _check_out(args.out)
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

"""CLI fuzz: bad input never exits 0 with non-finite output.

Every scheme x functional pair that ``run_flow`` accepts is run on files
with NaN and +-inf cells, on empty files and with a potential center of
the wrong dimension; each must exit 2 (bad input) or 3 (numerical
failure) with nothing on stdout.  Valid seeded runs must rerun to
byte-identical JSONL, and a Hypothesis fuzz over the step size and the
potential's parameters checks that an exit 0 only ever carries finite
numbers.  Diverging particle and grid flows exit 3 naming the step.

``dist``, ``matrix``, ``pca`` and ``gw`` get the same ingest fuzz for
every geometry each accepts: non-finite cells, empty and header-only
files, zero total mass, atoms off the manifold and clouds of another
dimension all exit 2 or 3 with nothing on stdout, and valid seeded runs
rerun to byte-identical JSON but for the wallclock field.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msot.cli import DISTANCES, GW_PLANS, main
from msot.hyperbolic import poincare_to_lorentz

SCHEMES = ("euler", "jko-particles", "jko-grid")
FUNCTIONALS = ("interaction", "potential", "fokker-planck", "sw-target")
PAIRS = [(s, f) for s in SCHEMES for f in FUNCTIONALS]
SMALL = ["--steps", "2", "--inner-steps", "3", "--projections", "8",
         "--cell-volume", "0.25", "--tau", "0.05"]


def _reject(token):
    raise ValueError(f"non-standard JSON constant {token}")


def strict_records(text):
    """Parse JSONL, refusing NaN and infinities; all numbers must be finite."""
    records = [json.loads(line, parse_constant=_reject) for line in text.splitlines()]
    for record in records:
        assert np.all(np.isfinite(record["energy"]))
    return records


def write_cloud(path, points):
    header = ",".join(f"x{i}" for i in range(points.shape[1]))
    rows = [",".join(repr(float(v)) for v in row) for row in points]
    path.write_text("\n".join([header, *rows]) + "\n")


def cloud(seed, n=6, d=2):
    return np.random.default_rng(seed).normal(size=(n, d)) * 0.5


def flow_argv(scheme, functional, source, target, extra=()):
    return ["flow", scheme, str(source), "--functional", functional,
            "--target", str(target), *SMALL, *extra]


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


@pytest.fixture
def target(tmp_path):
    path = tmp_path / "target.csv"
    write_cloud(path, cloud(1))
    return path


@pytest.mark.parametrize("scheme, functional", PAIRS)
@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_non_finite_cell(tmp_path, capsys, target, scheme, functional, cell):
    path = tmp_path / "bad.csv"
    path.write_text(f"x0,x1\n0.1,0.2\n{cell},0.3\n-0.2,0.4\n")
    code, out = run(flow_argv(scheme, functional, path, target), capsys)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("scheme, functional", PAIRS)
@pytest.mark.parametrize("content", ["", "x0,x1\n"], ids=["empty", "header-only"])
def test_empty_file(tmp_path, capsys, target, scheme, functional, content):
    path = tmp_path / "empty.csv"
    path.write_text(content)
    code, out = run(flow_argv(scheme, functional, path, target), capsys)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("scheme, functional", PAIRS)
@pytest.mark.parametrize("center", ["0", "0,0,0"])
def test_center_of_wrong_dimension(tmp_path, capsys, target, scheme, functional, center):
    path = tmp_path / "a.csv"
    write_cloud(path, cloud(2))
    argv = flow_argv(scheme, functional, path, target, ["--potential-center", center])
    code, out = run(argv, capsys)
    if functional in ("potential", "fokker-planck"):
        assert code == 2
        assert out == ""
    else:  # the center is not used
        assert code in (0, 2, 3)
        if code == 0:
            strict_records(out)
        else:
            assert out == ""


@pytest.mark.parametrize("scheme, functional", PAIRS)
def test_seeded_rerun_is_byte_identical(tmp_path, capsys, target, scheme, functional):
    path = tmp_path / "a.csv"
    write_cloud(path, cloud(3))
    outputs = []
    for k in range(2):
        out_path = tmp_path / f"trace{k}.jsonl"
        argv = flow_argv(scheme, functional, path, target,
                         ["--seed", "7", "--record-positions", "--out", str(out_path)])
        code, _ = run(argv, capsys)
        outputs.append((code, out_path.read_bytes() if out_path.exists() else None))
    assert outputs[0] == outputs[1]
    code, data = outputs[0]
    if functional == "fokker-planck" and scheme != "jko-grid":
        assert code == 2  # the entropy has no particle surface
    else:
        assert code == 0
        assert len(strict_records(data.decode())) == 3


_numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.05, 0.05, 1e300]),
)


@settings(max_examples=60, deadline=None)
@given(
    pair=st.sampled_from(PAIRS),
    tau=_numbers,
    strength=_numbers,
    center=st.lists(_numbers, min_size=1, max_size=3),
)
def test_fuzz_parameters(pair, tau, strength, center):
    scheme, functional = pair
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        source, target, out = tmp / "a.csv", tmp / "t.csv", tmp / "out.jsonl"
        write_cloud(source, cloud(4))
        write_cloud(target, cloud(5))
        argv = flow_argv(scheme, functional, source, target) + [
            f"--tau={tau!r}",
            f"--potential-strength={strength!r}",
            "--potential-center=" + ",".join(repr(c) for c in center),
            "--out", str(out),
        ]
        with np.errstate(all="ignore"):
            code = main(argv)
        assert code in (0, 2, 3)
        if code == 0:
            strict_records(out.read_text())
        else:
            assert not out.exists()


def test_diverging_grid_step_is_named(tmp_path, capsys):
    """A potential strength whose gradient norm overflows: exit 3 naming the
    step, not a JSON encoder error."""
    path = tmp_path / "a.csv"
    path.write_text("x0,x1\n0.1,0.2\n0.5,-0.3\n-0.4,0.1\n")
    argv = ["flow", "jko-grid", str(path), "--functional", "potential",
            "--potential-strength=1e300", *SMALL]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "grid flow diverged at step 1" in captured.err


@pytest.mark.parametrize("scheme", ["euler", "jko-particles"])
def test_diverging_particle_step_is_named(tmp_path, capsys, scheme):
    """The same overflow in a particle flow is a numerical failure (exit 3)
    naming the step, not an encoder error or an input error (exit 2)."""
    path = tmp_path / "a.csv"
    path.write_text("x0,x1\n0.1,0.2\n0.5,-0.3\n-0.4,0.1\n")
    argv = ["flow", scheme, str(path), "--functional", "potential",
            "--potential-strength=1e300", *SMALL]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "flow diverged at step 1" in captured.err


# --- dist, matrix, pca and gw ---------------------------------------------

FAST = ["--projections", "4", "--fw-iters", "2", "--steps", "3"]
INGEST_RUNS = (
    [("dist", name, g) for name, (geoms, _) in DISTANCES.items() for g in geoms]
    + [("matrix", name, g) for name, (geoms, _) in DISTANCES.items() for g in geoms]
    + [("pca", None, "gaussian1d")]
    + [("gw", name, "euclidean") for name in GW_PLANS]
)


def valid_atoms(geometry, seed, d=2, n=5):
    """Atoms on the geometry's manifold, one per row (SPD: dim, entries)."""
    rng = np.random.default_rng(seed)
    if geometry == "spd":
        a = rng.normal(size=(n, d, d))
        mats = a @ np.swapaxes(a, 1, 2) + np.eye(d)
        return np.column_stack([np.full(n, d), mats.reshape(n, -1)])
    if geometry == "gaussian1d":  # d - 1 means and a sigma
        return np.column_stack([rng.normal(size=(n, d - 1)), rng.uniform(0.5, 2.0, n)])
    if geometry == "sphere":
        x = rng.normal(size=(n, d + 1))
        return x / np.linalg.norm(x, axis=1, keepdims=True)
    ball = rng.uniform(-0.4, 0.4, (n, d)) / np.sqrt(d)
    return poincare_to_lorentz(ball) if geometry == "lorentz" else ball


def off_manifold(geometry, atoms):
    bad = atoms.copy()
    if geometry == "spd":
        bad[2, 1:] *= -1
    elif geometry == "gaussian1d":
        bad[2, 1] = -1.0
    else:
        bad[2] *= 1.5 / np.linalg.norm(bad[2]) if geometry == "poincare" else 1.5
    return bad


def write_atoms(path, geometry, atoms, weights=None):
    header = [f"x{k}" for k in range(atoms.shape[1])]
    if geometry == "spd":
        header[0] = "dim"
    cells = [[repr(float(v)) for v in row] for row in atoms]
    if weights is not None:
        header.append("weight")
        cells = [row + [repr(float(w))] for row, w in zip(cells, weights)]
    path.write_text("\n".join(",".join(row) for row in [header, *cells]) + "\n")
    return path


def ingest_argv(command, name, geometry, source, target):
    if command == "pca":
        return ["pca", str(source), *FAST]
    head = [command, name, str(source), str(target)]
    return head + ([] if command == "gw" else ["--geometry", geometry]) + FAST


def strict_payload(text):
    payload = json.loads(text, parse_constant=_reject)

    def numbers(value):
        if isinstance(value, dict):
            return [x for v in value.values() for x in numbers(v)]
        if isinstance(value, list):
            return [x for v in value for x in numbers(v)]
        return [value] if isinstance(value, float) else []

    assert np.all(np.isfinite(numbers(payload)))
    return payload


def ingest_files(tmp_path, command, name, geometry):
    """A valid source and target of the run's geometry."""
    d = 1 if name == "gw1d" else 2
    source = write_atoms(tmp_path / "a.csv", geometry, valid_atoms(geometry, 0, d))
    target = write_atoms(tmp_path / "b.csv", geometry, valid_atoms(geometry, 1, d))
    return source, target


@pytest.mark.parametrize("command, name, geometry", INGEST_RUNS)
def test_ingest_valid_run_is_finite(tmp_path, capsys, command, name, geometry):
    source, target = ingest_files(tmp_path, command, name, geometry)
    code, out = run(ingest_argv(command, name, geometry, source, target), capsys)
    assert code == 0
    strict_payload(out)


@pytest.mark.parametrize("command, name, geometry", INGEST_RUNS)
def test_ingest_seeded_rerun_is_byte_identical(tmp_path, capsys, command, name, geometry):
    """Two seeded runs write the same bytes but for ``wallclock_ms``."""
    source, target = ingest_files(tmp_path, command, name, geometry)
    outputs = []
    for k in range(2):
        out_path = tmp_path / f"out{k}.json"
        argv = ingest_argv(command, name, geometry, source, target)
        code, _ = run([*argv, "--seed", "7", "--out", str(out_path)], capsys)
        assert code == 0
        lines = out_path.read_text().splitlines()
        outputs.append([line for line in lines if '"wallclock_ms"' not in line])
        assert len(lines) - len(outputs[-1]) == 1
    assert outputs[0] == outputs[1]


def corrupt(kind, geometry, name, source, target):
    """Corrupt the source; zero mass goes on both sides, and the target
    (the source for ``pca``) gets another dimension."""
    atoms = valid_atoms(geometry, 0, 1 if name == "gw1d" else 2)
    if kind in ("nan", "inf", "-inf"):
        lines = source.read_text().splitlines()
        lines[3] = ",".join(lines[3].split(",")[:-1] + [kind])
        source.write_text("\n".join(lines) + "\n")
    elif kind == "empty":
        source.write_text("")
    elif kind == "header-only":
        source.write_text(source.read_text().splitlines()[0] + "\n")
    elif kind == "zero-mass":
        for path in (source, target):
            write_atoms(path, geometry, atoms, weights=np.zeros(len(atoms)))
    elif kind == "off-manifold":
        write_atoms(source, geometry, off_manifold(geometry, atoms))
    else:
        path = source if name is None else target
        write_atoms(path, geometry, valid_atoms(geometry, 0, 3))


INGEST_KINDS = ["nan", "inf", "-inf", "empty", "header-only", "zero-mass",
                "off-manifold", "dimension"]


@pytest.mark.parametrize(
    "command, name, geometry, kind",
    [(*r, kind) for r in INGEST_RUNS for kind in INGEST_KINDS
     if not (kind == "off-manifold" and r[2] == "euclidean")],  # all of R^d
)
def test_ingest_bad_input(tmp_path, capsys, command, name, geometry, kind):
    source, target = ingest_files(tmp_path, command, name, geometry)
    corrupt(kind, geometry, name, source, target)
    with np.errstate(all="ignore"):
        code, out = run(ingest_argv(command, name, geometry, source, target), capsys)
    assert code in (2, 3)
    assert out == ""

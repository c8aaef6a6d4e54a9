"""``msot matrix`` against the pair-by-pair loop it replaced.

A line distance projects and sorts each file once and then solves only the
per-pair half of the 1D kernel; the other distances share one setup and
still go pair by pair.  Either way the matrix must equal
``oracles.matrix_per_pair`` bit for bit on tie-heavy files (duplicate
rows, integer grids, weights in eighths with zeros, files of different
size), fail with the same exit code and message, project each file once,
and fail on a one-file run exactly as ``dist`` of the file with itself.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from msot import cli, hyperbolic, sliced, spd
from msot.cli import DISTANCES, RunConfig, main
from msot.errors import InvalidInput
from oracles import matrix_per_pair

RUNS = [(name, g) for name, (geoms, _) in DISTANCES.items() for g in geoms]
LINE_RUNS = [(name, g) for name, g in RUNS if isinstance(DISTANCES[name][1], cli.Line)]
FAST = ["--projections", "6", "--fw-iters", "2", "--steps", "3", "--seed", "3"]
CFG = RunConfig(seed=3, projections=6, fw_iters=2, steps=3)

# (atoms, weights in eighths or None): a matched uniform pair (the second
# file the first reversed), weights with ties and zeros, a weight column of
# equal weights, and sizes 4, 5, 6 and 8 in one matrix
LAYOUT = [
    (4, None),
    (4, "reversed"),
    (6, [1, 1, 2, 1, 2, 1]),
    (8, None),
    (4, [2, 2, 2, 2]),
    (5, [4, 0, 2, 2, 0]),
]
# hw solves uniform clouds of equal size only
HW_LAYOUT = [(4, None), (4, "reversed"), (4, None), (4, [2, 2, 2, 2])]


def pool(name, geometry):
    """Atoms on a coarse grid of the geometry, one per row."""
    if name == "gw1d":
        return np.arange(-2.0, 3.0)[:, None]
    grid = np.array([[a, b] for a in range(-1, 3) for b in range(-1, 3)], float)
    if geometry == "euclidean":
        return grid
    if geometry in ("poincare", "lorentz"):
        ball = (grid - 0.5) / 4.0
        return hyperbolic.poincare_to_lorentz(ball) if geometry == "lorentz" else ball
    if geometry == "spd":
        mats = [[a, b, b, c] for a in (2, 3) for b in (-1, 0, 1) for c in (2, 3)]
        return np.column_stack([np.full(len(mats), 2.0), np.array(mats, float)])
    eye = np.eye(3)
    return np.vstack([eye, -eye, [[0.6, 0.8, 0.0], [0.0, 0.6, 0.8]]])


def write_atoms(path, geometry, atoms, weights=None):
    header = ["dim"] if geometry == "spd" else ["x0"]
    header += [f"x{k}" for k in range(1, atoms.shape[1])]
    rows = [[repr(float(v)) for v in row] for row in atoms]
    if weights is not None:
        header.append("weight")
        rows = [row + [repr(float(w))] for row, w in zip(rows, weights)]
    Path(path).write_text("\n".join(",".join(r) for r in [header, *rows]) + "\n")
    return str(path)


def tied_files(tmp_path, name, geometry, layout=LAYOUT):
    atoms = pool(name, geometry)
    rng = np.random.default_rng(len(name) + 7 * len(geometry))
    paths, first = [], None
    for k, (n, weights) in enumerate(layout):
        rows = first[::-1] if weights == "reversed" else atoms[rng.integers(0, len(atoms), n)]
        first = rows if first is None else first
        w = None if weights in (None, "reversed") else np.array(weights) / 8.0
        paths.append(write_atoms(tmp_path / f"f{k}.csv", geometry, rows, w))
    return paths


def oracle_outcome(name, paths, geometry):
    """Exit code and stderr of the pair loop, or 0 and its matrix."""
    try:
        return 0, matrix_per_pair(name, paths, geometry, CFG)
    except InvalidInput as exc:
        return 2, f"error: {exc}\n"
    except (ValueError, np.linalg.LinAlgError) as exc:
        return 3, f"numerical failure: {exc}\n"


def matrix_outcome(name, paths, geometry, capsys, extra=()):
    code = main(["matrix", name, *paths, "--geometry", geometry, *FAST, *extra])
    captured = capsys.readouterr()
    if code == 0:
        assert captured.err == ""
        return 0, np.array(json.loads(captured.out)["values"])
    assert captured.out == ""
    return code, captured.err


@pytest.mark.parametrize("name, geometry", RUNS)
def test_matrix_equals_pair_loop_on_tied_files(tmp_path, capsys, name, geometry):
    paths = tied_files(tmp_path, name, geometry, HW_LAYOUT if name == "hw" else LAYOUT)
    want = matrix_per_pair(name, paths, geometry, CFG)
    code, got = matrix_outcome(name, paths, geometry, capsys)
    assert code == 0
    assert np.array_equal(got, want)
    if (name, geometry) in LINE_RUNS:
        # the reversed copy of a file is at exactly zero distance
        assert got[0, 1] == 0.0


def fault(kind, name, geometry, path):
    """Rewrite ``path`` with another dimension, another total mass or an
    atom off the manifold."""
    atoms = pool(name, geometry)[:4]
    if kind == "dimension":
        wider = np.column_stack([atoms, atoms[:, -1]])
        if geometry == "spd":  # 3x3 matrices
            wider = np.column_stack(
                [np.full(4, 3.0), np.array([np.eye(3).ravel() * (k + 1) for k in range(4)])]
            )
        elif geometry == "lorentz":  # one more ball coordinate
            ball = hyperbolic.lorentz_to_poincare(atoms)
            wider = hyperbolic.poincare_to_lorentz(np.column_stack([ball, np.zeros(4)]))
        elif geometry == "sphere":
            wider = np.column_stack([atoms, np.zeros(4)])
        write_atoms(path, geometry, wider)
    elif kind == "mass":
        write_atoms(path, geometry, atoms, np.full(4, 0.5))
    else:
        bad = atoms.copy()
        if geometry == "spd":
            bad[2, 1:] = [1.0, 2.0, 2.0, 1.0]
        else:
            bad[2] *= 9.0
        write_atoms(path, geometry, bad)


@pytest.mark.parametrize("position", [0, 2])
@pytest.mark.parametrize(
    "name, geometry, kind",
    [(*run, kind) for run in RUNS for kind in ("dimension", "mass", "off-manifold")
     if not (kind == "off-manifold" and run[1] == "euclidean")],  # all of R^d
)
def test_faulty_file_fails_as_pair_loop(tmp_path, capsys, name, geometry, kind, position):
    paths = tied_files(tmp_path, name, geometry, LAYOUT[:3])
    fault(kind, name, geometry, paths[position])
    with np.errstate(all="ignore"):
        want = oracle_outcome(name, paths, geometry)
        got = matrix_outcome(name, paths, geometry, capsys)
    assert got[0] == want[0]
    if want[0] == 0:
        assert np.array_equal(got[1], want[1])
    else:
        assert got[1] == want[1]
    if (name, geometry) in LINE_RUNS:
        expect = {"dimension": "atom shape mismatch: ", "mass": "total masses differ: ",
                  "off-manifold": f"f{position}.csv: row 4: "}[kind]
        assert expect in got[1]


SLICERS = {"euclidean": sliced.EuclideanSlicer, "spd": spd.SpdSlicer,
           "lorentz": hyperbolic.HyperbolicSlicer, "poincare": hyperbolic.HyperbolicSlicer}


@pytest.mark.parametrize("name, geometry", LINE_RUNS)
def test_each_file_is_projected_once(tmp_path, capsys, monkeypatch, name, geometry):
    cls = SLICERS[geometry if name != "logsw" else "euclidean"]
    calls = []
    prepare = cls.prepare

    def spy(self, points):
        calls.append(len(points))
        return prepare(self, points)

    monkeypatch.setattr(cls, "prepare", spy)
    paths = tied_files(tmp_path, name, geometry, LAYOUT[:5])
    code, _ = matrix_outcome(name, paths, geometry, capsys)
    assert code == 0
    assert calls == [4, 4, 6, 8, 4]  # k = 5 calls, not k(k - 1) = 20


@pytest.mark.parametrize("bad", ["projections", "mass"])
@pytest.mark.parametrize("name, geometry", RUNS)
def test_one_file_fails_as_dist_with_itself(tmp_path, capsys, name, geometry, bad):
    """With ``--projections 0``, or a file of zero total mass, a one-file
    matrix fails exactly when ``dist`` of the file with itself does, with
    its code and message."""
    path = tied_files(tmp_path, name, geometry, LAYOUT[:1])[0]
    extra = ["--projections", "0"] if bad == "projections" else []
    if bad == "mass":
        write_atoms(path, geometry, pool(name, geometry)[:4], np.zeros(4))
    with np.errstate(all="ignore"):
        dist = main(["dist", name, path, path, "--geometry", geometry, *FAST, *extra])
        dist_err = capsys.readouterr().err
        code, got = matrix_outcome(name, [path], geometry, capsys, extra)
    assert code == dist
    if code:
        assert got == dist_err
    else:
        assert got.tolist() == [[0.0]]


def test_one_file_wrong_geometry_exits_2_as_dist(tmp_path, capsys):
    path = write_atoms(tmp_path / "s.csv", "sphere", np.eye(3))
    assert main(["dist", "sw", path, path, "--geometry", "sphere"]) == 2
    dist_err = capsys.readouterr().err
    code, err = matrix_outcome("sw", [path], "sphere", capsys)
    assert (code, err) == (2, dist_err)
    assert "distance 'sw' supports geometries ('euclidean',)" in err


def test_one_file_valid_run_is_zero(tmp_path, capsys):
    path = write_atoms(tmp_path / "e.csv", "euclidean", np.eye(3))
    code, values = matrix_outcome("sw", [path], "euclidean", capsys)
    assert code == 0
    assert values.tolist() == [[0.0]]

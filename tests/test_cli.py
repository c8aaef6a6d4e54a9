import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import msot
from msot import cli
from msot.cli import Dataset, RunConfig, compute_distance, load_dataset, main
from msot.hyperbolic import poincare_to_lorentz


def write_csv(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(repr(float(v)) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def euclidean_csv(path, points, weights=None):
    points = np.asarray(points, dtype=float)
    header = [f"x{i}" for i in range(points.shape[1])]
    rows = [list(p) for p in points]
    if weights is not None:
        header.append("weight")
        rows = [r + [w] for r, w in zip(rows, weights)]
    write_csv(path, header, rows)


class TestLoadDataset:
    def test_uniform_weights_by_default(self, tmp_path):
        path = tmp_path / "a.csv"
        euclidean_csv(path, np.zeros((3, 2)))
        ds = load_dataset(str(path), "euclidean")
        assert np.allclose(ds.weights, 1 / 3)

    def test_weight_column(self, tmp_path):
        path = tmp_path / "a.csv"
        euclidean_csv(path, np.zeros((2, 2)), weights=[0.25, 0.75])
        ds = load_dataset(str(path), "euclidean")
        assert np.allclose(ds.weights, [0.25, 0.75])

    def test_poincare_violation_names_row(self, tmp_path):
        path = tmp_path / "p.csv"
        write_csv(path, ["x0", "x1"], [[0.1, 0.1], [1.5, 0.0]])
        with pytest.raises(Exception) as err:
            load_dataset(str(path), "poincare")
        assert "row 3" in str(err.value)

    def test_spd_positivity_names_row(self, tmp_path):
        path = tmp_path / "s.csv"
        write_csv(
            path,
            ["dim", "m00", "m01", "m10", "m11"],
            [[2, 1.0, 0.0, 0.0, 1.0], [2, 1.0, 2.0, 2.0, 1.0]],
        )
        with pytest.raises(Exception) as err:
            load_dataset(str(path), "spd")
        assert "row 3" in str(err.value)

    def test_spd_matrices_reshaped(self, tmp_path):
        path = tmp_path / "s.csv"
        write_csv(
            path,
            ["dim", "m00", "m01", "m10", "m11", "weight"],
            [[2, 2.0, 0.5, 0.5, 1.0, 1.0]],
        )
        ds = load_dataset(str(path), "spd")
        assert ds.atoms.shape == (1, 2, 2)

    def test_malformed_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0\nnot-a-number\n")
        with pytest.raises(Exception) as err:
            load_dataset(str(path), "euclidean")
        assert "row 2" in str(err.value)


class TestCliRuns:
    def test_dist_sw_self_is_zero(self, tmp_path, capsys):
        path = tmp_path / "a.csv"
        rng = np.random.default_rng(0)
        euclidean_csv(path, rng.normal(size=(6, 2)))
        code = main(["dist", "sw", str(path), str(path), "--projections", "20"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == 0.0
        assert payload["config"]["projections"] == 20

    def test_usw_balanced_limit_matches_sw(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        euclidean_csv(a, rng.normal(size=(8, 2)))
        euclidean_csv(b, rng.normal(size=(9, 2)) + 0.4)
        assert (
            main(
                [
                    "dist", "sw", str(a), str(b),
                    "--projections", "30", "--seed", "3",
                ]
            )
            == 0
        )
        sw_val = json.loads(capsys.readouterr().out)["value"]
        assert (
            main(
                [
                    "dist", "usw", str(a), str(b),
                    "--projections", "30", "--seed", "3",
                    "--rho1", "1e6", "--rho2", "1e6", "--fw-iters", "150",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == pytest.approx(sw_val, rel=1e-3)
        assert "marginals" in payload and "dual_summary" in payload

    def test_determinism_byte_identical_except_wallclock(self, tmp_path):
        rng = np.random.default_rng(2)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        euclidean_csv(a, rng.normal(size=(5, 3)))
        euclidean_csv(b, rng.normal(size=(7, 3)))
        outs = []
        for run in range(2):
            out = tmp_path / f"out{run}.json"
            code = main(
                [
                    "dist", "suot", str(a), str(b),
                    "--projections", "15", "--seed", "11", "--out", str(out),
                ]
            )
            assert code == 0
            payload = json.loads(out.read_text())
            payload.pop("wallclock_ms")
            outs.append(json.dumps(payload, sort_keys=True))
        assert outs[0] == outs[1]

    def test_incompatible_geometry_diagnosed(self, tmp_path, capsys):
        path = tmp_path / "a.csv"
        euclidean_csv(path, np.random.default_rng(3).normal(size=(4, 2)))
        code = main(["dist", "ssw", str(path), str(path), "--geometry", "euclidean"])
        assert code == 2
        assert "supports geometries" in capsys.readouterr().err

    def test_validation_exit_code(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        write_csv(path, ["x0", "x1"], [[2.0, 0.0]])
        code = main(["dist", "ghsw", str(path), str(path), "--geometry", "poincare"])
        assert code == 2
        capsys.readouterr()

    def test_matrix_symmetric_zero_diagonal(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        paths = []
        for k in range(3):
            p = tmp_path / f"d{k}.csv"
            euclidean_csv(p, rng.normal(size=(5, 2)))
            paths.append(str(p))
        code = main(["matrix", "sw", *paths, "--projections", "25", "--seed", "5"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        values = np.array(payload["values"])
        assert values.shape == (3, 3)
        assert np.allclose(values, values.T)
        assert np.allclose(np.diag(values), 0.0)
        assert np.all(values[np.triu_indices(3, k=1)] > 0)

    def test_flow_zero_potential_constant_trace(self, tmp_path):
        rng = np.random.default_rng(5)
        path = tmp_path / "a.csv"
        euclidean_csv(path, rng.normal(size=(6, 2)))
        out = tmp_path / "trace.jsonl"
        code = main(
            [
                "flow", "euler", str(path),
                "--functional", "potential",
                "--potential-center", "0.0,0.0",
                "--potential-strength", "0.0",
                "--tau", "0.1", "--steps", "5", "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 6
        energies = [json.loads(line)["energy"] for line in lines]
        assert energies == [0.0] * 6

    def test_pca_equal_means_component(self, tmp_path, capsys):
        path = tmp_path / "g.csv"
        rng = np.random.default_rng(6)
        write_csv(
            path,
            ["m", "sigma"],
            [[0.7, s] for s in rng.random(20) + 0.5],
        )
        code = main(["pca", str(path), "--origin", "0.7,1.0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        first = payload["components"][0]
        assert first["m1"] == pytest.approx(0.7, abs=1e-12)
        assert first["s1"] == pytest.approx(2.0, abs=1e-12)

    def test_gw_subcommand_outputs_plan(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        euclidean_csv(a, np.sort(rng.normal(size=4))[:, None])
        euclidean_csv(b, np.sort(rng.normal(size=4))[:, None])
        code = main(["gw", "gw1d", str(a), str(b)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        plan = np.array(payload["plan"])
        assert np.allclose(plan.sum(axis=1), 0.25, atol=1e-12)

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # equal-eigenvalue direction cannot happen from the sampler; force a
        # not-positive-definite failure mid-run through hw on huge instance
        rng = np.random.default_rng(8)
        a = tmp_path / "a.csv"
        euclidean_csv(a, rng.normal(size=(9, 2)))
        code = main(["dist", "hw", str(a), str(a)])
        # instance-too-large is an input-validation failure
        assert code == 2
        capsys.readouterr()


class TestComputeDistanceSurface:
    def test_all_distances_run(self, tmp_path):
        rng = np.random.default_rng(9)
        cfg = RunConfig(projections=10, fw_iters=5, steps=5)

        def ds(geometry, atoms, weights=None):
            atoms = np.asarray(atoms, dtype=float)
            w = (
                np.full(atoms.shape[0], 1.0 / atoms.shape[0])
                if weights is None
                else np.asarray(weights)
            )
            return Dataset(geometry=geometry, atoms=atoms, weights=w, path="mem")

        from msot.hyperbolic import sample_wrapped_normal, origin
        from msot.spd import sample_spd_cloud

        euc = ds("euclidean", rng.normal(size=(5, 2)))
        euc2 = ds("euclidean", rng.normal(size=(6, 2)))
        lor = ds("lorentz", sample_wrapped_normal(origin(2), 0.2 * np.eye(2), 5, seed=1))
        lor2 = ds("lorentz", sample_wrapped_normal(origin(2), 0.2 * np.eye(2), 6, seed=2))
        spd_cloud = ds("spd", sample_spd_cloud(2, 4, seed=3))
        spd_cloud2 = ds("spd", sample_spd_cloud(2, 5, seed=4))
        sph = rng.normal(size=(5, 3))
        sph /= np.linalg.norm(sph, axis=1, keepdims=True)
        sph2 = rng.normal(size=(6, 3))
        sph2 /= np.linalg.norm(sph2, axis=1, keepdims=True)
        sphere_ds = ds("sphere", sph)
        sphere_ds2 = ds("sphere", sph2)
        one_d = ds("euclidean", np.sort(rng.normal(size=4))[:, None])
        one_d2 = ds("euclidean", np.sort(rng.normal(size=4))[:, None])

        cases = [
            ("sw", euc, euc2),
            ("ghsw", lor, lor2),
            ("hhsw", lor, lor2),
            ("spdsw", spd_cloud, spd_cloud2),
            ("hspdsw", spd_cloud, spd_cloud2),
            ("logsw", spd_cloud, spd_cloud2),
            ("ssw", sphere_ds, sphere_ds2),
            ("suot", euc, euc2),
            ("usw", euc, euc2),
            ("gw1d", one_d, one_d2),
            ("hw", euc, ds("euclidean", rng.normal(size=(5, 2)))),
        ]
        for name, mu, nu in cases:
            value, _ = compute_distance(name, mu, nu, cfg)
            assert np.isfinite(value)
            assert value >= -1e-12


class TestExitCodeThree:
    def test_measure_zero_projection_is_numerical_failure(self, tmp_path, capsys):
        # craft a sphere point orthogonal to the first seeded frame so the
        # great-circle projection fails mid-run: exit code 3
        from msot.sphere import sample_stiefel

        frame = sample_stiefel(4, 1, seed=0)[0]
        null = np.linalg.svd(frame.T)[2][-1]
        null /= np.linalg.norm(null)
        assert np.max(np.abs(frame.T @ null)) <= 1e-12
        path = tmp_path / "s.csv"
        euclidean_csv(path, null[None, :])
        code = main(
            [
                "dist", "ssw", str(path), str(path),
                "--geometry", "sphere", "--projections", "1", "--seed", "0",
            ]
        )
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err


class TestInputBoundary:
    @pytest.mark.parametrize("geometry", ["poincare", "lorentz"])
    @pytest.mark.parametrize("name", ["ghsw", "hhsw"])
    def test_nan_atom_exit_two(self, tmp_path, capsys, name, geometry):
        ball = np.array([[0.1, 0.2], [-0.3, 0.1], [0.0, 0.0]])
        atoms = ball if geometry == "poincare" else poincare_to_lorentz(ball)
        bad = atoms.copy()
        bad[1, 0] = np.nan
        good_path, bad_path = tmp_path / "good.csv", tmp_path / "bad.csv"
        euclidean_csv(good_path, atoms)
        euclidean_csv(bad_path, bad)
        for source, target in ((bad_path, good_path), (good_path, bad_path)):
            code = main(
                ["dist", name, str(source), str(target), "--geometry", geometry]
            )
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, header",
        [
            (["pca", "FILE"], ["mean", "sigma"]),
            (["flow", "euler", "FILE", "--steps", "2"], ["x0", "x1"]),
        ],
    )
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_exit_two(self, tmp_path, capsys, argv, header, cell):
        path = tmp_path / "a.csv"
        path.write_text(",".join(header) + f"\n0.0,1.0\n0.5,{cell}\n")
        assert main([str(path) if a == "FILE" else a for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "row 3" in captured.err

    def test_sw_zero_mass_exit_two(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        euclidean_csv(a, np.eye(3), weights=[0.0, 0.0, 0.0])
        euclidean_csv(b, -np.eye(3), weights=[0.0, 0.0, 0.0])
        assert main(["dist", "sw", str(a), str(b)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "positive total mass" in captured.err

    def test_nan_value_exit_three_with_empty_stdout(
        self, tmp_path, capsys, monkeypatch
    ):
        path = tmp_path / "a.csv"
        euclidean_csv(path, np.eye(3))
        monkeypatch.setattr(cli, "compute_distance", lambda *args: (float("nan"), {}))
        assert main(["dist", "sw", str(path), str(path)]) == 3
        assert capsys.readouterr().out == ""


class TestFlowBoundary:
    """Bad flow parameters are input errors (exit 2), not numerical ones."""

    def run(self, tmp_path, capsys, scheme, extra, dim=3):
        path = tmp_path / "c.csv"
        euclidean_csv(path, np.random.default_rng(9).normal(size=(6, dim)))
        argv = ["flow", scheme, str(path), "--steps", "2", "--inner-steps", "3",
                "--projections", "8", "--cell-volume", "0.5", *extra]
        code = main(argv)
        captured = capsys.readouterr()
        assert captured.out == ""
        return code, captured.err

    @pytest.mark.parametrize("scheme", ["euler", "jko-particles", "jko-grid"])
    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--potential-center", "0,0"], "dimension 2"),
            (["--potential-center", "nan,0,0"], "finite vector"),
            (["--potential-center", "0,x,0"], "malformed vector"),
            (["--potential-strength", "inf"], "strength must be finite"),
            (["--tau", "nan"], "tau must be positive"),
            (["--tau", "inf"], "tau must be positive"),
        ],
    )
    def test_bad_potential_flow_exits_two(
        self, tmp_path, capsys, scheme, extra, message
    ):
        functional = "fokker-planck" if scheme == "jko-grid" else "potential"
        if scheme == "euler":
            message = message.replace("tau", "step size")
        code, err = self.run(
            tmp_path, capsys, scheme, ["--functional", functional, *extra]
        )
        assert code == 2
        assert message in err

    def test_unbalanced_overflow_exits_three(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        euclidean_csv(a, rng.uniform(1e3, 4e3, (400, 2)))
        euclidean_csv(b, rng.uniform(0, 3, (3, 2)))
        with np.errstate(all="ignore"):
            code = main(["dist", "suot", str(a), str(b), "--projections", "5"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "no finite dual value" in captured.err


def test_msot_threads_caps_blas_before_numpy_loads():
    blas_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas_vars}
    env["MSOT_THREADS"] = "1"
    src = str(Path(msot.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # the thread count of the OpenBLAS bundled with numpy wheels, if any
    script = """
import ctypes, glob, os
from pathlib import Path
import msot
import numpy
threads = None
libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
for path in sorted(glob.glob(str(libs / "libscipy_openblas*.so"))):
    lib = ctypes.CDLL(path)
    for suffix in ("64_", ""):
        getter = getattr(lib, "scipy_openblas_get_num_threads" + suffix, None)
        if getter is not None and threads is None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            threads = getter()
print(os.environ.get("OPENBLAS_NUM_THREADS"), threads)
"""
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    ).stdout.split()
    assert out[0] == "1"
    assert out[1] in ("None", "1")

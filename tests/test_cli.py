import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    @pytest.mark.parametrize("side", [0, 1])
    def test_missing_file_exit_two_names_path(self, tmp_path, capsys, side):
        ok, missing = tmp_path / "ok.csv", tmp_path / "missing.csv"
        euclidean_csv(ok, np.eye(3))
        paths = [str(ok), str(ok)]
        paths[side] = str(missing)
        assert main(["dist", "sw", *paths]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{missing}: cannot read file" in captured.err

    def test_directory_exit_two(self, tmp_path, capsys):
        assert main(["pca", str(tmp_path)]) == 2
        assert f"{tmp_path}: cannot read file" in capsys.readouterr().err

    def test_non_utf8_file_exit_two_names_path(self, tmp_path, capsys):
        ok, binary = tmp_path / "ok.csv", tmp_path / "bin.csv"
        euclidean_csv(ok, np.eye(3))
        binary.write_bytes(b"x0,x1\n0.1,\xd0\xff\n")
        assert main(["dist", "sw", str(binary), str(ok)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{binary}: not UTF-8 text" in captured.err

    def test_non_utf8_byte_counts_from_the_start_of_the_file(self, tmp_path, capsys):
        """The offset of a bad byte past the first 8 KiB is the file's, not
        the one within the decoder's chunk."""
        path = tmp_path / "bin.csv"
        body = b"x0,x1\n" + b"0.1,0.2\n" * 2000 + b"0.1,\xff\n"
        path.write_bytes(body)
        assert main(["dist", "sw", str(path), str(path)]) == 2
        assert f"not UTF-8 text (byte {len(body) - 2})" in capsys.readouterr().err

    def test_csv_field_over_the_limit_exit_two(self, tmp_path, capsys):
        path = tmp_path / "long.csv"
        path.write_text("x0,x1\n0.1," + "1" * 200_000 + "\n")
        assert main(["dist", "sw", str(path), str(path)]) == 2
        assert f"{path}: malformed CSV" in capsys.readouterr().err

    @pytest.mark.parametrize("weights", [[0.0, 0.0, 0.0], [0.2, 0.3, 0.5]])
    def test_pca_rejects_weight_column(self, tmp_path, capsys, weights):
        path = tmp_path / "g.csv"
        write_csv(path, ["mean", "sigma", "weight"],
                  [[m, 1.0 + m, w] for m, w in zip([0.1, 0.2, 0.4], weights)])
        assert main(["pca", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "column 'weight' is not accepted" in captured.err

    @pytest.mark.parametrize(
        "argv, header, message",
        [
            (["dist", "sw", "FILE", "FILE", "--p", "nan"], ["x0", "x1"],
             "order p must be positive and finite, got nan"),
            (["dist", "sw", "FILE", "FILE", "--p", "inf"], ["x0", "x1"],
             "order p must be positive and finite, got inf"),
            (["dist", "ssw", "FILE", "FILE", "--geometry", "sphere", "--eps", "nan"],
             ["x0", "x1", "x2"], "eps must be positive and finite, got nan"),
            (["dist", "usw", "FILE", "FILE", "--rho1", "nan"], ["x0", "x1"],
             "rho1 must be positive and finite, got nan"),
            (["dist", "suot", "FILE", "FILE", "--rho2", "inf"], ["x0", "x1"],
             "rho2 must be positive and finite, got inf"),
            (["dist", "sw", "FILE", "FILE", "--seed", "-1"], ["x0", "x1"],
             "--seed must be a non-negative integer, got -1"),
            (["pca", "FILE", "--origin", "0"], ["mean", "sigma"], "--origin must be"),
            (["pca", "FILE", "--origin", "nan,1"], ["mean", "sigma"], "--origin must be"),
            (["pca", "FILE", "--origin", "0,-1"], ["mean", "sigma"], "--origin must be"),
            (["pca", "FILE", "--origin", "0,1,2"], ["mean", "sigma"], "--origin must be"),
            (["gw", "hw", "FILE", "FILE", "--steps", "-1"], ["x0"],
             "--steps must be a non-negative integer, got -1"),
        ],
    )
    def test_bad_parameter_exits_two(self, tmp_path, capsys, argv, header, message):
        """NaN, infinite and negative parameters are bad input named by the
        flag, not a numerical failure (exit 3), a traceback or a no-op run."""
        path = tmp_path / "a.csv"
        rows = {"x0": ["0.6", "-0.2"], "x0,x1": ["0.6,0.8", "0.8,0.6"],
                "x0,x1,x2": ["1,0,0", "0,0.6,0.8"]}.get(",".join(header), ["0.1,1.0", "0.4,1.5"])
        path.write_text("\n".join([",".join(header), *rows]) + "\n")
        assert main([str(path) if a == "FILE" else a for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("dim", ["0", "-1"])
    def test_spd_file_without_a_positive_dim_exits_two(self, tmp_path, capsys, dim):
        path = tmp_path / "spd.csv"
        path.write_text(f"dim\n{dim}\n{dim}\n" if dim == "0" else f"dim,m0\n{dim},1\n")
        assert main(["dist", "spdsw", str(path), str(path), "--geometry", "spd"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{path}: 'dim' must be a positive integer, got {dim}" in captured.err

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
            (["--steps", "-1"], "--steps must be a non-negative integer, got -1"),
            (["--inner-steps", "-1"], "--inner-steps must be a non-negative integer"),
            (["--seed", "-1"], "--seed must be a non-negative integer, got -1"),
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

    @pytest.mark.parametrize("scheme", ["euler", "jko-particles"])
    @pytest.mark.parametrize("b", ["0", "-1"])
    def test_kernel_exponent_b_must_be_positive(self, tmp_path, capsys, scheme, b):
        # |0|^b / b on the diagonal is infinite or 0/0 for b <= 0
        code, err = self.run(tmp_path, capsys, scheme, [f"--kernel-b={b}"])
        assert code == 2
        assert "0 < b < a" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "scheme, extra, message",
        [
            ("euler", ["--kernel-a", "1e308", "--kernel-b", "1"],
             "Euler flow diverged at step 1: non-finite energy"),
            ("euler", ["--functional", "potential", "--potential-strength", "1e308"],
             "Euler flow diverged at step 1: non-finite energy"),
            ("jko-particles", ["--functional", "potential", "--potential-strength", "1e308"],
             "particle JKO flow diverged at step 1: non-finite gradient"),
            ("jko-particles", ["--kernel-a", "1e308", "--kernel-b", "1"],
             "particle JKO flow diverged at step 1: non-finite gradient"),
        ],
        ids=["euler-kernel", "euler-potential", "jko-potential", "jko-kernel"],
    )
    def test_diverging_particle_flow_warns_nothing(self, tmp_path, capsys, scheme, extra,
                                                   message):
        """An overflowing particle flow exits 3 naming the step, and numpy
        prints no warning ahead of that message."""
        path = tmp_path / "ok.csv"
        euclidean_csv(path, [[0.1, 0.2], [-0.3, 0.4], [0.5, -0.1]])
        assert main(["flow", scheme, str(path), "--steps", "1", *extra]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"numerical failure: {message}\n"

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


# --- the JSON emitter, the parser and the import ----------------------------

SCALARS = (
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 0.0, 1e300, 5e-324])
    | st.text(max_size=6) | st.sampled_from([", ", "a, b", '"', "[1, 2]", "{}", "\n"])
)
NUMBERS = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-5, 5)
JSON_VALUES = st.recursive(
    SCALARS | st.lists(NUMBERS, max_size=6) | st.lists(st.lists(NUMBERS, max_size=4), max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=20,
)
NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])


def _reference_json(payload):
    try:
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        return exc


@settings(max_examples=300, deadline=None)
@given(payload=st.dictionaries(st.text(max_size=4), JSON_VALUES, max_size=5))
def test_emitter_text_is_json_dumps_with_indent(payload):
    """``_emit`` writes ``json.dumps(payload, sort_keys=True, indent=2,
    allow_nan=False)`` byte for byte, stamped with the command and the
    wall-clock field."""
    args = SimpleNamespace(command="dist", out=None)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(args, 0.0, payload)
    assert out.getvalue() == _reference_json(payload) + "\n"


@settings(max_examples=300, deadline=None)
@given(value=JSON_VALUES, bad=NON_FINITE, where=st.integers(0, 3))
def test_emitter_rejects_non_finite_with_the_reference_message(value, bad, where):
    """A NaN or infinity anywhere raises the pure-Python encoder's
    ``ValueError``, which names the value, and text is equal otherwise."""
    payload = [
        {"value": value, "bad": bad},
        {"rows": [[1.0, 2.0], [3.0, bad]]},
        {"row": [0.5, bad, 1.5], "first": value},
        [value, [bad]],
    ][where]
    want = _reference_json(payload)
    assert isinstance(want, ValueError)
    with pytest.raises(ValueError) as err:
        cli._json(payload)
    assert str(err.value) == str(want)
    assert str(err.value).endswith(repr(bad))


def test_emitter_keeps_the_layout_of_a_dense_plan():
    plan = np.zeros((30, 25))
    plan[np.arange(25), np.arange(25)] = 1 / 25
    payload = {"plan": plan.tolist(), "inputs": ["a, b.csv", "c.csv"], "value": -0.0,
               "empty": [], "nested": {"rows": [[], [1, 2.5]], "none": None},
               "other keys": {1: [0.5, 1.5], 2: {"a": (1, 2)}}, "tuples": [(1, 2), [(3,)]]}
    assert cli._json(payload) == json.dumps(payload, sort_keys=True, indent=2)


def test_parser_is_built_once_and_holds_no_run_state(tmp_path):
    """``main`` reuses one parser; a run's flags do not leak into the next,
    and ``build_parser`` still returns a fresh parser."""
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    euclidean_csv(a, np.random.default_rng(1).normal(size=(5, 2)))
    euclidean_csv(b, np.random.default_rng(2).normal(size=(6, 2)))
    first = ["dist", "sw", str(a), str(b), "--seed", "5", "--p", "1",
             "--projections", "7", "--out", str(tmp_path / "one.json")]
    assert main(first) == 0
    assert main(["matrix", "sw", str(a), str(b), "--out", str(tmp_path / "two.json")]) == 0
    assert main([*first[:-1], str(tmp_path / "three.json")]) == 0
    one, two, three = (json.loads((tmp_path / f"{k}.json").read_text())
                       for k in ("one", "two", "three"))
    assert two["command"] == "matrix"
    assert two["config"] == RunConfig().echo() | {"geometry": "euclidean"}
    assert one["config"]["seed"] == 5 and one["config"]["projections"] == 7
    for payload in (one, three):
        payload.pop("wallclock_ms")
    assert one == three


@pytest.mark.parametrize(
    "command, flag, value",
    [
        (["pca", "g.csv"], "--origin", "-0.5,1"),
        (["flow", "euler", "a.csv", "--functional", "potential"], "--potential-center", "-1,0"),
        (["flow", "euler", "a.csv", "--functional", "potential"], "--potential-strength", "-1e-3"),
        (["flow", "jko-particles", "a.csv", "--functional", "potential",
          "--projections", "8", "--inner-steps", "3"], "--potential-center", "-.5,-2e-1"),
    ],
    ids=["origin", "center", "strength-exponent", "center-leading-dot"],
)
def test_negative_flag_value_reads_as_its_equals_form(tmp_path, capsys, command, flag, value):
    """A value-taking flag followed by a value with a leading minus prints the
    same stdout bytes as ``flag=value``, up to ``wallclock_ms``."""
    write_csv(tmp_path / "g.csv", ["mean", "sigma"], [[0.1, 1.0], [0.4, 1.5], [-0.2, 0.7]])
    euclidean_csv(tmp_path / "a.csv", [[0.1, 0.2], [-0.3, 0.4], [0.5, -0.1]])
    argv = [str(tmp_path / arg) if arg.endswith(".csv") else arg for arg in command]
    outs = []
    for tail in ([flag, value], [f"{flag}={value}"]):
        assert main([*argv, "--steps", "2", *tail]) == 0
        outs.append(re.sub(r'"wallclock_ms": [^,\n]*', "", capsys.readouterr().out))
    assert outs[0] == outs[1]
    assert outs[0]


def _run_script(script):
    env = dict(os.environ)
    src = str(Path(msot.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)


def test_import_leaves_scipy_out():
    proc = _run_script("import sys, msot.cli; print('scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_every_command_runs_without_scipy(tmp_path):
    """With ``scipy`` blocked, ``dist``, ``matrix``, ``pca``, ``gw`` and
    ``flow`` all run through ``cli.main`` and exit 0."""
    script = f"""
import sys
sys.modules["scipy"] = None
from msot.cli import main
d = {str(tmp_path)!r}
open(d + "/a.csv", "w").write("x0,x1\\n0.1,0.2\\n-0.3,0.4\\n0.5,-0.1\\n")
open(d + "/g.csv", "w").write("mean,sigma\\n0.1,1.0\\n0.4,1.5\\n-0.2,0.7\\n")
open(d + "/l.csv", "w").write("x0\\n0.1\\n-0.4\\n0.9\\n")
runs = [
    ["dist", "sw", d + "/a.csv", d + "/a.csv", "--projections", "8"],
    ["matrix", "sw", d + "/a.csv", d + "/a.csv", "--projections", "8"],
    ["pca", d + "/g.csv"],
    ["gw", "gw1d", d + "/l.csv", d + "/l.csv"],
    ["flow", "euler", d + "/a.csv", "--steps", "2"],
]
codes = [main([*argv, "--out", d + "/out.json"]) for argv in runs]
print(*codes)
"""
    proc = _run_script(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"] * 5

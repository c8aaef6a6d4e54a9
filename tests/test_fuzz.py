"""CLI fuzz for ``msot flow``: bad input never exits 0 with non-finite output.

Every scheme x functional pair that ``run_flow`` accepts is run on files
with NaN and +-inf cells, on empty files and with a potential center of
the wrong dimension; each must exit 2 (bad input) or 3 (numerical
failure) with nothing on stdout.  Valid seeded runs must rerun to
byte-identical JSONL, and a Hypothesis fuzz over the step size and the
potential's parameters checks that an exit 0 only ever carries finite
numbers.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msot.cli import main

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

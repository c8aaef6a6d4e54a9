"""Differential test of the CSV ingest boundary.

``msot.cli.load_dataset`` reads a plain file (ASCII, no character on which
``csv`` and ``str.splitlines`` part) through numpy's C reader, and every
other file, or one the C reader refuses, through its row reader: it splits
plain text itself and hands the rest to ``csv``.  Manifold membership is
left to the library's vectorized checks.  So the generated files hold
``repr`` and ``%.17g`` cells (the format of ``np.savetxt`` and of the
benchmark), tens of rows as well as a few, quotes, CR and CRLF line ends,
a missing final newline, the characters ``str.splitlines`` breaks on and
non-ASCII digits.  The loader must agree with the row-by-row reference
loader in ``tests/oracles.py`` on every file: the same atoms and weights,
bit for bit, or the same error class and message, naming the same row.  Two deviations are documented, each
with its own test: the SPD symmetry tolerance is the library's relative
one, and a Lorentz file without coordinate columns is bad input instead
of an ``IndexError``.
"""

import csv
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msot import cli, spd
from msot.cli import load_dataset, main
from msot.errors import InvalidInput
from msot.hyperbolic import project_to_hyperboloid
from oracles import load_dataset_rows

GEOMETRIES = ("euclidean", "lorentz", "poincare", "spd", "sphere", "gaussian1d")
BAD_TOKENS = ["nan", "-inf", "inf", "1e400", "-1e400", "1_000", "NaN", "Infinity",
              "abc", "", " ", "1.2.3", "0x10", "--1", " 2.5 ", "+1", "-0.0"]
BLANK_ROWS = ["", "   ", ",,", " , \t"]
# characters a CSV cell may hold that ``csv`` and ``str.splitlines`` read
# differently: form feed, vertical tab, the separators \x1c-\x1e, NUL and
# the non-ASCII line breaks
ODD_CHARS = ["\f", "\v", "\x1c", "\x1d", "\x1e", "\x00", "\x85", "\u2028"]
# cells in non-ASCII digits, which ``float`` reads
UNICODE_NUMBERS = ["\u0661\u0662", "\u0663.\u0665", "\uff11\uff12", "-\u0660.\u0665"]


def _atoms(geometry, rng, n, d, scale):
    """``n`` valid atoms of the geometry as file rows (SPD: ``dim`` and the
    entries), and the header."""
    if geometry == "spd":
        a = rng.normal(size=(n, d, d))
        mats = scale * (a @ np.swapaxes(a, 1, 2) + np.eye(d))
        data = np.column_stack([np.full(n, d), mats.reshape(n, -1)])
        return data, ["dim"] + [f"m{k}" for k in range(d * d)]
    if geometry == "lorentz":
        data = project_to_hyperboloid(rng.normal(size=(n, d + 1)))
    elif geometry == "poincare":
        data = rng.uniform(-0.5, 0.5, (n, d)) / np.sqrt(d)
    elif geometry == "sphere":
        x = rng.normal(size=(n, d)) + 0.1
        data = x / np.linalg.norm(x, axis=1, keepdims=True)
    elif geometry == "gaussian1d":
        data = np.column_stack([rng.normal(size=n), rng.uniform(0.5, 2.0, n)])
    else:
        data = rng.normal(size=(n, d)) * scale
    return data, [f"x{k}" for k in range(data.shape[1])]


def _off_manifold(geometry, row, how):
    """Move one atom off its manifold, or close to its edge on either side."""
    if geometry == "spd":
        d = int(row[0])
        mat = row[1:].reshape(d, d).copy()
        scale = np.max(np.abs(mat))
        if how == 0:
            mat = -mat
        elif how == 1:  # smallest eigenvalue at the floor's scale
            w, v = np.linalg.eigh(mat)
            w[0] = 5e-14
            mat = (v * w) @ v.T
        else:  # asymmetric: clearly (1e-3) or only in absolute terms (1e-12)
            mat.flat[d - 1] += scale * (1e-3 if how == 2 else 1e-12)
        return np.concatenate([row[:1], mat.ravel()])
    how %= 3
    if geometry == "lorentz":
        return [-row, 1.5 * row, row + 1e-12][how]
    if geometry == "poincare":
        return [row * 1.5 / max(np.linalg.norm(row), 1e-3), row / np.linalg.norm(row),
                row * 0.999][how]
    if geometry == "sphere":
        return [row * 1.1, row * (1 + 2e-6), row * (1 + 1e-7)][how]
    if geometry == "gaussian1d":
        return [row * [1, -1], row * [1, 0], row * [1, 1e-300]][how]
    return row + [1e300, 0, 1e-300][how]  # R^d has no edge


@st.composite
def csv_files(draw):
    geometry = draw(st.sampled_from(GEOMETRIES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.one_of(st.integers(1, 5), st.integers(10, 40)))
    d = draw(st.integers(1, 3))
    scale = draw(st.sampled_from([1.0, 1000.0]))
    data, header = _atoms(geometry, rng, n, d, scale)
    if draw(st.booleans()):
        data = np.column_stack([data, rng.uniform(0.1, 1.0, n)])
        header = header + [draw(st.sampled_from(["weight", "Weight", " WEIGHT "]))]
        if draw(st.integers(0, 3)) == 3:
            data[draw(st.integers(0, n - 1)), -1] *= -1
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, n - 1))
        how = draw(st.integers(0, 3))
        width = data.shape[1] - (header[-1].strip().lower() == "weight")
        data[k, :width] = _off_manifold(geometry, data[k, :width], how)
    cell = draw(st.sampled_from(["{!r}", "{:.17g}"]))
    rows = [[cell.format(float(v)) for v in row] for row in data]
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(["token", "float", "short", "long", "blank", "dim"]))
        if not rows[k]:
            continue
        if kind == "dim":  # an SPD layout error, or one more value elsewhere
            rows[k][0] = str(draw(st.integers(0, 3)))
        elif kind == "token":
            rows[k][draw(st.integers(0, len(rows[k]) - 1))] = draw(st.sampled_from(BAD_TOKENS))
        elif kind == "float":
            value = draw(st.floats(allow_nan=True, allow_infinity=True))
            rows[k][draw(st.integers(0, len(rows[k]) - 1))] = repr(value)
        elif kind == "short":
            rows[k] = rows[k][:-1]
        elif kind == "long":
            rows[k] = rows[k] + ["0.5"]
        else:
            rows.insert(k, [draw(st.sampled_from(BLANK_ROWS))])
    if geometry == "spd" and draw(st.integers(0, 9)) == 7:
        header[0] = "d"
    table = [header] + rows
    for _ in range(draw(st.integers(0, 4))):
        k = draw(st.integers(0, len(table) - 1))
        if not table[k]:
            continue
        j = draw(st.integers(0, len(table[k]) - 1))
        kind = draw(st.sampled_from(["odd", "quote", "unicode", "quote-comma"]))
        cell = table[k][j]
        if kind == "quote":  # a quoted cell or header, perhaps with a "" escape
            inner = cell.replace('"', '""') + draw(st.sampled_from(["", '""']))
            table[k][j] = f'"{inner}"'
        elif kind == "quote-comma":  # one quoted cell spanning a comma
            table[k][j] = f'"{cell},{cell}"'
        elif kind == "odd":
            at = draw(st.integers(0, len(cell)))
            table[k][j] = cell[:at] + draw(st.sampled_from(ODD_CHARS)) + cell[at:]
        else:
            table[k][j] = draw(st.sampled_from(UNICODE_NUMBERS))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    end = newline if draw(st.booleans()) else ""  # a missing final newline
    return geometry, newline.join(",".join(row) for row in table) + end


def _load(loader, path, geometry):
    try:
        return loader(path, geometry)
    except Exception as exc:  # noqa: BLE001 - compared class and message
        return exc


def _assert_agree(geometry, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "data.csv")
        Path(path).write_bytes(text.encode())
        got = _load(load_dataset, path, geometry)
        want = _load(
            lambda p, g: load_dataset_rows(p, g, relative_symmetry=True), path, geometry
        )
    if isinstance(want, IndexError):  # a Lorentz file without coordinates
        assert geometry == "lorentz"
        assert isinstance(got, InvalidInput)
        assert "need a time coordinate" in str(got)
    elif isinstance(want, Exception):
        assert type(got) is type(want)
        assert str(got) == str(want)
    else:
        assert not isinstance(got, Exception), got
        atoms, weights = want
        assert got.atoms.shape == atoms.shape
        assert got.atoms.tobytes() == atoms.tobytes()
        assert got.weights.tobytes() == weights.tobytes()


@settings(max_examples=600, deadline=None)
@given(case=csv_files())
def test_loader_agrees_with_row_by_row_reference(case):
    _assert_agree(*case)


@pytest.mark.parametrize("char", ODD_CHARS)
@pytest.mark.parametrize(
    "template",
    ["x0,x1\n1.5,2{c}\n3,4\n", "x0,x1\n1.{c}5,2\n3,4\n", "x0{c},x1\n1,2\n",
     "x0,x1\r\n{c}1,2\r\n3,4", '"x0","x1"\r1,"2{c}"\r3,4\r'],
)
def test_loader_agrees_on_odd_characters(char, template):
    """Each character on which ``csv`` and ``str.splitlines`` part, at the
    start, inside and at the end of a cell, quoted or not."""
    _assert_agree("euclidean", template.format(c=char))


@pytest.mark.parametrize(
    "text",
    [
        "x0,x1\n1,2\n\n\n3,4\n",  # empty lines between rows
        "x0,x1\n1,2\n   \n3,4\n",  # whitespace-only rows: the C reader rejects them
        "x0\n1\n\t\n2\n",
        "\n\nx0,x1\n1,2\n",  # blank lines before the header
        " \t\n,,\nx0,x1\n1,2\n",
        " , \n1,2\n3,4\n",  # a blank row of the header's width comes first
        "x0,x1\n",  # header only: ``loadtxt`` would warn "input contained no data"
        "x0,x1\n\n\n",
        "x0,x1\n  \n",
        "x0,x1\n1,2,\n",  # trailing comma
        "x0,x1,\n1,2,\n",
        "x0,x1\n\t1.5\t,\t-2\t\n2,\t3\n",  # tab-padded cells
        "x0,x1\n#1,2\n",  # comments=None: ``#`` is a character of the cell
        "#x0,x1\n1,2\n",
        "x0,x1\n1_000,2\n",  # ``float`` reads it, the C reader does not
        "x0,x1\n1\x1f,2\n",  # the C reader strips it as whitespace, ``float`` does not
        "x0,weight\n1,0.5\n2,-0.5\n",
        "x0,x1\n1,2\n1e400,2\n",
        "x0,x1\n1,2\r3,4\r\n\r5,6",
    ],
)
def test_loader_agrees_on_edge_files(text):
    """Files on the edge between numpy's C reader and the row reader; no
    warning of either may leak."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_agree("euclidean", text)


def test_field_over_the_csv_limit_is_malformed(tmp_path):
    """A number longer than ``csv.field_size_limit()`` is malformed CSV to
    both loaders, though ``float`` and the C reader both read it."""
    cell = "0.25" + "0" * csv.field_size_limit()
    assert np.loadtxt([cell], delimiter=",", comments=None)[()] == float(cell) == 0.25
    path = tmp_path / "long.csv"
    path.write_text(f"x0,x1\n0.1,{cell}\n")
    with pytest.raises(csv.Error) as want:
        load_dataset_rows(str(path), "euclidean")
    with pytest.raises(InvalidInput) as got:
        load_dataset(str(path), "euclidean")
    assert str(got.value) == f"{path}: malformed CSV: {want.value}"


@pytest.mark.parametrize(
    "text, row_reader",
    [
        ("x0,x1\n1,2\n3,4\n", False),
        ("x0,x1\r\n1,2\r\n3,4\r\n", False),
        ("x0,x1\r1,2\r3,4", False),
        ("x0,weight\n0.1,0.5\n\n0.2,0.5\n", False),
        (None, False),  # 1,000 rows written by ``np.savetxt``
        ('"x0",x1\n1,2\n', True),  # quoted
        ("x0,x1\n1,2\nabc,4\n", True),  # a bad row
        ("x0,x1\n1,2\n  \n3,4\n", True),  # a whitespace-only row
        ("x0,weight\n0.1,-0.5\n", True),  # a negative weight
        ("x0,x1\n1,\u0662\n", True),  # non-ASCII
    ],
)
def test_plain_file_never_reaches_the_row_reader(tmp_path, monkeypatch, text, row_reader):
    """Plain files are parsed by numpy's C reader alone; every other file
    goes through ``_read_rows``.  Both give the reference's result."""
    path = tmp_path / "data.csv"
    if text is None:
        data = np.random.default_rng(0).normal(size=(1000, 3))
        np.savetxt(path, data, delimiter=",", header="x0,x1,x2", comments="", fmt="%.17g")
        text = path.read_text()
    calls = []
    read_rows = cli._read_rows
    monkeypatch.setattr(cli, "_read_rows", lambda *args: calls.append(1) or read_rows(*args))
    _assert_agree("euclidean", text)
    assert bool(calls) == row_reader


def _write(tmp_path, header, rows):
    path = tmp_path / "data.csv"
    lines = [",".join(header)] + [",".join(repr(float(v)) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_spd_symmetry_tolerance_is_the_library_one(tmp_path):
    """The one rule change: 1e-9 asymmetry on a 1000-scale matrix was
    rejected by the absolute 1e-10 of the old row check, and is accepted
    now, as ``spdsw`` accepts it."""
    mat = 1000.0 * np.array([[2.0, 0.5], [0.5, 1.0]])
    mat[0, 1] += 1e-9
    path = _write(tmp_path, ["dim", "m0", "m1", "m2", "m3"], [[2, *mat.ravel()]])
    with pytest.raises(InvalidInput, match="row 2: matrix not symmetric"):
        load_dataset_rows(path, "spd")
    atoms = load_dataset(path, "spd").atoms
    assert atoms.tobytes() == load_dataset_rows(path, "spd", relative_symmetry=True)[0].tobytes()
    slices = spd.sample_unit_symmetric(2, 4, seed=0)
    assert np.isfinite(spd.spdsw(atoms, atoms, slices))
    # beyond the relative tolerance both reject, naming the row
    mat[0, 1] += 1e-3
    path = _write(tmp_path, ["dim", "m0", "m1", "m2", "m3"],
                  [[2, 1.0, 0.0, 0.0, 1.0], [2, *mat.ravel()]])
    with pytest.raises(InvalidInput, match="row 3: matrix not symmetric"):
        load_dataset(path, "spd")


def test_lorentz_file_without_coordinates_is_bad_input(tmp_path):
    path = _write(tmp_path, ["weight"], [[1.0], [2.0]])
    with pytest.raises(IndexError):
        load_dataset_rows(path, "lorentz")
    with pytest.raises(InvalidInput, match="need a time coordinate"):
        load_dataset(path, "lorentz")


@pytest.mark.parametrize(
    "geometry, row, message",
    [
        ("lorentz", [-1.0, 0.0], "positive time coordinate"),
        ("lorentz", [2.0, 0.0], "off the hyperboloid by 3.00e+00"),
        ("poincare", [0.6, 0.8], "norm < 1"),
        ("sphere", [0.6, 0.7], "not on the unit sphere"),
        ("gaussian1d", [0.0, -1.0], "(mean, sigma>0)"),
        ("lorentz", [1e200, 1e200], "off the hyperboloid by inf"),
    ],
)
def test_first_offending_atom_names_its_row(tmp_path, geometry, row, message):
    good = {"lorentz": [1.0, 0.0], "poincare": [0.0, 0.0], "sphere": [1.0, 0.0],
            "gaussian1d": [0.0, 1.0]}[geometry]
    path = _write(tmp_path, ["a", "b"], [good, good, row, row])
    with pytest.raises(InvalidInput) as err:
        load_dataset(path, geometry)
    assert str(err.value).startswith(f"{path}: row 4: ")
    assert message in str(err.value)


@pytest.mark.parametrize(
    "name, geometry, row, reason",
    [
        ("ghsw", "lorentz", [1e200, 1e200, 0.0], "points off the hyperboloid by inf"),
        ("ghsw", "poincare", [1e200, 0.0, 0.0], "Poincare points must have norm < 1"),
        ("ssw", "sphere", [1e200, 0.0, 0.0], "not on the unit sphere"),
    ],
)
def test_overflowing_row_exits_two_without_warnings(
    tmp_path, capsys, name, geometry, row, reason
):
    """Finite coordinates whose squares overflow are off the manifold (the
    hyperboloid by inf); no numpy warning reaches stderr ahead of the error."""
    path = _write(tmp_path, ["x0", "x1", "x2"], [row])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["dist", name, path, path, "--geometry", geometry])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {path}: row 2: {reason}"]

"""Every top-level definition in ``src/msot`` has a caller outside the tests.

A definition that only the tests reach is test code kept in the package:
it belongs in ``tests/oracles.py`` or goes.  Callers are read off the
syntax trees of ``src/`` (the package's re-exports in ``__init__.py`` do
not count), ``scripts/`` and ``perfbench/``: a name counts as called
when it appears as an ``ast.Name`` or as the attribute of an
``ast.Attribute``, so a name that only a docstring mentions has no
caller.  The paper's own API, which users call and the package does not,
is listed in ``PAPER_API`` with the reason it stays.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "msot"

PAPER_API = {
    "BWGaussian": "a Gaussian of the Bures-Wasserstein space, the argument of busemann_bw",
    "QuantileRay": "a 1D quantile ray, the argument of busemann_w1d and project_on_ray",
    "busemann_bw": "the Bures-Wasserstein Busemann closed form",
    "project_on_ray": "projection of a measure on a Gaussian or quantile ray",
    "mk_gaussian": "the Monge-Knothe Gaussian subspace detour",
    "mi_gaussian": "the Monge-Independent Gaussian subspace detour",
    "lorentz_to_poincare": "isometry from the hyperboloid to the Poincare ball",
    "poincare_to_lorentz": "isometry from the Poincare ball to the hyperboloid",
    "build_profile": "a sorted 1D measure, the input of the scalar 1D solvers",
    "nw_corner": "the dense north-west corner plan of two 1D measures",
    "quantile": "the quantile function of a 1D profile",
    "wasserstein_1d": "exact 1D W_p^p between two profiles",
    "dist_le": "the Log-Euclidean distance on SPD matrices",
    "dist_ai": "the affine-invariant distance on SPD matrices",
    "kernel_features": "the feature map of the sliced SPD kernel",
    "gaussian_kernel": "the Gaussian kernel on those features",
    "spd_exp": "the matrix exponential onto SPD matrices, inverse of spd_log",
    "sliced_dual": "the unbalanced 1D dual of one slice",
    "phi_conj": "the conjugate of the KL marginal penalty in the unbalanced dual",
}


def _definitions():
    """Top-level function, class and assigned names of every module."""
    names = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names[node.name] = path.stem
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update((t.id, path.stem) for t in targets if isinstance(t, ast.Name))
    return names


def _referenced():
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += [*(ROOT / "scripts").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]
    found = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
    return found


def test_every_definition_has_a_caller_or_is_paper_api():
    referenced = _referenced()
    uncalled = sorted(
        f"{module}.{name}"
        for name, module in _definitions().items()
        if name not in referenced and name not in PAPER_API
    )
    assert not uncalled, f"only the tests call these: {uncalled}"


def test_paper_api_entries_are_defined_and_uncalled():
    definitions = _definitions()
    referenced = _referenced()
    stale = sorted(n for n in PAPER_API if n not in definitions or n in referenced)
    assert not stale, f"drop these from PAPER_API: {stale}"

"""One scratch per solve: the Frank-Wolfe loop of ``suot``/``usw``, the 1D
dual sweep inside it and the interaction matrices of the flows write their
large temporaries into buffers that live for one solve.  Held here against
their earlier fresh-array bodies bit for bit; no buffer leaves a solve or is
seen by another thread; and a repeated solve takes a bounded number of page
faults."""

import contextvars
import gc
import json
import os
import subprocess
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from msot import flows, measures, unbalanced
from msot.errors import DualOverflow
from msot.flows import (
    EntropyFunctional,
    GridState,
    InnerOptimizer,
    InteractionFunctional,
    SumFunctional,
    SwToTargetFunctional,
    euler_particles,
    quadratic_potential,
    swjko_grid,
    swjko_particles,
)
from msot.sliced import EuclideanSlicer, sample_directions
from msot.unbalanced import UnbalancedParams, suot, usw
from oracles import (
    InteractionFresh,
    dual_1d_batched_gathers,
    suot_fresh,
    usw_fresh,
)


def same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _pair(kind, seed):
    """Clouds and weights: ``tied`` integer atoms of equal size and uniform
    weights (every level tied in the first round), ``zero`` weights with
    zeros on both sides, ``uneven`` clouds of different sizes."""
    rng = np.random.default_rng(seed)
    if kind == "tied":
        x = rng.integers(-2, 3, size=(24, 2)).astype(float)
        return x, rng.integers(-1, 4, size=(24, 2)).astype(float), None, None
    if kind == "zero":
        a, b = rng.random(20), rng.random(20)
        a[[0, 5, 6]], b[[3, 19]] = 0.0, 0.0
        return rng.normal(size=(20, 2)), rng.normal(size=(20, 2)) + 0.5, a / a.sum(), b / b.sum()
    a = rng.random(31)
    return rng.normal(size=(31, 2)), rng.normal(size=(17, 2)) * 0.7 + 1.0, a / a.sum(), None


KINDS = ["tied", "zero", "uneven"]
PARAMS = [
    UnbalancedParams(rho1=1.0, rho2=1.0, p=2.0, n_iters=8, eps=0.0),
    UnbalancedParams(rho1=0.3, rho2=2.0, p=1.0, n_iters=6, eps=1e-10),
    UnbalancedParams(rho1=0.5, rho2=0.5, p=1.5, n_iters=5, eps=0.0),
]


def _slicer(L=12, seed=3):
    return EuclideanSlicer(sample_directions(2, L, seed))


@pytest.mark.parametrize("params", PARAMS, ids=["p2", "p1", "p1.5"])
@pytest.mark.parametrize("kind", KINDS)
def test_suot_is_the_fresh_loop(kind, params):
    x, y, a, b = _pair(kind, 1)
    value, pots, history = suot(x, y, _slicer(), params, a, b)
    (want, f, g), want_history = suot_fresh(x, y, _slicer(), params, a, b)
    assert value == want
    assert same_bits(pots.f, f) and same_bits(pots.g, g)
    assert same_bits(history, want_history)


@pytest.mark.parametrize("stochastic", [False, True])
@pytest.mark.parametrize("params", PARAMS, ids=["p2", "p1", "p1.5"])
@pytest.mark.parametrize("kind", KINDS)
def test_usw_is_the_fresh_loop(kind, params, stochastic):
    x, y, a, b = _pair(kind, 2)
    fresh = (lambda t: _slicer(9, 100 + t)) if stochastic else None
    value, pots, marginals, history = usw(x, y, _slicer(), params, a, b, stochastic_slicer=fresh)
    (want, f, g), (source, target), want_history = usw_fresh(
        x, y, _slicer(), params, a, b, stochastic_slicer=fresh)
    assert value == want
    assert same_bits(pots.f, f) and same_bits(pots.g, g)
    assert same_bits(marginals.source, source) and same_bits(marginals.target, target)
    assert same_bits(history, want_history)


def test_overflow_is_raised_where_the_fresh_loop_finds_nothing():
    # costs of order 1e7 against rho = 1: every round's dual value overflows
    rng = np.random.default_rng(0)
    x, y = rng.uniform(1e3, 4e3, (400, 2)), rng.uniform(0.0, 3.0, (3, 2))
    params = UnbalancedParams(n_iters=4)
    with np.errstate(over="ignore", invalid="ignore"):
        (value, f, _), _ = suot_fresh(x, y, _slicer(5, 0), params)
        assert value == -np.inf and f is None
        with pytest.raises(DualOverflow):
            suot(x, y, _slicer(5, 0), params)


def _interaction_cloud(n, d, seed):
    """A cloud with two repeated atoms, so that some off-diagonal squared
    distances are exactly zero."""
    x = np.random.default_rng(seed).normal(size=(n, d)) * 0.4
    x[1], x[-1] = x[0], x[2]
    return x


# (a, b) for the default powers (square, copy, ones), square roots and a
# general power
KERNELS = [(4.0, 2.0), (3.0, 1.0), (5.0, 2.5)]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kernel", KERNELS, ids=str)
def test_euler_interaction_is_the_fresh_functional(kernel, d):
    x0 = _interaction_cloud(40, d, 5)
    runs = [euler_particles(x0, make(*kernel), step_size=0.02, n_steps=6, record_positions=True)
            for make in (InteractionFunctional, InteractionFresh)]
    got, want = ([r.positions for r in t.records] + [t.energies] for t in runs)
    assert all(same_bits(u, v) for u, v in zip(got, want, strict=True))


def test_weighted_interaction_surfaces_are_the_fresh_ones():
    x = _interaction_cloud(30, 2, 6)
    w = np.random.default_rng(7).random(30)
    w /= w.sum()
    new, old = InteractionFunctional(), InteractionFresh()
    with measures._solve_scratch():
        got = [new.value(x, w), new.particle_gradient(x, w), *new.value_and_gradient(x, w)]
    want = [old.value(x, w), old.particle_gradient(x, w), *old.value_and_gradient(x, w)]
    assert all(same_bits(u, v) for u, v in zip(got, want, strict=True))


def test_particle_jko_with_interaction_is_the_fresh_functional():
    x0 = _interaction_cloud(20, 2, 8)
    runs = [swjko_particles(x0, SumFunctional([make(), quadratic_potential(np.zeros(2))]),
                            tau=0.1, n_steps=2, inner=InnerOptimizer(0.01, 5), n_projections=7,
                            seed=9, record_positions=True)
            for make in (InteractionFunctional, InteractionFresh)]
    got, want = ([r.positions for r in t.records] + [t.energies] for t in runs)
    assert all(same_bits(u, v) for u, v in zip(got, want, strict=True))


def _grid(side=6):
    axis = np.linspace(-1.0, 1.0, side)
    nodes = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
    rho0 = np.exp(-np.sum((nodes + 0.3) ** 2, axis=-1))
    rho0[[0, 3, 7]] = 0.0
    return GridState(nodes=nodes, rho=rho0 / rho0.sum(), cell_volume=0.16)


def _grid_run(grid, interaction):
    target = np.random.default_rng(10).integers(-2, 3, size=(15, 2)) / 2.0
    func = SumFunctional([SwToTargetFunctional(target, sample_directions(2, 8, seed=11)),
                          interaction, EntropyFunctional()])
    trace = swjko_grid(grid, func, tau=0.2, n_steps=3, record_rho=True,
                       inner=InnerOptimizer(learning_rate=0.01, n_steps=6), n_projections=5,
                       seed=12)
    return [r.rho for r in trace.records] + [trace.energies]


def test_grid_flow_is_the_fresh_loop(monkeypatch):
    # zero weights tie levels of the dual; the target's dual has other shapes
    got = _grid_run(_grid(), InteractionFunctional())
    monkeypatch.setattr(flows, "dual_1d_batched", dual_1d_batched_gathers)
    want = _grid_run(_grid(), InteractionFresh())
    assert all(same_bits(u, v) for u, v in zip(got, want, strict=True))


# ---------------------------------------------------------------------------
# buffers stay inside their solve
# ---------------------------------------------------------------------------


SOLVES = {
    "suot": lambda k: suot(*_pair("uneven", k)[:2], _slicer(), PARAMS[0]),
    "usw": lambda k: usw(*_pair("zero", k)[:2], _slicer(), PARAMS[0]),
    "euler": lambda k: euler_particles(_interaction_cloud(30, 2, k), InteractionFunctional(),
                                       step_size=0.02, n_steps=4, record_positions=True),
    "grid": lambda k: swjko_grid(_grid(5 + k % 2), quadratic_potential(np.zeros(2)), tau=0.2,
                                 n_steps=2, inner=InnerOptimizer(0.01, 4), n_projections=4,
                                 seed=k, record_rho=True),
}


def _arrays(result):
    """Every array a solve returns."""
    if isinstance(result, flows.FlowTrace):
        return [a for r in result.records for a in (r.positions, r.rho) if a is not None]
    found = []
    for item in result:
        if isinstance(item, np.ndarray):
            found.append(item)
        elif not isinstance(item, float):
            found.extend(vars(item).values())
    return found


@pytest.fixture
def handed_out(monkeypatch):
    """Every buffer a solve's scratch hands out."""
    held = []
    real = measures._buffer

    def recording(role, shape, dtype=np.float64):
        out = real(role, shape, dtype)
        if measures._SCRATCH.get() is not None:
            held.append(out)
        return out

    for module in (measures, unbalanced, flows):
        if hasattr(module, "_buffer"):
            monkeypatch.setattr(module, "_buffer", recording)
    return held


@pytest.mark.parametrize("name", SOLVES)
def test_returned_arrays_share_no_memory_with_the_scratch(name, handed_out):
    result = SOLVES[name](0)
    assert handed_out
    assert not any(np.shares_memory(a, b) for a in _arrays(result) for b in handed_out)


@pytest.mark.parametrize("name", SOLVES)
def test_the_scratch_is_released_when_the_solve_returns(name, handed_out):
    SOLVES[name](0)
    refs = [weakref.ref(b) for b in handed_out]
    handed_out.clear()
    gc.collect()
    assert refs and all(ref() is None for ref in refs)
    assert measures._SCRATCH.get() is None


@pytest.mark.parametrize("name", SOLVES)
def test_a_second_solve_leaves_the_first_results_alone(name):
    first = _arrays(SOLVES[name](1))
    copies = [a.copy() for a in first]
    SOLVES[name](2)
    assert all(same_bits(a, c) for a, c in zip(first, copies, strict=True))


@pytest.mark.parametrize("name", SOLVES)
def test_concurrent_solves_are_the_sequential_ones(name):
    # more threads than cores, switching as often as the interpreter can
    seeds = [3, 4, 5, 6]
    want = [_arrays(SOLVES[name](k)) for k in seeds]
    start = threading.Barrier(len(seeds), timeout=60)

    def run(k):
        start.wait()
        return _arrays(SOLVES[name](k))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(len(seeds)) as pool:
            got = [future.result(timeout=120) for future in [pool.submit(run, k) for k in seeds]]
    finally:
        sys.setswitchinterval(interval)
    for g, w in zip(got, want, strict=True):
        assert all(same_bits(u, v) for u, v in zip(g, w, strict=True))


def test_one_buffer_per_role_and_shape_on_the_solving_thread_only():
    assert measures._buffer("r", (3,)) is not measures._buffer("r", (3,))
    with measures._solve_scratch():
        held = measures._buffer("r", (3,))
        assert measures._buffer("r", (3,)) is held
        assert measures._buffer("r", (4,)) is not held
        assert measures._buffer("r", (3,), np.intp) is not held
        assert measures._buffer("s", (3,)) is not held
        with ThreadPoolExecutor(1) as pool:
            # a plain thread, and one that runs in a copy of this context
            seen = [pool.submit(measures._buffer, "r", (3,)).result() for _ in range(2)]
            ctx = contextvars.copy_context()
            seen += [pool.submit(ctx.run, measures._buffer, "r", (3,)).result() for _ in range(2)]
        assert all(b is not held for b in seen) and seen[0] is not seen[1]
        assert seen[2] is not seen[3]
        with measures._solve_scratch():  # a nested solve has its own
            assert measures._buffer("r", (3,)) is not held
        assert measures._buffer("r", (3,)) is held
    assert measures._buffer("r", (3,)) is not held


# ---------------------------------------------------------------------------
# page faults of a repeated solve
# ---------------------------------------------------------------------------

# most minor page faults of the third of three identical solves in a fresh
# process, for each of suot and usw (n = 300, L = 100, 10 rounds) and a
# 10-step interaction Euler flow (n = 300).  With fresh temporaries every
# round or step they took 5,881-9,393 (Linux, glibc, numpy 2.4); with one
# scratch per solve, which faults in at most its own pages (about 900 for
# the Frank-Wolfe solves and 550 for the flow) once per solve, 0-1,199.
FAULT_BUDGET = 2500

_FAULT_SCRIPT = """
import json, resource
import numpy as np
import msot

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

rng = np.random.default_rng(0)
x, y = rng.standard_normal((300, 2)), rng.standard_normal((300, 2)) * 0.8 + 1.0
slicer = msot.EuclideanSlicer(msot.sample_directions(2, 100, 5))
params = msot.UnbalancedParams(n_iters=10, eps=0.0)
cloud = rng.standard_normal((300, 2)) * 0.3
solves = {
    "usw": lambda: msot.usw(x, y, slicer, params),
    "suot": lambda: msot.suot(x, y, slicer, params),
    "euler": lambda: msot.euler_particles(cloud, msot.InteractionFunctional(), 0.05, 10),
}
third = {}
for name, solve in solves.items():
    for _ in range(3):
        start = faults()
        solve()
        third[name] = faults() - start
print(json.dumps(third))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc page-fault counts")
def test_a_repeated_solve_stays_within_its_fault_budget():
    pytest.importorskip("resource")
    env = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", _FAULT_SCRIPT], capture_output=True, text=True,
                          env={**os.environ, **env}, timeout=300, check=True)
    third = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(third) == {"usw", "suot", "euler"}
    assert all(count <= FAULT_BUDGET for count in third.values()), third

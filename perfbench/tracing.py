"""In-memory span recorder and the per-layer metrics derived from it.

Spans are recorded by the benchmark around the calls it makes into msot's
public functions; nothing inside the package is instrumented.  A span has
a name, start and end (``perf_counter_ns``), the id of the span that
caused it, the id of the op it belongs to, and optional work counts.
"""

import time
from contextlib import contextmanager


class NullRecorder:
    """Recorder used by the untraced pass: spans cost one generator step."""

    op_id = None

    @contextmanager
    def span(self, name, **counts):
        yield {}


NULL = NullRecorder()


class Recorder:
    """Keeps every span in memory; :meth:`export` writes them out at the end."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op_id = None

    @contextmanager
    def span(self, name, **counts):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op_id,
            "start": time.perf_counter_ns(),
            "end": None,
            **counts,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter_ns()
            self._stack.pop()

    def self_times(self):
        """Span duration minus the part of it that child spans cover (ns)."""
        self_ns = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                self_ns[s["parent"]] -= s["end"] - s["start"]
        return self_ns

    def export(self):
        self_ns = self.self_times()
        return [dict(s, self_ns=t) for s, t in zip(self.spans, self_ns)]


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# name -> (unit, definition).  Times and counts are totals per traced cycle
# (one pass over the workload's op mix) unless the name says "per".
LAYER_METRICS = {
    "cli.ingest_ms": ("ms", "load_dataset time per cycle"),
    "cli.ingest_rows_per_s": ("1/s", "rows parsed and validated per second of load_dataset"),
    "cli.compute_ms": ("ms", "compute_distance time per cycle"),
    "cli.emit_ms": ("ms", "main() time minus its ingest and compute pieces, per cycle"),
    "cli.pairs": ("count", "compute_distance pairs per cycle (dist and matrix)"),
    "cli.ms_per_pair": ("ms", "main() time of dist and matrix ops per pair"),
    "sliced.directions_ms": ("ms", "sample_directions time per cycle"),
    "sliced.project_ms": ("ms", "EuclideanSlicer.coordinates time per cycle"),
    "sliced.project_ns_per_atom_slice": ("ns", "projection time per atom and slice"),
    "measures.w1d_ms": ("ms", "wasserstein_1d_batched time per cycle"),
    "measures.w1d_problems": ("count", "1D problems (slices) solved per cycle"),
    "measures.w1d_ns_per_breakpoint": ("ns", "wasserstein_1d_batched time per slice x (n+m)"),
    "measures.circle_ms": ("ms", "circle profile build + circle solver time per cycle"),
    "measures.circle_problems": ("count", "circle problems solved per cycle"),
    "measures.circle_bisect_iters": ("count", "bisection steps per cycle, computed as ceil(log2(2/eps)) per p != 1 problem"),
    "hyperbolic.coord_ms": ("ms", "geodesic/Busemann coordinate time per cycle"),
    "hyperbolic.coord_ns_per_atom_slice": ("ns", "hyperbolic coordinate time per atom and slice"),
    "spd.slices_ms": ("ms", "sample_unit_symmetric time per cycle"),
    "spd.le_coord_ms": ("ms", "coordinate_le / log-vectorisation time per cycle"),
    "spd.ai_busemann_ms": ("ms", "busemann_ai time per cycle"),
    "spd.ai_busemann_ns_per_atom_slice": ("ns", "busemann_ai time per atom and slice"),
    "sphere.frames_ms": ("ms", "sample_stiefel time per cycle"),
    "sphere.project_ms": ("ms", "project_circle time per cycle"),
    "sphere.project_calls": ("count", "project_circle calls per cycle"),
    "unbalanced.solve_ms": ("ms", "usw/suot time per cycle"),
    "unbalanced.fw_rounds": ("count", "Frank-Wolfe rounds per cycle, from the returned history"),
    "unbalanced.fw_round_ms": ("ms", "usw/suot time per Frank-Wolfe round"),
    "unbalanced.oracle_calls": ("count", "1D dual oracle calls per cycle, computed as rounds x L"),
    "unbalanced.ns_per_oracle_atom": ("ns", "usw/suot time per oracle call and atom (n+m)"),
    "flows.jko_grid_step_ms": ("ms", "swjko_grid time per outer step"),
    "flows.jko_grid_inner_steps": ("count", "swjko_grid inner steps per cycle"),
    "flows.grid_weight_grad_ms": ("ms", "SwToTargetFunctional.grid_gradient time per cycle"),
    "flows.euler_step_ms": ("ms", "euler_particles time per step"),
    "flows.jko_particles_step_ms": ("ms", "swjko_particles time per outer step"),
    "flows.trace_emit_ms": ("ms", "FlowTrace.to_jsonl time per cycle"),
    "busemann.pca_ms": ("ms", "gaussian_pca_1d time per cycle"),
    "gw.gw1d_ms": ("ms", "gw1d_inner time per cycle"),
    "trace.overhead_ratio": ("ratio", "traced op time / untraced op time - 1, same ops"),
}


# span attributes that count work; they are summed per (span name, key)
WORK_KEYS = ("atoms", "problems", "breakpoints", "rows", "pairs", "calls", "steps",
             "inner", "rounds", "oracle_atoms", "bisect")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, n_cycles, overhead_ratio):
    """Reduce exported spans to :data:`LAYER_METRICS` values.

    Spans flagged ``dropped`` belong to a decomposition that did not
    reproduce its op's value; they count as missing, so a layer with no
    valid spans reads 0 (not exercised) and is listed by the caller.
    """
    ns = {}
    work = {}
    for s in spans:
        if s.get("dropped"):
            continue
        name = s["name"]
        ns[name] = ns.get(name, 0) + s["self_ns"]
        for key, value in s.items():
            if key in WORK_KEYS:
                work[(name, key)] = work.get((name, key), 0) + value

    def ms(name):
        return ns.get(name, 0) / 1e6 / n_cycles

    def count(name, key):
        return work.get((name, key), 0) / n_cycles

    pair_ns = ns.get("cli.main.pairwise", 0)
    emit_ns = (
        ns.get("cli.main.pairwise", 0)
        + ns.get("cli.main", 0)
        - ns.get("cli.ingest", 0)
        - sum(ns.get(k, 0) for k in ("cli.compute", "busemann.pca", "gw.gw1d", "flows.euler.cli"))
    )
    euler_ns = ns.get("flows.euler", 0) + ns.get("flows.euler.cli", 0)
    euler_steps = work.get(("flows.euler", "steps"), 0) + work.get(("flows.euler.cli", "steps"), 0)
    values = {
        "cli.ingest_ms": ms("cli.ingest"),
        "cli.ingest_rows_per_s": _ratio(work.get(("cli.ingest", "rows"), 0), ns.get("cli.ingest", 0) / 1e9),
        "cli.compute_ms": ms("cli.compute"),
        "cli.emit_ms": emit_ns / 1e6 / n_cycles,
        "cli.pairs": count("cli.main.pairwise", "pairs"),
        "cli.ms_per_pair": _ratio(pair_ns / 1e6, work.get(("cli.main.pairwise", "pairs"), 0)),
        "sliced.directions_ms": ms("sliced.directions"),
        "sliced.project_ms": ms("sliced.project"),
        "sliced.project_ns_per_atom_slice": _ratio(ns.get("sliced.project", 0), work.get(("sliced.project", "atoms"), 0)),
        "measures.w1d_ms": ms("measures.w1d"),
        "measures.w1d_problems": count("measures.w1d", "problems"),
        "measures.w1d_ns_per_breakpoint": _ratio(ns.get("measures.w1d", 0), work.get(("measures.w1d", "breakpoints"), 0)),
        "measures.circle_ms": ms("measures.circle"),
        "measures.circle_problems": count("measures.circle", "problems"),
        "measures.circle_bisect_iters": count("measures.circle", "bisect"),
        "hyperbolic.coord_ms": ms("hyperbolic.coord"),
        "hyperbolic.coord_ns_per_atom_slice": _ratio(ns.get("hyperbolic.coord", 0), work.get(("hyperbolic.coord", "atoms"), 0)),
        "spd.slices_ms": ms("spd.slices"),
        "spd.le_coord_ms": ms("spd.le_coord"),
        "spd.ai_busemann_ms": ms("spd.ai_busemann"),
        "spd.ai_busemann_ns_per_atom_slice": _ratio(ns.get("spd.ai_busemann", 0), work.get(("spd.ai_busemann", "atoms"), 0)),
        "sphere.frames_ms": ms("sphere.frames"),
        "sphere.project_ms": ms("sphere.project"),
        "sphere.project_calls": count("sphere.project", "calls"),
        "unbalanced.solve_ms": ms("unbalanced.solve"),
        "unbalanced.fw_rounds": count("unbalanced.solve", "rounds"),
        "unbalanced.fw_round_ms": _ratio(ns.get("unbalanced.solve", 0) / 1e6, work.get(("unbalanced.solve", "rounds"), 0)),
        "unbalanced.oracle_calls": count("unbalanced.solve", "calls"),
        "unbalanced.ns_per_oracle_atom": _ratio(ns.get("unbalanced.solve", 0), work.get(("unbalanced.solve", "oracle_atoms"), 0)),
        "flows.jko_grid_step_ms": _ratio(ns.get("flows.jko_grid", 0) / 1e6, work.get(("flows.jko_grid", "steps"), 0)),
        "flows.jko_grid_inner_steps": count("flows.jko_grid", "inner"),
        "flows.grid_weight_grad_ms": ms("flows.grid_weight_grad"),
        "flows.euler_step_ms": _ratio(euler_ns / 1e6, euler_steps),
        "flows.jko_particles_step_ms": _ratio(ns.get("flows.jko_particles", 0) / 1e6, work.get(("flows.jko_particles", "steps"), 0)),
        "flows.trace_emit_ms": ms("flows.trace_emit"),
        "busemann.pca_ms": ms("busemann.pca"),
        "gw.gw1d_ms": ms("gw.gw1d"),
        "trace.overhead_ratio": overhead_ratio,
    }
    return values

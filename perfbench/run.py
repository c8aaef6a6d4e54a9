"""msot benchmark: one seeded workload, one client in a closed loop.

    python3 perfbench/run.py --workload slices-balanced --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; msot is imported from its ``src``.  The
next op starts only when the previous one returns, in one process with
one BLAS thread.  ``--trace 0`` prints the end-to-end metrics of an
untraced pass; ``--trace 1`` alternates untraced and traced cycles over
the op mix and prints the per-layer metrics of the traced ones.  The last
stdout line is the JSON result; per-run details (environment, raw and
rescaled latencies, problems, spans) go to ``.perfbench/`` in the checkout.
"""

import os
import time

T0 = time.perf_counter()
# pin BLAS to one thread before numpy loads anywhere in this process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
WORKLOADS = ("slices-balanced", "unbalanced-flow", "cli-batch")
SETUP_REPS = 3
SETUP_CONTROLS = 5  # control kernel runs before each set-up
MIN_SAMPLES = 101  # ops an untraced pass needs for 10 samples beyond p90
MIN_BEYOND_P90 = 10
# A decomposition re-runs an op through finer public calls; when those take
# more than this share longer than the op itself, the op no longer works
# that way and its layers are reported missing.
GAP_LIMIT = 0.5

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_gmean_ms": "ms",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
}


def import_msot():
    """Import msot from this checkout's ``src``, never from elsewhere."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import msot
    except ImportError as exc:
        raise SystemExit(f"error: cannot import msot from {src}: {exc}")
    if Path(msot.__file__).resolve().parent.parent != src:
        raise SystemExit(f"error: msot was imported from {msot.__file__}, not from {src}")


class Pass:
    """Runs ops, times them, and validates every output outside the timing."""

    def __init__(self, stored):
        self.stored = stored  # op name -> (value, rtol) for the seed-0 check
        self.attempted = 0
        self.failed = 0
        self.first = {}
        self.problems = {}
        self.latency = []  # (cycle, op name, ns) of ops that succeeded
        self.control = []  # (cycle, ns) of the control kernel

    def execute(self, op, rec, cycle):
        """Time ``op.run(rec)``; return (ns, output), or (None, None) on failure."""
        self.attempted += 1
        try:
            start = time.perf_counter_ns()
            out = op.run(rec)
            ns = time.perf_counter_ns() - start
            digest = op.digest(out)
            if op.name not in self.first:
                self.first[op.name] = digest
                problems = op.check(out)
                if op.name in self.stored:
                    want, rtol = self.stored[op.name]
                    if abs(digest - want) > rtol * abs(want):
                        problems.append(f"digest {digest!r} != seed-0 reference {want!r} (rtol {rtol})")
                if problems:
                    self.problems.setdefault(op.name, []).extend(problems)
            elif digest != self.first[op.name]:
                self.problems.setdefault(op.name, []).append(
                    f"rerun digest {digest!r} != first {self.first[op.name]!r}")
        except Exception as exc:  # an op that raises is a failed op, not a crash
            self.problems.setdefault(op.name, []).append(f"{type(exc).__name__}: {exc}")
            self.failed += 1
            return None, None
        if op.name in self.problems:
            self.failed += 1
            return None, None
        self.latency.append((cycle, op.name, ns))
        return ns, out


def measure(workload, seconds, traced, stored):
    """Closed loop over whole cycles of the op mix.

    An untraced run goes on past ``seconds`` until MIN_SAMPLES ops have
    succeeded, so that p90 has at least 10 samples beyond it, but stops at
    ``3 * seconds`` whatever the count.
    """
    import control
    from tracing import NULL, Recorder

    untraced, traced_pass = Pass(stored), Pass(stored)
    recorder = Recorder() if traced else None
    overhead = [0, 0]  # traced ns, untraced ns of the same ops
    missing = {}  # op name -> why its decomposition is not reported
    piece_spans = {}  # op name -> spans of its decomposition, all cycles
    rerun_ratio = {}  # op name -> per cycle, time of the pieces that re-run it / op time
    cycle = 0
    start = time.perf_counter()
    while True:
        plain = {}
        for op in workload.ops:
            untraced.control.append((cycle, *control.timed_ns()))
            plain[op.name] = untraced.execute(op, NULL, cycle)[0]
        if traced:
            for op in workload.ops:
                recorder.op_id = f"{cycle}:{op.name}"
                with recorder.span("op", op_name=op.name) as op_span:
                    ns, out = traced_pass.execute(op, recorder, cycle)
                    if ns is None:
                        continue
                    if plain[op.name] is not None:
                        overhead[0] += ns
                        overhead[1] += plain[op.name]
                    if op.pieces is None:
                        continue
                    first_piece = len(recorder.spans)
                    try:
                        ok = op.pieces(recorder, out)
                    except Exception:  # a decomposition that broke is reported missing
                        ok = False
                    spans = recorder.spans[first_piece:]
                    piece_spans.setdefault(op.name, []).extend(spans)
                    if not ok:
                        missing.setdefault(op.name, "its pieces did not reproduce its output")
                    if op.rerun:
                        pieces_ns = sum(s["end"] - s["start"] for s in spans
                                        if s["parent"] == op_span["id"])
                        rerun_ratio.setdefault(op.name, []).append(pieces_ns / ns)
        cycle += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (
            traced or len(untraced.latency) >= MIN_SAMPLES or elapsed >= 3 * seconds
        ):
            break
    gaps = {name: statistics.median(r) - 1.0 for name, r in rerun_ratio.items()}
    for name, gap in gaps.items():
        if gap > GAP_LIMIT:
            missing.setdefault(name, f"its pieces took {gap:.0%} longer than the op itself "
                                     f"(limit {GAP_LIMIT:.0%}), so they no longer time it")
    for name in missing:
        for span in piece_spans.get(name, []):
            span["dropped"] = True
    return untraced, traced_pass, recorder, overhead, missing, gaps, cycle


def rescaled_latencies_ms(run):
    """Op latencies at reference speed: wall ms x ref / that cycle's control."""
    from control import CONTROL_REF_MS

    per_cycle = {}
    for cycle, ns, *_ in run.control:
        per_cycle.setdefault(cycle, []).append(ns)
    scale = {c: CONTROL_REF_MS * 1e6 / statistics.median(v) for c, v in per_cycle.items()}
    return [ns / 1e6 * scale[cycle] for cycle, _, ns in run.latency]


def latency_metrics(lat):
    return {
        "ops_per_s": len(lat) / (sum(lat) / 1e3),
        "op_gmean_ms": math.exp(sum(math.log(v) for v in lat) / len(lat)),
        "op_p50_ms": statistics.median(lat),
        "op_p90_ms": statistics.quantiles(lat, n=10, method="inclusive")[8],
    }


def load_stored(workload, seed, smoke):
    if smoke:
        return {}
    data = json.loads(REFERENCE.read_text())
    if seed != data["seed"]:
        return {}
    rtol = data["rtol"]
    return {
        name: (value, rtol.get(name.split(".")[0], rtol["default"]))
        for name, value in data["values"].get(workload, {}).items()
    }


def write_reference(workload, run):
    data = json.loads(REFERENCE.read_text())
    stored = {op.name for op in workload.ops if op.stored}
    data["values"][workload.name] = {k: v for k, v in run.first.items() if k in stored}
    REFERENCE.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest sizes, for the smoke test (no stored references)")
    parser.add_argument("--write-reference", action="store_true",
                        help="store the digests of ops checked against reference.json")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.write_reference and (args.smoke or args.seed != 0):
        parser.error("--write-reference needs the default seed 0 at full size")
    return args


def set_up(args):
    """Build the workload SETUP_REPS times; return it and the median set-up time.

    Set-up is imports (timed once, from process start), seeded input
    generation with CSV writing, and one warm-up op.  It is rescaled by the
    control kernel like the op latencies.
    """
    import control
    import workloads
    from tracing import NULL

    import_s = time.perf_counter() - T0
    times, controls = [], []
    workload = None
    try:
        for _ in range(SETUP_REPS):
            if workload is not None:
                workload.close()
            controls.extend(control.timed_ns()[0] for _ in range(SETUP_CONTROLS))
            start = time.perf_counter()
            workload = workloads.build(args.workload, args.seed, args.smoke, OUT)
            warm = next(op for op in workload.ops if op.name == workload.warmup)
            warm.digest(warm.run(NULL))
            times.append(time.perf_counter() - start)
    except BaseException:
        if workload is not None:
            workload.close()
        raise
    raw_s = import_s + statistics.median(times)
    scale = control.CONTROL_REF_MS * 1e6 / statistics.median(controls)
    return workload, raw_s * scale, {"import_s": import_s, "reps_s": times, "raw_s": raw_s}


def main(argv=None):
    args = parse_args(argv)
    import_msot()
    import envinfo
    from tracing import LAYER_METRICS, layer_metrics

    OUT.mkdir(exist_ok=True)
    workload, setup_s, setup_info = set_up(args)
    try:
        stored = load_stored(args.workload, args.seed, args.smoke)
        untraced, traced, recorder, overhead, missing, gaps, cycles = measure(
            workload, args.seconds, bool(args.trace), stored)
    finally:
        workload.close()

    lat = rescaled_latencies_ms(untraced)
    if not lat:
        raise SystemExit(f"error: every op failed: {untraced.problems}")
    raw_lat = [ns / 1e6 for _, _, ns in untraced.latency]
    runs = (untraced, traced) if args.trace else (untraced,)
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    e2e = {
        "setup_s": setup_s,
        **latency_metrics(lat),
        "success_rate": (untraced.attempted - untraced.failed) / untraced.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        spans = recorder.export()
        ratio = overhead[0] / overhead[1] - 1.0 if overhead[1] else 0.0
        values = layer_metrics(spans, cycles, ratio)
        metrics = {k: {"value": v, "unit": LAYER_METRICS[k][0]} for k, v in values.items()}
    else:
        spans = None
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    if args.write_reference:
        write_reference(workload, untraced)

    problems = {}
    for r in runs:
        for name, items in r.problems.items():
            problems.setdefault(name, sorted(set(items)))
    beyond_p90 = sum(v > e2e["op_p90_ms"] for v in lat)
    env = envinfo.collect(ROOT, args.seed)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "cycles": cycles,
        "env": env,
        "setup": setup_info,
        "samples": len(lat),
        "samples_beyond_p90": beyond_p90,
        "error_rate": failed / attempted,
        "metrics": metrics,
        "end_to_end": e2e,
        "end_to_end_wall_clock": latency_metrics(raw_lat),
        "latency_ns": untraced.latency,
        "control_ns": untraced.control,
        "problems": problems,
        "missing_decompositions": missing,
        "decomposition_gaps": gaps,
        "spans": spans,
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (OUT / f"{tag}.json").write_text(json.dumps(details, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} cycles={cycles} "
          f"blas_threads={env['blas_threads_numpy']} numpy={env['numpy']} nproc={env['nproc']}")
    for name, entry in metrics.items():
        print(f"#   {name:36s} {entry['value']:14.6g} {entry['unit']}")
    print(f"#   samples={len(lat)} beyond_p90={beyond_p90} setup_reps={SETUP_REPS} "
          f"error_rate={failed / attempted:g} ({failed}/{attempted})")
    for name, items in problems.items():
        print(f"#   FAILED {name}: {'; '.join(items)}")
    for name, why in sorted(missing.items()):
        print(f"#   decomposition of {name} is missing: {why}; its layers read 0")
    few = not args.smoke and not args.trace and beyond_p90 < MIN_BEYOND_P90
    if few:
        print(f"#   NOT CORRECT: only {beyond_p90} samples beyond p90, {MIN_BEYOND_P90} needed")
    print(json.dumps({
        "correct": failed == 0 and not few,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

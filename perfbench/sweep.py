"""Run the benchmark over seeds and summarise each metric's median and spread.

    python3 perfbench/sweep.py --seeds 1-10                 # this checkout
    python3 perfbench/sweep.py --seeds 1-10 --root parent=../parent --root change=.
    python3 perfbench/sweep.py --compare .perfbench/BENCH_parent.json .perfbench/BENCH_change.json

Each run is ``<command> --workload W --seed S --seconds T --trace X`` from
BENCHMARK.json, for every workload with T its ``run_seconds``, started
with the checkout as working directory, one at a time.  With several
``--root`` checkouts the order alternates per seed.  The spread of a
metric is (Q3 - Q1) / median over the seeds, with the quartiles of
``statistics.quantiles(values, n=4)``.  Results are written to
``.perfbench/BENCH_<name>.json`` (``BENCH_<name>_trace.json`` with
``--trace 1``) in this checkout, ``<name>`` being the checkout's name in
``--root`` (``this`` without it).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(root, workload, seed, trace):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0}


def metric_specs(trace):
    return {m["name"]: m for m in SPEC["per_layer" if trace else "end_to_end"]}


def sweep(args):
    roots = dict(r.split("=", 1) for r in args.root) if args.root else {"this": str(ROOT)}
    workloads = [w["name"] for w in SPEC["workloads"]]
    results = {name: {w: [] for w in workloads} for name in roots}
    for w in workloads:
        for i, seed in enumerate(args.seeds):
            order = list(roots.items())
            for name, root in order[::-1] if i % 2 else order:
                result = run_one(root, w, seed, args.trace)
                results[name][w].append(result)
                print(f"{name} {w} seed={seed} correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}", flush=True)
    specs = metric_specs(args.trace)
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    for name, per_workload in results.items():
        summary = {
            "checkout": name, "seeds": args.seeds, "seconds": SPEC["run_seconds"],
            "trace": args.trace,
            "workloads": {
                w: {
                    "failed": sum(r["failed"] for r in runs),
                    "attempted": sum(r["attempted"] for r in runs),
                    "metrics": {
                        m: summarise([r["metrics"][m]["value"] for r in runs]) | {
                            "unit": specs[m]["unit"], "bound": specs[m].get("bound")}
                        for m in specs
                    },
                }
                for w, runs in per_workload.items()
            },
        }
        path = out_dir / f"BENCH_{name}{'_trace' if args.trace else ''}.json"
        path.write_text(json.dumps(summary, indent=1) + "\n")
        print(f"\n{name}: wrote {path}")
        print_summary(summary)


def print_summary(summary):
    for w, entry in summary["workloads"].items():
        print(f"{w}  (failed {entry['failed']}/{entry['attempted']})")
        for m, s in entry["metrics"].items():
            bound = s["bound"]
            flag = ""
            if bound is not None and m != "setup_s":
                flag = "ok" if s["spread"] < bound / 3 else ("within bound" if s["spread"] <= bound else "TOO WIDE")
            print(f"  {m:36s} median {s['median']:12.6g} {s['unit']:6s} "
                  f"IQR/median {s['spread']:7.2%}  bound {bound if bound is not None else '-'}  {flag}")


def compare(base_path, change_path):
    base = json.loads(Path(base_path).read_text())
    change = json.loads(Path(change_path).read_text())
    specs = metric_specs(base["trace"])
    for w, entry in base["workloads"].items():
        print(w)
        for m, b in entry["metrics"].items():
            c = change["workloads"][w]["metrics"][m]
            worse = (c["median"] - b["median"]) / abs(b["median"]) if b["median"] else 0.0
            if specs[m]["better"] == "higher":
                worse = -worse
            bound = specs[m].get("bound")
            if bound is None:
                verdict = ""
            elif worse > bound:
                verdict = "REGRESSION"
            elif b["spread"] > bound:
                verdict = "unresolved (parent spread wider than bound)"
            else:
                verdict = "no regression"
            print(f"  {m:36s} {b['median']:12.6g} -> {c['median']:12.6g} {b['unit']:6s} "
                  f"worse by {worse:+7.2%}  {verdict}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", action="append", help="NAME=DIR of a checkout to run")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"))
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
    else:
        sweep(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())

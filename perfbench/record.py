"""Record a baseline: two interleaved sets of runs per workload, one traced run.

    python3 perfbench/record.py --label seed --note "2-core shared machine"

Runs run.py with the run length from BENCHMARK.json on seeds 1-10 (set A)
and 11-20 (set B), one seed of each set in turn for every workload before
the next pair of seeds, so that a slow or fast phase of the machine falls on
both sets and on every workload alike; then runs each workload once traced.
Writes perfbench/baselines/BENCH_<label>.json with, per end-to-end metric
and set, the values, median, quartiles and spread (quartile distance over
median), the change from set A's median to set B's, and the traced per-layer
metrics.  Exits 1 if a run fails its checks, or if, for any
end-to-end metric, a set's spread or the change between the sets' medians
exceeds the metric's bound: two sets of one commit must agree within the
bounds.
"""

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS_PER_SET = 10
SETS = {"A": range(1, 1 + SEEDS_PER_SET),
        "B": range(1 + SEEDS_PER_SET, 1 + 2 * SEEDS_PER_SET)}


def _run(workload, seed, seconds, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1]) if lines else None
    print(f"{workload} seed {seed} trace {trace}: exit {done.returncode},"
          f" {lines[-1] if lines else 'no output'}", flush=True)
    return done.returncode, result


def _git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return done.stdout.strip()


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--note", default="",
                        help="where the runs came from, e.g. the machine")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc = {"label": args.label, "git_sha": _git_sha(),
           "python": platform.python_version(), "nproc": os.cpu_count(),
           "note": args.note,
           "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
               timespec="seconds"),
           "run_seconds": seconds,
           "seeds": {s: list(seeds) for s, seeds in SETS.items()},
           "workloads": {}}
    names = [w["name"] for w in spec["workloads"]]
    values = {n: {s: {m: [] for m in bounds} for s in SETS} for n in names}
    checks = {n: {"attempted": 0, "failed": 0} for n in names}
    problems = []
    for pair in zip(*SETS.values()):
        for name in names:
            for s, seed in zip(SETS, pair):
                rc, result = _run(name, seed, seconds, 0)
                if rc != 0 or not result or not result["correct"]:
                    problems.append(f"{name} seed {seed}: run failed")
                    continue
                checks[name]["attempted"] += result["attempted"]
                checks[name]["failed"] += result["failed"]
                for m in bounds:
                    values[name][s][m].append(result["metrics"][m]["value"])
    for w in spec["workloads"]:
        name = w["name"]
        end_to_end = {}
        for m, bound in bounds.items():
            sets = {s: summarize(values[name][s][m]) for s in SETS
                    if len(values[name][s][m]) >= 2}
            if len(sets) < len(SETS):
                continue
            change = sets["B"]["median"] / sets["A"]["median"] - 1
            end_to_end[m] = {"bound": bound, "change_A_to_B": change, **sets}
            for s, summary in sets.items():
                if summary["spread"] > bound:
                    problems.append(f"{name} {m}: set {s} spread"
                                    f" {summary['spread']:.4f} > bound {bound}")
            if abs(change) > bound:
                problems.append(f"{name} {m}: sets differ by {change:+.4f},"
                                f" more than the bound {bound}")
        rc, traced = _run(name, SETS["A"][0], seconds, 1)
        if rc != 0 or not traced or not traced["correct"]:
            problems.append(f"{name}: traced run failed")
        doc["workloads"][name] = {
            "why": w["why"], "checks": checks[name], "end_to_end": end_to_end,
            "per_layer": {k: v["value"] for k, v in
                          (traced or {}).get("metrics", {}).items()}}
    out = HERE / "baselines" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    for name, w in doc["workloads"].items():
        for m, e in w["end_to_end"].items():
            print(f"{name:<15} {m:<12} median A {e['A']['median']:.4f}"
                  f" B {e['B']['median']:.4f} ({e['change_A_to_B']:+.4f})"
                  f"  spread A {e['A']['spread']:.4f} B {e['B']['spread']:.4f}"
                  f"  bound {e['bound']}")
    for problem in problems:
        print(f"FAILED: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of halphen: seeded workloads, each repetition a fresh interpreter.

    python3 perfbench/run.py --workload verify_all --seed 1 --seconds 25 --trace 0

Workloads (the benchmark draws the inputs from --seed; the program gets only
the generated inputs):

  verify_all      `halphen verify all --format json --seed <seed>`
  specialized_qe  `halphen verify incidence pencil lattice invariants
                  --mode specialized --a 2 --format json --seed <seed>`
  torsion_census  torsion library calls on seeded Hesse cubics over GF(p)
                  and one over GF(13^2) (child program: census.py)

With --trace 0 the benchmark times whole child processes from outside:
repetitions of the workload until --seconds have passed (at least two), and
fresh interpreters importing `halphen.cli` (setup) between them.  With --trace 1 it
runs the workload once untraced and once under layers.py, checks that both
give the same results, and reports the per-layer counts and self times.
Every repetition's output is checked; the last line printed is one JSON
object with the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES_PER_GAP = 4
# One verify_all repetition outlasts --seconds, and one sample of it spreads
# by up to a fifth between runs on a shared two-core machine.
MIN_REPETITIONS = 2
RUN_LIMIT_S = 170  # a run must end within 180 s; no child outlives this

UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class Child:
    """One finished child process: its output and what the kernel measured."""

    def __init__(self, argv, deadline):
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(),
                                stdout=subprocess.PIPE)
        timer = threading.Timer(max(deadline - t0, 1.0), proc.kill)
        timer.start()
        try:
            self.stdout = proc.stdout.read().decode()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = self.rc = os.waitstatus_to_exitcode(status)
        self.wall_s = time.perf_counter() - t0
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"  # identical work, and counts, on every run
    return env


def _python(*args):
    return [sys.executable, *args]


def _ledger(text):
    """The ledger a `verify --format json` run printed, or None."""
    try:
        doc = json.loads(text)
    except ValueError:
        return None
    return doc if isinstance(doc, list) else None


# ---------------------------------------------------------------------------
# workloads; must_call lists the call counters a traced run has to record:
# the layers whose speed is predicted to move the workload's time


class LedgerWorkload:
    """A `halphen verify --format json` command whose ledger, ms aside, must
    equal the one committed with the benchmark (it does not depend on the
    seed)."""

    def __init__(self, seed):
        self.args = [*self.verify_args, "--format", "json", "--seed", str(seed)]
        self.expected = json.loads(self.golden.read_text())

    def argv(self):
        return _python("-m", "halphen", *self.args)

    def traced_argv(self):
        return _python(str(HERE / "layers.py"), "cli", *self.args)

    def attempted(self):
        return len(self.expected)

    def check(self, rc, stdout):
        """(failed claims, ledger without ms or None)."""
        ledger = _ledger(stdout) if rc in (0, 1) else None
        if ledger is None:
            return len(self.expected), None
        failed = sum(1 for i, want in enumerate(self.expected)
                     if i >= len(ledger) or {**ledger[i], "ms": 0} != want)
        failed += max(len(ledger) - len(self.expected), 0)
        if rc != 0:
            failed = max(failed, 1)
        return failed, [{k: v for k, v in e.items() if k != "ms"}
                        for e in ledger]

    def claim_seconds(self, stdout):
        """The ledger's own ms summed per suite, in seconds."""
        totals = dict.fromkeys(layers.SUITES, 0.0)
        for e in _ledger(stdout) or []:
            totals[e["claim"].split(":")[0]] += e["ms"] / 1000
        return totals


class VerifyAll(LedgerWorkload):
    """`halphen verify all`: the paper's headline command; every layer runs."""

    name = "verify_all"
    verify_args = ["verify", "all"]
    golden = HERE / "verify_all_ledger.json"
    # symbolic mode eliminates over Q(e)(a) and GF(p) only
    must_call = tuple(s for s in layers.call_stems()
                      if s not in {"linalg.rref.qe", "linalg.kernel_basis.qe"})


class SpecializedQE(LedgerWorkload):
    """The symbolic suites at one fixed rational parameter, so over Q(e):
    Q(e)(a), pgcd and the torsion suite are bypassed."""

    name = "specialized_qe"
    # a small good parameter (chilean.check_good_parameter passes), fixed so
    # that every seed does the same work
    A = "2"
    verify_args = ["verify", "incidence", "pencil", "lattice", "invariants",
                   "--mode", "specialized", "--a", A]
    golden = HERE / "specialized_qe_ledger.json"
    must_call = ("field.QEpsElem.mul", "field.QEpsElem.add",
                 "field.QEpsElem.inverse", "linalg.rref.qe",
                 "linalg.kernel_basis.qe", "plane.Poly3.restrict_to_line",
                 "invariants.extract_combinatorics",
                 "invariants.reference_report")


# Ten adjacent pairs of the primes p = 1 mod 3 from 13 to 199.  Each
# repetition takes one prime of each pair, so the working set (points ~ p)
# spans the whole range and its total varies by a few percent between seeds.
PRIME_PAIRS = ((13, 19), (31, 37), (43, 61), (67, 73), (79, 97),
               (103, 109), (127, 139), (151, 157), (163, 181), (193, 199))
ORDER4_CURVES = 2
ORDER5_CURVES = 2
EXTENSION_PRIME = 13


def hesse_point_counts(p):
    """{t: #E_t(GF(p))} for X^3 + Y^3 + Z^3 + tXYZ over all smooth t.

    Computed without halphen: off the lines Y = 0 and Z = 0 of the chart
    X = 1, each (y, z) lies on exactly the curve t = -(1 + y^3 + z^3)/(yz);
    the points on those lines and on X = 0 lie on every curve of the pencil.
    """
    cubes = [v * v * v % p for v in range(p)]
    on_all = sum(1 for v in range(p) if (1 + cubes[v]) % p == 0)
    counts = dict.fromkeys(range(p), 3 * on_all)  # Y = 0, Z = 0 and X = 0
    for y in range(1, p):
        for z in range(1, p):
            t = -(1 + cubes[y] + cubes[z]) * pow(y * z, -1, p) % p
            counts[t] += 1
    return {t: n for t, n in counts.items() if (t ** 3 + 27) % p}


def _curve_class(n):
    """Which locus calls have order-m points: 4 needs 8 | #E, 5 needs 5 | #E.

    E[3] is rational on these curves, so a point of order 4 exists iff the
    2-part of the group is not Z/2 x Z/2, which 8 | #E forces and 4 !| #E
    rules out; a point of order 5 exists iff 5 | #E.
    """
    if n % 4 and n % 5:
        return "plain"
    if n % 8 == 0 and n % 5:
        return 4
    if n % 5 == 0 and n % 4:
        return 5
    return None


class TorsionCensus:
    """Point census on seeded Hesse cubics over GF(p) and GF(p^2)."""

    name = "torsion_census"
    must_call = ("field.GFpElem.mul", "field.GFpElem.add",
                 "field.GFpElem.inverse", "field.GFpkElem.mul",
                 "field.GFpkElem.add", "field.GFpkElem.inverse",
                 "cubic.CubicGroup.add", "cubic.CubicGroup.scalar_mul",
                 "cubic.rational_points", "torsion.verify_torsion_locus",
                 "torsion.verify_nine_torsion_cubics",
                 "torsion.hesse_collinear_curves", "linalg.rref.gfp",
                 "linalg.kernel_basis.gfp")

    def __init__(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        primes = [rng.choice(pair) for pair in PRIME_PAIRS]
        by_class = {}  # p -> {class: [(t, #E)]}
        for p in primes + [EXTENSION_PRIME]:
            by_class[p] = {}
            for t, n in hesse_point_counts(p).items():
                by_class[p].setdefault(_curve_class(n), []).append((t, n))
        classes = dict.fromkeys(primes, "plain")
        for m, k in ((4, ORDER4_CURVES), (5, ORDER5_CURVES)):
            free = [p for p in primes
                    if classes[p] == "plain" and m in by_class[p]]
            for p in rng.sample(free, k):
                classes[p] = m
        self.calls = []  # [name, args(, kwargs)]
        self.point_counts = []  # #E(GF(p)) of each call's curve
        for p in primes:
            t, n = rng.choice(by_class[p][classes[p]])
            calls = [["verify_torsion_locus", [4, p, t]],
                     ["verify_torsion_locus", [5, p, t]],
                     ["verify_nine_torsion_cubics", [p, t]]]
            if classes[p] != "plain":
                calls.append(["hesse_collinear_curves", [classes[p], p, t]])
            self.calls += calls
            self.point_counts += [n] * len(calls)
        # one curve whose group over GF(p^2) has points of order 5
        p = EXTENSION_PRIME
        t, n = rng.choice([(t, n) for c in by_class[p].values() for t, n in c
                           if n * (2 * p + 2 - n) % 5 == 0])
        self.calls.append(["verify_torsion_locus", [5, p, t],
                           {"quadratic_extension": True}])
        self.point_counts.append(n)

    def argv(self):
        return _python(str(HERE / "census.py"), json.dumps(self.calls))

    def traced_argv(self):
        return _python(str(HERE / "layers.py"), "census", json.dumps(self.calls))

    def attempted(self):
        return len(self.calls)

    def check(self, rc, stdout):
        try:
            results = json.loads(stdout) if rc == 0 else None
        except ValueError:
            results = None
        if not isinstance(results, list) or len(results) != len(self.calls):
            return len(self.calls), None
        failed = sum(1 for call, n, r in zip(self.calls, self.point_counts, results)
                     if "result" not in r or not _call_ok(call, n, r["result"]))
        return failed, results

    def claim_seconds(self, stdout):
        return dict.fromkeys(layers.SUITES, 0.0)  # no ledger: library calls only


def _call_ok(call, n, r):
    """One census result against #E(GF(p)) = n, counted without halphen."""
    name, args = call[0], call[1]
    if name == "verify_nine_torsion_cubics":
        return (r["rational_order9"] > 0) == (n % 27 == 0)
    if name == "hesse_collinear_curves":
        return (r["multiplicities"] == ([2, 1] if args[0] == 4 else [1, 2])
                and len(r["systems"]) == 12
                and all(s["kernel_dim"] >= 1 for s in r["systems"]))
    m, p = args[0], args[1]
    if len(call) > 2:  # over GF(p^2): #E = n (2p + 2 - n)
        n = n * (2 * p + 2 - n)
    has_points = n % 5 == 0 if m == 5 else _curve_class(n) == 4
    census = r["order_census"]
    return (r["points_on_locus"] == r["points_of_exact_order"]
            == sum(census.values())
            and set(census) <= {str(m)}
            and (r["points_of_exact_order"] > 0) == has_points)


WORKLOADS = {w.name: w for w in (VerifyAll, SpecializedQE, TorsionCensus)}


# ---------------------------------------------------------------------------
# runs


def setup_sample(deadline):
    """Wall time of a fresh interpreter importing halphen.cli."""
    child = Child(_python("-c", "import halphen.cli"), deadline)
    if child.rc != 0:
        raise SystemExit(f"importing halphen.cli failed (exit {child.rc})")
    return child.wall_s


def timed_run(workload, seconds, deadline):
    """Repetitions until `seconds` have passed (at least MIN_REPETITIONS),
    with setup samples before each repetition and after the last, so that
    they span the run."""
    setup_sample(deadline)  # the first start may compile the bytecode
    setup, reps, failed = [], [], 0
    start = time.perf_counter()
    while True:
        setup += [setup_sample(deadline) for _ in range(SETUP_SAMPLES_PER_GAP)]
        now = time.perf_counter()
        enough = len(reps) >= MIN_REPETITIONS and now - start >= seconds
        if enough or (reps and now + reps[-1].wall_s > deadline):
            break
        child = Child(workload.argv(), deadline)
        failed += workload.check(child.rc, child.stdout)[0]
        reps.append(child)
    attempted = workload.attempted() * len(reps)
    samples = {"wall_s": [c.wall_s for c in reps],
               "cpu_s": [c.cpu_s for c in reps],
               "setup_s": setup,
               "peak_rss_mb": [c.peak_rss_mb for c in reps]}
    print(f"{workload.name}: {len(reps)} repetitions in"
          f" {time.perf_counter() - start:.1f} s")
    for name, values in samples.items():
        unit = UNITS[name]
        print(f"  {name:<12} median {statistics.median(values):.4f} {unit}"
              f"  max {max(values):.4f} {unit}  (n={len(values)})")
    print(f"  {'fail_ratio':<12} {failed / attempted:.4f} ratio"
          f"  ({failed} of {attempted} checks failed)")
    metrics = {name: {"value": statistics.median(values), "unit": UNITS[name]}
               for name, values in samples.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def traced_run(workload, deadline):
    plain = Child(workload.argv(), deadline)
    traced = Child(workload.traced_argv(), deadline)
    failed, plain_result = workload.check(plain.rc, plain.stdout)
    try:
        doc = json.loads(traced.stdout) if traced.rc == 0 else None
    except ValueError:
        doc = None
    if doc is None:
        doc = {"rc": traced.rc, "stdout": "", "calls": {}, "self_s": {}}
    traced_failed, traced_result = workload.check(doc["rc"], doc["stdout"])
    failed += traced_failed
    problems = []
    if failed == 0 and plain_result != traced_result:
        problems.append("the traced run's results differ from the untraced run's")
    calls, self_s = doc["calls"], doc["self_s"]
    idle = [s for s in workload.must_call if not calls.get(s)]
    if idle:
        problems.append(f"no calls recorded for {', '.join(idle)}")
    claim_s = workload.claim_seconds(plain.stdout)
    # CPU rather than wall time: a single pair of runs, so still noisy
    overhead_s = traced.cpu_s - plain.cpu_s
    metrics = {}
    for name, unit in layers.metric_units().items():
        stem, _, kind = name.rpartition(".")
        if stem == "cli.claim_s":
            value = claim_s[kind]
        elif name == "trace.overhead_s":
            value = overhead_s
        elif kind == "calls":
            value = calls.get(stem, 0)
        else:
            value = self_s.get(stem, 0.0)
        metrics[name] = {"value": value, "unit": unit}
    print(f"{workload.name} traced: untraced cpu_s {plain.cpu_s:.4f} s,"
          f" traced cpu_s {traced.cpu_s:.4f} s,"
          f" trace.overhead_s {overhead_s:.4f} s")
    for name, m in metrics.items():
        if m["value"]:
            print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    for problem in problems:
        print(f"  FAILED: {problem}")
    return {"correct": failed == 0 and not problems,
            "attempted": 2 * workload.attempted(), "failed": failed,
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "halphen" / "cli.py").is_file():
        print(f"no halphen sources in {SRC}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_LIMIT_S
    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        result = traced_run(workload, deadline)
    else:
        result = timed_run(workload, args.seconds, deadline)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

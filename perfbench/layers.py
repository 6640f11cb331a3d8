"""Per-layer counters and self-time spans around halphen's public functions.

Child program of a traced run:

    python3 perfbench/layers.py cli verify all --format json
    python3 perfbench/layers.py census '<calls as JSON>'

It wraps the functions and methods named in COUNTERS and SPANS under every
name they are bound to in the package (so `torsion.kernel_basis` is counted
as well as `linalg.kernel_basis`), runs the target, and prints one JSON
object:
`{"rc": exit code, "stdout": the target's output, "calls": {stem: count},
"self_s": {stem: seconds}}`.

Scalar field operations run millions of times per command, so they are
counted only.  Every other wrapped function is a span: its self time is its
duration minus the time spent in wrapped spans it called.  That includes the
counting wrappers' own cost for the scalar operations the span made, so a
span that does much scalar arithmetic shows more self time than it has
untraced.  Spans are aggregated per name as they close; none is stored.
"""

import contextlib
import functools
import importlib
import io
import json
import sys
import time

# (module, attribute path) of each counted scalar operation.
COUNTERS = tuple(
    ("field", f"{cls}.{attr}")
    for cls in ("QEpsElem", "RatFuncElem", "GFpElem", "GFpkElem")
    for attr in ("__mul__", "__add__", "inverse")
    + (("__init__",) if cls == "RatFuncElem" else ()))

# (module, attribute path) of each span, in the order metrics are listed.
SPANS = (
    ("field", "pgcd"), ("field", "pmul"),
    ("plane", "Poly3.evaluate"), ("plane", "Poly3.__mul__"),
    ("plane", "Poly3.restrict_to_line"), ("plane", "resultant"),
    ("plane", "bf_divide_linear"),
    ("linalg", "rref"), ("linalg", "kernel_basis"), ("linalg", "solve"),
    ("linalg", "smith_normal_form"),
    ("cubic", "CubicGroup.add"), ("cubic", "CubicGroup.scalar_mul"),
    ("cubic", "rational_points"),
    ("chilean", "build_chilean"), ("chilean", "fiber_nodes"),
    ("chilean", "dual_hesse_lines"), ("chilean", "fiber_product_lambdas"),
    ("chilean", "special_members"), ("chilean", "cross_ratio_probe"),
    ("chilean", "singular_census"), ("chilean", "degenerate_configuration"),
    ("piclattice", "enumerate_minus1_generative"),
    ("piclattice", "enumerate_minus1_bruteforce"),
    ("piclattice", "realize_low_degree_classes"),
    ("piclattice", "chilean_set_uniqueness"),
    ("torsion", "find_specialization"), ("torsion", "verify_torsion_locus"),
    ("torsion", "verify_nine_torsion_cubics"),
    ("torsion", "hesse_collinear_curves"),
    ("invariants", "reference_report"), ("invariants", "extract_combinatorics"),
    ("invariants", "harbourne_report"), ("invariants", "char2_code"),
)

# Spans split by the class of their `field` argument.  No workload
# eliminates over GF(p^k), so `.gfpk` is recorded but not a metric.
BY_FIELD = {"rref", "kernel_basis"}
FIELD_TAGS = {"QEpsField": "qe", "RatFuncField": "qea", "PrimeField": "gfp",
              "PrimeExtField": "gfpk"}
REPORTED_TAGS = ("qe", "qea", "gfp")

SUITES = ("incidence", "pencil", "lattice", "torsion", "invariants", "code")


def _stem(module, path):
    owner, _, attr = path.rpartition(".")
    attr = {"__mul__": "mul", "__add__": "add", "__init__": "new"}.get(attr, attr)
    return ".".join(p for p in (module, owner, attr) if p)


def span_stems():
    out = []
    for module, path in SPANS:
        stem = _stem(module, path)
        if path in BY_FIELD:
            out.extend(f"{stem}.{tag}" for tag in REPORTED_TAGS)
        else:
            out.append(stem)
    return out


def call_stems():
    """Every stem with a call count: the counters, then the spans."""
    return [_stem(m, p) for m, p in COUNTERS] + span_stems()


def metric_units():
    """{name: unit} of every per-layer metric, in BENCHMARK.json order."""
    units = {f"{_stem(m, p)}.calls": "count" for m, p in COUNTERS}
    for stem in span_stems():
        units[f"{stem}.calls"] = "count"
        units[f"{stem}.self_s"] = "s"
    for suite in SUITES:
        units[f"cli.claim_s.{suite}"] = "s"
    units["trace.overhead_s"] = "s"
    return units


class Recorder:
    """Call counts and aggregated self times, keyed by metric stem."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self._child_time = [0.0]  # one slot per open span, plus the root

    def counter(self, stem, fn):
        calls = self.calls
        calls[stem] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[stem] += 1
            return fn(*args, **kwargs)
        return wrapper

    def span(self, stem, fn, tag_of=None):
        calls, self_s, child_time = self.calls, self.self_s, self._child_time
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = stem if tag_of is None else f"{stem}.{tag_of(args, kwargs)}"
            calls[name] = calls.get(name, 0) + 1
            child_time.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - t0
                self_s[name] = self_s.get(name, 0.0) + took - child_time.pop()
                child_time[-1] += took
        return wrapper


def _field_tag(args, kwargs):
    field = kwargs["field"] if "field" in kwargs else args[1]
    return FIELD_TAGS[type(field).__name__]


def _package_modules():
    importlib.import_module("halphen.cli")
    return [m for name, m in sorted(sys.modules.items())
            if name == "halphen" or name.startswith("halphen.")]


def _bindings(modules):
    """(owner, name, value) for every module global and class attribute."""
    for mod in modules:
        for name, value in list(vars(mod).items()):
            yield mod, name, value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for cname, cvalue in list(vars(value).items()):
                    yield value, cname, cvalue


def _rebind(modules, original, wrapper):
    """Point every name bound to `original` at `wrapper`; returns the count."""
    sites = [(owner, name) for owner, name, value in _bindings(modules)
             if value is original]
    for owner, name in sites:
        setattr(owner, name, wrapper)
    return len(sites)


def install(recorder):
    """Wrap every target in the imported halphen package."""
    modules = _package_modules()
    by_name = {m.__name__.rpartition(".")[2]: m for m in modules}
    targets = [(m, p, False) for m, p in COUNTERS]
    targets += [(m, p, True) for m, p in SPANS]
    for module, path, timed in targets:
        stem = _stem(module, path)
        owner = by_name[module]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        if timed:
            tag_of = _field_tag if attr in BY_FIELD else None
            wrapper = recorder.span(stem, original, tag_of)
        else:
            wrapper = recorder.counter(stem, original)
        if _rebind(modules, original, wrapper) == 0:
            raise RuntimeError(f"{module}.{path} is bound nowhere")


def run_target(argv):
    """Run `cli <args>` or `census <calls>`; returns (exit code, stdout)."""
    kind, rest = argv[0], argv[1:]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if kind == "cli":
            from halphen.cli import main
            rc = main(rest)
        elif kind == "census":
            import census
            rc = census.main(rest)
        else:
            raise SystemExit(f"unknown target {kind!r}")
    return rc, out.getvalue()


def main(argv):
    recorder = Recorder()
    install(recorder)
    rc, stdout = run_target(argv)
    print(json.dumps({"rc": rc, "stdout": stdout, "calls": recorder.calls,
                      "self_s": recorder.self_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

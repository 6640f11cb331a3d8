"""Command-line front end: runs the verification suites and emits reports.

    python -m halphen verify all --format json
    python -m halphen enumerate minus1 --format csv
    python -m halphen verify torsion --m 5 --p-max 200
    python -m halphen invariants
    python -m halphen code

Exit status is 0 when every claim passes, 1 on any failure or when no
claim was checked, 2 on a configuration error.  Output is deterministic for a fixed (config, seed);
pass --no-timing to make it byte-identical across runs.
"""

import argparse
import csv
import io
import json
import random
import sys
import time
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

from . import chilean, cubic, invariants, piclattice, torsion
from .field import GF, QQ_EPS, to_text

SUITE_ORDER = ("incidence", "pencil", "lattice", "torsion", "invariants", "code")
TORSION_INDICES = (4, 5, 9)  # the orders with a stored locus or cubics


@dataclass
class RunConfig:
    mode: str = "symbolic"
    a_value: Fraction = Fraction(2)
    prime: int = None
    p_max: int = 200
    seed: int = 0
    suites: tuple = SUITE_ORDER
    output: str = None
    fmt: str = "text"
    fail_fast: bool = False
    d_max: int = 12
    with_quadratic_extension: bool = False
    include_timing: bool = True
    m_values: tuple = TORSION_INDICES


@dataclass
class LedgerEntry:
    claim: str
    anchor: str
    verdict: str
    witness: str
    ms: int


@dataclass
class VerificationLedger:
    entries: list = dataclass_field(default_factory=list)

    def passed(self):
        """True iff some claim was checked and every claim passed."""
        return bool(self.entries) and all(e.verdict == "pass"
                                          for e in self.entries)


def _good_parameter_over(p):
    """The smallest good family parameter over GF(p)."""
    F = GF(p)
    for v in range(2, p):
        a = F.from_int(v)
        try:
            chilean.check_good_parameter(F, a)
        except chilean.VerificationError:
            continue
        return a
    raise chilean.VerificationError(f"no good parameter over GF({p})")


def default_specializations(count=3, p_max=200):
    """The smallest primes p = 1 mod 3 with a good parameter, by scan."""
    out = []
    for p in torsion.good_primes(p_max):
        try:
            out.append((p, _good_parameter_over(p)))
        except chilean.VerificationError:
            continue
        if len(out) == count:
            break
    return out


# ---------------------------------------------------------------------------
# suites: lists of (claim, anchor, thunk) where the thunk returns witness text


def _suite_incidence(config, ctx):
    def build_symbolic():
        data = ctx.data()
        rows = [sum(r) for r in data.incidence]
        cols = [sum(data.incidence[i][j] for i in range(9)) for j in range(12)]
        return f"row sums {sorted(set(rows))}, column sums {sorted(set(cols))}"

    def spot_specializations():
        if config.prime is not None:
            specs = [(config.prime, _good_parameter_over(config.prime))]
        else:
            specs = default_specializations()
        for p, a in specs:
            chilean.build_chilean(GF(p), a)
        chilean.build_chilean(QQ_EPS, QQ_EPS.from_fraction(config.a_value))
        return f"a = {config.a_value} over Q(e) and {[(p, a.v) for p, a in specs]}"

    def symmetries():
        reports = chilean.verify_symmetries(ctx.data())
        return f"group of order {len(reports)} permutes points and conics fiberwise"

    def nodes_and_lines():
        nodes = ctx.nodes()
        lines, inc = ctx.lines_and_incidence()
        return (f"12 nodes, 9 lines; line degrees "
                f"{sorted(set(sum(r) for r in inc))}, node degrees "
                f"{sorted(set(sum(inc[i][j] for i in range(9)) for j in range(12)))}")

    def group_law_sample():
        rng = random.Random(config.seed)
        F = GF(13)
        curve = cubic.HesseCubic(F, 2)
        pts = cubic.rational_points(curve)
        g = cubic.CubicGroup(curve, cubic.hesse_flexes(F)[6])
        for _ in range(60):
            P, Q, R = (rng.choice(pts) for _ in range(3))
            if g.add(g.add(P, Q), R) != g.add(P, g.add(Q, R)):
                raise cubic.CubicError("associativity failed")
        return "60 random associativity triples over GF(13)"

    return [
        ("conic-point incidence (12_6, 9_8)", "nine points on eight conics each,"
         " twelve conics through six points each", build_symbolic),
        ("incidence at specializations", "configuration survives good parameter"
         " choices", spot_specializations),
        ("symmetry group of order 6", "coordinate symmetries permute the data",
         symmetries),
        ("dual configuration (9_4, 12_3)", "nine lines through the twelve"
         " fiber nodes", nodes_and_lines),
        ("chord-tangent group law sanity", "associativity spot check",
         group_law_sample),
    ]


def _suite_pencil(config, ctx):
    def lambdas():
        lams = ctx.lambdas()
        return "; ".join(to_text(l) for l in lams)

    def members():
        sp = chilean.special_members(ctx.data(), ctx.pencil())
        return (f"nine-cusped sextic at lambda = {to_text(sp['lambda'])};"
                " double member proportional to the Caylean cubic")

    def cusp_census():
        sp = chilean.special_members(ctx.data(), ctx.pencil())
        # the census prime must keep the (possibly baked-in) parameter good
        from .field import BadSpecializationError, rational_to_field
        p = a = None
        for q in torsion.good_primes(config.p_max):
            F = GF(q)
            try:
                if config.mode == "specialized":
                    cand = rational_to_field(config.a_value, F)
                else:
                    cand = _good_parameter_over(q)
                chilean.check_good_parameter(F, cand)
            except (chilean.VerificationError, BadSpecializationError):
                continue
            p, a = q, cand
            break
        if p is None:
            raise chilean.VerificationError("no census prime available")
        F = GF(p)
        sext = sp["cuspidal_sextic"].specialize(F, eps_image=F.eps(), a_image=a)
        cen = chilean.singular_census(sext)
        kinds = sorted(k for _, _, k in cen)
        if len(cen) != 9 or set(kinds) != {"cusp"}:
            raise chilean.VerificationError(f"census found {kinds}")
        return f"9 cusps over GF({p}) at a = {a.v}"

    def quintic_census():
        F = GF(13)
        W = chilean.branch_quintic(F, F.from_int(2))
        cen = chilean.singular_census(W)
        kinds = sorted(k for _, _, k in cen)
        if len(cen) != 5 or kinds.count("cusp") != 1 or kinds.count("node") != 4:
            raise chilean.VerificationError(f"census found {kinds}")
        return "tacnodal point plus four nodes over GF(13), a = 2"

    def degenerations():
        chilean.degenerate_pencil()
        cfg = chilean.degenerate_configuration()
        return (f"{len(cfg['conics'])} conics and {len(cfg['lines'])} lines at"
                " the simple-root parameter; triple-point pencil at a = 1")

    def probe():
        rep = chilean.cross_ratio_probe(ctx.data(), ctx.pencil())
        hits = [r for r in rep["subsets"] if r["equianharmonic"]]
        return (f"{len(hits)} of 5 subsets equianharmonic: "
                + "; ".join(f"{{{', '.join(r['subset'])}}} with R = {r['ratio']}"
                            for r in hits))

    return [
        ("sextic pencil members", "four conic-triple parameters, pairwise"
         " distinct", lambdas),
        ("distinguished members", "nine-cusped sextic and Caylean double"
         " member", members),
        ("cusp census", "nine cusps at the base points", cusp_census),
        ("branch quintic census", "tacnode and four double points",
         quintic_census),
        ("degenerate pencils", "boundary parameters a = 1 and a = -2",
         degenerations),
        ("cross-ratio probe", "equianharmonic four-subsets of the special"
         " parameters", probe),
    ]


def _suite_lattice(config, ctx):
    L = piclattice.chilean_lattice()

    def enumerations():
        gen = piclattice.enumerate_minus1_generative(L)
        bf = piclattice.enumerate_minus1_bruteforce(L, d_max=config.d_max)
        if gen != bf:
            raise piclattice.LatticeError("the two enumerations disagree")
        hist = piclattice.degree_histogram(gen)
        return f"144 classes, degree histogram {hist}, d_max = {config.d_max}"

    def tropical():
        reps = piclattice.verify_orbit_matrices(L)
        return f"{len(reps)} representatives matching both printed matrices"

    def orbits():
        orb = piclattice.verify_mw_action(ctx.classes144())
        cosets, pairing = piclattice.res_partition(ctx.classes144(), L)
        fac_lam, fac_full = piclattice.kperp_quotients(L)
        return (f"16 orbits of 9; 18 cosets of 8; quotients {fac_lam} and"
                f" {fac_full}")

    def pairing():
        piclattice.bertini_involution(ctx.classes144(), L)
        return "involution pairs degrees 0<->4, 1<->3, 2<->2 with product 3"

    def nine_class():
        rep = piclattice.verify_nine_class_theorem(L)
        return (f"D.D' = {rep['D0111.D1012']}, H = {rep['H']},"
                f" H^2 = {rep['H^2']}")

    def uniqueness():
        rep = piclattice.chilean_set_uniqueness(ctx.classes144(), L)
        return (f"{rep['total_cliques']} orthogonal nine-sets,"
                f" {len(rep['qualifying'])} with all conic degrees 2")

    def index3():
        L3 = piclattice.index3_lattice()
        piclattice.index3_section_check()
        piclattice.verify_torsion_vectors()
        return "12 classes in 4 triples summing to -3K; section matrix checks"

    def geometry():
        n = piclattice.realize_low_degree_classes(ctx.classes144(), ctx.data().points)
        return f"{n} line and conic classes realized by actual curves"

    return [
        ("144 minus-one classes", "two independent enumerations agree",
         enumerations),
        ("tropical space at e_9", "sixteen representatives in two eights",
         tropical),
        ("translation orbits and cosets", "free action with 16 orbits;"
         " 18 cosets of 8", orbits),
        ("ramification pairing", "degree-swapping involution", pairing),
        ("nine-class arithmetic", "third-integer divisors and the degree-one"
         " polarization", nine_class),
        ("unique orthogonal nine-set", "one qualifying set among all cliques",
         uniqueness),
        ("index-3 class data", "triples, section matrix, torsion vectors",
         index3),
        ("low-degree class geometry", "lines through two and conics through"
         " five points", geometry),
    ]


def _suite_torsion(config, ctx):
    m_values = config.m_values
    claims = []

    def make_locus_check(m):
        def thunk():
            spec = torsion.find_specialization(m, p_max=config.p_max)
            if m in (4, 5):
                rep = torsion.verify_torsion_locus(m, spec["p"], spec["t"])
                return (f"p = {rep['p']}, t = {rep['t']}, census"
                        f" {rep['order_census']}")
            rep = torsion.verify_nine_torsion_cubics(spec["p"], spec["t"])
            return (f"p = {rep['p']}, t = {rep['t']},"
                    f" {rep['rational_order9']} rational points of order 9")
        return thunk

    for m in m_values:
        if m in (4, 5):
            claims.append((f"torsion locus m = {m}", "locus cuts exactly the"
                           f" points of order {m}", make_locus_check(m)))
        elif m == 9:
            claims.append(("nine-torsion cubics", "eight cubics cover the"
                           " rational nine-torsion", make_locus_check(9)))

    def make_curve_check(m):
        def thunk():
            spec = torsion.find_specialization(m, p_max=config.p_max)
            rep = torsion.hesse_collinear_curves(m, spec["p"], spec["t"],
                                                 spec["witness"])
            dims = sorted({s["kernel_dim"] for s in rep["systems"]})
            return (f"p = {rep['p']}, multiplicities {rep['multiplicities']},"
                    f" kernel dimensions {dims}")
        return thunk

    for m in (m for m in m_values if m in (4, 5)):
        claims.append((f"degree-{m} curves at translated points",
                       "twelve linear systems with the index multiplicities",
                       make_curve_check(m)))

    if config.with_quadratic_extension:
        def make_quadratic_check(m):
            def thunk():
                rep = torsion.verify_torsion_locus_quadratic(m, p_max=config.p_max)
                return (f"{rep['field']}, t = {rep['t']},"
                        f" census {rep['order_census']}")
            return thunk

        for m in (m for m in m_values if m in (4, 5)):
            claims.append((f"torsion locus m = {m} over the quadratic extension",
                           "the same inclusions for points of degree two",
                           make_quadratic_check(m)))
    return claims


def _suite_invariants(config, ctx):
    def values():
        rows = invariants.reference_report(ctx.invariant_context())
        return "; ".join(f"{r['name']}: {tuple(map(str, r['published_log_chern']))}"
                         f" slope {r['slope']}" for r in rows)

    def geometry():
        rows = invariants.reference_report(ctx.invariant_context())
        mismatches = [r["name"] for r in rows if not r["match"]]
        if sorted(mismatches) != ["A1", "A2"]:
            raise invariants.ArrangementError(
                f"unexpected geometric mismatches: {mismatches}")
        detail = {r["name"]: r["geometric_t"] for r in rows if not r["match"]}
        return (f"exact geometry matches for chilean, A0, A3; the base points"
                f" lie on their lines, so A1, A2 carry them with one more"
                f" incidence: {detail}")

    def harbourne():
        rep = invariants.harbourne_report()
        return f"chilean {rep['chilean']}, degenerate {rep['degenerate']}"

    return [
        ("log Chern numbers", "five value pairs with their slopes", values),
        ("census cross-check", "published tables versus exact geometry",
         geometry),
        ("Harbourne constants", "-67/28 and -61/25", harbourne),
    ]


def _suite_code(config, ctx):
    def code():
        rep = invariants.char2_code()
        if rep["enumerator"] != invariants.EXPECTED_WEIGHT_ENUMERATOR:
            raise invariants.ArrangementError(
                f"weight enumerator {rep['enumerator']}")
        return (f"dimension {rep['dimension']}, enumerator "
                + invariants.weight_enumerator_string(rep["enumerator"]))

    return [
        ("binary incidence code", "dimension 9 with the published weight"
         " enumerator", code),
    ]


SUITES = {
    "incidence": _suite_incidence,
    "pencil": _suite_pencil,
    "lattice": _suite_lattice,
    "torsion": _suite_torsion,
    "invariants": _suite_invariants,
    "code": _suite_code,
}


class _SharedContext:
    """Lazily built shared objects so suites do not recompute them.

    In specialized mode the incidence and pencil suites run over Q(e) at
    the requested parameter value instead of symbolically; the lattice,
    invariant and code suites are parameter-free or build what they need.
    """

    def __init__(self, config=None):
        self._cache = {}
        self._config = config

    def data(self):
        if "data" not in self._cache:
            if self._config is not None and self._config.mode == "specialized":
                a = QQ_EPS.from_fraction(self._config.a_value)
                self._cache["data"] = chilean.build_chilean(QQ_EPS, a)
            else:
                self._cache["data"] = chilean.build_chilean()
        return self._cache["data"]

    def pencil(self):
        if "pencil" not in self._cache:
            self._cache["pencil"] = chilean.PencilPair(self.data())
        return self._cache["pencil"]

    def lambdas(self):
        if "lambdas" not in self._cache:
            self._cache["lambdas"] = chilean.fiber_product_lambdas(
                self.data(), self.pencil())
        return self._cache["lambdas"]

    def nodes(self):
        if "nodes" not in self._cache:
            self._cache["nodes"] = chilean.fiber_nodes(self.data())
        return self._cache["nodes"]

    def lines_and_incidence(self):
        if "lines" not in self._cache:
            self._cache["lines"] = chilean.dual_hesse_lines(self.data(),
                                                            self.nodes())
        return self._cache["lines"]

    def classes144(self):
        if "classes" not in self._cache:
            L = piclattice.chilean_lattice()
            self._cache["classes"] = piclattice.enumerate_minus1_generative(L)
        return self._cache["classes"]

    def invariant_context(self):
        if "invctx" not in self._cache:
            lines, _ = self.lines_and_incidence()
            self._cache["invctx"] = {
                "data": self.data(),
                "nodes": self.nodes(),
                "node_points": [n for _, n in self.nodes()],
                "lines": lines,
                "degenerate": chilean.degenerate_configuration(),
            }
        return self._cache["invctx"]


def run(config):
    """Execute the selected suites in order; returns the ledger."""
    ctx = _SharedContext(config)
    ledger = VerificationLedger()
    for suite in SUITE_ORDER:
        if suite not in config.suites:
            continue
        for claim, anchor, thunk in SUITES[suite](config, ctx):
            t0 = time.monotonic()
            try:
                witness = thunk()
                verdict = "pass"
            except Exception as err:  # noqa: BLE001 - verdicts are the product
                witness = f"{type(err).__name__}: {err}"
                verdict = "fail"
            ms = int((time.monotonic() - t0) * 1000)
            ledger.entries.append(
                LedgerEntry(f"{suite}: {claim}", anchor, verdict, witness,
                            ms if config.include_timing else 0))
            if verdict == "fail" and config.fail_fast:
                return ledger
    return ledger


# ---------------------------------------------------------------------------
# report emission


def emit_report(ledger, fmt="text", path=None):
    if fmt == "json":
        doc = [{"claim": e.claim, "anchor": e.anchor, "verdict": e.verdict,
                "witness": e.witness, "ms": e.ms} for e in ledger.entries]
        text = json.dumps(doc, indent=2) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["claim", "anchor", "verdict", "witness", "ms"])
        for e in ledger.entries:
            writer.writerow([e.claim, e.anchor, e.verdict, e.witness, e.ms])
        text = buf.getvalue()
    else:
        lines = []
        width = max((len(e.claim) for e in ledger.entries), default=20)
        for e in ledger.entries:
            lines.append(f"[{e.verdict.upper():4}] {e.claim:<{width}}  {e.witness}")
        lines.append("")
        n_pass = sum(1 for e in ledger.entries if e.verdict == "pass")
        lines.append(f"{n_pass}/{len(ledger.entries)} claims pass")
        text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def _emit_minus1(fmt, d_max, path=None):
    L = piclattice.chilean_lattice()
    classes = piclattice.enumerate_minus1_bruteforce(L, d_max=d_max)
    rows = piclattice.table144(classes, L)
    if fmt == "json":
        orbits = piclattice.mw_orbits(classes)
        doc = {"classes": [{**r, "class": list(r["class"])} for r in rows],
               "orbits": [[list(D) for D in orbit] for orbit in orbits]}
        text = json.dumps(doc, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["deg", "n", "v_C", "split", "class"])
        for r in rows:
            writer.writerow([r["deg"], r["n"], r["v_C"], r["split"],
                             " ".join(map(str, r["class"]))])
        text = buf.getvalue()
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def _emit_invariants(fmt, path=None):
    rows = invariants.reference_report()
    if fmt == "json":
        doc = [{"arrangement": r["name"],
                "published_t": r["published_t"],
                "log_chern": [str(x) for x in r["published_log_chern"]],
                "slope": str(r["slope"]),
                "geometric_t": r["geometric_t"],
                "geometric_log_chern": [str(x) for x in r["geometric_log_chern"]],
                "geometry_matches_published": r["match"]} for r in rows]
        text = json.dumps(doc, indent=2) + "\n"
    else:
        lines = [f"{'arrangement':<12} {'c1^2':>6} {'c2':>5} {'slope':>7}   geometry"]
        for r in rows:
            c1, c2 = r["published_log_chern"]
            note = "matches" if r["match"] else f"differs: {r['geometric_t']}"
            lines.append(f"{r['name']:<12} {str(c1):>6} {str(c2):>5}"
                         f" {str(r['slope']):>7}   {note}")
        text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="halphen", description="exact verification of the conic"
        " configuration, its lattice and its invariants")
    sub = parser.add_subparsers(dest="command")

    pv = sub.add_parser("verify", help="run verification suites")
    pv.add_argument("suite_list", nargs="*", default=["all"],
                    metavar="suite", help="incidence pencil lattice torsion"
                    " invariants code all")
    pv.add_argument("--suites", default=None,
                    help="comma-separated alternative to the positional list")
    pv.add_argument("--mode", choices=("symbolic", "specialized"),
                    default="symbolic")
    pv.add_argument("--a", default="2", help="parameter for specialized spot"
                    " checks (rational)")
    pv.add_argument("--prime", type=int, default=None)
    pv.add_argument("--p-max", type=int, default=200)
    pv.add_argument("--m", type=int, default=None, choices=TORSION_INDICES,
                    help="restrict the torsion suite to one index")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--format", choices=("text", "json", "csv"), default="text")
    pv.add_argument("--output", default=None)
    pv.add_argument("--fail-fast", action="store_true")
    pv.add_argument("--d-max", type=int, default=12)
    pv.add_argument("--with-quadratic-extension", action="store_true")
    pv.add_argument("--no-timing", action="store_true",
                    help="zero the ms column for byte-identical output")

    pe = sub.add_parser("enumerate", help="emit class tables")
    pe.add_argument("what", choices=("minus1",))
    pe.add_argument("--format", choices=("csv", "json"), default="csv")
    pe.add_argument("--d-max", type=int, default=12)
    pe.add_argument("--output", default=None)

    pi = sub.add_parser("invariants", help="log Chern number table")
    pi.add_argument("--format", choices=("text", "json"), default="text")
    pi.add_argument("--output", default=None)

    pc = sub.add_parser("code", help="binary code weight enumerator")
    pc.add_argument("--format", choices=("text", "json"), default="text")

    pg = sub.add_parser("config", help="emit the configuration as JSON")
    pg.add_argument("--output", default=None)

    return parser, parser.parse_args(argv)


def main(argv=None):
    parser, args = _parse_args(sys.argv[1:] if argv is None else argv)
    if args.command is None:
        parser.print_help()
        return 2

    if args.command == "verify":
        suites = args.suite_list
        if args.suites:
            suites = args.suites.split(",")
        suites = [s.strip() for s in suites if s.strip()]
        if suites == ["all"] or "all" in suites:
            suites = list(SUITE_ORDER)
        unknown = [s for s in suites if s not in SUITE_ORDER]
        if unknown:
            print(f"unknown suites: {', '.join(unknown)}", file=sys.stderr)
            return 2
        try:
            a_value = Fraction(args.a)
        except (ValueError, ZeroDivisionError):
            print(f"invalid parameter value {args.a!r}", file=sys.stderr)
            return 2
        if args.mode == "specialized":
            try:
                chilean.check_good_parameter(QQ_EPS, QQ_EPS.from_fraction(a_value))
            except chilean.VerificationError as err:
                print(f"bad specialization parameter: {err}", file=sys.stderr)
                return 2
        m_values = TORSION_INDICES if args.m is None else (args.m,)
        config = RunConfig(mode=args.mode, a_value=a_value, prime=args.prime,
                           p_max=args.p_max, seed=args.seed,
                           suites=tuple(suites), output=args.output,
                           fmt=args.format, fail_fast=args.fail_fast,
                           d_max=args.d_max,
                           with_quadratic_extension=args.with_quadratic_extension,
                           include_timing=not args.no_timing,
                           m_values=m_values)
        ledger = run(config)
        text = emit_report(ledger, config.fmt, config.output)
        if not config.output:
            sys.stdout.write(text)
        return 0 if ledger.passed() else 1

    if args.command == "enumerate":
        text = _emit_minus1(args.format, args.d_max, args.output)
        if not args.output:
            sys.stdout.write(text)
        return 0

    if args.command == "invariants":
        text = _emit_invariants(args.format, args.output)
        if not args.output:
            sys.stdout.write(text)
        return 0

    if args.command == "code":
        rep = invariants.char2_code()
        if args.format == "json":
            text = json.dumps({"dimension": rep["dimension"],
                               "length": rep["length"],
                               "weight_enumerator": rep["enumerator"]},
                              indent=2) + "\n"
        else:
            text = ("W(t) = "
                    + invariants.weight_enumerator_string(rep["enumerator"])
                    + "\n")
        sys.stdout.write(text)
        return 0

    if args.command == "config":
        data = chilean.build_chilean()
        nodes = chilean.fiber_nodes(data)
        lines, _ = chilean.dual_hesse_lines(data, nodes)
        doc = chilean.export_configuration(data, nodes, lines)
        text = json.dumps(doc, indent=2) + "\n"
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0

    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())

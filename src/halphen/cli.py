"""Command-line front end: runs the verification suites and emits reports.

    python -m halphen verify all --format json
    python -m halphen enumerate minus1 --format csv
    python -m halphen verify torsion --m 5 --p-max 200
    python -m halphen invariants
    python -m halphen code

Exit status is 0 when every claim passes, 1 on any failure or when no
claim was checked, 2 on a configuration error.  A claim's verdict is
"fail" when a domain check refuted it and "error" when the code crashed.
Output is deterministic for a fixed (config, seed); pass --no-timing to
make it byte-identical across runs.
"""

import argparse
import csv
import functools
import io
import json
import os
import random
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import islice
from math import prod
from pathlib import Path
from typing import NamedTuple

from . import chilean, cubic, invariants, piclattice, plane, torsion
from .field import (GF, QQ_EPS, BadSpecializationError, FieldError,
                    specialize_scalar, to_text)
from .published import PAPER, check

SUITE_ORDER = ("incidence", "pencil", "lattice", "torsion", "invariants", "code")
TORSION_INDICES = (4, 5, 9)  # the orders with a stored locus or cubics
# run parameters of fixed claims: the chord-tangent sample's (p, t, number
# of triples), t = 1 being the least t of an 18-point curve over GF(13) (at
# t = 2 all 9 points are flexes); the branch quintic's primes and a
GROUP_LAW_SAMPLE = (13, 1, 60)
QUINTIC_SPECIALIZATIONS = ((13, 19), 2)
NUMBER_WORDS = ("no", "one", "two", "three", "four")
MIN_D_MAX = 4  # the brute-force class search must reach the degree-4 classes

# A claim that raises one of these was refuted; anything else is a crash.
DOMAIN_ERRORS = (FieldError, chilean.VerificationError, piclattice.LatticeError,
                 torsion.TorsionError, invariants.ArrangementError,
                 cubic.CubicError, plane.GeometryError)


class RunConfig(NamedTuple):
    mode: str = "symbolic"
    a_value: Fraction = Fraction(2)
    prime: int = None
    p_max: int = 200
    seed: int = 0
    suites: tuple = SUITE_ORDER
    fail_fast: bool = False
    d_max: int = 12
    with_quadratic_extension: bool = False
    include_timing: bool = True
    m_values: tuple = TORSION_INDICES


class LedgerEntry(NamedTuple):
    claim: str
    anchor: str
    verdict: str
    witness: str
    ms: int


class VerificationLedger:
    def __init__(self):
        self.entries = []

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


def good_specializations(p_max, a_value=None):
    """(p, a) for each good prime p <= p_max with a good parameter a over GF(p).

    a is the image of the rational `a_value`, skipped where it is not good
    over GF(p), or the smallest good parameter when `a_value` is None.
    """
    for p in torsion.good_primes(p_max):
        F = GF(p)
        try:
            if a_value is None:
                a = _good_parameter_over(p)
            else:
                a = specialize_scalar(QQ_EPS.from_fraction(a_value), F)
                chilean.check_good_parameter(F, a)
        except (chilean.VerificationError, BadSpecializationError):
            continue
        yield p, a


# ---------------------------------------------------------------------------
# suites: lists of (claim, anchor, thunk) where the thunk returns witness
# text; `ctx` is the run's shared chilean.Configuration.  A thunk compares
# what it found with the paper (`published.check`), and prints that.


def _suite_incidence(config, ctx):
    def build_symbolic():
        inc = ctx.data.incidence
        found = {"row sums": sorted({sum(r) for r in inc}),
                 "column sums": sorted({sum(c) for c in zip(*inc)})}
        check("conic-point incidence (12_6, 9_8)", chilean.VerificationError, found)
        return f"row sums {found['row sums']}, column sums {found['column sums']}"

    def spot_specializations():
        if config.prime is not None:
            specs = [(config.prime, _good_parameter_over(config.prime))]
        else:
            specs = list(islice(good_specializations(200), 3))
        for p, a in specs:  # the conics are the m = 2 curve systems
            torsion.two_torsion_conics(chilean.build_chilean(GF(p), a))
        chilean.build_chilean(QQ_EPS, QQ_EPS.from_fraction(config.a_value))
        return f"a = {config.a_value} over Q(e) and {[(p, a.v) for p, a in specs]}"

    def symmetries():
        order = len(chilean.verify_symmetries(ctx.data))
        check("symmetry group of order 6", chilean.VerificationError, {"order": order})
        return f"group of order {order} permutes points and conics fiberwise"

    def nodes_and_lines():
        lines, inc = ctx.lines_and_incidence  # the degrees are checked there
        check("dual configuration (9_4, 12_3)", chilean.VerificationError,
              {"nodes": len(ctx.nodes), "lines": len(lines)})
        return (f"{len(ctx.nodes)} nodes, {len(lines)} lines; line degrees "
                f"{sorted({sum(r) for r in inc})}, node degrees "
                f"{sorted({sum(c) for c in zip(*inc)})}")

    def group_law_sample():
        rng = random.Random(config.seed)
        p, t, triples = GROUP_LAW_SAMPLE
        F = GF(p)
        curve = cubic.HesseCubic(F, t)
        pts = cubic.rational_points(curve)
        g = cubic.CubicGroup(curve, cubic.hesse_flexes(F)[6])
        for _ in range(triples):
            P, Q, R = (rng.choice(pts) for _ in range(3))
            if g.add(g.add(P, Q), R) != g.add(P, g.add(Q, R)):
                raise cubic.CubicError("associativity failed")
        return f"{triples} random associativity triples over GF({p})"

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
        check("sextic pencil members", chilean.VerificationError,
              {"distinct parameters": len({to_text(l) for l in ctx.lambdas})})
        return "; ".join(to_text(l) for l in ctx.lambdas)

    def members():
        lam, a = ctx.special["lambda"], ctx.data.a
        check("distinguished members", chilean.VerificationError,
              {"lambda (a^3 - 1)": lam * (a**3 - 1)})
        return (f"nine-cusped sextic at lambda = {to_text(lam)};"
                " double member proportional to the Caylean cubic")

    def cusp_census():
        sp = ctx.special
        a_value = config.a_value if config.mode == "specialized" else None
        found = next(good_specializations(config.p_max, a_value), None)
        if found is None:
            raise chilean.VerificationError("no census prime available")
        p, a = found
        F = GF(p)
        sext = sp["cuspidal_sextic"].specialize(F, eps_image=F.eps(), a_image=a)
        cen = chilean.singular_census(sext)
        check("cusp census", chilean.VerificationError,
              {"singular points": dict(Counter(k for _, _, k in cen))})
        return f"{len(cen)} cusps over GF({p}) at a = {a.v}"

    def quintic_census():
        # a second good prime: a wrong coefficient may agree mod 13 at a = 2
        primes, a = QUINTIC_SPECIALIZATIONS
        found = []
        for p in primes:
            F = GF(p)
            W = chilean.branch_quintic(F, F.from_int(a))
            found.append(dict(Counter(k for _, _, k in chilean.singular_census(W))))
            check("branch quintic census", chilean.VerificationError,
                  {"singular points": found[-1]})
        # the one cusp, a double point with one tangent, is the tacnode
        return (f"tacnodal point plus {NUMBER_WORDS[found[0]['node']]} nodes over"
                f" GF({primes[0]}), a = {a}")

    def degenerations():
        chilean.degenerate_pencil()
        data, lines = ctx.degenerate
        check("degenerate pencils", chilean.VerificationError,
              {"conics": len(data.conics), "lines": len(lines)})
        return (f"{len(data.conics)} conics and {len(lines)} lines at"
                " the simple-root parameter; triple-point pencil at a = 1")

    def probe():
        rep = chilean.cross_ratio_probe(ctx.lambdas, ctx.data.field)
        hits = [r for r in rep["subsets"] if r["equianharmonic"]]
        check("cross-ratio probe", chilean.VerificationError,
              {"equianharmonic": [r["subset"] for r in hits]})
        return (f"{len(hits)} of {len(rep['subsets'])} subsets equianharmonic: "
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

    @functools.cache
    def classes144():
        return piclattice.enumerate_minus1_generative(L)

    def enumerations():
        gen = classes144()
        bf = piclattice.enumerate_minus1_bruteforce(L, d_max=config.d_max)
        if gen != bf:
            raise piclattice.LatticeError("the two enumerations disagree")
        perm = piclattice.galois_permutation(L)
        if {piclattice.apply_perm(perm, D) for D in gen} != set(gen):
            raise piclattice.LatticeError(
                "the deck involution does not permute the 144 classes")
        hist = piclattice.degree_histogram(gen)
        check("144 minus-one classes", piclattice.LatticeError,
              {"classes": len(gen), "degree histogram": hist})
        return f"{len(gen)} classes, degree histogram {hist}, d_max = {config.d_max}"

    def tropical():
        reps = piclattice.ltrop(piclattice.basis_e(9), L)
        check("tropical space at e_9", piclattice.LatticeError,
              {"representatives": len({D for _, D, _ in reps}),
               "even rows": tuple(sorted(D for _, D, size in reps if size % 2 == 0)),
               "odd rows": tuple(sorted(D for _, D, size in reps if size % 2 == 1))})
        return f"{len(reps)} representatives matching both printed matrices"

    def orbits():
        orbit_sizes = sorted(map(len, piclattice.verify_mw_action(classes144())))
        cosets, _ = piclattice.res_partition(classes144(), L)
        coset_sizes = sorted(map(len, cosets.values()))
        fac_lam, fac_full = piclattice.kperp_quotients(L)
        check("translation orbits and cosets", piclattice.LatticeError,
              {"orbit sizes": orbit_sizes, "coset sizes": coset_sizes,
               "quotients": (fac_lam, fac_full)})
        # one element of K-perp / Lambda per coset; adding F_0 pairs them
        if prod(fac_lam) != len(cosets) or 2 * prod(fac_full) != len(cosets):
            raise piclattice.LatticeError(
                f"quotients {fac_lam} and {fac_full} against {len(cosets)} cosets")
        return (f"{len(orbit_sizes)} orbits of {orbit_sizes[0]}; {len(cosets)}"
                f" cosets of {coset_sizes[0]}; quotients {fac_lam} and {fac_full}")

    def pairing():
        pairs = piclattice.bertini_involution(classes144(), L).items()
        degrees = sorted({(E[0], D[0]) for E, (_, D) in pairs if E[0] <= D[0]})
        products = sorted({piclattice.inner(E, D) for E, (_, D) in pairs})
        check("ramification pairing", piclattice.LatticeError,
              {"degree pairs": degrees, "products": products})
        return (f"involution pairs degrees {', '.join(f'{d}<->{e}' for d, e in degrees)}"
                f" with product {', '.join(map(str, products))}")

    def nine_class():
        rep = piclattice.verify_nine_class_theorem(L)
        check("nine-class arithmetic", piclattice.LatticeError,
              {k: rep[k] for k in ("D0111.D1012", "D0111^2", "D1012^2", "H",
                                   "H^2", "H.R")})
        return (f"D.D' = {rep['D0111.D1012']}, H = {rep['H']},"
                f" H^2 = {rep['H^2']}")

    def uniqueness():
        rep = piclattice.chilean_set_uniqueness(classes144(), L)
        check("unique orthogonal nine-set", piclattice.LatticeError,
              {"total_cliques": rep["total_cliques"],
               "qualifying": len(rep["qualifying"])})
        return (f"{rep['total_cliques']} orthogonal nine-sets,"
                f" {len(rep['qualifying'])} with all conic degrees 2")

    def index3():
        data = PAPER["index-3 class data"]
        L3 = piclattice.index3_lattice()  # each triple is checked to sum to -index K
        piclattice.index3_section_check(data["section matrix"])
        piclattice.verify_torsion_vectors(data["torsion vectors"])
        return (f"{len(L3.minus2)} classes in {len(L3.fibers)} triples summing to"
                f" -{L3.index}K; section matrix checks")

    def geometry():
        n = piclattice.realize_low_degree_classes(classes144(), ctx.data.points)
        check("low-degree class geometry", piclattice.LatticeError, {"classes": n})
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
    def spec(m):
        found = torsion.find_specialization(m, p_max=config.p_max)
        return found["p"], found["t"]

    def locus(m):
        rep = torsion.verify_torsion_locus(m, *spec(m))
        check(f"torsion locus m = {m}", torsion.TorsionError,
              {"points of exact order": rep["points_over_closure"]})
        return f"p = {rep['p']}, t = {rep['t']}, census {rep['order_census']}"

    def nine_torsion():
        rep = torsion.verify_nine_torsion_cubics(*spec(9))
        # over GF(73) at t = 6, where t != 0, all 72 points of order 9 are rational
        full = torsion.verify_nine_torsion_cubics(73, 6)["per_cubic_counts"]
        check("nine-torsion cubics", torsion.TorsionError, {"points per cubic": full})
        return (f"p = {rep['p']}, t = {rep['t']},"
                f" {rep['rational_order9']} rational points of order 9")

    def curves(m):
        rep = torsion.hesse_collinear_curves(m, *spec(m))
        check(f"degree-{m} curves at translated points", torsion.TorsionError,
              {"multiplicities": rep["multiplicities"], "systems": len(rep["systems"])})
        dims = sorted({s["kernel_dim"] for s in rep["systems"]})
        return (f"p = {rep['p']}, multiplicities {rep['multiplicities']},"
                f" kernel dimensions {dims}")

    def quadratic(m):
        rep = torsion.verify_torsion_locus_quadratic(m, p_max=config.p_max)
        return f"{rep['field']}, t = {rep['t']}, census {rep['order_census']}"

    claims = []
    for m in config.m_values:
        if m in (4, 5):
            claims.append((f"torsion locus m = {m}", "locus cuts exactly the"
                           f" points of order {m}", functools.partial(locus, m)))
        elif m == 9:
            claims.append(("nine-torsion cubics", "eight cubics cover the"
                           " rational nine-torsion", nine_torsion))
    loci = [m for m in config.m_values if m in (4, 5)]
    claims += [(f"degree-{m} curves at translated points",
                "twelve linear systems with the index multiplicities",
                functools.partial(curves, m)) for m in loci]
    if config.with_quadratic_extension:
        claims += [(f"torsion locus m = {m} over the quadratic extension",
                    "the same inclusions for points of degree two",
                    functools.partial(quadratic, m)) for m in loci]
    return claims


def _suite_invariants(config, ctx):
    def values():
        rows = invariants.reference_report(ctx)
        return "; ".join(f"{r['name']}: {tuple(map(str, r['published_log_chern']))}"
                         f" slope {r['slope']}" for r in rows)

    def geometry():
        rows = invariants.reference_report(ctx)
        found = {r["name"]: (r["geometric_t"], r["geometric_log_chern"])
                 for r in rows if not r["match"]}
        check("census cross-check", invariants.ArrangementError,
              {"geometric mismatches": found})
        detail = {name: t for name, (t, _) in found.items()}
        return (f"exact geometry matches for chilean, A0, A3; the base points"
                f" lie on their lines, so A1, A2 carry them with one more"
                f" incidence: {detail}")

    def harbourne():
        rep = invariants.harbourne_report(len(ctx.nodes))
        check("Harbourne constants", invariants.ArrangementError, rep)
        return f"chilean {rep['chilean']}, degenerate {rep['degenerate']}"

    return [
        ("log Chern numbers", "five value pairs with their slopes", values),
        ("census cross-check", "published tables versus exact geometry",
         geometry),
        ("Harbourne constants", "-67/28 and -61/25", harbourne),
    ]


def _suite_code(config, ctx):
    def code():
        rep = invariants.char2_code()  # checks the dimension and the enumerator
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


def run(config):
    """Execute the selected suites in order; returns the ledger.

    The suites share one `chilean.Configuration`: symbolic over Q(e)(a),
    or in specialized mode over Q(e) at the requested parameter value.
    """
    if config.mode == "specialized":
        ctx = chilean.Configuration(QQ_EPS, QQ_EPS.from_fraction(config.a_value))
    else:
        ctx = chilean.Configuration()
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
                verdict = "fail" if isinstance(err, DOMAIN_ERRORS) else "error"
                if verdict == "error":
                    import traceback  # only on a crash: keeps startup cheap
                    traceback.print_exc(file=sys.stderr)
            ms = int((time.monotonic() - t0) * 1000)
            ledger.entries.append(
                LedgerEntry(f"{suite}: {claim}", anchor, verdict, witness,
                            ms if config.include_timing else 0))
            if verdict != "pass" and config.fail_fast:
                return ledger
    return ledger


# ---------------------------------------------------------------------------
# report emission


def emit_report(ledger, fmt="text"):
    if fmt == "json":
        doc = [{"claim": e.claim, "anchor": e.anchor, "verdict": e.verdict,
                "witness": e.witness, "ms": e.ms} for e in ledger.entries]
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["claim", "anchor", "verdict", "witness", "ms"])
        for e in ledger.entries:
            writer.writerow([e.claim, e.anchor, e.verdict, e.witness, e.ms])
        return buf.getvalue()
    lines = []
    width = max((len(e.claim) for e in ledger.entries), default=20)
    for e in ledger.entries:
        lines.append(f"[{e.verdict.upper():4}] {e.claim:<{width}}  {e.witness}")
    lines.append("")
    n_pass = sum(1 for e in ledger.entries if e.verdict == "pass")
    lines.append(f"{n_pass}/{len(ledger.entries)} claims pass")
    return "\n".join(lines) + "\n"


def _emit_minus1(fmt, d_max):
    L = piclattice.chilean_lattice()
    classes = piclattice.enumerate_minus1_bruteforce(L, d_max=d_max)
    rows = piclattice.table144(classes, L)
    if fmt == "json":
        orbits = piclattice.mw_orbits(classes)
        doc = {"classes": [{**r, "class": list(r["class"])} for r in rows],
               "orbits": [[list(D) for D in orbit] for orbit in orbits]}
        return json.dumps(doc, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["deg", "n", "v_C", "split", "class"])
    for r in rows:
        writer.writerow([r["deg"], r["n"], r["v_C"], r["split"],
                         " ".join(map(str, r["class"]))])
    return buf.getvalue()


def _emit_invariants(fmt):
    rows = invariants.reference_report(chilean.Configuration())
    if fmt == "json":
        doc = [{"arrangement": r["name"],
                "published_t": r["published_t"],
                "log_chern": [str(x) for x in r["published_log_chern"]],
                "slope": str(r["slope"]),
                "geometric_t": r["geometric_t"],
                "geometric_log_chern": [str(x) for x in r["geometric_log_chern"]],
                "geometry_matches_published": r["match"]} for r in rows]
        return json.dumps(doc, indent=2) + "\n"
    lines = [f"{'arrangement':<12} {'c1^2':>6} {'c2':>5} {'slope':>7}   geometry"]
    for r in rows:
        c1, c2 = r["published_log_chern"]
        note = "matches" if r["match"] else f"differs: {r['geometric_t']}"
        lines.append(f"{r['name']:<12} {str(c1):>6} {str(c2):>5}"
                     f" {str(r['slope']):>7}   {note}")
    return "\n".join(lines) + "\n"


def _d_max_problem(d_max):
    """Why --d-max cannot reach every class, or None."""
    if d_max < MIN_D_MAX:
        return (f"--d-max {d_max} is too small: the brute-force class"
                f" search needs --d-max >= {MIN_D_MAX} to reach the degree-4"
                " classes")
    return None


def _output_problem(output):
    """Why the report cannot be written to `output`, or None."""
    if not output:
        return None  # stdout
    target = Path(output)
    if target.is_dir():
        return f"--output {output} is a directory"
    if not target.parent.is_dir():
        return f"--output {output}: no directory {target.parent}"
    if not os.access(target if target.exists() else target.parent, os.W_OK):
        return f"--output {output} is not writable"
    return None


def _configuration_problem(args, a_value, suites, m_values):
    """Why the verify options cannot give a meaningful run, or None."""
    p = args.prime
    if p is not None:
        try:
            if not GF(p).has_eps():
                return (f"--prime {p}: GF({p}) has no primitive cube root of"
                        " unity (the prime must be 1 mod 3)")
            _good_parameter_over(p)
        except (FieldError, chilean.VerificationError) as err:
            return f"--prime {p}: {err}"
    problem = _d_max_problem(args.d_max)
    if problem:
        return problem
    census_a = a_value if args.mode == "specialized" else None
    if "pencil" in suites and next(good_specializations(args.p_max, census_a),
                                   None) is None:
        return (f"--p-max {args.p_max} is too small for the cusp census: no"
                f" good prime p <= {args.p_max} keeps the family parameter"
                " good")
    if "torsion" not in suites:
        flag = ("--m" if args.m is not None else "--with-quadratic-extension"
                if args.with_quadratic_extension else None)
        return flag and f"{flag} applies to the torsion suite, which is not run"
    if args.with_quadratic_extension and not set(m_values) & {4, 5}:
        return ("--with-quadratic-extension checks the loci of order 4 and"
                f" 5 only, and --m {args.m} leaves neither")
    for m in m_values:
        p_min = torsion.min_prime_for_order(m)
        if args.p_max < p_min:
            return (f"--p-max {args.p_max} is too small for order {m}:"
                    f" no Hesse cubic over GF(p) has a rational point of"
                    f" order {m} unless p >= {p_min}")
    return None


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="halphen", description="exact verification of the conic"
        " configuration, its lattice and its invariants")
    sub = parser.add_subparsers(dest="command")

    pv = sub.add_parser("verify", help="run verification suites")
    pv.add_argument("suite_list", nargs="*", default=["all"],
                    metavar="suite", help="incidence pencil lattice torsion"
                    " invariants code all")
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
    output = getattr(args, "output", None)  # `code` has no --output
    problem = _output_problem(output)
    if problem:
        print(problem, file=sys.stderr)
        return 2
    rc = 0
    if args.command == "verify":
        suites = [s.strip() for s in args.suite_list if s.strip()]
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
        try:
            chilean.check_good_parameter(QQ_EPS, QQ_EPS.from_fraction(a_value))
        except chilean.VerificationError as err:
            print(f"bad family parameter --a {args.a}: {err}", file=sys.stderr)
            return 2
        m_values = TORSION_INDICES if args.m is None else (args.m,)
        problem = _configuration_problem(args, a_value, suites, m_values)
        if problem:
            print(problem, file=sys.stderr)
            return 2
        config = RunConfig(mode=args.mode, a_value=a_value, prime=args.prime,
                           p_max=args.p_max, seed=args.seed,
                           suites=tuple(suites), fail_fast=args.fail_fast,
                           d_max=args.d_max,
                           with_quadratic_extension=args.with_quadratic_extension,
                           include_timing=not args.no_timing,
                           m_values=m_values)
        ledger = run(config)
        text = emit_report(ledger, args.format)
        rc = 0 if ledger.passed() else 1
    elif args.command == "enumerate":
        problem = _d_max_problem(args.d_max)
        if problem:
            print(problem, file=sys.stderr)
            return 2
        text = _emit_minus1(args.format, args.d_max)
    elif args.command == "invariants":
        try:
            text = _emit_invariants(args.format)
        except DOMAIN_ERRORS as err:
            print(f"refuted: {type(err).__name__}: {err}", file=sys.stderr)
            return 1
    elif args.command == "code":
        try:
            rep = invariants.char2_code()
        except DOMAIN_ERRORS as err:
            print(f"refuted: {type(err).__name__}: {err}", file=sys.stderr)
            return 1
        if args.format == "json":
            text = json.dumps({"dimension": rep["dimension"],
                               "length": rep["length"],
                               "weight_enumerator": rep["enumerator"]},
                              indent=2) + "\n"
        else:
            text = ("W(t) = "
                    + invariants.weight_enumerator_string(rep["enumerator"])
                    + "\n")
    elif args.command == "config":
        cfg = chilean.Configuration()
        doc = chilean.export_configuration(cfg.data, cfg.nodes, cfg.lines)
        text = json.dumps(doc, indent=2) + "\n"
    else:
        parser.print_help()
        return 2

    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return rc


if __name__ == "__main__":
    sys.exit(main())

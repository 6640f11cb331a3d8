"""Arrangement combinatorics, logarithmic Chern numbers, Harbourne
constants, and the binary incidence code in characteristic 2.

Censuses are taken from exact geometry.  Every pairwise intersection
must be a known candidate point, except where a line meets a conic:
their points off the candidates are counted by Bezout, certified simple
by a discriminant test or by transversality at a shared candidate, and
private by the census's own counts (they may be irrational; only their
count enters the census).  Values and gradients at the candidates are
dot products with `plane.hasse_rows`, taken in one pass per candidate
set, which every arrangement on that set reads, on the ints of
`Field.pack_vectors` over Q(e) and Q(e)(a).

The five reference arrangements are built on a `chilean.Configuration`,
which `geometric_census` and `reference_report` take; each census is
computed once per configuration, from the degenerate nodes, vertices and
harmonic polars the configuration builds once for all of them.  The
published tables are in `published.PAPER`, with which `reference_report`
and `char2_code` compare themselves: the `invariants` and `code`
commands run them too.
"""

from collections import Counter
from fractions import Fraction
from operator import mul

from .field import QQ_EPS, GFext
from .plane import ProjPoint, cross, hasse_rows, incidence_rows, line_basis
from .chilean import Configuration, conic_is_line_pair
from .published import PAPER, check


class ArrangementError(Exception):
    pass


class ArrangementCombinatorics:
    """Degrees, genera, self-intersections and the t_n point counts."""

    def __init__(self, curves, t_counts):
        self.curves = list(curves)  # (degree, genus, self_intersection)
        self.t_counts = {n: c for n, c in t_counts.items() if c}

    def pairwise_total(self):
        degs = [c[0] for c in self.curves]
        return sum(degs[i] * degs[j] for i in range(len(degs))
                   for j in range(i + 1, len(degs)))

    def check_consistency(self):
        lhs = sum(n * (n - 1) // 2 * c for n, c in self.t_counts.items())
        rhs = self.pairwise_total()
        if lhs != rhs:
            raise ArrangementError(
                f"census {self.t_counts} misses intersections: {lhs} != {rhs}")
        return True


def _assert_smooth_members(curves):
    for k, C in enumerate(curves):
        if C.degree == 1:
            continue
        if C.degree == 2:
            if C.field.characteristic != 2 and conic_is_line_pair(C):
                raise ArrangementError(f"curve {k} is a degenerate conic")
            continue
        raise ArrangementError("only lines and conics are supported")


def _deciding_coordinates(P):
    """(u, v): gradients g_1, g_2 of forms through P have g_1 x g_2 = 0
    iff g_1[u] g_2[v] = g_1[v] g_2[u].  Both are orthogonal to P (Euler's
    relation), so g_1 x g_2 is a multiple of P, decided by its component at
    the first nonzero coordinate of `P.rep`, which u and v follow."""
    axis = next(i for i, c in enumerate(P.rep) if not c.is_zero())
    return (axis + 1) % 3, (axis + 2) % 3


def extract_combinatorics(points, curves):
    """Census of n-fold points of a line/conic arrangement, exactly.

    `points` is the candidate list; every conic-conic and line-line
    intersection must be a candidate, while a line and a conic may meet at
    anonymous points.  Local data at a candidate are read from
    `hasse_rows` once per member degree: a member's value is the dot
    product of its nonzero coefficients with the alpha = 0 row, and its
    gradient, for the transversality check at every candidate on two or
    more members, with the order-1 rows: only the two gradient components
    that decide g_1 x g_2 = 0 are read (`_deciding_coordinates`).  All
    of these are zero tests on the ints of one `Field.pack_vectors` of
    the members and candidates: over Q(e) and Q(e)(a) a nonzero integer
    polynomial with coefficients below 2^(K-1) does not vanish at a = 2^K,
    and K is set from the products of two gradient components, the
    largest values tested, each gradient component a sum over the
    monomials with binomials up to the member degree as multipliers.

    A line k and a conic j that share s candidates meet at 2 - s anonymous
    points.  These are simple: for s = 0 the restriction of the conic to
    the line has a nonzero discriminant, and for s = 1 a double root at
    the shared candidate would be a tangency there, which the
    transversality check rejects.  They are no candidates, and each is
    private (on no third member), which the `accounted` Bezout check
    proves.  Take an anonymous point R of k and j.
    - If R lay on a conic j2, the two conics would meet at R and so in at
      most three candidates, and the check raises.
    - If R lay on a line j2 != k, the one point of k and j2 would be R,
      no candidate, and the check raises.
    The census keeps what its pass found for `leading`.
    """
    if not curves:
        raise ArrangementError("empty arrangement")
    field = curves[0].field
    _assert_smooth_members(curves)
    candidates = list(dict.fromkeys(points))
    # a gradient component is a sum over the monomials with binomials up to
    # the degree d, and the tangency test subtracts two products of them
    d = max(C.degree for C in curves)
    grad = (d + 1) * (d + 2) // 2 * d
    form, packed, _ = field.pack_vectors(
        2 * (d + 1), [C.coefficients() for C in curves] + [P.rep for P in candidates],
        2 * grad * grad)
    coefficients, is_zero = packed[:len(curves)], form.is_zero
    degrees = {C.degree for C in curves}
    accounted = [[0] * len(curves) for _ in curves]
    incidences = []
    for P, rep in zip(candidates, packed[len(curves):]):
        u, v = _deciding_coordinates(P)
        alphas = [(0, 0, 0)] + [tuple(int(i == w) for i in range(3)) for w in (u, v)]
        rows = {deg: hasse_rows(P, deg, alphas, rep) for deg in degrees}
        grads = {}
        for k, (C, c) in enumerate(zip(curves, coefficients)):
            value_row, u_row, v_row = rows[C.degree]
            if is_zero(sum(map(mul, c, value_row))):
                grads[k] = (sum(map(mul, c, u_row)), sum(map(mul, c, v_row)))
        through = list(grads)
        for x, k1 in enumerate(through):
            g1u, g1v = grads[k1]
            for k2 in through[x + 1:]:
                g2u, g2v = grads[k2]
                if is_zero(g1u * g2v - g1v * g2u):
                    raise ArrangementError(
                        f"tangency of curves {k1} and {k2} at {P}")
                accounted[k1][k2] += 1
        incidences.append(through)

    anonymous = {}
    for k, L in enumerate(curves):
        if L.degree != 1:
            continue
        A, B = line_basis(field, L.coefficients())
        for j, C in enumerate(curves):
            lo, hi = sorted((k, j))
            shared = accounted[lo][hi]
            if C.degree != 2 or shared >= 2:
                continue
            if shared == 0:
                binary = C.restrict_to_line(A.rep, B.rep)
                if (binary[1] * binary[1] - 4 * binary[0] * binary[2]).is_zero():
                    raise ArrangementError(
                        f"line {k} is tangent to curve {j} off the candidates")
            anonymous[lo, hi] = 2 - shared
            accounted[lo][hi] = 2

    for i in range(len(curves)):
        for j in range(i + 1, len(curves)):
            expect = curves[i].degree * curves[j].degree
            if accounted[i][j] != expect:
                raise ArrangementError(
                    f"curves {i} and {j}: {accounted[i][j]} of {expect} "
                    "intersections accounted for")
    return CandidateCensus([C.degree for C in curves], incidences, anonymous)


class CandidateCensus(ArrangementCombinatorics):
    """A census with what its pass found: the members through each
    candidate and the anonymous points of each line-conic pair."""

    def __init__(self, degrees, incidences, anonymous):
        self.incidences, self.anonymous = incidences, anonymous
        t_counts = Counter(len(t) for t in incidences if len(t) >= 2)
        t_counts[2] += sum(anonymous.values())
        super().__init__([(d, 0, d * d) for d in degrees], t_counts)
        self.check_consistency()

    def leading(self, n):
        """The census of the first n members: the pass's checks on their
        pairs are those of `extract_combinatorics` on them alone."""
        return CandidateCensus(
            [c[0] for c in self.curves[:n]],
            [[k for k in through if k < n] for through in self.incidences],
            {pair: c for pair, c in self.anonymous.items() if pair[1] < n})


# ---------------------------------------------------------------------------
# numerical invariants


def log_chern(arr):
    """Logarithmic Chern numbers of the pair (plane, arrangement).

    The plane contributes c1^2 = 9 and c2 = 3.
    """
    sum_self = sum(c[2] for c in arr.curves)
    sum_genus = sum(c[1] - 1 for c in arr.curves)
    tsum1 = sum((3 * n - 4) * c for n, c in arr.t_counts.items())
    tsum2 = sum((n - 1) * c for n, c in arr.t_counts.items())
    c1 = Fraction(9) - sum_self + tsum1 + 4 * sum_genus
    c2 = Fraction(3) + tsum2 + 2 * sum_genus
    return c1, c2


def log_chern_slope(arr):
    c1, c2 = log_chern(arr)
    if c2 == 0:
        raise ArrangementError("zero second log Chern number")
    return c1 / c2


def harbourne(c_squared, multiplicities):
    """(C^2 - sum of squared multiplicities) / number of singular points."""
    mults = list(multiplicities)
    if not mults:
        raise ArrangementError("the Harbourne constant needs singular points")
    if any(m < 2 for m in mults):
        raise ArrangementError("multiplicities must be at least 2")
    return Fraction(c_squared - sum(m * m for m in mults), len(mults))


# ---------------------------------------------------------------------------
# the five reference arrangements


ARRANGEMENTS = ("chilean", "A0", "A1", "A2", "A3")


def published_arrangement(name):
    published = PAPER["log Chern numbers"]
    return ArrangementCombinatorics(published["curves"][name],
                                    published["censuses"][name])


def geometric_census(name, config):
    """The census of one reference arrangement of `config`, from exact geometry.

    The five censuses are computed together, once per configuration, and
    kept in `config.censuses`; every call returns a copy of its own.
    """
    if name not in ARRANGEMENTS:
        raise ArrangementError(f"unknown arrangement {name!r}")
    if not config.censuses:
        config.censuses.update(_censuses_from_geometry(config))
    census = config.censuses[name]
    return ArrangementCombinatorics(census.curves, census.t_counts)


def _censuses_from_geometry(config):
    """The five censuses of `config` from three candidate passes: the
    chilean conics lead A1's members, and A0's lead A2's."""
    data, (degenerate, lines) = config.data, config.degenerate
    a1 = extract_combinatorics(list(data.points) + config.node_points,
                               list(data.conics) + config.lines)
    a2 = extract_combinatorics(degenerate.points + config.degenerate_nodes_and_vertices,
                               degenerate.conics + lines + config.harmonic_polars)
    return {"chilean": a1.leading(len(data.conics)),
            "A0": a2.leading(len(degenerate.conics) + len(lines)),
            "A1": a1, "A2": a2, "A3": _a3_census(config)}


def _a3_census(config):
    """Hesse triangle lines plus harmonic polars, all over Q(e)."""
    from .cubic import hesse_singular_fibers
    fibers = hesse_singular_fibers(QQ_EPS)
    curves = [L for triple in fibers for L in triple] + config.harmonic_polars
    lines = [L.coefficients() for L in curves]
    pts = list(dict.fromkeys(ProjPoint(QQ_EPS, cross(g, h))
                             for i, g in enumerate(lines) for h in lines[i + 1:]))
    return extract_combinatorics(pts, curves)


def reference_report(config):
    """Published values versus exact geometry for all five arrangements.

    The base points lie on their harmonic polar lines, so the geometric
    censuses of A1 and A2 carry the base points with one incidence more
    than the published tables; everything else agrees.  Both versions are
    reported, with log Chern numbers for each.
    """
    rows = []
    for name in ARRANGEMENTS:
        pub = published_arrangement(name)
        geo = geometric_census(name, config)
        rows.append({
            "name": name,
            "published_t": dict(pub.t_counts),
            "published_log_chern": log_chern(pub),
            "slope": log_chern_slope(pub),
            "geometric_t": dict(geo.t_counts),
            "geometric_log_chern": log_chern(geo),
            "match": geo.t_counts == pub.t_counts,
        })
    check("log Chern numbers", ArrangementError,
          {"values": {r["name"]: r["published_log_chern"] for r in rows},
           "slopes": {r["name"]: r["slope"] for r in rows}})
    return rows


def harbourne_report(node_count):
    """The two reference Harbourne constants, from the lattice.

    The union of the nine 2-sections and the four reducible fibers has the
    self-intersection read off the intersection form, and its double
    points are the crossings of the sections with the fiber components,
    likewise, and the `node_count` nodes of the fibers, the
    configuration's fiber nodes.  The degenerate analogue's
    self-intersection and double points are the published values, taken
    as given: the lattice here describes the chilean fibration only.
    """
    from . import piclattice
    L = piclattice.chilean_lattice()
    e_classes = [piclattice.basis_e(i) for i in range(1, 10)]
    total = e_classes + list(L.minus2)
    c_sq = sum(piclattice.inner(u, v) for u in total for v in total)
    points = node_count + sum(piclattice.inner(e, R) for e in e_classes for R in L.minus2)
    published = PAPER["Harbourne constants"]
    c_deg, points_deg = published["c_squared"][1], published["double_points"][1]
    return {"chilean": harbourne(c_sq, [2] * points),
            "degenerate": harbourne(c_deg, [2] * points_deg),
            "c_squared": (c_sq, c_deg), "double_points": (points, points_deg)}


# ---------------------------------------------------------------------------
# the binary incidence code over GF(16), characteristic 2


def _point_sort_key(P):
    return tuple(c.coeffs for c in P.coords)


def char2_code():
    """The 9-dimensional code spanned by the line incidence vectors.

    The configuration is built over GF(16).  Words live in GF(2)^21 over
    the 21 configuration points; the nine line vectors span the code,
    whose dimension and weight enumerator (a coefficient map) are checked
    against the paper, and the twelve conic vectors must lie in it.
    """
    field = GFext(2, 4)
    config = Configuration(field, field.gen())
    points = list(config.data.points) + config.node_points
    if len(set(points)) != 21:
        raise ArrangementError("the 21 configuration points are not distinct")
    points.sort(key=_point_sort_key)

    def words(curves):
        return [sum(bit << idx for idx, bit in enumerate(column))
                for column in zip(*incidence_rows(points, curves))]

    line_words, conic_words = words(config.lines), words(config.data.conics)
    codewords = [0]
    for b in line_words:
        codewords += [w ^ b for w in codewords]
        codewords = list(dict.fromkeys(codewords))
    if not set(conic_words) <= set(codewords):
        raise ArrangementError("a conic word escapes the code")
    # the span of rank r has 2^r words
    found = {"dimension": len(codewords).bit_length() - 1,
             "enumerator": dict(Counter(bin(w).count("1") for w in codewords))}
    check("binary incidence code", ArrangementError, found)
    return {**found, "line_words": line_words, "conic_words": conic_words,
            "length": len(points)}


def weight_enumerator_string(enumerator):
    parts = []
    for w in sorted(enumerator):
        c = enumerator[w]
        if w == 0:
            parts.append(str(c))
        else:
            head = "" if c == 1 else f"{c}*"
            parts.append(f"{head}t^{w}" if w > 1 else f"{head}t")
    return " + ".join(parts)

"""Torsion loci on Hesse cubics over finite fields.

The m-torsion loci (m = 4, 5) and the eight nine-torsion cubics are
verified against the chord-tangent group law at concrete specializations:
a deterministic scan finds the smallest prime p = 1 mod 3 and curve
parameter t carrying a rational point of exact order m, and the locus is
then compared point-by-point with the order census of the rational
points.  The same instances support the existence check for plane curves
of degree m with prescribed multiplicities at the translated base points.
"""

from .cubic import (CubicGroup, HesseCubic, hesse_collinear_triples,
                    hesse_flexes, rational_points)
from .field import GF
from .linalg import kernel_basis
from .plane import Poly3, gens, monomials_of_degree


class TorsionError(Exception):
    pass


def torsion_locus(field, m, t):
    """The degree-4 or degree-8 torsion locus with parameter t filled in."""
    t = field.coerce(t)
    X, Y, Z = gens(field)
    if m == 4:
        return (X * Y**3 - Y**4 - t * X * Y**2 * Z - X * Z**3 - 2 * Y * Z**3)
    if m == 5:
        return (2 * X**2 * Y**6 - X * Y**7 + 2 * Y**8
                - X**2 * Y**3 * Z**3 - X * Y**4 * Z**3 + 5 * Y**5 * Z**3
                - X**2 * Z**6 + 2 * X * Y * Z**6 + 2 * Y**2 * Z**6
                + t * (-X**2 * Y**5 * Z + 3 * X * Y**6 * Z - Y**7 * Z
                       + X**2 * Y**2 * Z**4 + 3 * X * Y**3 * Z**4 + Y * Z**7)
                + t**2 * (X**2 * Y**4 * Z**2 - X * Y**5 * Z**2 + X * Y**2 * Z**5))
    raise TorsionError(f"no locus stored for m = {m}")


def nine_torsion_cubics(field, t):
    """The eight cubics cutting the points of order nine (zero at x_7)."""
    e = field.eps()
    t = field.coerce(t)
    X, Y, Z = gens(field)
    e2 = e * e
    return [
        X * Y**2 + e * X**2 * Z + e2 * Y * Z**2,
        X * Y**2 + e2 * X**2 * Z + e * Y * Z**2,
        X * Y**2 + X**2 * Z + Y * Z**2,
        X**2 * Y + e2 * Y**2 * Z + e * X * Z**2,
        X**2 * Y + e * Y**2 * Z + e2 * X * Z**2,
        X**2 * Y + Y**2 * Z + X * Z**2,
        3 * X**3 + (e + 2) * t * X * Y * Z - 3 * e2 * Z**3,
        3 * X**3 + (-e + 1) * t * X * Y * Z - 3 * e * Z**3,
    ]


EXPECTED_PRIMITIVE_COUNT = {4: 12, 5: 24, 9: 72}


def locus_degree_check(m):
    """deg * 3 equals the number of primitive m-torsion points."""
    expected = EXPECTED_PRIMITIVE_COUNT[m]
    if m in (4, 5):
        deg = torsion_locus(GF(7), m, 1).degree
        return deg * 3 == expected
    if m == 9:
        return 8 * 9 == expected
    raise TorsionError(f"unsupported m = {m}")


def good_primes(p_max):
    out = []
    p = 5
    while p <= p_max:
        if all(p % q for q in range(2, int(p ** 0.5) + 1)) and p % 3 == 1:
            out.append(p)
        p += 2
    return out


def find_specialization(m, p_max=500):
    """Smallest (p, t) with a rational point of exact order m, plus witness.

    Scans p = 1 mod 3 ascending, then t in 0..p-1 ascending, then the
    canonical point order; raises with scan statistics when the range is
    exhausted.
    """
    scanned = 0
    for p in good_primes(p_max):
        field = GF(p)
        flexes = hesse_flexes(field)
        for t_int in range(p):
            curve = HesseCubic(field, t_int)
            if not curve.is_smooth():
                continue
            scanned += 1
            group = CubicGroup(curve, flexes[6])  # zero = x_7
            for P in rational_points(curve):
                if group.has_exact_order(P, m):
                    return {"p": p, "t": t_int, "eps": field.eps(),
                            "witness": P, "curve": curve, "group": group}
    raise TorsionError(
        f"no order-{m} point found for p <= {p_max} ({scanned} curves scanned)")


def verify_torsion_locus(m, p, t, quadratic_extension=False):
    """Both inclusions between the locus and the exact-order-m points.

    Returns the order census of the rational points on the locus and the
    counts in both directions; any rational counterexample is an error
    naming the witness.  With `quadratic_extension` the same two
    inclusions are checked over GF(p^2) instead.
    """
    from .field import GFext
    field = GFext(p, 2) if quadratic_extension else GF(p)
    curve = HesseCubic(field, t)
    if not curve.is_smooth():
        raise TorsionError(f"t = {t} is singular over {field}")
    group = CubicGroup(curve, hesse_flexes(field)[6])
    locus = torsion_locus(field, m, t)
    census = {}
    on_locus = set()
    exact_m = set()
    for P in rational_points(curve):
        on = locus.evaluate(P).is_zero()
        exact = group.has_exact_order(P, m)
        if on:
            on_locus.add(P)
            order = group.torsion_order(P, 2 * m * m)
            census[order] = census.get(order, 0) + 1
        if exact:
            exact_m.add(P)
        if on and not exact:
            raise TorsionError(f"locus point {P} has order != {m} over {field}")
        if exact and not on:
            raise TorsionError(f"order-{m} point {P} misses the locus over {field}")
    return {"m": m, "p": p, "t": t, "field": repr(field),
            "points_on_locus": len(on_locus),
            "points_of_exact_order": len(exact_m), "order_census": census,
            "expected_full_count": EXPECTED_PRIMITIVE_COUNT[m]}


def curve_order_over_extension(p, t):
    """#E(GF(p^2)) from #E(GF(p)) via N * (2p + 2 - N)."""
    field = GF(p)
    curve = HesseCubic(field, t)
    if not curve.is_smooth():
        raise TorsionError(f"t = {t} is singular over GF({p})")
    n = len(rational_points(curve))
    return n * (2 * p + 2 - n)


def verify_torsion_locus_quadratic(m, p_max=100):
    """The locus inclusions over GF(p^2) at the smallest usable instance.

    Candidates are filtered by m | #E(GF(p^2)), computed from the cheap
    prime-field count; the first instance whose extension group actually
    carries points of exact order m is verified and returned.
    """
    for p in good_primes(p_max):
        field = GF(p)
        for t_int in range(p):
            curve = HesseCubic(field, t_int)
            if not curve.is_smooth():
                continue
            if curve_order_over_extension(p, t_int) % m != 0:
                continue
            rep = verify_torsion_locus(m, p, t_int, quadratic_extension=True)
            if rep["points_of_exact_order"] > 0:
                return rep
    raise TorsionError(f"no quadratic instance for m = {m} with p <= {p_max}")


def verify_nine_torsion_cubics(p, t):
    """The eight cubics cut exactly the rational points of order nine."""
    field = GF(p)
    curve = HesseCubic(field, t)
    group = CubicGroup(curve, hesse_flexes(field)[6])
    cubics = nine_torsion_cubics(field, t)
    if cubics[0].evaluate(group.zero).is_zero():
        raise TorsionError("the zero point lies on the first cubic")
    on_union = set()
    exact9 = set()
    per_cubic = []
    points = rational_points(curve)
    for C in cubics:
        hits = {P for P in points if C.evaluate(P).is_zero()}
        per_cubic.append(len(hits))
        on_union |= hits
    for P in points:
        if group.has_exact_order(P, 9):
            exact9.add(P)
    for P in on_union:
        if P not in exact9:
            raise TorsionError(f"cubic point {P} does not have order 9")
    for P in exact9:
        if P not in on_union:
            raise TorsionError(f"order-9 point {P} escapes the eight cubics")
    return {"p": p, "t": t, "rational_order9": len(exact9),
            "per_cubic_counts": per_cubic}


# ---------------------------------------------------------------------------
# plane curves of degree m with prescribed multiplicities


def index_multiplicities(m):
    """(collinear multiplicity, other multiplicity) for index m not div. by 3."""
    if m % 3 == 0:
        raise TorsionError("the index must not be divisible by 3")
    k = m // 3
    if m % 3 == 1:
        alpha, beta = k + 1, k
    else:
        alpha, beta = k, k + 1
    if m * m - 3 * alpha * alpha - 6 * beta * beta != -2:
        raise TorsionError(f"multiplicity pattern for m = {m} breaks the class identity")
    return alpha, beta


def translated_points(group, eta):
    """p_i = x_i + eta for the nine flexes, with the group's zero."""
    flexes = hesse_flexes(group.field)
    pts = [group.add(x, eta) for x in flexes]
    if len(set(pts)) != 9:
        raise TorsionError("translated points are not distinct")
    return pts


def multiplicity_rows(point, degree, r, field):
    """Linear conditions for multiplicity >= r at a point.

    Rows are all partial derivatives of order < r of the generic form of
    the given degree, evaluated at the point (one row per multi-index;
    the mild redundancy from the Euler relation is harmless for kernels).
    """
    monos = monomials_of_degree(degree)
    rows = []
    for order in range(r):
        for alpha in _multi_indices(order):
            row = []
            for e in monos:
                D = Poly3.monomial(field, e)
                for var, times in enumerate(alpha):
                    for _ in range(times):
                        D = D.partial(var)
                row.append(D.evaluate(point))
            rows.append(row)
    return rows


def _multi_indices(order):
    out = []
    for i in range(order + 1):
        for j in range(order + 1 - i):
            out.append((i, j, order - i - j))
    return out


def hesse_collinear_curves(m, p, t, eta=None):
    """Existence of the 12 degree-m curves with the index-m multiplicities.

    For each Hesse-collinear triple the linear system of degree-m forms
    with the case multiplicities at p_i = x_i + eta must have a nonzero
    kernel; the multiplicity-weighted sum of the p_i must vanish in the
    group law with a flex as zero.
    """
    field = GF(p)
    curve = HesseCubic(field, t)
    if not curve.is_smooth():
        raise TorsionError(f"t = {t} is singular over GF({p})")
    flexes = hesse_flexes(field)
    group = CubicGroup(curve, flexes[0])  # flex zero for the balance law
    # the order of a point depends on the zero (flexes differ by 3-torsion),
    # so eta must be m-torsion in this group; rescan if the supplied one isn't
    if eta is None or not group.has_exact_order(eta, m):
        eta = next((P for P in rational_points(curve)
                    if group.has_exact_order(P, m)), None)
        if eta is None:
            raise TorsionError(f"GF({p}), t = {t} has no point of exact order {m}")
    pts = translated_points(group, eta)
    alpha, beta = index_multiplicities(m)
    triples = hesse_collinear_triples(field)
    results = []
    for triple in triples:
        mults = [alpha if i in triple else beta for i in range(9)]
        rows = []
        for P, r in zip(pts, mults):
            if r > 0:
                rows.extend(multiplicity_rows(P, m, r, field))
        kern = kernel_basis(rows, field)
        if len(kern) < 1:
            raise TorsionError(
                f"no degree-{m} curve for triple {triple} over GF({p})")
        balance = group.zero
        for P, r in zip(pts, mults):
            balance = group.add(balance, group.scalar_mul(r, P))
        if balance != group.zero:
            raise TorsionError(f"group-law balance fails for triple {triple}")
        results.append({"triple": triple, "kernel_dim": len(kern)})
    return {"m": m, "p": p, "t": t, "multiplicities": (alpha, beta),
            "systems": results}


def conic_recovery_check(p, t, a_value):
    """The m = 2 case of the linear systems recovers the twelve conics.

    With multiplicity one at the six points off a Hesse-collinear triple,
    the degree-2 kernel is one-dimensional and spans the specialized conic
    of the configuration with the complementary support.
    """
    from .chilean import build_chilean
    from .plane import Poly3, monomials_of_degree
    field = GF(p)
    a = field.coerce(a_value)
    data = build_chilean(field, a)
    curve = HesseCubic(field, t)
    flexes = hesse_flexes(field)
    group = CubicGroup(curve, flexes[0])
    tau = group.add(data.points[0], group.negate(flexes[0]))
    supports = [frozenset(i for i in range(9) if data.incidence[i][j])
                for j in range(12)]
    monos = monomials_of_degree(2)
    matched = 0
    for triple in hesse_collinear_triples(field):
        support = frozenset(range(9)) - frozenset(triple)
        rows = [multiplicity_rows(data.points[i], 2, 1, field)[0]
                for i in sorted(support)]
        kern = kernel_basis(rows, field)
        if len(kern) != 1:
            raise TorsionError(f"conic through {sorted(support)} is not unique")
        conic = Poly3(field, 2, dict(zip(monos, kern[0])))
        j = supports.index(support)
        if not conic.proportional_to(data.conics[j]):
            raise TorsionError(f"recovered conic differs from conic {j + 1}")
        matched += 1
    if matched != 12:
        raise TorsionError("some conics were not recovered")
    return {"p": p, "t": t, "a": a_value, "tau": tau, "matched": matched}


def two_torsion_translation(p, t, a_value):
    """Match the conic-configuration base points with flex translates.

    Over GF(p) with a = a_value a root of X^3 + tX + 2, the nine base
    points must equal x_i + tau for the 2-torsion point tau = p_1 - x_1
    (flex zero), index by index.
    """
    from .chilean import build_chilean
    field = GF(p)
    a = field.coerce(a_value)
    if not (a**3 + t * a + 2).is_zero():
        raise TorsionError("a_value is not a root of X^3 + tX + 2")
    curve = HesseCubic(field, t)
    flexes = hesse_flexes(field)
    group = CubicGroup(curve, flexes[0])
    data = build_chilean(field, a)
    tau = group.add(data.points[0], group.negate(flexes[0]))
    if not group.has_exact_order(tau, 2):
        raise TorsionError("p_1 - x_1 is not a 2-torsion point")
    for i in range(9):
        if group.add(flexes[i], tau) != data.points[i]:
            raise TorsionError(f"p_{i + 1} != x_{i + 1} + tau")
    return {"p": p, "t": t, "a": a_value, "tau": tau}

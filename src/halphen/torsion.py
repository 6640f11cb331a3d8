"""Torsion loci on Hesse cubics over finite fields.

The m-torsion loci (m = 4, 5) and the eight nine-torsion cubics are
verified against the chord-tangent group law at concrete specializations:
a deterministic scan finds the smallest prime p = 1 mod 3 (from the first
the Hasse bound allows) and curve parameter t carrying a rational point of
exact order m, and the locus is then compared point-by-point with the
order census of the rational points.  The same instances support the
existence check for plane curves of degree m with prescribed
multiplicities at the translated base points; multiplicity at least r is
the vanishing of the Hasse derivatives of order below r
(`plane.hasse_rows`), a condition exact in every characteristic (an
ordinary partial is alpha! times it, zero when p divides alpha!), and for
p > m those of order r - 1 imply the rest.  The twelve systems share the
rows of the lower multiplicity at all nine points: their kernel is taken
once, and each triple eliminates only its own rows on it, in the field's
inner-loop form (`Field.packing`).  The translated points and the
systems' balances are sums walked on the coordinates of the group law.

The loci and the nine-torsion cubics are stored as term tables, (exponent,
int coefficient, power of t, power of e) per term, from which each call
builds its forms with t filled in.

One order census and one group law answer every order question: a
curve's rational points and their exact orders with x_7 as zero, from one
`CubicGroup.orders` walk, built once and kept in a small cache keyed on
(field, t), on the points the search's Lagrange filter enumerated; the
census is also where a singular t raises.  The search reads its witness
from it, the curve systems the same witness as their translation point,
and the locus and nine-torsion checks their orders: both are one cut check
(`_cut_exactly`), the zeros of the forms' packed values on one
`plane.PointPowers` table of the census points up to degree 8, kept for
the current census only and shared by its three cut checks.

The index-2 systems are the configuration's conics: over GF(p) its base
points are the flexes translated by a 2-torsion point, and each conic
spans the degree-2 system through the six off a Hesse-collinear triple
(`two_torsion_conics`).
"""

from functools import lru_cache, reduce
from math import gcd, isqrt
from operator import mul
from types import MappingProxyType

from .cubic import (CubicGroup, HesseCubic, hesse_collinear_triples,
                    hesse_flexes, rational_points)
from .field import GF, GFext, prime_divisors
from .linalg import kernel_basis, kernel_vectors
from .plane import PointPowers, Poly3, hasse_rows, monomials_of_degree


class TorsionError(Exception):
    pass


# The loci as term tables: (exponent, int coefficient, power of t, power
# of e) per term, the coefficient of x^i y^j z^k the sum of c t^a e^b.
_LOCI = {
    4: (((1, 3, 0), 1, 0, 0), ((0, 4, 0), -1, 0, 0), ((1, 2, 1), -1, 1, 0),
        ((1, 0, 3), -1, 0, 0), ((0, 1, 3), -2, 0, 0)),
    5: (((2, 6, 0), 2, 0, 0), ((1, 7, 0), -1, 0, 0), ((0, 8, 0), 2, 0, 0),
        ((2, 3, 3), -1, 0, 0), ((1, 4, 3), -1, 0, 0), ((0, 5, 3), 5, 0, 0),
        ((2, 0, 6), -1, 0, 0), ((1, 1, 6), 2, 0, 0), ((0, 2, 6), 2, 0, 0),
        ((2, 5, 1), -1, 1, 0), ((1, 6, 1), 3, 1, 0), ((0, 7, 1), -1, 1, 0),
        ((2, 2, 4), 1, 1, 0), ((1, 3, 4), 3, 1, 0), ((0, 1, 7), 1, 1, 0),
        ((2, 4, 2), 1, 2, 0), ((1, 5, 2), -1, 2, 0), ((1, 2, 5), 1, 2, 0)),
}

_NINE_TORSION_CUBICS = (
    (((1, 2, 0), 1, 0, 0), ((2, 0, 1), 1, 0, 1), ((0, 1, 2), 1, 0, 2)),
    (((1, 2, 0), 1, 0, 0), ((2, 0, 1), 1, 0, 2), ((0, 1, 2), 1, 0, 1)),
    (((1, 2, 0), 1, 0, 0), ((2, 0, 1), 1, 0, 0), ((0, 1, 2), 1, 0, 0)),
    (((2, 1, 0), 1, 0, 0), ((0, 2, 1), 1, 0, 2), ((1, 0, 2), 1, 0, 1)),
    (((2, 1, 0), 1, 0, 0), ((0, 2, 1), 1, 0, 1), ((1, 0, 2), 1, 0, 2)),
    (((2, 1, 0), 1, 0, 0), ((0, 2, 1), 1, 0, 0), ((1, 0, 2), 1, 0, 0)),
    (((3, 0, 0), 3, 0, 0), ((1, 1, 1), 1, 1, 1), ((1, 1, 1), 2, 1, 0),
     ((0, 0, 3), -3, 0, 2)),
    (((3, 0, 0), 3, 0, 0), ((1, 1, 1), -1, 1, 1), ((1, 1, 1), 1, 1, 0),
     ((0, 0, 3), -3, 0, 1)),
)


def _form(field, table, t):
    """The Poly3 of a term table at the parameter t over `field`."""
    one, t = field.one(), field.coerce(t)
    e = field.eps() if any(b for *_, b in table) else one
    t_powers, e_powers = (one, t, t * t), (one, e, e * e)
    terms = {}
    for exp, c, a, b in table:
        x = field.from_int(c) * t_powers[a] * e_powers[b]
        terms[exp] = terms[exp] + x if exp in terms else x
    return Poly3(field, sum(table[0][0]), terms)


def torsion_locus(field, m, t):
    """The degree-4 or degree-8 torsion locus with parameter t filled in."""
    if m not in _LOCI:
        raise TorsionError(f"no locus stored for m = {m}")
    return _form(field, _LOCI[m], t)


def nine_torsion_cubics(field, t):
    """The eight cubics cutting the points of order nine (zero at x_7)."""
    return [_form(field, table, t) for table in _NINE_TORSION_CUBICS]


def good_primes(p_max):
    """The primes p = 1 mod 3 up to p_max, ascending, each found when read."""
    return (p for p in range(7, p_max + 1, 6)
            if all(p % q for q in range(2, isqrt(p) + 1)))


def min_prime_for_order(m):
    """Smallest good prime over which a Hesse cubic can have a point of order m.

    E[3] is rational over GF(p), p = 1 mod 3, so a point P of order m
    makes #E a multiple of |<P> + E[3]| = 9m / gcd(m, 3).  By the Hasse
    bound #E <= p + 1 + 2*sqrt(p), #E reaches that only from this prime
    on; no curve is scanned.
    """
    need = 9 * m // gcd(m, 3)
    return next(p for p in good_primes(2 * need)
                if p + 1 + isqrt(4 * p) >= need)


@lru_cache(maxsize=1)
def _curve_points(field, t):
    """The rational points of the Hesse cubic t over `field`, whose count
    two scans read (the search's Lagrange filter, the quadratic search's
    #E(GF(p))); the last curve seen hands its points on to `_census`."""
    return tuple(rational_points(HesseCubic(field, t)))


@lru_cache(maxsize=8)
def _census(field, t):
    """(points, {P: exact order}) of the Hesse cubic t over `field`.

    A singular t raises.  The orders are taken with x_7 as zero; the table
    is read-only, since every caller of the same (field, t) shares it.
    """
    curve = HesseCubic(field, t)
    if not curve.is_smooth():
        raise TorsionError(f"t = {t} is singular over {field}")
    group = CubicGroup(curve, hesse_flexes(field)[6])
    points = _curve_points(field, t)
    return points, MappingProxyType(group.orders(points))


def _smooth_curves(p_min, p_max):
    """(GF(p), t) of each smooth Hesse cubic t over GF(p), for the good
    primes p from p_min to p_max ascending, then t in 0..p-1 ascending."""
    for p in good_primes(p_max):
        if p >= p_min:
            field = GF(p)
            yield from ((field, t) for t in range(p)
                        if HesseCubic(field, t).is_smooth())


def find_specialization(m, p_max=500):
    """Smallest (p, t) with a rational point of exact order m, plus witness.

    Scans p = 1 mod 3 ascending from `min_prime_for_order(m)`, then t in
    0..p-1 ascending, then the canonical point order; raises with scan
    statistics when the range is exhausted.  A curve whose point count m
    does not divide has no point of order m (Lagrange) and is passed over;
    on the others the witness is the first census point of order m, x_7
    as zero.  The scan runs once per (m, p_max); each call gets its own
    copy of the answer.
    """
    return dict(_specialization(m, p_max))


@lru_cache(maxsize=8)
def _specialization(m, p_max):
    scanned = 0
    curves = _smooth_curves(min_prime_for_order(m), p_max)
    for scanned, (field, t) in enumerate(curves, 1):
        if len(_curve_points(field, t)) % m == 0:
            points, orders = _census(field, t)
            witness = next((P for P in points if orders[P] == m), None)
            if witness is not None:
                return {"p": field.p, "t": t, "witness": witness}
    raise TorsionError(
        f"no order-{m} point found for p <= {p_max} ({scanned} curves scanned)")


_POWERS = {}  # {(field, census points): their PointPowers}, one entry at most


def _census_powers(field, points):
    """The coordinate powers up to degree 8 of a census's points (a tuple),
    the one table the cut checks of the current census share; the table of
    the census before is dropped before this one is built."""
    table = _POWERS.get((field, points))
    if table is None:
        _POWERS.clear()
        table = _POWERS[field, points] = PointPowers(field, points, 8)
    return table


def _cut_exactly(forms, field, t, m):
    """(per-form counts, points cut) of `forms` on the census points of the
    Hesse cubic t over `field`, read from the zeros of the forms' packed
    values on the census's power table.  A point is cut when some form
    vanishes there; unless the points cut are exactly those of order m,
    TorsionError names a rational counterexample."""
    points, orders = _census(field, t)
    rows = _census_powers(field, points).zeros(forms)
    cut = list(map(any, rows))
    for P, hit in zip(points, cut):
        if hit != (orders[P] == m):
            raise TorsionError(f"order-{orders[P]} point {P} is"
                               f"{'' if hit else ' not'} cut over {field}, m = {m}")
    return [sum(column) for column in zip(*rows)], sum(cut)


def verify_torsion_locus(m, p, t, quadratic_extension=False):
    """Both inclusions between the locus and the exact-order-m points, over
    GF(p), or over GF(p^2) with `quadratic_extension`: the order census of
    the rational points on the locus and the counts in both directions,
    and the Bezout count 3 deg of the locus on the cubic, which the
    points of exact order m over the algebraic closure must fill."""
    field = GFext(p, 2) if quadratic_extension else GF(p)
    locus = torsion_locus(field, m, t)
    (n,), cut = _cut_exactly([locus], field, t, m)
    return {"m": m, "p": p, "t": t, "field": repr(field),
            "points_on_locus": n, "points_of_exact_order": cut,
            "order_census": {m: n} if n else {},
            "points_over_closure": 3 * locus.degree}


def verify_torsion_locus_quadratic(m, p_max=100):
    """The locus inclusions over GF(p^2) at the smallest usable instance.

    Candidates are filtered by m | #E(GF(p^2)) = N (2p + 2 - N), from the
    prime-field count N; the first instance whose extension group actually
    carries points of exact order m is verified and returned.
    """
    for field, t in _smooth_curves(0, p_max):
        n, p = len(_curve_points(field, t)), field.p
        if n * (2 * p + 2 - n) % m == 0:
            rep = verify_torsion_locus(m, p, t, quadratic_extension=True)
            if rep["points_of_exact_order"] > 0:
                return rep
    raise TorsionError(f"no quadratic instance for m = {m} with p <= {p_max}")


def verify_nine_torsion_cubics(p, t):
    """The eight cubics cut exactly the rational points of order nine."""
    field = GF(p)
    cubics = nine_torsion_cubics(field, t)
    if cubics[0].evaluate(hesse_flexes(field)[6]).is_zero():
        raise TorsionError("the zero point lies on the first cubic")
    per_cubic, exact9 = _cut_exactly(cubics, field, t, 9)
    return {"p": p, "t": t, "rational_order9": exact9,
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
    """p_i = x_i + eta for the nine flexes, with the group's zero, summed
    on the coordinates of the group's law."""
    a = group.coords(eta)
    pts = [group.point(group.plus(group.coords(x), a)) for x in hesse_flexes(group.field)]
    if len(set(pts)) != 9:
        raise TorsionError("translated points are not distinct")
    return pts


def collinear_balances(group, pts, alpha, beta):
    """{triple: sum_i r_i p_i} for the Hesse-collinear triples, with
    r_i = alpha on the triple and beta off it: beta * (p_1 + ... + p_9),
    shared by the twelve triples, plus (alpha - beta) * (p_a + p_b + p_c),
    walked on the coordinates of the group's law."""
    coords = [group.coords(P) for P in pts]
    total = group.times(beta, reduce(group.plus, coords))
    return {triple: group.point(group.plus(total, group.times(
                alpha - beta, reduce(group.plus, (coords[i] for i in triple)))))
            for triple in hesse_collinear_triples(group.field)}


def _collinear_kernels(pts, m, triples):
    """{triple: kernel basis} of the degree-m forms over GF(p) with
    multiplicity alpha at the p_i of each Hesse-collinear triple and beta
    at the other six, (alpha, beta) = `index_multiplicities(m)`, from the
    Hasse rows of order r - 1 at multiplicity r.  The rows of order
    min(alpha, beta) - 1 at all nine points are eliminated once; each
    triple eliminates only its own rows (r > min), on that kernel's basis,
    and maps its solutions back (for p > m the shared rows at its own
    points change no kernel; for m = 2 nothing is shared).

    Own rows are taken free of the point's first nonzero coordinate x_j:
    alpha and beta differ by 1, so own rows have r = min + 1 and the
    shared rows order r - 2; on their kernel Euler's relation
    sum_i (a_i + 1) x_i D^(a + e_i) F = (m - |a|) D^a F = 0, |a| = r - 2,
    writes each row D^(a + e_j) through rows of lower index at j (a_j + 1
    < p), so the r rows of order r - 1 with index 0 at j span the rest
    (for r = 1, the one value row)."""
    alpha, beta = index_multiplicities(m)
    low, field = min(alpha, beta), pts[0].field
    shared = [row for P in pts for row in hasse_rows(P, m, monomials_of_degree(low - 1))]
    zero_row = [field.zero()] * len(monomials_of_degree(m))  # kernel: every form
    form = field.packing(2)  # GF(p)'s residues hold any sum of products
    zero, one = form.pack(field.zero()), form.pack(field.one())
    basis = [list(map(form.pack, v)) for v in kernel_basis(shared or [zero_row], field)]
    columns = list(zip(*basis))

    def combine(vectors, columns):  # each packed vector dotted with each column
        return [[form.reduce(sum(map(mul, v, c))) for c in columns] for v in vectors]

    rows = {}  # (index, multiplicity) -> own rows on the shared basis
    kernels = {}
    for triple in triples:
        mults = [alpha if i in triple else beta for i in range(9)]
        for i, r in enumerate(mults):
            if r > low and (i, r) not in rows:
                j = next(j for j, c in enumerate(pts[i].rep) if not c.is_zero())
                own = hasse_rows(pts[i], m, [a for a in monomials_of_degree(r - 1)
                                             if not a[j]])
                rows[i, r] = combine([list(map(form.pack, v)) for v in own], basis)
        kern = kernel_vectors([row for i, r in enumerate(mults) if r > low
                               for row in rows[i, r]], form, zero, one)
        kernels[triple] = [list(map(form.element, v)) for v in combine(kern, columns)]
    return kernels


def hesse_collinear_curves(m, p, t):
    """Existence of the 12 degree-m curves with the index-m multiplicities.

    For each Hesse-collinear triple the linear system of degree-m forms
    with the case multiplicities at p_i = x_i + eta must have a nonzero
    kernel; the multiplicity-weighted sum of the p_i must vanish in the
    census group law, x_7 as zero.  eta is the first census point of
    exact order m, the witness of `find_specialization`.  The
    multiplicities sum to 3m, so the balance holds for any eta of order
    dividing 3m; the order of eta is certified on its own, by m*eta = 0
    and (m/q)*eta != 0 for each prime q | m.

    Multiplicity at least r takes the Hasse rows of order r - 1 only: by
    Euler's relation sum_i (alpha_i + 1) x_i D^(alpha + e_i) F =
    (m - |alpha|) D^alpha F, they force every lower one to vanish when p
    does not divide m - |alpha|, which lies in 1..m; so p <= m raises.
    """
    field = GF(p)
    points, orders = _census(field, t)
    group = CubicGroup(HesseCubic(field, t), hesse_flexes(field)[6])
    eta = next((P for P in points if orders[P] == m), None)
    if eta is None:
        raise TorsionError(f"GF({p}), t = {t} has no point of exact order {m}")
    if group.scalar_mul(m, eta) != group.zero or any(
            group.scalar_mul(m // q, eta) == group.zero for q in prime_divisors(m)):
        raise TorsionError(f"eta = {eta} is not of exact order {m} over GF({p})")
    pts = translated_points(group, eta)
    alpha, beta = index_multiplicities(m)
    if p <= m:
        raise TorsionError(f"the Euler relation needs p > m = {m}, not p = {p}")
    balances = collinear_balances(group, pts, alpha, beta)
    kernels = _collinear_kernels(pts, m, balances)
    results = []
    for triple, balance in balances.items():
        kern = kernels[triple]
        if len(kern) < 1:
            raise TorsionError(
                f"no degree-{m} curve for triple {triple} over GF({p})")
        if balance != group.zero:
            raise TorsionError(f"group-law balance fails for triple {triple}")
        results.append({"triple": triple, "kernel_dim": len(kern)})
    return {"m": m, "p": p, "t": t, "multiplicities": (alpha, beta),
            "systems": results}


def two_torsion_conics(data):
    """The m = 2 curve systems of a GF(p) configuration are its conics.

    In the law of the Hesse cubic t = -(a^3 + 2)/a, x_7 as zero, tau =
    p_1 - x_1 must be nonzero 2-torsion with p_i = x_i + tau index by
    index; the conics through the six p_i off each Hesse-collinear triple
    must be one, the conic of `data` with that support.  Returns tau.
    """
    field, a = data.field, data.a
    flexes = hesse_flexes(field)
    group = CubicGroup(HesseCubic(field, -(a**3 + 2) / a), flexes[6])
    tau = group.add(data.points[0], group.negate(flexes[0]))
    if tau == group.zero or group.scalar_mul(2, tau) != group.zero:
        raise TorsionError(f"p_1 - x_1 = {tau} is not a 2-torsion point")
    if translated_points(group, tau) != list(data.points):
        raise TorsionError("the base points are not the flexes translated by tau")
    conic_on = {frozenset(i for i, row in enumerate(data.incidence) if row[j]): C
                for j, C in enumerate(data.conics)}
    monos = monomials_of_degree(2)
    triples = hesse_collinear_triples(field)
    for triple, kern in _collinear_kernels(data.points, 2, triples).items():
        support = frozenset(range(9)) - frozenset(triple)
        conic = conic_on.get(support)
        if (len(kern) != 1 or conic is None or not conic.proportional_to(
                Poly3(field, 2, dict(zip(monos, kern[0]))))):
            raise TorsionError(f"the conics off triple {triple} are not"
                               " one conic of the configuration")
    return tau

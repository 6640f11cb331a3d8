"""Plane cubics in Hesse form and their chord-tangent group law.

A Hesse cubic is x^3 + y^3 + z^3 + t*xyz; it is smooth iff t^3 != -27.
The group law takes any point of the curve as zero (normally a flex, in
which case three points are collinear iff they sum to zero).  All
constructions run over any coefficient field containing a primitive cube
root of unity, and every division is re-verified, so the law is exact.

The third intersection of a line with the curve comes from the
classical closed forms, which do not depend on t (Joye-Quisquater,
"Hessian elliptic curves and side-channel attacks", CHES 2001):

    chord P != Q:  (x1^2 y2 z2 - x2^2 y1 z1 : y1^2 x2 z2 - y2^2 x1 z1
                    : z1^2 x2 y2 - z2^2 x1 y1)
    tangent at P:  (x (y^3 - z^3) : y (z^3 - x^3) : z (x^3 - y^3))

Each result is certified before use: it is a projective point, differs
from P and Q, lies on the curve, and lies on the line PQ (on the tangent
at P when P = Q).  Those four facts make it the residual intersection.
Where they fail, two residual rules of the smooth cubic decide, each
certified by one exact test:
  - the tangent at P with xyz = 0 at P: P is one of the nine flexes
    (Artebani-Dolgachev, "The Hesse pencil of plane cubic curves", 2009),
    so the residual point is P;
  - a chord with grad(P) . Q = 0: the line is tangent at P, so the
    residual point is P (by Bezout it cannot be tangent at Q too); the
    same with P and Q swapped.
A chord left open -- its formula gives (0:0:0) and it is tangent at
neither end -- takes the rotated chord (Bernstein-Kohel-Lange, "Twisted
Hessian curves", LATINCRYPT 2015), the same formula on (y1:z1:x1) and
(z2:x2:y2), under the same four-fact certificate.  The map
(x:y:z) -> (y:z:x) keeps the cubic and maps lines to lines, and on a
smooth Hesse cubic it has no fixed point, so it is the translation by a
3-torsion point T: the rotated inputs are P + T and Q - T, whose line
has the same residual point as PQ.  Bernstein-Kohel-Lange show that the
two chords together are complete; the code does not rely on it, and a
pair that no certificate decides raises CubicError.

The formulas and certificates are written once, in one law class, and
run, as `HesseCubic.contains` does, in the inner-loop form of the
curve's field (`Field.packing`), where only a zero test or a scaling
reduces.

`rational_points` finds the points over any finite field in O(q) field
operations, on per-field tables of reduced values in the field's
inner-loop form, and certifies each point on its packed coordinates.
`CubicGroup.coords`, `plus`, `times` and `point` run the group law on
those coordinates, so a walk over many sums builds only the points it
returns.
`CubicGroup.orders` gives the exact order of every point from one walk
per cyclic subgroup it meets, on canonical coordinates under the law.
Its zero is a flex, so the residual point X * Y of X and Y is -(X + Y):
-(k+1)P = kP * P and (k+1)P = (-kP) * (-P), one residual per multiple,
and the walk takes kP and -kP together until kP meets -(k-1)P or -kP.
Each input of a step is a listed point or a certified residual, and no
point is built.  The order n of P
gives ord(jP) = n / gcd(n, j); a multiple that is not in the list raises.

`hesse_collinear_triples` reads the twelve flex triples off the flex-line
incidence once per field, and every curve system shares the tuple.
"""

from functools import lru_cache
from math import gcd

from .field import FieldError
from .plane import Poly3, ProjPoint, cross, gens, incidence_rows


class CubicError(Exception):
    pass


class HesseCubic:
    def __init__(self, field, t):
        if field.characteristic in (2, 3):
            raise CubicError("the cubic machinery needs characteristic > 3")
        self.field = field
        self.t = field.coerce(t)

    def is_smooth(self):
        return not (self.t**3 + 27).is_zero()

    def contains(self, P):
        # x^3 + y^3 + z^3 + t*xyz at the representative, in the field's
        # inner-loop form; anything but a point of the field is coerced
        field, form = self.field, self.field.packing(4)
        coords = P.rep if isinstance(P, ProjPoint) else P
        if not (isinstance(P, ProjPoint) and P.field is field):
            coords = [field.coerce(c) for c in coords]  # rejects other fields
        return form.is_zero(_hesse_value(map(form.pack, coords), form.pack(self.t)))

    def require_on_curve(self, P):
        if not self.contains(P):
            raise CubicError(f"point {P} is not on the cubic")


def hesse_flexes(field):
    """The nine base points of the Hesse pencil, in the reference order."""
    if not field.has_eps():
        raise FieldError(f"{field} lacks a primitive cube root of unity")
    e = field.eps()
    one, zero = field.one(), field.zero()
    e2 = e * e
    coords = [
        (zero, one, -one), (zero, one, -e), (zero, one, -e2),
        (one, zero, -one), (one, zero, -e2), (one, zero, -e),
        (one, -one, zero), (one, -e, zero), (one, -e2, zero),
    ]
    return [ProjPoint(field, c) for c in coords]


def hesse_singular_fibers(field):
    """The 12 lines of the four triangle members, as 4 triples.

    The first triple is {x, y, z}; the others are x + e^i y + e^j z
    grouped by i + j mod 3.  Each triple's product is verified to be a
    member lambda*(x^3+y^3+z^3) + mu*xyz of the pencil.
    """
    if not field.has_eps():
        raise FieldError(f"{field} lacks a primitive cube root of unity")
    e = field.eps()
    X, Y, Z = gens(field)
    eps_pow = [field.one(), e, e * e]
    # the nine twisted lines, grouped by i + j mod 3 and ordered by i
    fibers = [[X, Y, Z]] + [[X + eps_pow[i] * Y + eps_pow[(k - i) % 3] * Z
                             for i in range(3)] for k in range(3)]
    for triple in fibers:
        _pencil_member_coords(triple[0] * triple[1] * triple[2], field)
    return fibers


def _pencil_member_coords(cubic, field):
    """(lambda, mu) with cubic = lambda (x^3+y^3+z^3) + mu xyz, else error:
    the member's terms are compared with the cubic's."""
    lam = cubic.terms.get((3, 0, 0), field.zero())
    mu = cubic.terms.get((1, 1, 1), field.zero())
    member = Poly3(field, 3, {(3, 0, 0): lam, (0, 3, 0): lam, (0, 0, 3): lam,
                              (1, 1, 1): mu})
    if member != cubic:
        raise CubicError("cubic is not a member of the Hesse pencil")
    return lam, mu


def flex_line_incidence(field):
    """Verify the (9_4, 12_3) incidence of flexes and triangle lines; one
    row per line, one column per flex."""
    lines = [L for triple in hesse_singular_fibers(field) for L in triple]
    by_flex = incidence_rows(hesse_flexes(field), lines, row_sum=4,
                             column_sum=3)
    return [list(column) for column in zip(*by_flex)]


@lru_cache(maxsize=None)
def hesse_collinear_triples(field):
    """The 12 index-triples of flexes on the triangle lines, built once per
    field: the callers share the tuple."""
    return tuple(tuple(j for j, on in enumerate(row) if on)
                 for row in flex_line_incidence(field))


def _chord(a, b):
    """The Joye-Quisquater chord formula at the coordinates a and b."""
    x1, y1, z1 = a
    x2, y2, z2 = b
    return (x1 * x1 * y2 * z2 - x2 * x2 * y1 * z1,
            y1 * y1 * x2 * z2 - y2 * y2 * x1 * z1,
            z1 * z1 * x2 * y2 - z2 * z2 * x1 * y1)


def _hesse_value(v, t):
    """x^3 + y^3 + z^3 + t*xyz at v, on ints or field elements."""
    x, y, z = v
    return x * x * x + y * y * y + z * z * z + t * x * y * z


def _hesse_gradient(v, t):
    x, y, z = v
    return (3 * x * x + t * y * z, 3 * y * y + t * x * z, 3 * z * z + t * x * y)


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


class _Law:
    """The closed forms in a field's inner-loop form (`Field.packing`): a
    point's coordinates are its packed canonical `coords`, and t is the
    curve's parameter, packed."""

    def __init__(self, t, form):
        self.form, self.t = form, form.pack(t)

    def coords(self, P):
        return tuple(map(self.form.pack, P.coords))

    def residual(self, a, b):
        """The residual point of the line ab on the smooth Hesse cubic.

        a and b are the canonical coordinates of two of its points.
        Returns a certified formula's point in canonical form, or a or b
        itself where a residual rule decides (see the module docstring);
        where none decides, CubicError.
        """
        t, is_zero = self.t, self.form.is_zero
        x1, y1, z1 = a
        if a == b:
            x3, y3, z3 = x1 * x1 * x1, y1 * y1 * y1, z1 * z1 * z1
            coords = (x1 * (y3 - z3), y1 * (z3 - x3), z1 * (x3 - y3))
            R = self._certified(coords, a, b, _hesse_gradient(a, t))
            if R is None and is_zero(x1 * y1 * z1):
                R = a
        else:
            normal = cross(a, b)  # det(a, b, R) = normal . R
            R = self._certified(_chord(a, b), a, b, normal)
            if R is None:
                x2, y2, z2 = b
                R = (a if is_zero(_dot(_hesse_gradient(a, t), b)) else
                     b if is_zero(_dot(_hesse_gradient(b, t), a)) else
                     self._certified(_chord((y1, z1, x1), (z2, x2, y2)), a, b, normal))
        if R is None:
            raise CubicError(f"no certified third intersection of {a}, {b}")
        return R

    def _certified(self, coords, a, b, normal):
        """coords in canonical form if they are the residual point of the
        line ab with the given normal, else None."""
        form = self.form
        R = form.canonical(coords)
        if (R is not None and R != a and R != b and form.is_zero(_dot(normal, R))
                and form.is_zero(_hesse_value(R, self.t))):
            return R
        return None


class CubicGroup:
    """Chord-tangent group law on a smooth Hesse cubic with a chosen zero."""

    def __init__(self, curve, zero):
        if not curve.is_smooth():
            raise CubicError("the group law needs a smooth cubic")
        curve.require_on_curve(zero)
        self.curve = curve
        self.field = curve.field
        self.zero = zero
        self._law = _Law(curve.t, self.field.packing(4))  # products of <= 4 elements

    def third_intersection(self, P, Q):
        """The residual intersection of the line through P and Q.

        For P = Q the line is the tangent at P.  The answer comes from a
        certified closed form or residual rule (see the module docstring),
        run on the coordinates of the group's law; only a new point is
        built.  Where none decides, CubicError.
        """
        curve = self.curve
        curve.require_on_curve(P)
        curve.require_on_curve(Q)
        law = self._law
        a = law.coords(P)
        b = a if Q is P else law.coords(Q)
        R = law.residual(a, b)
        if R is a:
            return P
        if R is b:
            return Q
        return ProjPoint(self.field, map(law.form.element, R))

    def add(self, P, Q):
        return self.third_intersection(self.zero, self.third_intersection(P, Q))

    def negate(self, P):
        return self.third_intersection(self.zero, P)

    def scalar_mul(self, n, P):
        self.curve.require_on_curve(P)
        if n < 0:
            return self.negate(self.scalar_mul(-n, P))
        return _multiple(n, P, self.add, self.zero)

    # the law on coordinates: a walk over many sums builds a point only
    # where it wants one

    def coords(self, P):
        """P's canonical coordinates under the group's law, P on the curve."""
        self.curve.require_on_curve(P)
        return self._law.coords(P)

    def point(self, a):
        """The point whose coordinates under the group's law are a."""
        return ProjPoint(self.field, map(self._law.form.element, a))

    def plus(self, a, b):
        """The coordinates of the sum of the points with coordinates a, b."""
        law = self._law
        return law.residual(law.coords(self.zero), law.residual(a, b))

    def times(self, n, a):
        """The coordinates of n times the point with coordinates a."""
        law = self._law
        if n < 0:
            return law.residual(law.coords(self.zero), self.times(-n, a))
        return _multiple(n, a, self.plus, law.coords(self.zero))

    def orders(self, points):
        """{P: exact order of P} for every point of `points` (the group).

        The zero must be a flex, so that X * Y = -(X + Y) for the residual
        X * Y.  The walk runs on canonical coordinates and takes kP and -kP
        together from a point P not yet reached: -P = zero * P, then
        (k+1)P = (-kP) * (-P) and -(k+1)P = kP * P, each certified by the
        law, until kP = -(k-1)P (order n = 2k - 1) or kP = -kP (n = 2k);
        then ord(jP) = ord(-jP) = n / gcd(n, j).  Each multiple is looked
        up among `points`.  A point off the curve, a multiple that is not
        in the list, or a walk longer than len(points) is an error: then
        `points` is not the whole group.
        """
        law = self._law
        zero = law.coords(self.zero)
        if law.residual(zero, zero) != zero:
            raise CubicError(f"the zero {self.zero} is not a flex")
        by_coords = {law.coords(P): P for P in points}
        if not all(law.form.is_zero(_hesse_value(a, law.t)) for a in by_coords):
            raise CubicError("a point of the list is not on the cubic")
        found = {}  # coordinates -> exact order
        for a, P in by_coords.items():
            if a in found:
                continue
            pos, neg = [zero, a], [zero, law.residual(zero, a)]  # jP, -jP
            while pos[-1] != neg[-2] and pos[-1] != neg[-1]:
                if 2 * len(pos) > len(points) + 1:
                    raise CubicError(f"{P} has no order <= {len(points)}")
                pos.append(law.residual(neg[-1], neg[1]))
                neg.append(law.residual(pos[-2], a))
            k = len(pos) - 1
            n = 2 * k - (pos[-1] == neg[-2])
            for j, v in enumerate(pos[1:] + neg[:n - k][::-1], 1):
                if v not in by_coords:
                    raise CubicError(f"the multiple {v} of {P} is not in the list")
                found.setdefault(v, n // gcd(n, j))
        return {by_coords[a]: n for a, n in found.items()}


def _multiple(n, x, add, zero):
    """n x for n >= 0 by doubling and adding under `add`, with `zero`."""
    acc = None
    while n:
        if n & 1:
            acc = x if acc is None else add(acc, x)
        n >>= 1
        if n:
            x = add(x, x)
    return zero if acc is None else acc


def rational_points(curve):
    """All points of the cubic over its finite field, in O(q) operations.

    On the chart x = 1, u = y + z and v = yz turn the equation into
    1 + u^3 + (t - 3u) v = 0, as y^3 + z^3 = u^3 - 3uv.  Where 3u != t,
    v = (1 + u^3) / (3u - t), and y, z = u/2 +- s where s^2 = u^2/4 - v
    is a square; where 3u = t and 1 + u^3 = 0, t is singular and the line
    y + z = u lies on the curve.  Points come y, then z ascending in the
    order of `field.elements()`, then the (0 : 1 : z) with z^3 = -1.  The
    search runs on reduced values of the field's inner-loop form for
    products of two elements (`Field.packing`), and each point found is
    certified on the curve in the form of the group law, on its packed
    coordinates.  Needs characteristic != 2, 3, as `HesseCubic` does.
    """
    field = curve.field
    if not field.is_finite:
        raise CubicError("point enumeration needs a finite field")
    form, (elems, rank, rows, root, line) = field.packing(2), _chart_tables(field)
    reduce, is_zero, inverse = form.reduce, form.is_zero, form.inverse
    t = form.pack(curve.t)
    hits = set()  # (rank of y, rank of z)
    for u, h, u3, hh, w in rows:
        if u3 != t:  # reduced values are equal iff their elements are
            s = root.get(reduce(hh - w * inverse(u3 - t)))
            if s is not None:
                i, j = rank[reduce(h + s)], rank[reduce(h - s)]
                hits.update(((i, j), (j, i)))
        elif is_zero(w):  # t is singular: the line y + z = u
            hits.update((i, rank[reduce(u - y)]) for y, i in rank.items())
    zero, one = field.zero(), field.one()
    pts = [ProjPoint(field, (one, elems[i], elems[j])) for i, j in sorted(hits)]
    pts += [ProjPoint(field, (zero, one, z)) for z in line]
    law = _Law(curve.t, field.packing(4))
    for P in pts:
        if not law.form.is_zero(_hesse_value(law.coords(P), law.t)):
            raise CubicError(f"point {P} is not on the cubic")
    return pts


@lru_cache(maxsize=None)
def _chart_tables(field):
    """The t-free tables of `rational_points`, built once per field: the
    elements in order, and in the field's form for products of two
    elements, on reduced values, the rank of each element, a row (u, u/2,
    3u, u^2/4, 1 + u^3) per element u and a square root of each square;
    then the elements z with z^3 = -1."""
    form = field.packing(2)
    pack, reduce = form.pack, form.reduce
    one, half, three = map(pack, (field.one(), field.from_int(2).inverse(),
                                  field.from_int(3)))
    elems, rows = tuple(field.elements()), []
    for u in map(pack, elems):
        h = reduce(half * u)
        rows.append((u, h, reduce(three * u), reduce(h * h), reduce(one + reduce(u * u) * u)))
    root = {hh: h for _, h, _, hh, _ in rows}  # h = u/2 runs over the field
    line = tuple(z for z, (*_, w) in zip(elems, rows) if form.is_zero(w))
    return elems, {u: i for i, (u, *_) in enumerate(rows)}, tuple(rows), root, line

"""Plane cubics in Hesse form and their chord-tangent group law.

A Hesse cubic is x^3 + y^3 + z^3 + t*xyz; it is smooth iff t^3 != -27.
The group law takes any point of the curve as zero (normally a flex, in
which case three points are collinear iff they sum to zero).  All
constructions run over any coefficient field containing a primitive cube
root of unity, and every division is re-verified, so the law is exact.

The third intersection of a line with the curve is taken first from the
classical closed forms, which do not depend on t (Joye-Quisquater,
"Hessian elliptic curves and side-channel attacks", CHES 2001;
Bernstein-Kohel-Lange, "Twisted Hessian curves", LATINCRYPT 2015):

    chord P != Q:  (x1^2 y2 z2 - x2^2 y1 z1 : y1^2 x2 z2 - y2^2 x1 z1
                    : z1^2 x2 y2 - z2^2 x1 y1)
    tangent at P:  (x (y^3 - z^3) : y (z^3 - x^3) : z (x^3 - y^3))

Each result is certified before use: it is a projective point, differs
from P and Q, lies on the curve, and lies on the line PQ (on the tangent
at P when P = Q).  Those four facts make it the residual intersection.
Where they fail -- the formula gives (0:0:0), or the residual point is P
or Q itself, as for a line tangent at P or Q and for the tangent at a
flex -- the generic path restricts the cubic to the line and divides out
the known roots with verified divisions.
"""

from .field import FieldError
from .plane import GeometryError, ProjPoint, bf_divide_linear, gens


class CubicError(Exception):
    pass


class HesseCubic:
    def __init__(self, field, t):
        if field.characteristic in (2, 3):
            raise CubicError("the cubic machinery needs characteristic > 3")
        self.field = field
        self.t = field.coerce(t)
        X, Y, Z = gens(field)
        self.poly = X**3 + Y**3 + Z**3 + self.t * X * Y * Z
        self._grads = self.poly.gradient()

    def is_smooth(self):
        return not (self.t**3 + 27).is_zero()

    def contains(self, P):
        # x^3 + y^3 + z^3 + t*xyz at the representative, as poly.evaluate
        # would; coerce first, since GF(p) products do not check the field
        coords = P.rep if isinstance(P, ProjPoint) else P
        x, y, z = (self.field.coerce(c) for c in coords)
        return (x * x * x + y * y * y + z * z * z + self.t * x * y * z).is_zero()

    def require_on_curve(self, P):
        if not self.contains(P):
            raise CubicError(f"point {P} is not on the cubic")

    def gradient_at(self, P):
        return [g.evaluate(P) for g in self._grads]


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
    # group the nine twisted lines by i + j mod 3
    grouped = {0: [], 1: [], 2: []}
    for i in range(3):
        for j in range(3):
            grouped[(i + j) % 3].append(X + eps_pow[i] * Y + eps_pow[j] * Z)
    fibers = [[X, Y, Z], grouped[0], grouped[1], grouped[2]]
    for triple in fibers:
        _pencil_member_coords(triple[0] * triple[1] * triple[2], field)
    return fibers


def _pencil_member_coords(cubic, field):
    """(lambda, mu) with cubic = lambda (x^3+y^3+z^3) + mu xyz, else error."""
    lam = cubic.terms.get((3, 0, 0), field.zero())
    mu = cubic.terms.get((1, 1, 1), field.zero())
    X, Y, Z = gens(field)
    member = lam * (X**3 + Y**3 + Z**3) + mu * (X * Y * Z)
    if member != cubic:
        raise CubicError("cubic is not a member of the Hesse pencil")
    return lam, mu


def flex_line_incidence(field):
    """Verify the (9_4, 12_3) incidence of flexes and triangle lines."""
    flexes = hesse_flexes(field)
    fibers = hesse_singular_fibers(field)
    lines = [L for triple in fibers for L in triple]
    incidence = [[1 if L.evaluate(P).is_zero() else 0 for P in flexes]
                 for L in lines]
    for i, row in enumerate(incidence):
        if sum(row) != 3:
            raise CubicError(f"line {i} contains {sum(row)} flexes, expected 3")
    for j in range(9):
        col = sum(incidence[i][j] for i in range(12))
        if col != 4:
            raise CubicError(f"flex {j} lies on {col} lines, expected 4")
    return incidence


def hesse_collinear_triples(field):
    """The 12 index-triples of flexes lying on the triangle lines."""
    incidence = flex_line_incidence(field)
    return [tuple(j for j in range(9) if row[j]) for row in incidence]


class CubicGroup:
    """Chord-tangent group law on a smooth Hesse cubic with a chosen zero."""

    def __init__(self, curve, zero):
        if not curve.is_smooth():
            raise CubicError("the group law needs a smooth cubic")
        curve.require_on_curve(zero)
        self.curve = curve
        self.field = curve.field
        self.zero = zero

    def third_intersection(self, P, Q):
        """The residual intersection of the line through P and Q.

        For P = Q the line is the tangent at P.  The certified closed form
        (see the module docstring) is tried first; where it is degenerate
        or fails its certificate the generic path decides.
        """
        curve = self.curve
        curve.require_on_curve(P)
        curve.require_on_curve(Q)
        R = self.closed_form_third(P, Q)
        return self.generic_third(P, Q) if R is None else R

    def closed_form_third(self, P, Q):
        """The Hesse chord or tangent formula's point once certified, else None.

        P and Q must lie on the curve.  The certificate: the result is not
        (0:0:0), differs from P and Q, lies on the curve, and lies on the
        line PQ, or for P = Q on the tangent at P.
        """
        x1, y1, z1 = P.coords
        x1x1, y1y1, z1z1 = x1 * x1, y1 * y1, z1 * z1
        if P == Q:
            x3, y3, z3 = x1x1 * x1, y1y1 * y1, z1z1 * z1
            coords = (x1 * (y3 - z3), y1 * (z3 - x3), z1 * (x3 - y3))
            t = self.curve.t
            normal = (3 * x1x1 + t * y1 * z1, 3 * y1y1 + t * x1 * z1,
                      3 * z1z1 + t * x1 * y1)  # the gradient at P
        else:
            x2, y2, z2 = Q.coords
            coords = (x1x1 * y2 * z2 - x2 * x2 * y1 * z1,
                      y1y1 * x2 * z2 - y2 * y2 * x1 * z1,
                      z1z1 * x2 * y2 - z2 * z2 * x1 * y1)
            normal = (y1 * z2 - z1 * y2, z1 * x2 - x1 * z2,
                      x1 * y2 - y1 * x2)  # P x Q; det(P, Q, R) = normal . R
        if all(c.is_zero() for c in coords) or all(n.is_zero() for n in normal):
            return None
        u, v, w = coords
        if not (normal[0] * u + normal[1] * v + normal[2] * w).is_zero():
            return None
        R = ProjPoint(self.field, coords)
        if R == P or R == Q or not self.curve.contains(R):
            return None
        return R

    def generic_third(self, P, Q):
        """The residual intersection by restricting the cubic to the line.

        P and Q must lie on the curve.  A vanishing gradient at P = Q means
        the curve is singular there and is an error.
        """
        curve = self.curve
        field = self.field
        if P == Q:
            g = curve.gradient_at(P)
            if all(c.is_zero() for c in g):
                raise CubicError("singular point: no tangent line")
            A, B = _line_basis(field, g)
            form = curve.poly.restrict_to_line(A, B)
            # P is a double root of the restriction
            uv = _coordinates_on_line(P, A, B, field)
            form = bf_divide_linear(form, uv, field)
            form = bf_divide_linear(form, uv, field)
        else:
            form = curve.poly.restrict_to_line(P, Q)
            # roots (1:0) and (0:1) are P and Q
            form = bf_divide_linear(form, (field.one(), field.zero()), field)
            form = bf_divide_linear(form, (field.zero(), field.one()), field)
            A, B = P, Q
        u0, v0 = -form[0], form[1]
        coords = tuple(u0 * a + v0 * b for a, b in
                       zip(A.coords if isinstance(A, ProjPoint) else A,
                           B.coords if isinstance(B, ProjPoint) else B))
        R = ProjPoint(field, coords)
        curve.require_on_curve(R)
        return R

    def add(self, P, Q):
        return self.third_intersection(self.zero, self.third_intersection(P, Q))

    def negate(self, P):
        return self.third_intersection(self.zero, P)

    def scalar_mul(self, n, P):
        self.curve.require_on_curve(P)
        if n == 0:
            return self.zero
        if n < 0:
            return self.negate(self.scalar_mul(-n, P))
        acc = None
        base = P
        while n:
            if n & 1:
                acc = base if acc is None else self.add(acc, base)
            n >>= 1
            if n:
                base = self.add(base, base)
        return acc

    def torsion_order(self, P, bound=24):
        """Least n <= bound with n*P = zero, or None."""
        if bound < 1:
            raise CubicError("torsion bound must be >= 1")
        acc = P
        for n in range(1, bound + 1):
            if acc == self.zero:
                return n
            acc = self.add(acc, P)
        return None

    def has_exact_order(self, P, m):
        if not self.scalar_mul(m, P) == self.zero:
            return False
        for q in _prime_divisors(m):
            if self.scalar_mul(m // q, P) == self.zero:
                return False
        return True


def _prime_divisors(m):
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


def _line_basis(field, g):
    """Two independent points spanning the line g0 x + g1 y + g2 z = 0."""
    zero, one = field.zero(), field.one()
    if not g[0].is_zero():
        A = (-g[1], g[0], zero)
        B = (-g[2], zero, g[0])
    elif not g[1].is_zero():
        A = (one, zero, zero)
        B = (zero, -g[2], g[1])
    else:
        A = (one, zero, zero)
        B = (zero, one, zero)
    return ProjPoint(field, A), ProjPoint(field, B)


def _coordinates_on_line(P, A, B, field):
    """(u, v) with P = u*A + v*B projectively."""
    for i, j in ((0, 1), (0, 2), (1, 2)):
        det = A.coords[i] * B.coords[j] - A.coords[j] * B.coords[i]
        if not det.is_zero():
            u = P.coords[i] * B.coords[j] - P.coords[j] * B.coords[i]
            v = A.coords[i] * P.coords[j] - A.coords[j] * P.coords[i]
            uv = ProjPoint(field, (u, v, field.zero()))  # normalizes the pair
            return (uv.coords[0], uv.coords[1])
    raise GeometryError("degenerate line basis")


def rational_points(curve):
    """All points of the cubic over its finite coefficient field.

    Walks the affine chart x = 1 with precomputed cubes (the Hesse form
    needs one multiplication per point), then the line x = 0.
    """
    field = curve.field
    if not field.is_finite:
        raise CubicError("point enumeration needs a finite field")
    elems = list(field.elements())
    cubes = [v * v * v for v in elems]
    one, zero = field.one(), field.zero()
    t = curve.t
    pts = []
    for iy, y in enumerate(elems):
        ty = t * y
        base = one + cubes[iy]
        for iz, z in enumerate(elems):
            if (base + cubes[iz] + ty * z).is_zero():
                pts.append(ProjPoint(field, (one, y, z)))
    for iz, z in enumerate(elems):
        if (one + cubes[iz]).is_zero():
            pts.append(ProjPoint(field, (zero, one, z)))
    return pts

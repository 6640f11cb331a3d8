"""Homogeneous trivariate polynomials and points of the projective plane.

Poly3 stores a mapping from exponent triples (i, j, k), i+j+k = degree, to
nonzero field elements.  Together with the generator helper ``gens`` this
lets curve equations be written as plain Python expressions:

    X, Y, Z = gens(field)
    conic = X*Y - a*Z**2

ProjPoint canonicalizes on construction (first nonzero coordinate scaled
to 1) so equality and hashing are representative-independent.

``PointPowers`` is the one evaluator: it keeps the powers of points'
coordinates in the form of ``Field.pack_vectors`` (over Q(e) and
Q(e)(a), ints: a -> 2^K with K set from a height bound), on which each
form's packed terms sum to one value per point; ``values_at`` maps those
values to elements, ``Poly3.evaluate`` is its one-point call, and
``incidence_rows`` reads their zeros.

The module also provides restriction of a form to a parametrized line,
the closed-form resultant of two conics and exact division of binary
forms by linear factors -- the primitives behind intersection-point
extraction -- and ``hasse_rows``, in the same form, the one way local
data at a point is read: values, gradients, multiplicity conditions and
tangent cones are dot products of ``Poly3.coefficients`` with its rows.
"""

from collections import Counter
from functools import lru_cache, partial, reduce
from math import comb
from operator import mul

from .field import MixedContextError, pmul, pnormalize, specialize_scalar, term_text, to_text


class GeometryError(Exception):
    pass


class Poly3:
    __slots__ = ("field", "degree", "terms")

    def __init__(self, field, degree, terms):
        self.field = field
        self.degree = degree
        self.terms = {exp: c for exp, c in terms.items() if not c.is_zero()}
        for (i, j, k) in self.terms:
            if i + j + k != degree:
                raise GeometryError(f"term {(i, j, k)} breaks homogeneity of degree {degree}")

    @classmethod
    def zero(cls, field, degree=0):
        return cls(field, degree, {})

    def is_zero(self):
        return not self.terms

    def _scalar(self, x):
        try:
            return self.field.coerce(x)
        except MixedContextError:
            return None

    def __add__(self, other):
        if not isinstance(other, Poly3):
            s = self._scalar(other)
            if s is None:
                return NotImplemented
            other = Poly3(self.field, 0, {(0, 0, 0): s})
        if self.field is not other.field:
            raise MixedContextError("polynomials over different fields")
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise GeometryError(
                f"degree mismatch in sum: {self.degree} vs {other.degree}")
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            if exp in terms:
                terms[exp] = terms[exp] + c
            else:
                terms[exp] = c
        return Poly3(self.field, self.degree, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly3(self.field, self.degree, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, Poly3):
            return self + (-other)
        s = self._scalar(other)
        if s is None:
            return NotImplemented
        return self + (-s)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly3):
            s = self._scalar(other)
            if s is None:
                return NotImplemented
            return self.scale(s)
        if self.field is not other.field:
            raise MixedContextError("polynomials over different fields")
        if self.is_zero() or other.is_zero():
            return Poly3.zero(self.field, self.degree + other.degree)
        terms = {}
        for (i1, j1, k1), c1 in self.terms.items():
            for (i2, j2, k2), c2 in other.terms.items():
                exp = (i1 + i2, j1 + j2, k1 + k2)
                prod = c1 * c2
                if exp in terms:
                    terms[exp] = terms[exp] + prod
                else:
                    terms[exp] = prod
        return Poly3(self.field, self.degree + other.degree, terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise GeometryError("negative power of a polynomial")
        out = Poly3(self.field, 0, {(0, 0, 0): self.field.one()})
        for _ in range(n):
            out = out * self
        return out

    def scale(self, c):
        c = self.field.coerce(c)
        return Poly3(self.field, self.degree,
                     {e: v * c for e, v in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, Poly3):
            return NotImplemented
        return (self.field is other.field and self.degree == other.degree
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.degree, frozenset(self.terms.items())))

    def proportional_to(self, other):
        """True if self = c * other for some nonzero scalar c."""
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        if self.degree != other.degree or set(self.terms) != set(other.terms):
            return False
        exp = next(iter(self.terms))
        ratio = self.terms[exp] / other.terms[exp]
        return all(self.terms[e] == ratio * other.terms[e] for e in other.terms)

    def coefficients(self):
        """The dense coefficient vector, in `monomials_of_degree` order."""
        zero = self.field.zero()
        return [self.terms.get(e, zero) for e in monomials_of_degree(self.degree)]

    def evaluate(self, point):
        return values_at([self], [point])[0][0]

    def restrict_to_line(self, A, B):
        """Coefficients [c_0..c_d] of P(u*A + v*B) = sum c_i u^i v^(d-i)."""
        F = self.field
        A = [F.coerce(c) for c in (A.coords if isinstance(A, ProjPoint) else A)]
        B = [F.coerce(c) for c in (B.coords if isinstance(B, ProjPoint) else B)]
        d = self.degree
        out = [F.zero() for _ in range(d + 1)]
        for exp, c in self.terms.items():
            # expand prod_v (u*A_v + v*B_v)^exp_v as a binary form in (u, v)
            form = [F.one()]
            for v in range(3):
                lin = [B[v], A[v]]  # index = u-degree
                for _ in range(exp[v]):
                    form = pmul(form, lin, F)
            for i, coef in enumerate(form):
                out[i] = out[i] + c * coef
        return out

    def specialize(self, target, eps_image=None, a_image=None):
        terms = {}
        for exp, c in self.terms.items():
            terms[exp] = specialize_scalar(c, target, eps_image, a_image)
        return Poly3(target, self.degree, terms)

    def to_text(self):
        if not self.terms:
            return "0"
        parts = []
        for exp in sorted(self.terms, reverse=True):
            c = self.terms[exp]
            mono = "*".join(f"{v}^{n}" if n > 1 else v
                            for v, n in zip("xyz", exp) if n > 0)
            cs = to_text(c)
            if mono:
                parts.append(term_text(cs, mono))
            else:
                parts.append(f"({cs})" if "/" in cs else cs)
        return " + ".join(parts)

    def __repr__(self):
        return self.to_text()


def _power_table(x, n, one):
    """[1, x, ..., x^n], unreduced, of a value of a field's inner-loop form."""
    out = [one]
    for _ in range(n):
        out.append(out[-1] * x)
    return out


class PointPowers:
    """The powers of points' coordinates, the one table `values_at` and
    `incidence_rows` evaluate forms on.

    A point is a ProjPoint over `field`, whose `rep` is used, or anything
    whose coordinates the field coerces.  The powers up to `degree` are
    kept unreduced in the form `Field.pack_vectors` gives for products of
    degree + 1 entries, one column per coordinate and exponent, one entry
    per point, so one table serves every form of degree at most `degree`.
    A form's values are the sum of its packed terms times their monomials'
    columns; each monomial's column is built once per call, and every
    operation runs over a whole column.

    Over a finite field the form packs entry by entry, and the columns are
    built once for every call.  Over Q(e) and Q(e)(a) it is the integer
    form `kronecker.Kronecker`, which each call sizes to its forms and the
    points: each point and each form is cleared of denominators, so a
    packed value is the value times the scale of its form and the
    `degree`-th power of the scale of its point (`scales`), and has the
    same zeros.  A value sums at most as many terms as a form has, each
    the product of a coefficient and `degree` coordinates, so K is one bit
    above twice terms * h^(degree + 1) for the largest l1 norm h of what
    is packed, and a nonzero value, an integer polynomial in 2^K with
    coefficients below 2^(K-1), is a nonzero int.
    """

    def __init__(self, field, points, degree):
        self.field, self.degree = field, degree
        self.reps = [P.rep if isinstance(P, ProjPoint) and P.field is field
                     else [field.coerce(c) for c in (P.rep if isinstance(P, ProjPoint) else P)]
                     for P in points]  # rejects points over other fields
        self.form = self.scales = None

    def _packed(self, forms):
        """The forms' packed terms, with the columns in the same form."""
        terms = [list(F.terms.values()) for F in forms]
        if self.form is not None and self.scales is None:  # the form of every call
            return [list(map(self.form.pack, t)) for t in terms]
        most = max([len(t) for t in terms] + [1])  # a value sums this many terms
        form, packed, self.scales = self.field.pack_vectors(self.degree + 1,
                                                            terms + self.reps, most)
        self.form, self.columns = form, []  # [x, y, z][exponent] -> one value per point
        reps = packed[len(forms):]
        for column in zip(*reps) if reps else [()] * 3:
            powers = [[1] * len(reps), list(column)]
            while len(powers) <= self.degree:
                powers.append(list(map(mul, powers[-1], column)))
            self.columns.append(powers[:self.degree + 1])
        return packed[:len(forms)]

    def values(self, forms):
        """The packed values of the forms: one row per point, one value per
        form."""
        if any(F.field is not self.field for F in forms):
            raise MixedContextError("forms over different fields")
        if any(F.degree > self.degree for F in forms):
            raise GeometryError(f"a form of degree above {self.degree}")
        packed = self._packed(forms)
        uses = Counter(exp for F in forms for exp in F.terms)
        shared = {}  # the column of each monomial that several forms have
        out = []
        for F, coefficients in zip(forms, packed):
            total = None
            for exp, c in zip(F.terms, coefficients):
                monomial = shared.get(exp)
                if monomial is None:  # the product of the columns of exponents > 0
                    first, *rest = ([self.columns[v][n] for v, n in enumerate(exp) if n]
                                    or [self.columns[0][0]])
                    monomial = reduce(partial(map, mul), rest, first)
                    if uses[exp] > 1:
                        monomial = shared[exp] = list(monomial)
                total = ([c * x for x in monomial] if total is None
                         else [y + c * x for y, x in zip(total, monomial)])
            out.append(total or [0] * len(self.reps))
        return [list(row) for row in zip(*out)]

    def zeros(self, forms):
        """The 0/1 vanishing of the forms: one row per point, one entry per
        form."""
        rows = self.values(forms)
        is_zero = self.form.is_zero
        return [[int(is_zero(v)) for v in row] for row in rows]


def values_at(forms, points):
    """The values of forms over one field at points, as elements: one row
    per point, one value per form, read from one `PointPowers` table and
    freed of the scales its form put in."""
    table = PointPowers(forms[0].field, points, max(F.degree for F in forms))
    rows = table.values(forms)
    element = table.form.element
    if table.scales is None:
        return [list(map(element, row)) for row in rows]
    scales = table.scales
    return [[element(v, s * p ** F.degree) for v, s, F in zip(row, scales, forms)]
            for row, p in zip(rows, scales[len(forms):])]


def incidence_rows(points, curves, row_sum=None, column_sum=None):
    """The 0/1 incidence of points and curves: one row per point, one
    column per curve, from one `PointPowers` table.  With `row_sum` every
    point lies on exactly that many of the curves, and with `column_sum`
    every curve passes through exactly that many of the points;
    GeometryError otherwise."""
    rows = PointPowers(curves[0].field, points, max(F.degree for F in curves)).zeros(curves)
    for want, lines, what in ((row_sum, rows, "point"),
                              (column_sum, zip(*rows), "curve")):
        if want is None:
            continue
        for k, line in enumerate(lines):
            if sum(line) != want:
                raise GeometryError(f"{what} {k + 1} has {sum(line)}"
                                    f" incidences, expected {want}")
    return rows


def monomials_of_degree(d):
    return [(i, j, d - i - j) for i in range(d, -1, -1) for j in range(d - i, -1, -1)]


def hasse_rows(point, degree, alphas, packed=None):
    """The Hasse derivatives of the degree-`degree` monomials at a point.

    One row per multi-index alpha, one entry per exponent e of
    `monomials_of_degree(degree)`: the value at `point.rep` of
    D^alpha x^e = C(e_0, alpha_0) C(e_1, alpha_1) C(e_2, alpha_2) x^(e - alpha),
    zero unless alpha <= e.  They are the Taylor coefficients
    F(P + h) = sum over alpha of D^alpha F(P) h^alpha, exact in every
    characteristic (an ordinary partial is alpha! D^alpha), so a form's
    local data at the point is the dot product of its coefficients with
    the rows: its value is the alpha = 0 row, and it has multiplicity at
    least r there iff every row of order below r vanishes on it.

    The rows are elements.  With `packed`, the point's coordinates packed
    by `Field.pack_vectors`, they stay values of that form, to be dotted
    with a form's coefficients packed with them.  The zero tests on the
    dot products are exact when the `degree` and `terms` the form was
    sized for cover them: a dot product has degree + 1 factors and sums
    binomials C(e, alpha) over the monomials as multipliers, so K, one bit
    above twice terms * h^degree, bounds its coefficients in a (the lemma
    of `kronecker.Kronecker`).
    """
    if packed is None:
        field = point.field
        form = field.packing(degree + 1)  # a value times its C(e, alpha) fits too
        coords, finish = map(form.pack, point.rep), form.element
        zero, one = field.zero(), form.pack(field.one())
    else:
        coords, finish, zero, one = packed, None, 0, 1
    px, py, pz = (_power_table(c, degree, one) for c in coords)
    rows = []
    for plan in _hasse_plan(degree, tuple(map(tuple, alphas))):
        row = []
        for entry in plan:
            if entry is None:
                row.append(zero)
                continue
            i, j, k, c = entry
            value = px[i] * py[j] * pz[k]
            value = value if c == 1 else value * c
            row.append(value if finish is None else finish(value))
        rows.append(row)
    return rows


@lru_cache(maxsize=None)
def _hasse_plan(degree, alphas):
    """Per alpha, per exponent e of `monomials_of_degree(degree)`:
    (e - alpha, C(e, alpha)) as four ints, or None unless alpha <= e."""
    return [[None if any(e < a for e, a in zip(mono, alpha)) else
             (*(e - a for e, a in zip(mono, alpha)),
              comb(mono[0], alpha[0]) * comb(mono[1], alpha[1]) * comb(mono[2], alpha[2]))
             for mono in monomials_of_degree(degree)] for alpha in alphas]


def gens(field):
    """The coordinate forms (x, y, z) as degree-1 Poly3 over `field`."""
    one = field.one()
    return (Poly3(field, 1, {(1, 0, 0): one}),
            Poly3(field, 1, {(0, 1, 0): one}),
            Poly3(field, 1, {(0, 0, 1): one}))


class ProjPoint:
    """A plane point, canonical in `coords`, with the given representative
    kept in `rep` (evaluation at `rep` avoids the denominators the
    canonical form may introduce; vanishing is representative-free).  The
    hash is taken once, when first asked for."""

    __slots__ = ("field", "coords", "rep", "_hash")

    def __init__(self, field, coords):
        coerce = field.coerce
        coords = tuple([coerce(c) for c in coords])
        if len(coords) != 3:
            raise GeometryError("projective points need three coordinates")
        for pivot in coords:
            if not pivot.is_zero():
                break
        else:
            raise GeometryError("(0:0:0) is not a projective point")
        self.field = field
        self.rep = coords
        if pivot == 1:
            self.coords = coords
        else:
            inv = pivot.inverse()
            self.coords = tuple(c * inv for c in coords)

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return self.field is other.field and self.coords == other.coords

    def __hash__(self):
        h = getattr(self, "_hash", None)
        if h is None:
            h = self._hash = hash(self.coords)
        return h

    def to_text(self):
        return "(" + " : ".join(to_text(c) for c in self.coords) + ")"

    def __repr__(self):
        return self.to_text()


def plane_points(field):
    """All points of P^2 over a finite field, in canonical form."""
    one = field.one()
    zero = field.zero()
    elems = list(field.elements())
    for y in elems:
        for z in elems:
            yield ProjPoint(field, (one, y, z))
    for z in elems:
        yield ProjPoint(field, (zero, one, z))
    yield ProjPoint(field, (zero, zero, one))


def line_through(P, Q):
    """The linear form vanishing on two distinct points (cross product)."""
    if P == Q:
        raise GeometryError("two distinct points are needed to span a line")
    X, Y, Z = gens(P.field)
    co = cross(P.coords, Q.coords)
    return X.scale(co[0]) + Y.scale(co[1]) + Z.scale(co[2])


def cross(u, v):
    """The cross product of two coordinate triples: the line through two
    points, the point on two lines, and zero iff they are proportional."""
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def are_collinear(points):
    """Exact collinearity test for any number of points: the line through
    the first two (`cross`) vanishes at each other one, a determinant of six
    products of three coordinates, tested on the ints of
    `Field.pack_vectors`."""
    pts = list(points)
    if len(pts) <= 2:
        return True
    form, (p, q, *rest), _ = pts[0].field.pack_vectors(3, [P.rep for P in pts], 6)
    line = cross(p, q)
    return all(form.is_zero(sum(map(mul, line, r))) for r in rest)


def line_basis(field, g):
    """Two independent points spanning the line g0 x + g1 y + g2 z = 0."""
    zero, one = field.zero(), field.one()
    if not g[0].is_zero():
        A, B = (-g[1], g[0], zero), (-g[2], zero, g[0])
    elif not g[1].is_zero():
        A, B = (one, zero, zero), (zero, -g[2], g[1])
    else:
        A, B = (one, zero, zero), (zero, one, zero)
    return ProjPoint(field, A), ProjPoint(field, B)


# ---------------------------------------------------------------------------
# binary forms: dense lists [c_0..c_d] meaning sum c_i U^i V^(d-i)


def bf_divide_linear(form, root, field):
    """Exact division of a binary form by the linear factor with given root.

    `root` is a projective pair (u0, v0); the factor is v0*U - u0*V.  The
    quotient is verified by re-multiplication.
    """
    u0, v0 = (field.coerce(root[0]), field.coerce(root[1]))
    d = len(form) - 1
    if d < 1:
        raise GeometryError("cannot divide a constant form")
    q = [field.zero()] * d
    if not v0.is_zero():
        inv = v0.inverse()
        # peel from the top U-degree downwards
        rem = list(form)
        for i in range(d - 1, -1, -1):
            q[i] = rem[i + 1] * inv
            rem[i] = rem[i] + q[i] * u0
        if not rem[0].is_zero():
            raise GeometryError("inexact division of binary form")
    else:
        # root (1:0): factor is -u0*V, divisible iff the U^d coefficient vanishes
        if not form[-1].is_zero():
            raise GeometryError("inexact division of binary form")
        inv = (-u0).inverse()
        q = [c * inv for c in form[:-1]]
    # verify: (v0 U - u0 V) * q == form, every coefficient
    if pmul([-u0, v0], q, field) != pnormalize(list(form)):
        raise GeometryError("division verification failed")
    return q


def poly_in_var(P, var):
    """Rewrite P as a list of Poly3 coefficients of powers of variable `var`.

    Entry j is the coefficient of (x_var)^j, itself a Poly3 in the other
    two variables (with exponent 0 in position var).
    """
    F = P.field
    if P.is_zero():
        return []
    out = [dict() for _ in range(P.degree + 1)]
    for exp, c in P.terms.items():
        j = exp[var]
        rest = list(exp)
        rest[var] = 0
        out[j][tuple(rest)] = c
    polys = [Poly3(F, P.degree - j, terms) for j, terms in enumerate(out)]
    while polys and polys[-1].is_zero():
        polys.pop()
    return polys


def resultant(P, Q, var):
    """Resultant of two forms with respect to one variable.

    Returns a Poly3 in the remaining two variables: the Sylvester
    determinant at the actual degrees in `var`, in closed form for the
    pairs the nodes of two conics meet, (1, 1), (2, 1) and (2, 2);
    GeometryError for any other.  An identically zero resultant signals a
    common component.
    """
    p = poly_in_var(P, var)
    q = poly_in_var(Q, var)
    m, n = len(p) - 1, len(q) - 1
    if (m, n) == (1, 1):
        return p[1] * q[0] - p[0] * q[1]
    if (m, n) == (2, 1):
        return q[1] * (q[1] * p[0] - q[0] * p[1]) + q[0] * q[0] * p[2]
    if (m, n) != (2, 2):
        raise GeometryError(f"no closed-form resultant for degrees ({m}, {n})")
    c20, c21, c10 = (p[2] * q[0] - p[0] * q[2], p[2] * q[1] - p[1] * q[2],
                     p[1] * q[0] - p[0] * q[1])
    return c20 * c20 - c21 * c10


def poly3_to_binary_form(P, var_pair):
    """Read a Poly3 supported on two variables as a dense binary form.

    var_pair = (u, v) gives the variable indices; returns [c_0..c_d] with
    c_i the coefficient of u^i v^(d-i).
    """
    F = P.field
    u, v = var_pair
    d = P.degree
    out = [F.zero()] * (d + 1)
    for exp, c in P.terms.items():
        rest = [exp[k] for k in range(3) if k not in var_pair]
        if any(rest):
            raise GeometryError("form involves the eliminated variable")
        out[exp[u]] = c
    return out

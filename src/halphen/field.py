"""Exact coefficient fields for plane-curve computations.

Every field element here is exact; no floating point is used anywhere.
Supported fields:

 - Q(e), the rationals extended by a primitive cube root of unity e
   (e^2 + e + 1 = 0), each element (n0 + n1*e)/d stored as a reduced
   integer triple (n0, n1, d).
 - Q(e)(a), the rational function field in one indeterminate a over Q(e),
   each element a coprime fraction of two polynomials over Z[e] stored as
   (n0, n1) int pairs, each over one positive int denominator, with a
   monic denominator; gcds by the primitive remainder sequence over Z[e].
 - GF(p) for a prime p, each element its residue, and GF(p^k), each
   element the int code of a residue polynomial modulo an irreducible
   modulus, with products, inverses and sums read from exponent,
   logarithm and Zech logarithm tables built once per field.

Characteristic 3 is rejected; characteristic 2 is accepted (the binary
code is built over GF(16)), and what needs 1/2 refuses it itself.

Inner loops compute in each field's one form, `Field.packing`: the
elements (`Elements`), ints mod p over GF(p) (`Residues`), or ints
packed in g over GF(p^k) (`Packing`); no other module picks one.  Zero
tests on points and forms go through `Field.pack_vectors`, which over
Q(e) and Q(e)(a) is the integer form of `kronecker.py`: each vector
cleared of denominators, then a -> 2^K and e -> 2^L, exact because a
nonzero integer polynomial whose coefficients are all below 2^(K-1) in
absolute value does not vanish at 2^K, and K is set from a height bound.

Elements overload +, -, *, / and ==; integers coerce automatically, so
formulas can be written as plain Python expressions.

One map goes out of Q(e) and Q(e)(a): `specialize_scalar`, the ring
homomorphism e -> eps_image, a -> a_image, which reads a Q(e) element as
a constant of Q(e)(a).  `to_text` prints every element as canonical text
(e.g. ``(-1 - 1*e)*a^2``), with one printer for polynomials in a and in g,
and `parse_element` reads it back through the standard library's parser:
+ - * /, unary + and -, parentheses, decimal int literals, the field's
names e, a and g, and ^ with a decimal int exponent.  Anything else
raises FieldError.
"""

from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain
from math import gcd, lcm
from operator import attrgetter


class FieldError(Exception):
    pass


class MixedContextError(FieldError):
    """Raised when two elements of different fields are combined."""


class BadSpecializationError(FieldError):
    """Raised when a substitution hits a vanishing denominator."""


# ---------------------------------------------------------------------------
# field contexts


class Field:
    """Base class for field contexts.  One instance = one field."""

    characteristic = 0
    is_finite = False

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def coerce(self, x):
        """Coerce an int or element of this field; raise otherwise."""
        if isinstance(x, int):
            return self.from_int(x)
        if isinstance(x, FieldElem) and x.field is self:
            return x
        raise MixedContextError(f"cannot coerce {x!r} into {self}")

    def packing(self, degree):
        """The inner-loop form of sums of products of up to `degree` elements:
        `ELEMENTS` for Q(e) and Q(e)(a), one for every field and degree."""
        return ELEMENTS

    def pack_vectors(self, degree, vectors, terms):
        """(form, packed, scales): `vectors` packed for the zero tests of
        values that are sums, with int multipliers whose absolute values
        total at most `terms`, of products of at most `degree` of their
        entries.  Each vector stands for a projective object, a point's
        coordinates or a form's coefficients, so it is packed as a nonzero
        multiple of itself: `scales[i]` times vector i, or each vector itself
        where `scales` is None.  Over a finite field that is
        `packing(degree)` entry by entry; over Q(e) and Q(e)(a) it is the
        integer form `kronecker.Kronecker`, sized to these vectors, `terms`
        and `degree`, and each scale is a positive int or, where a
        denominator is a polynomial in a, an element."""
        if self.is_finite:
            form = self.packing(degree)
            return form, [list(map(form.pack, v)) for v in vectors], None
        from .kronecker import Kronecker  # which imports this module
        form = Kronecker(self, degree, vectors, terms)
        return form, form.vectors, form.scales


def _require_char_ok(p):
    if p == 3:
        raise FieldError("characteristic 3 is not supported")


def _is_prime(n):
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


class FieldElem:
    """The operations shared by the element classes below.

    Each subclass holds its `field` and defines `_coercible`, the types
    (its own among them) that its field's `coerce` accepts, along with
    `__add__`, `__sub__`, `__neg__`, `__mul__`, `inverse`, `__eq__` and
    `__hash__`.
    """

    __slots__ = ()

    def _check(self, other):
        """`other` as an element of this field, or NotImplemented.

        An element of a field that accepts this one gets NotImplemented,
        so Python defers to that field's reflected operation; an element
        of any other field, or of another field of the same kind, raises.
        """
        if isinstance(other, self._coercible):
            return self.field.coerce(other)
        if isinstance(other, FieldElem) and not isinstance(self, other._coercible):
            raise MixedContextError(f"cannot mix {self.field} with {other.field}")
        return NotImplemented

    def __rsub__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        return o - self

    def __truediv__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        return o * self.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.field.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __repr__(self):
        return to_text(self)


class Elements:
    """The inner-loop form of Q(e) and Q(e)(a): the elements themselves.

    Every form has these operations: `pack` maps an element to a value and
    `element` maps a value (a sum of products within the form's degree)
    back; `reduce`, `is_zero` and `inverse` (ZeroDivisionError on zero)
    act on values, and `canonical` scales a triple to first nonzero entry
    1, or gives None for (0, 0, 0).  Here those four go through `element`,
    so a form of packed elements needs only its own `pack` and `element`.
    The row operations of an elimination are one call each: `scaled(row,
    c)` is c * row, reduced, and `row_update(row, f, pivot)` is row - f *
    pivot for a reduced pivot row, reduced where the form needs it.
    """

    def pack(self, x):
        return x

    element = pack  # the identity both ways

    def reduce(self, v):
        return self.pack(self.element(v))

    def is_zero(self, v):
        return self.element(v).is_zero()

    def inverse(self, v):
        return self.pack(self.element(v).inverse())

    def canonical(self, v):
        # the entries up to the pivot are reduced to find it, and each
        # later one is reduced once and scaled as an element
        element, pack = self.element, self.pack
        for i, c in enumerate(v):
            pivot = element(c)
            if not pivot.is_zero():
                inv = pivot.inverse()
                return tuple([pack(element(c)) for c in v[:i]] + [pack(pivot * inv)]
                             + [pack(element(c) * inv) for c in v[i + 1:]])
        return None

    def scaled(self, row, c):
        reduce = self.reduce
        return [reduce(x * c) for x in row]

    def row_update(self, row, f, pivot):
        reduce = self.reduce
        return [reduce(x - f * y) for x, y in zip(row, pivot)]


ELEMENTS = Elements()


class QEpsField(Field):
    """The field Q(e) with e^2 + e + 1 = 0, elements (n0 + n1*e)/d."""

    characteristic = 0

    def coerce(self, x):
        if isinstance(x, Fraction):
            return self.from_fraction(x)
        return super().coerce(x)

    def from_int(self, n):
        return QEpsElem(self, n, 0)

    def from_fraction(self, q):
        q = Fraction(q)
        return QEpsElem(self, q.numerator, 0, q.denominator)

    def has_eps(self):
        return True

    def eps(self):
        return QEpsElem(self, 0, 1)

    def __repr__(self):
        return "Q(e)"


class QEpsElem(FieldElem):
    """The element (n0 + n1*e)/d of Q(e), stored as a reduced integer triple.

    The constructor keeps the triple canonical (d > 0 and
    gcd(n0, n1, d) == 1), so equal elements have equal triples and the
    arithmetic below is integer-only.  `c0` and `c1` give the coordinates
    on the basis {1, e} as Fractions, for printing.
    """

    __slots__ = ("field", "n0", "n1", "d")

    def __init__(self, field, n0, n1, d=1):
        if d != 1:
            if d <= 0:
                if d == 0:
                    raise ZeroDivisionError("zero denominator in Q(e)")
                n0, n1, d = -n0, -n1, -d
            g = gcd(n0, n1, d)
            if g != 1:
                n0, n1, d = n0 // g, n1 // g, d // g
        self.field = field
        self.n0 = n0
        self.n1 = n1
        self.d = d

    @property
    def c0(self):
        return Fraction(self.n0, self.d)

    @property
    def c1(self):
        return Fraction(self.n1, self.d)

    def is_zero(self):
        return self.n0 == 0 and self.n1 == 0

    def __add__(self, other):
        o = (other if isinstance(other, QEpsElem) and other.field is self.field
             else self._check(other))
        if o is NotImplemented:
            return o
        d, od = self.d, o.d
        if d == od:
            return QEpsElem(self.field, self.n0 + o.n0, self.n1 + o.n1, d)
        return QEpsElem(self.field, self.n0 * od + o.n0 * d,
                        self.n1 * od + o.n1 * d, d * od)

    __radd__ = __add__

    def __sub__(self, other):
        o = (other if isinstance(other, QEpsElem) and other.field is self.field
             else self._check(other))
        if o is NotImplemented:
            return o
        d, od = self.d, o.d
        if d == od:
            return QEpsElem(self.field, self.n0 - o.n0, self.n1 - o.n1, d)
        return QEpsElem(self.field, self.n0 * od - o.n0 * d,
                        self.n1 * od - o.n1 * d, d * od)

    def __neg__(self):
        return QEpsElem(self.field, -self.n0, -self.n1, self.d)

    def __mul__(self, other):
        o = (other if isinstance(other, QEpsElem) and other.field is self.field
             else self._check(other))
        if o is NotImplemented:
            return o
        # (a + b e)(c + f e) with e^2 = -1 - e
        a, b, c, f = self.n0, self.n1, o.n0, o.n1
        if b == 0 and f == 0:
            return QEpsElem(self.field, a * c, 0, self.d * o.d)
        bf = b * f
        return QEpsElem(self.field, a * c - bf, a * f + b * c - bf,
                        self.d * o.d)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(e)")
        a, b, d = self.n0, self.n1, self.d
        # d times the conjugate (a - b) - b e over the norm a^2 - ab + b^2 > 0
        return QEpsElem(self.field, d * (a - b), -d * b, a * a - a * b + b * b)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.n0 == other and self.n1 == 0 and self.d == 1
        if isinstance(other, Fraction):
            return (self.n0 == other.numerator and self.n1 == 0
                    and self.d == other.denominator)
        if not isinstance(other, QEpsElem):
            return NotImplemented
        return (self.n0 == other.n0 and self.n1 == other.n1
                and self.d == other.d)

    def __hash__(self):
        return _qe_hash(self.n0, self.n1, self.d)


QEpsElem._coercible = (int, Fraction, QEpsElem)


def _qe_hash(n0, n1, d):
    """The hash of (n0 + n1*e)/d in reduced form.

    A rational value hashes as the equal int or Fraction, so that the hash
    agrees with `==` across int, Fraction, Q(e) and Q(e)(a).
    """
    if n1 == 0:
        return hash(Fraction(n0, d))
    return hash((n0, n1, d))


# ---------------------------------------------------------------------------
# dense univariate polynomials over a field, as plain lists (low degree
# first, no trailing zeros, [] is the zero polynomial)


def pnormalize(coeffs):
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return coeffs


def pdeg(p):
    return len(p) - 1


def pmul(p, q, field):
    if not p or not q:
        return []
    out = [field.zero()] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a.is_zero():
            continue
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return pnormalize(out)


def pscale(p, c):
    if c.is_zero():
        return []
    return [a * c for a in p]


def pdivmod(p, q, field):
    """Polynomial division with remainder over a field."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quo = [field.zero() for _ in range(max(len(p) - len(q) + 1, 0))]
    inv_lead = q[-1].inverse()
    while len(rem) >= len(q):
        c = rem[-1] * inv_lead
        k = len(rem) - len(q)
        quo[k] = c
        for i, b in enumerate(q):
            rem[k + i] = rem[k + i] - c * b
        rem = pnormalize(rem)
        if not rem:
            break
    return pnormalize(quo), rem


def pgcd(p, q, field):
    """Monic gcd of two univariate polynomials."""
    a, b = list(p), list(q)
    while b:
        _, r = pdivmod(a, b, field)
        a, b = b, r
    if a:
        a = pscale(a, a[-1].inverse())
    return a


# ---------------------------------------------------------------------------
# Q(e)(a): rational functions in one variable over Q(e)
#
# Polynomials over Z[e] are tuples of (n0, n1) int pairs, n0 + n1*e, low
# degree first, with no trailing (0, 0); () is the zero polynomial.  Every
# quotient below is checked exact.

_ONE = ((1, 0),)


def _zstrip(out):
    """Drop the trailing zeros of a list of pairs, in place."""
    while out and out[-1] == (0, 0):
        out.pop()
    return out


def _zmul(p, q):
    """The product of two Z[e] polynomials."""
    if not p or not q:
        return ()
    out0 = [0] * (len(p) + len(q) - 1)
    out1 = out0[:]
    for i, (a, b) in enumerate(p):
        if a or b:
            for j, (c, f) in enumerate(q, i):
                bf = b * f
                out0[j] += a * c - bf
                out1[j] += a * f + b * c - bf
    return tuple(zip(out0, out1))  # Z[e] has no zero divisors


def _zscale(p, c0, c1=0):
    """p times the Z[e] scalar c0 + c1*e (nonzero)."""
    if c1 == 0:
        return tuple((a * c0, b * c0) for a, b in p)
    return tuple((a * c0 - b * c1, a * c1 + b * c0 - b * c1) for a, b in p)


def _zlin(p, s, q, t):
    """s*p + t*q for int scalars s and t."""
    if len(p) < len(q):
        p, s, q, t = q, t, p, s
    out = [(a * s + c * t, b * s + f * t) for (a, b), (c, f) in zip(p, q)]
    out.extend((a * s, b * s) for a, b in p[len(q):])
    return tuple(_zstrip(out))


def _content(p):
    """The gcd of all the ints of p."""
    return gcd(*chain.from_iterable(p))


def _divide_content(p, c):
    """p with each int divided by c, a common divisor of them all."""
    return p if c == 1 else tuple((a // c, b // c) for a, b in p)


def _zsub_shifted(rem, c0, c1, q, k):
    """rem[k + j] -= (c0 + c1*e) * q[j] for every j, in place."""
    for j, (a, b) in enumerate(q, k):
        bf = c1 * b
        r0, r1 = rem[j]
        rem[j] = (r0 - (c0 * a - bf), r1 - (c0 * b + c1 * a - bf))


def _zprem(p, q):
    """The pseudo-remainder of p by q: l^k * p mod q with l = lc(q)."""
    l0, l1 = q[-1]
    rem = list(p)
    while len(rem) >= len(q):
        # rem <- l*rem - c * a^k * q with c = lc(rem), whose lead cancels
        c0, c1 = rem.pop()
        rem = list(_zscale(rem, l0, l1))
        _zsub_shifted(rem, c0, c1, q[:-1], len(rem) + 1 - len(q))
        _zstrip(rem)
    return tuple(rem)


def _zgcd(p, q):
    """A gcd over Q(e) of two nonzero Z[e] polynomials, by the primitive
    polynomial remainder sequence: pseudo-remainders with their integer
    content removed."""
    if len(p) < len(q):
        p, q = q, p
    p = _divide_content(p, _content(p))
    q = _divide_content(q, _content(q))
    while len(q) > 1:
        r = _zprem(p, q)
        if not r:
            return q
        p, q = q, _divide_content(r, _content(r))
    return _ONE


def _zquo(p, q):
    """(s, quotient) with s * p == quotient * q, for a q with positive
    integer lead L that divides p over Q(e); s = L^(deg p - deg q + 1).
    A p of lower degree than q is divisible only if it is zero, and its
    quotient is then (1, ())."""
    L = q[-1][0]
    n = len(q)
    if len(p) < n:
        if any(a or b for a, b in p):
            raise FieldError("inexact polynomial division in Q(e)(a)")
        return 1, ()
    s = L ** (len(p) - n + 1)
    rem = [(a * s, b * s) for a, b in p]
    quo = [None] * (len(p) - n + 1)
    for k in range(len(quo) - 1, -1, -1):
        c0, c1 = rem.pop()
        if c0 % L or c1 % L:
            raise FieldError("inexact polynomial division in Q(e)(a)")
        c0, c1 = c0 // L, c1 // L
        quo[k] = (c0, c1)
        _zsub_shifted(rem, c0, c1, q[:-1], k)
    if any(a or b for a, b in rem):
        raise FieldError("inexact polynomial division in Q(e)(a)")
    return s, tuple(quo)


def _lead_conjugate(p):
    """A Z[e] scalar c with lc(p)*c a positive int: the conjugate of
    lc(p) = l0 + l1*e, so that lc(p)*c = l0^2 - l0*l1 + l1^2, or the sign of
    an integer lead."""
    l0, l1 = p[-1]
    if l1:
        return l0 - l1, -l1
    return (1 if l0 > 0 else -1), 0


def _reduced(field, num, nd, den=_ONE, dd=1):
    """The element (num/nd) / (den/dd) for a canonical den/dd coprime to
    num: only the integer content of num and nd is left to reduce."""
    if not num:
        return field._zero
    if nd != 1:
        c = gcd(nd, *chain.from_iterable(num))
        if c != 1:
            num, nd = _divide_content(num, c), nd // c
    return RatFuncElem(field, num, nd, den, dd)


def _fraction(field, p, q, coprime=False):
    """The element p/q for Z[e] polynomials p and q != (), in canonical form.

    Unless `coprime`, the gcd of p and q over Q(e) is divided out first;
    then q is made monic: both parts are multiplied by the conjugate of
    lc(q), and q's lead, now the norm, goes into the int denominators.
    """
    if not p:
        return field._zero
    if not coprime and len(q) > 1 and len(p) > 1:
        g = _zgcd(p, q)
        if len(g) > 1:
            g = _zscale(g, *_lead_conjugate(g))
            g = _divide_content(g, _content(g))
            sp, p = _zquo(p, g)
            sq, q = _zquo(q, g)
            # p/q = (p' / sp) / (q' / sq), and sp, sq are powers of one L
            if sp > sq:
                q = _zscale(q, sp // sq)
            elif sq > sp:
                p = _zscale(p, sq // sp)
    c = _lead_conjugate(q)
    if c != (1, 0):
        p, q = _zscale(p, *c), _zscale(q, *c)
    cq = _content(q)
    q = _divide_content(q, cq)
    dd = q[-1][0]
    # p/q = (p / (cq*dd)) / (q/dd) with q/dd monic
    return _reduced(field, p, cq * dd, q, dd)


def _zpoly(coeffs):
    """(pairs, L) with coeffs == pairs / L, for a list of Q(e) elements."""
    L = lcm(*(c.d for c in coeffs))
    return tuple(_zstrip([(c.n0 * (L // c.d), c.n1 * (L // c.d)) for c in coeffs])), L


class RatFuncField(Field):
    """The rational function field Q(e)(a)."""

    characteristic = 0

    def __init__(self):
        self._base = QQ_EPS
        self._zero = RatFuncElem(self, (), 1, _ONE, 1)

    def coerce(self, x):
        if isinstance(x, (Fraction, QEpsElem)):
            return self.from_base(self._base.coerce(x))
        return super().coerce(x)

    def from_int(self, n):
        if n == 0:
            return self._zero
        return RatFuncElem(self, ((n, 0),), 1, _ONE, 1)

    def from_base(self, c):
        c = self._base.coerce(c)
        if c.is_zero():
            return self._zero
        return RatFuncElem(self, ((c.n0, c.n1),), c.d, _ONE, 1)

    def from_coeffs(self, num, den=None):
        num, ln = _zpoly([self._base.coerce(c) for c in num])
        if den is None:
            return _reduced(self, num, ln)
        den, ld = _zpoly([self._base.coerce(c) for c in den])
        if not den:
            raise ZeroDivisionError("zero denominator in Q(e)(a)")
        # (num/ln) / (den/ld)
        return _fraction(self, _zscale(num, ld), _zscale(den, ln))

    def gen(self):
        """The indeterminate a."""
        return RatFuncElem(self, ((0, 0), (1, 0)), 1, _ONE, 1)

    def has_eps(self):
        return True

    def eps(self):
        return self.from_base(self._base.eps())

    def __repr__(self):
        return "Q(e)(a)"


class RatFuncElem(FieldElem):
    """The element (num/nd) / (den/dd) of Q(e)(a), stored as plain integers.

    `num` and `den` are polynomials in a over Z[e]: tuples of (n0, n1) int
    pairs, n0 + n1*e, low degree first, without trailing (0, 0).  `nd` and
    `dd` are positive ints.  The form is canonical, so equal elements have
    equal parts:

     - the gcd of all the ints of each part (nd with num, dd with den) is 1;
     - the denominator is monic: its leading pair is (dd, 0);
     - num and den are coprime over Q(e);
     - zero is num == () over den == ((1, 0),).

    A polynomial has den == ((1, 0),) and dd == 1.  The constructor stores
    its arguments as given; `_fraction` and `_reduced` bring a quotient
    into this form.
    """

    __slots__ = ("field", "num", "nd", "den", "dd")

    def __init__(self, field, num, nd, den, dd):
        self.field = field
        self.num = num
        self.nd = nd
        self.den = den
        self.dd = dd

    def is_zero(self):
        return not self.num

    def is_polynomial(self):
        return len(self.den) == 1

    def __add__(self, other):
        o = (other if isinstance(other, RatFuncElem) and other.field is self.field
             else self._check(other))
        if o is NotImplemented or not self.num:
            return o  # a sum from zero, as `sum` starts, costs nothing
        n1, n2 = self.nd, o.nd
        g = gcd(n1, n2)
        s, t = n2 // g, n1 // g  # num/n1 + onum/n2 = (s*num + t*onum)/lcm
        if len(self.den) == 1 and len(o.den) == 1:
            return _reduced(self.field, _zlin(self.num, s, o.num, t), n1 * s)
        if self.den == o.den:
            # (num/n1 + onum/n2) / (den/dd)
            return _fraction(self.field, _zscale(_zlin(self.num, s, o.num, t), self.dd),
                             _zscale(self.den, n1 * s))
        # num*dd/(n1*den) + onum*odd/(n2*oden); a polynomial plus a
        # reduced fraction is reduced
        p = _zlin(_zmul(self.num, o.den), s * self.dd, _zmul(o.num, self.den), t * o.dd)
        return _fraction(self.field, p, _zscale(_zmul(self.den, o.den), n1 * s),
                         coprime=len(self.den) == 1 or len(o.den) == 1)

    __radd__ = __add__

    def __neg__(self):
        return RatFuncElem(self.field, tuple((-a, -b) for a, b in self.num),
                           self.nd, self.den, self.dd)

    def __sub__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __mul__(self, other):
        o = (other if isinstance(other, RatFuncElem) and other.field is self.field
             else self._check(other))
        if o is NotImplemented:
            return o
        if not self.num or not o.num:
            return self.field._zero
        for x, c in ((self, o), (o, self)):
            if len(c.num) == 1 and len(c.den) == 1:
                # a nonzero constant c keeps num and den coprime
                (c0, c1), = c.num
                return _reduced(x.field, _zscale(x.num, c0, c1), x.nd * c.nd, x.den, x.dd)
        num = _zmul(self.num, o.num)
        nd = self.nd * o.nd
        if len(self.den) == 1 and len(o.den) == 1:
            return _reduced(self.field, num, nd)
        # (num/nd) / (den*oden/(dd*odd))
        return _fraction(self.field, _zscale(num, self.dd * o.dd),
                         _zscale(_zmul(self.den, o.den), nd))

    __rmul__ = __mul__

    def inverse(self):
        if not self.num:
            raise ZeroDivisionError("inverse of zero in Q(e)(a)")
        # (den/dd) / (num/nd)
        return _fraction(self.field, _zscale(self.den, self.nd),
                         _zscale(self.num, self.dd), coprime=True)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, QEpsElem)):
            other = self.field.coerce(other)
        if not isinstance(other, RatFuncElem):
            return NotImplemented
        return (self.num == other.num and self.nd == other.nd
                and self.den == other.den)

    def __hash__(self):
        if len(self.num) <= 1 and len(self.den) == 1:
            # a constant: hash it as the equal element of Q(e)
            (n0, n1), = self.num or ((0, 0),)
            return _qe_hash(n0, n1, self.nd)
        return hash((self.num, self.nd, self.den))


RatFuncElem._coercible = (int, Fraction, QEpsElem, RatFuncElem)


# ---------------------------------------------------------------------------
# GF(p)


class PrimeField(Field):
    is_finite = True

    def __init__(self, p):
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        _require_char_ok(p)
        self.p = p
        self.characteristic = p
        self.size = p
        self._eps_cache = None
        self._residues = Residues(self)

    def from_int(self, n):
        return GFpElem(self, n % self.p)

    def has_eps(self):
        return self.p % 3 == 1

    def eps(self):
        if self._eps_cache is None:
            if not self.has_eps():
                raise FieldError(f"GF({self.p}) has no primitive cube root of unity")
            for v in range(2, self.p):
                if pow(v, 3, self.p) == 1:
                    self._eps_cache = GFpElem(self, v)
                    break
        return self._eps_cache

    def elements(self):
        for v in range(self.p):
            yield GFpElem(self, v)

    def packing(self, degree):
        """`Residues`, the inner-loop form of GF(p), one for every degree."""
        return self._residues

    def __repr__(self):
        return f"GF({self.p})"


class GFpElem(FieldElem):
    """The residue v mod p.

    An element equals every int congruent to it mod p, so its hash cannot
    agree with the hashes of all the ints it equals: do not mix ints and
    GF(p) elements as keys of one dict or set.  The same holds for GF(p^k).
    """

    __slots__ = ("field", "v")

    def __init__(self, field, v):
        self.field = field
        self.v = v % field.p

    def is_zero(self):
        return self.v == 0

    def __add__(self, other):
        o = (other if isinstance(other, GFpElem) and other.field is self.field
             else self._check(other))
        if o is NotImplemented:
            return o
        return GFpElem(self.field, self.v + o.v)

    __radd__ = __add__

    def __sub__(self, other):
        o = (other if isinstance(other, GFpElem) and other.field is self.field
             else self._check(other))
        if o is NotImplemented:
            return o
        return GFpElem(self.field, self.v - o.v)

    def __neg__(self):
        return GFpElem(self.field, -self.v)

    def __mul__(self, other):
        o = (other if isinstance(other, GFpElem) and other.field is self.field
             else self._check(other))
        if o is NotImplemented:
            return o
        return GFpElem(self.field, self.v * o.v)

    __rmul__ = __mul__

    def inverse(self):
        if self.v == 0:
            raise ZeroDivisionError(f"inverse of zero in {self.field}")
        return GFpElem(self.field, pow(self.v, self.field.p - 2, self.field.p))

    def __eq__(self, other):
        if isinstance(other, int):
            return self.v == other % self.field.p
        if not isinstance(other, GFpElem):
            return NotImplemented
        if self.field is not other.field:
            return False
        return self.v == other.v

    def __hash__(self):
        return hash((self.field.p, self.v))


GFpElem._coercible = (int, GFpElem)


class Residues(Elements):
    """GF(p) as ints, each standing for its residue mod p, with int
    operations (see `Elements`); `pack`, `element` and `reduce` are bound
    to C callables, which inner loops call without a Python frame, and a
    row operation is one comprehension over the row, with no Python call
    per entry."""

    def __init__(self, field):
        self.field, self.p = field, field.p
        self.pack, self.element = attrgetter("v"), partial(GFpElem, field)
        self.reduce = field.p.__rmod__  # v % p

    def is_zero(self, v):
        return v % self.p == 0

    def inverse(self, v):
        try:
            return pow(v, -1, self.p)
        except ValueError:  # v is 0 mod p
            raise ZeroDivisionError(f"inverse of zero in {self.field}") from None

    def canonical(self, v):
        p = self.p
        for pivot in v:
            if pivot % p:
                inv = pow(pivot, -1, p)
                return tuple([c * inv % p for c in v])
        return None

    def scaled(self, row, c):
        p = self.p
        return [x * c % p for x in row]

    def row_update(self, row, f, pivot):
        # row + (-f mod p) * pivot: with the pivot row reduced, an entry
        # grows by less than p^2 per update and stays nonnegative
        g = -f % self.p
        return [x + g * y for x, y in zip(row, pivot)]


# ---------------------------------------------------------------------------
# GF(p^k)


def _gfp_poly_mulmod(u, w, modulus, p):
    out = [0] * (len(u) + len(w) - 1)
    for i, x in enumerate(u):
        if x:
            for j, y in enumerate(w):
                out[i + j] = (out[i + j] + x * y) % p
    # reduce modulo the monic modulus
    k = len(modulus) - 1
    for i in range(len(out) - 1, k - 1, -1):
        c = out[i]
        if c:
            for j in range(k + 1):
                out[i - k + j] = (out[i - k + j] - c * modulus[j]) % p
    out = out[:k]
    while len(out) < k:
        out.append(0)
    return out


def _digits(code, p, k):
    """The k base-p digits of code, lowest first."""
    out = []
    for _ in range(k):
        code, c = divmod(code, p)
        out.append(c)
    return out


def _gfp_poly_is_irreducible(poly, p):
    """Irreducibility over GF(p) by scanning monic divisors (small degrees)."""
    d = len(poly) - 1
    if d < 1:
        return False
    for ddeg in range(1, d // 2 + 1):
        for code in range(p ** ddeg):
            # poly mod the monic divisor, as poly * 1 reduced by it
            if not any(_gfp_poly_mulmod(poly, [1], _digits(code, p, ddeg) + [1], p)):
                return False
    return True


def find_irreducible(p, k):
    """First monic irreducible polynomial of degree k over GF(p), by code order."""
    _require_char_ok(p)
    for code in range(p ** k):
        coeffs = _digits(code, p, k) + [1]
        if _gfp_poly_is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise FieldError("no irreducible polynomial found")  # unreachable


def prime_divisors(m):
    """The distinct primes dividing m, ascending."""
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


class PrimeExtField(Field):
    """GF(p^k) = GF(p)[g]/(modulus), each element an int code below q = p^k;
    the modulus is `find_irreducible(p, k)`.

    c_0 + c_1 g + ... has the code c_0 + c_1 p + ..., so code order is the
    order of `elements()`.  With n = q - 1 and h the primitive element of
    least code, the constructor builds in O(q) (Lidl and Niederreiter,
    *Finite Fields*, ch. 9): `exp[i]` = h^i for i < 2n, then n zeros;
    `log[c]`, with 2n as the logarithm of 0; `zech[i]` = log(1 + h^i),
    stored twice so that any index in (-2n, 2n) works; `log_minus_one`.
    """

    is_finite = True

    def __init__(self, p, k):
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        if k < 2:
            raise FieldError("an extension degree k >= 2 is required")
        self.p = p
        self.characteristic = p
        self.modulus = find_irreducible(p, k)
        self.k = k
        self.size = p ** k
        self._build_tables()

    def _code(self, coeffs):
        """The code of residue coefficients c_0, c_1, ... (each below p)."""
        code = 0
        for c in reversed(coeffs):
            code = code * self.p + c
        return code

    def _build_tables(self):
        p, k, n = self.p, self.k, self.size - 1
        one = _digits(1, p, k)

        def mul(u, w):
            return _gfp_poly_mulmod(u, w, self.modulus, p)

        def power(u, e):
            out = one
            while e:
                if e & 1:
                    out = mul(out, u)
                u = mul(u, u)
                e >>= 1
            return out

        # h is primitive iff h^(n/r) != 1 for every prime r dividing n
        cofactors = [n // r for r in prime_divisors(n)]
        h = next(u for u in (_digits(c, p, k) for c in range(2, n + 1))
                 if all(power(u, e) != one for e in cofactors))
        exp = [0] * (3 * n)
        log = [2 * n] * (n + 1)
        x = one
        for i in range(n):
            c = self._code(x)
            exp[i] = exp[i + n] = c
            log[c] = i
            x = mul(x, h)
        # 1 + h^i adds 1 to the lowest digit of the code of h^i
        zech = [log[c + 1 if c % p != p - 1 else c + 1 - p] for c in exp[:n]]
        self.exp, self.log, self.zech = exp, log, zech + zech
        self.log_minus_one = log[p - 1]  # -1 has the code p - 1

    def from_int(self, n):
        return GFpkElem(self, n % self.p)

    def from_coeffs(self, coeffs):
        coeffs = [c % self.p for c in coeffs]
        if len(coeffs) > self.k:
            raise FieldError("residue degree too large")
        return GFpkElem(self, self._code(coeffs))

    def gen(self):
        return self.from_coeffs([0, 1])

    def has_eps(self):
        return self.size % 3 == 1

    def eps(self):
        """The primitive cube root of unity of least code: h^(n/3) or h^(2n/3)."""
        if not self.has_eps():
            raise FieldError(f"{self} has no primitive cube root of unity")
        n = self.size - 1
        return GFpkElem(self, min(self.exp[n // 3], self.exp[2 * n // 3]))

    def elements(self):
        for code in range(self.size):
            yield GFpkElem(self, code)

    @lru_cache(maxsize=None)
    def packing(self, degree):
        """The `Packing` of products of up to `degree` elements, built once."""
        return Packing(self, degree)

    def __repr__(self):
        return f"GF({self.p}^{self.k})"


class GFpkElem(FieldElem):
    """An element of GF(p^k) as its int code; see `PrimeExtField`.

    a*b is exp[la + lb] and a + b = h^la (1 + h^(lb - la)) is
    exp[la + zech[lb - la]], with la = log a and lb = log b.
    """

    __slots__ = ("field", "code")

    def __init__(self, field, code):
        self.field = field
        self.code = code

    @property
    def coeffs(self):
        """The residue coefficients (c_0, ..., c_(k-1)), lowest first."""
        field = self.field
        return tuple(_digits(self.code, field.p, field.k))

    def is_zero(self):
        return self.code == 0

    def __add__(self, other):
        o = (other if isinstance(other, GFpkElem) and other.field is self.field
             else self._check(other))
        if o is NotImplemented:
            return o
        a, b = self.code, o.code
        if not a:
            return o
        if not b:
            return self
        field = self.field
        la = field.log[a]
        return GFpkElem(field, field.exp[la + field.zech[field.log[b] - la]])

    __radd__ = __add__

    def __sub__(self, other):
        o = (other if isinstance(other, GFpkElem) and other.field is self.field
             else self._check(other))
        if o is NotImplemented:
            return o
        a, b = self.code, o.code
        if not b:
            return self
        field = self.field
        lb = field.log[b] + field.log_minus_one  # a logarithm of -b, below 2n
        if not a:
            return GFpkElem(field, field.exp[lb])
        la = field.log[a]
        return GFpkElem(field, field.exp[la + field.zech[lb - la]])

    def __neg__(self):
        if not self.code:
            return self
        field = self.field
        return GFpkElem(field, field.exp[field.log[self.code] + field.log_minus_one])

    def __mul__(self, other):
        o = (other if isinstance(other, GFpkElem) and other.field is self.field
             else self._check(other))
        if o is NotImplemented:
            return o
        a, b = self.code, o.code
        field = self.field
        if not (a and b):
            return GFpkElem(field, 0)
        return GFpkElem(field, field.exp[field.log[a] + field.log[b]])

    __rmul__ = __mul__

    def inverse(self):
        if not self.code:
            raise ZeroDivisionError(f"inverse of zero in {self.field}")
        field = self.field
        return GFpkElem(field, field.exp[field.size - 1 - field.log[self.code]])

    def __eq__(self, other):
        if isinstance(other, int):
            return self.code == other % self.field.p
        if not isinstance(other, GFpkElem):
            return NotImplemented
        if self.field is not other.field:
            return False
        return self.code == other.code

    def __hash__(self):
        return hash((self.field.p, self.code))


GFpkElem._coercible = (int, GFpkElem)


class Packing(Elements):
    """GF(p^k)'s inner-loop form: elements as polynomials in g, each
    packed into one int.

    c_0 + c_1 g + ... is sum c_i 2^(w i), so +, - and * are polynomial
    operations.  A sum of at most 3^D products of D = `degree` reduced
    elements has degree <= D (k - 1) in g and coefficients below
    (3k(p - 1))^D in absolute value, which w bits and a sign hold.
    `element` and `is_zero` read the code of the element a value stands
    for (mod p and the modulus); the other operations on values go
    through `element` (see `Elements`).
    """

    def __init__(self, field, degree):
        p, k, lanes = field.p, field.k, degree * (field.k - 1) + 1
        w = self.w = ((3 * k * (p - 1)) ** degree).bit_length() + 1
        b = (lanes * (p - 1) ** 2).bit_length()  # holds `lanes` products
        self.field, self.p, self.half, self.bmask = field, p, 1 << (w - 1), (1 << b) - 1
        self.mask, self.offset = (1 << w) - 1, sum(self.half << (w * i) for i in range(lanes))
        self.packed = [sum(c << (w * i) for i, c in enumerate(_digits(code, p, k)))
                       for code in range(field.size)]  # code -> packed int
        self.rows = [sum(c << (b * i) for i, c in enumerate(_gfp_poly_mulmod(
            [0] * j + [1], [1], field.modulus, p))) for j in range(lanes)]  # g^j
        self.digits = [(b * i, p**i) for i in range(k)]  # shift, place value

    def pack(self, x):
        return self.packed[x.code]

    def _code(self, v):
        """The code of the element v stands for; v must fit the lanes."""
        p, w, half, mask = self.p, self.w, self.half, self.mask
        v += self.offset  # lane i holds c_i + half
        total = 0
        for row in self.rows:  # the sum of (c_i mod p) g^i, residues in b-bit lanes
            total += ((v & mask) - half) % p * row
            v >>= w
        assert v == 0, "a packed value outgrew its lanes"
        code, bmask = 0, self.bmask
        for shift, unit in self.digits:
            code += (total >> shift & bmask) % p * unit
        return code

    def element(self, v):
        return GFpkElem(self.field, self._code(v))

    def is_zero(self, v):
        return not self._code(v)


# shared context instances; Q(e) and Q(e)(a) are canonical singletons
QQ_EPS = QEpsField()
QQ_EPS_A = RatFuncField()

_prime_field_cache = {}


def GF(p):
    if p not in _prime_field_cache:
        _prime_field_cache[p] = PrimeField(p)
    return _prime_field_cache[p]


_ext_field_cache = {}


def GFext(p, k):
    if (p, k) not in _ext_field_cache:
        _ext_field_cache[p, k] = PrimeExtField(p, k)
    return _ext_field_cache[p, k]


# ---------------------------------------------------------------------------
# specialization: ring homomorphisms into concrete fields


def specialize_scalar(x, target, eps_image=None, a_image=None):
    """Map a Q(e) or Q(e)(a) element into `target` via e -> eps_image, a -> a_image.

    The map is a ring homomorphism wherever it is defined; a vanishing
    denominator raises BadSpecializationError naming the culprit.
    """
    if isinstance(x, int):
        return target.from_int(x)
    if isinstance(x, QEpsElem):  # the Q(e)(a) constant ((n0, n1),) over d
        num, nd, den, dd = ((x.n0, x.n1),), x.d, _ONE, 1
    elif isinstance(x, RatFuncElem):
        num, nd, den, dd = x.num, x.nd, x.den, x.dd
    elif isinstance(x, FieldElem) and x.field is target:
        return x
    else:
        raise MixedContextError(f"cannot specialize {x!r}")
    if a_image is None and len(num) < 2 and len(den) < 2:
        a_image = target.zero()  # constant: the image of a is irrelevant
    if a_image is None:
        raise BadSpecializationError("an a image is required")
    if any(b for _, b in num + den):
        if eps_image is None:
            raise BadSpecializationError("an eps image is required")
        _check_eps_image(eps_image, target)
    for d in (nd, dd):
        if target.from_int(d).is_zero():
            raise BadSpecializationError(f"denominator {d} vanishes in {target}")
    top = _eval_zeps_poly(num, target, eps_image, a_image)
    if len(den) == 1:  # a polynomial: den/dd is 1
        return top if nd == 1 else top / target.from_int(nd)
    bottom = _eval_zeps_poly(den, target, eps_image, a_image)
    if bottom.is_zero():
        raise BadSpecializationError(
            f"denominator {to_text(x)} vanishes at the chosen a")
    # (num/nd) / (den/dd) = (num * dd) / (den * nd)
    return top * target.from_int(dd) / (bottom * target.from_int(nd))


def _check_eps_image(eps_image, target):
    one = target.one()
    if eps_image == one or not (eps_image * eps_image * eps_image == one):
        raise BadSpecializationError(
            "eps image must be a primitive cube root of unity")


def _eval_zeps_poly(coeffs, target, eps_image, a_image):
    """A Z[e] polynomial at a = a_image, e = eps_image in `target`, by Horner
    from the leading coefficient."""
    acc = None
    for n0, n1 in reversed(coeffs):
        c = target.from_int(n0)
        if n1:
            c = c + target.from_int(n1) * eps_image
        acc = c if acc is None else acc * a_image + c
    return target.zero() if acc is None else acc


# ---------------------------------------------------------------------------
# canonical text form and parsing


def _qeps_str(x):
    """The canonical text of a Q(e) element: c0, c1*e or c0 + c1*e, with
    `- |c1|*e` for a negative c1 after a nonzero c0."""
    c0, c1 = x.c0, x.c1
    if c1 == 0:
        return str(c0)
    if c0 == 0:
        return f"{c1}*e"
    return f"{c0} - {-c1}*e" if c1 < 0 else f"{c0} + {c1}*e"


def term_text(coef, mono):
    """The canonical text of a coefficient's text times a monomial's: the
    monomial alone for "1", else the coefficient heads it, in parentheses
    when it holds a sign, a slash, a product or a space."""
    if coef == "1":
        return mono
    return f"({coef})*{mono}" if any(ch in coef for ch in "+-*/ ") else f"{coef}*{mono}"


def _poly_str(coeffs, var, text):
    """The canonical text of sum coeffs[k] var^k, highest degree first;
    `text` prints one coefficient, and `term_text` joins it to its power."""
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        s = text(coeffs[k])
        if s == "0":
            continue
        if k:
            s = term_text(s, var if k == 1 else f"{var}^{k}")
        terms.append(s)
    return " + ".join(terms).replace("+ -", "- ") if terms else "0"


def to_text(x):
    """Canonical text form of a field element."""
    if isinstance(x, QEpsElem):
        return _qeps_str(x)
    if isinstance(x, RatFuncElem):
        num = _poly_str([QEpsElem(QQ_EPS, a, b, x.nd) for a, b in x.num], "a", _qeps_str)
        if x.is_polynomial():
            return num
        den = _poly_str([QEpsElem(QQ_EPS, a, b, x.dd) for a, b in x.den], "a", _qeps_str)
        return f"({num})/({den})"
    if isinstance(x, GFpElem):
        return str(x.v)
    if isinstance(x, GFpkElem):
        return _poly_str(x.coeffs, "g", str)
    raise FieldError(f"cannot serialize {x!r}")


def parse_expression(text, env, one):
    """Evaluate canonical text in whatever algebra `env` maps names to.

    The grammar is Python's infix arithmetic with ^ for powers: + - * /,
    unary + and -, parentheses, decimal int literals (times `one`, the
    unit of the algebra), the names in `env`, and powers whose exponent is
    a decimal int literal.  Anything else, and text nested too deeply for
    Python's parser, raises FieldError.
    """
    import ast  # only parsing needs it, and no run parses
    from operator import add, mul, neg, sub, truediv

    if not text.isascii() or "**" in text or "_" in text:
        raise FieldError(f"not canonical text: {text!r}")
    src = " ".join(text.split()).replace("^", "**")  # one line: offsets are columns
    ops = {ast.Add: add, ast.Sub: sub, ast.Mult: mul, ast.Div: truediv,
           ast.USub: neg, ast.UAdd: lambda x: x}

    def value(node):
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                and isinstance(node.right, ast.Constant)):
            base, out = value(node.left), one
            for _ in range(node.right.value):
                out = out * base
            return out
        if isinstance(node, ast.BinOp) and type(node.op) in ops:
            return ops[type(node.op)](value(node.left), value(node.right))
        if isinstance(node, ast.UnaryOp) and type(node.op) in ops:
            return ops[type(node.op)](value(node.operand))
        if isinstance(node, ast.Constant):
            return node.value * one
        if isinstance(node, ast.Name) and node.id in env:
            return env[node.id]
        raise FieldError(f"not canonical text: {src[node.col_offset:node.end_col_offset]!r}"
                         f" in {text!r}")

    try:
        tree = ast.parse(src, mode="eval").body
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant):  # not 1.5, 1e5, 0x10 or "1"
                literal = src[node.col_offset:node.end_col_offset]
                if not literal.isdigit():
                    raise FieldError(f"not a decimal int literal: {literal!r} in {text!r}")
        return value(tree)
    except (SyntaxError, RecursionError):
        raise FieldError(f"not canonical text: {text!r}") from None


def parse_element(text, field):
    """Parse the canonical text form of a scalar over `field`."""
    env = {}
    if field.has_eps():
        env["e"] = field.eps()
    if isinstance(field, RatFuncField):
        env["a"] = field.gen()
    if isinstance(field, PrimeExtField):
        env["g"] = field.gen()
    return parse_expression(text, env, field.one())

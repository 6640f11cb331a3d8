"""The integer form of Q(e) and Q(e)(a), in which `Field.pack_vectors`
decides zero tests on points and forms: each vector cleared of
denominators, then a -> 2^K and e -> 2^L, every value one Python int.

It rests on one lemma: a nonzero integer polynomial whose coefficients are
all below 2^(K-1) in absolute value does not vanish at 2^K.  K is one bit
above twice a height bound computed from the vectors' l1 norms and the
number of terms and degree of the values tested (`Kronecker`), so every
test is exact.  `_cleared` also clears the rows of `linalg`'s fraction-free
kernel.
"""

from functools import reduce
from itertools import zip_longest
from math import lcm

from .field import _ONE, QEpsElem, QEpsField, _reduced, _zmul, _zscale


def _cleared(vector):
    """(polys, n, dens): the entries of a vector over Q(e) or Q(e)(a) times
    n * prod(dens), a nonzero common multiple of their denominators, as
    Z[e][a] polynomials; n is the lcm of the int parts and `dens` holds the
    distinct polynomial parts."""
    parts = [(((x.n0, x.n1),) if x.n0 or x.n1 else (), x.d, _ONE, 1)
             if isinstance(x, QEpsElem) else (x.num, x.nd, x.den, x.dd) for x in vector]
    n = lcm(*(nd for num, nd, _, _ in parts if num))
    dens = list(dict.fromkeys(den for num, _, den, _ in parts if num and len(den) > 1))
    polys = []
    for num, nd, den, dd in parts:
        # x = (num * dd) / (nd * den)
        m = dd * (n // nd)
        p = num if m == 1 else _zscale(num, m)
        for q in dens:
            if q != den:
                p = _zmul(p, q)
        polys.append(p)
    return polys, n, dens


def _balanced_digits(n, k):
    """The digits of n in base 2^k, each in [-2^(k-1), 2^(k-1)), lowest first."""
    out, half, mask = [], 1 << (k - 1), (1 << k) - 1
    while n:
        d = ((n + half) & mask) - half
        out.append(d)
        n = (n - d) >> k
    return out


class Kronecker:
    """The integer form of Q(e) and Q(e)(a), for zero tests (`Field.pack_vectors`).

    Each vector stands for a projective object, so it is cleared of its
    denominators (`_cleared`), a rescaling by `scales[i]` that keeps every
    zero.  Each entry, then a polynomial in a over Z[e], is sent to one int
    by a -> 2^K and e -> 2^L, so sums and products of values are sums and
    products of ints, with no object per operation.  As e^2 + e + 1 = 0,
    this is a ring map into the ints mod N = 2^(2L) + 2^L + 1, and a value
    v stands for t_0 + t_1 e, with t_0, t_1 in Z[a], iff v = t_0(2^K) +
    t_1(2^K) 2^L mod N.

    The lemma: a nonzero integer polynomial whose coefficients are all below
    2^(k-1) in absolute value does not vanish at 2^k (its leading term
    outweighs the rest), and its balanced base-2^k digits are its
    coefficients.

    The bound: let h >= 1 be the largest l1 norm (the sum of the absolute
    values of its ints) of a cleared entry and A their largest a-degree.
    A value is a sum of products of at most `degree` entries with int
    multipliers whose absolute values total at most `terms`, so with e
    left formal it is a polynomial in e and a of l1 norm at most
    H = terms * h^degree and of a-degree at most degree * A, and t_0, t_1,
    sums and differences of its coefficients of e^j, have coefficients of
    at most 2H.  K is one bit above 2H, and L = K (degree * A + 1) + 1.

    The test: by the lemma, t_i = 0 iff t_i(2^K) = 0, and |t_i(2^K)| is
    below 2^(L-1), so by the lemma again both vanish iff t_0(2^K) +
    t_1(2^K) 2^L does.  That int lies below N/2 in absolute value, so it
    is the balanced remainder of v mod N: `is_zero` is one remainder, and
    `element` reads t_0 and t_1 off its balanced digits.
    """

    def __init__(self, field, degree, vectors, terms):
        cleared = [_cleared(v) for v in vectors]
        polys = [p for ps, _, _ in cleared for p in ps]
        h = max([sum(abs(a) + abs(b) for a, b in p) for p in polys] + [1])
        top = max([len(p) - 1 for p in polys] + [0])
        K = (2 * terms * h ** degree).bit_length() + 1
        L = K * (degree * top + 1) + 1
        self.field, self.K, self.L = field, K, L
        self.modulus = (1 << 2 * L) + (1 << L) + 1

        def packed(p):  # p at a = 2^K, e = 2^L
            x0 = x1 = 0
            for a, b in reversed(p):
                x0, x1 = (x0 << K) + a, (x1 << K) + b
            return x0 + (x1 << L)

        self.vectors = [list(map(packed, ps)) for ps, _, _ in cleared]
        self.scales = [_reduced(field, reduce(_zmul, dens, ((n, 0),)), 1) if dens else n
                       for _, n, dens in cleared]

    def is_zero(self, v):
        return v % self.modulus == 0

    def element(self, v, scale=1):
        """The element v stands for, divided by `scale`, a positive int or an
        element: the product of the scales of its factors gives the value."""
        w = v % self.modulus
        if w > self.modulus >> 1:
            w -= self.modulus
        t0, t1 = (_balanced_digits(w, self.L) + [0, 0])[:2]
        d = scale if isinstance(scale, int) else 1
        if isinstance(self.field, QEpsField):
            x = QEpsElem(self.field, t0, t1, d)
        else:
            c0, c1 = _balanced_digits(t0, self.K), _balanced_digits(t1, self.K)
            x = _reduced(self.field, tuple(zip_longest(c0, c1, fillvalue=0)), d)
        return x if isinstance(scale, int) else x / scale

"""The rank-10 lattice Z e_0 + ... + Z e_9 with e_0^2 = 1, e_i^2 = -1.

Classes are plain 10-tuples of integers in the basis (e_0, ..., e_9); the
convention d*e_0 - sum m_i e_i corresponds to the raw tuple
(d, -m_1, ..., -m_9).  The module holds the two reference matrices of
(-2)-classes (index 2 and index 3), enumerates the (-1)-classes by two
independent methods, and builds the group actions, coset structures,
pairings and orthogonal nine-sets on them; it returns the counts it
finds, and the ledger compares them with `published.PAPER`.

The lattice algebra is on integers only, one construction per object:
the translates E_i - sum_{j in I} R_j + |I| F_0 (`_translates`, read by
the generative enumeration and the tropical space), the translation group
as the nine products g_1^a g_2^b, and the deck involution at e_1 by
intersection numbers.  Many intersection numbers at once are lanes of one
int (`_packed`): the brute-force bounds and the Gram rows of the cliques.
The conics through five base points are Steiner's, from the 36 lines.
"""

from fractions import Fraction
from itertools import combinations
from math import isqrt
from operator import mul

from .linalg import invariant_factors, smith_normal_form


class LatticeError(Exception):
    pass


# columns: the 12 conic classes of the index-2 surface
CONIC_CLASS_COLUMNS = (
    (2, -1, -1, -1, -1, -1, -1, 0, 0, 0),
    (2, -1, -1, -1, 0, 0, 0, -1, -1, -1),
    (2, 0, 0, 0, -1, -1, -1, -1, -1, -1),
    (2, -1, -1, 0, -1, -1, 0, -1, -1, 0),
    (2, -1, 0, -1, -1, 0, -1, -1, 0, -1),
    (2, 0, -1, -1, 0, -1, -1, 0, -1, -1),
    (2, -1, -1, 0, -1, 0, -1, 0, -1, -1),
    (2, -1, 0, -1, 0, -1, -1, -1, -1, 0),
    (2, 0, -1, -1, -1, -1, 0, -1, 0, -1),
    (2, -1, -1, 0, 0, -1, -1, -1, 0, -1),
    (2, 0, -1, -1, -1, 0, -1, -1, -1, 0),
    (2, -1, 0, -1, -1, -1, 0, 0, -1, -1),
)

# columns: the 12 cubic/sextic classes of the index-3 surface
INDEX3_CLASS_COLUMNS = (
    (1, -1, -1, -1, 0, 0, 0, 0, 0, 0),
    (4, -1, -1, -1, -2, -2, -2, -1, -1, -1),
    (4, -1, -1, -1, -1, -1, -1, -2, -2, -2),
    (1, -1, 0, 0, 0, -1, 0, 0, 0, -1),
    (4, -1, -2, -1, -1, -1, -2, -2, -1, -1),
    (4, -1, -1, -2, -2, -1, -1, -1, -2, -1),
    (1, 0, -1, 0, 0, -1, 0, 0, -1, 0),
    (4, -2, -1, -1, -2, -1, -1, -2, -1, -1),
    (4, -1, -1, -2, -1, -1, -2, -1, -1, -2),
    (1, 0, 0, -1, 0, -1, 0, -1, 0, 0),
    (4, -2, -1, -1, -1, -1, -2, -1, -2, -1),
    (4, -1, -2, -1, -2, -1, -1, -1, -1, -2),
)

FIBER_TRIPLES = ((0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11))

K_CLASS = (-3, 1, 1, 1, 1, 1, 1, 1, 1, 1)
F0_CLASS = tuple(-x for x in K_CLASS)

MW_GENERATOR_CYCLES = (
    (((1, 9, 5), (2, 7, 6), (3, 8, 4))),
    (((1, 8, 6), (2, 9, 4), (3, 7, 5))),
)

def inner(u, v):
    """The intersection form: u_0 v_0 - sum_{i>=1} u_i v_i."""
    return u[0] * v[0] - sum(a * b for a, b in zip(u[1:], v[1:]))


def add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def scale(u, c):
    return tuple(c * a for a in u)


def basis_e(i):
    return tuple(1 if j == i else 0 for j in range(10))


def mult(u, i):
    """Multiplicity m_i in the d*e_0 - sum m_i e_i reading."""
    return -u[i]


class SurfaceLattice:
    """Twelve (-2)-classes grouped in four fiber triples, with the index."""

    def __init__(self, minus2, fibers, index):
        self.minus2 = tuple(tuple(c) for c in minus2)
        self.fibers = tuple(tuple(f) for f in fibers)
        self.index = index
        self.half_fiber = F0_CLASS
        self._verify()

    def _verify(self):
        m = self.index
        for j, col in enumerate(self.minus2):
            if inner(col, col) != -2:
                raise LatticeError(f"column {j + 1} has square {inner(col, col)}")
            if inner(col, K_CLASS) != 0:
                raise LatticeError(f"column {j + 1} meets K")
        target = scale(K_CLASS, -m)
        for f in self.fibers:
            s = (0,) * 10
            for j in f:
                s = add(s, self.minus2[j])
            if s != target:
                raise LatticeError(f"fiber {f} does not sum to -{m}K")
            for i, j in combinations(f, 2):
                if inner(self.minus2[i], self.minus2[j]) != 1:
                    raise LatticeError(f"columns {i + 1},{j + 1} are not a triangle edge")


def chilean_lattice():
    return SurfaceLattice(CONIC_CLASS_COLUMNS, FIBER_TRIPLES, 2)


def index3_lattice():
    return SurfaceLattice(INDEX3_CLASS_COLUMNS, FIBER_TRIPLES, 3)


def is_minus1_class(D, lattice):
    return (inner(D, D) == -1 and inner(D, K_CLASS) == -1
            and all(inner(D, R) >= 0 for R in lattice.minus2))


def fiber_components_missing(lattice, i):
    """Per fiber, the unique component not met by e_i (entry i zero)."""
    out = []
    for f in lattice.fibers:
        zero_cols = [j for j in f if lattice.minus2[j][i] == 0]
        if len(zero_cols) != 1:
            raise LatticeError(
                f"fiber {f} has {len(zero_cols)} components missing e_{i}")
        out.append(zero_cols[0])
    return out


def _translates(lattice, i):
    """(I, E_i - sum_{j in I} R_j + |I| F_0) for the 16 sets I of fiber
    components missing e_i, each class checked against the (-1) predicate.

    The sets come in the order of the 4-bit masks over the fibers.
    """
    missing = fiber_components_missing(lattice, i)
    for mask in range(16):
        I = tuple(j for f, j in enumerate(missing) if mask >> f & 1)
        D = add(basis_e(i), scale(F0_CLASS, len(I)))
        for j in I:
            D = sub(D, lattice.minus2[j])
        if not is_minus1_class(D, lattice):
            raise LatticeError(f"translate {D} fails the (-1) predicate")
        yield I, D


# ---------------------------------------------------------------------------
# the 144 (-1)-classes, two ways


def enumerate_minus1_generative(lattice):
    """E_i - sum_{f in I} R_f^(0) + |I| F_0 over all i and I."""
    return sorted({D for i in range(1, 10) for _, D in _translates(lattice, i)})


def sorted_multiplicities(d):
    """The non-increasing m-tuples of length 9 with sum 3d - 1 and square sum d^2 + 1."""
    found = []

    def search(prefix, k, s, q, top):
        # k slots remain, each at most top, with target sum s and square sum q
        if k == 0:
            if s == 0 and q == 0:
                found.append(tuple(prefix))
            return
        bound = isqrt(q)
        for m in range(-bound, min(bound, top) + 1):
            q2 = q - m * m
            s2 = s - m
            # Cauchy-Schwarz feasibility for the remaining k-1 slots
            if s2 * s2 > (k - 1) * q2:
                continue
            prefix.append(m)
            search(prefix, k - 1, s2, q2, m)
            prefix.pop()

    q = d * d + 1
    search([], 9, 3 * d - 1, q, isqrt(q))
    return found


def _packed(values, width):
    """sum v_k 2^(width k): ints of either sign as lanes of one int, on
    which sums and int multiples act lane by lane; with the bias
    2^(width-1) added to each, a lane in [-2^(width-1), 2^(width-1)) is
    read back exactly, and its top bit is set iff it is not negative."""
    return sum(v << width * k for k, v in enumerate(values))


def enumerate_minus1_bruteforce(lattice, d_max=12):
    """All integer solutions of D^2 = D.K = -1 with d <= d_max.

    D = d e_0 - sum m_i e_i solves both equations exactly when the m_i sum
    to 3d - 1 and their squares to d^2 + 1.  For each d the search lists
    the non-increasing m-tuples with these sums (`sorted_multiplicities`),
    then expands each tuple into its distinct orderings, placing one value
    group at a time, largest value first, on a combination of the free
    slots.  A partial ordering is cut once some (-2)-class R has D.R < 0
    for every completion: D.R is d R_0 + sum m_i R_i, and a free slot adds
    at most R_i times the largest value left where R_i > 0 and R_i times
    the smallest where R_i < 0.  All the R are tested at once, one lane of
    a `_packed` int each: |m_i| <= sqrt(d_max^2 + 1), so no bound leaves
    [-reach, reach], and a lane is one bit wider.  A finished class has
    passed the lane test of D.R >= 0, and is checked against each R exactly.
    The search reads only `lattice.minus2` (with none it lists every
    solution), and shares no code with `enumerate_minus1_generative`.
    """
    rows = lattice.minus2
    top = isqrt(d_max * d_max + 1)
    reach = max((d_max * abs(R[0]) + top * sum(map(abs, R[1:])) for R in rows),
                default=0)
    width = reach.bit_length() + 1
    sign = _packed([1 << width - 1] * len(rows), width)
    cols = [_packed([R[i] for R in rows], width) for i in range(10)]
    ups = [_packed([max(R[i], 0) for R in rows], width) for i in range(10)]
    # per 9-bit mask of slots, the packed sums of R_i and of max(R_i, 0):
    # hi max(R_i, 0) + lo min(R_i, 0) = (hi - lo) max(R_i, 0) + lo R_i
    total, up = [0] * 512, [0] * 512
    for mask in range(1, 512):
        i, rest = (mask & -mask).bit_length(), mask & (mask - 1)
        total[mask] = total[rest] + cols[i]
        up[mask] = up[rest] + ups[i]
    out = []
    ms = [0] * 9  # the ordering being built; a leaf has set all nine slots

    def place(d, groups, free, fixed):
        # groups are the (value, count) pairs still to place on the free
        # slots, largest value first; fixed packs d R_0 + sum m_i R_i over
        # the placed slots, per R.  With no group left the bound is D.R.
        if not groups:
            D = (d,) + tuple(-m for m in ms)
            if any(inner(D, R) < 0 for R in rows):
                raise LatticeError(f"the lanes let {D} through: they overflowed")
            out.append(D)
            return
        (v, count), rest = groups[0], groups[1:]
        hi, lo = (rest[0][0], rest[-1][0]) if rest else (0, 0)
        for chosen in combinations([1 << i for i in range(9) if free >> i & 1], count):
            c = sum(chosen)
            left = free ^ c
            placed = fixed + v * total[c]
            if (placed + (hi - lo) * up[left] + lo * total[left] + sign) & sign != sign:
                continue
            for b in chosen:
                ms[b.bit_length() - 1] = v
            place(d, rest, left, placed)

    for d in range(d_max + 1):
        for tup in sorted_multiplicities(d):
            groups = [(v, tup.count(v)) for v in sorted(set(tup), reverse=True)]
            place(d, groups, 511, d * cols[0])
    return sorted(out)


def degree_histogram(classes):
    hist = {}
    for D in classes:
        hist[D[0]] = hist.get(D[0], 0) + 1
    return hist


# ---------------------------------------------------------------------------
# tropical Riemann-Roch space


def triangle_integer_points():
    """Integer solutions of -2a0+a1 >= 0, a0-2a1 >= -1, a0+a1 >= -1.

    The solution triangle has vertices (-1,0), (-1/3,-2/3), (1/3,2/3);
    a scan of a safe box certifies that exactly (0,0) and (-1,0) qualify.
    """
    sols = []
    for a0 in range(-3, 4):
        for a1 in range(-3, 4):
            if -2 * a0 + a1 >= 0 and a0 - 2 * a1 >= -1 and a0 + a1 >= -1:
                sols.append((a0, a1))
    return sols


def ltrop(E, lattice):
    """Representatives of L^trop(E) modulo m*K, with their curve classes.

    Returns a list of (coefficients over the 12 (-2)-classes, class, |I|):
    the coefficients are -1 on a set I of fiber components missing E, and
    the class is its translate E - sum_{j in I} R_j + |I| F_0, the
    renormalization of E + R to self-intersection -1.  Verifies closure
    under the tropical (componentwise max) sum.
    """
    if not is_minus1_class(E, lattice):
        raise LatticeError("L^trop is computed for (-1)-classes here")
    i = next((k for k in range(1, 10) if E == basis_e(k)), None)
    pts = triangle_integer_points()
    if sorted(pts) != [(-1, 0), (0, 0)]:
        raise LatticeError(f"triangle scan found {sorted(pts)}")
    if i is None:
        raise LatticeError("expected an exceptional basis class")
    reps = [(tuple(-1 if j in I else 0 for j in range(12)), D, len(I))
            for I, D in _translates(lattice, i)]
    # closure under the tropical sum
    coeff_set = {c for c, _, _ in reps}
    for c1 in coeff_set:
        for c2 in coeff_set:
            merged = tuple(max(x, y) for x, y in zip(c1, c2))
            if merged not in coeff_set:
                raise LatticeError("tropical sum leaves the space")
    return reps


# ---------------------------------------------------------------------------
# Mordell-Weil action


def _perm_from_cycles(cycles):
    perm = list(range(10))
    for cyc in cycles:
        for k in range(len(cyc)):
            perm[cyc[k]] = cyc[(k + 1) % len(cyc)]
    return tuple(perm)


def mw_generators():
    return tuple(_perm_from_cycles(c) for c in MW_GENERATOR_CYCLES)


def apply_perm(perm, D):
    out = [0] * 10
    for i in range(10):
        out[perm[i]] = D[i]
    return tuple(out)


def compose_perm(p, q):
    """(p o q)(i) = p(q(i))."""
    return tuple(p[q[i]] for i in range(10))


def mw_group():
    """The products g_1^a g_2^b, a, b in 0..2, of the two translations.

    With commuting generators of order 3 (`verify_mw_action` checks both)
    these are the whole group they generate.
    """
    identity = tuple(range(10))
    powers = [(identity, g, compose_perm(g, g)) for g in mw_generators()]
    return sorted({compose_perm(a, b) for a in powers[0] for b in powers[1]})


def mw_orbits(classes):
    """Orbit partition of a class set under the translation group."""
    group = mw_group()
    class_set = set(classes)
    seen = set()
    orbits = []
    for D in sorted(class_set):
        if D in seen:
            continue
        orbit = {apply_perm(g, D) for g in group}
        if not orbit <= class_set:
            raise LatticeError(f"action leaves the class set at {min(orbit - class_set)}")
        seen |= orbit
        orbits.append(sorted(orbit))
    return orbits


def verify_mw_action(classes):
    """Commuting order-3 isometric generators; the orbits of `classes`,
    the nine exceptional classes among them."""
    g1, g2 = mw_generators()
    if compose_perm(g1, g2) != compose_perm(g2, g1):
        raise LatticeError("the two translation generators do not commute")
    identity = tuple(range(10))
    for g in (g1, g2):
        if compose_perm(g, compose_perm(g, g)) != identity:
            raise LatticeError("a translation generator has order != 3")
    if len(mw_group()) != 9:
        raise LatticeError("the translation group has order != 9")
    # a permutation of coordinates keeps u_0 v_0 - sum u_i v_i for all u, v
    # exactly when it fixes index 0
    if any(g[0] != 0 for g in (g1, g2)):
        raise LatticeError("generator is not an isometry")
    orbits = mw_orbits(classes)
    exc = sorted(basis_e(i) for i in range(1, 10))
    if exc not in [sorted(o) for o in orbits]:
        raise LatticeError("the nine exceptional classes are not a single orbit")
    return orbits


# ---------------------------------------------------------------------------
# coset partition under the span of the (-2)-classes


class CosetLabeller:
    """Stable labels for Z^10 modulo the span of given integer columns."""

    def __init__(self, columns):
        matrix = [[col[i] for col in columns] for i in range(10)]
        D, U, V = smith_normal_form(matrix)
        self.U = U
        self.diag = [D[i][i] if i < len(D[0]) else 0 for i in range(10)]

    def label(self, v):
        w = [sum(self.U[i][j] * v[j] for j in range(10)) for i in range(10)]
        out = []
        for i, d in enumerate(self.diag):
            if d == 0:
                out.append(w[i])
            elif d == 1:
                continue
            else:
                out.append(w[i] % d)
        return tuple(out)


def res_partition(classes, lattice):
    """Cosets of the class set modulo the lattice of (-2)-classes.

    The span of the twelve (-2)-classes already contains m*F_0, so this
    is the finest vertical-translation quotient; adding F_0 must pair the
    cosets two by two.
    """
    labeller = CosetLabeller(lattice.minus2)
    cosets = {}
    for D in classes:
        cosets.setdefault(labeller.label(D), []).append(D)
    # adding F_0 swaps cosets in pairs
    pairing = {}
    for lab, members in cosets.items():
        shifted = labeller.label(add(members[0], F0_CLASS))
        if shifted == lab or shifted not in cosets:
            raise LatticeError("F_0 translation does not pair the cosets")
        pairing[lab] = shifted
    for lab, other in pairing.items():
        if pairing[other] != lab:
            raise LatticeError("F_0 pairing is not an involution")
    return cosets, pairing


def kperp_basis_coordinates(v):
    """Coordinates of v in the basis (e_0-3e_9, e_1-e_9, ..., e_8-e_9) of K-perp."""
    if inner(v, K_CLASS) != 0:
        raise LatticeError(f"{v} is not orthogonal to K")
    return tuple(v[:9])


def kperp_quotients(lattice):
    """Invariant factors of K-perp modulo Lambda and modulo Lambda + <F_0>."""
    lam_rows = [list(kperp_basis_coordinates(c)) for c in lattice.minus2]
    with_f0 = lam_rows + [list(kperp_basis_coordinates(F0_CLASS))]
    fac_lam = invariant_factors(lam_rows)
    fac_full = invariant_factors(with_f0)
    if len(fac_lam) != 9 or len(fac_full) != 9:
        raise LatticeError("the (-2)-classes do not span K-perp rationally")
    return ([f for f in fac_lam if f != 1], [f for f in fac_full if f != 1])


# ---------------------------------------------------------------------------
# the pairing through the ramification class


def branch_class(i):
    """B_i = e_0 - e_i."""
    return sub(basis_e(0), basis_e(i))


def bertini_involution(classes, lattice):
    """The pairing E -> F_0 + B_i - E on the whole class set.

    For each class exactly one base-point index i makes the image another
    class of the set, and the induced map must be an involution.
    """
    class_set = set(classes)
    pairing = {}
    for E in classes:
        hits = []
        for i in range(1, 10):
            if mult(E, i) != E[0] - 1:
                continue  # B_i . E = 1 is required for the image to square to -1
            D = sub(add(F0_CLASS, branch_class(i)), E)
            if D in class_set:
                hits.append((i, D))
        if len(hits) != 1:
            raise LatticeError(f"class {E} has {len(hits)} pairing indices")
        pairing[E] = hits[0]
    for E, (i, D) in pairing.items():
        j, back = pairing[D]
        if back != E or j != i:
            raise LatticeError("pairing is not an involution")
    return pairing


# ---------------------------------------------------------------------------
# the nine-class theorem at a reference exceptional class


def fiber_labels(lattice):
    """Per fiber (R^(0), R^(1), R^(2)) relative to e_1.

    R^(0) is the component not met; the two met components are labelled
    in increasing column order.
    """
    return [(r0, *(j for j in f if j != r0))
            for f, r0 in zip(lattice.fibers, fiber_components_missing(lattice, 1))]


def third_divisor(pattern, labels, lattice):
    """The rational class (1/3) sum_f (R_f^(a_f) - R_f^(0)) for a digit pattern."""
    acc = [Fraction(0)] * 10
    for f, digit in enumerate(pattern):
        if digit == 0:
            continue
        plus = lattice.minus2[labels[f][digit]]
        minus = lattice.minus2[labels[f][0]]
        for k in range(10):
            acc[k] += Fraction(plus[k] - minus[k], 3)
    return tuple(acc)


def verify_nine_class_theorem(lattice):
    """The two third-integer divisors and the nine derived classes, at e_1.

    The report holds the divisors' products, H and H^2, and the set of
    H.R over the (-2)-classes R; the derived classes must be the nine
    exceptional ones.
    """
    E = basis_e(1)
    labels = fiber_labels(lattice)
    d0111 = third_divisor((0, 1, 1, 1), labels, lattice)
    d1012 = third_divisor((1, 0, 1, 2), labels, lattice)
    report = {"D0111.D1012": inner(d0111, d1012), "D0111^2": inner(d0111, d0111),
              "D1012^2": inner(d1012, d1012)}

    patterns = ((0, 0, 0, 0), (0, 2, 2, 2), (0, 1, 1, 1),
                (2, 0, 2, 1), (2, 2, 1, 0), (2, 1, 0, 2),
                (1, 0, 1, 2), (1, 2, 0, 1), (1, 1, 2, 0))
    derived = []
    for pat in patterns:
        D = third_divisor(pat, labels, lattice)
        vec = tuple(E[k] + D[k] for k in range(10))
        if any(x.denominator != 1 for x in vec):
            raise LatticeError(f"class for pattern {pat} is not integral")
        derived.append(tuple(int(x) for x in vec))
    for u, v in combinations(derived, 2):
        if inner(u, v) != 0:
            raise LatticeError("derived classes are not pairwise orthogonal")
    for D in derived:
        if not is_minus1_class(D, lattice):
            raise LatticeError("a derived class fails the (-1) predicate")
    if sorted(derived) != sorted(basis_e(i) for i in range(1, 10)):
        raise LatticeError("derived classes differ from the nine exceptional ones")

    r0_sum = (0,) * 10
    for f in range(4):
        r0_sum = add(r0_sum, lattice.minus2[labels[f][0]])
    H = sub(add(scale(E, 3), scale(F0_CLASS, 3)), r0_sum)
    report.update({"H": H, "H^2": inner(H, H), "classes": derived,
                   "H.R": sorted({inner(H, R) for R in lattice.minus2})})
    return report


# ---------------------------------------------------------------------------
# uniqueness of the orthogonal nine-set


def _orthogonal_masks(verts):
    """Per vertex, the bit mask of the vertices orthogonal to it.

    Gram row u is inner(u, C), C_i packing coordinate i of every vertex
    (`_packed`).  Biased and xored back, a lane y is zero iff u.v = 0, and
    only then is the top bit of ((y & low) + low) | y clear.
    """
    n = len(verts)
    top = max((abs(x) for u in verts for x in u), default=0)
    reach = top * max((sum(map(abs, u)) for u in verts), default=0)  # >= |u.v|
    width = reach.bit_length() + 1
    high = _packed([1 << width - 1] * n, width)
    low = high - _packed([1] * n, width)
    cols = [_packed(col, width) for col in zip(*verts)]
    masks = []
    for u in verts:
        y = (inner(u, cols) + high) ^ high
        zeros = ~(((y & low) + low) | y) & high
        mask = 0
        while zeros:
            bit = zeros & -zeros
            mask |= 1 << bit.bit_length() // width - 1
            zeros ^= bit
        masks.append(mask)
    return masks


def all_nine_cliques(classes):
    """All 9-sets of pairwise-orthogonal classes, by ordered backtracking
    over the vertices in ascending degree, taking a vertex only when enough
    candidates stay; returned sorted, as sorted tuples of sorted classes."""
    verts = sorted(classes)
    degrees = [m.bit_count() for m in _orthogonal_masks(verts)]
    order = sorted(range(len(verts)), key=degrees.__getitem__)
    adj = _orthogonal_masks([verts[k] for k in order])
    cliques = []

    def extend(chosen, cand):
        need = 9 - len(chosen)
        if need == 0:
            cliques.append(sorted(order[j] for j in chosen))
            return
        # candidates are popped lowest first, so every later one lies above j
        while cand.bit_count() >= need:
            low = cand & -cand
            j = low.bit_length() - 1
            cand ^= low
            nxt = cand & adj[j]
            if nxt.bit_count() >= need - 1:
                chosen.append(j)
                extend(chosen, nxt)
                chosen.pop()

    extend([], (1 << len(verts)) - 1)
    cliques.sort()
    return [tuple(verts[k] for k in clique) for clique in cliques]


def chilean_set_uniqueness(classes, lattice):
    """The number of orthogonal nine-sets, and those that meet every
    (-2)-class six times, which must be the exceptional one; a set's D.R_j
    are sums of rows of one table of D.R_j per class D."""
    cliques = all_nine_cliques(classes)
    table = {D: [inner(D, R) for R in lattice.minus2] for D in classes}
    qualifying = [clique for clique in cliques
                  if all(sum(column) == 6 for column in zip(*(table[D] for D in clique)))]
    exceptional = sorted(basis_e(i) for i in range(1, 10))
    if any(sorted(clique) != exceptional for clique in qualifying):
        raise LatticeError("a qualifying nine-set is not the exceptional one")
    return {"total_cliques": len(cliques), "qualifying": qualifying}


# ---------------------------------------------------------------------------
# the index-3 data of the higher-index construction


def verify_torsion_vectors(vectors):
    """All pairwise differences of the torsion vectors have exactly one
    zero coordinate mod 3."""
    for u, v in combinations(vectors, 2):
        zeros = sum(1 for a, b in zip(u, v) if (a - b) % 3 == 0)
        if zeros != 1:
            raise LatticeError(f"difference of {u} and {v} has {zeros} zeros")
    return True


def index3_section_check(matrix):
    """The 2x9 section matrix is a set-theoretic section generating the kernel."""
    first, second = matrix
    reductions = [((a % 3), b % 3) for a, b in zip(first, second)]
    if len(set(reductions)) != 9:
        raise LatticeError("reductions mod 3 are not a bijection onto (Z/3)^2")
    if [r[0] for r in reductions] != [0, 0, 0, 1, 1, 1, 2, 2, 2]:
        raise LatticeError("first coordinates do not reduce to 0,0,0,1,1,1,2,2,2")
    total = (sum(first) % 9, sum(second) % 3)
    if total[1] != 0:
        raise LatticeError("column sum has a nonzero second coordinate")
    kernel = {0, 3, 6}
    generated = {(total[0] * k) % 9 for k in range(3)}
    if total[0] % 3 != 0 or generated != kernel:
        raise LatticeError(f"column sum {total[0]} does not generate the kernel")
    return {"column_sum": total, "reductions": reductions}


# ---------------------------------------------------------------------------
# geometric realization of the low-degree classes


def line_table(points):
    """(form, lines): for every pair i < j of the points, lines[i, j] =
    (kernel, values), the line through p_i and p_j, the kernel of their
    degree-1 value rows (`hasse_rows` at `P.rep`), and its values at all
    points, packed in `form` (`Field.pack_vectors`) for Steiner's products of
    four line values; the kernel is the multiple of itself that was packed.
    LatticeError unless each line vanishes at p_i and p_j."""
    from .linalg import kernel_basis
    from .plane import hasse_rows

    field = points[0].field
    rows = [hasse_rows(P, 1, [(0, 0, 0)])[0] for P in points]
    kernels = {}
    for i, j in combinations(range(len(points)), 2):
        kern = kernel_basis([rows[i], rows[j]], field)
        if len(kern) != 1:
            raise LatticeError(f"line p_{i + 1}p_{j + 1}: kernel dimension {len(kern)}")
        kernels[i, j] = kern[0]
    # a Steiner value is the difference of two products of four line
    # values, each the sum of three products of a coefficient and a coordinate
    form, packed, scales = field.pack_vectors(8, rows + list(kernels.values()), 2 * 3 ** 4)
    reps, is_zero = packed[:len(points)], form.is_zero
    lines = {}
    for (i, j), line, scale in zip(kernels, packed[len(points):], scales[len(points):]):
        values = [sum(map(mul, line, rep)) for rep in reps]
        if not (is_zero(values[i]) and is_zero(values[j])):
            raise LatticeError(f"line p_{i + 1}p_{j + 1} misses p_{i + 1} or p_{j + 1}")
        kernel = kernels[i, j] if scale == 1 else [x * scale for x in kernels[i, j]]
        lines[i, j] = kernel, values
    return form, lines


def steiner_conic(five, form, lines):
    """(A, B, values): the conic through the points `five` = (p_1..p_5) is
    Steiner's A L_12 L_34 - B L_13 L_24 of the lines L_ij of `line_table`,
    with A = (L_13 L_24)(p_5) and B = (L_12 L_34)(p_5), and `values` maps
    each other point to its value there, all packed in the table's `form`.
    It is unique, and nonzero, when no three of the five are collinear,
    which the line values show: a pencil of conics through them would
    contain a line pair."""
    for pair in combinations(five, 2):
        values = lines[pair][1]
        if any(form.is_zero(values[k]) for k in five if k not in pair):
            raise LatticeError(f"three of the points {five} are collinear")
    p1, p2, p3, p4, p5 = five
    l12, l34, l13, l24 = (lines[pair][1]
                          for pair in ((p1, p2), (p3, p4), (p1, p3), (p2, p4)))
    A = l13[p5] * l24[p5]
    B = l12[p5] * l34[p5]
    return A, B, {k: A * (l12[k] * l34[k]) - B * (l13[k] * l24[k])
                  for k in range(len(l12)) if k not in five}


def realize_low_degree_classes(classes, points):
    """Check every degree <= 2 class against actual curves through the
    points; returns how many were checked.

    Lines through two points (`line_table`) and conics through five
    (`steiner_conic`) must exist, be unique and avoid the remaining points.
    """
    form, lines = line_table(points)
    checked = 0
    for D in classes:
        d = D[0]
        if d not in (1, 2):
            continue
        mults = [mult(D, i) for i in range(1, 10)]
        if any(m not in (0, 1) for m in mults) or sum(mults) != 3 * d - 1:
            raise LatticeError(f"degree {d} class {D} has unexpected multiplicities")
        support = tuple(i for i, m in enumerate(mults) if m == 1)
        off = (steiner_conic(support, form, lines)[2] if d == 2 else
               {k: v for k, v in enumerate(lines[support][1]) if k not in support})
        for k, value in off.items():
            if form.is_zero(value):
                raise LatticeError(f"class {D}: curve support mismatch at p_{k + 1}")
        checked += 1
    return checked


# ---------------------------------------------------------------------------
# the annotated table of all 144 classes


def galois_permutation(lattice):
    """The index permutation of e_0..e_9 induced by the deck involution at e_1.

    The involution fixes e_0, e_1 and each unmet fiber component, and
    swaps the two met components of every fiber.  These fourteen classes
    span the lattice rationally and their images have the same Gram
    matrix, so the swap is a well-defined isometry sigma, and sigma(e_i)
    is the one e_j whose intersection numbers with the images are e_i's
    with the originals.  It must pair e_2..e_9 in four 2-cycles.
    """
    basis, images = [basis_e(0), basis_e(1)], [basis_e(0), basis_e(1)]
    for (r0, r1, r2) in fiber_labels(lattice):
        basis.extend(lattice.minus2[j] for j in (r0, r1, r2))
        images.extend(lattice.minus2[j] for j in (r0, r2, r1))
    if len(invariant_factors(basis)) != 10:
        raise LatticeError("e_0, e_1 and the (-2)-classes do not span the lattice")
    if ([[inner(u, v) for v in images] for u in images]
            != [[inner(u, v) for v in basis] for u in basis]):
        raise LatticeError("the component swap does not keep the Gram matrix")
    image_rows = {k: [inner(basis_e(k), v) for v in images] for k in range(2, 10)}
    perm = [0, 1]
    for i in range(2, 10):
        row = [inner(basis_e(i), u) for u in basis]
        j = next((k for k, image_row in image_rows.items() if image_row == row), None)
        if j is None:
            raise LatticeError(f"involution does not permute e_{i}")
        perm.append(j)
    for i in range(2, 10):
        if perm[perm[i]] != i:
            raise LatticeError("deck permutation is not an involution")
    if sum(1 for i in range(2, 10) if perm[i] != i) != 8:
        raise LatticeError("deck permutation must move all of e_2..e_9")
    return tuple(perm)


def table144(classes, lattice):
    """Rows (deg, n, v_C, split, class) annotating all 144 classes.

    deg is the plane degree of the class, n its intersection with e_1,
    split records whether the deck involution at e_1 moves the class, and
    v_C reproduces the node count of the double-plane model as bookkeeping.
    """
    perm = galois_permutation(lattice)
    rows = []
    for D in sorted(classes):
        d = D[0]
        n = inner(D, basis_e(1))
        invariant = apply_perm(perm, D) == D
        if D == basis_e(1):
            n = 0
            v_c, u_c, a_s, a_sp = 0, 0, 0, 0
        elif invariant:
            v_c, u_c = n + 1, 0
            a_s, a_sp = n % 2, (n + 1) % 2
        else:
            v_c = (3 - d) if n == 0 else (4 - d)
            u_c, a_s, a_sp = n, 0, 0
        rows.append({"deg": d, "n": n, "v_C": v_c, "u_C": u_c,
                     "a_s": a_s, "a_sp": a_sp,
                     "split": "no" if invariant else "yes",
                     "class": D})
    return rows

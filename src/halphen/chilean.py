"""The one-parameter family of 12 conics and 9 points.

Everything here is verified at construction time by exact identities:
the nine base points, the twelve conics with their (12_6, 9_8) incidence,
the sextic pencil F6 + lambda*G3^2, the twelve pairwise intersection
points of fiber conics, the nine lines through them forming a (9_4, 12_3)
configuration, the distinguished pencil members, and the degenerations.

The default coefficient field is Q(e)(a), which certifies every claim for
the whole family at once; finite-field specializations are used where a
claim is about singularity types (see ``singular_census``).

Each object has one construction.  ``ChileanData`` is points, conics and
fibers with their incidence (one ``plane.incidence_rows`` table, checked
against the expected supports); the a = -2 degeneration is one as well,
with its three surviving fibers, and ``fiber_nodes`` finds the nodes of
both.  The cross ratio works on homogeneous pairs (lambda : 1) and
(1 : 0), and the symmetry group is the six products s^i d^j.

``Configuration`` ties the chain together: it builds the data, the pencil,
the nodes, the dual lines, the degeneration with its nodes and vertices and
the harmonic polars once each, on first use, and is what the suites and the
invariants take.
"""

from functools import cached_property

from .cubic import hesse_singular_fibers
from .field import (QQ_EPS, QQ_EPS_A, FieldError, pdeg, pgcd, pnormalize,
                    to_text)
from .plane import (GeometryError, Poly3, ProjPoint, are_collinear,
                    bf_divide_linear, cross, gens, hasse_rows,
                    incidence_rows, line_through, monomials_of_degree,
                    plane_points, poly3_to_binary_form, resultant)
from .published import PAPER

FIBERS = ((0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11))


class VerificationError(Exception):
    """An exact identity the construction promises failed to hold."""


def _expected_supports():
    from .piclattice import CONIC_CLASS_COLUMNS
    return [frozenset(i for i in range(1, 10) if col[i] == -1)
            for col in CONIC_CLASS_COLUMNS]


def base_points(field, a):
    """The nine base points p_1..p_9 over `field` with parameter `a`."""
    e = field.eps()
    one = field.one()
    a = field.coerce(a)
    pts = [
        (a, one, one), (e * a, e * e, one), (e * e * a, e, one),
        (one, a, one), (e, e * e * a, one), (e * e, e * a, one),
        (one, one, a), (e, e * e, a), (e * e, e, a),
    ]
    return [ProjPoint(field, c) for c in pts]


def conic_equations(field, a):
    """The twelve conics, indexed to match the incidence-class columns."""
    e = field.eps()
    a = field.coerce(a)
    X, Y, Z = gens(field)
    e2 = e * e
    return [
        X * Y - a * Z**2,
        X * Z - a * Y**2,
        Y * Z - a * X**2,
        X**2 + (e * a + e) * X * Y + e2 * Y**2 + (e2 * a + e2) * X * Z
            + (a + 1) * Y * Z + e * Z**2,
        X**2 + (e2 * a + e2) * X * Y + e * Y**2 + (e * a + e) * X * Z
            + (a + 1) * Y * Z + e2 * Z**2,
        X**2 + (a + 1) * X * Y + Y**2 + (a + 1) * X * Z
            + (a + 1) * Y * Z + Z**2,
        X**2 + (e * a + 1) * X * Y + Y**2 + (e2 * a + e) * X * Z
            + (e2 * a + e) * Y * Z + e2 * Z**2,
        X**2 + (e2 * a + e) * X * Y + e2 * Y**2 + (e * a + 1) * X * Z
            + (e2 * a + e) * Y * Z + Z**2,
        X**2 + (a + e2) * X * Y + e * Y**2 + (a + e2) * X * Z
            + (e2 * a + e) * Y * Z + e * Z**2,
        X**2 + (e * a + e2) * X * Y + e * Y**2 + (e2 * a + 1) * X * Z
            + (e * a + e2) * Y * Z + Z**2,
        X**2 + (a + e) * X * Y + e2 * Y**2 + (a + e) * X * Z
            + (e * a + e2) * Y * Z + e2 * Z**2,
        X**2 + (e2 * a + 1) * X * Y + Y**2 + (e * a + e2) * X * Z
            + (e * a + e2) * Y * Z + e * Z**2,
    ]


def hesse_parameter(field, a):
    """t = -(a^3 + 2)/a, the Hesse parameter carrying the base points."""
    a = field.coerce(a)
    return -(a**3 + 2) / a


def check_good_parameter(field, a):
    """Reject the boundary of the family: a = 0, a^3 = 1, a^3 = -8.

    The last two are exactly the values with t^3 = -27 (the numerator of
    t^3 + 27 factors as -(a^3 - 1)^2 (a^3 + 8) / a^3).
    """
    a = field.coerce(a)
    if a.is_zero():
        raise VerificationError("a = 0 lies outside the family")
    if (a**3 - 1).is_zero():
        raise VerificationError("a^3 = 1 degenerates the base points")
    if (a**3 + 8).is_zero():
        raise VerificationError("a^3 = -8 gives a triangle member (t^3 = -27)")


class ChileanData:
    """Base points, conics, their fibers and the verified incidence.

    Conic j meets exactly the base points `supports[j]` (numbered from 1),
    which fixes every row and column sum; `incidence` is the points x
    conics matrix of 0/1.
    """

    def __init__(self, field, a, points, conics, fibers, supports):
        if len(set(points)) != 9:
            raise VerificationError("base points are not distinct")
        incidence = incidence_rows(points, conics)
        for j, support in enumerate(supports):
            meets = {i + 1 for i, row in enumerate(incidence) if row[j]}
            if meets != support:
                raise VerificationError(
                    f"conic {j + 1} meets points {sorted(meets)}, "
                    f"expected {sorted(support)}")
        self.field = field
        self.a = a
        self.points = points
        self.conics = conics
        self.fibers = fibers
        self.incidence = incidence


def build_chilean(field=None, a=None):
    """Construct the configuration and verify its incidence exactly.

    With no arguments this is the symbolic family over Q(e)(a).  Pass a
    finite field (or Q(e)) and a good parameter value for a specialized
    instance; bad parameter values are rejected.
    """
    if field is None:
        field = QQ_EPS_A
        a = field.gen()
    if not field.has_eps():
        raise FieldError(f"{field} lacks a primitive cube root of unity")
    a = field.coerce(a)
    check_good_parameter(field, a)
    data = ChileanData(field, a, base_points(field, a),
                       conic_equations(field, a), FIBERS, _expected_supports())

    # every base point lies on the Hesse cubic with t = -(a^3+2)/a
    t = hesse_parameter(field, a)
    X, Y, Z = gens(field)
    incidence_rows(data.points, [X**3 + Y**3 + Z**3 + t * X * Y * Z],
                   column_sum=9)
    return data


# ---------------------------------------------------------------------------
# the sextic pencil


class PencilPair:
    """Generators of the pencil: members are F6 + lambda * G3^2."""

    def __init__(self, data):
        field, a = data.field, data.a
        self.field = field
        self.a = a
        self.F6 = data.conics[0] * data.conics[1] * data.conics[2]
        X, Y, Z = gens(field)
        self.G3 = a * (X**3 + Y**3 + Z**3) - (a**3 + 2) * X * Y * Z
        self.G3_squared = self.G3 * self.G3


def pencil_membership(pair, S):
    """lambda with S proportional to F6 + lambda*G3^2, or None when S is no
    finite member (G3^2 itself, or not in the pencil)."""
    if S.degree != 6:
        raise GeometryError("pencil members are sextics")
    field = pair.field
    monos = sorted(set(S.terms) | set(pair.F6.terms) | set(pair.G3_squared.terms))
    rows = [[pair.F6.terms.get(m, field.zero()),
             pair.G3_squared.terms.get(m, field.zero())] for m in monos]
    rhs = [S.terms.get(m, field.zero()) for m in monos]
    from .linalg import solve
    sol = solve(rows, rhs, field)
    if sol is None:
        return None
    alpha, beta = sol
    # re-verify the claimed identity exactly
    if alpha.is_zero() or not S.proportional_to(
            pair.F6.scale(alpha) + pair.G3_squared.scale(beta)):
        return None
    return beta / alpha


def fiber_product_lambdas(data, pair):
    """The pencil parameters of the four conic-triple members.

    Fiber 1 sits at lambda = 0 by construction; the other three values are
    found by exact linear solves and returned in fiber order.  The pencil
    claim compares the number of distinct values with the paper.
    """
    out = []
    for fiber in data.fibers:
        prod = data.conics[fiber[0]] * data.conics[fiber[1]] * data.conics[fiber[2]]
        lam = pencil_membership(pair, prod)
        if lam is None:
            raise VerificationError(f"fiber {fiber} product is not a finite member")
        out.append(lam)
    if not out[0].is_zero():
        raise VerificationError("fiber 1 product should sit at lambda = 0")
    return out


def cross_ratio(z):
    """The cross ratio R = N/D of four points z_k = (u : v) of the line.

    N = [z0, z2][z1, z3] and D = [z1, z2][z0, z3] with [u, w] = u0 w1 -
    u1 w0; returns (N, D), and R is infinite when D = 0.
    """
    def bracket(u, w):
        return u[0] * w[1] - u[1] * w[0]
    return (bracket(z[0], z[2]) * bracket(z[1], z[3]),
            bracket(z[1], z[2]) * bracket(z[0], z[3]))


def cross_ratio_probe(lams, field):
    """Which four of the five special pencil parameters are equianharmonic.

    The five values are the four conic-triple parameters `lams` (from
    `fiber_product_lambdas`, over `field`) as (lambda : 1) and the double
    member as (1 : 0).  For each 4-subset the probe reports the cross
    ratio R = N/D of a reference ordering and whether R^2 - R + 1 = 0,
    that is N^2 - ND + D^2 = (N + eD)(N + e^2 D) = 0.  The six reorderings
    act on R through R -> 1 - R and R -> 1/R, which swap the two roots -e
    and -e^2 of that equation, so the verdict does not depend on the
    ordering; it is checked on a second ordering.
    """
    one, e = field.one(), field.eps()
    values = [(l, one) for l in lams] + [(one, field.zero())]
    names = ["lambda0", "lambda1", "lambda2", "lambda3", "infinity"]
    report = []
    from itertools import combinations
    for idx in combinations(range(5), 4):
        verdicts = []
        for ordering in ((0, 1, 2, 3), (1, 0, 2, 3)):
            N, D = cross_ratio([values[idx[k]] for k in ordering])
            verdicts.append((N, D, (N + e * D).is_zero()
                             or (N + e * e * D).is_zero()))
        if verdicts[0][2] != verdicts[1][2]:
            raise VerificationError("cross-ratio verdict depends on the ordering")
        N, D, equianharmonic = verdicts[0]
        report.append({
            "subset": [names[i] for i in idx],
            "ratio": "infinity" if D.is_zero() else to_text(N / D),
            "equianharmonic": equianharmonic,
        })
    return {"lambdas": [to_text(l) for l in lams], "subsets": report}


# ---------------------------------------------------------------------------
# intersection points of fiber conics


def _matching_scale(point, u0, v0):
    """Scalar s with (s*x, s*y) == (u0, v0) for the point's x and y, or None:
    (x : y) must be (u0 : v0), x v0 = y u0, before s is divided out."""
    pu, pv = point.coords[0], point.coords[1]
    if (pu.is_zero() and pv.is_zero()) or pu * v0 != pv * u0:
        return None
    ref, tgt = (pu, u0) if not pu.is_zero() else (pv, v0)
    return None if tgt.is_zero() else tgt / ref


def fourth_intersection(C, D, shared):
    """The one intersection point of two conics beyond three known ones.

    Eliminates z; divides the resultant, a binary form in x and y, by the
    known roots, and resolves z by the gcd of the univariate restrictions,
    less the known roots over the same (x : y).  Every division is
    `bf_divide_linear`, re-verified by multiplication.  GeometryError when
    the elimination leaves no single point.
    """
    field = C.field
    res = resultant(C, D, 2)
    if res.is_zero():
        raise GeometryError("conics share a component")
    form = poly3_to_binary_form(res, (0, 1))
    for P in shared:
        u0, v0 = P.coords[0], P.coords[1]
        if not (u0.is_zero() and v0.is_zero()):
            form = bf_divide_linear(form, (u0, v0), field)
    deg = len(form) - 1
    if deg == 0:
        # the fourth point is the vertex (0 : 0 : 1) of the eliminated variable
        vertex = ProjPoint(field, (field.zero(), field.zero(), field.one()))
        if C.evaluate(vertex).is_zero() and D.evaluate(vertex).is_zero():
            return vertex
        raise GeometryError("degenerate elimination without a vertex point")
    if deg != 1:
        raise GeometryError(f"unexpected residual factor of degree {deg}")
    u0, v0 = -form[0], form[1]

    def restrict(poly):  # to the line of (0 : 0 : 1) and (u0 : v0 : 0), in z
        return pnormalize(poly.restrict_to_line((0, 0, 1), (u0, v0, 0)))

    g = pgcd(restrict(C), restrict(D), field)
    if not g:
        raise GeometryError("restrictions vanish identically")
    # remove the known shared points living over the same (u0 : v0)
    for P in shared:
        if pdeg(g) <= 1:
            break
        s = _matching_scale(P, u0, v0)
        if s is not None:
            g = bf_divide_linear(g, (s * P.coords[2], field.one()), field)
    if pdeg(g) != 1:
        raise GeometryError("ambiguous residual intersection in the fiber pair")
    point = ProjPoint(field, (u0, v0, -g[0] / g[1]))
    if not (C.evaluate(point).is_zero() and D.evaluate(point).is_zero()):
        raise GeometryError("candidate fourth point misses a conic")
    return point


def fiber_nodes(data):
    """The extra intersection points, 3 per fiber, in pair order.

    Returns a list of (pair, point) with pair = (i, j) conic indices.
    """
    out = []
    for fiber in data.fibers:
        for idx in range(3):
            i, j = sorted(set(fiber) - {fiber[2 - idx]})
            shared = [data.points[k] for k in range(9)
                      if data.incidence[k][i] and data.incidence[k][j]]
            if len(shared) != 3:
                raise VerificationError(
                    f"conics {i + 1},{j + 1} share {len(shared)} base points, expected 3")
            node = fourth_intersection(data.conics[i], data.conics[j], shared)
            if node in data.points:
                raise VerificationError(f"node of ({i + 1},{j + 1}) is a base point")
            out.append(((i, j), node))
    nodes = [n for _, n in out]
    if len(set(nodes)) != len(nodes):
        raise VerificationError(f"the {len(nodes)} fiber nodes are not distinct")
    # each node lies on exactly the two conics that define it
    for ((i, j), _), row in zip(out, incidence_rows(nodes, data.conics)):
        on = [k for k, hit in enumerate(row) if hit]
        if on != [i, j]:
            raise VerificationError(
                f"node of ({i + 1},{j + 1}) lies on conics {on}")
    return out


def dual_hesse_lines(data, nodes):
    """Nine lines realizing the (9_4, 12_3) configuration on the 12 nodes.

    The line attached to base point p_i joins the four nodes of the conic
    pairs through p_i, one per fiber, and passes through p_i itself.  The
    line and node degrees are the paper's (`published.PAPER`), checked
    here, since `config` exports the lines too.
    """
    node_by_pair = dict(nodes)
    lines = []
    for i in range(9):
        quad = []
        for fiber in data.fibers:
            through = [j for j in fiber if data.incidence[i][j]]
            if len(through) != 2:
                raise VerificationError(
                    f"point p_{i + 1} lies on {len(through)} conics of a fiber")
            quad.append(node_by_pair[tuple(sorted(through))])
        if not are_collinear([data.points[i]] + quad):
            raise VerificationError(
                f"p_{i + 1} and its four nodes are not collinear")
        lines.append(line_through(quad[0], quad[1]))

    dual = PAPER["dual configuration (9_4, 12_3)"]
    by_node = incidence_rows([n for _, n in nodes], lines, row_sum=dual["node degree"],
                             column_sum=dual["line degree"])
    # line i passes through p_i (collinear above) and through no other
    incidence_rows(data.points, lines, column_sum=1)
    return lines, [list(column) for column in zip(*by_node)]


# ---------------------------------------------------------------------------
# distinguished members and degenerations


def special_members(data, pair):
    """The nine-cusped sextic and the Caylean cubic."""
    field, a = data.field, data.a
    X, Y, Z = gens(field)
    sextic = (X**6 + Y**6 + Z**6
              + (4 * a**3 - 2) * (X**3 * Y**3 + X**3 * Z**3 + Y**3 * Z**3)
              - 6 * a**2 * (X**4 * Y * Z + X * Y**4 * Z + X * Y * Z**4)
              - 3 * a * (a**3 - 4) * (X * Y * Z)**2)
    caylean = X**3 + Y**3 + Z**3 - ((a**3 + 2) / a) * X * Y * Z

    lam = pencil_membership(pair, sextic)
    if lam is None:
        raise VerificationError("the nine-cusped sextic is not a finite member")
    if not caylean.proportional_to(pair.G3):
        raise VerificationError("the Caylean cubic does not generate the double member")
    return {"cuspidal_sextic": sextic, "caylean": caylean, "lambda": lam}


def degenerate_pencil():
    """The a = 1 limit: three conics with three collapsed triple points.

    The conics' coefficients are polynomials in a, so the a = 1 limit of
    the sextic generator F6 is the product of the first three conics at
    a = 1; no symbolic configuration is needed.
    """
    field = QQ_EPS
    one = field.one()
    X, Y, Z = gens(field)
    conics = [X**2 - Y * Z, Z**2 - X * Y, Y**2 - X * Z]
    # the nine base points collapse onto three, each on all three conics
    triple_points = list(dict.fromkeys(base_points(field, one)))
    incidence_rows(triple_points, conics, row_sum=3, column_sum=3)
    vertices = [ProjPoint(field, [one if k == i else field.zero() for k in range(3)])
                for i in range(3)]
    # each vertex lies on two of the conics, a different two each: every
    # pair of conics meets at exactly one vertex
    at_vertices = incidence_rows(vertices, conics, row_sum=2)
    if len({tuple(row) for row in at_vertices}) != 3:
        raise VerificationError("degenerate conics do not meet at one vertex")
    # the product agrees with the a = 1 limit of the sextic generator
    limit = conic_equations(field, one)[:3]
    prod = conics[0] * conics[1] * conics[2]
    if not (limit[0] * limit[1] * limit[2]).proportional_to(prod):
        raise VerificationError("a = 1 limit of F6 disagrees")
    return {"conics": conics, "triple_points": triple_points,
            "vertices": vertices}


def branch_quintic(field, a):
    """The branch quintic of the double-plane model at parameter a.

    Expected singularities: one tacnodal double point (repeated tangent)
    and four further double points, all confirmed by the finite-field
    census at good specializations.
    """
    e = field.eps()
    a = field.coerce(a)
    e2 = e * e
    X, Y, Z = gens(field)
    a3 = a**3
    a6 = a3 * a3
    return (X**3 * Y**2
            + 2 * e * X**2 * Y**3
            + e2 * X * Y**4
            + 2 * e2 * X**3 * Y * Z
            + (2 * a3 + 4) * X**2 * Y**2 * Z
            + 2 * e * a3 * X * Y**3 * Z
            + 2 * e2 * (2 * a3 - 1) * Y**4 * Z
            + e * (-4 * a3 + 1) * X**3 * Z**2
            + e2 * (-10 * a3 + 4) * X**2 * Y * Z**2
            + (a6 - 12 * a3 - 4) * X * Y**2 * Z**2
            + 4 * e * (a3 - 2) * Y**3 * Z**2
            + e * (-4 * a6 - 16 * a3 + 2) * X**2 * Z**3
            - 8 * e2 * (5 * a3 + 1) * X * Y * Z**3
            + (2 * a6 - 32 * a3 - 16) * Y**2 * Z**3
            + e * (-16 * a6 - 16 * a3 - 4) * X * Z**4
            - 8 * e2 * (5 * a3 + 2) * Y * Z**4
            + e * (-16 * a6 - 8) * Z**5)


def conic_is_line_pair(C):
    """Exact degeneracy test via the symmetric matrix determinant (char != 2)."""
    field = C.field
    if field.characteristic == 2:
        raise GeometryError("determinant test needs characteristic != 2")
    half = field.from_int(2).inverse()

    def coeff(i, j, k):
        return C.terms.get((i, j, k), field.zero())

    m = [[coeff(2, 0, 0), half * coeff(1, 1, 0), half * coeff(1, 0, 1)],
         [half * coeff(1, 1, 0), coeff(0, 2, 0), half * coeff(0, 1, 1)],
         [half * coeff(1, 0, 1), half * coeff(0, 1, 1), coeff(0, 0, 2)]]
    det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
           - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
           + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
    return det.is_zero()


def degenerate_configuration():
    """The 9 conics + 3 lines at the simple-root parameter a = -2.

    At a = -2 exactly one fiber of conics breaks into pairs of the lines
    of the triangle member x^3 + y^3 + z^3 - 3xyz, the triple
    `hesse_singular_fibers(Q(e))[1]`.  Returns (data, lines): the other
    nine conics as a ChileanData over Q(e), its fibers the three that
    survive, and the three triangle lines.
    """
    field = QQ_EPS
    a = field.from_int(-2)
    conics = conic_equations(field, a)
    lines = hesse_singular_fibers(field)[1]
    broken = [fiber for fiber in FIBERS
              if all(conic_is_line_pair(conics[j]) for j in fiber)]
    if len(broken) != 1:
        raise VerificationError(
            f"expected exactly one degenerate fiber at a = -2, got {broken}")
    # the degenerate fiber's conics are exactly the pairwise line products
    pair_products = [lines[i] * lines[j] for i, j in ((0, 1), (0, 2), (1, 2))]
    matched = {k for j in broken[0] for k, prod in enumerate(pair_products)
               if conics[j].proportional_to(prod)}
    if len(matched) != 3:
        raise VerificationError("degenerate fiber is not the triangle line pairs")
    keep = [j for fiber in FIBERS if fiber != broken[0] for j in fiber]
    supports = _expected_supports()
    data = ChileanData(field, a, base_points(field, a),
                       [conics[j] for j in keep], FIBERS[:3],
                       [supports[j] for j in keep])
    return data, lines


# ---------------------------------------------------------------------------
# the configuration and what is built on it, each part once


class Configuration:
    """The configuration at one parameter and the objects derived from it.

    `Configuration()` is the symbolic family over Q(e)(a); pass a field and
    a good parameter value for a specialized instance (see `build_chilean`).
    Each part is built on first access and kept.  `censuses` holds the
    arrangement censuses of `invariants.geometric_census`, by name.
    """

    def __init__(self, field=None, a=None):
        self._field = field
        self._a = a
        self.censuses = {}

    @cached_property
    def data(self):
        return build_chilean(self._field, self._a)

    @cached_property
    def pencil(self):
        return PencilPair(self.data)

    @cached_property
    def lambdas(self):
        return fiber_product_lambdas(self.data, self.pencil)

    @cached_property
    def special(self):
        return special_members(self.data, self.pencil)

    @cached_property
    def nodes(self):
        return fiber_nodes(self.data)

    @cached_property
    def node_points(self):
        return [n for _, n in self.nodes]

    @cached_property
    def lines_and_incidence(self):
        return dual_hesse_lines(self.data, self.nodes)

    @property
    def lines(self):
        return self.lines_and_incidence[0]

    @cached_property
    def degenerate(self):
        return degenerate_configuration()

    @cached_property
    def degenerate_nodes_and_vertices(self):
        """Nodes of the surviving fibers plus the triangle vertices at a = -2."""
        data, lines = self.degenerate
        return [n for _, n in fiber_nodes(data)] + [
            ProjPoint(QQ_EPS, cross(lines[i].coefficients(),
                                    lines[j].coefficients()))
            for i, j in ((0, 1), (0, 2), (1, 2))]

    @cached_property
    def harmonic_polars(self):
        """The nine dual lines at a = -2, over Q(e)."""
        return [L.specialize(QQ_EPS, eps_image=QQ_EPS.eps(),
                             a_image=QQ_EPS.from_int(-2)) for L in self.lines]


# ---------------------------------------------------------------------------
# finite-field singular point census


def singular_census(C):
    """All singular points of a curve over a finite field, classified.

    Returns a list of (point, multiplicity, kind) with kind one of
    'node', 'cusp' (double points with distinct/repeated tangents) or
    'mult3+' for higher multiplicity.  Characteristic 2 is refused since
    the tangent-cone discriminant needs 1/2.  The multiplicity and the
    cone are read from the Hasse derivatives (`_local_multiplicity`), exact
    in every characteristic, at each point that one `incidence_rows` pass
    over the plane finds on the curve.  Its order-1 test takes the two
    non-pivot partials only: on the curve, Euler's relation
    sum x_i dC/dx_i = deg(C) C = 0 makes the pivot partial vanish with them.
    """
    field = C.field
    if not field.is_finite:
        raise GeometryError("the census scans a finite plane")
    if field.characteristic == 2:
        raise GeometryError("census needs characteristic != 2")
    out = []
    points = list(plane_points(field))
    for P, (on,) in zip(points, incidence_rows(points, [C])):
        if not on:
            continue
        mult, cone = _local_multiplicity(C, P)
        if mult == 1:
            continue
        if mult == 2:
            alpha, beta, gamma = cone
            disc = beta * beta - 4 * alpha * gamma
            kind = "cusp" if disc.is_zero() else "node"
        else:
            kind = "mult3+"
        out.append((P, mult, kind))
    return out


def _local_multiplicity(C, P):
    """Local multiplicity and degree-2 tangent cone coefficients at a
    point P of C.

    With u, v the two variables other than the first nonzero coordinate of
    P, the Taylor coefficient of u^i v^j in C(P + u e_u + v e_v) is the
    Hasse derivative D^alpha C(P) with alpha_u = i and alpha_v = j: the
    multiplicity is the least order i + j with a nonzero one (order 0 is
    the value, zero on C), and the cone of a double point is its
    (u^2, uv, v^2) coefficients.
    """
    field = C.field
    zero = field.zero()
    pivot = next(i for i, c in enumerate(P.rep) if not c.is_zero())
    u, v = (i for i in range(3) if i != pivot)
    coeffs = C.coefficients()
    for order in range(1, C.degree + 1):
        alphas = []
        for i in range(order, -1, -1):
            alpha = [0, 0, 0]
            alpha[u], alpha[v] = i, order - i
            alphas.append(tuple(alpha))
        values = [sum((c * x for c, x in zip(coeffs, row)), zero)
                  for row in hasse_rows(P, C.degree, alphas)]
        if any(not x.is_zero() for x in values):
            return order, (tuple(values) if order == 2 else None)
    return None, None


# ---------------------------------------------------------------------------
# the symmetry group of the configuration


# d = diag(e^k for k in D_POWERS) scales the coordinates by powers of e
D_POWERS = (0, 1, 2)


def _compose(g, h):
    """The monomial map h after g, normalized to c_0 = 1.

    (t, d) after (s, c) sends x_i to d_i c_{t_i} x_{s_{t_i}}.
    """
    (s, c), (t, d) = g, h
    scale = (d[0] * c[t[0]]).inverse()
    return (tuple(s[k] for k in t),
            tuple(d[i] * c[t[i]] * scale for i in range(3)))


def symmetry_group(field):
    """The six products s^i d^j, s = (z:y:x) and d = (x : ey : e^2 z).

    Both are monomial maps x -> (c_0 x_{s_0} : c_1 x_{s_1} : c_2 x_{s_2}),
    and so is every composite (`_compose`).  An element is the pair
    (s, c), normalized to c_0 = 1.  With s^2 = d^3 = 1 and sds = d^2, all
    checked, the six products are the whole group s and d generate; they
    are returned once each.
    """
    e, one = field.eps(), field.one()
    identity = ((0, 1, 2), (one, one, one))
    s = ((2, 1, 0), (one, one, one))
    d = ((0, 1, 2), tuple(e ** k for k in D_POWERS))
    d2 = _compose(d, d)
    if (_compose(s, s) != identity or _compose(d2, d) != identity
            or _compose(_compose(s, d), s) != d2):
        raise VerificationError("the generators break s^2 = d^3 = 1, sds = d^2")
    return list(dict.fromkeys(_compose(a, b) for a in (identity, s)
                              for b in (identity, d, d2)))


def verify_symmetries(data):
    """Each symmetry permutes the base points and the conics fiberwise.

    The symmetry (s, c) moves a point P to (c_0 P_{s_0} : c_1 P_{s_1} :
    c_2 P_{s_2}) and a conic C to C(c_0 x_{s_0}, c_1 x_{s_1}, c_2 x_{s_2}):
    its term k x^e becomes k c^e x^f with f_{s_i} = e_i.  The image of C
    vanishes at P exactly where C vanishes at the image of P, so it can
    only be the conic whose support is the preimage of C's support; the
    twelve supports are distinct, and the image must be proportional to
    that conic.
    """
    supports = [frozenset(i for i, row in enumerate(data.incidence) if row[j])
                for j in range(len(data.conics))]
    by_support = {S: j for j, S in enumerate(supports)}
    if len(by_support) != len(supports):
        raise VerificationError("two conics meet the same base points")
    index = {P: i for i, P in enumerate(data.points)}
    reports = []
    for s, c in symmetry_group(data.field):
        point_perm = [index.get(ProjPoint(data.field, tuple(c[i] * P.rep[s[i]]
                                                            for i in range(3))))
                      for P in data.points]
        if None in point_perm:
            raise VerificationError("a symmetry moves a base point off the set")
        scale = {e: c[0] ** e[0] * c[1] ** e[1] * c[2] ** e[2]
                 for e in monomials_of_degree(2)}  # c^e of every conic term
        conic_perm = []
        for C, support in zip(data.conics, supports):
            img = Poly3(data.field, C.degree, {
                tuple(e[s.index(v)] for v in range(3)): k * scale[e]
                for e, k in C.terms.items()})
            j = by_support.get(frozenset(
                i for i, image in enumerate(point_perm) if image in support))
            if j is None or not img.proportional_to(data.conics[j]):
                raise VerificationError("a symmetry moves a conic off the set")
            conic_perm.append(j)
        for fiber in data.fibers:
            if len({conic_perm[j] // 3 for j in fiber}) != 1:
                raise VerificationError("a symmetry breaks the fiber partition")
        reports.append({"points": point_perm, "conics": conic_perm})
    return reports


# ---------------------------------------------------------------------------
# export


def export_configuration(data, nodes, lines):
    """JSON-ready dict with canonical-text coefficients."""
    return {
        "field": repr(data.field),
        "a": to_text(data.a),
        "points": [p.to_text() for p in data.points],
        "conics": [c.to_text() for c in data.conics],
        "fibers": [list(f) for f in data.fibers],
        "incidence": data.incidence,
        "nodes": [{"conics": [i + 1, j + 1], "point": n.to_text()}
                  for (i, j), n in nodes],
        "dual_hesse_lines": [L.to_text() for L in lines],
    }

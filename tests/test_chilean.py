import json
import random
from itertools import combinations, permutations
from operator import mul

import pytest

from halphen.cubic import flex_line_incidence, hesse_flexes, hesse_singular_fibers
from halphen.field import GF, QQ_EPS, QQ_EPS_A, GFext, to_text
from halphen.linalg import kernel_basis
from halphen.plane import (GeometryError, Poly3, ProjPoint, cross, gens,
                           incidence_rows, monomials_of_degree, plane_points)
from halphen.chilean import (Configuration, VerificationError,
                             _local_multiplicity, branch_quintic,
                             build_chilean, check_good_parameter,
                             conic_equations, conic_is_line_pair, conic_matrix,
                             cross_ratio,
                             cross_ratio_probe, degenerate_configuration,
                             degenerate_pencil, export_configuration,
                             fiber_nodes, fiber_product_lambdas,
                             fourth_intersection, hesse_parameter,
                             pencil_membership, singular_census,
                             special_members, symmetry_group,
                             verify_symmetries, base_points)
from oracles import line_basis
from test_plane import _random_scalar, gradient

INFINITY = "infinity"  # the cross-ratio oracle's point at infinity


def test_conic_one_incidence(symbolic_data):
    p1 = symbolic_data.points[0]
    p7 = symbolic_data.points[6]
    conic1 = symbolic_data.conics[0]
    assert conic1.evaluate(p1).is_zero()
    value = conic1.evaluate(p7)
    assert not value.is_zero()
    a = symbolic_data.a
    assert value == 1 - a**3


def test_incidence_row_and_column_sums(symbolic_data):
    rows = [sum(r) for r in symbolic_data.incidence]
    cols = [sum(symbolic_data.incidence[i][j] for i in range(9)) for j in range(12)]
    assert rows == [8] * 9
    assert cols == [6] * 12


def test_sextic_generator_expansion(symbolic_data, pencil):
    # the product of the first three conics in fully expanded form
    A = symbolic_data.field
    a = symbolic_data.a
    X, Y, Z = gens(A)
    expected = (a**2 * (X**3 * Y**3 + X**3 * Z**3 + Y**3 * Z**3)
                - a * (X**4 * Y * Z + X * Y**4 * Z + X * Y * Z**4)
                + (1 - a**3) * (X * Y * Z)**2)
    assert pencil.F6 == expected


def test_pencil_membership_cases(symbolic_data, pencil):
    assert pencil_membership(pencil, pencil.G3_squared) is None
    prod = symbolic_data.conics[0] * symbolic_data.conics[1] * symbolic_data.conics[2]
    lam = pencil_membership(pencil, prod)
    assert lam == symbolic_data.field.zero()
    X, Y, Z = gens(symbolic_data.field)
    assert pencil_membership(pencil, X**6) is None


def test_fiber_lambdas_distinct_and_finite(symbolic_data, pencil):
    lams = fiber_product_lambdas(symbolic_data, pencil)
    assert len(lams) == 4
    assert lams[0].is_zero()
    assert len({to_text(l) for l in lams}) == 4
    # members at the four values are pairwise non-proportional
    members = [pencil.F6 + pencil.G3_squared.scale(l) for l in lams]
    for i in range(4):
        for j in range(i + 1, 4):
            assert not members[i].proportional_to(members[j])


def test_base_points_on_hesse_member(symbolic_data):
    A = symbolic_data.field
    a = symbolic_data.a
    t = hesse_parameter(A, a)
    assert t == -(a**3 + 2) / a
    X, Y, Z = gens(A)
    member = X**3 + Y**3 + Z**3 + t * X * Y * Z
    for P in symbolic_data.points:
        assert member.evaluate(P).is_zero()


def test_nodes(symbolic_data, nodes):
    assert len(nodes) == 12
    points = [n for _, n in nodes]
    assert len(set(points)) == 12
    # fiber 1 nodes are the coordinate vertices
    F = symbolic_data.field
    vertices = {ProjPoint(F, (F.one(), F.zero(), F.zero())),
                ProjPoint(F, (F.zero(), F.one(), F.zero())),
                ProjPoint(F, (F.zero(), F.zero(), F.one()))}
    assert set(points[:3]) == vertices
    for (i, j), P in nodes:
        on = [k for k in range(12)
              if symbolic_data.conics[k].evaluate(P).is_zero()]
        assert on == sorted((i, j))
        assert P not in symbolic_data.points


def test_dual_hesse_configuration(symbolic_data, nodes, dual_lines):
    lines, incidence = dual_lines
    assert len(lines) == 9
    assert all(sum(r) == 4 for r in incidence)
    for j in range(12):
        assert sum(incidence[i][j] for i in range(9)) == 3
    for i, L in enumerate(lines):
        on_base = [k for k in range(9)
                   if L.evaluate(symbolic_data.points[k]).is_zero()]
        assert on_base == [i]


def test_special_members(symbolic_data, pencil):
    sp = special_members(symbolic_data, pencil)
    assert sp["caylean"].proportional_to(pencil.G3)
    lam = sp["lambda"]
    member = pencil.F6 + pencil.G3_squared.scale(lam)
    assert sp["cuspidal_sextic"].proportional_to(member)
    assert set(sp) == {"cuspidal_sextic", "caylean", "lambda"}


def test_cuspidal_sextic_census(symbolic_data, pencil):
    sp = special_members(symbolic_data, pencil)
    F = GF(13)
    a = F.from_int(2)
    sextic = sp["cuspidal_sextic"].specialize(F, eps_image=F.eps(), a_image=a)
    census = singular_census(sextic)
    assert len(census) == 9
    assert all(kind == "cusp" for _, _, kind in census)
    specialized = build_chilean(F, a)
    assert {P for P, _, _ in census} == set(specialized.points)


def test_singular_census_basics():
    F = GF(13)
    X, Y, Z = gens(F)
    assert singular_census(X * Y - Z**2) == []
    cuspidal = Z * Y**2 - X**3
    census = singular_census(cuspidal)
    assert len(census) == 1
    P, mult, kind = census[0]
    assert P == ProjPoint(F, (F.zero(), F.zero(), F.one()))
    assert mult == 2 and kind == "cusp"
    nodal = Z * Y**2 - X**2 * (X + Z)
    census = singular_census(nodal)
    assert len(census) == 1 and census[0][2] == "node"


def test_branch_quintic_census():
    F = GF(13)
    W = branch_quintic(F, F.from_int(2))
    census = singular_census(W)
    kinds = sorted(k for _, _, k in census)
    assert len(census) == 5
    assert kinds.count("cusp") == 1  # the tacnodal point has a repeated tangent
    assert kinds.count("node") == 4


def substitute_linear(C, matrix):
    """Oracle: C with x_i -> sum_j M[i][j] x_j, expanded term by term."""
    F = C.field
    X = gens(F)
    images = [sum((X[j] * matrix[i][j] for j in range(3)), Poly3.zero(F, 1))
              for i in range(3)]
    out = Poly3.zero(F, C.degree)
    for exp, c in C.terms.items():
        term = Poly3(F, 0, {(0, 0, 0): c})
        for v in range(3):
            term = term * images[v] ** exp[v]
        out = out + term
    return out


def substituted_multiplicity(C, P):
    """Oracle: expand C(s*u + t*v + w*P), u and v the unit vectors of the
    two non-pivot coordinates, and read the least (s, t)-order and, for a
    double point, the (s^2, st, t^2) coefficients."""
    F = C.field
    pivot = next(i for i, c in enumerate(P.coords) if not c.is_zero())
    u, v = (i for i in range(3) if i != pivot)
    unit = lambda k, i: F.one() if i == k else F.zero()  # noqa: E731
    local = substitute_linear(C, [[unit(u, i), unit(v, i), P.coords[i]]
                                  for i in range(3)])
    mult = min(i + j for i, j, _ in local.terms)
    cone = None
    if mult == 2:
        cone = tuple(local.terms.get((i, 2 - i, C.degree - 2), F.zero())
                     for i in (2, 1, 0))
    return mult, cone


def test_local_multiplicity_matches_the_substitution(configuration):
    F = GF(13)
    a = F.from_int(2)
    X, Y, Z = gens(F)
    sextic = configuration.special["cuspidal_sextic"].specialize(F, F.eps(), a)
    pairs = [(C, P) for C in (sextic, branch_quintic(F, a))
             for P, _, _ in singular_census(C)]
    assert len(pairs) == 14
    triple = Y * (X**3 + Z**3) + X**4 - Z**4  # at (0:1:0)
    quadruple = Z * (X**4 - Y**4) + X**5 + 2 * Y**5  # at (0:0:1)
    for C in (Z * Y**2 - X**3, Z * Y**2 - X**2 * (X + Z), triple, quadruple):
        pairs += [(C, P) for P in plane_points(F) if C.evaluate(P).is_zero()]
    assert len(pairs) > 50
    for C, P in pairs:
        assert _local_multiplicity(C, P) == substituted_multiplicity(C, P)
    assert _local_multiplicity(triple, ProjPoint(F, (0, 1, 0))) == (3, None)
    assert _local_multiplicity(quadruple, ProjPoint(F, (0, 0, 1))) == (4, None)


def gradient_census(C):
    """Oracle: the points where C and its three ordinary partials vanish,
    classified by the substituted local expansion."""
    grads = gradient(C)
    out = []
    for P in plane_points(C.field):
        if all(D.evaluate(P).is_zero() for D in [C] + grads):
            mult, cone = substituted_multiplicity(C, P)
            kind = "mult3+"
            if mult == 2:
                kind = ("cusp" if (cone[1] * cone[1] - 4 * cone[0] * cone[2]).is_zero()
                        else "node")
            out.append((P, mult, kind))
    return out


def test_singular_census_matches_the_gradient_oracle(configuration):
    F = GF(13)
    a = F.from_int(2)
    X, Y, Z = gens(F)
    sextic = configuration.special["cuspidal_sextic"].specialize(F, F.eps(), a)
    curves = [sextic, branch_quintic(F, a), X * Y - Z**2, Z * Y**2 - X**3,
              Z * Y**2 - X**2 * (X + Z), Y * (X**3 + Z**3) + X**4 - Z**4,
              Z * (X**4 - Y**4) + X**5 + 2 * Y**5]
    kinds = []
    for C in curves:
        census = singular_census(C)
        assert census == gradient_census(C)
        kinds += [kind for _, _, kind in census]
    assert sorted(kinds) == ["cusp"] * 11 + ["mult3+"] * 2 + ["node"] * 6


def matrix_symmetries(data):
    """Oracle: the sorted (point, conic) permutations of the closure of the
    two generators as normalized 3x3 matrices, acting by matrix products
    and linear substitution."""
    F = data.field
    e, one, zero = F.eps(), F.one(), F.zero()
    s1 = ((zero, zero, one), (zero, one, zero), (one, zero, zero))
    s2 = ((one, zero, zero), (zero, e, zero), (zero, zero, e * e))

    def normalize(m):
        inv = next(c for row in m for c in row if not c.is_zero()).inverse()
        return tuple(tuple(c * inv for c in row) for row in m)

    def mul(m, n):
        return tuple(tuple(sum((m[i][k] * n[k][j] for k in range(3)), zero)
                           for j in range(3)) for i in range(3))

    identity = normalize(((one, zero, zero), (zero, one, zero), (zero, zero, one)))
    group, frontier = {identity}, [identity]
    while frontier:
        frontier = [h for h in {normalize(mul(s, g)) for g in frontier for s in (s1, s2)}
                    if h not in group]
        group.update(frontier)
    out = []
    for g in group:
        points = [data.points.index(ProjPoint(F, tuple(
            sum((g[i][j] * P.coords[j] for j in range(3)), zero) for i in range(3))))
            for P in data.points]
        conics = [next(j for j, D in enumerate(data.conics)
                       if substitute_linear(C, g).proportional_to(D))
                  for C in data.conics]
        out.append((points, conics))
    return sorted(out)


def test_symmetries_match_the_matrix_closure(symbolic_data):
    F = GF(13)
    for data in (symbolic_data, build_chilean(F, F.from_int(2))):
        got = sorted((r["points"], r["conics"]) for r in verify_symmetries(data))
        assert len(got) == 6
        assert got == matrix_symmetries(data)


def _ratio_orbit(R, field):
    """Oracle: the cross ratios of the six reorderings of R's ordering."""
    one = field.one()
    out = [R, one - R]
    if not R.is_zero():
        out += [one / R, (R - one) / R]
    if not (R - one).is_zero():
        out += [one / (one - R), R / (R - one)]
    return out


def affine_cross_ratio(z, field):
    """Oracle: (z1-z3)(z2-z4) / ((z2-z3)(z1-z4)) on values or INFINITY,
    with the infinite differences cancelled in pairs."""
    def diff(u, v):
        if u == INFINITY and v == INFINITY:
            raise VerificationError("cross ratio of coincident points")
        if u == INFINITY or v == INFINITY:
            return INFINITY
        return u - v
    pieces = (diff(z[0], z[2]), diff(z[1], z[3]), diff(z[1], z[2]), diff(z[0], z[3]))
    num, den = field.one(), field.one()
    balance = 0
    for i, x in enumerate(pieces):
        if x == INFINITY:
            balance += 1 if i < 2 else -1
        elif i < 2:
            num = num * x
        else:
            den = den * x
    if balance > 0 or den.is_zero():
        return INFINITY
    if balance < 0:
        return field.zero()
    return num / den


def homogeneous_ratio(z, field):
    """R = N/D of `cross_ratio` on (value : 1) and (1 : 0) for INFINITY."""
    one, zero = field.one(), field.zero()
    N, D = cross_ratio([(one, zero) if x == INFINITY else (x, one) for x in z])
    return INFINITY if D.is_zero() else N / D


@pytest.fixture(scope="module")
def specialized_lambdas():
    return Configuration(QQ_EPS, QQ_EPS.from_int(2)).lambdas


def test_cross_ratio_verdict_matches_the_orbit_oracle(configuration,
                                                     specialized_lambdas):
    # R^2 - R + 1 = 0 holds for R iff it holds somewhere on R's orbit, and
    # the homogeneous R is the affine one on all 120 orderings
    for field, lams in ((configuration.data.field, configuration.lambdas),
                        (QQ_EPS, specialized_lambdas)):
        values = list(lams) + [INFINITY]
        rep = cross_ratio_probe(lams, field)
        verdicts = [r["equianharmonic"] for r in rep["subsets"]]
        assert verdicts.count(True) == 1
        for idx, verdict in zip(combinations(range(5), 4), verdicts):
            for ordering in permutations(idx):
                z = [values[i] for i in ordering]
                R = homogeneous_ratio(z, field)
                assert R == affine_cross_ratio(z, field)
                orbit_hit = R != INFINITY and not R.is_zero() and any(
                    (T * T - T + 1).is_zero() for T in _ratio_orbit(R, field))
                assert orbit_hit == verdict
                assert (R != INFINITY and (R * R - R + 1).is_zero()) == verdict


def test_degenerate_pencil_and_configuration():
    rep = degenerate_pencil()
    assert len(rep["conics"]) == 3
    X, Y, Z = gens(QQ_EPS)
    one = QQ_EPS.one()
    assert (X**2 - Y * Z).evaluate(ProjPoint(QQ_EPS, (one, one, one))).is_zero()
    vertex = ProjPoint(QQ_EPS, (QQ_EPS.zero(), QQ_EPS.zero(), one))
    assert rep["conics"][0].evaluate(vertex).is_zero()
    assert rep["conics"][2].evaluate(vertex).is_zero()

    data, lines = degenerate_configuration()
    assert len(data.conics) == 9
    assert len(lines) == 3
    assert data.fibers == ((0, 1, 2), (3, 4, 5), (6, 7, 8))
    assert [sum(row) for row in data.incidence] == [6] * 9
    assert all(not conic_is_line_pair(C) for C in data.conics)
    X, Y, Z = gens(QQ_EPS)
    e = QQ_EPS.eps()
    assert lines == [X + Y + Z, X + e * Y + e * e * Z, X + e * e * Y + e * Z]


def shared_point_nodes(points, conics):
    """Oracle: the fourth point of each pair of conics in consecutive
    triples, from the base points both conics pass through."""
    out = []
    for f in range(len(conics) // 3):
        fiber = conics[3 * f: 3 * f + 3]
        for x in range(3):
            for y in range(x + 1, 3):
                shared = [P for P in points
                          if fiber[x].evaluate(P).is_zero()
                          and fiber[y].evaluate(P).is_zero()]
                assert len(shared) == 3
                out.append(fourth_intersection(fiber[x], fiber[y], shared))
    return out


def test_degenerate_nodes_match_the_shared_point_loop(configuration):
    data, _ = configuration.degenerate
    nodes = [n for _, n in fiber_nodes(data)]
    assert len(nodes) == 9
    assert nodes == shared_point_nodes(data.points, data.conics)
    assert configuration.degenerate_nodes_and_vertices[:9] == nodes


def test_degenerate_pencil_limit_is_the_specialized_sextic_generator(symbolic_data):
    # the conics are polynomial in a: the product of the first three at
    # a = 1 is F6 over Q(e)(a) specialized at a = 1, as degenerate_pencil
    # assumes
    conics = symbolic_data.conics
    f6_at_1 = (conics[0] * conics[1] * conics[2]).specialize(
        QQ_EPS, eps_image=QQ_EPS.eps(), a_image=QQ_EPS.one())
    limit = conic_equations(QQ_EPS, 1)[:3]
    assert f6_at_1 == limit[0] * limit[1] * limit[2]
    degenerate = degenerate_pencil()["conics"]
    assert f6_at_1.proportional_to(degenerate[0] * degenerate[1] * degenerate[2])


def test_bad_parameters_rejected():
    for a_int, field in ((0, QQ_EPS), (1, QQ_EPS), (-2, QQ_EPS)):
        with pytest.raises(VerificationError):
            check_good_parameter(field, field.from_int(a_int))
    with pytest.raises(VerificationError):
        build_chilean(QQ_EPS, QQ_EPS.one())
    e = QQ_EPS.eps()
    with pytest.raises(VerificationError):
        check_good_parameter(QQ_EPS, e)  # e^3 = 1


def test_base_points_collide_at_unit_parameter():
    pts = base_points(QQ_EPS, QQ_EPS.one())
    assert len(set(pts)) == 3


def test_symmetries(symbolic_data):
    reports = verify_symmetries(symbolic_data)
    assert len(reports) == 6
    perms = {tuple(r["points"]) for r in reports}
    assert tuple(range(9)) in perms
    assert len(perms) == 6


def test_cross_ratio_probe(configuration):
    rep = cross_ratio_probe(configuration.lambdas, configuration.data.field)
    assert len(rep["lambdas"]) == 4
    hits = [r for r in rep["subsets"] if r["equianharmonic"]]
    assert len(hits) == 1
    assert hits[0]["subset"] == ["lambda0", "lambda1", "lambda2", "lambda3"]
    assert hits[0]["ratio"] in ("-1*e", "-1 - 1*e")


def test_cross_ratio_infinity_handling():
    F = QQ_EPS
    one, zero = F.one(), F.zero()
    z = [(zero, one), (one, one), (F.from_int(2), one), (one, zero)]
    N, D = cross_ratio(z)
    # (0-2)(1-oo)/((1-2)(0-oo)) -> (0-2)/(1-2) = 2
    assert N / D == F.from_int(2)
    assert affine_cross_ratio([zero, one, F.from_int(2), INFINITY], F) == N / D
    # z1 = z2 makes D = 0 and R infinite
    N, D = cross_ratio([(zero, one), (one, zero), (one, zero), (one, one)])
    assert D.is_zero() and not N.is_zero()


def closure_symmetries(field):
    """Oracle: the breadth-first closure of the two generators under the
    monomial-map composition."""
    e, one = field.eps(), field.one()
    identity = ((0, 1, 2), (one, one, one))
    generators = (((2, 1, 0), (one, one, one)), ((0, 1, 2), (one, e, e * e)))
    group, frontier = {identity}, [identity]
    while frontier:
        nxt = []
        for s, c in frontier:
            for t, d in generators:
                scale = (d[0] * c[t[0]]).inverse()
                h = (tuple(s[k] for k in t),
                     tuple(d[i] * c[t[i]] * scale for i in range(3)))
                if h not in group:
                    group.add(h)
                    nxt.append(h)
        frontier = nxt
    return group


def test_symmetry_products_are_the_closure(symbolic_data):
    for field in (QQ_EPS, GF(13), symbolic_data.field):
        group = symmetry_group(field)
        assert len(group) == 6
        assert set(group) == closure_symmetries(field)


def evaluate_table(points, curves):
    """Oracle: the incidence of points and curves, one `evaluate` per pair."""
    return [[1 if C.evaluate(P).is_zero() else 0 for C in curves]
            for P in points]


def test_incidence_rows_match_the_per_pair_loops(configuration):
    data, nodes, lines = configuration.data, configuration.node_points, configuration.lines
    degenerate, triangle = configuration.degenerate
    pencil_rep = degenerate_pencil()
    flex_lines = [L for triple in hesse_singular_fibers(QQ_EPS) for L in triple]
    F16 = GFext(2, 4)
    char2 = Configuration(F16, F16.gen())
    cases = [
        (data.points, data.conics),  # build_chilean
        (nodes, data.conics),  # fiber_nodes
        (nodes, lines), (data.points, lines),  # dual_hesse_lines
        (hesse_flexes(QQ_EPS), flex_lines),  # flex_line_incidence
        (pencil_rep["triple_points"], pencil_rep["conics"]),  # degenerate_pencil
        (pencil_rep["vertices"], pencil_rep["conics"]),
        (degenerate.points, degenerate.conics),  # degenerate_configuration
        (configuration.degenerate_nodes_and_vertices, degenerate.conics),
        (list(char2.data.points) + char2.node_points,
         char2.lines + char2.data.conics),  # char2_code
    ]
    for points, curves in cases:
        assert incidence_rows(points, curves) == evaluate_table(points, curves)
    assert data.incidence == evaluate_table(data.points, data.conics)
    assert degenerate.incidence == evaluate_table(degenerate.points, degenerate.conics)
    by_line = [list(col) for col in zip(*evaluate_table(nodes, lines))]
    assert configuration.lines_and_incidence[1] == by_line
    assert flex_line_incidence(QQ_EPS) == [
        list(col) for col in zip(*evaluate_table(hesse_flexes(QQ_EPS), flex_lines))]


def test_incidence_rows_check_the_counts():
    X, Y, Z = gens(QQ_EPS)
    one, zero = QQ_EPS.one(), QQ_EPS.zero()
    points = [ProjPoint(QQ_EPS, (one, zero, zero)), ProjPoint(QQ_EPS, (zero, one, zero))]
    assert incidence_rows(points, [X, Y, Z], row_sum=2) == [[0, 1, 1], [1, 0, 1]]
    assert incidence_rows(points, [X, Y], row_sum=1, column_sum=1) == [[0, 1], [1, 0]]
    with pytest.raises(GeometryError, match="point 1 has 2 incidences, expected 1"):
        incidence_rows(points, [X, Y, Z], row_sum=1)
    with pytest.raises(GeometryError, match="curve 3 has 2 incidences, expected 1"):
        incidence_rows(points, [X, Y, Z], column_sum=1)


def test_export_round_trips_through_json(symbolic_data, nodes, dual_lines):
    lines, _ = dual_lines
    doc = export_configuration(symbolic_data, nodes, lines)
    text = json.dumps(doc)
    back = json.loads(text)
    assert len(back["points"]) == 9
    assert len(back["conics"]) == 12
    assert len(back["nodes"]) == 12
    assert len(back["dual_hesse_lines"]) == 9
    assert back["incidence"] == symbolic_data.incidence


def test_specialized_build_matches_symbolic(symbolic_data):
    F = GF(13)
    a = F.from_int(2)
    spec = build_chilean(F, a)
    assert spec.incidence == symbolic_data.incidence
    for sym_c, spec_c in zip(symbolic_data.conics, spec.conics):
        image = sym_c.specialize(F, eps_image=F.eps(), a_image=a)
        assert image == spec_c


def _tangential(adj, g):
    """g^T adj g, by plain + and *."""
    return sum(x * sum(map(mul, row, g)) for x, row in zip(g, adj))


@pytest.mark.parametrize("field", [GF(13), QQ_EPS, QQ_EPS_A],
                         ids=["GF(13)", "Q(e)", "Q(e)(a)"])
def test_conic_matrix_zero_tests_match_the_oracles(field):
    # det N = 0 against a singular point (a kernel of the gradient's
    # coefficient rows), and g^T adj(N) g = 0 against the discriminant of
    # the conic restricted to the line, on elements and on the ints of
    # pack_vectors sized as conic_matrix states: det N 3 factors with
    # multipliers totalling 16, g^T adj(N) g 4 factors totalling 33
    rng = random.Random(41)
    X, Y, Z = gens(field)

    def line():
        while True:
            g = [_random_scalar(field, rng) for _ in range(3)]
            if any(not c.is_zero() for c in g):
                return g

    def linear(g):
        return X * g[0] + Y * g[1] + Z * g[2]

    seen = {(kind, zero): 0 for kind in ("pair", "tangent") for zero in (True, False)}
    for _ in range(12):
        smooth = Poly3(field, 2, {e: _random_scalar(field, rng)
                                  for e in monomials_of_degree(2)})
        P = [_random_scalar(field, rng) for _ in range(2)] + [field.one()]
        smooth = smooth - Z * Z * smooth.evaluate(ProjPoint(field, P))  # through P
        g1, g2 = line(), line()
        node = cross(g1, g2)  # the pair's singular point, or 0 for a double line
        for C in (smooth, linear(g1) * linear(g2)):
            c = C.coefficients()
            det, adj = conic_matrix(c)
            rows = [D.coefficients() for D in gradient(C)]
            is_pair = bool(kernel_basis(rows, field))
            assert conic_is_line_pair(C) == det.is_zero() == is_pair
            form, (packed,), _ = field.pack_vectors(3, [c], 16)
            assert form.is_zero(conic_matrix(packed)[0]) == is_pair
            seen["pair", is_pair] += 1
            if C is smooth:  # the tangent at P, where C is smooth
                tangents = [] if is_pair else [[D.evaluate(ProjPoint(field, P))
                                                for D in gradient(C)]]
            else:  # a line through the node
                tangents = [cross(node, line())] * any(not x.is_zero() for x in node)
            for g in [line(), line()] + tangents:
                A, B = line_basis(field, g)
                b = C.restrict_to_line(A.rep, B.rep)
                touches = (b[1] * b[1] - 4 * b[0] * b[2]).is_zero()
                assert _tangential(adj, g).is_zero() == touches
                form, (pc, pg), _ = field.pack_vectors(4, [c, g], 33)
                assert form.is_zero(_tangential(conic_matrix(pc)[1], pg)) == touches
                seen["tangent", touches] += 1
    assert min(seen.values()) >= 4, seen


def test_conic_matrix_identities():
    # disc C(uA + vB) = -g^T adj(N) g with g = A x B, and det N = 8 det M
    sympy = pytest.importorskip("sympy")
    c = sympy.symbols("a b c d e f")
    A, B = sympy.symbols("A0:3"), sympy.symbols("B0:3")
    u, v = sympy.symbols("u v")
    M = sympy.Matrix([[c[0], c[1] / 2, c[2] / 2], [c[1] / 2, c[3], c[4] / 2],
                      [c[2] / 2, c[4] / 2, c[5]]])
    det, adj = conic_matrix(c)
    assert sympy.expand(det - 8 * M.det()) == 0
    assert sympy.expand(sympy.Matrix(adj) - (2 * M).adjugate()) == sympy.zeros(3)
    x = [u * a + v * b for a, b in zip(A, B)]
    restricted = sympy.Poly(sum(ci * x[0] ** m[0] * x[1] ** m[1] * x[2] ** m[2]
                                for ci, m in zip(c, monomials_of_degree(2))), u, v)
    b2, b1, b0 = (restricted.coeff_monomial(m) for m in (u**2, u * v, v**2))
    g = [A[1] * B[2] - A[2] * B[1], A[2] * B[0] - A[0] * B[2], A[0] * B[1] - A[1] * B[0]]
    assert sympy.expand(b1 * b1 - 4 * b0 * b2 + _tangential(adj, g)) == 0

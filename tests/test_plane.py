import random
from fractions import Fraction
from math import comb, factorial as factorial_of, prod
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from halphen.field import GF, QQ_EPS, QQ_EPS_A, GFext, MixedContextError
from halphen.linalg import kernel_basis
from halphen.plane import (GeometryError, Poly3, ProjPoint, are_collinear,
                           bf_divide_linear, cross, gens, hasse_rows, incidence_rows,
                           line_basis, line_through, monomials_of_degree, plane_points,
                           poly3_to_binary_form, poly_in_var, resultant, values_at)


def test_evaluate_at_flex():
    A = QQ_EPS_A
    a = A.gen()
    X, Y, Z = gens(A)
    t = -(a**3 + 2) / a
    hesse = X**3 + Y**3 + Z**3 + t * X * Y * Z
    flex = ProjPoint(A, (A.zero(), A.one(), A.from_int(-1)))
    assert hesse.evaluate(flex).is_zero()


def test_evaluate_rejects_points_over_another_field():
    F, G = GF(13), GF(7)
    X, Y, Z = gens(F)
    hesse = X**3 + Y**3 + Z**3 + 2 * X * Y * Z
    with pytest.raises(MixedContextError):
        hesse.evaluate(ProjPoint(G, (G.zero(), G.one(), -G.one())))
    with pytest.raises(MixedContextError):
        hesse.evaluate((G.zero(), G.one(), -G.one()))
    # a constant multiplies no coordinate, so only the coercion can object
    with pytest.raises(MixedContextError):
        Poly3(F, 0, {(0, 0, 0): F.one()}).evaluate(ProjPoint(G, (1, 2, 3)))
    # tuples of ints and points over a subfield are still coerced
    assert hesse.evaluate((0, 1, -1)).is_zero()
    assert hesse.evaluate((1, 2, 3)) == F.from_int(1 + 8 + 27 + 2 * 6)
    U, V, _ = gens(QQ_EPS_A)
    point = ProjPoint(QQ_EPS, (QQ_EPS.zero(), QQ_EPS.one(), -QQ_EPS.one()))
    assert (U**3 + V**3).evaluate(point) == QQ_EPS_A.one()


def term_sum(form, coords):
    """Oracle: a form's value at field-element coordinates, term by term."""
    x, y, z = coords
    return sum((c * x**i * y**j * z**k for (i, j, k), c in form.terms.items()),
               form.field.zero())


def test_evaluate_on_residues_matches_elements():
    # evaluate at a point, at ints and at elements, and values_at with the
    # forms of every degree sharing one set of tables, against the term sums
    rng = random.Random(3)
    for p in (7, 13, 199):
        F = GF(p)
        forms = []
        for degree in range(9):
            monos = monomials_of_degree(degree)
            for _ in range(6):
                terms = {e: F.from_int(rng.randrange(p))
                         for e in rng.sample(monos, rng.randint(0, len(monos)))}
                forms.append(Poly3(F, degree, terms))
        for _ in range(24):
            ints = [rng.randrange(-p, 2 * p) for _ in range(3)]
            if all(c % p == 0 for c in ints):
                ints[2] = 1
            elems = tuple(F.from_int(c) for c in ints)
            shared = values_at(forms, [ProjPoint(F, ints)])[0]
            for P, value in zip(forms, shared):
                assert value == term_sum(P, elems)
                assert P.evaluate(ProjPoint(F, ints)) == value
                assert P.evaluate(ints) == value  # coerced tuples
                assert P.evaluate(elems) == value
    with pytest.raises(MixedContextError):
        values_at([forms[0], gens(GF(7))[0]], [(1, 2, 3)])


def test_values_at_kept_monomial_tables_match_term_sums():
    # two evaluations of overlapping forms of other degrees at one point,
    # and one at its raw coordinates, agree with the term sums over Q(e),
    # Q(e)(a) and GF(p^k)
    rng = random.Random(5)
    for F in (QQ_EPS, QQ_EPS_A, GFext(13, 2)):
        elems = [F.from_int(c) for c in range(-3, 4)] + [F.eps(), F.eps() + 2]
        if F is QQ_EPS_A:
            elems.append(F.gen())
        forms = [Poly3(F, d, {e: rng.choice(elems)
                              for e in rng.sample(monomials_of_degree(d), d + 1)})
                 for d in (1, 2, 3, 2, 4)]
        for _ in range(6):
            coords = [rng.choice(elems) for _ in range(3)]
            if all(c.is_zero() for c in coords):
                coords[0] = F.one()
            point = ProjPoint(F, coords)
            first = values_at(forms[:3], [point])[0]
            second = values_at(forms[2:], [point])[0]
            assert first + second[1:] == [term_sum(P, point.rep) for P in forms]
            assert values_at(forms, [tuple(point.rep)])[0] == first + second[1:]


def test_packed_values_match_term_sums():
    # over GF(p^k) a value is a sum on ints packed in g, reduced once: dense
    # forms of degree 0 to 8 (the degree-8 torsion locus) against the term
    # sums, with points that have zero coordinates and the element whose
    # residues are all p - 1, which makes the packed coefficients largest
    rng = random.Random(11)
    for F in (GFext(13, 2), GFext(2, 4)):
        elems = list(F.elements())
        top = elems[-1]
        for d in range(9):
            forms = [Poly3(F, d, dict.fromkeys(monomials_of_degree(d), top))]
            forms += [Poly3(F, d, {e: rng.choice(elems) for e in monomials_of_degree(d)})
                      for _ in range(2)]
            points = [(top, top, top), (F.zero(), top, F.one()),
                      (F.zero(), F.zero(), rng.choice(elems[1:]))]
            points += [[rng.choice(elems) for _ in range(3)] for _ in range(4)]
            for coords in points:
                if all(c.is_zero() for c in coords):
                    continue
                point = ProjPoint(F, coords)
                assert values_at(forms, [point])[0] == [term_sum(P, point.rep) for P in forms]


def test_values_at_matches_the_hasse_row_oracle():
    # the one evaluator against an oracle outside it: a value is the dense
    # coefficient vector dotted with the alpha = 0 Hasse row at the point.
    # Sparse forms of degree 0 to 8 (and a zero form), points with zero
    # coordinates, and raw tuples of elements and of ints, in one call
    rng = random.Random(17)
    for F in (GF(7), GFext(13, 2), QQ_EPS, QQ_EPS_A):
        zero, one = F.zero(), F.one()
        elems = [F.from_int(c) for c in range(-2, 4)] + [F.eps(), F.eps() - 3]
        if F is QQ_EPS_A:
            elems += [F.gen(), one / (F.gen() + 1)]
        forms = [Poly3(F, d, {e: rng.choice(elems) for e in rng.sample(
            monomials_of_degree(d), rng.randint(1, min(4, d + 1)))}) for d in range(9)]
        forms.append(Poly3.zero(F, 3))
        points = [ProjPoint(F, c) for c in ((zero, one, rng.choice(elems)),
                                            (zero, zero, F.eps()), (one, zero, one))]
        points += [ProjPoint(F, [rng.choice(elems[1:]) for _ in range(3)])
                   for _ in range(3)]
        raw = [tuple(points[0].rep), tuple(points[-1].rep), (0, 1, 2), (3, 0, -1)]
        rows = values_at(forms, points + raw)
        assert len(rows) == len(points) + len(raw)
        for P, row in zip(points + raw, rows):
            point = P if isinstance(P, ProjPoint) else ProjPoint(F, P)
            oracle = [sum(map(mul, form.coefficients(),
                              hasse_rows(point, form.degree, [(0, 0, 0)])[0]), zero)
                      for form in forms]
            assert row == oracle
            assert [form.evaluate(P) for form in forms] == row
            assert values_at(forms, [P]) == [row]
    with pytest.raises(MixedContextError):
        values_at([gens(GF(7))[0], gens(QQ_EPS)[0]], [(1, 2, 3)])
    with pytest.raises(MixedContextError):
        values_at([gens(GF(7))[0]], [ProjPoint(GF(7), (1, 2, 3)),
                                     ProjPoint(GF(13), (1, 2, 3))])


def test_product_degree_and_terms():
    A = QQ_EPS_A
    a = A.gen()
    X, Y, Z = gens(A)
    prod = (X * Y - a * Z**2) * (X * Z - a * Y**2)
    assert prod.degree == 4
    assert len(prod.terms) <= 9


def partial(C, var):
    """Oracle: the ordinary partial derivative by variable 0, 1 or 2."""
    terms = {}
    for exp, c in C.terms.items():
        if exp[var]:
            new = list(exp)
            new[var] -= 1
            terms[tuple(new)] = c * exp[var]
    return Poly3(C.field, max(C.degree - 1, 0), terms)


def gradient(C):
    return [partial(C, var) for var in range(3)]


def coordinates_on_line(P, A, B):
    """Oracle helper: (u, v) with P = u*A + v*B projectively, for P on the
    line AB."""
    for i, j in ((0, 1), (0, 2), (1, 2)):
        det = A.coords[i] * B.coords[j] - A.coords[j] * B.coords[i]
        if not det.is_zero():
            u = P.coords[i] * B.coords[j] - P.coords[j] * B.coords[i]
            v = A.coords[i] * P.coords[j] - A.coords[j] * P.coords[i]
            return (u, v)
    raise GeometryError("degenerate line basis")


def test_coordinates_on_line_span_the_point():
    F = GF(13)
    for g in ((1, 2, 3), (0, 1, 5), (0, 0, 1)):
        A, B = line_basis(F, [F.from_int(c) for c in g])
        L = Poly3(F, 1, {e: F.from_int(c) for e, c
                         in zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), g)})
        on_line = [P for P in plane_points(F) if L.evaluate(P).is_zero()]
        assert len(on_line) == 14
        for P in on_line:
            u, v = coordinates_on_line(P, A, B)
            span = ProjPoint(F, tuple(u * a + v * b
                                      for a, b in zip(A.coords, B.coords)))
            assert span == P


def test_partial_derivative():
    F = QQ_EPS
    X, Y, Z = gens(F)
    assert partial(X * Y * Z, 0) == Y * Z
    assert gradient(X**3 + 2 * X * Y * Z) == [3 * X**2 + 2 * Y * Z, 2 * X * Z,
                                              2 * X * Y]
    assert partial(Y**2, 0).is_zero() and partial(X, 0) == Poly3(F, 0, {(0, 0, 0): F.one()})


def test_coefficients_follow_the_monomial_order():
    F = GF(31)
    X, Y, Z = gens(F)
    C = 3 * X**2 + 5 * Y * Z - Z**2
    assert C.coefficients() == [F.coerce(c) for c in (3, 0, 0, 0, 5, -1)]
    assert dict(zip(monomials_of_degree(2), C.coefficients())) == {
        e: C.terms.get(e, F.zero()) for e in monomials_of_degree(2)}
    assert (2 * X - Y).coefficients() == [F.coerce(c) for c in (2, -1, 0)]


def test_cross_product_meets_and_joins():
    F = QQ_EPS
    P, Q = ProjPoint(F, (1, 2, 3)), ProjPoint(F, (F.eps(), 0, 1))
    u = cross(P.coords, Q.coords)
    assert all(sum((a * b for a, b in zip(u, R.coords)), F.zero()).is_zero()
               for R in (P, Q))
    assert line_through(P, Q).coefficients() == list(u)
    assert all(c.is_zero() for c in cross(P.coords, [2 * c for c in P.coords]))


def test_degree_mismatch_on_add():
    F = QQ_EPS
    X, Y, Z = gens(F)
    with pytest.raises(GeometryError):
        X + X * Y


def test_zero_polynomial_add_is_tolerant():
    F = QQ_EPS
    X, Y, Z = gens(F)
    zero = Poly3.zero(F, 0)
    assert zero + X == X
    assert X + zero == X


def test_projpoint_canonical_and_scaling_invariant():
    F = GF(13)
    P = ProjPoint(F, (F.from_int(2), F.from_int(4), F.from_int(6)))
    lam = F.from_int(5)
    Q = ProjPoint(F, (F.from_int(2) * lam, F.from_int(4) * lam, F.from_int(6) * lam))
    assert P == Q
    assert hash(P) == hash(Q)
    assert P.coords[0] == 1


def test_zero_point_rejected():
    F = GF(7)
    with pytest.raises(GeometryError):
        ProjPoint(F, (F.zero(), F.zero(), F.zero()))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 12),
       st.integers(1, 12))
def test_vanishing_is_representative_independent(x, y, z, lam):
    F = GF(13)
    coords = (F.from_int(x), F.from_int(y), F.from_int(z))
    if all(c.is_zero() for c in coords):
        return
    X, Y, Z = gens(F)
    C = X * Y - Z**2 + X * X
    P = ProjPoint(F, coords)
    scaled = ProjPoint(F, tuple(c * F.from_int(lam) for c in coords))
    assert C.evaluate(P).is_zero() == C.evaluate(scaled).is_zero()


def test_plane_point_count():
    F = GF(7)
    pts = list(plane_points(F))
    assert len(pts) == 7 * 7 + 7 + 1
    assert len(set(pts)) == len(pts)


def test_line_through_and_collinearity():
    F = GF(13)
    P = ProjPoint(F, (F.one(), F.from_int(2), F.from_int(3)))
    Q = ProjPoint(F, (F.one(), F.from_int(5), F.from_int(11)))
    L = line_through(P, Q)
    assert L.evaluate(P).is_zero() and L.evaluate(Q).is_zero()
    R = ProjPoint(F, tuple(a + b for a, b in zip(P.coords, Q.coords)))
    assert are_collinear([P, Q, R])
    off = ProjPoint(F, (F.one(), F.zero(), F.zero()))
    assert L.evaluate(off).is_zero() == are_collinear([P, Q, off])


def test_resultant_divide_exact_exposes_fourth_root():
    # quartic resultant of two fiber conics, divided by three known roots
    A = QQ_EPS_A
    a = A.gen()
    e = A.eps()
    X, Y, Z = gens(A)
    C1 = X * Y - a * Z**2
    C2 = X * Z - a * Y**2
    res = resultant(C1, C2, 2)
    form = poly3_to_binary_form(res, (0, 1))
    known = [(a, A.one()), (e * a, e * e), (e * e * a, e)]
    for root in known:
        form = bf_divide_linear(form, root, A)
    assert len(form) == 2  # linear factor remains
    # the remaining root is (1 : 0), the shared coordinate of the vertex
    assert form[1].is_zero() and not form[0].is_zero()
    with pytest.raises(GeometryError):
        bf_divide_linear(form, (A.one(), A.one()), A)


def test_resultant_of_shared_component_vanishes():
    F = QQ_EPS
    X, Y, Z = gens(F)
    L = X + Y
    assert resultant(L * X, L * Y, 0).is_zero()  # degrees (2, 1) in x


def cofactor_det(mat):
    """Oracle: a determinant over a commutative ring by cofactor expansion."""
    if len(mat) == 1:
        return mat[0][0]
    return sum(((-1) ** j * mat[0][j] * cofactor_det([row[:j] + row[j + 1:] for row in mat[1:]])
                for j in range(len(mat))), Poly3.zero(mat[0][0].field))


def sylvester_resultant(P, Q, var):
    """Oracle: the Sylvester determinant at the actual degrees in `var`,
    both at least 1."""
    p, q = poly_in_var(P, var), poly_in_var(Q, var)
    m, n = len(p) - 1, len(q) - 1
    zero = Poly3.zero(P.field)
    rows = [[zero] * i + p[::-1] + [zero] * (n - 1 - i) for i in range(n)]
    rows += [[zero] * i + q[::-1] + [zero] * (m - 1 - i) for i in range(m)]
    return cofactor_det(rows)


def _random_scalar(F, rng):
    if F.is_finite:
        return rng.choice(list(F.elements()))
    c = F.from_int(rng.randint(-3, 3)) + F.from_int(rng.randint(-3, 3)) * F.eps()
    if F is QQ_EPS_A:
        c = c + F.from_int(rng.randint(-2, 2)) * F.gen()
    return c / F.from_int(rng.randint(1, 3))


def _form_of_degree_in(F, rng, total, var, deg):
    """A random form of total degree `total` and degree exactly `deg` in
    variable `var`, with about a third of its other coefficients zero."""
    lead = next(e for e in monomials_of_degree(total) if e[var] == deg)
    terms = {e: _random_scalar(F, rng) for e in monomials_of_degree(total)
             if e[var] <= deg and rng.random() < 0.7}
    while True:
        terms[lead] = _random_scalar(F, rng)
        if not terms[lead].is_zero():
            return Poly3(F, total, terms)


@pytest.mark.parametrize("field", [GF(13), GFext(7, 2), QQ_EPS, QQ_EPS_A],
                         ids=["GF(13)", "GF(7^2)", "Q(e)", "Q(e)(a)"])
def test_resultant_matches_the_sylvester_determinant(field):
    # the closed forms against the cofactor expansion, with the sign, at
    # the pairs of degrees in the eliminated variable that the nodes of two
    # conics meet; every other pair a conic or a line has raises
    rng = random.Random(5)
    pairs = [(0, 0), (0, 1), (2, 0), (0, 2), (1, 1), (1, 2), (2, 1), (2, 2)]
    nonzero = 0
    for trial in range(4):
        var = trial % 3
        for m, n in pairs:
            P = _form_of_degree_in(field, rng, max(m, rng.randint(0, 2)), var, m)
            Q = _form_of_degree_in(field, rng, max(n, rng.randint(0, 2)), var, n)
            if (m, n) not in ((1, 1), (2, 1), (2, 2)):
                with pytest.raises(GeometryError):
                    resultant(P, Q, var)
                continue
            got, want = resultant(P, Q, var), sylvester_resultant(P, Q, var)
            assert got.terms == want.terms
            degree = P.degree * n + Q.degree * m - m * n
            assert got.is_zero() or got.degree == want.degree == degree
            nonzero += not got.is_zero()
    assert nonzero >= 10


def test_resultant_refuses_a_cubic():
    X, Y, Z = gens(GF(13))
    conic = X * Y - Z**2
    cubic = X**3 + Y * Z**2
    for P, Q in ((cubic, conic), (conic, cubic), (cubic, Z)):
        with pytest.raises(GeometryError):
            resultant(P, Q, 0)
    assert resultant(cubic, conic, 1) == sylvester_resultant(cubic, conic, 1)


def ordinary_derivative_rows(point, degree, r):
    """Oracle: every ordinary partial of order < r of each monomial of the
    degree, at the point, one row per multi-index (i, j, order - i - j)."""
    field = point.field
    rows = []
    for order in range(r):
        for i in range(order + 1):
            for j in range(order + 1 - i):
                row = []
                for e in monomials_of_degree(degree):
                    D = Poly3(field, degree, {e: field.one()})
                    for var, times in enumerate((i, j, order - i - j)):
                        for _ in range(times):
                            D = partial(D, var)
                    row.append(D.evaluate(point))
                rows.append(((i, j, order - i - j), row))
    return rows


def _points_over_each_field():
    A, E = QQ_EPS_A, GFext(7, 2)
    a, e, g = A.gen(), QQ_EPS.eps(), E.gen()
    return [ProjPoint(GF(31), (3, 30, 7)),
            ProjPoint(E, (g, g * g + 2, E.one())),
            ProjPoint(QQ_EPS, (1 + e, QQ_EPS.from_int(-2), e / 3)),
            ProjPoint(A, (a, A.eps() * a + 1, a * a - 2))]


def test_hasse_rows_are_the_ordinary_partials_over_alpha_factorial():
    for P in _points_over_each_field():
        for degree in range(6):
            for alpha, row in ordinary_derivative_rows(P, degree, 3):
                hasse = hasse_rows(P, degree, [alpha])[0]
                factorial = prod(factorial_of(n) for n in alpha)
                assert row == [x * factorial for x in hasse]


def test_hasse_rows_are_exact_in_characteristic_p():
    # sextics with multiplicity >= 6 at (0:0:1) over GF(5) are the forms
    # in x and y alone; the ordinary partials by x^5 and by y^5 carry the
    # factor 5! = 0, so they miss x^5 z and y^5 z
    F = GF(5)
    P = ProjPoint(F, (0, 0, 1))
    alphas = [a for order in range(6) for a in monomials_of_degree(order)]
    assert len(kernel_basis(hasse_rows(P, 6, alphas), F)) == 7
    ordinary = [row for _, row in ordinary_derivative_rows(P, 6, 6)]
    assert len(kernel_basis(ordinary, F)) == 9


def element_hasse_rows(point, degree, alphas):
    """Oracle: the Hasse rows as products of field elements, the binomial
    multiplied in through the field's coercion of an int."""
    field = point.field
    x, y, z = point.rep
    rows = []
    for a0, a1, a2 in alphas:
        row = []
        for e0, e1, e2 in monomials_of_degree(degree):
            if e0 < a0 or e1 < a1 or e2 < a2:
                row.append(field.zero())
                continue
            value = x**(e0 - a0) * y**(e1 - a1) * z**(e2 - a2)
            row.append(value * (comb(e0, a0) * comb(e1, a1) * comb(e2, a2)))
        rows.append(row)
    return rows


def test_hasse_rows_on_residues_match_the_element_products():
    # the binomials reach p and beyond, and zero coordinates meet zero powers
    rng = random.Random(11)
    alphas = [a for order in range(3) for a in monomials_of_degree(order)]
    for p in (5, 7, 13):
        F = GF(p)
        points = [ProjPoint(F, c) for c in ((1, 0, 0), (0, 1, 0), (0, 0, 1),
                                            (1, 0, 2), (0, 1, p - 1))]
        points += rng.sample(list(plane_points(F)), 6)
        for P in points:
            for degree in range(1, 9):
                rows = hasse_rows(P, degree, alphas)
                assert rows == element_hasse_rows(P, degree, alphas)
                assert all(v.field is F for row in rows for v in row)


def test_monomials_of_degree():
    assert len(monomials_of_degree(2)) == 6
    assert len(monomials_of_degree(6)) == 28
    assert all(sum(m) == 4 for m in monomials_of_degree(4))


def test_specialize_commutes_with_evaluation(symbolic_data):
    # specialize then evaluate = evaluate then specialize
    from halphen.field import specialize_scalar
    F = GF(13)
    eps, a = F.eps(), F.from_int(2)
    for C in symbolic_data.conics[:4]:
        for P in symbolic_data.points[:4]:
            direct = specialize_scalar(C.evaluate(P), F, eps, a)
            image = ProjPoint(F, tuple(specialize_scalar(c, F, eps, a) for c in P.rep))
            via_images = C.specialize(F, eps, a).evaluate(image)
            assert direct == via_images


def _text_forms():
    """Forms over GF(13), GF(7^2) and Q(e) whose coefficients print with a
    sign, a slash, a product or a sum, and constants of each field."""
    F, G = GF(13), GFext(7, 2)
    X, Y, Z = gens(F)
    yield 3 * X**2 + 12 * X * Y + Z**2
    g = G.gen()
    X, Y, Z = gens(G)
    yield (g + 1) * X**2 + 3 * g * X * Y + g * Y * Z + (6 * g + 5) * Z**2
    e = QQ_EPS.eps()
    half = QQ_EPS.from_int(2).inverse()
    X, Y, Z = gens(QQ_EPS)
    yield half * X**2 - 3 * X * Y + 2 * e * Y * Z + (1 - e * half) * Z**2
    yield -X * Y + (half - e) * Z * X - e * Y**2
    for c in (F.from_int(5), 2 * g + 1, g, half, e - 1, half - e):
        yield Poly3(c.field, 0, {(0, 0, 0): c})


def test_poly_text_round_trip(symbolic_data):
    # int literals read as field elements, so that 1/2 divides in the field
    from halphen.field import parse_expression
    for C in list(symbolic_data.conics[:4]) + list(_text_forms()):
        A = C.field
        X, Y, Z = gens(A)
        env = {"x": X, "y": Y, "z": Z}
        if not A.is_finite:
            env["e"] = A.eps()
        if hasattr(A, "gen"):
            env["a" if A is symbolic_data.field else "g"] = A.gen()
        back = parse_expression(C.to_text(), env, A.one())
        if not isinstance(back, Poly3):
            back = Poly3(A, 0, {(0, 0, 0): back})
        assert back == C


# ---------------------------------------------------------------------------
# the integer form of Q(e) and Q(e)(a) against the element path


def element_zeros(points, forms):
    """Oracle: the 0/1 vanishing of the forms at the points' `rep`, each
    value a sum of products of elements, as the element path computed it."""
    return [[int(term_sum(F, P.rep).is_zero()) for F in forms] for P in points]


PARAMETERS = [None, 2, -3, Fraction(1, 2), Fraction(5, 7), Fraction(-7, 3)]


@pytest.mark.parametrize("a", PARAMETERS, ids=["symbolic"] + list(map(str, PARAMETERS[1:])))
def test_integer_zero_tests_match_the_element_path(a, configuration):
    # the base points and nodes of the symbolic configuration and of Q(e)
    # ones against every conic and line: the zeros of `incidence_rows`, the
    # values of `values_at` and the packed Hasse rows of the census
    from halphen.chilean import Configuration
    config = (configuration if a is None
              else Configuration(QQ_EPS, QQ_EPS.from_fraction(Fraction(a))))
    data = config.data
    points = list(data.points) + config.node_points
    forms = list(data.conics) + config.lines
    assert incidence_rows(points, forms) == element_zeros(points, forms)
    assert values_at(forms, points) == [[term_sum(F, P.rep) for F in forms] for P in points]
    alphas = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    form, packed, _ = data.field.pack_vectors(
        3, [C.coefficients() for C in forms] + [P.rep for P in points], 6 * 2 * 4)
    for P, rep in zip(points, packed[len(forms):]):
        for C, coefficients in zip(forms, packed):
            rows = hasse_rows(P, C.degree, alphas)
            got = [form.is_zero(sum(map(mul, coefficients, row)))
                   for row in hasse_rows(P, C.degree, alphas, rep)]
            assert got == [sum(map(mul, C.coefficients(), row), data.field.zero()).is_zero()
                           for row in rows]


def _random_ratfunc(rng):
    F, a, e = QQ_EPS_A, QQ_EPS_A.gen(), QQ_EPS_A.eps()
    x = sum((Fraction(rng.randint(-9, 9), rng.randint(1, 4)) * e ** rng.randrange(2) * a ** k
             for k in range(rng.randint(0, 3))), F.zero())
    if rng.random() < 0.3:
        x = x / (a + rng.choice((1, -2, e, 3 * e + 1)))
    return x or F.one()


def test_integer_zero_tests_match_the_element_path_on_random_forms():
    # random forms over Q(e)(a) at random points, with fractions in a and in
    # the ints, and forms that vanish at the point by cancellation:
    # G = M(P) F - F(P) M for a monomial M that does not vanish there
    rng = random.Random(23)
    F = QQ_EPS_A
    for _ in range(12):
        point = ProjPoint(F, [_random_ratfunc(rng) for _ in range(3)])
        forms, vanishing = [], []
        for d in (1, 2, 3):
            monos = monomials_of_degree(d)
            G = Poly3(F, d, {m: _random_ratfunc(rng) for m in rng.sample(monos, min(4, d + 2))})
            M = next(Poly3(F, d, {m: F.one()}) for m in monos
                     if not term_sum(Poly3(F, d, {m: F.one()}), point.rep).is_zero())
            forms.append(G)
            vanishing.append(G * term_sum(M, point.rep) - M * term_sum(G, point.rep))
        assert not any(G.is_zero() for G in vanishing)
        rows = incidence_rows([point], forms + vanishing)
        assert rows == element_zeros([point], forms + vanishing)
        assert rows[0][len(forms):] == [1] * len(vanishing)
        assert (values_at(forms + vanishing, [point])[0]
                == [term_sum(G, point.rep) for G in forms + vanishing])


def test_the_bound_keeps_a_minus_a_power_of_two_nonzero():
    # a - 2^m vanishes at a = 2^m, and 2^m - e at e = 2^m: K and L are set
    # above the heights of what is packed, so neither aliases to zero
    a, e = QQ_EPS_A.gen(), QQ_EPS_A.eps()
    for m in (1, 5, 31, 64):
        for x in (a - 2**m, e * a - 2**m * e, a**3 - 2**m * a, 2**m - e):
            form, ((v,),), scales = QQ_EPS_A.pack_vectors(1, [[x]])
            height = 2**m + 1
            assert 2 ** (form.K - 1) > 2 * height and form.L > form.K
            assert not form.is_zero(v) and form.element(v) == x and scales == [1]
        form, ((u,), (w,)), _ = QQ_EPS_A.pack_vectors(2, [[a - 2**m], [a + 2**m]], 1)
        assert not form.is_zero(u * w) and form.element(u * w) == a**2 - 4**m
        assert form.is_zero(u * w - w * u)
        q = QQ_EPS.from_int(2**m) - QQ_EPS.eps()
        form, ((v,),), _ = QQ_EPS.pack_vectors(1, [[q]])
        assert form.L > m + 1 and not form.is_zero(v) and form.element(v) == q


def test_restriction_to_a_line_is_the_form_on_the_line():
    # P(u A + v B) = sum c_i u^i v^(d - i), so at (u : v) = (t : 1) the
    # restriction's value is the form's at t A + B, sign and scale included
    rng = random.Random(29)
    for F in (GF(13), QQ_EPS, QQ_EPS_A):
        elems = [F.from_int(c) for c in range(-3, 4)] + [F.eps()]
        if F is QQ_EPS_A:
            elems.append(F.gen())
        for d in (1, 2, 3):
            P = Poly3(F, d, {e: rng.choice(elems) for e in monomials_of_degree(d)})
            A, B = ([rng.choice(elems) for _ in range(3)] for _ in range(2))
            coefficients = P.restrict_to_line(A, B)
            for t in (0, 1, 2, -1):
                line = [a * t + b for a, b in zip(A, B)]
                assert sum((c * t**i for i, c in enumerate(coefficients)), F.zero()) \
                    == term_sum(P, line)

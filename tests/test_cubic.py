import random
from functools import cache

import pytest

from halphen.field import (GF, QQ_EPS, Elements, GFext, MixedContextError,
                           Packing, PrimeField, prime_divisors)
from halphen.plane import ProjPoint, bf_divide_linear, gens
from halphen import cubic
from halphen.cubic import (CubicError, CubicGroup, HesseCubic,
                           flex_line_incidence, hesse_collinear_triples,
                           hesse_flexes, hesse_singular_fibers, rational_points)
from oracles import coordinates_on_line, line_basis
from test_plane import gradient


# repeated-addition oracles for the exact orders of `CubicGroup.orders`

def torsion_order(group, P, bound=24):
    """Least n <= bound with n*P = zero, or None."""
    if bound < 1:
        raise CubicError("torsion bound must be >= 1")
    acc = P
    for n in range(1, bound + 1):
        if acc == group.zero:
            return n
        acc = group.add(acc, P)
    return None


def has_exact_order(group, P, m):
    if not group.scalar_mul(m, P) == group.zero:
        return False
    for q in prime_divisors(m):
        if group.scalar_mul(m // q, P) == group.zero:
            return False
    return True


def test_flex_coordinates():
    flexes = hesse_flexes(QQ_EPS)
    e = QQ_EPS.eps()
    assert flexes[6] == ProjPoint(QQ_EPS, (QQ_EPS.one(), -QQ_EPS.one(), QQ_EPS.zero()))
    assert flexes[1] == ProjPoint(QQ_EPS, (QQ_EPS.zero(), QQ_EPS.one(), -e))
    assert len(set(flexes)) == 9


def test_flexes_are_base_points():
    X, Y, Z = gens(QQ_EPS)
    cubes = X**3 + Y**3 + Z**3
    xyz = X * Y * Z
    for P in hesse_flexes(QQ_EPS):
        assert cubes.evaluate(P).is_zero()
        assert xyz.evaluate(P).is_zero()


def test_singular_fibers():
    fibers = hesse_singular_fibers(QQ_EPS)
    X, Y, Z = gens(QQ_EPS)
    assert fibers[0] == [X, Y, Z]
    prod = fibers[1][0] * fibers[1][1] * fibers[1][2]
    assert prod == X**3 + Y**3 + Z**3 - 3 * X * Y * Z


def test_flex_line_incidence_is_9_4_12_3():
    incidence = flex_line_incidence(QQ_EPS)
    assert all(sum(row) == 3 for row in incidence)
    triples = hesse_collinear_triples(QQ_EPS)
    assert len(triples) == 12
    assert triples[0] == (0, 1, 2)


def test_hesse_collinear_triples_are_built_once_per_field():
    # the callers share one tuple of tuples, which none of them can change
    for F in (QQ_EPS, GF(13), GF(31)):
        triples = hesse_collinear_triples(F)
        assert triples is hesse_collinear_triples(F)
        assert isinstance(triples, tuple)
        assert all(isinstance(triple, tuple) for triple in triples)
        assert triples == hesse_collinear_triples(QQ_EPS)


def test_chart_tables_are_built_once_per_field():
    # every curve over one field reads the same t-free tables
    for F in (GF(13), GF(31), GFext(7, 2)):
        assert cubic._chart_tables(F) is cubic._chart_tables(F)


def test_smoothness_criterion():
    assert HesseCubic(GF(7), 3).is_smooth()
    assert not HesseCubic(GF(7), 4).is_smooth()  # 4^3 = 64 = 1 = -27 mod 7


def test_group_identities():
    F = GF(13)
    curve = HesseCubic(F, 2)
    g = CubicGroup(curve, hesse_flexes(F)[6])
    pts = rational_points(curve)
    for P in pts:
        assert g.add(P, g.zero) == P
        assert g.add(P, g.negate(P)) == g.zero
        assert g.scalar_mul(0, P) == g.zero
        assert g.scalar_mul(1, P) == P


def test_group_law_rejects_bad_input():
    F = GF(13)
    curve = HesseCubic(F, 2)
    g = CubicGroup(curve, hesse_flexes(F)[6])
    off = ProjPoint(F, (F.one(), F.from_int(2), F.from_int(3)))
    assert not curve.contains(off)
    with pytest.raises(CubicError):
        g.add(off, g.zero)
    with pytest.raises(CubicError):
        g.add(g.zero, off)
    with pytest.raises(CubicError):
        g.third_intersection(off, off)
    with pytest.raises(CubicError):
        CubicGroup(HesseCubic(F, 10), hesse_flexes(F)[6])  # 10^3 = -27 mod 13
    with pytest.raises(CubicError):
        torsion_order(g, g.zero, 0)


def test_points_over_another_field_are_rejected():
    # contains and the group law reject a point over another field
    F, G = GF(13), GF(7)
    curve = HesseCubic(F, 2)
    g = CubicGroup(curve, hesse_flexes(F)[6])
    foreign = hesse_flexes(G)[0]
    with pytest.raises(MixedContextError):
        curve.contains(foreign)
    with pytest.raises(MixedContextError):
        g.add(foreign, g.zero)
    with pytest.raises(MixedContextError):
        g.third_intersection(g.zero, foreign)


# the generic third intersection: an oracle for the closed forms

@cache
def _hesse_form(curve):
    """The curve's Poly3 form and its gradient, built once per curve."""
    X, Y, Z = gens(curve.field)
    poly = X**3 + Y**3 + Z**3 + curve.t * X * Y * Z
    return poly, gradient(poly)


def generic_third(group, P, Q):
    """The residual intersection by restricting the cubic to the line.

    P and Q must lie on the curve.  A vanishing gradient at P = Q means
    the curve is singular there and is an error.
    """
    curve = group.curve
    field = group.field
    poly, grads = _hesse_form(curve)
    if P == Q:
        g = [d.evaluate(P) for d in grads]
        if all(c.is_zero() for c in g):
            raise CubicError("singular point: no tangent line")
        A, B = line_basis(field, g)
        form = poly.restrict_to_line(A, B)
        # P is a double root of the restriction
        uv = coordinates_on_line(P, A, B)
        form = bf_divide_linear(form, uv, field)
        form = bf_divide_linear(form, uv, field)
    else:
        form = poly.restrict_to_line(P, Q)
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


def _tangency(grads, P, Q):
    """("flex", P) for the tangent at a flex P, ("end", A) for a chord
    tangent at its end point A, else (None, None); decided from the
    gradients of the oracle's Poly3 form, `grads` by point, not from the
    closed form."""
    if P == Q:
        x, y, z = P.coords
        return ("flex", P) if (x * y * z).is_zero() else (None, None)
    for A, B in ((P, Q), (Q, P)):
        gx, gy, gz = grads[A]
        if (gx * B.coords[0] + gy * B.coords[1] + gz * B.coords[2]).is_zero():
            return "end", A
    return None, None


def _chord_gives(a, b, R):
    """Whether the Joye-Quisquater chord formula at a and b is the point R."""
    (x1, y1, z1), (x2, y2, z2) = a, b
    v = (x1 * x1 * y2 * z2 - x2 * x2 * y1 * z1,
         y1 * y1 * x2 * z2 - y2 * y2 * x1 * z1,
         z1 * z1 * x2 * y2 - z2 * z2 * x1 * y1)
    r = R.coords
    return (not all(c.is_zero() for c in v)
            and all((v[i] * r[j] - v[j] * r[i]).is_zero()
                    for i, j in ((0, 1), (0, 2), (1, 2))))


def test_closed_form_matches_generic_path():
    closed = {False: 0, True: 0}  # the certified formulas, by P == Q
    rules = {"flex": 0, "end": 0}  # the residual rules
    rotated = 0  # chords whose formula vanishes, decided by the rotated chord
    undecided = 0
    cases = [(GF(7), range(7)), (GF(13), range(13)), (GF(19), range(19)),
             (GFext(7, 2), range(3))]
    for F, ts in cases:
        flexes = hesse_flexes(F)
        for t in ts:
            curve = HesseCubic(F, t)
            if not curve.is_smooth():
                continue
            g = CubicGroup(curve, flexes[6])
            # over GF(p) the element law is the oracle of the residue law
            elements = (cubic._Law(curve.t, Elements())
                        if isinstance(F, PrimeField) else None)
            pts = rational_points(curve)
            gradient = _hesse_form(curve)[1]
            grads = {P: [d.evaluate(P) for d in gradient] for P in pts}
            for P in pts:
                for Q in pts:
                    try:
                        R = g.third_intersection(P, Q)
                    except CubicError:
                        undecided += 1
                        continue
                    assert R == generic_third(g, P, Q)
                    if elements is not None:  # residues vs elements
                        assert elements.residual(P.coords, Q.coords) == R.coords
                        a, b = (tuple(c.v for c in X.coords) for X in (P, Q))
                        assert g._law.residual(a, b) == tuple(c.v for c in R.coords)
                    kind, tangency = _tangency(grads, P, Q)
                    if kind is not None:
                        assert R == tangency
                        rules[kind] += 1
                    elif P == Q:
                        closed[True] += 1
                    elif _chord_gives(P.coords, Q.coords, R):
                        closed[False] += 1
                    else:
                        (x1, y1, z1), (x2, y2, z2) = P.coords, Q.coords
                        assert _chord_gives((y1, z1, x1), (z2, x2, y2), R)
                        rotated += 1
            for x in flexes:  # the tangent at a flex meets it three times
                assert g.third_intersection(x, x) == x
    assert min(closed.values()) > 0 and min(rules.values()) > 0
    assert rotated > 0 and undecided == 0


def test_a_pair_no_certificate_decides_raises(monkeypatch):
    # with both chords silenced, a chord tangent at neither end is decided
    # by nothing, and the group law raises rather than guess
    monkeypatch.setattr(cubic, "_chord", lambda a, b: tuple(c - c for c in a))
    for F, t in ((GF(13), 2), (GFext(7, 2), 0)):
        curve = HesseCubic(F, t)
        g = CubicGroup(curve, hesse_flexes(F)[6])
        pts = rational_points(curve)
        P, Q = next((P, Q) for P in pts for Q in pts
                    if generic_third(g, P, Q) not in (P, Q))
        with pytest.raises(CubicError):
            g.third_intersection(P, Q)


def test_associativity_over_several_fields():
    rng = random.Random(17)
    total = 0
    for p, t in ((13, 2), (31, 1), (37, 2)):
        F = GF(p)
        curve = HesseCubic(F, t)
        assert curve.is_smooth()
        g = CubicGroup(curve, hesse_flexes(F)[6])
        pts = rational_points(curve)
        for _ in range(340):
            P, Q, R = (rng.choice(pts) for _ in range(3))
            assert g.add(g.add(P, Q), R) == g.add(P, g.add(Q, R))
            total += 1
    assert total >= 1000


def test_flex_zero_collinearity():
    # with a flex as zero, collinear triples on the curve sum to zero
    F = GF(13)
    curve = HesseCubic(F, 2)
    g = CubicGroup(curve, hesse_flexes(F)[0])
    pts = rational_points(curve)
    rng = random.Random(3)
    from halphen.plane import are_collinear
    checked = 0
    while checked < 25:
        P, Q = rng.choice(pts), rng.choice(pts)
        if P == Q:
            continue
        R = g.third_intersection(P, Q)
        assert are_collinear([P, Q, R]) or len({P, Q, R}) < 3
        assert g.add(g.add(P, Q), R) == g.zero
        checked += 1


def test_flex_torsion_divides_three():
    F = GF(13)
    curve = HesseCubic(F, 2)
    flexes = hesse_flexes(F)
    g = CubicGroup(curve, flexes[0])
    for x in flexes:
        assert torsion_order(g, x, 24) in (1, 3)


def test_two_torsion_points_and_full_subgroup():
    # a parameter where X^3 + tX + 2 splits completely
    found = None
    for p in (7, 13, 19, 31, 37, 43):
        F = GF(p)
        for t in range(p):
            if (F.from_int(t)**3 + 27).is_zero():
                continue
            roots = [x for x in F.elements() if (x**3 + t * x + 2).is_zero()]
            if len(roots) == 3 and len(set(r.v for r in roots)) == 3:
                found = (p, t, roots)
                break
        if found:
            break
    assert found is not None
    p, t, roots = found
    F = GF(p)
    curve = HesseCubic(F, t)
    g = CubicGroup(curve, hesse_flexes(F)[6])
    two_torsion = {g.zero}
    for r in roots:
        P = ProjPoint(F, (F.one(), F.one(), r))
        assert curve.contains(P)
        assert torsion_order(g, P, 4) == 2
        two_torsion.add(P)
    assert len(two_torsion) == 4
    for P in two_torsion:
        for Q in two_torsion:
            assert g.add(P, Q) in two_torsion


def test_hasse_window_and_group_structure():
    for p, t_vals in ((7, (1, 2)), (13, (1, 2, 5))):
        F = GF(p)
        flexes = hesse_flexes(F)
        for t in t_vals:
            curve = HesseCubic(F, t)
            if not curve.is_smooth():
                continue
            pts = rational_points(curve)
            n = len(pts)
            assert (p + 1) - 2 * int(p**0.5 + 1) <= n <= (p + 1) + 2 * int(p**0.5 + 1)
            for x in flexes:
                assert x in pts
            g = CubicGroup(curve, flexes[0])
            exponent = 1
            orders = [torsion_order(g, P, n) for P in pts]
            for o in orders:
                assert o is not None and n % o == 0
            exponent = max(orders)
            m = n // exponent
            assert exponent % m == 0
            assert (p - 1) % m == 0


def test_scalar_multiple_order():
    F = GF(13)
    curve = HesseCubic(F, 2)
    g = CubicGroup(curve, hesse_flexes(F)[0])
    pts = rational_points(curve)
    from math import gcd
    for P in pts:
        o = torsion_order(g, P, len(pts))
        for n in range(1, 7):
            Q = g.scalar_mul(n, P)
            oq = torsion_order(g, Q, len(pts))
            assert oq == o // gcd(n, o)


def _element_points(curve):
    """`rational_points` by field-element arithmetic, over any finite field."""
    field = curve.field
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


def test_integer_point_walk_matches_the_field_element_walk():
    # every t, the singular ones included: the same points in the same order;
    # over GF(13^2) the t that tests/test_torsion.py checks there; over
    # GF(7^3) (k = 3) and GF(97) a few t, the singular t = -3 among them
    cases = [(GF(p), list(GF(p).elements())) for p in (7, 13, 19, 31)]
    cases += [(F, list(F.elements())) for F in (GFext(5, 2), GFext(7, 2))]
    cases.append((GFext(13, 2), [GFext(13, 2).from_int(1)]))
    F = GFext(7, 3)
    cases.append((F, [F.from_int(-3), F.from_int(1), F.from_coeffs([2, 5, 1])]))
    cases.append((GF(97), [-3, 0, 1, 5, 40]))
    for F, t_values in cases:
        for t in t_values:
            curve = HesseCubic(F, t)
            pts = rational_points(curve)
            assert pts == _element_points(curve)
            assert all(P.rep == P.coords for P in pts)


def test_orders_match_the_repeated_addition_oracles():
    # has_exact_order certifies every order; torsion_order, which walks
    # the multiples one add at a time, re-derives those on GF(13)
    cases = [(GF(13), range(13)), (GF(19), range(19)), (GFext(7, 2), range(3))]
    checked = 0
    for F, t_values in cases:
        flexes = hesse_flexes(F)
        for t in t_values:
            curve = HesseCubic(F, t)
            if not curve.is_smooth():
                continue
            pts = rational_points(curve)
            for zero in (flexes[0], flexes[6]):  # x_1 and x_7
                g = CubicGroup(curve, zero)
                orders = g.orders(pts)
                assert set(orders) == set(pts)
                for P in pts:
                    assert has_exact_order(g, P, orders[P])
                    if F.size == 13:
                        assert torsion_order(g, P, len(pts)) == orders[P]
                    checked += 1
    assert checked > 1000


def test_orders_walk_matches_repeated_addition():
    # the coordinate walk against torsion_order, which adds points one at a
    # time, with zero at x_1 and at x_7; a list missing a point raises.
    # GF(37), t = 11 has points of orders 3, 5 and 15
    cases = [(GF(p), range(p)) for p in (13, 19, 31)]
    cases += [(GFext(7, 2), range(3)), (GFext(13, 2), range(1, 2)), (GF(37), (11,))]
    rng = random.Random(5)
    checked = 0
    for F, t_values in cases:
        flexes = hesse_flexes(F)
        for t in t_values:
            curve = HesseCubic(F, t)
            if not curve.is_smooth():
                continue
            pts = rational_points(curve)
            for zero in (flexes[0], flexes[6]):
                g = CubicGroup(curve, zero)
                orders = g.orders(pts)
                assert set(orders) == set(pts)
                assert all(torsion_order(g, P, len(pts)) == orders[P] for P in pts)
                checked += len(pts)
                missing = rng.randrange(len(pts))
                with pytest.raises(CubicError):
                    g.orders(pts[:missing] + pts[missing + 1:])
    assert checked > 3000


def test_packed_law_matches_the_element_law():
    # over GF(p^2) the closed forms run on ints packed in g: on every
    # ordered pair of points the residual is the element law's, and the
    # order walk gives the element law's orders, t off GF(p) included
    cases = [(GFext(7, 2), (3, 9, 20, 37)), (GFext(13, 2), (40,))]
    pairs = 0
    for F, codes in cases:
        flexes = hesse_flexes(F)
        elems = list(F.elements())
        for code in codes:
            curve = HesseCubic(F, elems[code])
            assert curve.is_smooth()
            pts = rational_points(curve)
            g = CubicGroup(curve, flexes[6])
            law, elements = g._law, cubic._Law(curve.t, Elements())
            # the packed law, not the element law
            assert isinstance(law.form, Packing) and law.form is F.packing(4)
            packed = {P: law.coords(P) for P in pts}
            for P in pts:
                for Q in pts:
                    R = law.residual(packed[P], packed[Q])
                    assert tuple(map(law.form.element, R)) == elements.residual(
                        P.coords, Q.coords)
                    pairs += 1
            oracle = CubicGroup(curve, flexes[6])
            oracle._law = elements
            assert g.orders(pts) == oracle.orders(pts)
    assert pairs > 40000


def test_orders_needs_a_flex_as_zero():
    # the walk reads X * Y as -(X + Y), which holds only with a flex as zero
    F = GF(37)
    curve = HesseCubic(F, 11)
    pts = rational_points(curve)
    assert sorted(set(CubicGroup(curve, hesse_flexes(F)[6]).orders(pts).values())) == [
        1, 3, 5, 15]
    off_flex = next(P for P in pts if not any(c.is_zero() for c in P.coords))
    with pytest.raises(CubicError, match="not a flex"):
        CubicGroup(curve, off_flex).orders(pts)


def test_orders_needs_the_whole_group():
    F = GF(13)
    curve = HesseCubic(F, 2)
    g = CubicGroup(curve, hesse_flexes(F)[6])
    P = next(P for P in rational_points(curve) if P != g.zero)
    assert g.orders([g.zero]) == {g.zero: 1}
    with pytest.raises(CubicError):
        g.orders([P])  # P, 2P, ... outruns a one-point "group"
    off = ProjPoint(F, (1, 1, 0))  # the walk alone would give it order 2
    assert not curve.contains(off)
    with pytest.raises(CubicError):
        g.orders(rational_points(curve) + [off])


def test_point_enumeration_requires_finite_field():
    with pytest.raises(CubicError):
        rational_points(HesseCubic(QQ_EPS, 1))

import random

import pytest

from halphen.field import GF, QQ_EPS, MixedContextError
from halphen.plane import ProjPoint, gens
from halphen.cubic import (CubicError, CubicGroup, HesseCubic,
                           flex_line_incidence, hesse_collinear_triples,
                           hesse_flexes, hesse_singular_fibers, rational_points)


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
        g.torsion_order(g.zero, 0)


def test_points_over_another_field_are_rejected():
    # GF(p) products do not check the field, so contains must coerce
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


def test_closed_form_matches_generic_path():
    closed = {False: 0, True: 0}  # certified closed forms, by P == Q
    fallback = 0
    for p in (7, 13, 19):
        F = GF(p)
        flexes = hesse_flexes(F)
        for t in range(p):
            curve = HesseCubic(F, t)
            if not curve.is_smooth():
                continue
            g = CubicGroup(curve, flexes[6])
            pts = rational_points(curve)
            for P in pts:
                for Q in pts:
                    R = g.closed_form_third(P, Q)
                    expected = g.generic_third(P, Q)
                    assert g.third_intersection(P, Q) == expected
                    if R is None:
                        fallback += 1
                    else:
                        assert R == expected
                        closed[P == Q] += 1
            for x in flexes:  # the tangent at a flex meets it three times
                assert g.closed_form_third(x, x) is None
                assert g.third_intersection(x, x) == x
    assert closed[False] > 0 and closed[True] > 0 and fallback > 0


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
        assert g.torsion_order(x, 24) in (1, 3)


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
        assert g.torsion_order(P, 4) == 2
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
            orders = [g.torsion_order(P, n) for P in pts]
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
        o = g.torsion_order(P, len(pts))
        for n in range(1, 7):
            Q = g.scalar_mul(n, P)
            oq = g.torsion_order(Q, len(pts))
            assert oq == o // gcd(n, o)


def test_point_enumeration_requires_finite_field():
    with pytest.raises(CubicError):
        rational_points(HesseCubic(QQ_EPS, 1))

import random

import pytest

from halphen import torsion
from halphen.chilean import build_chilean
from halphen import cubic
from halphen.field import GF, Elements, GFext
from halphen.cubic import (CubicGroup, HesseCubic, hesse_collinear_triples,
                           hesse_flexes, rational_points)
from halphen.linalg import kernel_basis, rref
from halphen.plane import (ProjPoint, gens, hasse_rows, incidence_rows,
                          monomials_of_degree, values_at)
from halphen.torsion import (TorsionError, _census,
                             collinear_balances,
                             find_specialization, good_primes,
                             hesse_collinear_curves, index_multiplicities,
                             min_prime_for_order,
                             nine_torsion_cubics,
                             torsion_locus, translated_points,
                             two_torsion_conics,
                             verify_nine_torsion_cubics, verify_torsion_locus)
from halphen.published import PAPER
from test_cubic import _element_points, has_exact_order
from test_plane import term_sum

# the points of exact order m over the algebraic closure
EXPECTED_PRIMITIVE_COUNT = {
    4: PAPER["torsion locus m = 4"]["points of exact order"],
    5: PAPER["torsion locus m = 5"]["points of exact order"],
    9: sum(PAPER["nine-torsion cubics"]["points per cubic"])}

# deterministic smallest instances, frozen from the scan itself
SPEC4 = (31, 1)
SPEC5 = (37, 9)
SPEC9 = (19, 0)


def test_find_specialization_is_deterministic():
    spec = find_specialization(4, p_max=100)
    assert (spec["p"], spec["t"]) == SPEC4
    spec = find_specialization(5, p_max=100)
    assert (spec["p"], spec["t"]) == SPEC5
    spec = find_specialization(9, p_max=100)
    assert (spec["p"], spec["t"]) == SPEC9
    spec = find_specialization(2, p_max=100)
    assert (spec["p"], spec["t"]) == (13, 1)


def test_find_specialization_answers_are_private_copies():
    # the scan is cached; a caller that edits its answer changes no other
    spec = find_specialization(4, p_max=100)
    spec["p"] = 0
    assert find_specialization(4, p_max=100)["p"] == SPEC4[0]


def _point(F, coords):
    return ProjPoint(F, [F.from_int(c) for c in coords])


def test_find_specialization_witnesses_are_pinned():
    # the first point of exact order m, x_7 as zero, in the canonical order
    for m, (p, t), witness in ((4, SPEC4, (1, 10, 15)), (5, SPEC5, (1, 7, 11)),
                               (9, SPEC9, (1, 4, 5))):
        spec = find_specialization(m, p_max=100)
        F = GF(p)
        assert spec["witness"] == _point(F, witness)
        group = CubicGroup(HesseCubic(F, t), hesse_flexes(F)[6])
        assert has_exact_order(group, spec["witness"], m)


def test_hasse_bound_prime_is_where_the_scan_succeeds():
    for m, spec in ((4, SPEC4), (5, SPEC5), (9, SPEC9)):
        assert min_prime_for_order(m) == spec[0]
        with pytest.raises(TorsionError):
            find_specialization(m, p_max=spec[0] - 1)


def test_specialization_not_found_is_explicit():
    with pytest.raises(TorsionError):
        find_specialization(7, p_max=7)


def test_good_primes():
    assert list(good_primes(50)) == [7, 13, 19, 31, 37, 43]


def locus_degree_check(m):
    """deg * 3 equals the number of primitive m-torsion points."""
    expected = EXPECTED_PRIMITIVE_COUNT[m]
    if m in (4, 5):
        deg = torsion_locus(GF(7), m, 1).degree
        return deg * 3 == expected
    if m == 9:
        return 8 * 9 == expected
    raise TorsionError(f"unsupported m = {m}")


def test_locus_degrees():
    assert locus_degree_check(4)
    assert locus_degree_check(5)
    assert locus_degree_check(9)
    F = GF(7)
    assert torsion_locus(F, 4, 1).degree == 4
    assert torsion_locus(F, 5, 1).degree == 8
    with pytest.raises(TorsionError):
        torsion_locus(F, 6, 1)


def test_torsion_locus_m4():
    rep = verify_torsion_locus(4, *SPEC4)
    assert rep["points_on_locus"] == rep["points_of_exact_order"]
    assert set(rep["order_census"]) == {4}


def test_torsion_locus_m5():
    rep = verify_torsion_locus(5, *SPEC5)
    assert rep["points_on_locus"] == rep["points_of_exact_order"]
    assert set(rep["order_census"]) == {5}


def test_non_torsion_point_off_locus():
    p, t = SPEC4
    F = GF(p)
    curve = HesseCubic(F, t)
    group = CubicGroup(curve, hesse_flexes(F)[6])
    locus = torsion_locus(F, 4, t)
    off = [P for P in rational_points(curve)
           if not has_exact_order(group, P, 4)]
    assert off
    assert all(not locus.evaluate(P).is_zero() for P in off)


def test_nine_torsion_cubics():
    rep = verify_nine_torsion_cubics(*SPEC9)
    assert rep["rational_order9"] > 0
    assert sum(rep["per_cubic_counts"]) >= rep["rational_order9"]
    F = GF(SPEC9[0])
    cubics = nine_torsion_cubics(F, SPEC9[1])
    x7 = hesse_flexes(F)[6]
    assert cubics[0].evaluate(x7) == 1
    # the two parameter-dependent cubics carry t-linear product terms
    F13 = GF(13)
    e = F13.eps()
    sym = nine_torsion_cubics(F13, 1)
    assert sym[6].terms[(1, 1, 1)] == e + 2
    assert sym[7].terms[(1, 1, 1)] == -e + 1
    assert all((1, 1, 1) not in C.terms for C in sym[:6])


def refute_both_inclusions(monkeypatch, check, p, t, m, other_order):
    """Both inclusions of the cut check read the census: a cut point given
    another order, or a point that is not cut given order m, raises."""
    points, orders = _census(GF(p), t)
    cut = next(P for P in points if orders[P] == m)
    left = next(P for P in points if orders[P] != m)
    for P, order, message in ((cut, other_order, f"order-{other_order} point .* is cut"),
                              (left, m, f"order-{m} point .* is not cut")):
        wrong = dict(orders)
        wrong[P] = order
        monkeypatch.setattr(torsion, "_census", lambda field, t: (points, wrong))
        with pytest.raises(TorsionError, match=message):
            check()


def test_nine_torsion_cubics_refute_a_wrong_order(monkeypatch):
    refute_both_inclusions(monkeypatch, lambda: verify_nine_torsion_cubics(*SPEC9),
                           *SPEC9, 9, 3)


@pytest.mark.parametrize("m, spec", [(4, SPEC4), (5, SPEC5)])
def test_torsion_locus_refute_a_wrong_order(monkeypatch, m, spec):
    refute_both_inclusions(monkeypatch, lambda: verify_torsion_locus(m, *spec),
                           *spec, m, 1)


def test_a_singular_curve_raises_in_the_census():
    # 4^3 = 64 = -27 mod 7: every torsion question on it raises one text
    for check in (lambda: verify_torsion_locus(4, 7, 4),
                  lambda: verify_torsion_locus(4, 7, 4, quadratic_extension=True),
                  lambda: verify_nine_torsion_cubics(7, 4),
                  lambda: hesse_collinear_curves(4, 7, 4)):
        with pytest.raises(TorsionError, match="t = 4 is singular over GF"):
            check()


def test_shared_tables_match_evaluate_at_every_census_point():
    # the two loci (degrees 4 and 8) and the eight cubics share one set of
    # power tables per point, on residues and on GF(13^2) elements; the
    # curves over GF(31), GF(37) and GF(13^2) have points of order 4 or 5
    zeros = 0
    for F, t in ((GF(13), 2), (GF(31), 1), (GF(37), 9), (GFext(13, 2), 1)):
        forms = [torsion_locus(F, 4, t), torsion_locus(F, 5, t)]
        forms += nine_torsion_cubics(F, t)
        points = rational_points(HesseCubic(F, t))
        for P, values in zip(points, values_at(forms, points)):
            assert values == [form.evaluate(P) for form in forms]
            assert values == [term_sum(form, P.rep) for form in forms]
            zeros += sum(value.is_zero() for value in values)
    assert zeros > 0


def expression_locus(field, m, t):
    """Oracle: the torsion locus written out as Poly3 arithmetic."""
    t = field.coerce(t)
    X, Y, Z = gens(field)
    if m == 4:
        return (X * Y**3 - Y**4 - t * X * Y**2 * Z - X * Z**3 - 2 * Y * Z**3)
    return (2 * X**2 * Y**6 - X * Y**7 + 2 * Y**8
            - X**2 * Y**3 * Z**3 - X * Y**4 * Z**3 + 5 * Y**5 * Z**3
            - X**2 * Z**6 + 2 * X * Y * Z**6 + 2 * Y**2 * Z**6
            + t * (-X**2 * Y**5 * Z + 3 * X * Y**6 * Z - Y**7 * Z
                   + X**2 * Y**2 * Z**4 + 3 * X * Y**3 * Z**4 + Y * Z**7)
            + t**2 * (X**2 * Y**4 * Z**2 - X * Y**5 * Z**2 + X * Y**2 * Z**5))


def expression_nine_cubics(field, t):
    """Oracle: the eight nine-torsion cubics as Poly3 arithmetic."""
    e = field.eps()
    t = field.coerce(t)
    X, Y, Z = gens(field)
    e2 = e * e
    return [X * Y**2 + e * X**2 * Z + e2 * Y * Z**2,
            X * Y**2 + e2 * X**2 * Z + e * Y * Z**2,
            X * Y**2 + X**2 * Z + Y * Z**2,
            X**2 * Y + e2 * Y**2 * Z + e * X * Z**2,
            X**2 * Y + e * Y**2 * Z + e2 * X * Z**2,
            X**2 * Y + Y**2 * Z + X * Z**2,
            3 * X**3 + (e + 2) * t * X * Y * Z - 3 * e2 * Z**3,
            3 * X**3 + (-e + 1) * t * X * Y * Z - 3 * e * Z**3]


def test_packed_census_matches_the_element_path():
    # the census runs on packed residues: its points against the element
    # enumeration, its orders against the walk under the element law, the
    # term-table forms against the Poly3 expressions, and every cut-check
    # row against the zeros of the element term sums (and of values_at);
    # several t per prime, and GF(13^2); a singular t (t^3 = -27: -3, and
    # over GF(13^2) the three cube roots of -27 as elements) raises
    rng = random.Random(11)
    cases = [(GF(p), rng.sample(range(p), 4) + [-3]) for p in (13, 31, 37, 73, 199)]
    F = GFext(13, 2)
    roots = [t for t in F.elements() if (t**3 + 27).is_zero()]
    assert len(roots) == 3
    cases.append((F, [1, F.from_coeffs([3, 5])] + roots))
    checked = cut = singular = 0
    for F, t_values in cases:
        flexes = hesse_flexes(F)
        for t in t_values:
            curve = HesseCubic(F, t)
            if not curve.is_smooth():
                with pytest.raises(TorsionError, match="singular"):
                    _census(F, t)
                singular += 1
                continue
            points, orders = _census(F, t)
            assert list(points) == _element_points(curve)
            oracle = CubicGroup(curve, flexes[6])
            oracle._law = cubic._Law(curve.t, Elements())
            assert dict(orders) == oracle.orders(list(points))
            forms = [torsion_locus(F, 4, t), torsion_locus(F, 5, t)]
            forms += nine_torsion_cubics(F, t)
            assert forms == ([expression_locus(F, 4, t), expression_locus(F, 5, t)]
                             + expression_nine_cubics(F, t))
            rows = torsion._census_powers(F, points).zeros(forms)
            want = [[int(term_sum(f, P.rep).is_zero()) for f in forms] for P in points]
            assert rows == want == incidence_rows(points, forms)
            checked += len(points)
            cut += sum(map(any, rows))
    assert checked > 1500 and cut > 0 and singular >= 8


def test_census_cache_is_keyed_on_the_field_and_shared_safely():
    t = 1
    base, ext = _census(GF(13), t), _census(GFext(13, 2), t)
    assert list(base[0]) == rational_points(HesseCubic(GF(13), t))
    assert list(ext[0]) == rational_points(HesseCubic(GFext(13, 2), t))
    assert len(base[0]) < len(ext[0])
    plain = verify_torsion_locus(5, 13, t)
    quad = verify_torsion_locus(5, 13, t, quadratic_extension=True)
    assert (plain["field"], quad["field"]) == ("GF(13)", "GF(13^2)")
    assert plain["points_of_exact_order"] == 0
    assert quad["points_of_exact_order"] > 0
    # a caller's edits to a report reach neither the cache nor the next call
    rep = verify_torsion_locus(4, *SPEC4)
    again = verify_torsion_locus(4, *SPEC4)
    assert rep == again and rep is not again
    rep["order_census"][4] = -1
    rep["points_on_locus"] = -1
    assert verify_torsion_locus(4, *SPEC4) == again
    nine = verify_nine_torsion_cubics(*SPEC9)
    nine["per_cubic_counts"].append(-1)
    assert verify_nine_torsion_cubics(*SPEC9)["per_cubic_counts"] \
        == nine["per_cubic_counts"][:-1]
    with pytest.raises(TypeError):
        _census(GF(13), t)[1][base[0][0]] = 7  # the order table is read-only


def test_index_multiplicity_identity():
    assert index_multiplicities(4) == (2, 1)
    assert index_multiplicities(5) == (1, 2)
    assert index_multiplicities(7) == (3, 2)
    assert index_multiplicities(8) == (2, 3)
    with pytest.raises(TorsionError):
        index_multiplicities(6)


def test_census_order_of_the_x1_translate_is_the_x1_order():
    # translation by x_1 maps the x_1 group onto the census (x_7) group
    checked = 0
    for p in (13, 19, 31):
        F = GF(p)
        flexes = hesse_flexes(F)
        for t in range(p):
            curve = HesseCubic(F, t)
            if not curve.is_smooth():
                continue
            points, orders = _census(F, t)
            census = CubicGroup(curve, flexes[6])
            minus_x1 = census.negate(flexes[0])
            x1_orders = CubicGroup(curve, flexes[0]).orders(points)
            for P in points:
                assert orders[census.add(P, minus_x1)] == x1_orders[P]
                checked += 1
    assert checked > 1000


def test_hesse_collinear_curves_eta_is_pinned(monkeypatch):
    # the first census point of exact order m, x_7 as zero: the witness of
    # the search
    etas, translate = [], torsion.translated_points

    def recording(group, eta):
        etas.append((group.zero, eta))
        return translate(group, eta)

    monkeypatch.setattr(torsion, "translated_points", recording)
    for m, (p, t), eta in ((4, SPEC4, (1, 10, 15)), (5, SPEC5, (1, 7, 11))):
        hesse_collinear_curves(m, p, t)
        F = GF(p)
        assert etas.pop() == (hesse_flexes(F)[6], _point(F, eta))
        assert find_specialization(m, p_max=p)["witness"] == _point(F, eta)
    assert etas == []


def test_hesse_collinear_curves_certify_the_order_of_eta(monkeypatch):
    # a census that offers a point of order 3m labelled m as eta: the
    # balance law holds for it, the order certificate does not
    m, (p, t) = 4, SPEC4
    points, orders = _census(GF(p), t)
    offered = next(P for P in points if orders[P] == 3 * m)
    wrong = {P: m if P == offered else 1 for P in points}
    monkeypatch.setattr(torsion, "_census", lambda field, t: (points, wrong))
    with pytest.raises(TorsionError, match="exact order 4"):
        hesse_collinear_curves(m, p, t)


def test_no_point_of_order_m_below_the_hasse_bound_prime():
    # the primes the search skips: no smooth Hesse cubic over them has a
    # census point of order m
    checked = 0
    for m in (2, 4, 5, 7, 9):
        for p in good_primes(min_prime_for_order(m) - 1):
            F = GF(p)
            for t in range(p):
                if HesseCubic(F, t).is_smooth():
                    assert m not in _census(F, t)[1].values(), (m, p, t)
                    checked += 1
    assert checked > 100


# (m, p, t) of the CLI's curve systems and of the benchmark's seeds 1-3
EULER_CASES = ((4, 31, 1), (5, 37, 9), (5, 37, 11), (5, 139, 47),
               (4, 151, 43), (4, 163, 127), (5, 37, 29), (4, 73, 17),
               (5, 97, 9), (4, 163, 87), (4, 61, 55), (4, 127, 84),
               (5, 157, 104), (5, 199, 57))


def nine_term_balances(group, pts, alpha, beta):
    """sum_i r_i p_i for each Hesse-collinear triple, one r_i p_i at a time."""
    out = {}
    for triple in hesse_collinear_triples(group.field):
        balance = group.zero
        for i, P in enumerate(pts):
            balance = group.add(balance, group.scalar_mul(
                alpha if i in triple else beta, P))
        out[triple] = balance
    return out


def test_shared_sum_balances_match_the_nine_term_sums():
    # at eta of order m every balance is zero; at points whose order does
    # not divide 3m (the balances are 3m times them) both sums are nonzero
    nonzero = 0
    for m, p, t in EULER_CASES:
        F = GF(p)
        group = CubicGroup(HesseCubic(F, t), hesse_flexes(F)[6])
        points, orders = _census(F, t)
        alpha, beta = index_multiplicities(m)
        eta = next(P for P in points if orders[P] == m)
        for P in [eta] + [P for P in points if 3 * m % orders[P]][:2]:
            pts = translated_points(group, P)
            shared = collinear_balances(group, pts, alpha, beta)
            assert shared == nine_term_balances(group, pts, alpha, beta)
            if P == eta:
                assert set(shared.values()) == {group.zero}
            nonzero += sum(b != group.zero for b in shared.values())
    assert nonzero > 0


def test_top_order_rows_have_the_kernel_of_all_lower_orders(monkeypatch):
    # the Euler relation: for p > m the Hasse rows of order r - 1 cut out
    # the same degree-m forms as all rows of order below r
    calls, rows_of = [], torsion.hasse_rows

    def recording(P, degree, alphas):
        calls.append((P, degree, sum(alphas[0])))
        return rows_of(P, degree, alphas)

    monkeypatch.setattr(torsion, "hasse_rows", recording)
    for m, p, t in EULER_CASES:
        hesse_collinear_curves(m, p, t)
        orders = {order for _, _, order in calls[-18:]}  # each point, both r
        assert orders == {r - 1 for r in index_multiplicities(m)}
    assert len(calls) == 18 * len(EULER_CASES)
    for P, m, order in calls:
        F = P.field
        top = rows_of(P, m, monomials_of_degree(order))
        every = rows_of(P, m, [a for k in range(order + 1)
                               for a in monomials_of_degree(k)])
        kernel = kernel_basis(top, F)
        assert rref(kernel, F) == rref(kernel_basis(every, F), F)
        # multiplicity r = order + 1 imposes r(r + 1)/2 conditions
        assert len(kernel) == len(every[0]) - (order + 1) * (order + 2) // 2


def test_shared_elimination_matches_the_per_triple_systems():
    # each triple's own rows, eliminated on the basis of the kernel the
    # nine points share and mapped back, span the kernel of its whole
    # system: every Hasse row of order below the multiplicity at each
    # point; the flexes themselves, in special position, give kernels of
    # dimension 2
    rng = random.Random(7)
    primes = [p for p in good_primes(200) if p > 5]
    cases = [(m, hesse_flexes(GF(31))) for m in (4, 5)]
    while len(cases) < 8:
        p = rng.choice(primes)
        t = rng.randrange(p)
        curve = HesseCubic(GF(p), t)
        if not curve.is_smooth():
            continue
        points, orders = _census(curve.field, t)
        for m in (4, 5):
            eta = next((P for P in points if orders[P] == m), None)
            if eta is not None and sum(c[0] == m for c in cases) < 4:
                group = CubicGroup(curve, hesse_flexes(curve.field)[6])
                cases.append((m, translated_points(group, eta)))
    dims = set()
    for m, pts in cases:
        F = pts[0].field
        alpha, beta = index_multiplicities(m)
        kernels = torsion._collinear_kernels(pts, m, hesse_collinear_triples(F))
        assert len(kernels) == 12
        for triple, kern in kernels.items():
            rows = [row for i, P in enumerate(pts)
                    for k in range(alpha if i in triple else beta)
                    for row in hasse_rows(P, m, monomials_of_degree(k))]
            want = kernel_basis(rows, F)
            assert len(kern) == len(want) >= 1
            assert rref(kern, F) == rref(want, F)
            dims.add(len(kern))
    assert dims == {1, 2}


def test_rows_free_of_the_pivot_coordinate_at_every_order():
    # each point's own rows are only those with index 0 at its first
    # nonzero coordinate; at m = 7 and 8 (own rows of order 2) as at m = 4
    # and 5, on the flexes and on translates by points of no chosen order,
    # the kernels are those of every Hasse row below the multiplicity
    rng = random.Random(3)
    cases = []
    for p in (31, 43):
        F = GF(p)
        cases += [(m, hesse_flexes(F)) for m in (7, 8)]
        t = next(t for t in range(2, p) if HesseCubic(F, t).is_smooth())
        group = CubicGroup(HesseCubic(F, t), hesse_flexes(F)[6])
        points = _census(F, t)[0]
        for m in (4, 5, 7, 8):
            cases.append((m, translated_points(group, rng.choice(points[1:]))))
    dims = []
    for m, pts in cases:
        F = pts[0].field
        alpha, beta = index_multiplicities(m)
        for triple, kern in torsion._collinear_kernels(
                pts, m, hesse_collinear_triples(F)).items():
            rows = [row for i, P in enumerate(pts)
                    for k in range(alpha if i in triple else beta)
                    for row in hasse_rows(P, m, monomials_of_degree(k))]
            want = kernel_basis(rows, F)
            assert len(kern) == len(want)
            assert rref(kern, F) == rref(want, F)
            dims.append(len(kern))
    assert min(dims) == 0 and max(dims) >= 2


def test_hesse_collinear_curves_need_p_above_m(monkeypatch):
    # no smooth Hesse cubic over GF(p), p <= m, has a point of order m
    # prime to 3 (9m would divide its order), so a census offering the zero
    # x_7 as eta and a certificate accepting it reach the guard
    m, p, t = 7, 7, 0
    F = GF(p)
    flexes = hesse_flexes(F)
    points = _census(F, t)[0]
    orders = {P: m if P == flexes[6] else 1 for P in points}
    monkeypatch.setattr(torsion, "_census", lambda field, t: (points, orders))
    monkeypatch.setattr(torsion, "prime_divisors", lambda n: [])
    with pytest.raises(TorsionError, match="p > m"):
        hesse_collinear_curves(m, p, t)


def test_hesse_collinear_curves_m4():
    spec = find_specialization(4, p_max=100)
    rep = hesse_collinear_curves(4, spec["p"], spec["t"])
    assert len(rep["systems"]) == 12
    assert all(s["kernel_dim"] == 1 for s in rep["systems"])
    assert rep["multiplicities"] == (2, 1)


def test_hesse_collinear_curves_m5():
    spec = find_specialization(5, p_max=100)
    rep = hesse_collinear_curves(5, spec["p"], spec["t"])
    assert len(rep["systems"]) == 12
    assert all(s["kernel_dim"] == 1 for s in rep["systems"])
    assert rep["multiplicities"] == (1, 2)


def test_two_torsion_translation_and_conic_recovery():
    # a = 12 = -1 gives t = -(a^3 + 2)/a = 1
    F = GF(13)
    data = build_chilean(F, F.from_int(12))
    tau = two_torsion_conics(data)
    assert tau == ProjPoint(F, (F.one(), F.one(), F.from_int(12)))
    group = CubicGroup(HesseCubic(F, 1), hesse_flexes(F)[6])
    assert tau != group.zero and group.add(tau, tau) == group.zero
    assert translated_points(group, tau) == data.points


@pytest.mark.parametrize("p, a", [(43, 40), (109, 3), (199, 198)])
def test_two_torsion_conics_at_good_parameters(p, a):
    F = GF(p)
    two_torsion_conics(build_chilean(F, F.from_int(a)))


def test_two_torsion_conics_refute_a_wrong_conic():
    F = GF(13)
    data = build_chilean(F, F.from_int(12))
    data.conics = [data.conics[1]] + data.conics[1:]
    with pytest.raises(TorsionError, match="not one conic of the configuration"):
        two_torsion_conics(data)


def test_m2_collinear_systems_are_the_conics():
    # index 2 with multiplicities (0, 1): conics through six points
    rep = hesse_collinear_curves(2, 13, 1)
    assert all(s["kernel_dim"] == 1 for s in rep["systems"])
    assert rep["multiplicities"] == (0, 1)


def test_extension_order_formula():
    # #E(GF(p^2)) = N (2p + 2 - N), the filter of the quadratic search
    n = len(rational_points(HesseCubic(GF(13), 1)))
    n2 = len(rational_points(HesseCubic(GFext(13, 2), 1)))
    assert n2 == n * (2 * 13 + 2 - n)


def test_quadratic_extension_locus_m5():
    from halphen.torsion import verify_torsion_locus_quadratic
    rep = verify_torsion_locus_quadratic(5, p_max=20)
    assert rep["field"] == "GF(13^2)"
    assert set(rep["order_census"]) == {5}
    assert rep["points_of_exact_order"] > 0


def test_full_torsion_subgroup_lagrange():
    # the rational m-torsion subgroup has order dividing m^2 and #E
    for m, (p, t) in ((4, SPEC4), (5, SPEC5)):
        F = GF(p)
        curve = HesseCubic(F, t)
        group = CubicGroup(curve, hesse_flexes(F)[6])
        pts = rational_points(curve)
        subgroup = [P for P in pts if group.scalar_mul(m, P) == group.zero]
        assert (m * m) % len(subgroup) == 0
        assert len(pts) % len(subgroup) == 0
        spec = find_specialization(m, p_max=p)
        assert spec["witness"] in subgroup

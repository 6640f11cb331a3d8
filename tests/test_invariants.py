import copy
from fractions import Fraction

import pytest

from operator import mul

from halphen import chilean, invariants
from halphen.field import GF, QQ_EPS, GFext
from halphen.plane import (ProjPoint, bf_divide_linear, cross, gens,
                           hasse_rows, plane_points)
from halphen.invariants import (ArrangementCombinatorics, ArrangementError,
                                char2_code, extract_combinatorics, geometric_census,
                                harbourne, harbourne_report, log_chern,
                                log_chern_slope,
                                published_arrangement, reference_report,
                                weight_enumerator_string)
from halphen.published import PAPER
from oracles import coordinates_on_line, line_basis

PUBLISHED_TN = PAPER["log Chern numbers"]["censuses"]
PUBLISHED_VALUES = PAPER["log Chern numbers"]["values"]
PUBLISHED_SLOPES = PAPER["log Chern numbers"]["slopes"]
EXPECTED_WEIGHT_ENUMERATOR = PAPER["binary incidence code"]["enumerator"]


def test_published_values_and_slopes():
    for name, (c1, c2) in PUBLISHED_VALUES.items():
        arr = published_arrangement(name)
        assert log_chern(arr) == (Fraction(c1), Fraction(c2))
        assert log_chern_slope(arr) == PUBLISHED_SLOPES[name]


def test_log_chern_trivial_cases():
    empty = ArrangementCombinatorics([], {})
    assert log_chern(empty) == (Fraction(9), Fraction(3))
    two_lines = ArrangementCombinatorics([(1, 0, 1), (1, 0, 1)], {2: 1})
    c1, c2 = log_chern(two_lines)
    assert (c1, c2) == (Fraction(9 - 2 + 2 - 8), Fraction(3 + 1 - 4))


def test_two_distinct_lines_census():
    F = QQ_EPS
    X, Y, Z = gens(F)
    arr = extract_combinatorics([ProjPoint(F, (F.zero(), F.zero(), F.one()))],
                                [X, Y])
    assert arr.t_counts == {2: 1}


def test_chilean_census_from_geometry(configuration):
    arr = geometric_census("chilean", configuration)
    assert arr.t_counts == {2: 12, 8: 9}
    assert log_chern(arr) == (Fraction(117), Fraction(54))
    assert log_chern_slope(arr) == Fraction(13, 6)


def test_a0_census_from_geometry(configuration):
    arr = geometric_census("A0", configuration)
    assert arr.t_counts == {2: 12, 7: 9}
    assert log_chern(arr) == (Fraction(99), Fraction(45))


def test_a1_census_from_geometry(configuration):
    # the base points lie on their lines: the published table undercounts
    # them by one incidence
    arr = geometric_census("A1", configuration)
    assert arr.t_counts == {2: 72, 5: 12, 9: 9}
    assert log_chern(arr) == (Fraction(351), Fraction(153))


def test_a2_census_from_geometry(configuration):
    arr = geometric_census("A2", configuration)
    assert arr.t_counts == {2: 54, 5: 12, 8: 9}
    assert log_chern(arr) == (Fraction(297), Fraction(126))


def test_a3_census_from_geometry(configuration):
    arr = geometric_census("A3", configuration)
    assert arr.t_counts == PUBLISHED_TN["A3"]
    assert log_chern(arr) == (Fraction(180), Fraction(72))
    assert log_chern_slope(arr) == Fraction(5, 2)


def test_reference_report(configuration):
    rows = reference_report(configuration)
    assert [r["name"] for r in rows] == ["chilean", "A0", "A1", "A2", "A3"]
    assert [r["match"] for r in rows] == [True, True, False, False, True]
    for r in rows:
        # the geometric census differs from the published one at most by
        # moving the nine base points up one incidence level
        pub, geo = dict(r["published_t"]), dict(r["geometric_t"])
        base_level = max(pub)
        if not r["match"]:
            assert pub.pop(base_level) == geo.pop(base_level + 1) == 9
        assert pub == geo


def test_reports_are_copies_of_the_kept_censuses(configuration):
    first = reference_report(configuration)
    pristine = copy.deepcopy(first)
    for row in first:
        row["published_t"].clear()
        row["geometric_t"].clear()
    assert reference_report(configuration) == pristine
    arr = geometric_census("A3", configuration)
    arr.t_counts.clear()
    arr.curves.clear()
    again = geometric_census("A3", configuration)
    assert again.t_counts == PUBLISHED_TN["A3"] and len(again.curves) == 21
    assert sorted(configuration.censuses) == ["A0", "A1", "A2", "A3", "chilean"]
    with pytest.raises(ArrangementError):
        geometric_census("A4", configuration)


def assert_smooth_members(curves):
    """Oracle: every member is a line or a conic that is no line pair
    (the determinant test of `chilean.conic_is_line_pair`, char != 2)."""
    for k, C in enumerate(curves):
        if C.degree not in (1, 2):
            raise ArrangementError("only lines and conics are supported")
        if (C.degree == 2 and C.field.characteristic != 2
                and chilean.conic_is_line_pair(C)):
            raise ArrangementError(f"curve {k} is a degenerate conic")


def _bf_share_root(p, q, field):
    """Oracle: whether two binary forms of degree <= 2 share a projective
    root, by the closed resultant formulas (formal degrees, so a common
    root at (1:0) shows up as a vanishing resultant too)."""
    if all(c.is_zero() for c in p) or all(c.is_zero() for c in q):
        return True
    if len(p) > len(q):
        p, q = q, p
    if len(p) == 2 and len(q) == 2:
        res = p[1] * q[0] - p[0] * q[1]
    elif len(p) == 2 and len(q) == 3:
        res = p[1] * p[1] * q[0] - p[1] * p[0] * q[1] + p[0] * p[0] * q[2]
    else:
        t1 = p[2] * q[0] - p[0] * q[2]
        t2 = p[1] * q[0] - p[0] * q[1]
        t3 = p[2] * q[1] - p[1] * q[2]
        res = t1 * t1 - t2 * t3
    return res.is_zero()


def shared_residual_roots(points, curves):
    """Oracle: the (line k, member j, member j2) with a residual root of
    k and j, after the candidates on both are divided out, on j2 too."""
    field = curves[0].field
    on = [[C.evaluate(P).is_zero() for C in curves] for P in points]
    found = []
    for k, L in enumerate(curves):
        if L.degree != 1:
            continue
        A, B = line_basis(field, L.coefficients())
        forms = {j: C.restrict_to_line(A, B) for j, C in enumerate(curves) if j != k}
        for j, form in forms.items():
            for P, incident in zip(points, on):
                if incident[k] and incident[j]:
                    form = bf_divide_linear(form, coordinates_on_line(P, A, B), field)
            if len(form) > 1:
                found += [(k, j, j2) for j2, other in forms.items()
                          if j2 != j and _bf_share_root(form, other, field)]
    return found


def census_by_restriction(points, curves):
    """Oracle: the census that restricts every line to every other member
    and divides out each shared candidate, raising on a residual root of
    two lines or a repeated residual root of a line and a conic."""
    field = curves[0].field
    assert_smooth_members(curves)
    candidates = []
    for P in points:
        if P not in candidates:
            candidates.append(P)
    zero = field.zero()
    coeffs = [C.coefficients() for C in curves]
    accounted = [[0] * len(curves) for _ in curves]
    t_counts, on_curve = {}, []
    for P in candidates:
        local = [hasse_rows(P, C.degree, ((0, 0, 0), (1, 0, 0), (0, 1, 0),
                                          (0, 0, 1))) for C in curves]
        through = [k for k, c in enumerate(coeffs)
                   if sum(map(mul, c, local[k][0]), zero).is_zero()]
        on_curve.append(set(through))
        grads = {k: [sum(map(mul, coeffs[k], row), zero) for row in local[k][1:]]
                 for k in through}
        for x, k1 in enumerate(through):
            for k2 in through[x + 1:]:
                if all(c.is_zero() for c in cross(grads[k1], grads[k2])):
                    raise ArrangementError(f"tangency of curves {k1} and {k2}")
                accounted[k1][k2] += 1
        if len(through) >= 2:
            t_counts[len(through)] = t_counts.get(len(through), 0) + 1
    for k, L in enumerate(curves):
        if L.degree != 1:
            continue
        A, B = line_basis(field, L.coefficients())
        on_line = [(on, coordinates_on_line(P, A, B))
                   for P, on in zip(candidates, on_curve) if k in on]
        for j, C in enumerate(curves):
            if j == k:
                continue
            stripped = C.restrict_to_line(A, B)
            for on, root in on_line:
                if j in on:
                    stripped = bf_divide_linear(stripped, root, field)
            extra = len(stripped) - 1
            if extra and C.degree == 1:
                raise ArrangementError(f"lines {k} and {j} meet at an unknown point")
            if extra == 2 and (stripped[1] * stripped[1]
                               - 4 * stripped[0] * stripped[2]).is_zero():
                raise ArrangementError(f"line {k} is tangent to curve {j}")
            t_counts[2] = t_counts.get(2, 0) + extra
            accounted[min(k, j)][max(k, j)] += extra
    for i in range(len(curves)):
        for j in range(i + 1, len(curves)):
            if accounted[i][j] != curves[i].degree * curves[j].degree:
                raise ArrangementError(f"curves {i} and {j} are not accounted for")
    arr = ArrangementCombinatorics(
        [(C.degree, 0, C.degree * C.degree) for C in curves], t_counts)
    arr.check_consistency()
    return arr


def _points(F, *coords):
    return [ProjPoint(F, c) for c in coords]


def _failing_arrangements():
    F = QQ_EPS
    X, Y, Z = gens(F)
    # two smooth conics through the four points (+-1 : +-1 : 1)
    C1, C2 = X**2 + Y**2 - 2 * Z**2, X**2 + 2 * Y**2 - 3 * Z**2
    four = _points(F, (1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1))
    parabola = Y * Z - X**2
    return {
        "tangency": (_points(F, (0, 0, 1)), [parabola, Y], "tangency of curves 0 and 1"),
        # x + y = 2z touches C1 at its one candidate (1:1:1)
        "tangent at the shared candidate": (four[:1], [C1, X + Y - 2 * Z],
                                            "tangency of curves 0 and 1"),
        "line pair": ([], [X, Y], "curves 0 and 1: 0 of 1 intersections"),
        "tangent line": ([], [Y, parabola], "line 0 is tangent to curve 1 off"),
        "conic pair": (four[1:], [C1, C2], "curves 0 and 1: 3 of 4"),
        # x = z meets C1 and C2 at the candidate (1:-1:1) and at (1:1:1),
        # which is on both conics but no candidate
        "residual on a conic": (four[1:], [X - Z, C1, C2], "curves 1 and 2: 3 of 4"),
        # y = z passes through that residual point (1:1:1) of x = z and C1
        "residual on a line": (four[1:2], [X - Z, C1, Y - Z],
                               "curves 0 and 2: 0 of 1 intersections"),
        "degenerate member": (four, [C1, X * Y], "curve 1 is a degenerate conic"),
        "cubic member": (four, [C1, X**3 - Y * Z**2], "only lines and conics are supported"),
    }


def _passing_arrangements():
    F = QQ_EPS
    X, Y, Z = gens(F)
    C1 = X**2 + Y**2 - 2 * Z**2
    return {
        # x = z meets C1 at the candidate (1:1:1) and at the anonymous (1:-1:1)
        "one shared candidate": (_points(F, (1, 1, 1)), [C1, X - Z], {2: 2}),
        # z = 0 meets C1 at the two points (1 : +-i : 0), which are not in Q(e)
        "no shared candidate": ([], [C1, Z], {2: 2}),
    }


@pytest.mark.parametrize("case", list(_failing_arrangements()))
def test_every_census_check_raises(case):
    # the shared-root oracle fires on the two residual cases, which the
    # census rejects by its counts; the restriction oracle rejects all
    points, curves, message = _failing_arrangements()[case]
    with pytest.raises(ArrangementError, match=message):
        extract_combinatorics(points, curves)
    with pytest.raises(ArrangementError):
        census_by_restriction(points, curves)
    assert bool(shared_residual_roots(points, curves)) == case.startswith("residual")


@pytest.mark.parametrize("case", list(_passing_arrangements()))
def test_small_censuses_match_the_restriction_oracle(case):
    points, curves, t_counts = _passing_arrangements()[case]
    assert extract_combinatorics(points, curves).t_counts == t_counts
    assert census_by_restriction(points, curves).t_counts == t_counts
    assert shared_residual_roots(points, curves) == []


def test_the_census_skips_the_degeneracy_test_in_characteristic_2():
    # det N vanishes identically there; x^2 + yz is smooth, and x = 0 meets
    # it at (0:1:0) and (0:0:1), neither a candidate
    F = GFext(2, 2)
    X, Y, Z = gens(F)
    conic = X**2 + Y * Z
    assert chilean.conic_matrix(conic.coefficients())[0].is_zero()
    assert extract_combinatorics([], [conic, X]).t_counts == {2: 2}


class _Recorded:
    """Stands in for `extract_combinatorics`: keeps its arguments, and
    those of each arrangement of leading members read from it."""

    def __init__(self, points, curves):
        self.points, self.curves = points, curves

    def leading(self, n):
        return _Recorded(self.points, self.curves[:n])


REFERENCE_NAMES = ("chilean", "A0", "A1", "A2", "A3")


def _reference_calls(config):
    """The (points, curves) of the five reference censuses of `config`,
    each arrangement alone."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(invariants, "extract_combinatorics", _Recorded)
        recorded = invariants._censuses_from_geometry(config)
    return [(recorded[name].points, recorded[name].curves) for name in REFERENCE_NAMES]


@pytest.fixture(scope="module")
def specialized_configuration():
    return chilean.Configuration(QQ_EPS, QQ_EPS.from_int(2))


@pytest.fixture(scope="module")
def reference_calls(configuration, specialized_configuration):
    """The five reference census calls over Q(e)(a) and at a = 2 over Q(e)."""
    return {"symbolic": _reference_calls(configuration),
            "specialized": _reference_calls(specialized_configuration)}


def test_reference_censuses_match_the_restriction_oracle(
        reference_calls, configuration, specialized_configuration):
    # each census alone, and as read from its configuration's shared pass
    # (chilean from A1's, A0 from A2's)
    expected = [{2: 12, 8: 9}, {2: 12, 7: 9}, {2: 72, 5: 12, 9: 9},
                {2: 54, 5: 12, 8: 9}, PUBLISHED_TN["A3"]]
    configs = {"symbolic": configuration, "specialized": specialized_configuration}
    for mode, calls in reference_calls.items():
        for name, (points, curves), t_counts in zip(REFERENCE_NAMES, calls, expected):
            alone = extract_combinatorics(points, curves)
            shared = geometric_census(name, configs[mode])
            assert alone.t_counts == t_counts
            assert (shared.curves, shared.t_counts) == (alone.curves, t_counts)
            assert census_by_restriction(points, curves).t_counts == t_counts


def test_one_cross_component_decides_transversality(reference_calls):
    # at every candidate, for every pair of members through it, the one
    # component the census reads vanishes exactly when g_1 x g_2 does; the
    # pairs of chilean and A0 are among those of A1 and A2
    alphas = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
    F = QQ_EPS
    X, Y, Z = gens(F)
    tangent = [(_points(F, (0, 0, 1)), [Y * Z - X**2, Y]),
               (_points(F, (1, 1, 1)), [X**2 + Y**2 - 2 * Z**2, X + Y - 2 * Z])]
    cases = [call for calls in reference_calls.values() for call in calls[2:]] + tangent
    pairs = {True: 0, False: 0}
    for points, curves in cases:
        for P in dict.fromkeys(points):
            u, v = invariants._deciding_coordinates(P)
            grads = []
            for C in curves:
                rows = hasse_rows(P, C.degree, alphas)
                coeffs = C.coefficients()
                if sum(map(mul, coeffs, rows[0]), C.field.zero()).is_zero():
                    grads.append([sum(map(mul, coeffs, row), C.field.zero())
                                  for row in rows[1:]])
            for x, g1 in enumerate(grads):
                for g2 in grads[x + 1:]:
                    full = all(c.is_zero() for c in cross(g1, g2))
                    assert (g1[u] * g2[v] - g1[v] * g2[u]).is_zero() == full
                    pairs[full] += 1
    assert pairs[True] == 2 and pairs[False] > 500


def test_residuals_are_private_on_the_reference_arrangements(reference_calls):
    # the shared-root oracle finds nothing where the census passes
    for calls in reference_calls.values():
        for points, curves in calls:
            assert shared_residual_roots(points, curves) == []


def test_census_consistency_guard():
    bad = ArrangementCombinatorics([(1, 0, 1), (1, 0, 1)], {})
    with pytest.raises(ArrangementError):
        bad.check_consistency()


def census_by_scan(curves):
    """Full-plane census over a finite field, certified by Bezout."""
    assert_smooth_members(curves)
    t_counts = {}
    for P in plane_points(curves[0].field):
        n = sum(1 for C in curves if C.evaluate(P).is_zero())
        if n >= 2:
            t_counts[n] = t_counts.get(n, 0) + 1
    arr = ArrangementCombinatorics(
        [(C.degree, 0, C.degree * C.degree) for C in curves], t_counts)
    arr.check_consistency()  # equality certifies rational transversal meets
    return arr


def test_scan_census_matches_symbolic(symbolic_data, nodes):
    # symbolic census versus full-plane scans at three parameters over two primes
    from halphen.chilean import build_chilean
    checked = 0
    for p in (13, 31):
        F = GF(p)
        for a_int in (2, 3, 4):
            try:
                data = build_chilean(F, F.from_int(a_int))
            except Exception:
                continue
            arr = census_by_scan(data.conics)
            assert arr.t_counts == {2: 12, 8: 9}
            checked += 1
    assert checked >= 5


def test_harbourne_values(configuration):
    assert harbourne(135, [2] * 84) == Fraction(-67, 28)
    assert harbourne(117, [2] * 75) == Fraction(-61, 25)
    assert harbourne(0, [2]) == Fraction(-4)
    with pytest.raises(ArrangementError):
        harbourne(10, [])
    with pytest.raises(ArrangementError):
        harbourne(10, [1])
    rep = harbourne_report(len(configuration.nodes))
    assert rep["chilean"] == Fraction(-67, 28)
    assert rep["degenerate"] == Fraction(-61, 25)


def test_char2_code():
    rep = char2_code()
    assert rep["dimension"] == 9
    assert rep["length"] == 21
    assert rep["enumerator"] == EXPECTED_WEIGHT_ENUMERATOR
    assert sum(rep["enumerator"].values()) == 512
    assert all(bin(w).count("1") == 8 for w in rep["conic_words"])
    assert all(bin(w).count("1") == 5 for w in rep["line_words"])


def test_weight_enumerator_palindrome():
    # complements pair the coefficients: the all-ones word is in the code
    e = EXPECTED_WEIGHT_ENUMERATOR
    for w, c in e.items():
        assert e[21 - w] == c


def test_weight_enumerator_string():
    s = weight_enumerator_string(EXPECTED_WEIGHT_ENUMERATOR)
    assert s == ("1 + 9*t^5 + 102*t^8 + 144*t^9 + 144*t^12 + 102*t^13"
                 " + 9*t^16 + t^21")


def test_the_census_form_is_sized_for_products_of_two_gradients(reference_calls,
                                                                 monkeypatch):
    # the largest values a census tests are g1_u g2_v - g1_v g2_u: two
    # products of 2 (d + 1) packed entries, each gradient component a sum
    # over the C(d + 2, 2) monomials with binomials up to d as multipliers
    from math import comb

    from halphen.field import Field
    sizes, original = [], Field.pack_vectors

    def spy(self, degree, vectors, terms):
        sizes.append((degree, terms))
        return original(self, degree, vectors, terms)
    monkeypatch.setattr(Field, "pack_vectors", spy)
    for points, curves in reference_calls["symbolic"]:
        sizes.clear()
        invariants.extract_combinatorics(points, curves)
        d = max(C.degree for C in curves)
        assert sizes == [(2 * (d + 1), 2 * (comb(d + 2, 2) * d) ** 2)]

import copy
from fractions import Fraction

import pytest

from halphen.field import GF, QQ_EPS
from halphen.plane import ProjPoint, gens, plane_points
from halphen.invariants import (ArrangementCombinatorics, ArrangementError,
                                EXPECTED_WEIGHT_ENUMERATOR, PUBLISHED_SLOPES,
                                PUBLISHED_TN, PUBLISHED_VALUES,
                                _assert_smooth_members, char2_code,
                                extract_combinatorics, geometric_census,
                                harbourne, harbourne_report, log_chern,
                                log_chern_slope,
                                published_arrangement, reference_report,
                                weight_enumerator_string)


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


def test_census_consistency_guard():
    bad = ArrangementCombinatorics([(1, 0, 1), (1, 0, 1)], {})
    with pytest.raises(ArrangementError):
        bad.check_consistency()


def census_by_scan(curves):
    """Full-plane census over a finite field, certified by Bezout."""
    _assert_smooth_members(curves)
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


def test_harbourne_values():
    assert harbourne(135, [2] * 84) == Fraction(-67, 28)
    assert harbourne(117, [2] * 75) == Fraction(-61, 25)
    assert harbourne(0, [2]) == Fraction(-4)
    with pytest.raises(ArrangementError):
        harbourne(10, [])
    with pytest.raises(ArrangementError):
        harbourne(10, [1])
    rep = harbourne_report()
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

from fractions import Fraction
from functools import cache
from math import isqrt
from types import SimpleNamespace

import pytest

from halphen import piclattice
from halphen.field import QQ_EPS
from halphen.linalg import kernel_basis, solve
from halphen.plane import Poly3, ProjPoint, hasse_rows, monomials_of_degree
from halphen.piclattice import (CONIC_CLASS_COLUMNS, F0_CLASS, INDEX3_CLASS_COLUMNS,
                                K_CLASS, LatticeError, CosetLabeller, _perm_from_cycles,
                                add, apply_perm, basis_e,
                                bertini_involution, branch_class,
                                chilean_lattice, chilean_set_uniqueness,
                                all_nine_cliques, compose_perm, degree_histogram,
                                enumerate_minus1_bruteforce, fiber_labels,
                                galois_permutation,
                                index3_lattice, index3_section_check, inner,
                                is_minus1_class, kperp_quotients, line_table,
                                ltrop,
                                mw_generators, mw_group, mw_orbits, res_partition,
                                scale,
                                sorted_multiplicities, steiner_conic, sub,
                                table144,
                                triangle_integer_points,
                                verify_mw_action, verify_nine_class_theorem,
                                verify_torsion_vectors)
from halphen.published import PAPER

ORBIT_MATRIX_P9 = PAPER["tropical space at e_9"]["even rows"]
ORBIT_MATRIX_X9 = PAPER["tropical space at e_9"]["odd rows"]
SECTION_MATRIX = PAPER["index-3 class data"]["section matrix"]
TORSION_VECTORS = PAPER["index-3 class data"]["torsion vectors"]


def test_intersection_form():
    assert inner(K_CLASS, K_CLASS) == 0
    assert inner(basis_e(0), basis_e(0)) == 1
    assert inner(basis_e(1), basis_e(1)) == -1
    assert inner(basis_e(1), basis_e(2)) == 0
    col1, col2 = CONIC_CLASS_COLUMNS[0], CONIC_CLASS_COLUMNS[1]
    assert inner(col1, col1) == -2
    assert inner(col1, col2) == 1


def test_chilean_lattice_invariants(lattice):
    for col in lattice.minus2:
        assert inner(col, col) == -2
        assert inner(col, K_CLASS) == 0
    total = (0,) * 10
    for j in (0, 1, 2):
        total = add(total, lattice.minus2[j])
    assert total == scale(K_CLASS, -2)
    assert total == (6, -2, -2, -2, -2, -2, -2, -2, -2, -2)
    for col in lattice.minus2:
        assert sum(1 for v in col[1:] if v == -1) == 6


def test_enumerations_agree(lattice, classes144):
    assert len(classes144) == 144
    assert degree_histogram(classes144) == {0: 9, 1: 36, 2: 54, 3: 36, 4: 9}
    assert enumerate_minus1_bruteforce(lattice, d_max=4) == classes144
    assert enumerate_minus1_bruteforce(lattice, d_max=12) == classes144
    free = enumerate_minus1_bruteforce(_NO_MINUS2_CLASSES, d_max=4)
    assert len(free) > 144


@cache
def _ordered_solutions(d):
    """Oracle: every D of degree d with D^2 = D.K = -1, by an ordered search.

    Visits the ordered m-vectors with sum 3d - 1 and square sum d^2 + 1
    slot by slot, with Cauchy-Schwarz pruning only.
    """
    found = []

    def search(prefix, k, s, q):
        if k == 0:
            if s == 0 and q == 0:
                found.append((d,) + tuple(-m for m in prefix))
            return
        bound = isqrt(q)
        for m in range(-bound, bound + 1):
            q2, s2 = q - m * m, s - m
            if s2 * s2 > (k - 1) * q2:
                continue
            prefix.append(m)
            search(prefix, k - 1, s2, q2)
            prefix.pop()

    search([], 9, 3 * d - 1, d * d + 1)
    return sorted(found)


def _oracle_classes(lattice, d_max):
    return [D for d in range(d_max + 1) for D in _ordered_solutions(d)
            if all(inner(D, R) >= 0 for R in lattice.minus2)]


# a stand-in lattice with no (-2)-classes: the search then lists every
# solution of D^2 = D.K = -1
_NO_MINUS2_CLASSES = SimpleNamespace(minus2=())


# rows with positive entries past e_0, so that the search bounds a free slot
# by the largest value left; the bound holds for any integer rows, and only
# e_1 - e_2 and e_4 - e_9 here are (-2)-classes
_POSITIVE_ENTRY_ROWS = SimpleNamespace(minus2=(
    (0, 1, -1, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 1, 0, 0, 0, 0, -1),
    (0, 2, -1, -1, 0, 0, 0, 0, 0, 0),
    (1, 1, -1, -1, -1, 0, 0, 0, 0, 0),
))


# the lists are sorted by degree first, so equal lists agree at every d <= d_max
@pytest.mark.parametrize("make_lattice, d_max", [
    (chilean_lattice, 12), (index3_lattice, 8), (lambda: _POSITIVE_ENTRY_ROWS, 12)],
    ids=["chilean", "index3", "positive-entries"])
def test_bruteforce_matches_ordered_search(make_lattice, d_max):
    L = make_lattice()
    assert enumerate_minus1_bruteforce(L, d_max) == _oracle_classes(L, d_max)


# Rows whose D.R reach the bound the lanes are sized for: every |m_i| is
# at most top = isqrt(d_max^2 + 1), so |D.R| <= d_max |R_0| + top sum |R_i|
# = reach, and a lane is reach.bit_length() + 1 bits wide.  At d_max = 1
# the lines e_0 - e_i - e_j have m_i = top = 1, so (0, 7, 0, ...) reaches
# +-7 = +-(2^3 - 1) in a lane of 4 bits; R_0 = 5 alone reaches 30 at d = 6.
_EDGE_ROWS = {
    "slot": ((tuple([0, 7] + [0] * 8), tuple([0, -7] + [0] * 8)), 1),
    "slot-d0": ((tuple([0, 0, 7] + [0] * 7),), 0),
    "degree": ((tuple([5] + [0] * 9), tuple([0, 1, 1, -1] + [0] * 6)), 6),
    "mixed": ((tuple([3, -2, 2, 0, 1, -1, 0, 0, 1, -1]),
               tuple([-1, 1, 1, 1, 0, 0, 0, 0, 0, 0])), 8),
}


@pytest.mark.parametrize("case", list(_EDGE_ROWS))
def test_bruteforce_lanes_at_their_width_match_ordered_search(case):
    rows, d_max = _EDGE_ROWS[case]
    if case != "mixed":  # the lane's top value bit is used
        top = isqrt(d_max * d_max + 1)
        reach = max(d_max * abs(R[0]) + top * sum(map(abs, R[1:])) for R in rows)
        assert reach == max(abs(inner(D, R)) for R in rows
                            for D in _oracle_classes(_NO_MINUS2_CLASSES, d_max))
    L = SimpleNamespace(minus2=rows)
    assert enumerate_minus1_bruteforce(L, d_max) == _oracle_classes(L, d_max)


def test_unconstrained_bruteforce_matches_ordered_search():
    got = enumerate_minus1_bruteforce(_NO_MINUS2_CLASSES, 12)
    assert got == _oracle_classes(_NO_MINUS2_CLASSES, 12)
    assert len(got) == 29592


def test_bruteforce_sorted_multiplicities():
    tuples = [t for d in range(13) for t in sorted_multiplicities(d)]
    assert len(tuples) == 29
    assert sorted_multiplicities(4) == [(2, 2, 2, 1, 1, 1, 1, 1, 0),
                                        (3, 1, 1, 1, 1, 1, 1, 1, 1)]
    assert all(list(t) == sorted(t, reverse=True) for t in tuples)


def _ordered_nine_cliques(classes):
    """Oracle: the nine-clique backtracking with explicit popcount cuts."""
    verts = sorted(classes)
    n = len(verts)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if inner(verts[i], verts[j]) == 0:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    cliques = []

    def extend(chosen, cand):
        if len(chosen) == 9:
            cliques.append(tuple(verts[k] for k in chosen))
            return
        if len(chosen) + bin(cand).count("1") < 9:
            return
        while cand:
            low = cand & -cand
            j = low.bit_length() - 1
            cand ^= low
            if len(chosen) + 1 + bin(cand).count("1") < 9:
                return
            chosen.append(j)
            extend(chosen, cand & adj[j] & ~((1 << (j + 1)) - 1))
            chosen.pop()

    extend([], (1 << n) - 1)
    return cliques


def test_nine_cliques_match_the_ordered_search(classes144):
    cliques = all_nine_cliques(classes144)
    assert len(cliques) == 544
    assert cliques == _ordered_nine_cliques(classes144)


def fiber_patterns(clique, lattice):
    """Oracle: per fiber, the sorted D.R_j of the summed classes D of a clique."""
    total = (0,) * 10
    for D in clique:
        total = add(total, D)
    return [tuple(sorted(inner(total, lattice.minus2[j]) for j in f))
            for f in lattice.fibers]


def test_fiber_patterns_match_the_summed_classes(lattice, classes144):
    # the table rows of D.R_j, summed, against D.R_j of the summed classes
    rep = chilean_set_uniqueness(classes144, lattice)
    assert rep["qualifying"] == [
        clique for clique in all_nine_cliques(classes144)
        if fiber_patterns(clique, lattice) == [(6, 6, 6)] * 4]


def test_every_class_satisfies_the_predicate(lattice, classes144):
    for D in classes144:
        assert inner(D, D) == -1
        assert inner(D, K_CLASS) == -1
        assert all(inner(D, R) >= 0 for R in lattice.minus2)


def test_triangle_polytope_points():
    assert sorted(triangle_integer_points()) == [(-1, 0), (0, 0)]


def test_tropical_space(lattice):
    reps = ltrop(basis_e(9), lattice)
    assert len(reps) == 16
    assert any(all(c == 0 for c in coeffs) for coeffs, _, _ in reps)
    even = {D for _, D, size in reps if size % 2 == 0}
    assert even == set(ORBIT_MATRIX_P9)
    odd = {D for _, D, size in reps if size % 2 == 1}
    assert odd == set(ORBIT_MATRIX_X9)
    with pytest.raises(LatticeError):
        ltrop((1, 0, 0, 0, 0, 0, 0, 0, 0, 0), lattice)


def test_mw_action(lattice, classes144):
    g1, g2 = mw_generators()
    orbits = verify_mw_action(classes144)
    assert len(orbits) == 16
    assert all(len(o) == 9 for o in orbits)
    exceptional = sorted(basis_e(i) for i in range(1, 10))
    assert exceptional in [sorted(o) for o in orbits]
    with pytest.raises(LatticeError):
        mw_orbits([basis_e(1)])  # not closed under the action


def _bfs_orbits(classes):
    """Oracle: orbits as breadth-first closures under the two generators."""
    g1, g2 = mw_generators()
    class_set, seen, orbits = set(classes), set(), []
    for D in sorted(class_set):
        if D in seen:
            continue
        orbit, frontier = {D}, [D]
        while frontier:
            nxt = []
            for v in frontier:
                for g in (g1, g2):
                    w = apply_perm(g, v)
                    assert w in class_set
                    if w not in orbit:
                        orbit.add(w)
                        nxt.append(w)
            frontier = nxt
        seen |= orbit
        orbits.append(sorted(orbit))
    return orbits


def test_mw_orbits_match_the_breadth_first_closure(classes144):
    assert mw_orbits(classes144) == _bfs_orbits(classes144)
    # the nine products are the group the generators generate
    group, frontier = {tuple(range(10))}, [tuple(range(10))]
    while frontier:
        frontier = [h for g in frontier for s in mw_generators()
                    for h in [compose_perm(s, g)] if h not in group]
        group.update(frontier)
    assert mw_group() == sorted(group)


def test_mw_action_refutes_a_generator_moving_e0(classes144, monkeypatch):
    # 3-cycles on (e_0, e_1, e_2) and (e_3, e_4, e_5) commute, have order 3
    # and generate nine permutations, but the first does not keep the form
    cycles = (((0, 1, 2),), ((3, 4, 5),))
    monkeypatch.setattr(piclattice, "mw_generators",
                        lambda: tuple(_perm_from_cycles(c) for c in cycles))
    with pytest.raises(LatticeError, match="not an isometry"):
        verify_mw_action(classes144)


def test_res_partition(lattice, classes144):
    cosets, pairing = res_partition(classes144, lattice)
    assert len(cosets) == 18
    assert all(len(v) == 8 for v in cosets.values())
    # the pairing is a fixed-point-free involution on the 18 labels
    assert all(pairing[pairing[k]] == k and pairing[k] != k for k in pairing)
    # nine cosets hold the exceptional classes (the translate points); the
    # pairing swaps them with the other nine (the inflection points)
    with_exceptional = {lab for lab, members in cosets.items()
                        if any(D in members for D in map(basis_e, range(1, 10)))}
    assert len(with_exceptional) == 9
    assert {pairing[lab] for lab in with_exceptional}.isdisjoint(with_exceptional)


def test_coset_labeller_diagonal_case():
    labeller = CosetLabeller([(2, 0) + (0,) * 8, (0, 3) + (0,) * 8])
    labels = {labeller.label(tuple(v) + (0,) * 8)
              for v in ((0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2))}
    assert len(labels) == 6


def test_kperp_quotients(lattice):
    fac_lam, fac_full = kperp_quotients(lattice)
    assert fac_lam == [3, 6]          # K-perp / Lambda has order 18
    assert fac_full == [3, 3]         # adding F_0 cuts it to order 9


def bertini_pair(E, i, lattice):
    """F_0 + B_i - E, verified to be a (-1)-class of the lattice."""
    D = sub(add(F0_CLASS, branch_class(i)), E)
    if not is_minus1_class(D, lattice):
        raise LatticeError(
            f"F_0 + B_{i} - E fails the (-1)-class predicate for E = {E}")
    return D


def test_bertini_pairing(lattice, classes144):
    quartic = (4, -3, -1, -1, -1, -1, -1, -1, -1, -1)
    assert bertini_pair(basis_e(1), 1, lattice) == quartic
    assert bertini_pair(quartic, 1, lattice) == basis_e(1)
    pairing = bertini_involution(classes144, lattice)
    hist = {}
    for E, (i, D) in pairing.items():
        assert inner(E, D) == 3
        hist[(E[0], D[0])] = hist.get((E[0], D[0]), 0) + 1
    assert set(hist) == {(0, 4), (4, 0), (1, 3), (3, 1), (2, 2)}
    with pytest.raises(LatticeError):
        bertini_pair(basis_e(1), 2, lattice)


def test_nine_class_theorem(lattice):
    rep = verify_nine_class_theorem(lattice)
    assert rep["D0111.D1012"] == -1
    assert rep["D0111^2"] == -2 and rep["D1012^2"] == -2
    assert rep["H"] == basis_e(0)
    assert rep["H^2"] == 1
    assert sorted(rep["classes"]) == sorted(basis_e(i) for i in range(1, 10))


def test_unique_nine_set(lattice, classes144):
    rep = chilean_set_uniqueness(classes144, lattice)
    assert len(rep["qualifying"]) == 1
    assert sorted(rep["qualifying"][0]) == sorted(basis_e(i) for i in range(1, 10))
    # rejected sets show the line-line-quartic fiber pattern
    cliques = all_nine_cliques(classes144)
    rejected = [clique for clique in cliques if clique not in rep["qualifying"]]
    patterns = {pat for clique in rejected for pat in fiber_patterns(clique, lattice)}
    assert (3, 3, 12) in patterns
    assert rep["total_cliques"] == 1 + len(rejected)


def test_index3_lattice():
    L3 = index3_lattice()
    col1 = INDEX3_CLASS_COLUMNS[0]
    assert col1 == (1, -1, -1, -1, 0, 0, 0, 0, 0, 0)
    assert inner(col1, col1) == -2
    for f in L3.fibers:
        total = (0,) * 10
        for j in f:
            total = add(total, L3.minus2[j])
        assert total == scale(K_CLASS, -3)
        assert total == (9, -3, -3, -3, -3, -3, -3, -3, -3, -3)


def test_section_matrix():
    rep = index3_section_check(SECTION_MATRIX)
    assert rep["column_sum"] == (3, 0)
    assert [r[0] for r in rep["reductions"]] == [0, 0, 0, 1, 1, 1, 2, 2, 2]
    assert len(set(rep["reductions"])) == 9


def test_torsion_vector_table():
    assert verify_torsion_vectors(TORSION_VECTORS)


def test_low_degree_classes_realized(classes144, symbolic_data, monkeypatch):
    from halphen import field
    from halphen.piclattice import realize_low_degree_classes
    # over Q(e)(a) the kernels and the support checks run on polynomial
    # representatives, so no polynomial gcd is taken
    calls, zgcd = [], field._zgcd
    monkeypatch.setattr(field, "_zgcd", lambda p, q: calls.append(1) or zgcd(p, q))
    assert symbolic_data.points[0].field is field.QQ_EPS_A
    assert realize_low_degree_classes(classes144, symbolic_data.points) == 90
    assert calls == []


def _form(field, vector):
    """The form whose dense coefficient vector is `vector`."""
    degree = {3: 1, 6: 2}[len(vector)]
    return Poly3(field, degree, dict(zip(monomials_of_degree(degree), vector)))


@pytest.mark.parametrize("mode", ["symbolic", "specialized"])
def test_steiner_conics_match_the_kernel_oracle(classes144, configuration, mode):
    from halphen.chilean import Configuration
    config = (configuration if mode == "symbolic"
              else Configuration(QQ_EPS, QQ_EPS.from_int(2)))
    points = config.data.points
    field = points[0].field
    form, lines = line_table(points)
    # the base points are packed as they are, so the packed values decode
    # to the values of the packed lines' products
    assert form.scales[:len(points)] == [1] * len(points)
    rows = [hasse_rows(P, 2, [(0, 0, 0)])[0] for P in points]
    conics = [D for D in classes144 if D[0] == 2]
    assert len(conics) == 54
    for D in conics:
        five = tuple(i for i in range(9) if D[i + 1] == -1)
        A, B, values = steiner_conic(five, form, lines)
        p1, p2, p3, p4, _ = five
        L = {pair: _form(field, lines[pair][0])
             for pair in ((p1, p2), (p3, p4), (p1, p3), (p2, p4))}
        conic = (form.element(A) * L[p1, p2] * L[p3, p4]
                 - form.element(B) * L[p1, p3] * L[p2, p4])
        oracle = kernel_basis([rows[i] for i in five], field)
        assert len(oracle) == 1
        assert conic.proportional_to(_form(field, oracle[0]))
        assert {k: form.element(v) for k, v in values.items()} == {
            k: conic.evaluate(points[k]) for k in range(9) if k not in five}


def test_steiner_conic_refuses_three_collinear_points():
    F = QQ_EPS
    points = [ProjPoint(F, c) for c in ((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1),
                                        (1, 2, 3))]
    with pytest.raises(LatticeError, match="collinear"):
        steiner_conic((0, 1, 2, 3, 4), *line_table(points))
    points[2] = ProjPoint(F, (1, 1, 1))
    form, lines = line_table(points)
    A, B, values = steiner_conic((0, 1, 2, 3, 4), form, lines)
    assert values == {} and not form.is_zero(A) and not form.is_zero(B)


def test_low_degree_classes_reject_misplaced_points(classes144, symbolic_data):
    from halphen.piclattice import realize_low_degree_classes
    points = list(symbolic_data.points)
    points[0], points[4] = points[4], points[0]
    with pytest.raises(LatticeError, match="curve support mismatch"):
        realize_low_degree_classes(classes144, points)


def test_fiber_labels_at_e1(lattice):
    labels = fiber_labels(lattice)
    assert sorted(j for triple in labels for j in triple) == list(range(12))
    for r0, r1, r2 in labels:
        assert lattice.minus2[r0][1] == 0
        assert lattice.minus2[r1][1] != 0 and lattice.minus2[r2][1] != 0
        assert r1 < r2
    with pytest.raises(LatticeError, match="components missing e_1"):
        fiber_labels(index3_lattice())


def test_galois_permutation_pairs_eight_classes(lattice):
    perm = galois_permutation(lattice)
    assert perm[0] == 0 and perm[1] == 1
    moved = [i for i in range(2, 10) if perm[i] != i]
    assert len(moved) == 8
    assert all(perm[perm[i]] == i for i in range(2, 10))


def _solved_galois_permutation(lattice):
    """Oracle: the involution's matrix by solving for each e_i over Q(e)."""
    basis, images = [basis_e(0), basis_e(1)], [basis_e(0), basis_e(1)]
    for r0, r1, r2 in fiber_labels(lattice):
        basis.extend(lattice.minus2[j] for j in (r0, r1, r2))
        images.extend(lattice.minus2[j] for j in (r0, r2, r1))
    M = [[QQ_EPS.from_int(b[r]) for b in basis] for r in range(10)]
    perm = [0, 1]
    for i in range(2, 10):
        x = solve(M, [QQ_EPS.from_int(v) for v in basis_e(i)], QQ_EPS)
        img = [sum((c * b[r] for c, b in zip(x, images)), QQ_EPS.zero())
               for r in range(10)]
        assert all(v.c1 == 0 and v.c0.denominator == 1 for v in img)
        perm.append(tuple(int(v.c0) for v in img).index(1))
    return tuple(perm)


def test_galois_permutation_matches_the_rational_solve(lattice, classes144):
    perm, solved = galois_permutation(lattice), _solved_galois_permutation(lattice)
    assert perm == solved
    assert ([apply_perm(perm, D) for D in classes144]
            == [apply_perm(solved, D) for D in classes144])


def test_galois_permutation_refutes_labels_across_fibers(lattice, monkeypatch):
    # swapping met components of different fibers keeps the spanning set
    # but not the Gram matrix: an unmet component meets its own fiber's
    # met components once and the other fiber's not at all
    (a0, a1, a2), (b0, b1, b2), *rest = fiber_labels(lattice)
    crossed = [(a0, b1, a2), (b0, a1, b2), *rest]
    monkeypatch.setattr(piclattice, "fiber_labels", lambda L: crossed)
    with pytest.raises(LatticeError, match="Gram matrix"):
        galois_permutation(lattice)


def test_table144_row_profile(lattice, classes144):
    rows = table144(classes144, lattice)
    assert len(rows) == 144
    split_counts = {}
    for r in rows:
        key = (r["deg"], r["n"], r["v_C"], r["split"])
        split_counts[key] = split_counts.get(key, 0) + 1
    # the thirteen row types of the class table with their multiplicities
    assert split_counts[(0, 0, 0, "no")] == 1        # the reference class itself
    assert split_counts[(1, 0, 1, "no")] == 4
    assert split_counts[(2, 1, 2, "no")] == 6
    assert split_counts[(3, 2, 3, "no")] == 4
    assert split_counts[(4, 3, 4, "no")] == 1
    assert split_counts[(0, 0, 3, "yes")] == 8
    assert split_counts[(1, 0, 2, "yes")] == 24
    assert split_counts[(2, 0, 1, "yes")] == 24
    assert split_counts[(3, 0, 0, "yes")] == 8
    assert split_counts[(1, 1, 3, "yes")] == 8
    assert split_counts[(2, 1, 2, "yes")] == 24
    assert split_counts[(3, 1, 1, "yes")] == 24
    assert split_counts[(4, 1, 0, "yes")] == 8

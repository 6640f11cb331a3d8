import random
from fractions import Fraction

import pytest

from halphen import linalg
from halphen.field import (GF, QQ_EPS, QQ_EPS_A, Elements, FieldError, GFext,
                           MixedContextError, Packing)
from halphen.linalg import (_eliminate, invariant_factors, kernel_basis, rref,
                            smith_normal_form, solve)
from test_field import qe


def _matmul(X, Y):
    return [[sum(X[i][k] * Y[k][j] for k in range(len(Y)))
             for j in range(len(Y[0]))] for i in range(len(X))]


def _det(M):
    M = [[Fraction(x) for x in row] for row in M]
    n = len(M)
    d = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if M[r][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            d = -d
        d *= M[c][c]
        inv = 1 / M[c][c]
        for r in range(c + 1, n):
            f = M[r][c] * inv
            M[r] = [x - f * y for x, y in zip(M[r], M[c])]
    return d


def test_smith_normal_form_random():
    rng = random.Random(11)
    for _ in range(150):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        D, U, V = smith_normal_form(A)
        assert _matmul(_matmul(U, A), V) == D
        assert abs(_det(U)) == 1 and abs(_det(V)) == 1
        diag = [D[i][i] for i in range(min(m, n)) if D[i][i] != 0]
        for x, y in zip(diag, diag[1:]):
            assert y % x == 0
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert D[i][j] == 0


def test_diagonal_two_three_quotient():
    # Z^2 / span{(2,0), (0,3)} is Z/2 + Z/3; the invariant chain is (1, 6)
    facs = invariant_factors([[2, 0], [0, 3]])
    assert facs == [1, 6]
    order = 1
    for f in facs:
        order *= f
    assert order == 6


def test_field_linear_algebra():
    F = GF(13)

    def row(*vals):
        return [F.from_int(v) for v in vals]

    A = [row(1, 2, 3), row(2, 4, 6), row(1, 0, 1)]
    assert len(rref(A, F)[1]) == 2
    kern = kernel_basis(A, F)
    assert len(kern) == 1
    for r in A:
        acc = F.zero()
        for c, x in zip(r, kern[0]):
            acc = acc + c * x
        assert acc.is_zero()
    sol = solve([row(1, 1), row(1, 2)], row(3, 5), F)
    assert sol is not None and sol[0] == 1 and sol[1] == 2
    assert solve([row(1, 1), row(2, 2)], row(1, 3), F) is None


def _random_matrices(F, rng, elements=None):
    """Zero, rank-deficient, wide, tall and random matrices over F, with
    entries drawn from `elements`, or else from the residues mod p."""
    def rand(m, n, density=1.0):
        return [[(rng.choice(elements) if elements else F.from_int(rng.randrange(F.p)))
                 if rng.random() < density else F.zero() for _ in range(n)]
                for _ in range(m)]

    out = [rand(3, 4, 0.0), rand(1, 1), rand(1, 6), rand(7, 2)]
    for _ in range(40):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        out.append(rand(m, n, rng.choice((0.3, 0.7, 1.0))))
    for _ in range(20):  # rank <= k: products of m x k and k x n
        m, n, k = rng.randint(2, 8), rng.randint(2, 8), rng.randint(1, 3)
        L, R = rand(m, k), rand(k, n)
        out.append([[sum((L[i][s] * R[s][j] for s in range(k)), F.zero())
                     for j in range(n)] for i in range(m)])
    return out


def test_rref_on_residues_matches_elements(monkeypatch):
    rng = random.Random(5)
    for p in (7, 13, 199):
        F = GF(p)
        mats = _random_matrices(F, rng)
        assert any(len(rref(A, F)[1]) < min(len(A), len(A[0])) for A in mats)
        for A in mats:
            red, pivots = rref(A, F)
            oracle = _eliminate([list(r) for r in A], Elements())
            assert (red, pivots) == oracle
            assert all(x.field is F for r in red for x in r)
        kernels = [kernel_basis(A, F) for A in mats]
        monkeypatch.setattr(linalg, "rref", lambda rows, field:
                            _eliminate([list(r) for r in rows], Elements()))
        assert [kernel_basis(A, F) for A in mats] == kernels
        monkeypatch.undo()


def test_rref_on_packed_ints_matches_elements():
    # over GF(p^k) the elimination runs on ints packed in g
    rng = random.Random(7)
    for F in (GFext(7, 2), GFext(13, 2), GFext(5, 3)):
        assert isinstance(F.packing(2), Packing)
        mats = _random_matrices(F, rng, list(F.elements()))
        assert any(len(rref(A, F)[1]) < min(len(A), len(A[0])) for A in mats)
        for A in mats:
            red, pivots = rref(A, F)
            assert (red, pivots) == _eliminate([list(r) for r in A], Elements())
            assert all(x.field is F for r in red for x in r)


def test_elimination_rejects_entries_of_another_field():
    G, F = GF(13), GF(7)
    row = [G.from_int(1), G.from_int(2), G.from_int(3)]
    with pytest.raises(MixedContextError):
        kernel_basis([row], F)
    with pytest.raises(MixedContextError):
        rref([row], F)
    with pytest.raises(MixedContextError):
        solve([row], [F.one()], F)
    with pytest.raises(MixedContextError):  # the right-hand side too
        solve([[F.one()]], [G.one()], F)
    with pytest.raises(MixedContextError):  # and on the element path
        kernel_basis([[QQ_EPS.one(), F.one()]], QQ_EPS)
    with pytest.raises(MixedContextError):
        rref([[1, 2]], F)


def _element_kernel(rows, field):
    """The kernel on the element path: `_eliminate` on the `Elements` form,
    each vector 1 at its own free column and 0 at the other free columns."""
    ncols = len(rows[0])
    red, pivots = _eliminate([list(r) for r in rows], Elements())
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [field.zero()] * ncols
        vec[f] = field.one()
        for r, c in enumerate(pivots):
            vec[c] = -red[r][f]
        basis.append((f, vec))
    return basis


def _qea_matrices(rng):
    """Zero, rank-deficient, wide, tall, polynomial and rational matrices
    over Q(e)(a), with Z[e] leading coefficients that are not integers."""
    F = QQ_EPS_A

    def coeff():
        return qe(rng.randint(-3, 3), rng.choice((0, 0, 1, -2)))

    def poly():
        return F.from_coeffs([coeff() for _ in range(rng.randint(1, 3))])

    def entry(rational):
        if rng.random() < 0.25:
            return F.zero()
        if rational and rng.random() < 0.4:
            den = poly()
            return poly() / den if not den.is_zero() else poly()
        return poly()

    def rand(m, n, rational=False):
        return [[entry(rational) for _ in range(n)] for _ in range(m)]

    lead = F.from_coeffs([1, qe(2, 3)])  # lead 2 + 3e
    a = F.gen()
    out = [[[F.zero()] * 3 for _ in range(2)], rand(1, 1), rand(1, 5), rand(5, 2),
           [[lead, F.one()], [lead * lead, lead]],
           [[a * F.eps(), a], [F.from_int(2), a + 1]],
           [[F.one(), F.from_int(2), a], [a, 2 * a, F.one()]]]  # a column skipped
    for _ in range(14):
        out.append(rand(rng.randint(1, 4), rng.randint(1, 5), rational=rng.random() < 0.5))
    for _ in range(8):  # rank <= k: products of m x k and k x n
        m, n, k = rng.randint(2, 4), rng.randint(2, 5), rng.randint(1, 2)
        L, R = rand(m, k, rational=True), rand(k, n)
        out.append([[sum((L[i][s] * R[s][j] for s in range(k)), F.zero())
                     for j in range(n)] for i in range(m)])
    return out


def test_fraction_free_kernel_matches_the_element_kernel():
    F = QQ_EPS_A
    rng = random.Random(14)
    mats = _qea_matrices(rng)
    deficient = rational = 0
    for A in mats:
        kern = kernel_basis(A, F)
        oracle = _element_kernel(A, F)
        assert len(kern) == len(oracle)
        deficient += len(oracle) > max(len(A[0]) - len(A), 0)
        rational += any(not x.is_polynomial() for r in A for x in r)
        for vec, (f, o) in zip(kern, oracle):
            assert all(x.is_polynomial() for x in vec)
            assert not vec[f].is_zero()
            assert vec == [vec[f] * x for x in o]
    assert deficient > 5 and rational > 5


def test_fraction_free_divisions_are_checked(monkeypatch):
    a = ((0, 0), (1, 0))
    with pytest.raises(FieldError):  # a + 1 does not divide a
        linalg._exact_quotient(a, ((1, 0), (1, 0)))
    with pytest.raises(FieldError):  # divides over Q(e), not over Z[e]
        linalg._exact_quotient(((1, 0), (1, 0)), ((2, 0), (2, 0)))
    with pytest.raises(FieldError):  # the degree is too low
        linalg._exact_quotient(((1, 1),), a)
    q = ((1, 0), (2, 3))  # 1 + (2 + 3e) a, lead not an integer
    assert linalg._exact_quotient(linalg._zmul(q, ((5, -1), (0, 4))), q) == ((5, -1), (0, 4))
    # every vector is checked against the rows: with each quotient taken as
    # zero, the second row is lost and the kernel comes out two-dimensional
    F = QQ_EPS_A
    monkeypatch.setattr(linalg, "_exact_quotient", lambda p, q: ())
    with pytest.raises(FieldError, match="fails its rows"):
        kernel_basis([[F.from_int(c) for c in row] for row in ((1, 1, 1), (1, 2, 3))], F)

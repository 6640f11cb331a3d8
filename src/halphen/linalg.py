"""Exact linear algebra over a coefficient field, plus integer Smith normal
form with transformation matrices.

`rref` is one Gauss-Jordan elimination in the field's inner-loop form
(`Field.packing`), each row operation one fused call of the form, which
over GF(p) is one comprehension over the row, with no Python call per
entry; `solve` goes through `rref`, and so does `kernel_basis`, except
over Q(e)(a).  There `kernel_basis` clears each row's denominators and
runs Bareiss's fraction-free elimination on the Z[e][a] polynomials of
`field.py`: every division is exact and checked, and every kernel vector
is verified against the rows.  Every entry must be an element of the
given field, or `MixedContextError` is raised.  `kernel_vectors` is the
kernel of `kernel_basis` on values of the form, for callers that
compute in it.
"""

from operator import neg

from .field import (FieldElem, FieldError, MixedContextError, RatFuncElem,
                    RatFuncField, _ONE, _lead_conjugate, _zlin, _zmul, _zquo,
                    _zscale)
from .kronecker import _cleared as _clear


def _require_entries_of(rows, field):
    for row in rows:
        for x in row:
            if not (isinstance(x, FieldElem) and x.field is field):
                raise MixedContextError(f"matrix entry {x!r} is not in {field}")


def rref(rows, field):
    """Reduced row echelon form.  Returns (new_rows, pivot_columns)."""
    rows = [list(r) for r in rows]
    _require_entries_of(rows, field)
    form = field.packing(2)  # a row operation multiplies two entries
    red, pivots = _eliminate([[form.pack(x) for x in r] for r in rows], form)
    return [[form.element(x) for x in r] for r in red], pivots


def _eliminate(rows, form):
    """Gauss-Jordan elimination of `rows`, lists of values of a field's
    inner-loop `form`, in place: each row operation is one fused call of
    the form (`scaled`, `row_update`).

    The pivot of each column is its first nonzero entry at or below the
    current row.
    """
    if not rows:
        return rows, []
    is_zero = form.is_zero
    pivots = []
    r = 0
    for c in range(len(rows[0])):
        pivot_row = next((i for i in range(r, len(rows)) if not is_zero(rows[i][c])),
                         None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r] = form.scaled(rows[r], form.inverse(rows[r][c]))
        for i, row in enumerate(rows):
            f = row[c]
            if i != r and not is_zero(f):
                rows[i] = form.row_update(row, f, pivot)
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def kernel_basis(rows, field):
    """Basis of the right kernel of the matrix.

    Over Q(e)(a) the vectors are polynomials in a and are not normalized;
    over every other field each vector is 1 at its own free column and 0
    at the others.
    """
    if not rows:
        return []
    if isinstance(field, RatFuncField):
        _require_entries_of(rows, field)
        return [[RatFuncElem(field, x, 1, _ONE, 1) if x else field.zero() for x in vec]
                for vec in _kernel_zea([_cleared(r) for r in rows])]
    red, pivots = rref(rows, field)
    return _free_column_basis(red, pivots, len(rows[0]), field.zero(), field.one(), neg)


def kernel_vectors(rows, form, zero, one):
    """`kernel_basis` of rows of reduced values of a field's inner-loop
    `form`, whose 0 and 1 are `zero` and `one`, in reduced values."""
    if not rows:
        return []
    red, pivots = _eliminate([list(r) for r in rows], form)
    return _free_column_basis(red, pivots, len(rows[0]), zero, one,
                              lambda x: form.reduce(-x))


def _free_column_basis(red, pivots, ncols, zero, one, negate):
    """The kernel of a reduced row echelon form: per free column f, the
    vector with 1 at f, 0 at the other free columns and -red[r][f] at the
    pivot column of row r."""
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [zero] * ncols
        vec[f] = one
        for r, c in enumerate(pivots):
            vec[c] = negate(red[r][f])
        basis.append(vec)
    return basis


def _cleared(row):
    """A row of Q(e)(a) elements times a nonzero common multiple of their
    denominators, as Z[e][a] polynomials (`kronecker._cleared`).  The kernel is
    the same."""
    return _clear(row)[0]


def _exact_quotient(p, q):
    """p / q for Z[e][a] polynomials with q != (), raising `FieldError`
    unless q divides p in Z[e][a]."""
    if q == _ONE or not p:
        return p
    c = _lead_conjugate(q)  # q * c has a positive integer lead
    s, quo = _zquo(_zscale(p, *c), _zscale(q, *c))  # s * p == quo * q
    if any(a % s or b % s for a, b in quo):
        raise FieldError("inexact division in a fraction-free kernel")
    return tuple((a // s, b // s) for a, b in quo)


def _dot(row, vec):
    """The sum of row[j] * vec[j] over Z[e][a]."""
    acc = ()
    for x, y in zip(row, vec):
        if x and y:
            acc = _zlin(acc, 1, _zmul(x, y), 1)
    return acc


def _kernel_zea(rows):
    """Basis of the right kernel of a matrix of Z[e][a] polynomials.

    Bareiss elimination with column skipping, each pivot the lowest-degree
    nonzero entry of its column: each entry below the pivot rows becomes
    a minor of the (row-permuted) matrix, so the division by the previous
    pivot is exact.  For each free column f, back-substitution from x_f =
    the last pivot, a maximal minor, gives by Cramer's rule a polynomial
    vector, so its divisions are exact too; the last pivot row, whose
    pivot is x_f, gives its entry without one.
    """
    ncols = len(rows[0])
    m = [list(r) for r in rows]
    prev, pivots = _ONE, []
    for c in range(ncols):
        r = len(pivots)
        nonzero = [i for i in range(r, len(m)) if m[i][c]]
        if not nonzero:
            continue
        i = min(nonzero, key=lambda i: len(m[i][c]))
        m[r], m[i] = m[i], m[r]
        top = m[r]
        p = top[c]
        for row in m[r + 1:]:
            f = row[c]
            row[c] = ()
            for j in range(c + 1, ncols):
                row[j] = _exact_quotient(
                    _zlin(_zmul(p, row[j]), 1, _zmul(f, top[j]), -1), prev)
        prev = p
        pivots.append(c)
        if len(pivots) == len(m):
            break
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [()] * ncols
        vec[f] = prev
        if pivots:
            vec[pivots[-1]] = _zscale(m[len(pivots) - 1][f], -1)
        for k in range(len(pivots) - 2, -1, -1):
            row, c = m[k], pivots[k]
            vec[c] = _exact_quotient(_zscale(_dot(row[c + 1:], vec[c + 1:]), -1), row[c])
        if any(_dot(row, vec) for row in rows):
            raise FieldError("a fraction-free kernel vector fails its rows")
        basis.append(vec)
    return basis


def solve(rows, rhs, field):
    """One solution of A x = b, or None if inconsistent."""
    if not rows:
        return None
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug, field)
    if ncols in pivots:
        return None
    x = [field.zero()] * ncols
    for r, c in enumerate(pivots):
        x[c] = red[r][ncols]
    return x


# ---------------------------------------------------------------------------
# integer lattice routines (plain Python ints, exact)


def smith_normal_form(A):
    """Smith normal form with transforms: U @ A @ V = D.

    A is a list of lists of ints; returns (D, U, V) with U, V unimodular
    and D diagonal with d_1 | d_2 | ... .
    """
    m = len(A)
    n = len(A[0]) if m else 0
    D = [list(row) for row in A]
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in D:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, k):
        D[dst] = [a + k * b for a, b in zip(D[dst], D[src])]
        U[dst] = [a + k * b for a, b in zip(U[dst], U[src])]

    def add_col(src, dst, k):
        for row in D:
            row[dst] += k * row[src]
        for row in V:
            row[dst] += k * row[src]

    t = 0
    while t < min(m, n):
        # pivot: smallest nonzero absolute value in the remaining block
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if D[i][j] != 0 and (pivot is None or abs(D[i][j]) < abs(D[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            # Euclidean reduction of row/column t
            progress = False
            for i in range(t + 1, m):
                if D[i][t]:
                    q = D[i][t] // D[t][t]
                    add_row(t, i, -q)
                    if D[i][t]:
                        swap_rows(t, i)
                        progress = True
            for j in range(t + 1, n):
                if D[t][j]:
                    q = D[t][j] // D[t][t]
                    add_col(t, j, -q)
                    if D[t][j]:
                        swap_cols(t, j)
                        progress = True
            if progress:
                continue
            # force the divisibility chain: fold any non-multiple entry in
            if all(D[i][j] % D[t][t] == 0
                   for i in range(t + 1, m) for j in range(t + 1, n)):
                break
            for i in range(t + 1, m):
                if any(D[i][j] % D[t][t] != 0 for j in range(t + 1, n)):
                    add_row(i, t, 1)
                    break
        if D[t][t] < 0:
            D[t] = [-x for x in D[t]]
            U[t] = [-x for x in U[t]]
        t += 1
    return D, U, V


def invariant_factors(A):
    D, _, _ = smith_normal_form(A)
    out = []
    for i in range(min(len(D), len(D[0]) if D else 0)):
        if D[i][i] != 0:
            out.append(D[i][i])
    return out

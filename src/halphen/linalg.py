"""Exact linear algebra, generic over the coefficient field, plus integer
Smith normal form with transformation matrices."""


def rref(rows, field):
    """Reduced row echelon form.  Returns (new_rows, pivot_columns)."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if not rows[i][c].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(rows, field):
    _, pivots = rref(rows, field)
    return len(pivots)


def kernel_basis(rows, field):
    """Basis of the right kernel of the matrix."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(rows, field)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [field.zero()] * ncols
        vec[f] = field.one()
        for r, c in enumerate(pivots):
            vec[c] = -red[r][f]
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

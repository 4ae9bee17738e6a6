"""Exact dense linear algebra over any of the package's fields.

Matrices are plain lists of rows.  Everything is fraction-free-agnostic:
we just divide, which is fine because all coefficient fields here are
exact.  Dimensions stay small (<= ~100), so Gaussian elimination is the
only algorithm needed, in two forms.  ``rref`` (Gauss-Jordan) gives the
reduced matrix that ``nullspace`` and ``solve_many`` read;
``pivot_columns`` eliminates forward only, which is all that ``rank``
needs, and its pivots also give the rank of every prefix of the
columns.  Both row updates skip the zero entries of the pivot row: the
matrices here are sparse, and over k(x) every entry rewritten costs
polynomial arithmetic.
"""

from __future__ import annotations


def zeros(field, rows: int, cols: int):
    return [[field.zero for _ in range(cols)] for _ in range(rows)]


def identity(field, n: int):
    m = zeros(field, n, n)
    for i in range(n):
        m[i][i] = field.one
    return m


def mat_mul(field, a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = zeros(field, rows, cols)
    for i in range(rows):
        ai = a[i]
        for k in range(inner):
            aik = ai[k]
            if not aik:
                continue
            bk = b[k]
            oi = out[i]
            for j in range(cols):
                oi[j] = oi[j] + aik * bk[j]
    return out

def mat_vec(field, a, v):
    out = []
    for row in a:
        acc = field.zero
        for c, x in zip(row, v):
            if c and x:
                acc = acc + c * x
        out.append(acc)
    return out


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def mat_eq(a, b) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def rref(field, mat):
    """Reduced row echelon form; returns (matrix, pivot column list).

    A row is updated only on the pivot row's nonzero entries.
    """
    m = [list(row) for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        for pivot_row in range(r, rows):
            if m[pivot_row][c]:
                break
        else:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = field.one / m[r][c]
        pivot = m[r] = [inv * y if y else y for y in m[r]]
        support = [j for j, y in enumerate(pivot) if y]
        for i in range(rows):
            row = m[i]
            f = row[c]
            if i != r and f:
                for j in support:
                    row[j] = row[j] - f * pivot[j]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def pivot_columns(field, mat) -> list:
    """Pivot columns of mat by forward elimination alone.

    Columns are taken left to right, and a pivot clears only the rows
    below it; the pivot row is not scaled and no entry above a pivot is
    touched.  Column c gets a pivot exactly when it is not in the span
    of the columns before it, so the pivots among the first k columns
    count the rank of those k columns.
    """
    m = [list(row) for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        for pivot_row in range(r, rows):
            if m[pivot_row][c]:
                break
        else:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pivot = m[r]
        inv = field.one / pivot[c]
        support = [j for j in range(c + 1, cols) if pivot[j]]
        # column c is never read again, so its entries below r stay as they are
        for i in range(r + 1, rows):
            row = m[i]
            if row[c]:
                f = row[c] * inv
                for j in support:
                    row[j] = row[j] - f * pivot[j]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def rank(field, mat) -> int:
    return len(pivot_columns(field, mat))


def nullspace(field, mat):
    """Basis of the right kernel, as a list of vectors."""
    if not mat:
        return []
    cols = len(mat[0])
    red, pivots = rref(field, mat)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [field.zero] * cols
        v[fc] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def solve_many(field, mat, rhss):
    """Solve mat @ x = b for every b in rhss by one elimination.

    Row-reduces [mat | b_1 ... b_k].  Returns (solutions, rank of mat);
    a solution is None when its system is inconsistent, i.e. when its
    column is nonzero below the rows that hold the pivots of mat.  A
    pivot in a right-hand-side column lies in one of those rows, which
    are zero in every consistent column, so it leaves their solutions
    as they are.
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    aug = [list(mat[i]) + [b[i] for b in rhss] for i in range(rows)]
    red, pivots = rref(field, aug)
    pivots = [c for c in pivots if c < cols]
    rank = len(pivots)
    solutions = []
    for j in range(cols, cols + len(rhss)):
        if any(red[i][j] for i in range(rank, rows)):
            solutions.append(None)
            continue
        x = [field.zero] * cols
        for r, pc in enumerate(pivots):
            x[pc] = red[r][j]
        solutions.append(x)
    return solutions, rank


def solve(field, mat, rhs):
    """One solution of mat @ x = rhs, or None if inconsistent."""
    return solve_many(field, mat, [rhs])[0][0]


def in_span(field, basis, vectors) -> list:
    """Whether each of the vectors lies in the span of basis (one elimination)."""
    if not basis:
        return [not any(v) for v in vectors]
    solutions, _ = solve_many(field, transpose(basis), vectors)
    return [x is not None for x in solutions]


def row_space_basis(field, vectors):
    """Echelonized basis of the span of the given vectors."""
    if not vectors:
        return []
    red, pivots = rref(field, vectors)
    return [red[i] for i in range(len(pivots))]


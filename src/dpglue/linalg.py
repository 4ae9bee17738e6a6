"""Exact linear algebra over any of the package's fields.

Matrices are plain lists of rows, and every field here is exact, so
elimination just divides.  There is one elimination, ``echelon``: it
takes sparse rows {column: nonzero entry}, reduces each row by the
pivot rows before it at its leading column and never touches a zero
entry, which matters because the matrices here are mostly zero and over
k(x) every entry rewritten costs polynomial arithmetic.  Its pivots are
those of the reduced row echelon form, so they also give the rank of
every prefix of the columns.  ``kernel_vectors`` is ``echelon`` plus
back-substitution of one kernel vector at a time, and ``rref`` is
``echelon`` plus back-substitution of the rows, on dense rows;
``rank``, ``nullspace``, ``solve_many``, ``solve``, ``in_span`` and
``row_space_basis`` read one of the three.
"""

from __future__ import annotations

from bisect import bisect_left


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


def echelon(field, rows) -> dict:
    """Echelon basis of the span of sparse rows, as {pivot column: row}.

    A row is a dict {column: nonzero entry}.  Each row is reduced by the
    pivot rows found before it, always at its leading (least) column,
    until that column has no pivot row yet; it is then kept, unscaled,
    as the pivot row of that column.  A row reduced to nothing is
    dropped.  Column c gets a pivot exactly when the rank of the columns
    <= c exceeds the rank of the columns < c, so the pivot set does not
    depend on the order of the rows, and the pivots below k count the
    rank of the first k columns.
    """
    basis = {}
    for row in rows:
        row = dict(row)
        while row:
            lead = min(row)
            pivot = basis.get(lead)
            if pivot is None:
                basis[lead] = row
                break
            _add_multiple(row, -row[lead] / pivot[lead], pivot)
    return basis


def _add_multiple(row, f, other):
    """row += f * other, keeping only the entries that stay nonzero."""
    for c, y in other.items():
        if c in row:
            v = row[c] + f * y
            if v:
                row[c] = v
            else:
                del row[c]
        else:
            row[c] = f * y


def _sparse(mat):
    return [{j: x for j, x in enumerate(row) if x} for row in mat]


def rref(field, mat):
    """Reduced row echelon form; returns (matrix, pivot column list).

    ``echelon``, then back-substitution from the highest pivot down:
    each pivot row is scaled to 1 at its pivot and cleared at every
    later pivot column by the row already reduced there.  The zero rows
    come last.
    """
    cols = len(mat[0]) if mat else 0
    basis = echelon(field, _sparse(mat))
    pivots = sorted(basis)
    reduced = {}
    for p in reversed(pivots):
        row = basis[p]
        inv = field.one / row[p]
        row = {c: inv * y for c, y in row.items()}
        for q in [c for c in row if c in reduced]:
            _add_multiple(row, -row[q], reduced[q])
        reduced[p] = row
    out = [[field.zero] * cols for _ in mat]
    for dense, p in zip(out, pivots):
        for c, y in reduced[p].items():
            dense[c] = y
    return out, pivots


def rank(field, mat) -> int:
    return len(echelon(field, _sparse(mat)))


def kernel_vectors(field, rows, cols: int):
    """The right kernel of sparse rows over columns 0..cols-1, lazily.

    Yields one dense vector per column without a pivot in ``echelon``,
    in column order: 1 at its free column c, 0 at every other free
    column, and at each pivot column below c, from the highest down,
    the value its pivot row forces (back-substitution).  A pivot above
    c gets 0, as its row holds only columns above c, all free and 0
    or pivots already 0.  These are the vectors that the reduced row
    echelon form gives, so a caller may stop at the first it needs.
    """
    basis = echelon(field, rows)
    pivots = sorted(basis)
    for c in range(cols):
        if c in basis:
            continue
        v = [field.zero] * cols
        v[c] = field.one
        for p in reversed(pivots[:bisect_left(pivots, c)]):
            row = basis[p]
            acc = field.zero
            for q, y in row.items():
                if q != p and v[q]:
                    acc = acc + y * v[q]
            if acc:
                v[p] = -acc / row[p]
        yield v


def nullspace(field, mat):
    """Basis of the right kernel of a dense matrix, as a list of vectors."""
    if not mat:
        return []
    return list(kernel_vectors(field, _sparse(mat), len(mat[0])))


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
    red, pivots = rref(field, vectors)
    return red[:len(pivots)]


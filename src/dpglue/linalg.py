"""Exact linear algebra over any of the package's fields.

Matrices are plain lists of rows, and every field here is exact, so
elimination just divides.  There is one elimination, ``echelon``: it
takes sparse rows {column: nonzero entry}, reduces each row by the
pivot rows before it at its leading column and never touches a zero
entry, which matters because the matrices here are mostly zero and over
k(x) every entry rewritten costs polynomial arithmetic.  Its pivots are
those of the reduced row echelon form, so they also give the rank of
every prefix of the columns.  There is one back-substitution,
``_reduced``, which turns ``echelon``'s rows into the rows of the
reduced row echelon form; ``rref``, ``kernel_vectors`` and
``solve_many`` read it, and ``rank``, ``nullspace``, ``solve``,
``in_span`` and ``row_space_basis`` read one of those or ``echelon``.
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


def _reduced(field, basis) -> dict:
    """``echelon``'s rows {pivot column: row} in reduced row echelon form.

    From the highest pivot down, each row is scaled to 1 at its pivot
    and cleared at every later pivot column by the row already reduced
    there, so a reduced row is 1 at its pivot, holds otherwise only
    columns without a pivot, all above it, and is the same row whatever
    order ``echelon`` saw.
    """
    out = {}
    for p in sorted(basis, reverse=True):
        row = basis[p]
        inv = field.one / row[p]
        row = {c: inv * y for c, y in row.items()}
        for q in [c for c in row if c in out]:
            _add_multiple(row, -row[q], out[q])
        out[p] = row
    return out


def rref(field, mat):
    """Reduced row echelon form; returns (matrix, pivot column list).

    The rows of ``_reduced`` in pivot order, dense, then the zero rows.
    """
    cols = len(mat[0]) if mat else 0
    rows = _reduced(field, echelon(field, _sparse(mat)))
    pivots = sorted(rows)
    out = [[field.zero] * cols for _ in mat]
    for dense, p in zip(out, pivots):
        for c, y in rows[p].items():
            dense[c] = y
    return out, pivots


def rank(field, mat) -> int:
    return len(echelon(field, _sparse(mat)))


def kernel_vectors(field, rows, cols: int):
    """The right kernel of sparse rows over columns 0..cols-1.

    Yields one dense vector per column c without a pivot, in column
    order: 1 at c, 0 at every other column without a pivot, and minus
    the entry of column c in the ``_reduced`` row of each pivot.  This is
    the kernel basis of the reduced row echelon form, so a caller may
    stop at the first vector it needs.
    """
    basis = _reduced(field, echelon(field, rows))
    for c in range(cols):
        if c in basis:
            continue
        v = [field.zero] * cols
        v[c] = field.one
        for p, row in basis.items():
            if c in row:
                v[p] = -row[c]
        yield v


def nullspace(field, mat):
    """Basis of the right kernel of a dense matrix, as a list of vectors."""
    if not mat:
        return []
    return list(kernel_vectors(field, _sparse(mat), len(mat[0])))


def solve_many(field, mat, rhss):
    """Solve mat @ x = b for every b in rhss by one elimination.

    Reduces the sparse rows of [mat | b_1 ... b_k].  Returns (solutions,
    rank of mat); a solution is None when its system is inconsistent,
    i.e. when its column holds an entry of a ``_reduced`` row whose pivot
    lies past mat's columns.  Otherwise its column is 0 on those rows,
    and x reads it off the rows of mat's pivots.
    """
    cols = len(mat[0]) if mat else 0
    aug = [{j: x for j, x in enumerate(row) if x}
           | {j: b[i] for j, b in enumerate(rhss, cols) if b[i]} for i, row in enumerate(mat)]
    basis = _reduced(field, echelon(field, aug))
    inconsistent = {c for p, row in basis.items() if p >= cols for c in row}
    solutions = [None if j in inconsistent
                 else [basis[c].get(j, field.zero) if c in basis else field.zero
                       for c in range(cols)]
                 for j in range(cols, cols + len(rhss))]
    return solutions, sum(p < cols for p in basis)


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


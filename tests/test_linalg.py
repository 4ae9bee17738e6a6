"""Linear algebra: one elimination for many right-hand sides, sparse row updates."""

from hypothesis import given, settings, strategies as st

from dpglue import linalg
from dpglue.fields import base_field
from dpglue.polynomials import Poly
from dpglue.rational import FunctionField, RationalFunction

from conftest import dense_nullspace, dense_rref


@st.composite
def systems(draw):
    """(field, matrix, right-hand sides), half of them consistent by construction."""
    field = base_field(draw(st.sampled_from([0, 3])))
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    entry = st.integers(-2, 2).map(field.from_int)
    mat = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                        min_size=rows, max_size=rows))
    rhss = []
    for consistent in draw(st.lists(st.booleans(), max_size=5)):
        if consistent:
            x = draw(st.lists(entry, min_size=cols, max_size=cols))
            rhss.append(linalg.mat_vec(field, mat, x))
        else:
            rhss.append(draw(st.lists(entry, min_size=rows, max_size=rows)))
    return field, mat, rhss


@given(systems())
@settings(max_examples=150, deadline=None)
def test_solve_many_matches_one_at_a_time(system):
    field, mat, rhss = system
    solutions, rank = linalg.solve_many(field, mat, rhss)
    assert rank == linalg.rank(field, mat)
    assert len(solutions) == len(rhss)
    for b, x in zip(rhss, solutions):
        assert x == linalg.solve(field, mat, b)
        augmented = [row + [bi] for row, bi in zip(mat, b)]
        if x is None:
            assert linalg.rank(field, augmented) > rank
        else:
            assert linalg.mat_vec(field, mat, x) == b


@given(systems())
@settings(max_examples=60, deadline=None)
def test_in_span_matches_rank(system):
    field, mat, vectors = system
    basis = linalg.transpose(mat)
    inside = linalg.in_span(field, basis, vectors)
    for v, got in zip(vectors, inside):
        assert got == (linalg.rank(field, basis + [v]) == linalg.rank(field, basis))


def test_in_span_of_nothing_is_only_zero():
    Q = base_field(0)
    assert linalg.in_span(Q, [], [[Q.zero, Q.zero], [Q.zero, Q.one]]) == [True, False]


# -- sparse elimination against a dense reference ------------------------


@st.composite
def sparse_matrices(draw):
    """Mostly-zero matrices over Q, GF(2), GF(3), GF(7) or (size <= 4) k(x), k = GF(3)."""
    kind = draw(st.sampled_from(["Q", "GF(3)", "k(x)", "GF(2)", "GF(7)"]))
    limit = 4 if kind == "k(x)" else 7
    rows = draw(st.integers(1, limit))
    cols = draw(st.integers(1, limit))
    if kind == "k(x)":
        base = base_field(3)
        field = FunctionField(base)
        small = st.lists(st.integers(-1, 1).map(base.from_int), max_size=3)
        nonzero_den = small.map(lambda cs: Poly(base, cs)).filter(bool)
        value = st.builds(lambda n, d: RationalFunction(base, Poly(base, n), d),
                          small, nonzero_den)
    else:
        field = base_field(0 if kind == "Q" else int(kind[3:-1]))
        value = st.integers(-3, 3).map(field.from_int)
    entry = st.one_of(st.just(field.zero), st.just(field.zero), value)
    mat = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                        min_size=rows, max_size=rows))
    return field, mat


@given(sparse_matrices())
@settings(max_examples=150)
def test_rref_matches_dense_reference(case):
    field, mat = case
    assert linalg.rref(field, mat) == dense_rref(field, mat)


def sparse(mat):
    return [{j: x for j, x in enumerate(row) if x} for row in mat]


@given(sparse_matrices())
@settings(max_examples=150)
def test_forward_elimination_finds_the_rref_pivots(case):
    field, mat = case
    pivots = linalg.echelon(field, sparse(mat))
    assert sorted(pivots) == dense_rref(field, mat)[1]
    assert linalg.rank(field, mat) == len(pivots)


@given(sparse_matrices())
@settings(max_examples=100)
def test_echelon_pivots_count_the_rank_of_every_prefix(case):
    field, mat = case
    pivots = linalg.echelon(field, sparse(mat))
    for k in range(len(mat[0]) + 1):
        prefix = [row[:k] for row in mat]
        assert sum(c < k for c in pivots) == len(dense_rref(field, prefix)[1])


@given(sparse_matrices(), st.data())
@settings(max_examples=100)
def test_echelon_pivots_do_not_depend_on_row_order(case, data):
    field, mat = case
    rows = sparse(mat)
    shuffled = data.draw(st.permutations(rows))
    assert set(linalg.echelon(field, shuffled)) == set(linalg.echelon(field, rows))
    assert rows == sparse(mat)  # the input rows are left as they were


@given(sparse_matrices(), st.integers(0, 2))
@settings(max_examples=150)
def test_kernel_vectors_are_the_rref_nullspace(case, extra):
    """Reading each free column off the reduced rows gives the rref's
    kernel vectors, in free-column order, also with columns no row
    touches."""
    field, mat = case
    want = dense_nullspace(field, [row + [field.zero] * extra for row in mat])
    cols = len(mat[0]) + extra
    assert list(linalg.kernel_vectors(field, sparse(mat), cols)) == want
    if not extra:
        assert linalg.nullspace(field, mat) == want
    for v in want:
        assert not any(linalg.mat_vec(field, mat, v[:len(mat[0])]))


def test_kernel_vectors_of_no_rows_are_the_unit_vectors():
    F = base_field(5)
    assert list(linalg.kernel_vectors(F, [], 3)) == linalg.identity(F, 3)
    assert linalg.nullspace(F, []) == []

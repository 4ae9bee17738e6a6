"""Dense linear algebra: one elimination for many right-hand sides."""

from hypothesis import given, settings, strategies as st

from dpglue import linalg
from dpglue.fields import base_field


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

"""Finite modules over Artinian local algebras and duality."""

import pytest

from dpglue.artinian import (FiniteAlgebra, FiniteModule, annihilator,
                             dual_module, find_isomorphism, is_faithful,
                             is_free_rank_one, length, make_subalgebra,
                             matrix_counterexample, modules_isomorphic,
                             quotient_module, restriction_trace, socle)
from dpglue import linalg
from dpglue.fields import base_field

from conftest import CHARACTERISTICS


def truncated_algebra(field, n):
    """k[t]/(t^n) with basis 1, t, ..., t^(n-1)."""
    zero, one = field.zero, field.one
    table = []
    for i in range(n):
        row = []
        for j in range(n):
            v = [zero] * n
            if i + j < n:
                v[i + j] = one
            row.append(v)
        table.append(row)
    unit = [one] + [zero] * (n - 1)
    return FiniteAlgebra(field, table, unit,
                         labels=[f"t^{i}" if i else "1" for i in range(n)])


def product_field_algebra(field, r):
    """K x ... x K with the componentwise product."""
    zero, one = field.zero, field.one
    table = []
    for i in range(r):
        row = []
        for j in range(r):
            v = [zero] * r
            if i == j:
                v[i] = one
            row.append(v)
        table.append(row)
    return FiniteAlgebra(field, table, [one] * r)


def jordan_module(algebra, sizes):
    """Direct sum of k[t]/(t^j) as a module over k[t]/(t^n), j <= n."""
    field = algebra.field
    dim = sum(sizes)
    nilpotent = [[field.zero] * dim for _ in range(dim)]
    off = 0
    for j in sizes:
        for k in range(j - 1):
            nilpotent[off + k + 1][off + k] = field.one
        off += j
    action = []
    for i in range(algebra.dim):  # t^i acts by N^i
        mat = [[field.one if r == c else field.zero for c in range(dim)]
               for r in range(dim)]
        for _ in range(i):
            mat = [[sum((nilpotent[r][k] * mat[k][c] for k in range(dim)),
                        field.zero) for c in range(dim)] for r in range(dim)]
        action.append(mat)
    return FiniteModule(algebra, dim, action)


# -- length ------------------------------------------------------------


def test_length_of_regular_module():
    A = truncated_algebra(base_field(0), 2)
    assert length(A.regular_module()) == 2


def test_length_counts_residue_degree():
    # L[t]/(t^3) with [L:K]=2, viewed over the diagonal K: dimension 6
    Q = base_field(0)
    A = truncated_algebra(Q, 6)  # only the dimension matters for length
    M = jordan_module(truncated_algebra(Q, 1), [1] * 6)
    assert length(M) == 6


def test_length_zero_module():
    A = truncated_algebra(base_field(0), 2)
    assert length(jordan_module(A, [])) == 0


def test_length_rejects_nonlocal():
    A = product_field_algebra(base_field(0), 2)
    with pytest.raises(ValueError):
        length(A.regular_module())


# -- duals -------------------------------------------------------------


def test_residue_field_self_dual():
    A = truncated_algebra(base_field(0), 1)
    M = A.regular_module()
    assert modules_isomorphic(M, dual_module(M))


def test_truncated_algebra_self_dual():
    A = truncated_algebra(base_field(0), 2)
    M = A.regular_module()
    iso = find_isomorphism(M, dual_module(M))
    assert iso is not None


@pytest.mark.parametrize("p", CHARACTERISTICS)
def test_double_duality_and_invariants(rng, p):
    field = base_field(p)
    count = 0
    while count < 50:
        n = rng.randrange(1, 4)
        A = truncated_algebra(field, n)
        sizes = []
        budget = rng.randrange(1, 7)
        while budget > 0:
            j = rng.randrange(1, min(n, budget) + 1)
            sizes.append(j)
            budget -= j
        M = jordan_module(A, sizes)
        D = dual_module(M)
        assert length(D) == length(M)
        ann_m, ann_d = annihilator(M), annihilator(D)
        assert linalg.rank(field, ann_m + ann_d) == len(
            linalg.row_space_basis(field, ann_m)
        ) == len(linalg.row_space_basis(field, ann_d))
        assert modules_isomorphic(M, dual_module(D))
        count += 1


# -- socle -------------------------------------------------------------


def test_socle_of_t_cubed():
    A = truncated_algebra(base_field(0), 3)
    basis = socle(A.regular_module())
    assert len(basis) == 1
    assert basis[0][2] and not basis[0][0] and not basis[0][1]


def test_socle_over_field_is_everything():
    A = truncated_algebra(base_field(0), 1)
    M = jordan_module(A, [1, 1])
    assert len(socle(M)) == 2


def test_socle_two_variable_square_zero():
    # K[y1,y2]/(y1,y2)^2
    Q = base_field(0)
    zero, one = Q.zero, Q.one
    table = [[[zero] * 3 for _ in range(3)] for _ in range(3)]
    for i in range(3):
        table[0][i][i] = one
        table[i][0][i] = one
    A = FiniteAlgebra(Q, table, [one, zero, zero], labels=["1", "y1", "y2"])
    assert len(socle(A.regular_module())) == 2


# -- annihilators and faithfulness -------------------------------------


def test_regular_module_faithful():
    A = truncated_algebra(base_field(0), 3)
    assert is_faithful(A.regular_module())
    assert annihilator(A.regular_module()) == []


def test_quotient_by_t_not_faithful():
    A = truncated_algebra(base_field(0), 2)
    M = jordan_module(A, [1])
    ann = annihilator(M)
    assert len(ann) == 1 and ann[0][1]
    assert not is_faithful(M)


# -- subalgebras -------------------------------------------------------


def test_make_subalgebra_over_q():
    A = truncated_algebra(base_field(0), 3)
    sub = make_subalgebra(A, [A.basis_vector(0), A.basis_vector(2)])
    assert sub.algebra.unit == [1, 0]
    assert sub.algebra.table[1][1] == [0, 0]  # (t^2)^2 = 0


def test_make_subalgebra_rejections_over_q():
    Q = base_field(0)
    A = truncated_algebra(Q, 3)
    one, t, t2 = (A.basis_vector(i) for i in range(3))
    with pytest.raises(ValueError, match="not independent"):
        make_subalgebra(A, [one, [Q.from_int(2), Q.zero, Q.zero]])
    for basis in ([t, t2], []):
        with pytest.raises(ValueError, match="does not contain the unit"):
            make_subalgebra(A, basis)
    with pytest.raises(ValueError, match=r"not closed under multiplication at \(1,1\)"):
        make_subalgebra(A, [one, t])
    # in k[t]/(t^4) the first product outside span{1, t, t^2} is t * t^2
    B = truncated_algebra(Q, 4)
    with pytest.raises(ValueError, match=r"not closed under multiplication at \(1,2\)"):
        make_subalgebra(B, [B.basis_vector(i) for i in range(3)])


def test_make_subalgebra_rejections_over_kx():
    from dpglue.glue import glue_data, kxi_engine

    # k(x)[y1]/(y1^2) x k(x)[y2]/(y2^2), basis e1, e2, y1, y2
    OC = kxi_engine(glue_data(0, "x", ["1", "x"])).OC
    F = OC.field
    e1, y1 = OC.basis_vector(0), OC.basis_vector(2)
    with pytest.raises(ValueError, match="not independent"):
        make_subalgebra(OC, [OC.unit, [F.x * c for c in OC.unit]])
    with pytest.raises(ValueError, match="does not contain the unit"):
        make_subalgebra(OC, [e1, y1])
    # (x e1 + y2)^2 = x^2 e1 is outside span{1, x e1 + y2}
    mixed = [F.x, F.zero, F.zero, F.one]
    with pytest.raises(ValueError, match=r"not closed under multiplication at \(1,1\)"):
        make_subalgebra(OC, [OC.unit, mixed])
    # {1, e1, y1} is closed: e1 y1 = y1 and y1^2 = 0
    sub = make_subalgebra(OC, [OC.unit, e1, y1])
    assert sub.algebra.dim == 3


# -- restriction of trace ----------------------------------------------


def test_restriction_full_ring_kernel_zero():
    A = truncated_algebra(base_field(0), 2)
    sub = make_subalgebra(A, [A.basis_vector(0), A.basis_vector(1)])
    _, ker = restriction_trace(sub)
    assert ker.dim == 0


def test_restriction_node_model():
    Q = base_field(0)
    A = product_field_algebra(Q, 2)
    sub = make_subalgebra(A, [[Q.one, Q.one]])
    _, ker = restriction_trace(sub)
    assert ker.dim == 1


def test_restriction_cusp_model():
    Q = base_field(0)
    A = truncated_algebra(Q, 2)
    sub = make_subalgebra(A, [A.basis_vector(0)])
    _, ker = restriction_trace(sub)
    assert ker.dim == 1
    # t annihilates the kernel: the sub is just K, so the action of its
    # unit is the identity and the kernel is K-trivial
    assert is_faithful(ker)


# -- free rank one -----------------------------------------------------


def test_regular_module_free():
    A = truncated_algebra(base_field(0), 3)
    ok, gen = is_free_rank_one(A.regular_module())
    assert ok and gen is not None


def test_residue_field_not_free_over_bigger():
    A = truncated_algebra(base_field(0), 2)
    ok, _ = is_free_rank_one(jordan_module(A, [1]))
    assert not ok


def test_dual_of_gorenstein_algebra_is_free():
    A = truncated_algebra(base_field(0), 3)
    ok, _ = is_free_rank_one(dual_module(A.regular_module()))
    assert ok
    assert len(socle(A.regular_module())) == 1


# -- the matrix fixture ------------------------------------------------


@pytest.mark.parametrize("n,alen,mlen", [(1, 2, 2), (2, 5, 4), (3, 10, 6)])
def test_matrix_counterexample_lengths(n, alen, mlen):
    A, M = matrix_counterexample(base_field(0), n)
    assert length(A.regular_module()) == alen
    assert length(M) == mlen
    assert is_faithful(M)
    if n >= 2:
        assert alen > mlen


def test_matrix_counterexample_not_self_dual():
    A, M = matrix_counterexample(base_field(0), 2)
    reg = A.regular_module()
    assert not modules_isomorphic(reg, dual_module(reg))

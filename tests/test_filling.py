"""Part-fillings, half-fillings, Serre invariants, classification."""

import pytest

from dpglue import linalg
from dpglue.catalog import GlueScenario, building_block, scenario_report
from dpglue.fields import base_field
from dpglue.filling import (BranchSpec, build_conductor_ring, classify_codim1,
                            derivation_kernel, is_half_filling,
                            is_part_filling, serre_invariants,
                            trace_shape_detect)
from dpglue.glue import glue_data
from dpglue.polynomials import Poly
from dpglue.rational import FunctionField

from conftest import CHARACTERISTICS, random_part_filling

Q = base_field(0)


def ring_node():
    return build_conductor_ring(Q, [BranchSpec(1), BranchSpec(1)])


def ring_cusp():
    return build_conductor_ring(Q, [BranchSpec(2)])


def ring_lines(r, field=Q):
    return build_conductor_ring(field, [BranchSpec(2) for _ in range(r)])


def diagonal(ring):
    return [ring.algebra.unit]


# -- construction ------------------------------------------------------


def test_two_reduced_branches():
    assert ring_node().dim == 2


def test_one_double_branch():
    assert ring_cusp().dim == 2


def test_quadratic_residue_branch():
    ext = Poly(Q, [Q.from_int(-2), Q.zero, Q.one])  # u^2 - 2
    ring = build_conductor_ring(Q, [BranchSpec(1, minpoly=ext)])
    assert ring.dim == 2
    u = ring.monomial(0, 1, 0)
    sq = ring.algebra.mul(u, u)
    assert sq[0] == Q.from_int(2)


def test_dimension_formula():
    ext = Poly(Q, [Q.from_int(-2), Q.zero, Q.one])
    ring = build_conductor_ring(Q, [BranchSpec(3, minpoly=ext), BranchSpec(2)])
    assert ring.dim == 3 * 2 + 2


# -- part-fillings -----------------------------------------------------


def test_node_is_part_filling():
    ring = ring_node()
    assert is_part_filling(diagonal(ring), ring).ok


def test_full_ring_rejected():
    ring = ring_node()
    res = is_part_filling([ring.monomial(0, 0, 0), ring.monomial(1, 0, 0)], ring)
    assert not res.ok


def test_one_sided_nilpotent_not_faithful():
    ring = ring_lines(2)
    res = is_part_filling([ring.algebra.unit, ring.nilpotent(0)], ring)
    assert not res.ok
    assert any("faithful" in reason for reason in res.reasons)


def test_dependent_basis_is_an_error():
    ring = ring_node()
    with pytest.raises(ValueError):
        is_part_filling([ring.algebra.unit, ring.algebra.unit], ring)


# -- Serre invariants --------------------------------------------------


def test_node_invariants():
    ring = ring_node()
    res = is_part_filling(diagonal(ring), ring)
    assert serre_invariants(res, ring) == (2, 1, 1)


def test_cusp_invariants():
    ring = ring_cusp()
    res = is_part_filling(diagonal(ring), ring)
    assert serre_invariants(res, ring) == (2, 1, 1)


def test_triple_diagonal_strict():
    ring = build_conductor_ring(Q, [BranchSpec(1)] * 3)
    res = is_part_filling(diagonal(ring), ring)
    assert serre_invariants(res, ring) == (3, 2, 1)
    assert not is_half_filling(res, ring)


# -- half-fillings -----------------------------------------------------


def tacnode_filling():
    ring = ring_lines(2)
    y1, y2 = ring.nilpotent(0), ring.nilpotent(1)
    basis = [ring.algebra.unit, [a - b for a, b in zip(y1, y2)]]
    return ring, is_part_filling(basis, ring)


def concurrent_lines_filling(r, field=Q):
    ring = ring_lines(r, field)
    basis = [ring.algebra.unit]
    for i in range(r - 1):
        yi = ring.nilpotent(i)
        yn = ring.nilpotent(i + 1)
        basis.append([a - b for a, b in zip(yi, yn)])
    return ring, is_part_filling(basis, ring)


def test_tacnode_half_filling():
    ring, res = tacnode_filling()
    assert res.ok and is_half_filling(res, ring)


def test_three_lines_half_filling():
    ring, res = concurrent_lines_filling(3)
    assert res.ok and is_half_filling(res, ring)
    assert serre_invariants(res, ring) == (6, 3, 3)


def test_node_half_filling():
    ring = ring_node()
    res = is_part_filling(diagonal(ring), ring)
    assert is_half_filling(res, ring)


# -- classification ----------------------------------------------------


def test_classify_node():
    ring = ring_node()
    res = is_part_filling(diagonal(ring), ring)
    assert repr(classify_codim1(res, ring)) == "node"


def test_classify_cusp():
    ring = ring_cusp()
    res = is_part_filling(diagonal(ring), ring)
    assert repr(classify_codim1(res, ring)) == "cusp"


def test_classify_tacnode():
    ring, res = tacnode_filling()
    assert repr(classify_codim1(res, ring)) == "tacnode"


@pytest.mark.parametrize("r", [3, 4, 5])
def test_classify_concurrent_lines(r):
    ring, res = concurrent_lines_filling(r)
    assert repr(classify_codim1(res, ring)) == f"r-concurrent-lines({r})"


def test_classify_inseparable_node():
    F = FunctionField(base_field(2))
    minpoly = Poly(F, [-F.x, F.zero, F.one])  # u^2 - x, inseparable
    ring = build_conductor_ring(F, [BranchSpec(1, minpoly=minpoly)])
    res = is_part_filling(diagonal(ring), ring)
    assert res.ok and is_half_filling(res, ring)
    assert repr(classify_codim1(res, ring)) == "inseparable-node"


def test_classify_separable_quadratic_node():
    minpoly = Poly(Q, [Q.from_int(-2), Q.zero, Q.one])
    ring = build_conductor_ring(Q, [BranchSpec(1, minpoly=minpoly)])
    res = is_part_filling(diagonal(ring), ring)
    assert repr(classify_codim1(res, ring)) == "node"


def test_classify_failed_filling():
    ring = build_conductor_ring(Q, [BranchSpec(1)] * 3)
    res = is_part_filling(diagonal(ring), ring)
    assert repr(classify_codim1(res, ring)) == "not-gorenstein"


def test_trace_shape_detection_on_tacnode():
    ring, res = tacnode_filling()
    assert trace_shape_detect(res, ring)


def test_trace_shape_detection_on_cusp():
    # m_D = 0, so the functional is all of the one-dimensional T*
    ring = ring_cusp()
    res = is_part_filling(diagonal(ring), ring)
    assert trace_shape_detect(res, ring)


def test_trace_shape_needs_psi_nonzero_on_every_summand():
    # m_D = (t_1) is the kernel of psi = (0, 1), which vanishes on T*_1
    ring = ring_lines(2)
    res = is_part_filling([ring.algebra.unit, ring.nilpotent(0)], ring)
    assert not trace_shape_detect(res, ring)


def test_trace_shape_detection_rejects_a_residue_extension():
    # classify_codim1 sends such a ring to wild(r) without asking
    minpoly = Poly(Q, [Q.from_int(-2), Q.zero, Q.one])
    ring = build_conductor_ring(Q, [BranchSpec(2, minpoly=minpoly), BranchSpec(2)])
    res = is_part_filling(diagonal(ring), ring)
    with pytest.raises(ValueError, match="residue degree"):
        trace_shape_detect(res, ring)


# -- derivation kernels ------------------------------------------------


def test_kernel_cusp():
    ring, res = derivation_kernel(0, 0, ["1"])
    assert len(res.sub.basis) == 1
    assert res.sub.basis[0] == ring.algebra.unit


def test_kernel_tacnode_family():
    ring, res = derivation_kernel(0, 0, ["1", "1"])
    assert len(res.sub.basis) == 2
    # eta = y2 - y1 lives in the kernel basis (order e1, y1, e2, y2)
    F = ring.field
    eta = res.sub.basis[1]
    assert eta[1] == -F.one and eta[3] == F.one


@pytest.mark.parametrize("r", range(1, 7))
@pytest.mark.parametrize("p", [0, 2, 3, 5, 7])
def test_derivation_kernel_is_a_half_filling(p, r):
    # a tame datum with b_i/b_1 constant, cycling through the units of GF(p)
    units = [1 + (i % (p - 1) if p else i) for i in range(r)]
    b = [f"{c}*(x + 1)" for c in units]
    ring, res = derivation_kernel(p, "x + 1", b)
    assert res.ok and serre_invariants(res, ring) == (2 * r, r, r)
    assert is_half_filling(res, ring)
    name = repr(classify_codim1(res, ring))
    assert name == {1: "cusp", 2: "tacnode"}.get(r, f"r-concurrent-lines({r})")
    scenario = GlueScenario(p, [building_block("c2", 2)] * r, "D",
                            derivation=glue_data(p, "x + 1", b))
    report = scenario_report(scenario)
    assert report["gorenstein"] and report["tame"]
    assert report["singularity"] == name


def test_derivation_kernel_builds_o_d_once(monkeypatch):
    from dpglue.artinian import FiniteAlgebra

    derivation_kernel(3, "x", ["1", "x"])  # O_C for (3, 2) is now cached
    verified = []
    check = FiniteAlgebra._verify

    def counting_verify(self):
        verified.append(self.dim)
        check(self)

    monkeypatch.setattr(FiniteAlgebra, "_verify", counting_verify)
    ring, res = derivation_kernel(3, "1/x", ["x^2", "1 + x"])
    assert res.ok
    # one O_D of dimension r = 2, built and verified once
    assert verified == [2]


def test_kernel_with_nonzero_a():
    # a=x, b=1: f + g y is killed exactly when g = -x f'
    from dpglue.glue import delta, glue_data

    data = glue_data(0, "x", ["1"])
    F = data.field
    f = F.x * F.x
    g = -(F.x * (F.x + F.x))
    assert delta(data, f, [g]).is_zero()
    assert not delta(data, f, [F.one]).is_zero()


def test_kernel_rejects_zero_b():
    with pytest.raises(ValueError):
        derivation_kernel(0, 0, ["1", "0"])


# -- random suites -----------------------------------------------------


@pytest.mark.parametrize("p", CHARACTERISTICS)
def test_serre_inequality_random(rng, p):
    field = base_field(p)
    found = 0
    while found < 25:
        sample = random_part_filling(rng, field)
        if sample is None:
            continue
        ring, res = sample
        n, delta, l_d = serre_invariants(res, ring)
        assert l_d <= delta
        assert n <= 2 * delta
        # equality iff the three agreeing half-filling tests pass
        assert is_half_filling(res, ring) == (l_d == delta)
        found += 1


def test_step3_kernel_avoids_socle_shifts(rng):
    # for every half-filling and branch E, ker Tr is not inside t'_E w_C
    field = Q
    found = 0
    while found < 10:
        sample = random_part_filling(rng, field)
        if sample is None:
            continue
        ring, res = sample
        if not is_half_filling(res, ring):
            continue
        kernel = linalg.nullspace(field, [list(b) for b in res.sub.basis])
        for e, br in enumerate(ring.branches):
            t_top = ring.monomial(e, 0, br.n - 1)
            rows = ring.algebra.mult_matrix(t_top)
            inside = linalg.row_space_basis(field, rows)
            assert linalg.rank(field, inside + kernel) > len(inside)
        found += 1

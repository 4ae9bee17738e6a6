"""Generic-stalk calculus: trace kernels, the pointwise criterion,
tameness, wild cusps."""

import pytest
from hypothesis import given, settings, strategies as st

from dpglue import cohomology, glue, linalg
from dpglue.artinian import FiniteAlgebra, make_subalgebra
from dpglue.fields import base_field
from dpglue.filling import BranchSpec, build_conductor_ring
from dpglue.glue import (KernelElement, change_of_basis, delta,
                         functional_vector, glue_data, gorenstein_at_point,
                         gorenstein_at_point_oracle,
                         ker_trace_closed_form, ker_trace_oracle,
                         kxi_engine, tangent_dims, wild_cusp_ring)
from dpglue.polynomials import Poly
from dpglue.rational import Place, RationalFunction, parse_rational

from conftest import CHARACTERISTICS, IRREDUCIBLES, dense_nullspace, ff, rand_ratfunc


def rand_data(rng, p, r=None, max_deg=2):
    r = r or rng.randint(1, 4)
    a = rand_ratfunc(rng, p, max_deg)
    b = [rand_ratfunc(rng, p, max_deg, nonzero=True) for _ in range(r)]
    return glue_data(p, a, b)


# -- the engine --------------------------------------------------------


def test_engine_cusp_dimensions():
    sub = kxi_engine(glue_data(0, 0, ["1"]))
    assert sub.parent.dim == 2
    assert len(sub.basis) == 1


def test_engine_tacnode_dimensions():
    sub = kxi_engine(glue_data(0, 0, ["1", "1"]))
    assert sub.parent.dim == 4
    assert len(sub.basis) == 2


@pytest.mark.parametrize("p", CHARACTERISTICS)
def test_xi_and_eta_killed_by_delta(rng, p):
    for _ in range(25):
        data = rand_data(rng, p)
        F = data.field
        # xi = x - (a/b1) y1
        g = [F.zero] * data.r
        g[0] = -(data.a / data.b[0])
        assert delta(data, F.x, g).is_zero()
        for i in range(1, data.r):
            g = [F.zero] * data.r
            g[0] = -(data.b[i] / data.b[0])
            g[i] = F.one
            assert delta(data, F.zero, g).is_zero()


@pytest.mark.parametrize("p", CHARACTERISTICS + (7,))
def test_engine_output_by_formula(rng, p):
    fixed = [glue_data(p, 0, ["1"]), glue_data(p, 0, ["1", "1"]),
             glue_data(p, "x", ["1"])]
    every_r = [rand_data(rng, p, r) for r in range(1, 7)]
    for data in fixed + every_r + [rand_data(rng, p) for _ in range(10)]:
        sub = kxi_engine(data)
        OC = sub.parent
        F, r = data.field, data.r
        # basis order e_1, y_1, e_2, y_2, ...
        assert OC.unit == [F.one, F.zero] * r
        eta = []
        for i in range(1, r):
            want = [F.zero] * (2 * r)
            want[1] = -(data.b[i] / data.b[0])
            want[2 * i + 1] = F.one
            eta.append(want)
        assert sub.basis == [OC.unit] + eta
        # the closed-form table is the one elimination finds
        reference = make_subalgebra(OC, sub.basis).algebra
        assert sub.algebra.table == reference.table
        assert sub.algebra.unit == reference.unit
        # and agrees with one solve per product
        bt = linalg.transpose(sub.basis)
        for i, bi in enumerate(sub.basis):
            for j, bj in enumerate(sub.basis):
                prod = OC.mul(bi, bj)
                assert sub.algebra.table[i][j] == linalg.solve(F, bt, prod)
        assert sub.algebra.unit == linalg.solve(F, bt, OC.unit)


@pytest.mark.parametrize("bad", ["not-closed", "dependent"])
def test_engine_rejects_a_bad_kernel_basis(monkeypatch, bad):
    data = glue_data(3, "1/x^3", ["1", "x", "x + 1"])
    ring = glue.conductor_ring(3, 3)
    unit, eta2, eta3 = glue.kernel_basis(data)
    if bad == "not-closed":
        # (eta_2 + e_1)^2 = e_1 - 2 (b_2/b_1) y_1 lies outside the span
        e1 = ring.monomial(0, 0, 0)
        basis, message = [unit, [a + b for a, b in zip(eta2, e1)], eta3], "not closed"
    else:
        basis, message = [unit, eta2, eta2], "not triangular"
    with pytest.raises(ValueError):
        make_subalgebra(ring.algebra, basis)
    monkeypatch.setattr(glue, "kernel_basis", lambda _: basis)
    with pytest.raises(AssertionError, match=message):
        kxi_engine(data)


def test_engine_runs_no_elimination(rng, monkeypatch):
    data = [rand_data(rng, p, r) for p in CHARACTERISTICS for r in range(1, 7)]
    for datum in data:
        kxi_engine(datum)  # O_C and O_D's table are built here, once per shape
    eliminations = []
    rref = linalg.rref

    def counting_rref(field, mat):
        eliminations.append(mat)
        return rref(field, mat)

    monkeypatch.setattr(linalg, "rref", counting_rref)
    for datum in data + [rand_data(rng, p, r) for p in CHARACTERISTICS for r in range(1, 7)]:
        kxi_engine(datum)
    assert eliminations == []


@pytest.mark.parametrize("p", CHARACTERISTICS)
def test_engine_multiplies_nothing_on_a_cached_shape(rng, p, monkeypatch):
    """y_i y_j = 0 is checked once per (p, r); a second datum of that shape
    is checked on its coordinates alone."""
    kxi_engine(rand_data(rng, p, r=3))
    products = []
    mul = FiniteAlgebra.mul

    def counting_mul(self, u, v):
        products.append(1)
        return mul(self, u, v)

    monkeypatch.setattr(FiniteAlgebra, "mul", counting_mul)
    kxi_engine(rand_data(rng, p, r=3))
    assert products == []


def test_nilpotent_check_refuses_a_ring_with_y_squared_nonzero(monkeypatch):
    """In k(x)[t]/(t^3), t^2 is not 0: the once-per-shape check says so."""
    check = glue.nilpotents_square_to_zero.__wrapped__
    assert check(3, 2)
    monkeypatch.setattr(glue, "conductor_ring", lambda p, r: build_conductor_ring(
        glue._function_field(p), [BranchSpec(3)] * r))
    assert not check(3, 2)


def test_conductor_algebra_built_once_per_shape(monkeypatch):
    glue.conductor_ring.cache_clear()
    glue.kernel_algebra.cache_clear()
    verified = []
    check = FiniteAlgebra._verify

    def counting_verify(self):
        verified.append(self)
        check(self)

    monkeypatch.setattr(FiniteAlgebra, "_verify", counting_verify)

    def times_verified(algebra):
        return sum(a is algebra for a in verified)

    first = kxi_engine(glue_data(3, "x", ["1", "x"]))
    second = kxi_engine(glue_data(3, "1/x", ["x^2", "1 + x"]))
    assert first.parent is second.parent
    assert times_verified(first.parent) == 1
    # eta_i eta_j = 0 whatever b is, so O_D's table is one algebra per
    # (p, r), verified once
    assert first.algebra is second.algebra
    assert times_verified(first.algebra) == 1
    other_r = kxi_engine(glue_data(3, "x", ["1", "x", "x"]))
    other_p = kxi_engine(glue_data(5, "x", ["1", "x"]))
    for sub in (other_r, other_p):
        assert sub.parent is not first.parent
        assert sub.algebra is not first.algebra
        assert times_verified(sub.parent) == 1
        assert times_verified(sub.algebra) == 1
    assert len(verified) == 6


# -- trace kernel membership -------------------------------------------


def test_closed_form_single_branch():
    data = glue_data(0, "x^2", ["x"])
    F = data.field
    s = KernelElement([F.one], [-(data.a / data.b[0]).derivative()])
    assert ker_trace_closed_form(data, s)
    assert ker_trace_oracle(data, s)


def test_closed_form_two_branch_example():
    data = glue_data(0, "x", ["1", "1"])
    F = data.field
    s = KernelElement([F.one, F.one], [F.zero, -F.one])
    assert ker_trace_closed_form(data, s)
    assert ker_trace_oracle(data, s)


def test_closed_form_mismatched_f():
    data = glue_data(0, "x", ["1", "1"])
    F = data.field
    s = KernelElement([F.one, F.from_int(2)], [F.zero, -F.one])
    assert not ker_trace_closed_form(data, s)
    assert not ker_trace_oracle(data, s)


def test_cusp_kernel_membership():
    # with a = 0 the kernel condition is g = 0: the functional dual to
    # the y-coefficient kills O_D = k(xi)
    data = glue_data(0, 0, ["1"])
    F = data.field
    assert ker_trace_oracle(data, KernelElement([F.one], [F.zero]))
    assert not ker_trace_oracle(data, KernelElement([F.zero], [F.one]))


def test_tacnode_kernel_boundary():
    data = glue_data(0, 0, ["1", "1"])
    F = data.field
    # constant f with g = 0 satisfies both conditions of the membership
    # formula when a = 0; a nonzero g-sum pairs nontrivially with 1
    assert ker_trace_oracle(data, KernelElement([F.one, F.one], [F.zero, F.zero]))
    assert not ker_trace_oracle(data, KernelElement([F.zero, F.zero], [F.one, F.one]))


def test_change_of_basis_trivial_when_a_zero():
    data = glue_data(0, 0, ["1", "2", "3"])
    F = data.field
    s = KernelElement([F.x, F.one, F.zero],
                      [F.one, F.x, F.from_int(2)])
    pairs = change_of_basis(data, s)
    for i, (u, v) in enumerate(pairs):
        assert u == s.f[i] and v == s.g[i]


def test_change_of_basis_quadratic():
    data = glue_data(0, "x", ["1"])
    F = data.field
    s = KernelElement([F.x], [F.zero])
    ((u, v),) = change_of_basis(data, s)
    assert v == (F.x * F.x).derivative()


@pytest.mark.parametrize("p", CHARACTERISTICS)
def test_pairing_with_unit(rng, p):
    for _ in range(20):
        data = rand_data(rng, p)
        F = data.field
        s = KernelElement(
            [rand_ratfunc(rng, p) for _ in range(data.r)],
            [rand_ratfunc(rng, p) for _ in range(data.r)],
        )
        vec = functional_vector(data, s)
        unit = kxi_engine(data).parent.unit
        total = F.zero
        for c, x in zip(vec, unit):
            total = total + c * x
        expect = (data.a * s.f[0] / data.b[0]).derivative()
        for gi in s.g:
            expect = expect + gi
        assert total == expect


def rand_member(rng, data):
    """A kernel element f_i = b_i h, sum g_i = -(a h)', drawn at random."""
    p = data.characteristic
    h = rand_ratfunc(rng, p)
    fs = [data.b[i] * h for i in range(data.r)]
    gs = [rand_ratfunc(rng, p) for _ in range(data.r)]
    gs[0] = -(data.a * h).derivative()
    for i in range(1, data.r):
        gs[0] = gs[0] - gs[i]
    return KernelElement(fs, gs)


def rand_probe(rng, data):
    p = data.characteristic
    return KernelElement([rand_ratfunc(rng, p) for _ in range(data.r)],
                         [rand_ratfunc(rng, p) for _ in range(data.r)])


@pytest.mark.parametrize("p", CHARACTERISTICS)
def test_closed_form_equals_oracle(rng, p):
    for _ in range(30):
        data = rand_data(rng, p)
        # random element, plus a guaranteed kernel element
        member = rand_member(rng, data)
        assert ker_trace_closed_form(data, member)
        assert ker_trace_oracle(data, member)
        probe = rand_probe(rng, data)
        assert ker_trace_closed_form(data, probe) == ker_trace_oracle(data, probe)


def test_kernel_dimension_is_r(rng):
    for p in CHARACTERISTICS:
        data = rand_data(rng, p)
        assert len(linalg.nullspace(data.field, kxi_engine(data).basis)) == data.r


def three_term_change_of_basis(data, s):
    """Frozen reference: the first pair with g_1 + c f_1' + c' f_1, c = a/b_1."""
    c, f1 = data.c1, s.f[0]
    first = (f1, c * f1.derivative() + s.g[0] + c.derivative() * f1)
    return [first] + list(zip(s.f[1:], s.g[1:]))


def per_branch_closed_form(data, s):
    """Frozen reference: membership by f_i/b_i = f_1/b_1, divided per branch."""
    f1b1 = s.f[0] / data.b[0]
    if any(fi / bi != f1b1 for fi, bi in zip(s.f[1:], data.b[1:])):
        return False
    return (data.a * f1b1).derivative() == -sum(s.g, data.field.zero)


@pytest.mark.parametrize("p", CHARACTERISTICS)
def test_trace_kernel_pair_matches_its_frozen_forms(rng, p):
    """(c f_1)' + g_1 is the three-term pair, and f_i = (b_i/b_1) f_1 the
    per-branch division, on members, members off by one f_i or by the
    g-sum, and random probes."""
    verdicts = set()
    for _ in range(30):
        data = rand_data(rng, p)
        F = data.field
        member = rand_member(rng, data)
        off_g = KernelElement(member.f, [member.g[0] + F.one] + member.g[1:])
        off_f = KernelElement(member.f[:-1] + [member.f[-1] + F.one], member.g)
        for s in (member, off_g, off_f, rand_probe(rng, data)):
            assert change_of_basis(data, s) == three_term_change_of_basis(data, s)
            verdict = ker_trace_closed_form(data, s)
            assert verdict == per_branch_closed_form(data, s)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def count_calls(monkeypatch, name):
    """A list that grows by one at each call of RationalFunction.<name>."""
    calls, method = [], getattr(RationalFunction, name)

    def counting(*args):
        calls.append(1)
        return method(*args)

    monkeypatch.setattr(RationalFunction, name, counting)
    return calls


@pytest.mark.parametrize("p", CHARACTERISTICS)
def test_trace_oracle_differentiates_once(rng, p, monkeypatch):
    data = rand_data(rng, p, r=3)
    s = rand_member(rng, data)
    calls = count_calls(monkeypatch, "derivative")
    assert ker_trace_oracle(data, s)
    assert len(calls) == 1


@pytest.mark.parametrize("p", CHARACTERISTICS)
def test_closed_form_divides_once(rng, p, monkeypatch):
    data = rand_data(rng, p, r=4)
    s = rand_member(rng, data)
    assert len(data.b_ratios) == 3  # divided, and cached, before counting
    calls = count_calls(monkeypatch, "__truediv__")
    assert ker_trace_closed_form(data, s)
    assert len(calls) == 1


@pytest.mark.parametrize("p", CHARACTERISTICS)
def test_trace_oracle_divides_a_by_b1_alone(rng, p, monkeypatch):
    """The trace-kernel pair reads a/b_1 and no other a/b_i."""
    data = rand_data(rng, p, r=4)
    s = rand_member(rng, data)
    assert len(data.b_ratios) == 3  # divided, and cached, before counting
    calls = count_calls(monkeypatch, "__truediv__")
    assert ker_trace_oracle(data, s)
    assert len(calls) == 1
    assert ker_trace_closed_form(data, s)
    assert len(calls) == 1


# -- the pointwise criterion -------------------------------------------


def origin(p):
    return Place.finite(Poly.x(base_field(p)))


def test_criterion_regular_everywhere():
    data = glue_data(0, "3", ["1", "1"])
    for place in (origin(0), Place.infinity()):
        assert gorenstein_at_point(data, place)


def test_criterion_simple_pole_char0():
    data = glue_data(0, "1/x", ["1"])
    assert not gorenstein_at_point(data, origin(0))


def test_criterion_wild_pole_char3():
    data = glue_data(3, "1/x^3", ["1"])
    assert gorenstein_at_point(data, origin(3))
    assert gorenstein_at_point_oracle(data, origin(3))


@pytest.mark.parametrize("a, b, gorenstein", [("1/x^2", ["x", "2*x"], True),
                                               ("1/x^3", ["1", "2", "x"], False)])
def test_b_ratios_are_divided_once_per_datum(a, b, gorenstein, monkeypatch):
    data = glue_data(3, a, b)
    first = cohomology.closed_form(data)

    def refuse(self, other):
        raise AssertionError("a second division")

    monkeypatch.setattr(RationalFunction, "__truediv__", refuse)
    assert cohomology.closed_form(data) == first
    assert ("b_3/b_1 is non-constant" in first.problems) != gorenstein
    assert gorenstein_at_point(data, origin(3)) == gorenstein
    assert gorenstein_at_point(data, Place.infinity()) == gorenstein


@pytest.mark.parametrize("p, a, b, place", [
    (3, "1/x^3", ["1", "2", "x+1"], [0, 1]),   # wild poles of order 3
    (3, "x^3", ["1", "2"], None),                # the same at infinity
    (5, "0", ["1", "3", "x+1"], [0, 1]),         # a = 0: no a/b_i is read
])
def test_criterion_reads_each_order_once(p, a, b, place, monkeypatch):
    data, at = glue_data(p, a, b), place_of(p, place)
    assert len(data.b_ratios) == data.r - 1  # divided before counting
    data.c1
    calls = count_calls(monkeypatch, "order_at")
    assert gorenstein_at_point(data, at)
    # the b_i/b_1 and, for a nonzero a, a/b_1 alone
    assert len(calls) == data.r - 1 + bool(data.a)


def per_branch_criterion(data, place):
    """``gorenstein_at_point`` reading the order of every a/b_i, frozen as a reference."""
    p = data.characteristic
    for ratio in data.b_ratios:
        if ratio.order_at(place) != 0:
            return False
    for bi in data.b:
        ci = data.a / bi
        if ci:
            order = ci.order_at(place)
            if order < 0 and (p == 0 or order % p):
                return False
    return True


@st.composite
def units_apart(draw):
    """(data, place): b_i = b_1 u_i for non-constant u_i, most often units
    at the place, and a with a pole there of order up to 2p + 1."""
    p = draw(st.sampled_from(CHARACTERISTICS))
    place = place_of(p, draw(st.sampled_from(PLACES[p] + [[0, 1]])))
    field = base_field(p)
    # a function of order 1 at the place
    t = RationalFunction.from_poly(Poly.x(field) if place.is_infinity() else place.poly)
    t = t ** -1 if place.is_infinity() else t
    poly = st.lists(st.integers(-4, 4), min_size=1, max_size=4).map(
        lambda cs: Poly.from_ints(field, cs))
    function = st.tuples(poly.filter(bool), poly.filter(bool)).map(
        lambda nd: RationalFunction(field, *nd))
    b1 = draw(function)
    b = [b1]
    for _ in range(draw(st.integers(1, 4))):
        u = draw(function)
        if draw(st.integers(0, 3)):
            u = u / t ** u.order_at(place)
        b.append(b1 * (u if not u.is_constant() else u + t))
    a = pole_at(draw(function), place, draw(st.integers(0, 2 * (p or 3) + 1)))
    return glue_data(p, a if draw(st.integers(0, 5)) else 0, b), place


@given(units_apart())
@settings(max_examples=150)
def test_criterion_matches_the_per_branch_reading(case):
    data, place = case
    assert gorenstein_at_point(data, place) == per_branch_criterion(data, place)


def test_oracle_simple_pole_char0():
    data = glue_data(0, "1/x", ["1"])
    assert not gorenstein_at_point_oracle(data, origin(0))


def test_oracle_regular_case():
    data = glue_data(0, "x+1", ["1"])
    assert gorenstein_at_point_oracle(data, origin(0))


# places of degree 1, 2 and 3, and infinity (None), as coefficient lists
PLACES = {
    0: [[-1, 1], [1, 0, 1], [-2, 0, 0, 1], None],
    2: [[1, 1], [1, 1, 1], [1, 1, 0, 1], None],
    3: [[0, 1], [1, 0, 1], [1, 2, 0, 1], None],
    5: [[2, 1], [2, 0, 1], [1, 1, 0, 1], None],
}


def place_of(p, coeffs):
    """The place of a coefficient list of ``PLACES``; None is infinity."""
    if coeffs is None:
        return Place.infinity()
    return Place.finite(Poly.from_ints(base_field(p), coeffs))


def pole_at(num, place, k):
    """num times a function with a pole of order k at the place, and no other."""
    if place.is_infinity():
        return num * RationalFunction.from_poly(Poly.x(num.field) ** k)
    return num / RationalFunction.from_poly(place.poly ** k)


@pytest.mark.parametrize("p", CHARACTERISTICS)
def test_criterion_equals_oracle(rng, p):
    # origin, x + 1, the places of degree 2 and 3 and infinity
    places = [[0, 1], [1, 1]] + PLACES[p][1:]
    checked = 0
    while checked < 25:
        # engineered pole orders up to 10 at the place
        place = place_of(p, places[rng.randrange(len(places))])
        k = rng.randrange(0, 11)
        a = pole_at(rand_ratfunc(rng, p, 2, nonzero=True), place, k)
        b = [rand_ratfunc(rng, p, 1, nonzero=True)
             for _ in range(rng.randint(1, 3))]
        data = glue_data(p, a, b)
        assert gorenstein_at_point(data, place) == gorenstein_at_point_oracle(
            data, place
        )
        checked += 1


# wild poles at places of degree 2 and 3: f_1 needs coefficients in the
# residue field, which base-field combinations of pi^j do not reach
@pytest.mark.parametrize("p, a, b, place", [
    (5, "(x+1)/(x^2+2)^5", ["1"], [2, 0, 1]),
    (2, "x/(x^2+x+1)^2", ["1"], [1, 1, 1]),
    (3, "(x+1)/(x^3+2*x+1)^3", ["1", "x+1"], [1, 2, 0, 1]),
])
def test_oracle_witness_over_the_residue_field(p, a, b, place):
    data = glue_data(p, a, b)
    place = place_of(p, place)
    assert gorenstein_at_point(data, place)
    assert gorenstein_at_point_oracle(data, place)


# -- the pointwise oracle against its dense form -------------------------


def at_origin(data):
    """The datum in the coordinate 1/x, where infinity is the place (x)."""
    return glue.GenericGlueData(data.characteristic, data.a.invert_variable(),
                                tuple(bi.invert_variable() for bi in data.b))


def dense_regularity_rows(nums, den, place):
    """One dense row per coefficient of every num mod pi^v_P(den), at a
    finite place, with the zero rows dropped."""
    modulus = place.poly ** den.valuation(place.poly)
    nums = [n if n.degree < modulus.degree else n % modulus for n in nums]
    rows = [[n[k] for n in nums] for k in range(modulus.degree)]
    return [row for row in rows if any(row)]


def dense_oracle(data, place, degree_bound=None):
    """Frozen reference: the pointwise oracle on dense rows over all
    deg P * (B + 1) columns x^k pi^j, j <= B, padded with zero
    numerators, as ``gorenstein_at_point_oracle`` was before it read
    sparse rows.  Returns (answer, f_1), f_1 a Poly in the coordinate
    of ``at_origin`` at infinity, or None when no unit solves (2).
    """
    if place.is_infinity():
        data, place = at_origin(data), origin(data.characteristic)
    p = data.characteristic
    base = data.field.base
    pi, d = place.poly, place.poly.degree
    N, D = data.c1.num, data.c1.den
    m = D.valuation(pi)
    if degree_bound is None:
        degree_bound = m + max(p, 1) + 2
    width = d * (degree_bound + 1)
    A, ND, dpi = N.derivative() * D - N * D.derivative(), N * D, pi.derivative()
    nums = []
    power, dpower = Poly.one(base), Poly.zero(base)
    for _ in range(min(m, degree_bound + 1)):
        for k in range(d):
            dw = dpower.shift(k)
            if k:
                dw = dw + power.shift(k - 1).scale(base.from_int(k))
            nums.append(power.shift(k) * A + dw * ND)
        power, dpower = power * pi, dpower * pi + power * dpi
    nums += [Poly.zero(base)] * (width - len(nums))
    rows = dense_regularity_rows(nums, D * D, place)
    sols = dense_nullspace(base, rows) if rows else linalg.identity(base, width)
    witness = next((sol for sol in sols if any(sol[:d])), None)
    if witness is None:
        return False, None
    f1 = Poly.zero(base)
    for j in reversed(range(degree_bound + 1)):
        f1 = f1 * pi + Poly(base, witness[j * d:(j + 1) * d])
    unit = RationalFunction.from_poly(f1)
    answer = all(((bi / data.b[0]) * unit).order_at(place) == 0 for bi in data.b)
    return answer, f1


@st.composite
def point_checks(draw):
    """(datum, place): places of degree 1-3 and infinity, pole orders around p."""
    p = draw(st.sampled_from([0, 2, 3, 5, 7]))
    field = base_field(p)
    names = [name for by_degree in IRREDUCIBLES[p] for name in by_degree]
    name = draw(st.sampled_from(names + [None]))
    place = (Place.infinity() if name is None
             else Place.finite(parse_rational(ff(p), name).num))
    q = max(p, 1)
    k = draw(st.sampled_from(sorted({0, 1, 2, q, q + 1, 2 * q})))
    poly = st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(
        lambda cs: Poly.from_ints(field, cs)).filter(bool)
    ratfunc = st.builds(lambda n, dn: RationalFunction(field, n, dn), poly, poly)
    a = pole_at(draw(ratfunc), place, k)
    b1 = draw(ratfunc)
    b = [b1]
    for _ in range(draw(st.integers(0, 2))):
        # a unit ratio b_i/b_1 (a nonzero constant) or any b_i
        b.append(b1 * field.from_int(draw(st.integers(1, p - 1 if p else 3))) if draw(st.booleans())
                 else draw(ratfunc))
    return glue_data(p, a, b), place


def assert_is_a_witness(f1, c, place):
    """f_1 has the defining properties of the oracle's witness for c at a
    finite place: a unit there, of degree below m deg P for m the pole
    order of c there (f_1 = 1 when c has none), with (c f_1)' regular."""
    pi = place.poly
    m = c.den.valuation(pi) if c else 0
    assert f1 % pi
    assert f1.degree < max(m * pi.degree, 1)
    deriv = (c * RationalFunction.from_poly(f1)).derivative()
    assert not deriv or deriv.order_at(place) >= 0


@given(point_checks())
@settings(max_examples=150)
def test_oracle_matches_its_dense_form(case):
    """The answer of the frozen dense oracle, and a witness exactly when it
    finds one; which witness depends on the basis of the columns, so f_1
    is checked by its defining properties."""
    datum, place = case
    local, at = (at_origin(datum), origin(datum.characteristic)) if place.is_infinity() \
        else (datum, place)
    answer, dense_f1 = dense_oracle(datum, place)
    assert gorenstein_at_point_oracle(datum, place) == answer
    f1 = glue.local_unit_witness(local.c1, at)
    assert (f1 is None) == (dense_f1 is None)
    if f1 is not None:
        assert_is_a_witness(f1, local.c1, at)


@pytest.mark.parametrize("p, a, b", [
    (5, "x^7+1", ["1", "x", "x^2+1"]),
    (3, "(x^4+x)/(x+1)", ["x^2+1", "2*x^2+2"]),
    (0, "x^3", ["1", "x^-1"]),
])
def test_oracle_at_infinity_divides_nothing(p, a, b, monkeypatch):
    """At infinity the oracle inverts the cached a/b_1 and b_i/b_1, with no
    datum rebuilt to divide them again."""
    data = glue_data(p, a, b)
    # divided, and cached, before counting
    assert data.c1 and len(data.b_ratios) == len(b) - 1
    calls = count_calls(monkeypatch, "__truediv__")
    answer = gorenstein_at_point_oracle(data, Place.infinity())
    assert calls == []
    monkeypatch.undo()
    assert answer == dense_oracle(data, Place.infinity())[0]


@pytest.mark.parametrize("p, a, place, columns", [
    (3, "(x+1)/(x^2+1)^4", [1, 0, 1], 8),       # m = 4, deg P = 2: 8 of 20
    (7, "1/(x^2+1)^8", [1, 0, 1], 16),          # 16 of 36
    (5, "x^7+1", None, 7),                      # a pole of order 7 at infinity
    (2, "(x+1)/(x^3+x+1)^2", [1, 1, 0, 1], 6),
])
def test_oracle_eliminates_over_the_pole_columns_only(p, a, place, columns, monkeypatch):
    seen = []
    kernel_vectors = linalg.kernel_vectors

    def counted(field, rows, cols):
        seen.append((cols, max((c for row in rows for c in row), default=-1)))
        return kernel_vectors(field, rows, cols)

    monkeypatch.setattr(linalg, "kernel_vectors", counted)
    data = glue_data(p, a, ["1"])
    where = Place.infinity() if place is None else place_of(p, place)
    answer = gorenstein_at_point_oracle(data, where)
    assert seen and all(cols == columns and top < cols for cols, top in seen)
    assert answer == dense_oracle(data, where)[0]


@pytest.mark.parametrize("p, a, place", [
    (3, "(x+1)/(x^2+1)^4", [1, 0, 1]),
    (0, "1/x^3", [0, 1]),
    (5, "(x+1)/(x^2+2)^5", [2, 0, 1]),
])
def test_witness_reads_the_pole_order_once(p, a, place, monkeypatch):
    """m is found by one valuation; the modulus pi^(2m) is then a power
    of pi, with no second valuation of D^2."""
    data, at = glue_data(p, a, ["1"]), place_of(p, place)
    c = data.c1
    calls = []
    valuation = Poly.valuation

    def counted(self, pi):
        calls.append(pi)
        return valuation(self, pi)

    monkeypatch.setattr(Poly, "valuation", counted)
    f1 = glue.local_unit_witness(c, at)
    assert calls == [at.poly]
    monkeypatch.undo()
    assert f1 == dense_oracle(data, at)[1]


# -- tameness ----------------------------------------------------------


def test_constant_data_tame():
    wild = list(glue_data(0, "3", ["1", "2"]).wild_places)
    assert wild == []


def test_wild_point_char3():
    wild = list(glue_data(3, "1/x^3", ["1"]).wild_places)
    assert wild
    assert len(wild) == 1
    place, order = wild[0]
    assert order == 3 and not place.is_infinity()


def test_two_wild_points_char2():
    data = glue_data(2, "1/x^2 + 1/(x+1)^2", ["1"])
    wild = list(data.wild_places)
    assert wild
    assert sorted(order for _, order in wild) == [2, 2]


def test_pole_at_infinity_detected():
    wild = list(glue_data(0, "x^2", ["1"]).wild_places)
    assert wild
    assert wild[0][0].is_infinity() and wild[0][1] == 2


# poles shared by all a/b_i or not, at infinity, of degree 2, of
# different orders in different a/b_i (the largest counts), and two
# quadratics over Q from different a/b_i, which only a split by the
# a/b_i denominators keeps apart
@pytest.mark.parametrize("p, a, b, places", [
    (2, "1/x^2 + 1/(x+1)^2", ["1"], [("x", 2), ("x + 1", 2)]),
    (0, "1", ["x", "x+1"], [("x", 1), ("x + 1", 1)]),
    (3, "x^2/(x^2+1)^3", ["1", "x"], [("x^2 + 1", 3)]),
    (0, "x^3/(x-1)", ["1", "1/x"], [("x - 1", 1), ("~oo", 3)]),
    (5, "1/(x^2*(x^2+2)^5)", ["1", "x"], [("x", 3), ("x^2 + 2", 5)]),
    (0, "1/(x^2+1)", ["1", "(x^2+2)/(x^2+1)"], [("x^2 + 1", 1), ("x^2 + 2", 1)]),
])
def test_wild_places_name_the_pole_divisor(p, a, b, places):
    data = glue_data(p, a, b)
    assert [(glue._place_key(place), order)
            for place, order in data.wild_places] == places


def per_branch_poles(data):
    """``GenericGlueData.poles`` dividing a by every b_i and taking every
    lcm step, frozen as a reference."""
    den, at_infinity = Poly.one(data.field.base), 0
    for bi in data.b:
        c = data.a / bi
        if c:
            den = den * (c.den // den.gcd(c.den))
            at_infinity = max(at_infinity, c.num.degree - c.den.degree)
    return den, at_infinity


# a = 0 and non-constant b_i/b_1 from ``units_apart``, constant ratios
# from ``point_checks``, and poles at finite places and at infinity in both
@given(st.one_of(units_apart(), point_checks()))
@settings(max_examples=200)
def test_poles_match_the_per_branch_reading(case):
    data, _ = case
    assert data.poles == per_branch_poles(data)


# -- wild cusp rings ---------------------------------------------------


def test_wild_cusp_p3_n1():
    ring = wild_cusp_ring(3, 1)
    assert ring.generators == (3, 4, 5)
    assert ring.embedding_dim == 3
    assert ring.delta == 2 and ring.gaps == (1, 2)


def test_wild_cusp_p2_n2():
    ring = wild_cusp_ring(2, 2)
    assert ring.generators == (2, 5)
    assert ring.delta == 2 and ring.gaps == (1, 3)


def test_wild_cusp_p5_n1():
    ring = wild_cusp_ring(5, 1)
    assert ring.generators == (5, 6, 7, 8, 9)
    assert ring.embedding_dim == 5 and ring.delta == 4


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_wild_cusp_invariants_exhaustive(p, n):
    ring = wild_cusp_ring(p, n)
    assert ring.delta == n * (p - 1)
    assert ring.embedding_dim == (p if p >= 3 or n == 1 else 2)
    # semigroup closure
    for i in ring.generators:
        for j in ring.generators:
            assert ring.contains(i + j)


@pytest.mark.parametrize("p,expected", [(3, (3, 3)), (2, (2, 3)), (5, (5, 5))])
def test_tangent_dims(p, expected):
    assert tangent_dims(p, 2) == expected


# -- the wild points of Gamma --------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_wild_cusp_ring_is_where_the_derivative_is_regular(p, n):
    """x^j lies in the wild cusp ring exactly when p | j or
    x^(-np) (x^j)' is regular at x = 0: the sections of Gamma."""
    F, at = ff(p), origin(p)
    h = F.one / F.x ** (n * p)
    ring = wild_cusp_ring(p, n)
    for j in range(2 * n * p + 3):
        want = j % p == 0 or (h * (F.x ** j).derivative()).order_at(at) >= 0
        assert ring.contains(j) == want

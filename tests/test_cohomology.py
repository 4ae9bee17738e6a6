"""Euler characteristics and the truncated section oracle."""

import pytest
from hypothesis import given, settings, strategies as st

from dpglue.cohomology import (LineSheafSum, chi_OX, closed_form, d_plus_structure,
                               delta_P_wild, global_gorenstein, h1_OX,
                               line_sheaf_chi, total_pole_order,
                               truncated_section_oracle, wild_multiplicity)
from dpglue.glue import glue_data, gorenstein_at_point
from dpglue.polynomials import Poly
from dpglue.rational import Place, RationalFunction

from conftest import IRREDUCIBLES, dense_rref

# (p, a, N) with b = (1): one wild place of degree 2 or 3 with n_P in
# {1, 2}, and one degree-1 + degree-2 datum; N = sum deg P * n_P.
HIGHER_DEGREE_WILD = [
    (p, f"1/({IRREDUCIBLES[p][deg - 1][0]})^{n * p}", deg * n)
    for p in (2, 3, 5)
    for deg in (2, 3)
    for n in (1, 2)
] + [(3, "1/(x^3*(x^2+1)^3)", 1 + 2)]


def test_chi_of_structure_plus_twist():
    assert line_sheaf_chi(LineSheafSum((0, -1))) == 1
    assert line_sheaf_chi(LineSheafSum((-1,))) == 0
    assert line_sheaf_chi(LineSheafSum((1, 1)), twist=1) == 6


def test_d_plus_structure_small():
    sheaf, n2 = d_plus_structure(1)
    assert sheaf.degrees == (0, -1) and n2.degrees == ()
    sheaf, n2 = d_plus_structure(3)
    assert sheaf.degrees == (0, -1, -1, -1) and n2.degrees == (-1, -1)


@pytest.mark.parametrize("r", range(1, 7))
def test_d_plus_chi_is_one(r):
    sheaf, _ = d_plus_structure(r)
    assert sheaf.chi() == 1


# -- closed formulas ---------------------------------------------------


def test_tame_chi():
    assert chi_OX(glue_data(0, "1", ["1", "1"])) == 1
    assert h1_OX(glue_data(0, "1", ["1", "1"])) == 0


def test_wild_p3_single_pole():
    data = glue_data(3, "1/x^3", ["1"])
    assert wild_multiplicity(data) == 1
    assert chi_OX(data) == -1
    assert h1_OX(data) == 2


def test_wild_p2_two_poles():
    data = glue_data(2, "1/(x^2*(x+1)^2)", ["1"])
    assert wild_multiplicity(data) == 2
    assert chi_OX(data) == -1
    assert h1_OX(data) == 2


def test_wild_p5_N2():
    data = glue_data(5, "1/x^10", ["1"])
    assert chi_OX(data) == -7
    assert h1_OX(data) == 8
    assert delta_P_wild(data) == 8


def test_non_gorenstein_rejected():
    data = glue_data(0, "1/x", ["1"])
    ok, problems = global_gorenstein(data)
    assert not ok and problems
    with pytest.raises(ValueError):
        chi_OX(data)


def test_bad_wild_order_rejected():
    ok, problems = global_gorenstein(glue_data(3, "1/x^2", ["1"]))
    assert not ok


def test_nonconstant_b_ratio_rejected():
    ok, problems = global_gorenstein(glue_data(0, "1", ["1", "x"]))
    assert not ok and "b_2/b_1" in problems[0]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_chi_additivity_random_wild(p):
    # all wild configurations with total multiplicity N <= 4 at up to two
    # points: chi = 1 - N(p-1) and delta-count agrees per point
    configs = [(1,), (2,), (3,), (4,), (1, 1), (1, 2), (2, 2), (1, 3)]
    for ns in configs:
        pieces = []
        for j, n in enumerate(ns):
            pieces.append(f"1/(x+{j})^{n * p}" if j else f"1/x^{n * p}")
        data = glue_data(p, " + ".join(pieces), ["1"])
        N = sum(ns)
        assert wild_multiplicity(data) == N
        assert chi_OX(data) == 1 - N * (p - 1)
        assert delta_P_wild(data) == N * (p - 1)


@pytest.mark.parametrize("p, a, N", HIGHER_DEGREE_WILD)
def test_wild_places_of_higher_degree(p, a, N):
    data = glue_data(p, a, ["1"])
    assert wild_multiplicity(data) == N
    assert delta_P_wild(data) == N * (p - 1)
    h0, h1 = truncated_section_oracle(data)
    assert h1_OX(data) == h1 == N * (p - 1)
    assert h0 == 1


# A place of degree d counts d times in N; counting it once gives the
# closed form h1 = 1, 2, 2, 4 on these rows.
@pytest.mark.parametrize("p, a, h1", [
    (2, "1/(x^2+x+1)^2", 2), (3, "1/(x^2+1)^3", 4),
    (2, "1/(x^3+x+1)^4", 6), (3, "1/(x^2+1)^6", 8),
])
def test_wild_place_degree_regressions(p, a, h1):
    data = glue_data(p, a, ["1"])
    assert (chi_OX(data), h1_OX(data)) == (1 - h1, h1)
    assert truncated_section_oracle(data) == (1, h1)
    assert truncated_section_oracle(data, bound=30) == (1, h1)


def test_tame_iff_chi_one():
    for data in (glue_data(0, "1", ["1"]), glue_data(3, "2", ["1", "1"]),
                 glue_data(3, "1/x^3", ["1"]), glue_data(5, "1/x^5", ["1", "1"])):
        tame = not data.wild_places
        assert tame == (chi_OX(data) == 1)


@st.composite
def criterion_data(draw):
    """A datum with poles at places of degree 1-3 and at infinity.

    a = u x^e + 1/prod P^k has pole order e at infinity and k at P.  A
    datum's orders are all tame, all multiples of p, or each either, so
    p divides some of them and not others.  b_1 is 1, or else a place to
    the power +-1, and each further b_i is b_1 times a unit or a place.
    """
    p = draw(st.sampled_from([0, 2, 3, 5, 7]))
    places = [f for by_degree in IRREDUCIBLES[p] for f in by_degree]
    tame = st.integers(1, 3)
    if p:
        wild = st.integers(1, 2).map(lambda n: n * p)
        order = draw(st.sampled_from([tame, wild, st.one_of(tame, wild)]))
    else:
        order = tame
    unit = st.integers(1, p - 1 if p else 3).map(str)
    chosen = draw(st.lists(st.sampled_from(places), max_size=3, unique=True))
    den = "*".join(f"({f})^{draw(order)}" for f in chosen) or "1"
    at_infinity = draw(st.one_of(st.just(0), order))
    a = f"{draw(unit)}*x^{at_infinity} + 1/({den})"
    b1 = draw(st.one_of(st.just("1"), st.sampled_from(
        [g for f in places for g in (f"({f})", f"1/({f})")])))
    b = [b1] + [f"({draw(st.one_of(unit, st.sampled_from(places)))})*{b1}"
                for _ in range(draw(st.integers(0, 2)))]
    return glue_data(p, a, b)


@given(criterion_data())
@settings(max_examples=300)
def test_closed_form_is_the_pointwise_criterion(data):
    p = data.characteristic
    problems, h1 = closed_form(data)
    named = data.wild_places
    pointwise = (all(ratio.is_constant() for ratio in data.b_ratios)
                 and all(gorenstein_at_point(data, place) for place, _ in named)
                 and gorenstein_at_point(data, Place.infinity()))
    assert (problems == []) == pointwise
    if pointwise:
        assert h1 == (p - 1) * sum(place.degree * order // p for place, order in named)


def test_closed_form_and_the_oracle_decompose_nothing(monkeypatch):
    data = glue_data(3, "x^3 + 1/(x*(x^2+1))^3", ["1", "2"])
    calls = []
    squarefree = Poly.squarefree

    def counting_squarefree(self):
        calls.append(self)
        return squarefree(self)

    monkeypatch.setattr(Poly, "squarefree", counting_squarefree)
    # N = 1 at infinity + 1 at x + 2 at x^2 + 1
    assert closed_form(data) == ([], 8)
    assert (chi_OX(data), h1_OX(data), total_pole_order(data)) == (-7, 8, 12)
    assert truncated_section_oracle(data) == (1, 8)
    assert not calls
    # naming the places is what splits L
    assert [(str(place), order) for place, order in data.wild_places] == [
        ("Place(x)", 3), ("Place(x^2 + 1)", 3), ("Place(oo)", 3)]
    assert calls


# -- the truncated oracle ----------------------------------------------


def test_oracle_tame_r2():
    data = glue_data(0, "1", ["1", "1"])
    assert truncated_section_oracle(data) == (1, 0)


def test_oracle_wild_p3():
    data = glue_data(3, "1/x^3", ["1"])
    assert truncated_section_oracle(data) == (1, 2)


def test_oracle_wild_p2():
    data = glue_data(2, "1/(x^2*(x+1)^2)", ["1"])
    assert truncated_section_oracle(data) == (1, 2)


def test_oracle_wild_p5():
    data = glue_data(5, "1/x^10", ["1"])
    assert truncated_section_oracle(data) == (1, 8)


def test_oracle_bound_stability():
    for data in (glue_data(0, "1", ["1", "1"]), glue_data(3, "1/x^3", ["1"])):
        base = total_pole_order(data) + 4
        assert truncated_section_oracle(data, bound=base) == \
            truncated_section_oracle(data, bound=base + 3)
    # the truncation is big enough: B and B + p agree
    for p, a, _ in HIGHER_DEGREE_WILD:
        data = glue_data(p, a, ["1"])
        base = total_pole_order(data) + 4
        assert truncated_section_oracle(data, bound=base) == \
            truncated_section_oracle(data, bound=base + p)


def test_oracle_rejects_small_bound():
    data = glue_data(3, "1/x^3", ["1"])
    with pytest.raises(ValueError):
        truncated_section_oracle(data, bound=3)


def test_oracle_positive_twists_match_sheaf_values():
    # tame: O_D = O + (r-1)O(-1) twisted
    for r in (1, 2, 3):
        data = glue_data(0, "1", ["1"] * r)
        for n in range(0, 4):
            h0 = (n + 1) + (r - 1) * n
            assert truncated_section_oracle(data, twist=n) == (h0, 0)


def test_oracle_negative_twists_match_sheaf_values():
    # negative twists acquire h1 from the O(n) and O(n-1) summands; the
    # oracle must reproduce the exact sheaf cohomology, which is nonzero
    for r in (1, 2):
        data = glue_data(0, "1", ["1"] * r)
        for n in range(-3, 0):
            h1 = (-n - 1) + (r - 1) * (-n)
            assert truncated_section_oracle(data, twist=n) == (0, h1)


def four_rank_oracle(data, twist, bound=None):
    """Reference: the dense constraint matrix on W, one rref per column slice.

    It clears the denominators by k(x) products h * Q, so it does not
    share the oracle's exact division Q // h.den.
    """
    field, r, n = data.field.base, data.r, twist
    B = total_pole_order(data) + abs(twist) + 4 if bound is None else bound
    chart0 = [(0, B)] * (r + 1)
    chart1 = [(n - B, n)] + [(n - 1 - B, n - 1)] * r
    overlap = [(n - B, B)] + [(n - 1 - B, B)] * r
    both = [(max(lo0, lo1), min(hi0, hi1))
            for (lo0, hi0), (lo1, hi1) in zip(chart0, chart1)]
    cols = [(comp, e) for comp, (lo, hi) in enumerate(overlap)
            for e in range(lo, hi + 1)]
    Q = data.a.den
    for bi in data.b:
        Q = Q * bi.den
    q = RationalFunction.from_poly(Q)
    cleared = [(h * q).num.coeffs for h in (data.a,) + data.b]
    shift = 2 * B + 4
    height = 3 * B + 5 + max(len(cs) for cs in cleared)
    rows = [[field.zero] * len(cols) for _ in range(height)]
    for j, (comp, e) in enumerate(cols):
        scale = field.from_int(e) if comp == 0 else field.one
        start = (e - 1 if comp == 0 else e) + shift
        for k, c in enumerate(cleared[comp], start=start):
            rows[k][j] = scale * c
    nullity = []
    for window in (overlap, chart0, chart1, both):
        s = [k for k, (comp, e) in enumerate(cols)
             if window[comp][0] <= e <= window[comp][1]]
        nullity.append(len(s) - len(dense_rref(field, [[row[k] for k in s]
                                                       for row in rows])[1]))
    dim_w, dim_0, dim_1, h0 = nullity
    return (h0, dim_w - dim_0 - dim_1 + h0)


@pytest.mark.parametrize("p, a, b, twists", [
    (0, "2", ["1"], range(-3, 4)),
    (3, "1", ["2", "1"], range(-3, 4)),
    (5, "3", ["1", "4", "2"], range(-3, 4)),
    (0, "-1", ["3", "1", "2"], range(-3, 4)),
] + [(p, a, ["1"], [0]) for p, a, _ in HIGHER_DEGREE_WILD]
  + [(3, "1/(x^3*(x+1)^3)", ["1", "2"], [0, -1])])
def test_prefix_ranks_match_four_eliminations(p, a, b, twists):
    data = glue_data(p, a, b)
    for n in twists:
        assert truncated_section_oracle(data, twist=n) == four_rank_oracle(data, n)


@st.composite
def oracle_data(draw):
    """(datum, twist, bound): poles at places of degree 1-3, wild or tame.

    Each b_i is a unit times num/den, with num and den each 1 or one
    place; more places would let the dense reference dominate the run.
    The bound is the least legal one or above it.
    """
    p = draw(st.sampled_from([0, 2, 3, 5, 7]))
    places = [f for by_degree in IRREDUCIBLES[p] for f in by_degree]

    def product(order, most=2):
        chosen = draw(st.lists(st.sampled_from(places), max_size=most, unique=True))
        return "*".join(f"({f})^{draw(order)}" for f in chosen) or "1"

    tame = st.integers(1, 3)
    order = st.one_of(st.integers(1, 2).map(lambda n: n * p), tame) if p else tame
    unit = st.integers(1, p - 1 if p else 3).map(str)
    b = [f"{draw(unit)}*({product(st.just(1), 1)})/({product(st.just(1), 1)})"
         for _ in range(draw(st.integers(1, 4)))]
    data = glue_data(p, f"{draw(unit)}/({product(order)})", b)
    twist = draw(st.integers(-3, 3))
    minimum = total_pole_order(data) + abs(twist) + 2
    return data, twist, minimum + draw(st.sampled_from([0, 2, p]))


@given(oracle_data())
@settings(max_examples=80)
def test_prefix_ranks_match_four_eliminations_on_drawn_data(case):
    data, twist, bound = case
    assert truncated_section_oracle(data, twist, bound) == \
        four_rank_oracle(data, twist, bound)


# the last case has r = 2 and runs of more than one exponent at a place
# of degree 3
@pytest.mark.parametrize("p, a, b, h1", [
    pytest.param(2, "1/x^1280", ["1"], 640, id="2-1/x^1280"),
    pytest.param(5, "1/(x^2+2)^200", ["1"], 320, id="5-1/(x^2+2)^200"),
    pytest.param(7, "1/(x^3+x+1)^70", ["1", "2"], 180, id="7-1/(x^3+x+1)^70-r2"),
])
def test_oracle_at_large_h1(p, a, b, h1):
    data = glue_data(p, a, b)
    assert truncated_section_oracle(data) == (1, h1_OX(data)) == (1, h1)

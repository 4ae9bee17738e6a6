"""Exact field and rational function arithmetic."""

import fractions
import operator
import time
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from dpglue.fields import PRIME_LIMIT, SHARED_BELOW, FpElement, PrimeField, base_field, is_prime
from dpglue.multipoly import parse_mpoly
from dpglue.polynomials import Poly
from dpglue.rational import (SIZE_BUDGET, FunctionField, Place, RationalFunction, format_poly,
                             parse_rational)

from conftest import (CHARACTERISTICS, IRREDUCIBLES, ff, musser_squarefree, rand_poly,
                      rand_ratfunc, swinnerton_dyer)


def test_prime_field_arithmetic():
    F = base_field(5)
    a, b = F.from_int(3), F.from_int(4)
    assert (a * b) == F.from_int(12)
    assert a + b == F.from_int(2)
    assert (a / b) * b == a
    assert -a == F.from_int(2)
    assert not F.from_int(10)


def test_small_prime_field_hands_out_shared_elements():
    F = base_field(7)
    assert F.from_int(3) is F.from_int(10) is F.from_int(-4)
    elements = [F.from_int(v) for v in range(7)]
    for a in elements:
        assert -a is F.from_int(-a.value)
        assert a ** 5 is F.from_int(a.value ** 5)
        for b in elements:
            assert a * b is F.from_int(a.value * b.value)
            assert a + b is F.from_int(a.value + b.value)
            assert a - b is F.from_int(a.value - b.value)
            assert a + 3 is 3 + a is F.from_int(a.value + 3)
            if b:
                assert a / b is F.from_int(a.value * pow(b.value, -1, 7))


def test_poly_arithmetic_over_a_small_field_builds_no_element(rng, monkeypatch):
    F = base_field(7)
    pairs = [(rand_poly(rng, F, 6), rand_poly(rng, F, 4, nonzero=True)) for _ in range(50)]
    high = [(rand_poly(rng, F, 30), rand_poly(rng, F, 30), rand_poly(rng, F, 15, nonzero=True))
            for _ in range(20)]
    built = []
    init = FpElement.__init__

    def counting(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(FpElement, "__init__", counting)
    for f, g in pairs:
        q, r = divmod(f * g + f, g)
        assert q * g + r == f * g + f
        f.gcd(g)
        assert -(f - g) == g - f
        assert f.scale(g.leading()) == g.leading() * f
        assert g.monic() == g.scale(F.one / g.leading())
        assert (f == g) == (f.coeffs == g.coeffs)
    for f, g, h in high:
        assert (f * h + g * h).gcd(h * h) == h.monic() * (f + g).gcd(h)
        assert f + g - g == f
    assert not built


LARGE_SHARED = max(filter(is_prime, range(SHARED_BELOW)))
SMALL_ALLOCATED = next(filter(is_prime, range(SHARED_BELOW, 2 * SHARED_BELOW)))


@pytest.mark.parametrize("p", [LARGE_SHARED, SMALL_ALLOCATED, 1000003])
def test_prime_field_agrees_with_int_arithmetic(rng, p):
    F = PrimeField(p)
    assert (F.from_int(3) is F.from_int(3 + p)) == (p < SHARED_BELOW)
    for _ in range(300):
        a, b = rng.randrange(-3 * p, 3 * p), rng.randrange(-3 * p, 3 * p)
        x, y = F.from_int(a), F.from_int(b)
        for op in (operator.add, operator.sub, operator.mul):
            assert op(x, y).value == op(x, b).value == op(a, y).value == op(a, b) % p
        assert (-x).value == -a % p
        n = rng.randrange(-5, 6)
        if b % p:
            inverse = pow(b, -1, p)
            assert (x / y).value == (x / b).value == (a / y).value == a * inverse % p
            assert (y ** n).value == pow(b, n, p)
            assert y.inverse().value == inverse
        else:
            with pytest.raises(ZeroDivisionError):
                x / y
            with pytest.raises(ZeroDivisionError):
                y.inverse()


@pytest.mark.parametrize("p, q", [(5, 7), (1000003, 1000033)])
def test_mixed_characteristics_raise(p, q):
    a, b = base_field(p).one, base_field(q).one
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(ValueError, match="mixed characteristics"):
            op(a, b)
        with pytest.raises(ValueError, match="mixed characteristics"):
            op(b, a)
    f, g = Poly.from_ints(base_field(p), [1, 2, 1]), Poly.from_ints(base_field(q), [3, 1, 1])
    for op in (operator.add, operator.sub, operator.mul, divmod, Poly.gcd):
        with pytest.raises(ValueError, match="mixed characteristics"):
            op(f, g)
        with pytest.raises(ValueError, match="mixed characteristics"):
            op(g, f)
    with pytest.raises(ValueError, match="mixed characteristics"):
        f.scale(b + b)


def test_polys_over_two_copies_of_a_small_field_agree():
    # the residue loops need the same field object; an operand over a
    # second GF(7) takes the generic loops, with the same values
    F, G = base_field(7), PrimeField(7)
    a, b = [1, 2, 3, 4, 6], [5, 0, 1]

    def values(result):
        if isinstance(result, tuple):
            return [values(r) for r in result]
        return [c.value for c in result.coeffs]

    for op in (operator.add, operator.sub, operator.mul, divmod, Poly.gcd):
        same = op(Poly.from_ints(F, a), Poly.from_ints(F, b))
        assert values(op(Poly.from_ints(F, a), Poly.from_ints(G, b))) == values(same)


@pytest.mark.parametrize("p", [2, 7, LARGE_SHARED, SMALL_ALLOCATED, 1000003, 0])
def test_function_field_constants_are_shared_below_the_bound(p):
    F = ff(p)
    shared = 0 < p < SHARED_BELOW
    for n in (-3, 0, 1, 2, p + 5):
        c = F.from_int(n)
        assert (c is F.from_int(n + p)) == shared
        assert c == RationalFunction.const(F.base, F.base.from_int(n))
    assert (F.zero is F.from_int(0) and F.one is F.from_int(1)) == shared


@pytest.mark.parametrize("p", [7, 1000003])
def test_prime_field_equality_and_hash(p):
    F = base_field(p)
    a = F.from_int(3)
    assert a == 3 and a == 3 + p and a == 3 - p and a != 4 and 3 == a
    assert a == PrimeField(p).from_int(3) and hash(a) == hash(PrimeField(p).from_int(3))
    assert hash(a) == hash((3, p)) and repr(a) == "3"
    assert a != base_field(5).from_int(3)
    assert len({F.from_int(v) for v in range(-10, 10)}) == min(p, 20)


def test_rationals_are_exact():
    Q = base_field(0)
    third = Q.from_int(1) / Q.from_int(3)
    assert third + third + third == Q.one
    assert third == fractions.Fraction(1, 3)


def test_base_field_rejects_composite():
    with pytest.raises(ValueError):
        base_field(6)
    assert not is_prime(1) and is_prime(2) and not is_prime(9)


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(10**4) if is_prime(n)] == [
        n for n in range(10**4) if trial(n)]


def test_is_prime_large_inputs_are_fast_and_exact():
    start = time.perf_counter()
    assert is_prime(2**61 - 1)
    assert not is_prime((10**9 + 7) * (10**9 + 9))
    # strong pseudoprime to the first 12 prime bases, so a 13th is needed
    assert not is_prime(318665857834031151167461)
    assert time.perf_counter() - start < 0.5
    for n in (PRIME_LIMIT, 2**89 - 1):
        with pytest.raises(ValueError, match="too large"):
            is_prime(n)


# -- derivatives -------------------------------------------------------


def test_derivative_x_squared():
    F = ff(0)
    assert (F.x * F.x).derivative() == F.from_int(2) * F.x


@pytest.mark.parametrize("p", [2, 3, 5])
def test_derivative_of_pth_power_vanishes(p):
    F = ff(p)
    assert (F.x ** p).derivative().is_zero()


def test_derivative_quotient_rule():
    F = ff(0)
    inv = F.one / F.x
    assert inv.derivative() == -(F.one / (F.x * F.x))


@pytest.mark.parametrize("p", CHARACTERISTICS)
def test_leibniz_rule_many(rng, p):
    for _ in range(120):
        f = rand_ratfunc(rng, p)
        g = rand_ratfunc(rng, p)
        assert (f * g).derivative() == f.derivative() * g + f * g.derivative()


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=5),
       st.lists(st.integers(-9, 9), min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_leibniz_rule_polynomials(cs, ds):
    Q = base_field(0)
    f = Poly(Q, [Q.from_int(c) for c in cs])
    g = Poly(Q, [Q.from_int(d) for d in ds])
    assert (f * g).derivative() == f.derivative() * g + f * g.derivative()


# -- powers ------------------------------------------------------------


@given(st.sampled_from([0, 2, 1000003]),
       st.lists(st.integers(-9, 9), max_size=4), st.integers(0, 12))
@settings(max_examples=120)
def test_power_equals_repeated_product(p, cs, n):
    field = base_field(p)
    f = Poly(field, [field.from_int(c) for c in cs])
    expected = Poly.one(field)
    for _ in range(n):
        expected = expected * f
    assert f ** n == expected


@pytest.mark.parametrize("p", [2, 5, 1000003, 0])
def test_monomial_power_equals_repeated_product(p, monkeypatch):
    field = base_field(p)
    cases = [(c, k, n) for c in (1, 3, -3) for k in (0, 1, 2, 5) for n in (1, 2, 3, 7)]
    expected = []
    for c, k, n in cases:
        f = Poly(field, [field.zero] * k + [field.from_int(c)])
        product = Poly.one(field)
        for _ in range(n):
            product = product * f
        expected.append(product)

    def refuse(self, other):
        raise AssertionError("a product")

    monkeypatch.setattr(Poly, "__mul__", refuse)
    for (c, k, n), product in zip(cases, expected):
        power = Poly(field, [field.zero] * k + [field.from_int(c)]) ** n
        assert power == product and power.coeffs[-1]


@pytest.mark.parametrize("n, products", [(1, 0), (2, 1), (3, 2), (1024, 10)])
def test_power_makes_no_product_by_one_and_no_spare_squaring(n, products, monkeypatch):
    field = base_field(1000003)
    f = Poly(field, [field.one, field.zero, field.one])
    calls = []
    general = Poly.__mul__

    def counting(self, other):
        calls.append(1)
        return general(self, other)

    monkeypatch.setattr(Poly, "__mul__", counting)
    assert (f ** n).degree == 2 * n
    assert len(calls) == products


@pytest.mark.parametrize("p", [0, 2, 1000003])
def test_product_by_a_constant_only_scales(rng, p):
    field = base_field(p)
    for _ in range(40):
        f = rand_poly(rng, field, 6)
        g = rand_poly(rng, field, 3, nonzero=True)
        c = g.leading()
        const = Poly.const(field, c)
        assert f * const == const * f == f.scale(c)
        if f.degree > 0:
            assert f * Poly.one(field) is f and Poly.one(field) * f is f
        q, r = divmod(f, const)
        assert r.is_zero() and q.scale(c) == f
        longer = g.shift(f.degree + 1)
        assert divmod(f, longer) == (Poly.zero(field), f)
        q, r = divmod(f, g)
        assert q * g + r == f and r.degree < g.degree


# -- the Poly core against plain coefficient lists ---------------------


def _cut(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return cs


def ref_add(a, b, zero):
    n = max(len(a), len(b))
    return _cut((a[i] if i < len(a) else zero) + (b[i] if i < len(b) else zero)
                for i in range(n))


def ref_mul(a, b, zero):
    out = [zero] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _cut(out)


def ref_divmod(a, b, zero):
    """Schoolbook long division, one field division per step."""
    q, r = [zero] * max(len(a) - len(b) + 1, 0), list(a)
    while len(r) >= len(b):
        k = len(r) - len(b)
        c = r[-1] / b[-1]
        q[k] = c
        r = _cut(x - c * b[j - k] if j >= k else x for j, x in enumerate(r))
    return _cut(q), r


def ref_gcd(a, b, zero):
    while b:
        a, b = b, ref_divmod(a, b, zero)[1]
    return [c / a[-1] for c in a] if a else []


# GF(1000003) allocates its elements; k(x) coefficients are
# themselves reduced fractions of polynomials
POLY_CORE_FIELDS = [
    (base_field(2), st.integers(0, 1)),
    (base_field(7), st.integers(0, 6)),
    (base_field(1000003), st.one_of(st.integers(0, 3), st.integers(0, 1000002))),
    (base_field(0), st.integers(-4, 4)),
    (ff(3), st.lists(st.integers(0, 2), max_size=2)),
]


@st.composite
def poly_core_pairs(draw):
    """(field, a, b): coefficient lists, some with trailing zeros.

    b may share a's top coefficients, so that a - b cancels them, or
    a factor with a, so that their gcd is not 1.
    """
    field, ints = draw(st.sampled_from(POLY_CORE_FIELDS))
    if isinstance(field, FunctionField):
        den = field.x + field.one

        def element(cs):
            return RationalFunction(field.base, Poly.from_ints(field.base, cs)) / den
    else:
        element = field.from_int

    def coeffs(max_size=5):
        return [element(c) for c in draw(st.lists(ints, max_size=max_size))]

    a = coeffs()
    relation = draw(st.sampled_from(["none", "same top", "common factor"]))
    if relation == "same top":
        # a - b loses its top coefficients; a + b too in characteristic 2
        low = coeffs(len(a))
        b = low + a[len(low):]
    else:
        b = coeffs()
        if relation == "common factor":
            h = _cut(coeffs(3))
            a, b = ref_mul(_cut(a), h, field.zero), ref_mul(_cut(b), h, field.zero)
    return field, a, b


def assert_poly_invariant(f):
    assert type(f) is Poly and type(f.coeffs) is list
    assert not f.coeffs or f.coeffs[-1], "a trailing zero"


@given(poly_core_pairs(), st.integers(0, 3))
@settings(max_examples=400)
def test_poly_core_matches_coefficient_lists(pair, k):
    field, a, b = pair
    zero = field.zero
    f, g = Poly(field, a), Poly(field, b)
    a, b = _cut(a), _cut(b)
    c = field.from_int(k)
    results = {
        "+": (f + g, ref_add(a, b, zero)),
        "-": (f - g, ref_add(a, [-y for y in b], zero)),
        "neg": (-f, [-x for x in a]),
        "*": (f * g, ref_mul(a, b, zero)),
        "scale": (f.scale(c), _cut(c * x for x in a)),
        "gcd": (f.gcd(g), ref_gcd(a, b, zero)),
        "monic": (f.monic(), [x / a[-1] for x in a] if a else []),
        "int +": (f + k, ref_add(a, [c], zero)),
        "int *": (k * f, _cut(c * x for x in a)),
    }
    if b:
        q, r = divmod(f, g)
        want_q, want_r = ref_divmod(a, b, zero)
        results["//"], results["%"] = (q, want_q), (r, want_r)
    else:
        with pytest.raises(ZeroDivisionError):
            divmod(f, g)
    for op, (got, want) in results.items():
        assert_poly_invariant(got)
        assert got.coeffs == want, op
    assert (f == g) == (a == b) and (g == f) == (a == b)
    assert (f == k) == (a == _cut([c]))
    # no operator mutated an operand
    assert f.coeffs == a and g.coeffs == b


@given(st.sampled_from([2, 3, 7, LARGE_SHARED, SMALL_ALLOCATED, 1000003]), st.data())
@settings(max_examples=200)
def test_residue_loops_match_coefficient_lists(p, data):
    """The int residue loops of GF(p), at degrees up to about 30."""
    F = base_field(p)
    assert F.table is not None

    def coeffs(max_size):
        return [F.from_int(v) for v in data.draw(st.lists(st.integers(0, p - 1),
                                                          max_size=max_size))]

    a, b, h = _cut(coeffs(20)), _cut(coeffs(20)), _cut(coeffs(12))
    if data.draw(st.booleans()):
        # a common factor, so that the gcd is not 1
        a, b = ref_mul(a, h, F.zero), ref_mul(b, h, F.zero)
    f, g = Poly(F, a), Poly(F, b)
    c = F.from_int(data.draw(st.integers(0, p - 1)))
    results = {
        "+": (f + g, ref_add(a, b, F.zero)),
        "-": (f - g, ref_add(a, [-y for y in b], F.zero)),
        "*": (f * g, ref_mul(a, b, F.zero)),
        "scale": (f.scale(c), _cut(c * x for x in a)),
        "monic": (f.monic(), [x / a[-1] for x in a] if a else []),
        "gcd": (f.gcd(g), ref_gcd(a, b, F.zero)),
    }
    if b:
        q, r = divmod(f, g)
        want_q, want_r = ref_divmod(a, b, F.zero)
        results["//"], results["%"] = (q, want_q), (r, want_r)
    for op, (got, want) in results.items():
        assert_poly_invariant(got)
        assert got.coeffs == want, op
        if p < SHARED_BELOW:
            assert all(x is F.table[x.value] for x in got.coeffs), op
        else:
            assert all(x == F.table[x.value] and x.table is F.table for x in got.coeffs), op
    assert f.coeffs == a and g.coeffs == b


def ref_valuation(a, b, zero):
    count = 0
    while True:
        q, r = ref_divmod(a, b, zero)
        if r:
            return count
        a, count = q, count + 1


@pytest.mark.parametrize("p", [SMALL_ALLOCATED, 1000003])
def test_large_prime_fields_run_the_residue_loops(rng, p, monkeypatch):
    """Past ``SHARED_BELOW`` too, polynomials over one GF(p) add, subtract,
    multiply and divide on int residues: no generic division step and no
    sum, difference or product of two elements."""
    from dpglue import polynomials

    F = base_field(p)

    def poly(max_deg):
        return Poly.from_ints(F, [rng.randrange(p) for _ in range(rng.randrange(max_deg) + 1)])

    cases = []
    while len(cases) < 40:
        f, g = poly(14), poly(6)
        if f and g.degree > 0:
            cases.append((f, g, g.leading()))

    def refused(*args):
        raise AssertionError("a generic loop ran")

    got = []
    with monkeypatch.context() as m:
        m.setattr(polynomials, "_reduce", refused)
        for name in ("__add__", "__sub__", "__mul__"):
            m.setattr(FpElement, name, refused)
        for f, g, c in cases:
            got.append([f + g, f - g, f * g, f.scale(c), *divmod(f, g), f.gcd(g),
                        (f * g * g).valuation(g)])
    for (f, g, c), results in zip(cases, got):
        a, b, zero = f.coeffs, g.coeffs, F.zero
        *polys, valuation = results
        want = [ref_add(a, b, zero), ref_add(a, [-y for y in b], zero), ref_mul(a, b, zero),
                _cut(c * x for x in a), *ref_divmod(a, b, zero), ref_gcd(a, b, zero)]
        assert [h.coeffs for h in polys] == want
        assert valuation == 2 + ref_valuation(a, b, zero)


@pytest.mark.parametrize("p", [7, 1000003, 0])
def test_gcd_with_a_nonzero_constant_is_one_at_once(p, monkeypatch):
    from dpglue import polynomials

    steps = []
    for name in ("_reduce", "_reduce_residues"):
        step = getattr(polynomials, name)
        monkeypatch.setattr(polynomials, name,
                            lambda *args, step=step: steps.append(1) or step(*args))
    F = base_field(p)
    f, c = Poly.from_ints(F, [3, 0, 2, 1]), Poly.from_ints(F, [5])
    assert f.gcd(c).coeffs == [F.one] and not steps
    # a constant over a polynomial: one step leaves the constant as the remainder
    assert c.gcd(f).coeffs == [F.one] and len(steps) == 1
    assert f.gcd(f * f + c).coeffs == [F.one]


# -- orders at places --------------------------------------------------


def test_order_at_examples():
    F = ff(0)
    origin = Place.finite(Poly.x(F.base))
    assert (F.one / (F.x * F.x)).order_at(origin) == -2
    assert F.x.order_at(Place.infinity()) == -1
    f = parse_rational(F, "(x^2+1)/x")
    assert f.order_at(origin) == -1


@pytest.mark.parametrize("p", CHARACTERISTICS)
def test_valuation_additive(rng, p):
    F = ff(p)
    origin = Place.finite(Poly.x(F.base))
    for place in (origin, Place.infinity()):
        for _ in range(60):
            f = rand_ratfunc(rng, p, nonzero=True)
            g = rand_ratfunc(rng, p, nonzero=True)
            assert (f * g).order_at(place) == f.order_at(place) + g.order_at(place)


@pytest.mark.parametrize("p", [5, 1000003, 0])
@pytest.mark.parametrize("c", [2, 0])
def test_valuation_at_a_constant_is_refused(p, c):
    """Every division by a nonzero constant is exact, so a count of them
    would never end; on the residue loop (GF(5)) and the generic one."""
    field = base_field(p)
    with pytest.raises(ValueError):
        Poly.from_ints(field, [1, 1]).valuation(Poly.from_ints(field, [c]))


def divmod_valuation(f, pi):
    """Frozen reference: the multiplicity of pi in f by repeated ``divmod``."""
    count = 0
    while True:
        q, r = divmod(f, pi)
        if r:
            return count
        f, count = q, count + 1


@st.composite
def valuation_cases(draw):
    """(f, pi, m, kind): f = pi^m * cofactor, pi irreducible and maybe not
    monic, the cofactor prime to pi, a multiple of pi, or drawn freely."""
    p = draw(st.sampled_from([2, 3, 5, 7, 1031, 0]))
    field = base_field(p)
    # GF(1031) has no table; of the names over Q, x, x-2 and x^2+1 stay
    # irreducible there
    names = [n for by_degree in IRREDUCIBLES[0 if p == 1031 else p] for n in by_degree]
    pi = parse_rational(ff(p), draw(st.sampled_from(names))).num
    if not pi.is_irreducible():
        pi = Poly.x(field)
    pi = pi.scale(field.from_int(draw(st.integers(1, p - 1 if p else 3))))
    m = draw(st.integers(0, 2 * p + 1 if p in (2, 3, 5, 7) else 15))
    g = Poly.from_ints(field, draw(st.lists(st.integers(-9, 9), min_size=1, max_size=5)))
    kind = draw(st.sampled_from(["prime", "shares", "free"]))
    if kind == "prime" or not g:
        kind, cofactor = "prime", g * pi + 1
    else:
        cofactor = g * pi if kind == "shares" else g
    return pi ** m * cofactor, pi, m, kind


@given(valuation_cases())
@settings(max_examples=300)
def test_valuation_matches_the_divmod_loop(case):
    f, pi, m, kind = case
    v = f.valuation(pi)
    assert v == divmod_valuation(f, pi)
    assert v == m if kind == "prime" else v >= m + (kind == "shares")


@pytest.mark.parametrize("p", [0, 3])
def test_place_finite_rejects_reducible_and_zero(p):
    field = base_field(p)
    for coeffs in ([-1, 0, 1], []):  # x^2 - 1 = (x - 1)(x + 1), and 0
        with pytest.raises(ValueError, match="irreducible"):
            Place.finite(Poly.from_ints(field, coeffs))


def test_canonical_forms(rng):
    for _ in range(60):
        a = rand_ratfunc(rng, 0, nonzero=True)
        b = rand_ratfunc(rng, 0, nonzero=True)
        assert (a - a).is_zero()
        assert (a / b) * (b / a) == ff(0).one
        # equality agrees with cross multiplication
        assert (a == b) == (a.num * b.den == b.num * a.den)


# -- multivariate identity checks --------------------------------------


def test_poly_identity_sextic():
    Q = base_field(0)
    names = ("u1", "u2", "u3")
    q = parse_mpoly(Q, names, "u2^2 - u1*u3")
    u1 = parse_mpoly(Q, names, "u1")
    u2 = parse_mpoly(Q, names, "u2")
    u3 = parse_mpoly(Q, names, "u3")
    assert ((u2 * q) ** 2 - q ** 3 - u1 * u3 * q ** 2).is_zero()


def test_poly_identity_trivial():
    Q = base_field(0)
    x = parse_mpoly(Q, ("x",), "x")
    assert (x - x).is_zero()


def test_poly_identity_char3_coefficient():
    F3 = base_field(3)
    assert parse_mpoly(F3, ("x",), "3*x").is_zero()


def test_powers_past_the_size_budget_are_refused_before_expanding():
    # a GF(2) slot costs 2 bits, and a polynomial's denominator 1 one slot
    F, slots = ff(2), SIZE_BUDGET // 2
    assert parse_rational(F, f"1/x^{slots - 2}").den.degree == slots - 2
    for text in (f"x^{slots - 1}", f"1/(x^2+1)^{slots // 2}", "(x^3)^5000",
                 f"(x+1)^-{slots - 1}", f"x^{slots // 2}*x^{slots // 2}"):
        with pytest.raises(ValueError, match=f"exceeds the limit {SIZE_BUDGET}"):
            parse_rational(F, text)
    # an MPoly slot is a term, and a power's size is the term pairs of its
    # halves' product: (u+v)^177 multiplies 89 * 90 of them, (u+v)^178 90 * 90
    names = ("u", "v")
    assert parse_mpoly(F.base, names, "(u*v)^10000000000").terms == {(10**10, 10**10): F.base.one}
    parse_mpoly(F.base, names, "(u+v)^177")
    with pytest.raises(ValueError, match=f"a power of 16200 bits exceeds the limit {SIZE_BUDGET}"):
        parse_mpoly(F.base, names, "(u+v)^178")
    # over Q a constant's slot costs its height: 2^n takes n bits, in two
    # slots for k(x) and one term for an MPoly; over GF(p) it stays below p
    Q, half = ff(0), SIZE_BUDGET // 2
    too_big = f"exceeds the limit {SIZE_BUDGET}"
    assert parse_rational(Q, f"2^{half}") == 2 ** half
    assert parse_rational(Q, f"(2^{half // 4})^-4") == Q.one / 2 ** (half // 4 * 4)
    # 1/3 cleared is 1/3 with height 2
    assert parse_rational(Q, f"(1/3)^{half // 2}") == Q.one / 3 ** (half // 2)
    assert parse_rational(Q, f"1^{SIZE_BUDGET + 1}") == 1
    for text in (f"2^{half + 1}", f"(2^{half // 4})^5", f"(1/3)^{half // 2 + 1}",
                 f"(x+2^{half // 4})^5", "2^10000000000"):
        with pytest.raises(ValueError, match=too_big):
            parse_rational(Q, text)
    parse_mpoly(Q.base, names, f"2^{SIZE_BUDGET}*u")
    for text in (f"(2^{SIZE_BUDGET // 4}*u)^5", f"2^{SIZE_BUDGET + 1}"):
        with pytest.raises(ValueError, match=too_big):
            parse_mpoly(Q.base, names, text)
    G = ff(7)
    assert parse_rational(G, f"3^{SIZE_BUDGET + 1}") == pow(3, SIZE_BUDGET + 1, 7)
    assert parse_rational(G, "2^10000000000") == pow(2, 10**10, 7)


# The README's calibration table: the largest power of x^2+x+1 that each
# field accepts, and the first it refuses.
@pytest.mark.parametrize("p, largest", [(2, 4024), (7, 2682), (1021, 804), (1031, 730),
                                        (1000003, 401), (10**18 + 9, 133), (0, 62)])
def test_calibration_rows(p, largest):
    F = ff(p)
    assert parse_rational(F, f"(x^2+x+1)^{largest}").num.degree == 2 * largest
    with pytest.raises(ValueError, match=f"a power of .* exceeds the limit {SIZE_BUDGET}"):
        parse_rational(F, f"(x^2+x+1)^{largest + 1}")


# -- polynomial factorization (used by the tameness scan) --------------


@pytest.mark.parametrize("p", CHARACTERISTICS + (7,))
def test_factorization_reassembles(rng, p):
    field = base_field(p)
    for _ in range(20):
        f = rand_poly(rng, field, max_deg=4, nonzero=True)
        unit, factors = f.factor()
        g = Poly(field, [unit])
        for poly, mult in factors:
            assert poly.leading() == poly.field.one
            g = g * poly ** mult
        assert g == f
    # c * prod g_i^m_i from the table, with some m_i divisible by p
    F = ff(p)
    table = [parse_rational(F, t).num for by_degree in IRREDUCIBLES[p] for t in by_degree]
    for g in table:
        assert g.is_irreducible()
    mults = range(1, 4) if p == 0 else (1, 2, p, p + 1, 2 * p, 2 * p + 1)
    for _ in range(12):
        chosen = rng.sample(table, rng.randint(1, 3))
        ms = [rng.choice(mults) for _ in chosen]
        if len(chosen) == 1 and ms[0] == 1:
            ms[0] = 2
        c = field.from_int(rng.randrange(1, p or 7))
        f = Poly.const(field, c)
        for g, m in zip(chosen, ms):
            f = f * g ** m
        unit, factors = f.factor()
        assert unit == c and len(factors) == len(chosen)
        assert dict(factors) == dict(zip(chosen, ms))
        pieces = f.squarefree()
        rebuilt = Poly.const(field, c)
        for i, (piece, m) in enumerate(pieces):
            rebuilt = rebuilt * piece ** m
            for other, _ in pieces[i + 1:]:
                assert piece.gcd(other) == 1
        assert rebuilt == f
        assert not f.is_irreducible()
    if p == 0:
        # four quadratics; an irreducible that splits mod every prime;
        # 13 linear factors mod 13; a rational root beside two quadratics
        for text, names in [
            ("x^8-16", {"x^2 - 2", "x^2 - 2*x + 2", "x^2 + 2", "x^2 + 2*x + 2"}),
            (swinnerton_dyer([2, 3, 5, 7]), None),
            ("*".join(f"(x-{i})" for i in range(1, 14)),
             {f"x - {i}" for i in range(1, 14)}),
            ("(x-1)*(x^2+1)*(x^2+2)", {"x - 1", "x^2 + 1", "x^2 + 2"}),
        ]:
            f = parse_rational(F, text).num
            factors = f.factor()[1]
            if names is None:
                assert f.degree == 16 and factors == [(f, 1)] and f.is_irreducible()
            else:
                assert {format_poly(g): m for g, m in factors} == dict.fromkeys(names, 1)
                assert not f.is_irreducible()


@st.composite
def powered_products(draw):
    """c * prod g_i^m_i over Q or GF(p), the g_i of degree 1 or 2 and not
    always coprime or irreducible, and multiplicities up to 2p + 3."""
    p = draw(st.sampled_from([0, 2, 3, 5, 7, 11]))
    field = base_field(p)
    g = st.lists(st.integers(-5, 5), min_size=2, max_size=3).map(
        lambda cs: Poly.from_ints(field, cs)).filter(lambda g: g.degree >= 1)
    f = Poly.const(field, field.from_int(draw(st.integers(1, (p or 7) - 1))))
    for g, m in draw(st.lists(st.tuples(g, st.integers(1, 2 * (p or 4) + 3)), max_size=3)):
        f = f * g ** m
    return f


@given(powered_products())
@settings(max_examples=300)
def test_squarefree_matches_musser_loop(f):
    assert f.squarefree() == musser_squarefree(f)


def test_squarefree_takes_a_multiplicity_apart_digit_by_digit():
    # 3^7 + 3^3 + 1: one piece of Yun's loop, merged with a root seven levels down
    g, m = parse_rational(ff(3), "x^2+1").num, 3**7 + 3**3 + 1
    x = Poly.x(g.field)
    start = time.perf_counter()
    assert (g ** m * x ** 9 * (x + 1)).squarefree() == [(x + 1, 1), (g, m), (x, 9)]
    assert time.perf_counter() - start < 0.5


@given(st.sampled_from([2, 3, 5, 7]), st.lists(st.integers(0, 6), max_size=7),
       st.integers(1, 3))
@settings(max_examples=200)
def test_irreducibility_over_gf_p_needs_no_factoring(p, coeffs, power):
    """Over GF(p), a square-free check and distinct-degree factorisation
    give the answer of the full factorisation, with no call to it; powers
    and products of irreducibles come in through ``power``."""
    field = base_field(p)
    f = Poly.from_ints(field, coeffs) ** power
    want = bool(f) and f.factor()[1] == [(f.monic(), 1)]
    with patch.object(Poly, "factor", side_effect=AssertionError("factored")):
        assert f.is_irreducible() == want


@st.composite
def rational_polys(draw):
    """Polynomials over Q of degree 1-6 with integer or rational
    coefficients, and products of two of them."""
    field = base_field(0)
    coefficient = st.one_of(
        st.integers(-9, 9).map(fractions.Fraction),
        st.builds(fractions.Fraction, st.integers(-9, 9), st.integers(1, 6)))
    factor = st.lists(coefficient, min_size=2, max_size=7).map(
        lambda cs: Poly(field, cs)).filter(lambda f: f.degree >= 1)
    f = draw(factor)
    return f * draw(factor) if draw(st.booleans()) else f


@given(rational_polys())
@example(parse_rational(ff(0), "x^4-10*x^2+1").num)  # splits mod every prime
@settings(max_examples=200)
def test_irreducibility_over_q_agrees_with_factoring(f):
    """A certificate mod a small prime, or else the full factorisation,
    gives the answer of the full factorisation."""
    assert f.is_irreducible() == (f.factor()[1] == [(f.monic(), 1)])


def test_irreducibility_over_q_factors_only_without_a_certificate(monkeypatch):
    F = ff(0)
    calls = []
    factor = Poly.factor

    def counted(self):
        calls.append(self)
        return factor(self)

    monkeypatch.setattr(Poly, "factor", counted)
    for text in ("x^3-2", "x^2+1", "x^6+x+1", "x^2+1/3", "x/2+1/3"):
        assert parse_rational(F, text).num.is_irreducible()
    assert calls == []
    # reducible, or irreducible and split mod every prime: factored
    for text, want in (("x^2-1", False), ("x^4-10*x^2+1", True)):
        f = parse_rational(F, text).num
        assert f.is_irreducible() == want and calls == [f]
        calls.clear()

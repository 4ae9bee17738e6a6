"""Canonical form of k(x): every operator agrees with normalising the raw result."""

import string

import pytest
from hypothesis import given, settings, strategies as st

from dpglue.fields import base_field
from dpglue.polynomials import Poly
from dpglue.rational import (FunctionField, RationalFunction, _tokenize,
                             parse_rational)


def polys(field, max_deg=3, nonzero=False):
    coeffs = st.lists(st.integers(-3, 3).map(field.from_int),
                      min_size=1 if nonzero else 0, max_size=max_deg + 1)
    out = coeffs.map(lambda cs: Poly(field, cs))
    return out.filter(lambda q: not q.is_zero()) if nonzero else out


@st.composite
def operand_pairs(draw):
    """(field, f, g) with zeros, constant and equal denominators, shared factors."""
    field = base_field(draw(st.sampled_from([0, 2, 3, 5])))
    shared = draw(polys(field, 2, nonzero=True))

    def operand():
        kind = draw(st.sampled_from(["zero", "constant den", "general"]))
        num = Poly.zero(field) if kind == "zero" else draw(polys(field))
        den = (Poly.const(field, draw(st.sampled_from([1, 2, -1]).map(field.from_int)))
               if kind == "constant den" else draw(polys(field, nonzero=True)))
        if not den:  # 2 = 0 in GF(2)
            den = Poly.one(field)
        if draw(st.booleans()):
            num = num * shared
        if draw(st.booleans()):
            den = den * shared
        return RationalFunction(field, num, den)

    f = operand()
    relation = draw(st.sampled_from(["none", "same den", "sum cancels"]))
    if relation == "same den":
        # (a + h b)/b is reduced whenever a/b is
        h = draw(polys(field, 2))
        g = RationalFunction(field, f.num + h * f.den, f.den)
    elif relation == "sum cancels":
        # g = u - f, so f + g = u has a smaller denominator than lcm(b, d)
        u = operand()
        g = RationalFunction(field, u.num * f.den - f.num * u.den, u.den * f.den)
    else:
        g = operand()
    return field, f, g


def assert_canonical(h):
    assert h.den.is_monic()
    if h.is_zero():
        assert h.num.coeffs == [] and h.den == Poly.one(h.field)
    else:
        assert h.num.gcd(h.den) == Poly.one(h.field)


def assert_same(got, want):
    assert_canonical(got)
    assert got.num.coeffs == want.num.coeffs and got.den.coeffs == want.den.coeffs


@given(operand_pairs())
@settings(max_examples=300)
def test_operators_match_normalised_cross_products(pair):
    field, f, g = pair
    a, b, c, d = f.num, f.den, g.num, g.den
    assert_same(f + g, RationalFunction(field, a * d + c * b, b * d))
    assert_same(f - g, RationalFunction(field, a * d - c * b, b * d))
    assert_same(f * g, RationalFunction(field, a * c, b * d))
    if g:
        assert_same(f / g, RationalFunction(field, a * d, b * c))
    else:
        with pytest.raises(ZeroDivisionError):
            f / g
    assert_same(-f, RationalFunction(field, -a, b))


@given(operand_pairs())
@settings(max_examples=150)
def test_product_with_one_is_the_other_operand(pair):
    field, f, _ = pair
    one = RationalFunction.const(field, field.one)
    a, b = f.num, f.den
    for got in (one * f, f * one, f / one):
        assert_same(got, RationalFunction(field, a, b))
    if f:
        assert_same(one / f, RationalFunction(field, b, a))


@pytest.mark.parametrize("p", [0, 3])
def test_product_with_one_makes_no_polynomial_product(p, monkeypatch):
    field = base_field(p)
    x = Poly.x(field)
    f = RationalFunction(field, x * x + field.one, x + field.from_int(2))
    one = RationalFunction.const(field, field.one)
    calls = []
    general = Poly.__mul__

    def counting(self, other):
        calls.append(1)
        return general(self, other)

    monkeypatch.setattr(Poly, "__mul__", counting)
    assert (one * f, f * one) == (f, f)
    assert calls == []
    f * f
    assert calls


@given(operand_pairs(), st.integers(-3, 3))
@settings(max_examples=150)
def test_derivative_and_powers_match_normalised_form(pair, n):
    field, f, _ = pair
    a, b = f.num, f.den
    assert_same(f.derivative(),
                RationalFunction(field, a.derivative() * b - a * b.derivative(), b * b))
    if n < 0 and not f:
        with pytest.raises(ZeroDivisionError):
            f ** n
        return
    want = (RationalFunction(field, a**n, b**n) if n >= 0
            else RationalFunction(field, b**-n, a**-n))
    assert_same(f ** n, want)


@pytest.mark.parametrize("p", [0, 2, 3, 5])
def test_constructors_are_canonical(p):
    field = base_field(p)
    x = Poly.x(field)
    two = field.from_int(2) if p != 2 else field.one
    cases = [
        RationalFunction(field, Poly.zero(field), x + 1),
        RationalFunction(field, x, Poly.const(field, two)),
        RationalFunction(field, (x + 1) * x, (x + 1).scale(two)),
        RationalFunction.from_poly(x * x),
        RationalFunction.const(field, field.zero),
        RationalFunction.x(field),
    ]
    for h in cases:
        assert_canonical(h)
    assert cases[0] == RationalFunction.const(field, field.zero)
    assert cases[2] == RationalFunction(field, x.scale(field.one / two))


def test_the_variable_is_x():
    field = FunctionField(base_field(3))
    assert parse_rational(field, "x^2/(x + 1)") == field.x ** 2 / (field.x + field.one)
    with pytest.raises(ValueError, match="unknown variable 'y'; expected 'x'"):
        parse_rational(field, "y + 1")


def character_loop_tokenize(text):
    """The character loop that the one-pattern ``_tokenize`` replaced."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j])))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j]))
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append((ch, ch))
            i += 1
            continue
        raise ValueError(f"unexpected character {ch!r} at position {i}")
    tokens.append(("end", None))
    return tokens


# "²" is a digit that int() refuses, "٣" one that it reads, "é" a letter
@given(st.text(alphabet=string.digits + string.ascii_letters + "_ \t+-*/^()²٣é"))
@settings(max_examples=300)
def test_tokenize_matches_the_character_loop(text):
    try:
        want = character_loop_tokenize(text)
    except ValueError as error:
        with pytest.raises(ValueError) as raised:
            _tokenize(text)
        # the loop let int() refuse a digit such as "²"; its own message
        # names the character and its position, and so must the pattern's
        if str(error).startswith("unexpected character"):
            assert str(raised.value) == str(error)
        return
    assert _tokenize(text) == want

"""Canonical form of k(x): every operator agrees with normalising the raw result."""

import re
import string
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from dpglue import multipoly, rational
from dpglue.fields import base_field
from dpglue.multipoly import MPoly, parse_mpoly
from dpglue.polynomials import Poly
from dpglue.rational import (MAX_BITS, MAX_DEGREE, FunctionField, RationalFunction,
                             _coefficient_bits, _tokenize, parse_rational)

from conftest import IRREDUCIBLES


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
    assert h.den.leading() == h.den.field.one
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


@pytest.mark.parametrize("p", [0, 3])
def test_power_leaves_a_denominator_of_one_alone(p, monkeypatch):
    field = FunctionField(base_field(p))
    f = field.x + field.one
    powered = []
    general = Poly.__pow__

    def counting(self, n):
        powered.append(self)
        return general(self, n)

    monkeypatch.setattr(Poly, "__pow__", counting)
    for h, n in ((f, 5), (field.one / f, -5)):
        powered.clear()
        h ** n
        assert powered == [f.num]


@pytest.mark.parametrize("p", [2, 3, 7])
def test_powers_over_a_prime_field_count_no_bits(p, monkeypatch):
    def refuse(coeffs):
        raise AssertionError("bits counted over GF(p)")

    monkeypatch.setattr(rational, "_coefficient_bits", refuse)
    field = FunctionField(base_field(p))
    assert parse_rational(field, "(x+2)^3/(x-1)^-2") == (field.x + 2) ** 3 * (field.x - 1) ** 2
    parse_mpoly(base_field(p), ("u", "v"), "(u+2*v)^4")
    with pytest.raises(AssertionError, match="bits counted"):
        parse_rational(FunctionField(base_field(0)), "(x+2)^3")


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


@st.composite
def repeated_denominators(draw):
    """(field, n/d) with d a product of places to the powers 1, p, p + 1
    and 2p (2, 3 and 4 over Q), or a p-th power."""
    p = draw(st.sampled_from([0, 2, 3, 5, 7]))
    field = base_field(p)
    q = p or 2
    places = [parse_rational(FunctionField(field), name).num
              for by_degree in IRREDUCIBLES[p] for name in by_degree]
    den = Poly.one(field)
    for g in draw(st.lists(st.sampled_from(places), min_size=1, max_size=3, unique=True)):
        den = den * g ** draw(st.sampled_from([1, q, q + 1, 2 * q]))
    if p and draw(st.booleans()):
        den = draw(polys(field, 2, nonzero=True)) ** p
    num = draw(polys(field, 4, nonzero=True))
    return field, RationalFunction(field, num, den)


@given(repeated_denominators())
@settings(max_examples=120)
def test_derivative_over_gcd_matches_the_quotient_rule(case):
    field, f = case
    n, d = f.num, f.den
    want = RationalFunction(field, n.derivative() * d - n * d.derivative(), d * d)
    assert_same(f.derivative(), want)


def test_mpoly_is_not_hashable():
    """MPoly equals an int it coerces, so it has no hash that could agree."""
    three = MPoly.const(base_field(0), ("x",), base_field(0).from_int(3))
    assert three == 3
    with pytest.raises(TypeError):
        hash(three)


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


class RecursiveDescentParser:
    """The parser with peek()/next() and a separate atom() that ``_ExprParser`` replaced.

    The adapter provides constant(int), variable(name), degree(value)
    and coefficients(value), and its values support +, -, *, / and
    integer **.  A power whose degree would exceed ``MAX_DEGREE``, or
    whose numbers would exceed ``MAX_BITS`` by ``_coefficient_bits``,
    raises ``ValueError`` before it is expanded.
    """

    def __init__(self, text: str, constant, variable, degree, coefficients,
                 allow_division=True):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.constant = constant
        self.variable = variable
        self.degree = degree
        self.coefficients = coefficients
        self.allow_division = allow_division

    def peek(self):
        return self.tokens[self.pos][0]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self):
        v = self.expr()
        if self.peek() != "end":
            raise ValueError(f"trailing input at token {self.pos}")
        return v

    def expr(self):
        if self.peek() == "-":
            self.next()
            v = -self.term()
        else:
            if self.peek() == "+":
                self.next()
            v = self.term()
        while self.peek() in "+-":
            op = self.next()[0]
            rhs = self.term()
            v = v + rhs if op == "+" else v - rhs
        return v

    def term(self):
        v = self.factor()
        while self.peek() in "*/":
            op = self.next()[0]
            rhs = self.factor()
            if op == "*":
                v = v * rhs
            else:
                if not self.allow_division:
                    raise ValueError("division not allowed in this context")
                v = v / rhs
        return v

    def factor(self):
        v = self.atom()
        if self.peek() == "^":
            self.next()
            neg = False
            if self.peek() == "-":
                self.next()
                neg = True
            kind, val = self.next()
            if kind != "int":
                raise ValueError("exponent must be an integer")
            if self.degree(v) * val > MAX_DEGREE:
                raise ValueError(f"a power of degree {self.degree(v) * val} exceeds "
                                 f"the limit {MAX_DEGREE}")
            # the adapters give no coefficients over GF(p)
            if self.coefficients is not None:
                bits = _coefficient_bits(self.coefficients(v)) * val
                if bits > MAX_BITS:
                    raise ValueError(f"a power with numbers up to 2^{bits} exceeds "
                                     f"the limit 2^{MAX_BITS}")
            v = v ** (-val if neg else val)
        return v

    def atom(self):
        kind, val = self.next()
        if kind == "int":
            return self.constant(val)
        if kind == "name":
            return self.variable(val)
        if kind == "(":
            v = self.expr()
            kind, _ = self.next()
            if kind != ")":
                raise ValueError("missing closing parenthesis")
            return v
        if kind == "-":
            return -self.atom()
        raise ValueError(f"unexpected token {kind!r}")


# the grammar's characters, with x its one variable
EXPR_ALPHABET = "x0123456789+-*/^() "


def _join(parts):
    return "".join(map(str, parts))


# valid expressions, with small exponents so that no power is slow
valid_expressions = st.recursive(
    st.one_of(st.just("x"), st.integers(0, 12).map(str)),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", "/", " - ", "*-", "/-"]), inner).map(_join),
        inner.map("({})".format),
        st.tuples(inner, st.sampled_from(["^", "^-", " ^ "]), st.integers(0, 3)).map(_join),
        inner.map("-{}".format),
    ),
    max_leaves=8)
# any string over the alphabet, mostly invalid; an exponent of three or
# more digits could expand a dense power of degree in the thousands
any_expressions = st.text(alphabet=EXPR_ALPHABET, max_size=14).filter(
    lambda text: not re.search(r"\^ *-? *\d{3}", text))


def parse_outcome(parse, *args):
    """What parsing gives: a value, or the type and message of the error."""
    try:
        return parse(*args)
    except Exception as error:  # the two parsers must raise alike
        return type(error), str(error)


@given(st.one_of(valid_expressions, any_expressions))
@example("x/(")
@example("x/0")
@example("2*-x^2")
@example("--x^-2")
@example("-(x)^2")
@example("x^-")
@example("(x+1")
@example("x^1000000")
@example("2^100000")
@settings(max_examples=400)
def test_parser_matches_the_recursive_descent(text):
    fields = (FunctionField(base_field(3)), FunctionField(base_field(0)))
    want = []
    with (patch.object(rational, "_ExprParser", RecursiveDescentParser),
          patch.object(multipoly, "_ExprParser", RecursiveDescentParser)):
        for field in fields:
            want.append(parse_outcome(parse_rational, field, text))
            want.append(parse_outcome(parse_mpoly, field.base, ("x",), text))
    got = []
    for field in fields:
        got.append(parse_outcome(parse_rational, field, text))
        got.append(parse_outcome(parse_mpoly, field.base, ("x",), text))
    for g, w in zip(got, want):
        if isinstance(w, tuple):
            assert g == w
        elif isinstance(w, RationalFunction):
            assert type(g) is RationalFunction and (g.num.coeffs, g.den.coeffs) == (
                w.num.coeffs, w.den.coeffs)
        else:
            assert type(g) is MPoly and g.terms == w.terms

"""Canonical form of k(x): every operator agrees with normalising the raw result."""

import operator
import re
import string
import time
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from dpglue import multipoly, rational
from dpglue.fields import base_field
from dpglue.multipoly import MPoly, parse_mpoly
from dpglue.polynomials import Poly
from dpglue.rational import (SIZE_BUDGET, FunctionField, Place, RationalFunction, _check_size,
                             _degree_bound, _height, _tokenize, parse_rational)

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
    def refuse(*parts):
        raise AssertionError("bits counted over GF(p)")

    monkeypatch.setattr(rational, "_height", refuse)
    field = FunctionField(base_field(p))
    assert parse_rational(field, "(x+2)^3/(x-1)^-2") == (field.x + 2) ** 3 * (field.x - 1) ** 2
    parse_mpoly(base_field(p), ("u", "v"), "(u+2*v)^4 - u*v")
    with pytest.raises(AssertionError, match="bits counted"):
        parse_rational(FunctionField(base_field(0)), "(x+2)^3")


def test_each_operator_is_checked_before_it_runs(monkeypatch):
    seen = []
    check = rational._check_size

    def recording(op, *args):
        seen.append(op)
        return check(op, *args)

    monkeypatch.setattr(rational, "_check_size", recording)
    # over GF(1031) a slot is 11 bits, and B = 3 * 300 passes the bound
    for p in (1031, 0):
        seen.clear()
        assert parse_rational(FunctionField(base_field(p)), "(x+1)*(x-2)/x^300 - 4")
        assert seen == ["+", "-", "*", "^", "/", "-"]
    seen.clear()
    assert parse_mpoly(base_field(0), ("u", "v"), "u*v + u^2 - 1")
    assert seen == ["*", "^", "+", "-"]
    # B = 3 * 3 over GF(3): no operation can pass the budget, and none is checked
    seen.clear()
    assert parse_rational(FunctionField(base_field(3)), "(x+1)*(x-2)/x^3 - 4")
    assert seen == []


@pytest.mark.parametrize("text, bound", [
    ("7", 0), ("x", 1), ("x^0 + x^1", 2), ("(x+1)^3*x^-5", 30),
    ("((x^2+1)/(x-1))^-4", 16), ("x^", 1), ("2^9*x", 9), ("x^-", 1),
])
def test_degree_bound_counts_names_and_exponents(text, bound):
    assert _degree_bound(_tokenize(text)) == bound


def parsed_or_refused(field, text):
    """The parsed value, or the type and message of what parsing raised."""
    try:
        return parse_rational(field, text)
    except (ValueError, ZeroDivisionError) as error:
        return type(error), str(error)


@st.composite
def near_the_bound(draw):
    """(p, text): an expression over GF(p) whose ``_degree_bound`` lies
    within a few exponent steps of the largest that runs unchecked, or of
    half or twice it, with negative exponents and nested quotients."""
    p = draw(st.sampled_from([2, 3, 7, 1021, 1031, 1000003]))
    unchecked = (SIZE_BUDGET // p.bit_length() - 2) // 2
    leaf = st.sampled_from(["x", "x+1", "2*x-1", "3", "0", "x^2+x+1", "x^3", "x+1/x"])
    inner = st.recursive(leaf, lambda sub: st.one_of(
        st.builds("({}){}({})".format, sub, st.sampled_from("+-*/"), sub),
        st.builds("({})^{}".format, sub, st.integers(-3, 3))), max_leaves=3)
    text = draw(inner)
    bound = max(1, _degree_bound(_tokenize(text)) * draw(st.sampled_from([1, 1, 2, 4])) // 2)
    e = min(3000, max(1, unchecked // bound + draw(st.integers(-2, 2))))
    text = f"({text})^{'-' * draw(st.booleans())}{e}"
    if draw(st.booleans()):
        text += draw(st.sampled_from(["+", "-", "*", "/"])) + draw(leaf)
    return p, text


@given(near_the_bound())
@settings(max_examples=60)
def test_unchecked_expressions_parse_as_checked_ones(case):
    """Where the bound lets a parse skip every check, checking each
    operation gives the same value, or the same error."""
    p, text = case
    field = FunctionField(base_field(p))
    got = parsed_or_refused(field, text)
    with patch.object(rational, "_degree_bound", lambda tokens: SIZE_BUDGET):
        assert parsed_or_refused(field, text) == got


@pytest.mark.parametrize("text", ["007", " 12 ", "\u0663", "0", "1000003"])
def test_a_bare_integer_is_read_without_the_grammar(text, monkeypatch):
    field = FunctionField(base_field(5))
    grammar = parse_rational(field, f"({text})")
    monkeypatch.setattr(rational, "_tokenize", None)
    assert parse_rational(field, text) == grammar


@pytest.mark.parametrize("text, outcome", [
    ("+3", 3), ("\u00b3", "unexpected character '\u00b3' at position 0"),
    ("1_0", "trailing input at token 1"), ("12 3", "trailing input at token 1"),
])
def test_other_integer_texts_go_through_the_grammar(text, outcome, monkeypatch):
    tokenized = []
    tokenize = rational._tokenize

    def counting(text):
        tokenized.append(text)
        return tokenize(text)

    monkeypatch.setattr(rational, "_tokenize", counting)
    field = FunctionField(base_field(5))
    if isinstance(outcome, int):
        assert parse_rational(field, text) == outcome
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(outcome)}$"):
            parse_rational(field, text)
    assert tokenized == [text]


OPERATIONS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def slots_and_height(p, *parts):
    """The slots and the height over Q that ``_check_size`` counts in a value."""
    return (len(parts[0]) or 1) + len(parts[1]), 0 if p else _height(*parts)


def unreduced(op, f, g):
    """num and den of f op g before any gcd cancels; g is the exponent of a power."""
    if op == "^":
        num, den = (f.num, f.den) if g >= 0 else (f.den, f.num)
        return num ** abs(g), den ** abs(g)
    if op == "*":
        return f.num * g.num, f.den * g.den
    if op == "/":
        return f.num * g.den, f.den * g.num
    cross = g.num * f.den
    return f.num * g.den + (cross if op == "+" else -cross), f.den * g.den


@st.composite
def sized_operands(draw, sparse):
    """(p, f, g): elements of k(x), or MPolys in u, v, with fractions over Q."""
    p = draw(st.sampled_from([0, 2, 3, 7, 1031]))
    field = base_field(p)
    coefficient = st.tuples(st.integers(-9, 9), st.integers(1, 1 if p else 6)).map(
        lambda nd: field.from_int(nd[0]) / field.from_int(nd[1]))
    if sparse:
        term = st.tuples(st.tuples(st.integers(0, 3), st.integers(0, 3)), coefficient)
        operand = st.lists(term, max_size=5).map(lambda ts: MPoly(field, ("u", "v"), dict(ts)))
        return p, draw(operand), draw(operand)
    poly = st.lists(coefficient, max_size=5).map(lambda cs: Poly(field, cs))
    operand = st.builds(lambda num, den: RationalFunction(field, num, den),
                        poly, poly.filter(bool))
    return p, draw(operand), draw(operand)


@given(sized_operands(sparse=False), st.sampled_from("+-*/^"), st.integers(-6, 6))
@settings(max_examples=400)
def test_predicted_size_bounds_the_unreduced_result(case, op, e):
    p, f, g = case
    if op == "^" and e < 0 and not f or op == "/" and not g:
        return
    y = e if op == "^" else (g.num.coeffs, g.den.coeffs)
    try:
        slots, height = _check_size(op, (f.num.coeffs, f.den.coeffs), y, p.bit_length(), False)
    except ValueError as refused:
        assert "exceeds the limit" in str(refused)
        return
    num, den = unreduced(op, f, e if op == "^" else g)
    n, h = slots_and_height(p, num.coeffs, den.coeffs)
    assert slots >= n and height >= h
    # cancelling only shortens: the built result fits the prediction too
    built = f ** e if op == "^" else OPERATIONS[op](f, g)
    assert slots >= slots_and_height(p, built.num.coeffs, built.den.coeffs)[0]


@given(sized_operands(sparse=True), st.sampled_from("+-*^"), st.integers(0, 6))
@settings(max_examples=300)
def test_predicted_size_bounds_the_mpoly_result(case, op, e):
    p, f, g = case
    try:
        slots, height = _check_size(op, (f.terms.values(), ()),
                                    e if op == "^" else (g.terms.values(), ()),
                                    p.bit_length(), True)
    except ValueError as refused:
        assert "exceeds the limit" in str(refused)
        return
    built = f ** e if op == "^" else OPERATIONS[op](f, g)
    n, h = slots_and_height(p, built.terms.values(), ())
    assert slots >= n and height >= h


def test_order_at_a_pole_takes_one_valuation(monkeypatch):
    field = FunctionField(base_field(3))
    f = parse_rational(field, "(x+1)^2/(x^2+1)^3")
    pole, zero = (Place.finite(parse_rational(field, t).num) for t in ("x^2+1", "x+1"))
    calls = []
    valuation = Poly.valuation

    def counted(self, pi):
        calls.append(self)
        return valuation(self, pi)

    monkeypatch.setattr(Poly, "valuation", counted)
    assert f.order_at(pole) == -3 and calls == [f.den]
    calls.clear()
    assert f.order_at(zero) == 2 and calls == [f.den, f.num]


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


@st.composite
def to_invert(draw):
    """(field, f) over GF(2, 3, 5, 7) or Q: zero, constants, and num or den
    divisible by x, which the reversal drops to a lower degree."""
    field = base_field(draw(st.sampled_from([0, 2, 3, 5, 7])))
    kind = draw(st.sampled_from(["zero", "constant", "general"]))
    if kind == "zero":
        return field, RationalFunction(field, Poly.zero(field))
    num = draw(polys(field, 0 if kind == "constant" else 4, nonzero=True))
    den = draw(polys(field, 0 if kind == "constant" else 4, nonzero=True))
    x = Poly.x(field)
    if kind == "general":
        num = num * x ** draw(st.integers(0, 2))
        den = den * x ** draw(st.integers(0, 2))
    return field, RationalFunction(field, num, den)


@given(to_invert())
@settings(max_examples=200)
def test_invert_variable_scales_and_takes_no_gcd(case):
    field, f = case
    d = max(f.num.degree, f.den.degree)
    want = RationalFunction(field, f.num.reverse(d), f.den.reverse(d))
    with patch.object(Poly, "gcd", side_effect=AssertionError("a gcd")), \
            patch.object(RationalFunction, "__init__", side_effect=AssertionError("normalised")):
        got = f.invert_variable()
    assert_same(got, want)


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

    The adapter provides constant(int), variable(name) and parts(value),
    and its values support +, -, *, / and integer **.  Each + - * / ^
    whose predicted size passes the budget raises ``ValueError`` from
    ``_check_size`` before it runs; a sparse grammar has no division.
    """

    def __init__(self, text: str, constant, variable, parts, p, sparse=False):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.constant = constant
        self.variable = variable
        self.parts = parts
        self.slot_bits = p.bit_length()
        self.sparse = sparse

    def check(self, op, v, w):
        _check_size(op, self.parts(v), w if op == "^" else self.parts(w), self.slot_bits,
                    self.sparse)

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
            self.check(op, v, rhs)
            v = v + rhs if op == "+" else v - rhs
        return v

    def term(self):
        v = self.factor()
        while self.peek() in "*/":
            op = self.next()[0]
            rhs = self.factor()
            if op == "*":
                self.check(op, v, rhs)
                v = v * rhs
            else:
                if self.sparse:
                    raise ValueError("division not allowed in this context")
                self.check(op, v, rhs)
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
            val = -val if neg else val
            self.check("^", v, val)
            v = v ** val
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


# -- the size budget on drawn expressions --------------------------------


def budget_expression(draw, factors, division):
    """An expression with this many factors; a divisor or a negative power
    is of x or x^i + c, which are nonzero in every field."""
    nonzero = st.one_of(st.just("x"), st.builds("(x^{}+{})".format, st.integers(1, 3),
                                                 st.integers(1, 9)))
    exponent = st.integers(-10**6 if division else 0, 10**6)
    if factors == 1:
        if draw(st.booleans()):
            return str(draw(st.integers(0, 9)))
        base = draw(nonzero)
        return f"{base}^{draw(exponent)}" if draw(st.booleans()) else base
    op = draw(st.sampled_from("+-*/" if division else "+-*"))
    if op == "/":
        text = f"{budget_expression(draw, factors - 1, division)}/{draw(nonzero)}^{draw(exponent)}"
    else:
        k = draw(st.integers(1, factors - 1))
        text = (budget_expression(draw, k, division) + op
                + budget_expression(draw, factors - k, division))
    return f"({text})^{draw(st.integers(0, 10**6))}" if draw(st.booleans()) else f"({text})"


@st.composite
def budget_cases(draw):
    p = draw(st.sampled_from([2, 7, 1031, 1000003, 10**18 + 9, 0]))
    sparse = draw(st.booleans())
    return p, sparse, budget_expression(draw, draw(st.integers(3, 8)), not sparse)


@given(budget_cases())
@settings(max_examples=300)
def test_drawn_expressions_parse_or_are_refused_within_a_second(case):
    p, sparse, text = case
    start = time.perf_counter()
    try:
        if sparse:
            parse_mpoly(base_field(p), ("x",), text)
        else:
            parse_rational(FunctionField(base_field(p)), text)
    except ValueError as refused:
        assert "exceeds the limit" in str(refused)
    assert time.perf_counter() - start < 1.0

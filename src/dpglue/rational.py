"""Rational function fields k(x) with formal derivative and valuations.

A :class:`RationalFunction` is stored reduced with a monic denominator,
so equality is plain comparison of coefficient lists.  Places of the
projective line are monic irreducible polynomials plus a distinguished
point at infinity; ``order_at`` is the corresponding valuation.

The module also provides the string grammar ``x^3/(x-1)`` used by
scenario files and the CLI.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import cached_property
from operator import attrgetter
from typing import NamedTuple

from dpglue.polynomials import Poly, _is_element


class RationalFunction:
    """Element of k(x), reduced, with monic denominator; zero is 0/1.

    ``__init__`` normalises any num/den.  The operators keep the
    canonical form by gcds of the operands' parts only (Henrici's
    splitting, Knuth TAOCP 2, 4.5.1), and hand their already reduced
    results to ``_reduced``.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field, num: Poly, den: Poly | None = None):
        if den is None:
            den = Poly.one(field)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = Poly.one(field)
        else:
            if den.degree >= 1:
                g = num.gcd(den)
                if g.degree >= 1:
                    num, den = num // g, den // g
            lead = den.leading()
            if lead != field.one:
                inv = field.one / lead
                num, den = num.scale(inv), den.scale(inv)
        self.field = field
        self.num = num
        self.den = den

    @classmethod
    def _reduced(cls, field, num: Poly, den: Poly) -> "RationalFunction":
        """Trusted constructor: gcd(num, den) = 1, den monic, and den = 1 if num = 0."""
        f = object.__new__(cls)
        f.field = field
        f.num = num
        f.den = den
        return f

    # -- constructors -------------------------------------------------

    @classmethod
    def from_poly(cls, p: Poly) -> "RationalFunction":
        return cls._reduced(p.field, p, Poly.one(p.field))

    @classmethod
    def const(cls, field, c) -> "RationalFunction":
        return cls._reduced(field, Poly.const(field, c), Poly.one(field))

    @classmethod
    def x(cls, field) -> "RationalFunction":
        return cls._reduced(field, Poly.x(field), Poly.one(field))

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num.coeffs

    def __bool__(self):
        return bool(self.num.coeffs)

    def is_constant(self) -> bool:
        return self.num.degree <= 0 and self.den.degree == 0

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, Poly):
            return RationalFunction.from_poly(other)
        if isinstance(other, int):
            return RationalFunction.const(self.field, self.field.from_int(other))
        if _is_element(other):
            return RationalFunction.const(self.field, other)
        return None

    def _add(self, num: Poly, den: Poly) -> "RationalFunction":
        """self + num/den for a reduced num/den with monic den."""
        a, b = self.num, self.den
        if not a:
            return RationalFunction._reduced(self.field, num, den)
        if not num:
            return self
        if b == den:
            # common denominator: only gcd(a + num, b) can cancel
            t = a + num
            if not t:
                return RationalFunction._reduced(self.field, t, Poly.one(self.field))
            if b.degree >= 1:
                g = t.gcd(b)
                if g.degree >= 1:
                    t, b = t // g, b // g
            return RationalFunction._reduced(self.field, t, b)
        # den = 1 or b = 1: gcd(a + num b, b) = gcd(a, b) = 1, so the sum
        # over the other denominator is reduced
        if den.degree == 0:
            return RationalFunction._reduced(self.field, a + num * b, b)
        if b.degree == 0:
            return RationalFunction._reduced(self.field, a * den + num, den)
        g = b.gcd(den)
        if g.degree == 0:
            # coprime denominators: the cross sum is already reduced
            return RationalFunction._reduced(self.field, a * den + num * b, b * den)
        # with b = g b', den = g d': t = a d' + num b' is prime to b' d',
        # so only gcd(t, g) can cancel
        b, den = b // g, den // g
        t = a * den + num * b
        if not t:
            return RationalFunction._reduced(self.field, t, Poly.one(self.field))
        g2 = t.gcd(g)
        if g2.degree >= 1:
            t, g = t // g2, g // g2
        return RationalFunction._reduced(self.field, t, b * den * g)

    def __add__(self, other):
        if other.__class__ is not RationalFunction:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self._add(other.num, other.den)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not RationalFunction:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self._add(-other.num, other.den)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return RationalFunction._reduced(self.field, -self.num, self.den)

    def _mul(self, num: Poly, den: Poly) -> "RationalFunction":
        """self * num/den for a reduced num/den with monic den."""
        a, b = self.num, self.den
        if not a.coeffs or not num.coeffs:
            return RationalFunction._reduced(self.field, Poly.zero(self.field),
                                             Poly.one(self.field))
        # a side equal to 1/1 leaves the other as it is (dens are monic)
        one = self.field.one
        if len(den.coeffs) == 1 and len(num.coeffs) == 1 and num.coeffs[0] == one:
            return self
        if len(b.coeffs) == 1 and len(a.coeffs) == 1 and a.coeffs[0] == one:
            return RationalFunction._reduced(self.field, num, den)
        # gcd(a, b) = gcd(num, den) = 1, so only the cross gcds can cancel
        if len(a.coeffs) > 1 and len(den.coeffs) > 1:
            g = a.gcd(den)
            if len(g.coeffs) > 1:
                a, den = a // g, den // g
        if len(num.coeffs) > 1 and len(b.coeffs) > 1:
            g = num.gcd(b)
            if len(g.coeffs) > 1:
                num, b = num // g, b // g
        if len(b.coeffs) == 1:
            return RationalFunction._reduced(self.field, a * num, den)
        if len(den.coeffs) == 1:
            return RationalFunction._reduced(self.field, a * num, b)
        return RationalFunction._reduced(self.field, a * num, b * den)

    def __mul__(self, other):
        if other.__class__ is not RationalFunction:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self._mul(other.num, other.den)

    __rmul__ = __mul__

    def _inverse_parts(self):
        """(num, den) of 1/self, reduced with monic den; self is nonzero."""
        if self.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        lead = self.num.leading()
        if lead == self.field.one:
            return self.den, self.num
        inv = self.field.one / lead
        return self.den.scale(inv), self.num.scale(inv)

    def __truediv__(self, other):
        if other.__class__ is not RationalFunction:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self._mul(*other._inverse_parts())

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if n < 0:
            num, den = self._inverse_parts()
            n = -n
        else:
            num, den = self.num, self.den
        # powers of coprime polynomials stay coprime, of monic ones monic;
        # a monic constant is 1, and its power is itself
        return RationalFunction._reduced(self.field, num**n,
                                         den if len(den.coeffs) == 1 else den**n)

    def __eq__(self, other):
        if other.__class__ is not RationalFunction:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((hash(self.num), hash(self.den)))

    # -- calculus -----------------------------------------------------

    def derivative(self) -> "RationalFunction":
        """Formal d/dx by the quotient rule, over d (d/g) for g = gcd(d, d').

        (n/d)' = (n' (d/g) - n (d'/g)) / (d (d/g)).  At a place of order k
        in d, g has order k - 1 and d'/g is a unit when p does not divide
        k, so the numerator is a unit there too; only the places where p
        divides k, whose order is k in g and in d (d/g), can cancel, and
        one gcd with g takes them out (Modern Computer Algebra, 14.6).
        """
        n, d = self.num, self.den
        if d.degree == 0:
            return RationalFunction._reduced(self.field, n.derivative(), d)
        dd = d.derivative()
        g = d.gcd(dd)
        dg = d // g
        t = n.derivative() * dg - n * (dd // g)
        if not t:
            return RationalFunction._reduced(self.field, t, Poly.one(self.field))
        den = d * dg
        if self.field.characteristic and g.degree >= 1:
            g = t.gcd(g)
            if g.degree >= 1:
                t, den = t // g, den // g
        return RationalFunction._reduced(self.field, t, den)

    def order_at(self, place: "Place") -> int:
        """Valuation at a place; negative means a pole.  Rejects zero."""
        if self.is_zero():
            raise ValueError("order_at is undefined for the zero function")
        if place.is_infinity():
            return self.den.degree - self.num.degree
        # num and den are coprime, so at a pole num is a unit there
        pole = self.den.valuation(place.poly)
        return -pole if pole else self.num.valuation(place.poly)

    def invert_variable(self) -> "RationalFunction":
        """The function f(1/x); turns the place at infinity into (x).

        num and den are reversed to d = max(deg num, deg den) and made
        monic by scaling alone, with no gcd: x divides at most one of the
        reversals, and any other common factor would reverse to one of
        num and den, which are coprime.  0 stays 0/1.
        """
        num, den = self.num, self.den
        if not num:
            return self
        d = max(num.degree, den.degree)
        num, den = num.reverse(d), den.reverse(d)
        lead = den.coeffs[-1]
        if lead != self.field.one:
            inv = self.field.one / lead
            num, den = num.scale(inv), den.scale(inv)
        return RationalFunction._reduced(self.field, num, den)

    # -- printing -----------------------------------------------------

    def __repr__(self):
        return format_rational(self)


class Place(NamedTuple):
    """Closed point of the projective line: monic irreducible poly or infinity.

    ``Place(g)`` trusts g, as for a factor ``Poly.factor`` returned;
    ``Place.finite`` checks any other polynomial.
    """

    poly: Poly | None  # None encodes the point at infinity

    @classmethod
    def infinity(cls) -> "Place":
        return cls(None)

    @classmethod
    def finite(cls, poly: Poly) -> "Place":
        if not poly.is_irreducible():
            raise ValueError("finite place must be irreducible")
        return cls(poly.monic())

    def is_infinity(self) -> bool:
        return self.poly is None

    @property
    def degree(self) -> int:
        return 1 if self.poly is None else self.poly.degree

    def __repr__(self):
        if self.poly is None:
            return "Place(oo)"
        return f"Place({format_poly(self.poly)})"


class FunctionField:
    """k(x) as a coefficient field for downstream linear algebra.

    Over a base field whose ``table`` lists its elements (a small GF(p)),
    ``from_int`` hands out one shared constant per residue; k(x) itself
    has no table, so polynomials over it run ``_product`` and ``_reduce``
    on their coefficients.
    """

    table = None

    def __init__(self, base):
        self.base = base
        self.characteristic = base.characteristic

    def from_int(self, n: int) -> RationalFunction:
        if isinstance(self.base.table, list):
            return self._constants[n % self.base.p]
        return RationalFunction.const(self.base, self.base.from_int(n))

    # built on first use and shared: RationalFunction is never mutated
    @cached_property
    def _constants(self) -> list:
        """The p constants of k(x) over a base field with a listed table, by residue."""
        return [RationalFunction.const(self.base, c) for c in self.base.table]

    @cached_property
    def zero(self) -> RationalFunction:
        return self.from_int(0)

    @cached_property
    def one(self) -> RationalFunction:
        return self.from_int(1)

    @cached_property
    def x(self) -> RationalFunction:
        return RationalFunction.x(self.base)

    def pth_root(self, e: RationalFunction) -> RationalFunction:
        """p-th root if it exists, else raise; base must be GF(p)."""
        return RationalFunction(self.base, e.num.pth_root(), e.den.pth_root())

    def __eq__(self, other):
        return isinstance(other, FunctionField) and other.base == self.base

    def __hash__(self):
        return hash(("FF", self.base))

    def __repr__(self):
        return f"{self.base!r}(x)"


# -- string grammar ---------------------------------------------------


# A token is a run of decimal digits, a word, an operator, or any other
# non-space character, which is an error; so is a word that does not start
# with a letter or "_", such as one that starts with "²".
_TOKEN = re.compile(r"\d+|\w+|[-+*/^()]|\S")
_OPERATORS = {ch: (ch, ch) for ch in "+-*/^()"}


def _tokenize(text: str):
    tokens = []
    for tok in _TOKEN.findall(text):
        if op := _OPERATORS.get(tok):
            tokens.append(op)
        elif tok[0].isdecimal():
            tokens.append(("int", int(tok)))
        elif tok[0].isalpha() or tok[0] == "_":
            tokens.append(("name", tok))
        else:
            # each match before this one made one token
            position = list(_TOKEN.finditer(text))[len(tokens)].start()
            raise ValueError(f"unexpected character {tok[0]!r} at position {position}")
    tokens.append(("end", None))
    return tokens


def _degree_bound(tokens) -> int:
    """B = (names) * prod max(1, |e|) over the exponents e in the tokens.

    Every value the grammar builds from these tokens, before or after a
    gcd cancels, has numerator and denominator of degree at most B: a
    name has degree 1, degrees add under + - * / and multiply by |e|
    under ^.  An int after "^" or "^-" counts whether or not it parses.
    """
    names, product = 0, 1
    for i, (kind, _) in enumerate(tokens):
        if kind == "name":
            names += 1
        elif kind == "^":
            kind, e = tokens[i + 2] if tokens[i + 1][0] == "-" else tokens[i + 1]
            if kind == "int" and e > 1:
                product *= e
    return names * product


# The one size budget of the expression grammar, in bits: slots times bits
# per slot, predicted by ``_check_size`` before each + - * / ^ runs.  A
# dense product or power costs about the square of its slots, so this is
# the least budget that GF(2) 1/x^8000 (8,002 two-bit slots) fits in, with
# a little room; the README has the largest power each field accepts.
SIZE_BUDGET = 16_100

# Deepest nesting of parentheses the expression grammar accepts.  Each
# level takes three frames (expr, term, factor), so the parser stays
# well inside the interpreter's default recursion limit of 1000.
MAX_NESTING = 100

_NAMES = {"+": "sum", "-": "difference", "*": "product", "/": "quotient", "^": "power"}


def _height(*parts) -> int:
    """Least h with L and each part's 1-norm times L at most 2^h, for L the
    lcm of the denominators of all the parts' ``Fraction``s.  1-norms are
    submultiplicative, so the heights of a product's factors add."""
    lcm = math.lcm(*(c.denominator for part in parts for c in part))
    return (max(lcm, *(sum(abs(c.numerator) * (lcm // c.denominator) for c in part)
                       for part in parts)) - 1).bit_length()


def _power_terms(terms: int, e: int):
    """C(e + terms - 1, terms - 1), the most terms of a power; inf past the
    budget.  C(n, i) grows with i up to min(e, terms - 1) <= n / 2, so
    the loop passes the budget within about log2(SIZE_BUDGET) steps."""
    n, count = e + terms - 1, 1
    for i in range(1, min(e, terms - 1) + 1):
        count = count * (n - i + 1) // i
        if count > SIZE_BUDGET:
            return math.inf
    return count


def _check_size(op: str, x, y, slot_bits: int, sparse: bool) -> tuple:
    """Refuse x op y, before it runs, if its predicted size passes ``SIZE_BUDGET``.

    x, and y unless it is the exponent of a power, are coefficient
    collections from the grammar's adapter: (numerator, denominator) of
    an element of k(x), or (terms, ()) of a sparse MPoly.  A value takes
    len(numerator), at least 1, plus len(denominator) slots.  A slot
    costs slot_bits, p's bit length, over GF(p), where only lengths are
    read, and over Q, where slot_bits is 0, the ``_height``, at least 8.
    The prediction bounds the result before any gcd cancels, and for an
    MPoly, whose products cost per pair of terms, the pairs of its
    largest product.  Returns the predicted slots and height.
    """
    n, d = len(x[0]) or 1, len(x[1])
    if op == "^":
        e = abs(y)
        if sparse:
            # the product of a power's two halves has at least its terms
            n = _power_terms(n, e // 2) * _power_terms(n, e - e // 2)
        else:
            n, d = e * (n - 1) + 1, e * (d - 1) + 1
    else:
        n2, d2 = len(y[0]) or 1, len(y[1])
        if sparse:
            n = n * n2 if op == "*" else n + n2
        elif op == "*" or op == "/":
            # a quotient crosses the lengths, which leaves their sum alone
            n, d = n + n2 - 1, d + d2 - 1
        else:
            n, d = (n + d2 if n + d2 > n2 + d else n2 + d) - 1, d + d2 - 1
    # heights add under a product, and a sum of two cross products may carry
    h = 0 if slot_bits else (_height(*x) * abs(y) if op == "^"
                             else _height(*x) + _height(*y) + (op == "+" or op == "-"))
    bits = (n + d) * (slot_bits or max(h, 8))
    if bits > SIZE_BUDGET:
        shown = bits if bits < math.inf else f"more than {SIZE_BUDGET}"
        raise ValueError(f"a {_NAMES[op]} of {shown} bits exceeds the limit {SIZE_BUDGET}")
    return n + d, h


class _ExprParser:
    """Recursive-descent parser over an algebra adapter.

    The adapter provides constant(int), variable(name) and parts(value),
    the coefficient collections that ``_check_size`` reads, and its
    values support +, -, *, / and integer **.  Each + - * / ^ whose
    predicted size passes ``SIZE_BUDGET``, and parentheses nested deeper
    than ``MAX_NESTING``, raise ``ValueError`` before anything is
    expanded.  p is the characteristic; a sparse grammar (MPoly) has no
    division.  Over GF(p) the dense grammar predicts at most 2B + 2
    slots for any operation, B the ``_degree_bound`` of its tokens, so
    when that fits the budget no check can refuse and none runs; over Q,
    where a gcd can raise a height, and for MPoly, each one runs.  The
    grammar, over the token list that ``pos`` indexes:

        expr   := ["+" | "-"] term (("+" | "-") term)*
        term   := factor (("*" | "/") factor)*
        factor := "-"* (int | name | "(" expr ")") ["^" ["-"] int]

    The minus signs of a factor apply before its power, so 2*-x^2 is
    2*x^2, while a leading minus of an expr negates its whole first term.
    """

    def __init__(self, text: str, constant, variable, parts, p: int, sparse=False):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.constant = constant
        self.variable = variable
        self.parts = parts
        self.slot_bits = p.bit_length()
        self.sparse = sparse
        self.checked = (sparse or not p
                        or (2 * _degree_bound(self.tokens) + 2) * self.slot_bits > SIZE_BUDGET)

    def parse(self):
        v = self.expr()
        if self.tokens[self.pos][0] != "end":
            raise ValueError(f"trailing input at token {self.pos}")
        return v

    def expr(self):
        tokens = self.tokens
        sign = tokens[self.pos][0]
        if sign == "-" or sign == "+":
            self.pos += 1
        v = self.term()
        if sign == "-":
            v = -v
        while (op := tokens[self.pos][0]) == "+" or op == "-":
            self.pos += 1
            rhs = self.term()
            if self.checked:
                _check_size(op, self.parts(v), self.parts(rhs), self.slot_bits, self.sparse)
            v = v + rhs if op == "+" else v - rhs
        return v

    def term(self):
        tokens = self.tokens
        v = self.factor()
        while (op := tokens[self.pos][0]) == "*" or op == "/":
            self.pos += 1
            # the right operand is parsed, and may raise, before the check
            rhs = self.factor()
            if op == "/" and self.sparse:
                raise ValueError("division not allowed in this context")
            if self.checked:
                _check_size(op, self.parts(v), self.parts(rhs), self.slot_bits, self.sparse)
            v = v * rhs if op == "*" else v / rhs
        return v

    def factor(self):
        tokens, pos = self.tokens, self.pos
        negate = False
        while tokens[pos][0] == "-":
            negate = not negate
            pos += 1
        kind, val = tokens[pos]
        self.pos = pos + 1
        if kind == "int":
            v = self.constant(val)
        elif kind == "name":
            v = self.variable(val)
        elif kind == "(":
            if self.depth == MAX_NESTING:
                raise ValueError(f"parentheses nested deeper than the limit {MAX_NESTING}")
            self.depth += 1
            v = self.expr()
            self.depth -= 1
            if tokens[self.pos][0] != ")":
                raise ValueError("missing closing parenthesis")
            self.pos += 1
        else:
            raise ValueError(f"unexpected token {kind!r}")
        if negate:
            v = -v
        if tokens[self.pos][0] != "^":
            return v
        pos = self.pos + 1
        neg = tokens[pos][0] == "-"
        if neg:
            pos += 1
        kind, val = tokens[pos]
        self.pos = pos + 1
        if kind != "int":
            raise ValueError("exponent must be an integer")
        val = -val if neg else val
        if self.checked:
            _check_size("^", self.parts(v), val, self.slot_bits, self.sparse)
        return v ** val


def parse_rational(field: FunctionField, text: str) -> RationalFunction:
    """Parse the CLI/config grammar into k(x); the variable must be x."""
    # a bare decimal integer has nothing for the grammar to check
    if text.strip().isdecimal():
        return field.from_int(int(text))

    def variable(name):
        if name != "x":
            raise ValueError(f"unknown variable {name!r}; expected 'x'")
        return field.x

    parts = attrgetter("num.coeffs", "den.coeffs")
    return _ExprParser(text, field.from_int, variable, parts, field.characteristic).parse()


def format_poly(p: Poly, var: str = "x") -> str:
    if p.is_zero():
        return "0"
    parts = []
    for i in range(p.degree, -1, -1):
        c = p[i]
        if not c:
            continue
        if isinstance(c, Fraction) and c.denominator != 1:
            cstr = f"{c.numerator}/{c.denominator}"
            wrap = True
        else:
            cstr = str(c)
            wrap = False
        if i == 0:
            term = f"({cstr})" if wrap else cstr
        else:
            xpow = var if i == 1 else f"{var}^{i}"
            if cstr == "1":
                term = xpow
            elif cstr == "-1":
                term = f"-{xpow}"
            else:
                term = f"({cstr})*{xpow}" if wrap else f"{cstr}*{xpow}"
        parts.append(term)
    out = parts[0]
    for term in parts[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


def format_rational(f: RationalFunction, var: str = "x") -> str:
    """Canonical printer; round-trips through parse_rational."""
    num = format_poly(f.num, var)
    if f.den.degree == 0:
        return num
    den = format_poly(f.den, var)
    num_wrapped = f"({num})" if (" " in num or num.startswith("-")) else num
    return f"{num_wrapped}/({den})"

"""Dense univariate polynomials over an exact field.

Coefficient lists are stored low degree first with no trailing zeros;
the zero polynomial has an empty list.  All operations are exact and
work over any field object from :mod:`dpglue.fields` (including function
fields, which makes towers like K(x)[t] available for free).  The
schoolbook product and long division are written once each, as
``_product`` and ``_reduce`` over plain lists: of the coefficients over
Q and k(x), of int residues over one GF(p) field object (each result
coefficient looked up in its ``table`` once), and of integers in
Zassenhaus's recombination.

``squarefree`` splits a polynomial by multiplicity into pairwise coprime
square-free pieces without factoring.  ``factor`` splits those pieces
into irreducibles: over GF(p) by distinct-degree factorisation and
Cantor-Zassenhaus, over Q by Zassenhaus's algorithm, which factors mod
a small prime, Hensel-lifts the factors and recombines them, at any
cost: a report predicts it first (``glue.naming_cost``).
"""

from __future__ import annotations

import random
from fractions import Fraction

from dpglue.fields import GF, FpElement, PrimeField, RationalField, is_prime


def _is_element(v) -> bool:
    return isinstance(v, (Fraction, FpElement)) or type(v).__name__ == "RationalFunction"


def _cut(cs: list) -> list:
    """cs with its trailing zeros cut off, in place."""
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _product(a: list, b: list, zero=0) -> list:
    """The schoolbook product of two nonempty lists; zero is their entries' zero."""
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _reduce(r: list, b: list, m: int, inv, q=None) -> list:
    """The remainder of r modulo b, computed in place in r.

    inv is the inverse of b's leading coefficient, so each step of the
    division multiplies by it and divides nothing (Knuth, TAOCP 2,
    4.6.1).  With m = p the entries are ints: b's lie in [0, p), r's may
    be any ints, and they are taken mod p only where a step reads them
    and once at the end, so the remainder comes back in [0, p).  With
    m = 0 they are field elements, or integers when b is monic and
    inv = 1.  The quotient's coefficients go into q, if given.
    """
    n = len(b) - 1
    low = b[:n]
    for k in range(len(r) - 1 - n, -1, -1):
        c = r[k + n] % m if m else r[k + n]
        if c:
            c = c * inv % m if m else c * inv
            if q is not None:
                q[k] = c
            for j, y in enumerate(low, k):
                r[j] -= c * y
    del r[n:]
    return _cut([v % m for v in r] if m else r)


class Poly:
    """A polynomial with its coefficients low degree first.

    ``coeffs`` has no trailing zero, the zero polynomial has ``[]``, and
    no code mutates it after construction.  ``__init__`` copies and
    cuts any list; the operators build each result once, by
    ``_trusted``, where its leading coefficient is known to be nonzero.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = _cut(list(coeffs))

    # -- constructors -------------------------------------------------

    @classmethod
    def _trusted(cls, field, coeffs: list) -> "Poly":
        """Trusted constructor: coeffs has no trailing zero, and nothing mutates it."""
        p = object.__new__(cls)
        p.field = field
        p.coeffs = coeffs
        return p

    @classmethod
    def zero(cls, field) -> "Poly":
        return cls(field, [])

    @classmethod
    def one(cls, field) -> "Poly":
        return cls(field, [field.one])

    @classmethod
    def x(cls, field) -> "Poly":
        return cls(field, [field.zero, field.one])

    @classmethod
    def const(cls, field, c) -> "Poly":
        return cls(field, [c])

    @classmethod
    def from_ints(cls, field, ints) -> "Poly":
        return cls(field, [field.from_int(n) for n in ints])

    # -- basic queries ------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def leading(self):
        if not self.coeffs:
            return self.field.zero
        return self.coeffs[-1]

    def __getitem__(self, i: int):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.field.zero

    # -- arithmetic ---------------------------------------------------
    # A sum of unequal lengths, a product, a negation and a quotient keep
    # a nonzero leading coefficient; only equal-length sums and
    # differences and remainders are cut.  Over one GF(p) field object
    # each operation turns to int residues at its boundary: ``.value``
    # in, ``table[v % p]`` out.  +, - and ``scale`` keep their own
    # one-line residue comprehensions, which the ``stalk`` bench pays for.

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, int):
            return Poly.const(self.field, self.field.from_int(other))
        if _is_element(other):
            return Poly.const(self.field, other)
        return None

    def __add__(self, other):
        if other.__class__ is not Poly:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        field = self.field
        table = field.table
        if table is not None and other.field is field:
            p = field.p
            out = [table[(x.value + y.value) % p] for x, y in zip(a, b)]
        else:
            out = [x + y for x, y in zip(a, b)]
        if len(a) > len(b):
            return Poly._trusted(field, out + a[len(b):])
        return Poly._trusted(field, _cut(out))

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not Poly:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b = self.coeffs, other.coeffs
        table = self.field.table
        if table is not None and other.field is self.field:
            # x - y lies in (-p, p), and table[-v] is the element p - v
            out = [table[x.value - y.value] for x, y in zip(a, b)]
        else:
            out = [x - y for x, y in zip(a, b)]
        if len(a) > len(b):
            return Poly._trusted(self.field, out + a[len(b):])
        if len(a) < len(b):
            return Poly._trusted(self.field, out + [-y for y in b[len(a):]])
        return Poly._trusted(self.field, _cut(out))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return Poly._trusted(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        if other.__class__ is not Poly:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly._trusted(self.field, [])
        # a constant factor only scales; by 1 the product is the other
        # factor itself, which is safe as nothing mutates a Poly
        if len(b) == 1:
            c = b[0]
            return self if c == self.field.one else self.scale(c)
        if len(a) == 1:
            c = a[0]
            return other if c == self.field.one else other.scale(c)
        field = self.field
        table = field.table
        if table is not None and other.field is field:
            # int products summed, and each sum looked up once
            p = field.p
            out = _product([x.value for x in a], [y.value for y in b])
            return Poly._trusted(field, [table[v % p] for v in out])
        return Poly._trusted(field, _product(a, b, field.zero))

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        if not c:
            return Poly._trusted(self.field, [])
        table = self.field.table
        if table is not None and c.__class__ is FpElement and c.table is table:
            p, v = self.field.p, c.value
            return Poly._trusted(self.field, [table[v * x.value % p] for x in self.coeffs])
        return Poly._trusted(self.field, [c * a for a in self.coeffs])

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if not n:
            return Poly.one(self.field)
        a = self.coeffs
        if a and not any(a[:-1]):
            # c x^k: (c x^k)^n = c^n x^(kn), with no product
            field = self.field
            return Poly._trusted(field, [field.zero] * ((len(a) - 1) * n) + [a[-1] ** n])
        # left to right over the bits of n: one squaring per bit after the
        # leading one, and one product by self per further set bit
        result = self
        for bit in bin(n)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def __divmod__(self, other):
        if other.__class__ is not Poly:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        if not other.coeffs:
            raise ZeroDivisionError("polynomial division by zero")
        a, b = self.coeffs, other.coeffs
        field = self.field
        if len(a) < len(b):
            return Poly._trusted(field, []), self
        inv = field.one / b[-1]
        if len(b) == 1:
            return (self if inv == field.one else self.scale(inv)), Poly._trusted(field, [])
        table = field.table
        if table is not None and other.field is field:
            q = [0] * (len(a) - len(b) + 1)
            r = _reduce([x.value for x in a], [y.value for y in b], field.p, inv.value, q)
            return (Poly._trusted(field, [table[v] for v in q]),
                    Poly._trusted(field, [table[v] for v in r]))
        q = [field.zero] * (len(a) - len(b) + 1)
        r = _reduce(list(a), b, 0, inv, q)
        return Poly._trusted(field, q), Poly._trusted(field, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __eq__(self, other):
        if other.__class__ is not Poly:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.degree, tuple(str(c) for c in self.coeffs)))

    # -- calculus and helpers ----------------------------------------

    def derivative(self) -> "Poly":
        return Poly(
            self.field,
            [self.coeffs[i] * self.field.from_int(i) for i in range(1, len(self.coeffs))],
        )

    def monic(self) -> "Poly":
        if not self.coeffs or self.coeffs[-1] == self.field.one:
            return self
        return self.scale(self.field.one / self.coeffs[-1])

    def gcd(self, other: "Poly") -> "Poly":
        """The monic gcd; Euclid's algorithm on remainders alone."""
        field = self.field
        table, one = field.table, field.one
        if table is not None and other.field is field:
            # the whole loop on residues, converted once each way
            m = field.p
            a, b = [x.value for x in self.coeffs], [y.value for y in other.coeffs]
        else:
            m, a, b = 0, list(self.coeffs), list(other.coeffs)
        while len(b) > 1:  # a and b are lists of our own, which _reduce overwrites
            a, b = b, _reduce(a, b, m, pow(b[-1], -1, m) if m else one / b[-1])
        if b:  # a nonzero constant: the gcd is 1
            return Poly._trusted(field, [one])
        if not m:
            return Poly._trusted(field, a).monic()
        if not a:
            return Poly._trusted(field, [])
        inv = pow(a[-1], -1, m)
        return Poly._trusted(field, [table[v * inv % m] for v in a])

    def valuation(self, p: "Poly") -> int:
        """Multiplicity of the irreducible factor p; self must be nonzero."""
        if self.is_zero():
            raise ValueError("valuation of zero polynomial")
        if p.degree < 1:
            # every division by a nonzero constant is exact
            raise ValueError("valuation at a constant")
        field = self.field
        inv = field.one / p.coeffs[-1]
        if field.table is not None and p.field is field:
            # the loop on residues, converted once, as in ``gcd``
            a, b, zero = [x.value for x in self.coeffs], [y.value for y in p.coeffs], 0
            m, inv = field.p, inv.value
        else:
            a, b, zero, m = list(self.coeffs), p.coeffs, field.zero, 0
        count = 0
        while len(a) >= len(b):  # a's top is nonzero, and so is each quotient's
            q = [zero] * (len(a) - len(b) + 1)
            if _reduce(a, b, m, inv, q):
                return count
            a, count = q, count + 1
        return count

    def shift(self, k: int) -> "Poly":
        """Multiply by x^k (k >= 0)."""
        return Poly(self.field, [self.field.zero] * k + self.coeffs)

    def reverse(self, degree: int | None = None) -> "Poly":
        """Reverse coefficients up to the given degree (default: own degree)."""
        d = self.degree if degree is None else degree
        return Poly(self.field, [self[d - i] for i in range(d + 1)])

    def pth_root(self) -> "Poly":
        """g with g^p = self in characteristic p; ArithmeticError if none."""
        p = self.field.characteristic
        if p == 0:
            raise ArithmeticError("characteristic zero field has no Frobenius")
        coeffs = [self.field.zero] * (self.degree // p + 1)
        for i, c in enumerate(self.coeffs):
            if c:
                if i % p:
                    raise ArithmeticError("not a p-th power")
                coeffs[i // p] = self.field.pth_root(c)
        return Poly(self.field, coeffs)

    # -- square-free decomposition and factoring ---------------------

    def squarefree(self) -> list:
        """[(piece, m), ...] with self = leading * prod piece^m.

        The pieces are monic, square-free and pairwise coprime; piece m
        is the product of the irreducible factors of multiplicity m.
        The multiplicities prime to p come first, ascending, then the
        multiples of p in the order the p-th root's pieces come.  Yun's
        loop runs on w = f/c and f'/c, c = gcd(f, f'), whose degrees the
        radical bounds; its step m takes the factors of multiplicity
        m mod p (Modern Computer Algebra, 14.6).  If some multiplicity
        reaches p, c over each piece to the m - 1 is a p-th power, and
        its root's pieces are merged in.  No factoring.
        """
        if self.is_zero():
            raise ValueError("cannot factor zero")
        f = self.monic()
        p = self.field.characteristic
        d = f.derivative()
        if not d:
            # a constant, or a p-th power in characteristic p
            if f.degree == 0:
                return []
            return [(g, m * p) for g, m in f.pth_root().squarefree()]
        c = f.gcd(d)
        w, y = f // c, d // c
        pieces, m, covered = [], 1, 0
        while w.degree > 0:
            z = y - w.derivative()
            g = w.gcd(z)
            if g.degree > 0:
                pieces.append((g, m))
                covered += m * g.degree
                w, z = w // g, z // g
            y, m = z, m + 1
        if covered == f.degree:
            return pieces
        # a factor of multiplicity m + kp lies in piece m and in the root's piece k
        for g, m in pieces:
            c = c // g ** (m - 1)
        merged, multiples = [], []
        for h, k in c.pth_root().squarefree():
            for i, (g, m) in enumerate(pieces):
                common = g.gcd(h)
                if common.degree > 0:
                    merged.append((common, m + k * p))
                    pieces[i], h = (g // common, m), h // common
            if h.degree > 0:
                multiples.append((h, k * p))
        merged += [(g, m) for g, m in pieces if g.degree > 0]
        return sorted(merged, key=lambda piece: piece[1]) + multiples

    def factor(self):
        """Factor into monic irreducibles; returns (unit, [(factor, mult)]).

        Splits each square-free piece over GF(p) and QQ completely, at any
        cost, and elsewhere only a linear one; ValueError at zero.
        """
        factors = [(g, m) for piece, m in self.squarefree()
                   for g in split_squarefree(piece)]
        factors.sort(key=lambda fm: (fm[0].degree, [str(c) for c in fm[0].coeffs]))
        return self.leading(), factors

    def is_irreducible(self) -> bool:
        """True iff ``factor`` would return this polynomial, made monic, once.

        A polynomial of degree 1 is irreducible over any field.  Over
        GF(p) with no factoring: f is square-free, and distinct-degree
        factorisation finds no factor of degree below deg f.  Over Q, f
        is first scaled to a monic F in Z[x], as ``_split_rational`` does;
        a factorisation of F over Q is one into monic integer factors
        (Gauss), which would survive reduction mod any prime.  So F
        square-free and irreducible mod one of ``CERTIFICATE_PRIMES``
        certifies f, and otherwise f is factored, so the answer stays
        exact.
        """
        if self.degree <= 1:
            return self.degree == 1
        f = self.monic()
        if isinstance(self.field, PrimeField):
            return _irreducible_mod_p(f)
        if isinstance(self.field, RationalField):
            F = _monic_integer(f)[1]
            for q in CERTIFICATE_PRIMES:
                if _irreducible_mod_p(Poly.from_ints(GF(q), F)):
                    return True
        return self.factor()[1] == [(f, 1)]


def _irreducible_mod_p(f: Poly) -> bool:
    """Whether a monic f over GF(p) is square-free with no factor of lower degree."""
    return f.gcd(f.derivative()).degree == 0 and _distinct_degree(f) == [(f, f.degree)]


# The primes that ``Poly.is_irreducible`` tries for a certificate over Q.
# An irreducible f stays irreducible mod q for about 1/deg f of the primes
# (Chebotarev, for the full symmetric group); x^4 - 10x^2 + 1 splits mod
# every prime, and is factored.
CERTIFICATE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def _monic_integer(f: Poly) -> tuple:
    """(L, F) for a monic f over Q: L the lcm of its denominators, and the
    integer coefficients, low degree first, of the monic F(y) = L^n f(y/L)."""
    from math import lcm

    n = f.degree
    L = lcm(*(c.denominator for c in f.coeffs))
    return L, [int(c * L ** (n - i)) for i, c in enumerate(f.coeffs)]


def split_squarefree(f: Poly) -> list:
    """The monic irreducible factors of a monic square-free f."""
    if f.degree == 1:
        return [f]
    if isinstance(f.field, PrimeField):
        # the factors are unique, so the seed decides no output
        rng = random.Random(0)
        return [g for h, d in _distinct_degree(f) for g in _equal_degree(h, d, rng)]
    if isinstance(f.field, RationalField):
        return _split_rational(f)
    raise NotImplementedError("factoring only over QQ and GF(p)")


def _inverse_mod(a: Poly, f: Poly) -> Poly:
    """a^-1 mod f for a coprime to f, by one extended Euclidean pass.

    Only the cofactor of a is carried: s_i a = r_i mod f for each
    remainder r_i, down to a nonzero constant (Modern Computer Algebra, 3.2).
    """
    r0, r1 = f, a % f
    s0, s1 = Poly.zero(f.field), Poly.one(f.field)
    while r1.degree > 0:
        q, r = divmod(r0, r1)
        r0, r1, s0, s1 = r1, r, s1, s0 - q * s1
    if not r1:
        raise ZeroDivisionError("not invertible modulo f")
    return s1.scale(f.field.one / r1.leading())


def _power_mod(a: Poly, n: int, f: Poly) -> Poly:
    """a^n mod f by repeated squaring."""
    result = Poly.one(f.field)
    a = a % f
    while n:
        if n & 1:
            result = result * a % f
        a = a * a % f
        n >>= 1
    return result


def _distinct_degree(f: Poly) -> list:
    """[(h, d), ...]: h is the product of the degree-d factors of f.

    f is monic and square-free over GF(p); the factors of degree d
    divide x^(p^d) - x (Modern Computer Algebra, 14.2).
    """
    x = Poly.x(f.field)
    h, d, out = x, 0, []
    while f.degree >= 2 * (d + 1):
        d += 1
        h = _power_mod(h, f.field.p, f)
        g = f.gcd(h - x)
        if g.degree > 0:
            out.append((g, d))
            f = f // g
            h = h % f
    if f.degree > 0:
        # no factor of degree <= deg f / 2 is left, so f is irreducible
        out.append((f, f.degree))
    return out


def _equal_degree(f: Poly, d: int, rng) -> list:
    """The factors of f, a monic square-free product of degree-d irreducibles.

    Cantor-Zassenhaus (Modern Computer Algebra, 14.3): for random a,
    gcd(f, a^((p^d-1)/2) - 1) splits f with probability about 1/2; at
    p = 2 the trace a + a^2 + ... + a^(2^(d-1)) does the same.
    """
    if f.degree == d:
        return [f]
    field = f.field
    p = field.p
    while True:
        a = Poly(field, [field.from_int(rng.randrange(p)) for _ in range(f.degree)])
        if p == 2:
            b, t = a, a
            for _ in range(d - 1):
                t = t * t % f
                b = b + t
        else:
            b = _power_mod(a, (p**d - 1) // 2, f) - 1
        g = f.gcd(b)
        if 0 < g.degree < f.degree:
            return _equal_degree(g, d, rng) + _equal_degree(f // g, d, rng)


def _split_rational(f: Poly) -> list:
    """Irreducible factors over QQ of a monic square-free f of degree >= 2.

    Zassenhaus (Modern Computer Algebra, 15.4-15.6): F(y) = L^n f(y/L),
    L the lcm of the denominators, is monic in Z[y], and its factor G
    gives G(Lx)/L^deg G.  F = prod g_i mod the least prime q that keeps
    it square-free; as sum a_i F/g_i = 1 mod q for a_i = (F/g_i)^-1 mod
    g_i, each linear Hensel step adds error * a_i mod g_i to g_i, up to
    q^k > 2 * 2^n |F|_2 (Mignotte); each a_i takes one extended
    Euclidean pass.  Subsets of the lifted g_i, smallest first, are
    tried by the constant term, then by exact division.
    """
    from functools import reduce
    from itertools import combinations, count
    from math import isqrt, prod

    L, F = _monic_integer(f)
    for q in filter(is_prime, count(2)):
        image = Poly.from_ints(GF(q), F)
        if image.gcd(image.derivative()).degree == 0:
            break
    gs = split_squarefree(image)
    if len(gs) == 1:
        return [f]
    inverses = [_inverse_mod(image // g, g) for g in gs]
    lifted = [[c.value for c in g.coeffs] for g in gs]
    m, bound = q, 2 ** len(F) * (isqrt(sum(c * c for c in F)) + 1)
    while m <= bound:
        product = reduce(_product, lifted)
        error = Poly(image.field, [image.field.from_int((a - b) // m)
                                   for a, b in zip(F, product)])
        for g, a, g_q in zip(lifted, inverses, gs):
            for i, c in enumerate((error * a % g_q).coeffs):
                g[i] += m * c.value
        m *= q

    def symmetric(c):
        return (c + m // 2) % m - m // 2

    # a subset that failed stays a failure once factors leave F, so the
    # search goes on from where it found one (Modern Computer Algebra, 15.22)
    found, used, s = [], set(), 1
    while 2 * s <= len(lifted) - len(used):
        for subset in combinations(range(len(lifted)), s):
            if used.intersection(subset):
                continue
            c0 = symmetric(prod(lifted[i][0] for i in subset))
            # a true factor's constant term divides F's, which is 0 if x | f
            if (F[0] % c0 if c0 else F[0]) != 0:
                continue
            G = [symmetric(c) for c in reduce(_product, [lifted[i] for i in subset])]
            rest = [0] * (len(F) - len(G) + 1)
            if not _reduce(list(F), G, 0, 1, rest):  # G is monic, so rest is F / G
                found.append(G)
                F = rest
                used.update(subset)
                if 2 * s > len(lifted) - len(used):
                    break
        s += 1
    return [Poly(f.field, [Fraction(c, L ** (len(G) - 1 - i)) for i, c in enumerate(G)])
            for G in found + [F]]

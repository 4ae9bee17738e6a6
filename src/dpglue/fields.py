"""Exact coefficient fields: the rationals and prime fields GF(p).

Field objects are lightweight descriptors handing out elements that
support +, -, *, /, ==, bool.  Rational arithmetic is delegated to
``fractions.Fraction``.  GF(p) elements wrap an int mod p, and every
GF(p) hands them out through its ``table``: ``table[v]`` is the element
v mod p.  Below ``SHARED_BELOW`` the table is the list of the p
elements, each built once and shared; above it, an indexer that
allocates.  The rationals have no table.
Function fields k(x) live in :mod:`dpglue.rational` and follow the same
protocol, so generic linear algebra works over any of them.
"""

from __future__ import annotations

from fractions import Fraction


# Miller-Rabin with the first 13 prime bases decides primality exactly
# below PRIME_LIMIT, the least strong pseudoprime to all of them
# (Sorenson and Webster, Math. Comp. 86, 2017).  The first 12 bases
# alone are fooled by 318665857834031151167461.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality for n < PRIME_LIMIT; raises ValueError at or above it."""
    if n >= PRIME_LIMIT:
        raise ValueError(
            f"{n} is too large: primality is decided only below {PRIME_LIMIT}"
        )
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# GF(p) below this bound builds each of its p elements once, and all
# arithmetic hands out those shared objects; at p = 1021 the list takes
# about 89 KiB.  Above it elements are allocated, as a list would cost
# memory linear in p.
SHARED_BELOW = 2**10


class _Allocator:
    """The ``table`` of GF(p) for p >= ``SHARED_BELOW``: ``t[v]`` allocates v mod p."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        self.p = p

    def __getitem__(self, v: int) -> "FpElement":
        return FpElement(v, self.p, self)


class FpElement:
    """Element of GF(p), normalized to 0 <= value < p.

    ``table`` is its field's table (see ``PrimeField``), through which
    every result is handed out.
    """

    __slots__ = ("value", "p", "table")

    def __init__(self, value: int, p: int, table):
        self.value = value % p
        self.p = p
        self.table = table

    def _other(self, other):
        """The value of a same-field element or an int; None otherwise."""
        if other.__class__ is FpElement:
            if other.p != self.p:
                raise ValueError("mixed characteristics")
            return other.value
        if isinstance(other, int):
            return other
        return None

    def __add__(self, other):
        if other.__class__ is FpElement and other.p == self.p:
            v = self.value + other.value
        else:
            v = self._other(other)
            if v is None:
                return NotImplemented
            v += self.value
        return self.table[v % self.p]

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is FpElement and other.p == self.p:
            v = self.value - other.value
        else:
            v = self._other(other)
            if v is None:
                return NotImplemented
            v = self.value - v
        return self.table[v % self.p]

    def __rsub__(self, other):
        v = self._other(other)
        if v is None:
            return NotImplemented
        return self.table[(v - self.value) % self.p]

    def __mul__(self, other):
        if other.__class__ is FpElement and other.p == self.p:
            v = self.value * other.value
        else:
            v = self._other(other)
            if v is None:
                return NotImplemented
            v *= self.value
        return self.table[v % self.p]

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is FpElement and other.p == self.p:
            d = other.value
        else:
            d = self._other(other)
            if d is None:
                return NotImplemented
            d %= self.p
        if not d:
            raise ZeroDivisionError("division by zero in GF(p)")
        v = self.value * pow(d, -1, self.p)
        return self.table[v % self.p]

    def __rtruediv__(self, other):
        v = self._other(other)
        if v is None:
            return NotImplemented
        return self.table[v % self.p] / self

    def __neg__(self):
        # table[-v] is the element p - v, and table[-0] is table[0]
        return self.table[-self.value]

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** -n
        return self.table[pow(self.value, n, self.p)]

    def inverse(self):
        if not self.value:
            raise ZeroDivisionError("division by zero in GF(p)")
        return self.table[pow(self.value, -1, self.p)]

    def __eq__(self, other):
        if other.__class__ is FpElement:
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.p))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return str(self.value)


class RationalField:
    """The field of rational numbers; elements are ``Fraction``s."""

    characteristic = 0
    table = None
    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def pth_root(self, e):
        raise ArithmeticError("characteristic zero field has no Frobenius")

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """GF(p) for prime p, handing out its elements through ``table``.

    ``table[v]`` is the element v mod p for v in (-p, p), so that code
    holding ints mod p hands out elements with no arithmetic on them.
    Below ``SHARED_BELOW`` it is the list of the p elements, built once
    and shared; at or above it, an indexer that allocates.
    """

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        if p < SHARED_BELOW:
            table: list = []
            table.extend(FpElement(v, p, table) for v in range(p))
        else:
            table = _Allocator(p)
        self.table, self.zero, self.one = table, table[0], table[1]

    def from_int(self, n: int) -> FpElement:
        return self.table[n % self.p]

    def pth_root(self, e: FpElement) -> FpElement:
        # Frobenius is the identity on the prime field.
        return e

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()

_gf_cache: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]


def base_field(characteristic: int):
    """The coefficient field for a given characteristic (0 or prime)."""
    if characteristic == 0:
        return QQ
    return GF(characteristic)

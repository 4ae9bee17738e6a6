"""Exact coefficient fields: the rationals and prime fields GF(p).

Field objects are lightweight descriptors handing out elements that
support +, -, *, /, ==, bool.  Rational arithmetic is delegated to
``fractions.Fraction``.  GF(p) elements wrap an int mod p; below
``SHARED_BELOW`` the field builds each of its p elements once, keeps
them as its ``table``, and arithmetic returns those shared objects
instead of allocating; every other field's ``table`` is None.
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
# arithmetic hands out those shared objects; at p = 1021 the table takes
# about 89 KiB.  Above it elements are allocated, as a table would cost
# memory linear in p.
SHARED_BELOW = 2**10


class FpElement:
    """Element of GF(p), normalized to 0 <= value < p.

    ``table`` is the list of all p elements when p < ``SHARED_BELOW``
    (see ``PrimeField``), and None otherwise.
    """

    __slots__ = ("value", "p", "table")

    def __init__(self, value: int, p: int, table=None):
        self.value = value % p
        self.p = p
        self.table = table

    def _make(self, v: int) -> "FpElement":
        t = self.table
        return t[v % self.p] if t is not None else FpElement(v, self.p)

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
        t = self.table
        return t[v % self.p] if t is not None else FpElement(v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is FpElement and other.p == self.p:
            v = self.value - other.value
        else:
            v = self._other(other)
            if v is None:
                return NotImplemented
            v = self.value - v
        t = self.table
        return t[v % self.p] if t is not None else FpElement(v, self.p)

    def __rsub__(self, other):
        v = self._other(other)
        if v is None:
            return NotImplemented
        return self._make(v - self.value)

    def __mul__(self, other):
        if other.__class__ is FpElement and other.p == self.p:
            v = self.value * other.value
        else:
            v = self._other(other)
            if v is None:
                return NotImplemented
            v *= self.value
        t = self.table
        return t[v % self.p] if t is not None else FpElement(v, self.p)

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
        t = self.table
        return t[v % self.p] if t is not None else FpElement(v, self.p)

    def __rtruediv__(self, other):
        v = self._other(other)
        if v is None:
            return NotImplemented
        return self._make(v) / self

    def __neg__(self):
        # t[-v] is t[p - v], and t[-0] is t[0]
        t = self.table
        return t[-self.value] if t is not None else FpElement(-self.value, self.p)

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** -n
        return self._make(pow(self.value, n, self.p))

    def inverse(self):
        if not self.value:
            raise ZeroDivisionError("division by zero in GF(p)")
        return self._make(pow(self.value, -1, self.p))

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
    """GF(p) for prime p; below ``SHARED_BELOW`` it builds its p elements once.

    ``table`` is then the list of them, ``table[v]`` the element v mod p,
    so that code holding ints mod p can hand out the shared elements;
    at or above ``SHARED_BELOW`` it is None.
    """

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        if p < SHARED_BELOW:
            table: list = []
            table.extend(FpElement(v, p, table) for v in range(p))
            self.zero, self.one = table[0], table[1]
        else:
            table = None
            self.zero, self.one = FpElement(0, p), FpElement(1, p)
        self.table = table

    def from_int(self, n: int) -> FpElement:
        return self.zero._make(n)

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

"""Exact coefficient fields: the rationals and prime fields GF(p).

Field objects are lightweight descriptors handing out elements that
support +, -, *, /, ==, bool.  Rational arithmetic is delegated to
``fractions.Fraction``; GF(p) elements are a thin wrapper around ints.
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


class FpElement:
    """Element of GF(p), normalized to 0 <= value < p."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        self.value = value % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise ValueError("mixed characteristics")
            return other
        if isinstance(other, int):
            return FpElement(other, self.p)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpElement(self.value + o.value, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpElement(self.value - o.value, self.p)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpElement(o.value - self.value, self.p)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpElement(self.value * o.value, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.value == 0:
            raise ZeroDivisionError("division by zero in GF(p)")
        return FpElement(self.value * pow(o.value, self.p - 2, self.p), self.p)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return FpElement(-self.value, self.p)

    def __pow__(self, n: int):
        if n < 0:
            return (self.__pow__(-n)).inverse()
        return FpElement(pow(self.value, n, self.p), self.p)

    def inverse(self):
        return FpElement(1, self.p) / self

    def __eq__(self, other):
        if isinstance(other, int):
            return self.value == other % self.p
        if isinstance(other, FpElement):
            return self.p == other.p and self.value == other.value
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
    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def random(self, rng) -> Fraction:
        return Fraction(rng.randint(-5, 5), rng.choice([1, 1, 1, 2, 3]))

    def pth_root(self, e):
        raise ArithmeticError("characteristic zero field has no Frobenius")

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """GF(p) for prime p."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.zero = FpElement(0, p)
        self.one = FpElement(1, p)

    def from_int(self, n: int) -> FpElement:
        return FpElement(n, self.p)

    def random(self, rng) -> FpElement:
        return FpElement(rng.randrange(self.p), self.p)

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

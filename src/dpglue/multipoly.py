"""Sparse multivariate polynomials for identity checking.

Just enough arithmetic to expand and compare the explicit hypersurface
parametrizations: no factorization, no division, no Groebner bases.
Terms are stored as a dict from exponent tuples to nonzero coefficients.
"""

from __future__ import annotations

from dpglue.rational import MAX_BITS, MAX_DEGREE, _coefficient_bits, _ExprParser

# Most term pairs one product may multiply.  A dense power such as
# (u+v+1)^8192 stays under MAX_DEGREE yet would take hours; the shipped
# models multiply at most 6 pairs at a time.
MAX_TERM_PAIRS = 2**16


class MPoly:
    __slots__ = ("field", "vars", "terms")

    def __init__(self, field, variables, terms=None):
        self.field = field
        self.vars = tuple(variables)
        cleaned = {}
        for exps, c in (terms or {}).items():
            if c:
                cleaned[tuple(exps)] = c
        self.terms = cleaned

    @classmethod
    def const(cls, field, variables, c) -> "MPoly":
        return cls(field, variables, {(0,) * len(tuple(variables)): c})

    @classmethod
    def var(cls, field, variables, name) -> "MPoly":
        variables = tuple(variables)
        idx = variables.index(name)
        exps = tuple(1 if i == idx else 0 for i in range(len(variables)))
        return cls(field, variables, {exps: field.one})

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(exps) for exps in self.terms), default=0)

    def __bool__(self):
        return bool(self.terms)

    def _coerce(self, other):
        if isinstance(other, MPoly):
            if other.vars != self.vars:
                raise ValueError("mixed variable sets")
            return other
        if isinstance(other, int):
            return MPoly.const(self.field, self.vars, self.field.from_int(other))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in o.terms.items():
            terms[e] = terms.get(e, self.field.zero) + c
        return MPoly(self.field, self.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.field, self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # refuse before multiplying, in the parser's words
        pairs = len(self.terms) * len(o.terms)
        if pairs > MAX_TERM_PAIRS:
            raise ValueError(f"a product of {pairs} term pairs exceeds the limit {MAX_TERM_PAIRS}")
        degree = self.degree() + o.degree()
        if degree > MAX_DEGREE:
            raise ValueError(f"a product of degree {degree} exceeds the limit {MAX_DEGREE}")
        if not self.field.characteristic:
            bits = _coefficient_bits(self.terms.values()) + _coefficient_bits(o.terms.values())
            if bits > MAX_BITS:
                raise ValueError(f"a product with numbers up to 2^{bits} exceeds "
                                 f"the limit 2^{MAX_BITS}")
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, self.field.zero) + c1 * c2
        return MPoly(self.field, self.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MPoly.const(self.field, self.vars, self.field.one)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            # no square past the last bit: it could pass the limits alone
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).is_zero()

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, reverse=True):
            c = self.terms[exps]
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(self.vars, exps)
                if e
            )
            if mono:
                parts.append(f"{c}*{mono}")
            else:
                parts.append(str(c))
        return " + ".join(parts)


def parse_mpoly(field, variables, text: str, variable=None) -> MPoly:
    """Parse text over ``variables``; ``variable(name)``, if given, reads each name."""
    variables = tuple(variables)

    def constant(n):
        return MPoly.const(field, variables, field.from_int(n))

    def own_variable(name):
        if name not in variables:
            raise ValueError(f"unknown variable {name!r}")
        return MPoly.var(field, variables, name)

    def coefficients(f):
        return f.terms.values()

    return _ExprParser(text, constant, variable or own_variable, MPoly.degree,
                       None if field.characteristic else coefficients,
                       allow_division=False).parse()

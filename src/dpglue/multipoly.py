"""Sparse multivariate polynomials for identity checking.

Just enough arithmetic to expand and compare the explicit hypersurface
parametrizations: no factorization, no division, no Groebner bases.
Terms are stored as a dict from exponent tuples to nonzero coefficients.
"""

from __future__ import annotations

from dpglue.rational import _ExprParser


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
            # no square past the last bit: the parser bounds the halves' product
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

    return _ExprParser(text, constant, variable or own_variable,
                       lambda f: (f.terms.values(), ()), field.characteristic,
                       sparse=True).parse()

"""Generic-stalk calculus for gluing data along a line.

The conductor ring at the generic point is O_C = prod k(x)[y_i]/(y_i^2)
and O_D is the kernel of the rational derivation

    Delta(a,b): f(x) + sum g_i(x) y_i  |->  a f' + sum b_i g_i.

Setting xi = x - (a/b_1) y_1 and eta_i = y_i - (b_i/b_1) y_1 makes O_C a
2r-dimensional algebra over k(xi) with O_D spanned by {1, eta_i}.  Since
y_i y_j = 0, every eta_i eta_j is 0: O_D is k(xi) plus a square-zero
ideal for every datum, so its table depends on (p, r) only and is built
once, in closed form.  The trace pairing, the pointwise Gorenstein
criterion, tameness scans, and the wild-cusp local rings all live here.

A datum's poles are computed once, in ``poles``: the pair (L, e) of the
monic lcm of the a/b_i denominators and the pole order at infinity,
which is all a verdict needs.  ``wild_places`` splits L square-free and
factors its pieces to name the places, which only reports do; it is
None when a piece over Q cannot be factored.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import NamedTuple

from dpglue.fields import base_field, is_prime
from dpglue.polynomials import Poly, split_squarefree
from dpglue.rational import (FunctionField, Place, RationalFunction, format_poly,
                             parse_rational)


class GenericGlueData:
    """Derivation datum (a, b) in characteristic p with r branches."""

    def __init__(self, characteristic: int, a: RationalFunction, b: tuple):
        if not b:
            raise ValueError("at least one branch required")
        for bi in b:
            if bi.is_zero():
                raise ValueError("every b_i must be nonzero")
        self.characteristic, self.a, self.b = characteristic, a, b

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.characteristic, self.a, self.b) == (other.characteristic, other.a, other.b)

    def __hash__(self):
        return hash((self.characteristic, self.a, self.b))

    def __repr__(self):
        return (f"GenericGlueData(characteristic={self.characteristic!r}, "
                f"a={self.a!r}, b={self.b!r})")

    @property
    def r(self) -> int:
        return len(self.b)

    @property
    def field(self) -> FunctionField:
        return _function_field(self.characteristic)

    @cached_property
    def c1(self) -> RationalFunction:
        """a/b_1, divided alone: the trace-kernel pair and the pointwise
        criterion read no other a/b_i, and ``poles`` reads each one off it."""
        return self.a / self.b[0]

    @cached_property
    def b_ratios(self) -> tuple:
        """(b_2/b_1, ..., b_r/b_1), each divided once."""
        b1 = self.b[0]
        return tuple(bi / b1 for bi in self.b[1:])

    @cached_property
    def poles(self) -> tuple:
        """(L, e): the monic lcm of the a/b_i denominators and the largest
        pole order of an a/b_i at infinity (0 when there is none).

        Every place of L is a pole of some a/b_i, of its multiplicity in
        L, so deg L + e is the degree of the pole divisor.  Each a/b_i is
        read as a/b_1 over the cached b_i/b_1: a constant ratio only
        scales a/b_1 and adds nothing, and a denominator equal to L so
        far takes no lcm step.
        """
        c = self.c1
        if not c:
            return Poly.one(self.field.base), 0
        den, at_infinity = c.den, max(0, c.num.degree - c.den.degree)
        for ratio in self.b_ratios:
            # a/b_i = (a/b_1)/(b_i/b_1), a scaling of a/b_1 when the ratio is constant
            if ratio.is_constant():
                continue
            ci = c / ratio
            if ci.den != den:
                den = den * (ci.den // den.gcd(ci.den))
            at_infinity = max(at_infinity, ci.num.degree - ci.den.degree)
        return den, at_infinity

    @cached_property
    def wild_places(self) -> tuple | None:
        """((Place, pole order), ...): ``poles`` named by factoring.

        L is split square-free once and each piece into irreducibles,
        with no second square-free pass, and infinity is appended with
        order e; each place appears once, sorted by place.  None when
        factoring a piece over Q gives up; no verdict needs the names.
        """
        den, at_infinity = self.poles
        try:
            wild = [(Place(g), order) for piece, order in den.squarefree()
                    for g in split_squarefree(piece)]
        except NotImplementedError:
            return None
        wild += [(Place.infinity(), at_infinity)] * (at_infinity > 0)
        return tuple(sorted(wild, key=lambda place_order: _place_key(place_order[0])))


@lru_cache
def _function_field(characteristic: int) -> FunctionField:
    """k(x) for one characteristic, shared so its constants are built once."""
    return FunctionField(base_field(characteristic))


def glue_data(characteristic: int, a, b) -> GenericGlueData:
    """Build GenericGlueData from strings/RationalFunctions."""
    ff = _function_field(characteristic)

    def conv(v):
        if isinstance(v, RationalFunction):
            return v
        if isinstance(v, int):
            return ff.from_int(v)
        return parse_rational(ff, v)

    return GenericGlueData(characteristic, conv(a), tuple(conv(bi) for bi in b))


class KernelElement(NamedTuple):
    """s(f,g) = sum (f_i + g_i y_i) s_i in per-branch coordinates."""

    f: list
    g: list


def delta(data: GenericGlueData, f: RationalFunction, g) -> RationalFunction:
    """The derivation Delta(a,b) applied to f + sum g_i y_i."""
    out = data.a * f.derivative()
    for bi, gi in zip(data.b, g):
        out = out + bi * gi
    return out


# -- the k(xi) engine -------------------------------------------------


@lru_cache
def conductor_ring(characteristic: int, r: int) -> ConductorRing:
    """O_C = prod k(xi)[y_i]/(y_i^2), built and verified once per (p, r).

    The filling layer's ring with r branches of multiplicity 2, so y_i
    is its nilpotent t_i and the basis order is e_1, y_1, e_2, y_2, ...
    The scalar field reuses the variable name x for xi.
    """
    # deferred: dpglue run never builds O_C, so it never loads filling
    from dpglue.filling import BranchSpec, build_conductor_ring

    return build_conductor_ring(_function_field(characteristic), [BranchSpec(2)] * r)


@lru_cache
def nilpotents_square_to_zero(characteristic: int, r: int) -> bool:
    """Whether y_i y_j = 0 in the cached O_C for all i <= j, checked once per (p, r).

    Then any two vectors with every e_i coordinate 0 multiply to 0.
    """
    ring = conductor_ring(characteristic, r)
    ys = [ring.nilpotent(i) for i in range(r)]
    return not any(any(ring.algebra.mul(y, z)) for i, y in enumerate(ys) for z in ys[i:])


def kernel_basis(data: GenericGlueData) -> list:
    """[1, eta_2, ..., eta_r] in the coordinates of the cached O_C."""
    ring = conductor_ring(data.characteristic, data.r)
    basis = [ring.algebra.unit]
    for i in range(1, data.r):
        eta = ring.nilpotent(i)
        eta[1] = -data.b_ratios[i - 1]
        basis.append(eta)
    return basis


@lru_cache
def kernel_algebra(characteristic: int, r: int) -> FiniteAlgebra:
    """O_D's table: k(xi) + k(xi)^(r-1) square-zero, verified once per (p, r)."""
    from dpglue.artinian import square_zero_algebra  # deferred: only the oracles need it

    return square_zero_algebra(_function_field(characteristic), r - 1)


def kxi_engine(data: GenericGlueData) -> Subalgebra:
    """O_D = span{1, eta_2, ..., eta_r} in the cached O_C, on a fixed table.

    y_i y_j = 0, so eta_i eta_j = 0 whatever b is, and the table is the
    cached ``kernel_algebra``.  The basis is checked with no elimination
    and no product: it starts with the unit, eta_i has coordinate 1 on
    y_i and 0 on the other y_j, j >= 2 (so it is independent), and
    eta_i lies in the y-span, which squares to 0 (checked once per
    (p, r) by ``nilpotents_square_to_zero``).
    """
    from dpglue.artinian import Subalgebra  # deferred: only the oracles need it

    p, r = data.characteristic, data.r
    OC, one = conductor_ring(p, r).algebra, data.field.one
    basis = kernel_basis(data)
    if basis[0] != OC.unit:
        raise AssertionError("the kernel basis does not start with the unit")
    etas = basis[1:]
    for i, eta in enumerate(etas, start=1):
        y = eta[3::2]  # the coordinates on y_2, ..., y_r
        if y[i - 1] != one or any(y[:i - 1]) or any(y[i:]):
            raise AssertionError(f"eta_{i + 1} is not triangular on y_2, ..., y_r")
    # the coordinates on e_1, ..., e_r are the even ones
    if not nilpotents_square_to_zero(p, r) or any(any(eta[0::2]) for eta in etas):
        raise AssertionError("the kernel basis is not closed under multiplication")
    return Subalgebra(OC, basis, kernel_algebra(p, r))


# -- trace kernel -----------------------------------------------------


def ker_trace_closed_form(data: GenericGlueData, s: KernelElement) -> bool:
    """Membership in ker Tr via f_i = (b_i/b_1) f_1 and (a f_1/b_1)' = -sum g_i.

    f_i = (b_i/b_1) f_1 is f_i/b_i = f_1/b_1, since every b_i is nonzero,
    with no division per branch: the ratios are the cached ``b_ratios``,
    and a/b_1 is the cached ``c1`` that ``change_of_basis`` reads too.
    """
    f1 = s.f[0]
    if any(fi != ratio * f1 for fi, ratio in zip(s.f[1:], data.b_ratios)):
        return False
    return (data.c1 * f1).derivative() == -sum(s.g, data.field.zero)


def change_of_basis(data: GenericGlueData, s: KernelElement):
    """Coefficients (F_i, G_i) of s in the xi-adapted dual basis s_i'.

    Works in the nilpotent pair model u + v y_1: substitute
    x_1 = xi + (a/b_1) y_1 and multiply by the Jacobian factor
    1 + (a/b_1)' y_1 on the first branch.  With c = a/b_1 that adds
    c f_1' + c' f_1 = (c f_1)' to g_1 (Leibniz): one derivative, of a
    product that cancels first, since every kernel member has c f_1 = H
    with H' = -sum g_i.
    """
    c, f1 = data.c1, s.f[0]
    # f(x_1) = f(xi) + c f'(xi) y_1, then times (1 + c' y_1)
    first = (f1, (c * f1).derivative() + s.g[0])
    return [first] + list(zip(s.f[1:], s.g[1:]))


def functional_vector(data: GenericGlueData, s: KernelElement):
    """s as a k(xi)-functional on O_C in the dual basis of {e_i, y_i}.

    Pairing of (u + v y_i) s_i' with U e_i + V y_i is u·V + v·U, so the
    coefficient on e_i* is v and on y_i* is u.
    """
    return [c for u, v in change_of_basis(data, s) for c in (v, u)]


def ker_trace_oracle(data: GenericGlueData, s: KernelElement) -> bool:
    """Evaluate the functional of s on the O_D basis and test vanishing.

    Each basis vector is read at its nonzero entries only: r of them in
    the unit, two in each eta_i.
    """
    vec, zero = functional_vector(data, s), data.field.zero
    return not any(sum((c * vec[k] for k, c in enumerate(row) if c), zero)
                   for row in kxi_engine(data).basis)


# -- pointwise Gorenstein criterion -----------------------------------


def gorenstein_at_point(data: GenericGlueData, place: Place) -> bool:
    """b_i/b_j units at P, and each a/b_i regular at P or (char p) with
    pole order divisible by p.

    Once every b_i/b_1 is a unit at P, v_P(a/b_i) = v_P(a/b_1) -
    v_P(b_i/b_1) = v_P(a/b_1), so the order of a/b_1 alone is read:
    r - 1 orders, and one more when a is nonzero.
    """
    for ratio in data.b_ratios:
        if ratio.order_at(place) != 0:
            return False
    c, p = data.c1, data.characteristic
    if not c:
        return True
    order = c.order_at(place)  # read once: a pole is order < 0
    return order >= 0 or (p != 0 and order % p == 0)


def gorenstein_at_point_oracle(data: GenericGlueData, place: Place) -> bool:
    """Search for a local generator of ker Tr at the place.

    Looks for a polynomial f_1 = sum c_i x^i (i < m deg P) that is a
    unit at P, with (a f_1/b_1)' regular there, and then asks every
    (b_i/b_1) f_1 to be a unit, which, f_1 being one, reads the order of
    b_i/b_1 alone; f_1 is solved for by linear algebra over the base
    field (``local_unit_witness``).  The condition reads f_1 only
    modulo pi^m, m the pole order of a/b_1 at P, and the monomials
    x^i with i < m deg P span every class of O_P/pi^m, so the search is
    complete.  At infinity it runs in the coordinate 1/x, at (x).
    """
    c, ratios = data.c1, data.b_ratios
    if place.is_infinity():
        # the coordinate 1/x, where the proof's derivative is the local one;
        # x -> 1/x is a field map, so it takes a/b_1 and b_i/b_1 there
        c = c.invert_variable()
        ratios = tuple(ratio.invert_variable() for ratio in ratios)
        place = Place(Poly.x(c.field))
    f1 = local_unit_witness(c, place)
    if f1 is None:
        return False
    # sanity: the found f_1 really solves (2)
    deriv = (c * RationalFunction.from_poly(f1)).derivative()
    if deriv and deriv.order_at(place) < 0:
        raise AssertionError("oracle witness fails its own constraint")
    # f_1 is a unit at P, so v_P((b_i/b_1) f_1) = v_P(b_i/b_1)
    return all(ratio.order_at(place) == 0 for ratio in ratios)


def local_unit_witness(c: RationalFunction, place: Place) -> Poly | None:
    """The oracle's f_1 for c = a/b_1 at a finite place, or None when no unit solves (2).

    With a/b_1 = N/D and D = pi^m E, E a unit at P, each
    (N w/D)' = (w A + w' N D)/D^2 with A = N'D - ND', so the rows are
    the coefficients of polynomial numerators modulo pi^(2m), the part
    of D^2 at P.  The condition reads w only modulo pi^m, and the
    monomials x^i, i < m * deg P, span O_P/pi^m, so the system has
    those m * deg P columns.  Column i's numerator is
    x^i A + i x^(i-1) N D; as (x w)' = x w' + w, column i + 1's is x
    times column i's plus x^i N D.  So with A and N D reduced once,
    each column and each x^i N D takes one shift and one reduction of
    the last, with no product.
    f_1 is the first kernel vector, in column order, that is a unit,
    i.e. nonzero modulo pi; f_1 = 1 when m = 0, and None when no
    kernel vector is a unit.
    """
    from dpglue import linalg  # deferred: only the oracles eliminate

    base = c.field
    pi, N, D = place.poly, c.num, c.den
    m = D.valuation(pi)
    if not m:
        return Poly.one(base)
    modulus = pi ** (2 * m)
    n, zero = modulus.degree, base.zero
    low = modulus.coeffs[:n]  # pi is monic: x^n = -low modulo pi^(2m)

    def reduced(f):
        cs = (f % modulus).coeffs
        return cs + [zero] * (n - len(cs))

    def times_x(s):
        top, out = s[-1], [zero] + s[:-1]
        return [o - top * y for o, y in zip(out, low)] if top else out

    # column i's numerator and x^(i-1) N D modulo pi^(2m), n dense
    # coefficients each
    col, xnd = reduced(N.derivative() * D - N * D.derivative()), reduced(N * D)
    cols = m * pi.degree
    rows = [{} for _ in range(n)]
    for i in range(cols):
        if i:
            col = [u + v for u, v in zip(times_x(col), xnd)]
            xnd = times_x(xnd)
        for row, v in zip(rows, col):
            if v:
                row[i] = v
    for v in linalg.kernel_vectors(base, [row for row in rows if row], cols):
        f1 = Poly(base, v)
        if f1 % pi:
            return f1
    return None


# -- tameness ---------------------------------------------------------


def pole_places(f: RationalFunction):
    """All places where f has a pole, with pole orders.

    Nothing in the package calls it; ``bench/tracing.py`` profiles it by
    name, and one datum's poles are read from ``poles``.
    """
    out = []
    if f.is_zero():
        return out
    if f.den.degree >= 1:
        _, factors = f.den.factor()
        for poly, mult in factors:
            out.append((Place(poly), mult))
    if f.num.degree > f.den.degree:
        out.append((Place.infinity(), f.num.degree - f.den.degree))
    return out


def _place_key(place: Place) -> str:
    return "~oo" if place.is_infinity() else format_poly(place.poly)


# -- wild cusps -------------------------------------------------------


class WildCuspRing(NamedTuple):
    p: int
    n: int
    generators: tuple
    gaps: tuple

    @property
    def embedding_dim(self) -> int:
        return len(self.generators)

    @property
    def delta(self) -> int:
        return len(self.gaps)

    def contains(self, i: int) -> bool:
        return i >= 0 and (i % self.p == 0 or i >= self.n * self.p)


def semigroup_generators(members) -> tuple:
    """Minimal generators of a numerical semigroup given enough members.

    ``members`` must contain every element up to (and a bit past) the
    largest generator; elements representable as sums of two smaller
    positive members are discarded.
    """
    members = sorted(set(m for m in members if m > 0))
    mset = set(members)
    gens = []
    for m in members:
        if any((m - s) in mset for s in members if 0 < s < m):
            continue
        gens.append(m)
    return tuple(gens)


def wild_cusp_ring(p: int, n: int) -> WildCuspRing:
    """The local ring k[x^i | i = 0 mod p or i >= np] of a wild cusp."""
    if not is_prime(p):
        raise ValueError("p must be prime")
    if n < 1:
        raise ValueError("n must be >= 1")
    limit = 2 * n * p + 2 * p + 2
    members = [i for i in range(1, limit) if i % p == 0 or i >= n * p]
    gaps = tuple(i for i in range(1, n * p) if i % p)
    return WildCuspRing(p, n, semigroup_generators(members), gaps)


def tangent_dims(p: int, n: int):
    """(dim T of the curve germ, dim T of the surface germ), y smooth.

    The curve dimension is recomputed from the relevant semigroup: the
    wild-cusp semigroup for p >= 3, and <2, 2n+1> for p = 2.
    """
    if not is_prime(p):
        raise ValueError("p must be prime")
    if p >= 3:
        ring = wild_cusp_ring(p, n)
        dim_curve = ring.embedding_dim
        if dim_curve != p:
            raise AssertionError("wild cusp embedding dimension must be p")
        return (dim_curve, p)
    # p = 2: curve semigroup <2, 2n+1>
    limit = 4 * n + 6
    members = [i for i in range(1, limit)
               if any(i == 2 * s + (2 * n + 1) * t
                      for s in range(i) for t in range(i))]
    dim_curve = len(semigroup_generators(members))
    return (dim_curve, 3)


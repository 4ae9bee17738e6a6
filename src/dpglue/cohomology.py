"""Cohomology of the glued curve over the projective line.

Closed formulas: chi(O_X) = 1 - N(p-1) and h1(O_X) = N(p-1), where
N = sum of deg P * n_P over the wild places P of the derivation datum,
with pole order n_P p at P.  ``closed_form`` reads the datum's poles
(L, e) (``GenericGlueData.poles``) and returns the pointwise criterion's
problems and h1 with no decomposition: over GF(p) the verdict is L' = 0
and p | e, and N p = deg L + e.  A failing pole is worded as
``GenericGlueData.wild_places`` names it.  ``wild_multiplicity``,
``chi_OX`` and ``h1_OX`` each read one call of it, ``total_pole_order``
is deg L + e, and ``delta_P_wild`` counts gaps over L's square-free
pieces (``pole_pieces``).

These are cross-checked by a truncated two-chart section computation
that treats O_D(n) as pairs (f, g_i) with a f' + sum b_i g_i = 0 inside
O(n) + sum O(n-1) y_i.  The constraint is one linear map L acting column
by column on Laurent monomials, so the sections over chart 0, chart 1
and their intersection are kernels of column slices of one matrix of L
on the overlap window W, and

    h0 = nullity(chart 0 cap chart 1),
    h1 = nullity(W) - nullity(chart 0) - nullity(chart 1) + h0.

Every window is an interval of exponents per component, so W's columns
ordered [chart 0 cap chart 1 | rest of chart 0 | rest of W] are one run
of exponents per component and block, laid out from the window ends.
One ``linalg.echelon`` of L's sparse rows gives three of those ranks as
counts of pivots in a prefix; one more of the same rows cut to chart
1's columns gives the fourth.  The rows come from the numerators of a
and b_i times their common denominator, each cleared by one exact
division.  No dense row, no change of basis and no back-substitution.
"""

from __future__ import annotations

from typing import NamedTuple

from dpglue.glue import GenericGlueData, wild_cusp_ring


class LineSheafSum(NamedTuple):
    """A direct sum of line sheaves O(d_i) on the projective line."""

    degrees: tuple

    def chi(self, twist: int = 0) -> int:
        return line_sheaf_chi(self, twist)


def line_sheaf_chi(sheaf: LineSheafSum, twist: int = 0) -> int:
    """chi(O(d)) = d + 1 on the line, summed over the summands."""
    return sum(d + twist + 1 for d in sheaf.degrees)


def d_plus_structure(r: int):
    """(O_{D+}, N_2) = (O + r O(-1), (r-1) O(-1))."""
    if r < 1:
        raise ValueError("r must be >= 1")
    return LineSheafSum((0,) + (-1,) * r), LineSheafSum((-1,) * (r - 1))


class ClosedForm(NamedTuple):
    """Verdict read off the poles (L, e) of the a/b_i."""

    problems: list  # empty iff the pointwise criterion holds everywhere
    h1: int | None  # N(p-1), or None when the criterion fails


def closed_form(data: GenericGlueData) -> ClosedForm:
    """The pointwise criterion and h1 from the poles (L, e).

    On the projective line: b_i/b_1 must be constant (unit everywhere)
    and every pole of a/b_1, including infinity, must be wild of order
    divisible by p.  With constant b_i/b_1 every a/b_i has the poles of
    a/b_1, so the pole orders alone decide.  Over the perfect field
    GF(p), every multiplicity in L is divisible by p exactly when L is
    a p-th power, that is when L' = 0 (Modern Computer Algebra, 14.6).
    """
    problems = [f"b_{i}/b_1 is non-constant"
                for i, ratio in enumerate(data.b_ratios, start=2) if not ratio.is_constant()]
    p = data.characteristic
    den, at_infinity = data.poles
    # in characteristic 0 every pole breaks the criterion
    if (den.derivative() or at_infinity % p) if p else (den.degree or at_infinity):
        problems += [f"pole of order {order} at {place} is not allowed"
                     for place, order in data.wild_places if p == 0 or order % p]
    h1 = None
    if not problems:
        # p divides every pole order, and there is no pole when p = 0
        h1 = (p - 1) * total_pole_order(data) // p if p else 0
    return ClosedForm(problems, h1)


def _gorenstein_h1(data: GenericGlueData) -> int:
    problems, h1 = closed_form(data)
    if problems:
        raise ValueError("; ".join(problems))
    return h1


def wild_multiplicity(data: GenericGlueData) -> int:
    """N = sum of deg P * n_P over wild places P of pole order n_P p.

    A place of degree d splits into d points over the algebraic closure,
    each with multiplicity n_P.  Requires the datum to be Gorenstein.
    """
    h1 = _gorenstein_h1(data)
    return h1 // (data.characteristic - 1) if h1 else 0


def chi_OX(data: GenericGlueData) -> int:
    """1 - N(p-1): equals 1 exactly in the tame case."""
    return 1 - _gorenstein_h1(data)


def h1_OX(data: GenericGlueData) -> int:
    """N(p-1), since h0 = 1; the Cech oracle checks it independently."""
    return _gorenstein_h1(data)


def delta_P_wild(data: GenericGlueData) -> int:
    """Sum of local delta invariants over wild points, via gap counts.

    Each wild place counts once per geometric point, deg P times; the
    places of one square-free piece of L share their pole order.
    """
    def gaps(order):
        return wild_cusp_ring(data.characteristic, order // data.characteristic).delta

    at_infinity = data.poles[1]
    total = sum(piece.degree * gaps(order) for piece, order in data.pole_pieces)
    return total + (gaps(at_infinity) if at_infinity else 0)


def total_pole_order(data: GenericGlueData) -> int:
    """Degree of the wild pole divisor: sum of deg P * pole order."""
    den, at_infinity = data.poles
    return den.degree + at_infinity


# -- truncated Cech oracle --------------------------------------------


def truncated_section_oracle(data: GenericGlueData, twist: int = 0,
                             bound: int | None = None):
    """(h0, h1) of O_D(twist) by two-chart sections with Laurent cutoff.

    A section is a tuple (f, g_1..g_r) of Laurent polynomials in x, cut
    to an exponent window per component: chart 0 (the affine line) keeps
    exponents 0..B, chart 1 (around infinity) keeps n-B..n for f and
    n-1-B..n-1 for g_i, and the overlap keeps the union of both.  The
    constraint a f' + sum b_i g_i = 0 is one linear map L acting column
    by column on these Laurent monomials, so for any window the sections
    are ker L restricted to that window's columns.  Hence V_0, V_1 and
    V_0 cap V_1 are the kernels of column slices of the single matrix of
    L on the overlap window W, and with nullity(S) = |S| - rank L|_S

        h0 = nullity(chart 0 cap chart 1),
        h1 = dim W - dim(V_0 + V_1)
           = nullity(W) - nullity(chart 0) - nullity(chart 1) + h0.

    An echelon basis has a pivot in column c exactly when column c is
    not in the span of the columns before it, so the pivots among the
    first k columns count the rank of those k columns.  With W's columns
    ordered [both | chart 0 minus both | W minus chart 0], one
    ``linalg.echelon`` gives rank(both), rank(chart 0) and rank(W) as
    prefix counts, and one more of the rows cut to chart 1's columns
    gives rank(chart 1).  With top the end of chart 1's window, each
    block is one run of exponents per component: both = [0, top],
    chart 0 minus both = [max(0, top + 1), B] and W minus chart 0 =
    [top - B, -1], of which chart 1 keeps the exponents up to top.

    ``bound`` is B: at least the degree of the wild pole divisor plus
    |twist| + 2, by default that degree plus |twist| + 4.
    """
    from dpglue import linalg  # deferred: only the oracles eliminate

    poles = total_pole_order(data)
    minimum = poles + abs(twist) + 2
    if bound is None:
        bound = poles + abs(twist) + 4
    if bound < minimum:
        raise ValueError(f"bound {bound} too small; need >= {minimum}")
    n, B = twist, bound
    # chart 1's top exponent per component, f then g_1..g_r; every
    # component's overlap window is [top - B, B], chart 0's is [0, B]
    tops = [n] + [n - 1] * data.r
    if n > B:
        raise AssertionError("chart window escapes the overlap window")

    # W's columns ordered [both | chart 0 minus both | W minus chart 0],
    # each block one run (comp, lo, hi, first column) per component
    runs, ends, size = [], [], 0
    for block in ([(0, top) for top in tops],
                  [(max(0, top + 1), B) for top in tops],
                  [(top - B, -1) for top in tops]):
        for comp, (lo, hi) in enumerate(block):
            if lo <= hi:
                runs.append((comp, lo, hi, size))
                size += hi - lo + 1
        ends.append(size)
    size_both, size_0, _ = ends
    # chart 1 is "both" plus, in the third block, the exponents up to its top
    in_chart1 = [e <= tops[comp] for comp, lo, hi, _ in runs for e in range(lo, hi + 1)]
    field = data.field.base
    rows = _constraint_rows(data, runs)
    pivots = linalg.echelon(field, rows)
    # a rank does not depend on the column labels, so chart 1 keeps W's
    chart1_rows = ({k: c for k, c in row.items() if in_chart1[k]} for row in rows)
    rank_1 = len(linalg.echelon(field, chart1_rows))
    h0 = size_both - sum(c < size_both for c in pivots)
    dim_0 = size_0 - sum(c < size_0 for c in pivots)
    dim_1 = sum(in_chart1) - rank_1
    dim_w = size - len(pivots)
    return (h0, dim_w - dim_0 - dim_1 + h0)


def _constraint_rows(data: GenericGlueData, runs):
    """Sparse rows {column index: entry} of a f' + sum b_i g_i = 0.

    A run (comp, lo, hi, first) puts x^lo..x^hi of component comp in
    columns first, first + 1, ...; each column holds the image of its
    monomial times the common denominator Q.  Each h in a, b_i is
    cleared exactly as h.num * (Q // h.den).  For f, the column of x^e
    holds e times the terms of Q a, starting at x^(e-1), and is empty
    when e is 0 in the field; for g_i it holds the terms of Q b_i,
    starting at x^e.  There is one row per power of x that some column
    reaches, and it holds that column's nonzero entries only.
    """
    field = data.field.base
    Q = data.a.den
    for bi in data.b:
        Q = Q * bi.den
    cleared = []
    for h in (data.a,) + data.b:
        quotient, remainder = divmod(Q, h.den)
        if remainder:
            raise AssertionError("denominator failed to clear")
        cleared.append([(k, c) for k, c in enumerate((h.num * quotient).coeffs) if c])

    rows = {}
    for comp, lo, hi, first in runs:
        terms = cleared[comp]
        for j, e in enumerate(range(lo, hi + 1), first):
            if comp:
                for k, c in terms:
                    rows.setdefault(e + k, {})[j] = c
            elif scale := field.from_int(e):
                for k, c in terms:
                    rows.setdefault(e - 1 + k, {})[j] = scale * c
    return list(rows.values())

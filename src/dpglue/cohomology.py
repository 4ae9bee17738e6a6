"""Cohomology of the glued curve over the projective line.

Closed formulas: chi(O_X) = 1 - N(p-1) and h1(O_X) = N(p-1), where
N = sum of deg P * n_P over the wild places P of the derivation datum,
with pole order n_P p at P.  ``closed_form`` reads the square-free pole
divisor of the a/b_i (``GenericGlueData.pole_divisor``), which gives
each pole's order and the degree of its places without factoring, and
returns the pointwise criterion's problems and h1; it factors only to
name a failing pole, and words a pole it cannot name by its piece.
``global_gorenstein``, ``wild_multiplicity``, ``chi_OX`` and ``h1_OX``
each read one call of it, and ``total_pole_order`` and
``delta_P_wild`` read the same divisor.

These are cross-checked by a truncated two-chart section computation
that treats O_D(n) as pairs (f, g_i) with a f' + sum b_i g_i = 0 inside
O(n) + sum O(n-1) y_i.  The constraint is one linear map L acting column
by column on Laurent monomials, so the sections over chart 0, chart 1
and their intersection are kernels of column slices of one matrix of L
on the overlap window W, and

    h0 = nullity(chart 0 cap chart 1),
    h1 = nullity(W) - nullity(chart 0) - nullity(chart 1) + h0.

One ``linalg.echelon`` of L's sparse rows, with W's columns ordered
[chart 0 cap chart 1 | rest of chart 0 | rest of W], gives three of
those ranks as counts of pivots in a prefix; one more of the same rows
cut to chart 1's columns gives the fourth.  No dense row, no change of
basis and no back-substitution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from dpglue import linalg
from dpglue.glue import GenericGlueData, wild_cusp_ring
from dpglue.rational import Place, RationalFunction


@dataclass(frozen=True)
class LineSheafSum:
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
    """Verdict read off the pole divisor of the a/b_i."""

    problems: list  # empty iff the pointwise criterion holds everywhere
    h1: int | None  # N(p-1), or None when the criterion fails


def closed_form(data: GenericGlueData) -> ClosedForm:
    """The pointwise criterion and h1 from the square-free pole divisor.

    On the projective line: b_i/b_1 must be constant (unit everywhere)
    and every pole of a/b_1, including infinity, must be wild of order
    divisible by p.  With constant b_i/b_1 every a/b_i has the poles of
    a/b_1, so the pole orders alone decide.
    """
    problems = []
    b1 = data.b[0]
    for i, bi in enumerate(data.b[1:], start=2):
        if not (bi / b1).is_constant():
            problems.append(f"b_{i}/b_1 is non-constant")
    p = data.characteristic
    poles = data.pole_divisor
    if any(p == 0 or order % p for _, order in poles):
        named = data.wild_places
        if named is None:  # factoring over Q gave up: word each piece
            named = [(piece if isinstance(piece, Place) else "the places of an unfactored "
                      f"square-free piece of degree {piece.degree}", order)
                     for piece, order in poles]
        problems += [f"pole of order {order} at {place} is not allowed"
                     for place, order in named if p == 0 or order % p]
    h1 = None
    if not problems:
        # p divides every pole order, and there is no pole when p = 0
        h1 = (p - 1) * sum(piece.degree * (order // p) for piece, order in poles)
    return ClosedForm(problems, h1)


def _gorenstein_h1(data: GenericGlueData) -> int:
    problems, h1 = closed_form(data)
    if problems:
        raise ValueError("; ".join(problems))
    return h1


def global_gorenstein(data: GenericGlueData):
    """(ok, problems) of the pointwise criterion at every place at once."""
    problems = closed_form(data).problems
    return (not problems, problems)


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

    Each wild place counts once per geometric point, deg P times.
    """
    p = data.characteristic
    return sum(piece.degree * wild_cusp_ring(p, order // p).delta
               for piece, order in data.pole_divisor)


def total_pole_order(data: GenericGlueData) -> int:
    """Degree of the wild pole divisor: sum of deg P * pole order."""
    return sum(piece.degree * order for piece, order in data.pole_divisor)


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
    gives rank(chart 1).

    ``bound`` is B: at least the degree of the wild pole divisor plus
    |twist| + 2, by default that degree plus |twist| + 4.
    """
    poles = total_pole_order(data)
    minimum = poles + abs(twist) + 2
    if bound is None:
        bound = poles + abs(twist) + 4
    if bound < minimum:
        raise ValueError(f"bound {bound} too small; need >= {minimum}")
    n = twist
    B = bound
    r = data.r

    # exponent windows (lo, hi) per component: f then g_1..g_r
    chart0 = [(0, B)] * (r + 1)
    chart1 = [(n - B, n)] + [(n - 1 - B, n - 1)] * r
    overlap = [(n - B, B)] + [(n - 1 - B, B)] * r
    both = [(max(lo0, lo1), min(hi0, hi1))
            for (lo0, hi0), (lo1, hi1) in zip(chart0, chart1)]
    for (lo, hi), (lo0, hi0), (lo1, hi1) in zip(overlap, chart0, chart1):
        if not (lo <= lo0 and hi0 <= hi and lo <= lo1 and hi1 <= hi):
            raise AssertionError("chart window escapes the overlap window")

    def inside(window, col):
        lo, hi = window[col[0]]
        return lo <= col[1] <= hi

    # W's columns ordered [both | chart 0 minus both | W minus chart 0]
    cols = sorted(((comp, e) for comp, (lo, hi) in enumerate(overlap)
                   for e in range(lo, hi + 1)),
                  key=lambda col: (not inside(both, col), not inside(chart0, col)))
    size_both = sum(inside(both, col) for col in cols)
    size_0 = sum(inside(chart0, col) for col in cols)
    chart1_cols = {k for k, col in enumerate(cols) if inside(chart1, col)}
    field = data.field.base
    rows = _constraint_rows(data, cols)
    pivots = linalg.echelon(field, rows)
    # a rank does not depend on the column labels, so chart 1 keeps W's
    chart1_rows = ({k: c for k, c in row.items() if k in chart1_cols} for row in rows)
    rank_1 = len(linalg.echelon(field, chart1_rows))
    h0 = size_both - sum(c < size_both for c in pivots)
    dim_0 = size_0 - sum(c < size_0 for c in pivots)
    dim_1 = len(chart1_cols) - rank_1
    dim_w = len(cols) - len(pivots)
    return (h0, dim_w - dim_0 - dim_1 + h0)


def _constraint_rows(data: GenericGlueData, cols):
    """Sparse rows {column index: entry} of a f' + sum b_i g_i = 0.

    Column j = (comp, e) holds the image of x^e in component comp,
    times the common denominator Q: the coefficients of Q a, scaled by
    e and starting at x^(e-1), for f; those of Q b_i, starting at x^e,
    for g_i.  There is one row per power of x that some column reaches,
    and it holds that column's nonzero entries only.
    """
    field = data.field.base
    Q = data.a.den
    for bi in data.b:
        Q = Q * bi.den
    q = RationalFunction.from_poly(Q)
    cleared = []
    for h in (data.a,) + data.b:
        val = h * q
        if val.den.degree:
            raise AssertionError("denominator failed to clear")
        cleared.append([(k, c) for k, c in enumerate(val.num.coeffs) if c])

    rows = {}
    for j, (comp, e) in enumerate(cols):
        scale, start = (field.from_int(e), e - 1) if comp == 0 else (field.one, e)
        if scale:
            for k, c in cleared[comp]:
                rows.setdefault(start + k, {})[j] = scale * c
    return list(rows.values())

import os
import random
from fractions import Fraction

import pytest
from hypothesis import settings

from dpglue import linalg
from dpglue.artinian import FiniteAlgebra, FiniteModule
from dpglue.fields import base_field
from dpglue.filling import BranchSpec, build_conductor_ring, is_part_filling
from dpglue.polynomials import Poly
from dpglue.rational import FunctionField, RationalFunction

CHARACTERISTICS = (0, 2, 3, 5)

# Monic irreducibles over Q and GF(p), by degree 1, 2 and 3.
IRREDUCIBLES = {
    0: (("x", "x-2"), ("x^2+1", "x^2-2"), ("x^3-2",)),
    2: (("x", "x+1"), ("x^2+x+1",), ("x^3+x+1", "x^3+x^2+1")),
    3: (("x", "x+2"), ("x^2+1", "x^2+x+2"), ("x^3+2*x+1",)),
    5: (("x", "x+3"), ("x^2+2", "x^2+3"), ("x^3+x+1",)),
    7: (("x", "x+4"), ("x^2+1", "x^2+2"), ("x^3+2",)),
}

# property tests draw the same examples on every run, and a slow example
# is not a failure
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def seed():
    return int(os.environ.get("DPGLUE_SEED", "0"))


@pytest.fixture
def rng():
    return random.Random(seed())


def random_element(rng, field):
    """A random element of Q (a small fraction), of GF(p), or of k(x) (a
    quotient of polynomials of degree <= 2)."""
    if isinstance(field, FunctionField):
        base = field.base
        num = Poly(base, [random_element(rng, base) for _ in range(3)])
        den = Poly.zero(base)
        while not den:
            den = Poly(base, [random_element(rng, base) for _ in range(3)])
        return RationalFunction(base, num, den)
    if field.characteristic == 0:
        return Fraction(rng.randint(-5, 5), rng.choice([1, 1, 1, 2, 3]))
    return field.from_int(rng.randrange(field.p))


def rand_poly(rng, field, max_deg=3, nonzero=False):
    while True:
        coeffs = [field.from_int(rng.randrange(-6, 7))
                  for _ in range(rng.randrange(0, max_deg + 1) + 1)]
        p = Poly(field, coeffs)
        if not nonzero or not p.is_zero():
            return p


def rand_ratfunc(rng, p, max_deg=3, nonzero=False):
    field = base_field(p)
    while True:
        num = rand_poly(rng, field, max_deg)
        den = rand_poly(rng, field, max_deg, nonzero=True)
        f = RationalFunction(field, num, den)
        if not nonzero or not f.is_zero():
            return f


def ff(p):
    return FunctionField(base_field(p))


def dense_rref(field, mat):
    """Reference Gauss-Jordan: rewrite every entry of every row the pivot row clears."""
    m = [list(row) for row in mat]
    rows, cols = len(m), len(m[0]) if m else 0
    pivots, r = [], 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = field.one / m[r][c]
        m[r] = [inv * x for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def dense_nullspace(field, mat):
    """Reference kernel: one vector per free column of ``dense_rref``, in order.

    The vector of free column c is 1 at c, 0 at the other free columns,
    and minus the reduced entry of column c at each pivot column.
    """
    red, pivots = dense_rref(field, mat)
    cols = len(mat[0]) if mat else 0
    out = []
    for c in range(cols):
        if c in pivots:
            continue
        v = [field.zero] * cols
        v[c] = field.one
        for row, pc in zip(red, pivots):
            v[pc] = -row[c]
        out.append(v)
    return out


def swinnerton_dyer(primes) -> str:
    """prod (x ± √p_1 ± ... ± √p_k) over Q, as text.

    Irreducible over Q, yet split into factors of degree <= 2 modulo
    every prime: the worst case of Zassenhaus recombination.  Each
    prime p replaces f by f(x - √p) f(x + √p) = A^2 - p B^2, with
    f(x + y) = A + B y modulo y^2 - p.
    """
    field = base_field(0)
    x = Poly.x(field)
    f = x
    for p in primes:
        a = b = Poly.zero(field)
        for c in reversed(f.coeffs):
            a, b = a * x + b * p + c, a + b * x
        f = a * a - b * b * p
    return " + ".join(f"({c})*x^{i}" for i, c in enumerate(f.coeffs) if c)


def musser_squarefree(f):
    """``Poly.squarefree`` by Musser's loop, frozen as a reference.

    y = gcd(w, c) with no derivative after the first takes out the
    multiplicities prime to p, ascending, and leaves a p-th power whose
    root's pieces follow (Modern Computer Algebra, 14.6).
    """
    if f.is_zero():
        raise ValueError("cannot factor zero")
    f = f.monic()
    p = f.field.characteristic
    d = f.derivative()
    if not d:
        if f.degree == 0:
            return []
        return [(g, m * p) for g, m in musser_squarefree(f.pth_root())]
    c = f.gcd(d)
    w = f // c
    out, m = [], 1
    while w.degree > 0:
        y = w.gcd(c)
        piece = w // y
        if piece.degree > 0:
            out.append((piece, m))
        w, c, m = y, c // y, m + 1
    if c.degree > 0:
        out += [(g, k * p) for g, k in musser_squarefree(c.pth_root())]
    return out


def parse_rational_pow(p, k):
    """x^k in k(x) over the prime field of characteristic p, k any integer."""
    F = ff(p)
    if k >= 0:
        return F.x ** k
    return (F.one / F.x) ** (-k)


def truncated_algebra(field, n):
    """k[t]/(t^n) with basis 1, t, ..., t^(n-1)."""
    zero, one = field.zero, field.one
    table = []
    for i in range(n):
        row = []
        for j in range(n):
            v = [zero] * n
            if i + j < n:
                v[i + j] = one
            row.append(v)
        table.append(row)
    unit = [one] + [zero] * (n - 1)
    return FiniteAlgebra(field, table, unit)


def jordan_module(algebra, sizes):
    """Direct sum of k[t]/(t^j) as a module over k[t]/(t^n), j <= n."""
    field = algebra.field
    dim = sum(sizes)
    nilpotent = [[field.zero] * dim for _ in range(dim)]
    off = 0
    for j in sizes:
        for k in range(j - 1):
            nilpotent[off + k + 1][off + k] = field.one
        off += j
    action = []
    for i in range(algebra.dim):  # t^i acts by N^i
        mat = [[field.one if r == c else field.zero for c in range(dim)]
               for r in range(dim)]
        for _ in range(i):
            mat = [[sum((nilpotent[r][k] * mat[k][c] for k in range(dim)),
                        field.zero) for c in range(dim)] for r in range(dim)]
        action.append(mat)
    return FiniteModule(algebra, dim, action)


def random_part_filling(rng, field, max_branches=3, max_n=2, tries=40):
    """Sample a random part-filling; returns (ring, FillingResult) or None.

    Random branch configuration, then a random subspace containing 1,
    closed under multiplication, retried until the checks pass.
    """
    branches = [
        BranchSpec(rng.randint(1, max_n))
        for _ in range(rng.randint(1, max_branches))
    ]
    ring = build_conductor_ring(field, branches)
    A = ring.algebra
    # sampling inside K·1 + nilradical keeps the residue image diagonal,
    # so only closure and faithfulness can fail
    nil_idx = []
    for e, br in enumerate(ring.branches):
        d = br.residue_degree
        nil_idx.extend(range(ring.offsets[e] + d, ring.offsets[e] + d * br.n))
    for _ in range(tries):
        gens = [A.unit]
        for _ in range(rng.randint(0, max(0, len(nil_idx)))):
            v = [field.zero] * ring.dim
            for k in nil_idx:
                v[k] = random_element(rng, field)
            gens.append(v)
        basis = close_under_multiplication(A, gens)
        if len(basis) >= ring.dim:
            continue
        try:
            res = is_part_filling(basis, ring)
        except (ValueError, AssertionError):
            continue
        if res.ok:
            return ring, res
    return None


def close_under_multiplication(A, gens):
    """The span of gens closed under the product of A."""
    field = A.field
    basis = linalg.row_space_basis(field, gens)
    while True:
        new = list(basis)
        for u in basis:
            for v in basis:
                w = A.mul(u, v)
                if not linalg.in_span(field, new, [w])[0]:
                    new.append(w)
        new = linalg.row_space_basis(field, new)
        if len(new) == len(basis):
            return new
        basis = new

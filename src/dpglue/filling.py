"""Part-fillings and half-fillings of conductor rings.

O_C = prod L_E[t]/(t^(n_E)) over a base field K; a part-filling is a
subring that is local with residue field K (its image in prod L_E is
the diagonal K) and whose quotient O_C/O_D is faithful.  A half-filling
additionally has O_C/O_D isomorphic to the dualizing module of O_D,
which happens exactly when l(O_D) = delta; this module decides all of
that and classifies the resulting codimension-1 singularity.
"""

from __future__ import annotations

from typing import NamedTuple

from dpglue import linalg
from dpglue.artinian import (
    FiniteAlgebra,
    FiniteModule,
    Subalgebra,
    annihilator,
    dual_module,
    is_free_rank_one,
    make_subalgebra,
    quotient_module,
    restriction_trace,
)
from dpglue.polynomials import Poly


class BranchSpec:
    """One branch A_E = L_E[t]/(t^n): residue extension degree + multiplicity.

    ``minpoly`` is the minimal polynomial of the residue extension L_E/K
    (None for the trivial extension L_E = K).
    """

    def __init__(self, n: int, minpoly: Poly | None = None):
        if n < 1:
            raise ValueError("multiplicity must be >= 1")
        self.n, self.minpoly = n, minpoly

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.minpoly) == (other.n, other.minpoly)

    def __hash__(self):
        return hash((self.n, self.minpoly))

    def __repr__(self):
        return f"BranchSpec(n={self.n!r}, minpoly={self.minpoly!r})"

    @property
    def residue_degree(self) -> int:
        return 1 if self.minpoly is None else self.minpoly.degree


class ConductorRing(NamedTuple):
    """O_C = prod A_E realized as a FiniteAlgebra over K.

    Basis ordered branch by branch: u^a t^j for a < [L_E:K], j < n_E.
    """

    field: object
    branches: list
    algebra: FiniteAlgebra
    offsets: list  # starting basis index of each branch

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def nilpotent(self, e: int):
        """The class of t_E."""
        br = self.branches[e]
        if br.n < 2:
            raise ValueError("branch has no nilpotent parameter")
        v = [self.field.zero] * self.dim
        v[self.offsets[e] + br.residue_degree] = self.field.one
        return v

    def monomial(self, e: int, a: int, j: int):
        """u^a t^j in branch e."""
        br = self.branches[e]
        v = [self.field.zero] * self.dim
        v[self.offsets[e] + j * br.residue_degree + a] = self.field.one
        return v

    def residue_projection(self, vec):
        """Image in prod L_E: per branch, the t^0 slice."""
        out = []
        for e, br in enumerate(self.branches):
            start = self.offsets[e]
            out.append(vec[start : start + br.residue_degree])
        return out


def build_conductor_ring(field, branches) -> ConductorRing:
    branches = list(branches)
    if not branches:
        raise ValueError("at least one branch required")
    offsets = []
    dim = 0
    for br in branches:
        offsets.append(dim)
        dim += br.n * br.residue_degree
    zero, one = field.zero, field.one

    def branch_mul(br, a1, j1, a2, j2):
        """Product of u^a1 t^j1 and u^a2 t^j2 inside one branch."""
        j = j1 + j2
        if j >= br.n:
            return None
        upoly = Poly(field, [zero] * a1 + [one]) * Poly(field, [zero] * a2 + [one])
        if br.minpoly is not None:
            upoly = upoly % br.minpoly
        return upoly, j

    table = []
    for i in range(dim):
        table.append([None] * dim)
    for e, br in enumerate(branches):
        d = br.residue_degree
        for j1 in range(br.n):
            for a1 in range(d):
                i1 = offsets[e] + j1 * d + a1
                for j2 in range(br.n):
                    for a2 in range(d):
                        i2 = offsets[e] + j2 * d + a2
                        v = [zero] * dim
                        prod = branch_mul(br, a1, j1, a2, j2)
                        if prod is not None:
                            upoly, j = prod
                            for k, c in enumerate(upoly.coeffs):
                                v[offsets[e] + j * d + k] = c
                        table[i1][i2] = v
    # cross-branch products vanish
    for i1 in range(dim):
        for i2 in range(dim):
            if table[i1][i2] is None:
                table[i1][i2] = [zero] * dim
    unit = [zero] * dim
    for e in range(len(branches)):
        unit[offsets[e]] = one
    algebra = FiniteAlgebra(field, table, unit)
    return ConductorRing(field, branches, algebra, offsets)


# -- part-fillings ----------------------------------------------------


class FillingResult:
    """A part-filling verdict: why it fails, or O_D and O_C/O_D over it."""

    def __init__(self, ok: bool, reasons: list | None = None,
                 sub: Subalgebra | None = None, quotient: FiniteModule | None = None):
        self.ok = ok
        self.reasons = [] if reasons is None else reasons
        self.sub = sub
        self.quotient = quotient  # O_C/O_D over O_D

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)


def is_part_filling(basis_vectors, ring: ConductorRing) -> FillingResult:
    """Decide whether the span of the given vectors is a part-filling.

    Checks: independence (error), subring closure with 1, locality with
    residue field K via the diagonal-image test, and faithfulness of
    O_C/O_D.  The empty spec and the full ring are rejected outright.
    """
    field = ring.field
    basis_vectors = [list(v) for v in basis_vectors]
    if not basis_vectors:
        raise ValueError("empty subring spec")
    if linalg.rank(field, basis_vectors) != len(basis_vectors):
        raise ValueError("subring basis is not independent")
    reasons = []
    if len(basis_vectors) == ring.dim:
        return FillingResult(False, ["subring equals the full ring; quotient is zero"])
    try:
        sub = make_subalgebra(ring.algebra, basis_vectors)
    except ValueError as exc:
        return FillingResult(False, [str(exc)])
    # (i) local with residue field K: image in prod L_E is the diagonal K
    diag = _diagonal_image_ok(basis_vectors, ring)
    if not diag:
        reasons.append("image in the product of residue fields is not diagonal K")
    # cross-check with the minimal-polynomial locality test
    local = sub.algebra.is_local()
    if diag != local:
        raise AssertionError("diagonal-image test disagrees with locality test")
    # (ii) faithfulness of the quotient
    quot = quotient_module(sub)
    ann = annihilator(quot)
    if ann:
        reasons.append("quotient O_C/O_D is not faithful over O_D")
    return FillingResult(not reasons, reasons, sub, quot)


def _diagonal_image_ok(basis_vectors, ring: ConductorRing) -> bool:
    """Every image in prod L_E must be c·(1,..,1), c in K, with c=1 hit."""
    field = ring.field
    for v in basis_vectors:
        parts = ring.residue_projection(v)
        c = parts[0][0]
        for part in parts:
            expect = [c] + [field.zero] * (len(part) - 1)
            if list(part) != expect:
                return False
    return True


def serre_invariants(result: FillingResult, ring: ConductorRing):
    """(n, delta, l_D) for a verified part-filling."""
    if not result.ok or result.sub is None:
        raise ValueError("serre_invariants requires a verified part-filling")
    n = ring.dim
    l_d = len(result.sub.basis)
    delta = n - l_d
    if l_d > delta:
        raise AssertionError("Serre inequality violated: l(O_D) > delta")
    return (n, delta, l_d)


def is_half_filling(result: FillingResult, ring: ConductorRing) -> bool:
    """Three exact tests, all required to agree:

    length equality l(O_D) = delta; the trace kernel free of rank one
    over O_D; and the dual of O_C/O_D free of rank one over O_D.  The
    last is O_C/O_D = D(O_D) read through the duality D: it holds
    exactly when D(O_C/O_D) = D(D(O_D)) = O_D.
    """
    if not result.ok or result.sub is None:
        raise ValueError("is_half_filling requires a verified part-filling")
    sub = result.sub
    n, delta, l_d = serre_invariants(result, ring)
    by_length = l_d == delta
    by_kernel = is_free_rank_one(restriction_trace(sub))[0]
    by_dual = is_free_rank_one(dual_module(result.quotient))[0]
    if not (by_length == by_kernel == by_dual):
        raise AssertionError(
            f"half-filling tests disagree: length={by_length} "
            f"kernel={by_kernel} dual={by_dual}"
        )
    return by_length


# -- derivation kernels -----------------------------------------------


def derivation_kernel(characteristic: int, a, b):
    """O_D = ker Delta(a,b) in the generic-stalk model, as a part-filling.

    Returns (ring, FillingResult): O_C over k(xi) with all n_E = 2 and
    trivial residue extensions, and O_D checked by ``is_part_filling``.
    Every b_i must be nonzero.
    """
    from dpglue.glue import conductor_ring, glue_data, kernel_basis

    data = glue_data(characteristic, a, b)
    ring = conductor_ring(characteristic, data.r)
    return ring, is_part_filling(kernel_basis(data), ring)


# -- classification ---------------------------------------------------


class SingularityType(NamedTuple):
    tag: str
    r: int = 0

    def __repr__(self):
        if self.tag in ("r-concurrent-lines", "wild"):
            return f"{self.tag}({self.r})"
        return self.tag


def classify_codim1(result: FillingResult, ring: ConductorRing) -> SingularityType:
    """Classify the codimension-1 singularity of a half-filling.

    Mixtures with some n_E = 1 give nodes; all-n_E=2 with trivial
    residue extensions give cusp/tacnode/concurrent lines; any other
    Gorenstein shape is reported as wild(r) rather than guessed.
    """
    try:
        if not is_half_filling(result, ring):
            return SingularityType("not-gorenstein")
    except ValueError:
        return SingularityType("not-gorenstein")
    branches = ring.branches
    r = len(branches)
    if any(br.n == 1 for br in branches):
        if r == 2 and all(br.n == 1 and br.residue_degree == 1 for br in branches):
            return SingularityType("node")
        if r == 1 and branches[0].n == 1 and branches[0].residue_degree == 2:
            m = branches[0].minpoly
            if m.derivative().is_zero():
                return SingularityType("inseparable-node")
            return SingularityType("node")
        return SingularityType("wild", r)
    if all(br.n == 2 and br.residue_degree == 1 for br in branches):
        if trace_shape_detect(result, ring):
            if r == 1:
                return SingularityType("cusp")
            if r == 2:
                return SingularityType("tacnode")
            return SingularityType("r-concurrent-lines", r)
        return SingularityType("wild", r)
    return SingularityType("wild", r)


def trace_shape_detect(result: FillingResult, ring: ConductorRing) -> bool:
    """All n_E = 2, and m_D = ker of a functional psi on sum T*_E that
    restricts on each summand to a nonzero multiple of the trace form.

    Every residue field must be K itself, where the trace form is the
    identity, so psi must be nonzero on each summand; a branch of residue
    degree > 1 raises ``ValueError``.
    """
    field = ring.field
    sub = result.sub
    branches = ring.branches
    if any(br.residue_degree > 1 for br in branches):
        raise ValueError("trace shape needs residue degree 1 on every branch")
    if not all(br.n == 2 for br in branches):
        return False
    m_basis_local = sub.algebra.maximal_ideal_basis()
    m_parent = [sub.to_parent(v) for v in m_basis_local]
    # the nilpotent coordinate t_E of each branch
    cols = [offset + 1 for offset in ring.offsets]
    colset = set(cols)
    for v in m_parent:
        for k, c in enumerate(v):
            if c and k not in colset:
                return False
    m_mat = [[v[c] for c in cols] for v in m_parent]
    total = len(cols)
    # the annihilated functional, which must be unique up to scale (rank
    # total - 1); m_D = 0 (one branch) leaves the whole line
    psi = linalg.nullspace(field, m_mat) if m_mat else linalg.identity(field, total)
    if len(psi) != 1:
        return False
    return all(psi[0])


"""Finite-dimensional commutative algebras, modules, and duality.

An algebra is given by structure constants over an exact base field F;
a module by one action matrix per algebra basis vector.  The dualizing
module is realized concretely as the F-linear dual with transposed
action, which agrees with the abstract definition whenever the algebra
is finite over an embedded copy of its residue field (the only case
this package constructs).
"""

from __future__ import annotations

from typing import NamedTuple

from dpglue import linalg
from dpglue.polynomials import Poly


class FiniteAlgebra:
    """Commutative associative unital algebra via structure constants.

    ``table[i][j]`` is the coordinate vector of e_i * e_j.  ``_products``
    indexes each entry once by its nonzero coordinates: ``_products[i]``
    maps j to the (k, c) pairs of e_i * e_j, and holds no j whose
    product is zero.  The axioms are verified exhaustively on the basis
    at construction time.
    """

    def __init__(self, field, table, unit):
        self.field = field
        self.table = table
        self.unit = list(unit)
        self.dim = len(table)
        self._products = [
            {j: terms for j, v in enumerate(row)
             if (terms := tuple((k, c) for k, c in enumerate(v) if c))}
            for row in table
        ]
        self._local_data = None
        self._verify()

    def _verify(self):
        d = self.dim
        for i in range(d):
            if len(self.table[i]) != d or any(len(v) != d for v in self.table[i]):
                raise ValueError("structure constant table has wrong shape")
        for i in range(d):
            for j in range(i + 1, d):
                if self.table[i][j] != self.table[j][i]:
                    raise ValueError(f"not commutative at basis pair ({i},{j})")
        for i in range(d):
            ei = self.basis_vector(i)
            if self.mul(self.unit, ei) != ei:
                raise ValueError(f"unit fails on basis vector {i}")
        # the table is commutative, so e_i (e_j e_k) = (e_j e_k) e_i
        products = self._products
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    left, right = [self.field.zero] * d, [self.field.zero] * d
                    self._add_times(left, products[i].get(j, ()), k)
                    self._add_times(right, products[j].get(k, ()), i)
                    if left != right:
                        raise ValueError(f"not associative at ({i},{j},{k})")

    def basis_vector(self, i: int):
        v = [self.field.zero] * self.dim
        v[i] = self.field.one
        return v

    def mul(self, u, v):
        """u * v, multiplying two coefficients only where e_i * e_j != 0."""
        out = [self.field.zero] * self.dim
        u_terms = [(i, a) for i, a in enumerate(u) if a]
        for j, b in enumerate(v):
            if b:
                terms = [(i, a * b) for i, a in u_terms if j in self._products[i]]
                self._add_times(out, terms, j)
        return out

    def _add_times(self, out, terms, k):
        """out += (sum of c e_l over the (l, c) terms) * e_k, from the index."""
        for l, c in terms:
            for m, t in self._products[l].get(k, ()):
                out[m] = out[m] + c * t

    def mult_matrix(self, u):
        """Matrix of multiplication by u (columns are u * e_j)."""
        cols = [self.mul(u, self.basis_vector(j)) for j in range(self.dim)]
        return [[cols[j][i] for j in range(self.dim)] for i in range(self.dim)]

    def minimal_polynomial(self, u) -> Poly:
        """The monic polynomial of least degree that kills u.

        The first kernel vector of the columns 1, u, ..., u^dim.  Once
        u^k lies in the span of the powers before it, so does every
        later power; so the pivots are the columns 0..k-1, and the
        vector of the first free column k is 1 at u^k, minus the
        coordinates of u^k on 1, ..., u^(k-1), and 0 above k.
        """
        powers = [self.unit]
        for _ in range(self.dim):
            powers.append(self.mul(u, powers[-1]))
        rows = [{j: v[i] for j, v in enumerate(powers) if v[i]} for i in range(self.dim)]
        return Poly(self.field, next(linalg.kernel_vectors(self.field, rows, self.dim + 1)))

    # -- locality -----------------------------------------------------

    def local_structure(self):
        """(is_local, maximal ideal basis or None).

        Local with residue field F iff every basis vector e_i has a
        minimal polynomial (t - c_i)^k with c_i in F, i.e. one linear
        square-free piece; the maximal ideal is then spanned by the
        e_i - c_i.  Over an imperfect F a missing p-th root (an
        ArithmeticError) means a piece of higher degree.
        """
        if self._local_data is not None:
            return self._local_data
        d = self.dim
        shifts = []
        for i in range(d):
            mu = self.minimal_polynomial(self.basis_vector(i))
            try:
                pieces = mu.squarefree()
            except ArithmeticError:
                pieces = []
            if len(pieces) != 1 or pieces[0][0].degree != 1:
                self._local_data = (False, None)
                return self._local_data
            shifts.append(-pieces[0][0][0])
        m_gens = []
        for i in range(d):
            v = self.basis_vector(i)
            m_gens.append([v[k] - shifts[i] * self.unit[k] for k in range(d)])
        basis = linalg.row_space_basis(self.field, m_gens)
        # only the zero algebra, which has no maximal ideal, misses d - 1
        self._local_data = (True, basis) if len(basis) == d - 1 else (False, None)
        return self._local_data

    def is_local(self) -> bool:
        return self.local_structure()[0]

    def maximal_ideal_basis(self):
        ok, basis = self.local_structure()
        if not ok:
            raise ValueError("algebra is not local with residue field F")
        return basis

    def regular_module(self) -> "FiniteModule":
        action = [self.mult_matrix(self.basis_vector(i)) for i in range(self.dim)]
        return FiniteModule(self, self.dim, action, check=False)


class FiniteModule:
    """Module over a FiniteAlgebra, given by per-basis action matrices."""

    def __init__(self, algebra: FiniteAlgebra, dim: int, action, check: bool = True):
        self.algebra = algebra
        self.field = algebra.field
        self.dim = dim
        self.action = action
        if check:
            self._verify()

    def _verify(self):
        A = self.algebra
        if len(self.action) != A.dim:
            raise ValueError("one action matrix required per algebra basis vector")
        unit_mat = self.action_of(A.unit)
        if unit_mat != linalg.identity(self.field, self.dim):
            raise ValueError("unit does not act as identity")
        for i in range(A.dim):
            for j in range(A.dim):
                prod = linalg.mat_mul(self.field, self.action[i], self.action[j])
                expected = self.action_of(A.table[i][j])
                if prod != expected:
                    raise ValueError(f"action incompatible with product ({i},{j})")

    def action_of(self, a):
        """Action matrix of an arbitrary algebra element."""
        out = linalg.zeros(self.field, self.dim, self.dim)
        for i, c in enumerate(a):
            if not c:
                continue
            mat = self.action[i]
            for r in range(self.dim):
                row = mat[r]
                orow = out[r]
                for s in range(self.dim):
                    if row[s]:
                        orow[s] = orow[s] + c * row[s]
        return out


def length(module: FiniteModule) -> int:
    """Length over a local algebra with residue field F: the F-dimension."""
    if module.algebra.dim and not module.algebra.is_local():
        raise ValueError("length requires a local algebra with residue field F")
    return module.dim


def dual_module(module: FiniteModule) -> FiniteModule:
    """Hom_F(M, F) with (a.l)(v) = l(a.v): transpose the action."""
    action = [linalg.transpose(m) for m in module.action]
    return FiniteModule(module.algebra, module.dim, action, check=False)


def socle(module: FiniteModule):
    """Basis of {v : m.v = 0} for the maximal ideal m; algebra must be local."""
    m_basis = module.algebra.maximal_ideal_basis()
    if not m_basis:
        return [module_basis_vector(module, i) for i in range(module.dim)]
    stacked = []
    for mv in m_basis:
        stacked.extend(module.action_of(mv))
    return linalg.nullspace(module.field, stacked)


def module_basis_vector(module: FiniteModule, i: int):
    v = [module.field.zero] * module.dim
    v[i] = module.field.one
    return v


def annihilator(module: FiniteModule):
    """Basis of the ideal {a in A : a.M = 0}."""
    A = module.algebra
    rows = []
    for r in range(module.dim):
        for s in range(module.dim):
            rows.append([module.action[i][r][s] for i in range(A.dim)])
    return linalg.nullspace(module.field, rows)


def is_faithful(module: FiniteModule) -> bool:
    return not annihilator(module)


# -- subalgebras and the restriction trace ----------------------------


class Subalgebra(NamedTuple):
    """Subalgebra of a parent FiniteAlgebra, with its own abstract model.

    ``basis`` holds parent coordinates of the chosen basis vectors;
    ``algebra`` is the abstract algebra on that basis.
    """

    parent: FiniteAlgebra
    basis: list
    algebra: FiniteAlgebra

    def to_parent(self, coeffs):
        field = self.parent.field
        out = [field.zero] * self.parent.dim
        for c, b in zip(coeffs, self.basis):
            for k in range(self.parent.dim):
                out[k] = out[k] + c * b[k]
        return out


def make_subalgebra(parent: FiniteAlgebra, basis) -> Subalgebra:
    """Build the abstract algebra on a multiplicatively closed subspace.

    One elimination of [B^T | unit | every product b_i b_j] gives the
    rank of the basis, the unit's coordinates and the structure
    constants.  Raises if the basis is dependent, misses the unit, or is
    not closed.
    """
    field = parent.field
    basis = [list(b) for b in basis]
    d = len(basis)
    # the parent is commutative, so b_j b_i = b_i b_j is solved once
    pairs = [(i, j) for i in range(d) for j in range(i, d)]
    products = [parent.mul(basis[i], basis[j]) for i, j in pairs]
    # B^T row by row, so an empty basis still gives parent.dim rows
    bt = [[b[k] for b in basis] for k in range(parent.dim)]
    coords, rank = linalg.solve_many(field, bt, [parent.unit] + products)
    if rank != d:
        raise ValueError("subalgebra basis is not independent")
    unit = coords[0]
    if unit is None:
        raise ValueError("subalgebra does not contain the unit")
    table = [[None] * d for _ in range(d)]
    for (i, j), c in zip(pairs, coords[1:]):
        if c is None:
            raise ValueError(f"subspace not closed under multiplication at ({i},{j})")
        table[i][j], table[j][i] = c, list(c)
    algebra = FiniteAlgebra(field, table, unit)
    return Subalgebra(parent, basis, algebra)


def _action_matrices(coords, count: int, dim: int):
    """Cut coordinate columns, dim per algebra basis vector, into count matrices."""
    return [
        [[col[r] for col in coords[i * dim : (i + 1) * dim]] for r in range(dim)]
        for i in range(count)
    ]


def quotient_module(sub: Subalgebra) -> FiniteModule:
    """parent/sub as a module over the subalgebra."""
    parent, field = sub.parent, sub.parent.field
    s = len(sub.basis)
    # complement basis: the parent basis vectors that are pivots after
    # the sub basis, i.e. the greedy choice of e_i outside the span so far
    standard = [parent.basis_vector(i) for i in range(parent.dim)]
    _, pivots = linalg.rref(field, linalg.transpose(sub.basis + standard))
    complement = [standard[c - s] for c in pivots if c >= s]
    # write each a * e_c in the basis (sub.basis + complement) and keep the
    # complement coordinates
    products = [parent.mul(a, e) for a in sub.basis for e in complement]
    coords, _ = linalg.solve_many(
        field, linalg.transpose(sub.basis + complement), products
    )
    action = _action_matrices(
        [c[s:] for c in coords], sub.algebra.dim, len(complement)
    )
    return FiniteModule(sub.algebra, len(complement), action, check=True)


def restriction_trace(sub: Subalgebra) -> FiniteModule:
    """Kernel of the restriction Hom_F(parent,F) -> Hom_F(sub,F).

    The kernel consists of functionals vanishing on the subalgebra, as
    a module over it with (a.l)(v) = l(a*v).
    """
    parent, field = sub.parent, sub.parent.field
    # the sub basis rows are the restriction map in dual bases
    kernel = linalg.nullspace(field, sub.basis)
    # action of sub basis element a on a functional: l -> l o (mult by a),
    # i.e. coordinates transform by mult_matrix(a)^T
    images = []
    for a in sub.basis:
        mt = linalg.transpose(parent.mult_matrix(a))
        images.extend(linalg.mat_vec(field, mt, kv) for kv in kernel)
    coords, _ = linalg.solve_many(field, linalg.transpose(kernel), images)
    if any(c is None for c in coords):
        raise AssertionError("kernel of restriction not stable under action")
    return FiniteModule(
        sub.algebra,
        len(kernel),
        _action_matrices(coords, sub.algebra.dim, len(kernel)),
        check=True,
    )


def is_free_rank_one(module: FiniteModule):
    """(verdict, generator) for 'module is free of rank 1 over local A'.

    By Nakayama, M is cyclic iff dim M/mM = 1, and a cyclic module of
    the same length as A is free of rank 1; any vector outside mM
    generates.
    """
    A = module.algebra
    field = module.field
    if module.dim != A.dim:
        return False, None
    if A.dim == 0:
        return True, None
    m_basis = A.maximal_ideal_basis()
    mM = []
    for mv in m_basis:
        mat = module.action_of(mv)
        for j in range(module.dim):
            mM.append([mat[r][j] for r in range(module.dim)])
    mM_basis = linalg.row_space_basis(field, mM)
    if module.dim - len(mM_basis) != 1:
        return False, None
    probes = [module_basis_vector(module, i) for i in range(module.dim)]
    for v, inside in zip(probes, linalg.in_span(field, mM_basis, probes)):
        if not inside:
            return True, v
    raise AssertionError("unreachable: mM has codimension 1")


def square_zero_algebra(field, m: int) -> FiniteAlgebra:
    """F + F^m with unit e_0, where e_i e_j = 0 for all i, j >= 1.

    The last m basis vectors span an ideal whose square is zero, so the
    algebra is local with residue field F.
    """
    e, zero = linalg.identity(field, m + 1), [field.zero] * (m + 1)
    # e_0 e_j = e_j e_0 = e_j, and i + j names that vector when i j = 0
    table = [[list(e[i + j] if i * j == 0 else zero) for j in range(m + 1)]
             for i in range(m + 1)]
    return FiniteAlgebra(field, table, e[0])


def matrix_counterexample(field, n: int):
    """Local algebra of length n^2+1 with a faithful module of length 2n.

    Scalar matrices plus an n x n top-right block; the block part
    squares to zero, so the algebra is commutative and local.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    algebra = square_zero_algebra(field, n * n)  # unit, then E_(i,j)
    # module k^(2n): unit acts as identity, E_(i,j) maps v_(n+j) to v_i
    mdim = 2 * n
    action = [linalg.identity(field, mdim)]
    for k in range(1, algebra.dim):
        mat = linalg.zeros(field, mdim, mdim)
        i, j = divmod(k - 1, n)
        mat[i][n + j] = field.one
        action.append(mat)
    module = FiniteModule(algebra, mdim, action, check=True)
    return algebra, module

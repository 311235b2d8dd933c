"""Lifting a permutation pair to the special linear group over a prime
field.

The permutations xi and y of a constructed map act as permutation
matrices on F_p^n.  A rank-2 modification x' sends the basis vectors of
one free stock handle pair (a, b) to -a + t1 a' and -b + t1 b', where
(a', b') is a second free handle pair and t1 generates the multiplicative
group; x' is an involution commuting with xi, and the triple
(x = x' xi, y, z = (xy)^-1) satisfies the (2,3,7) relations with all
determinants 1.  Matrices are kept in a permutation-plus-sparse-columns
form so products, determinants and fixed-space dimensions run in time
linear in n; a dense mod-p Gaussian elimination validates the structured
arithmetic on small instances.

Beauville evidence at the matrix level compares fixed-subspace
dimensions: the dimension for y is the number of cycles of y, for
x = x' xi it is the number of cycles of xi minus 2, and for z it equals
the number of cycles of the permutation xi y (whose conjugacy with xy
the construction relies on).  The two members of a pair have different
cycle counts in all three positions, so no position can be conjugate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .construct import (
    ConstructionPlan,
    build_pair,
    shared_handles,
    with_free_stock_handles,
)
from .perm import Permutation, is_prime, prime_divisors

__all__ = [
    "LiftError",
    "PrimeFieldMatrix",
    "permutation_matrix",
    "fixed_space_dim",
    "dense_fixed_space_dim",
    "LinearTriple",
    "build_linear_triple",
    "beauville_dims",
    "lift_pair",
    "LiftReport",
]


class LiftError(ValueError):
    """Invalid lift parameters or a failed matrix relation."""


# The largest p with p * p < 2**63: arithmetic mod p runs on int64 arrays
# and multiplies two residues before reducing.
P_MAX = 3037000499


def _is_primitive_root(t1, p):
    t1 %= p
    if t1 == 0:
        return False
    if p == 2:
        return t1 == 1
    order = p - 1
    for q in prime_divisors(order):
        if pow(t1, order // q, p) == 1:
            return False
    return True


class PrimeFieldMatrix:
    """n x n matrix over F_p in permutation-plus-corrections form.

    The matrix is M = P + C where P e_j = e_{g[j]} for a permutation g
    and C is zero outside a small set of columns, each stored as a dense
    residue vector.  All arithmetic stays exact mod p.
    """

    __slots__ = ("p", "n", "perm", "cor")

    def __init__(self, p, perm, cor=None):
        self.p = p
        self.perm = np.asarray(perm, dtype=np.int64)
        self.n = self.perm.size
        self.cor = {}
        for j, v in (cor or {}).items():
            v = np.asarray(v, dtype=np.int64) % p
            if v.any():
                self.cor[int(j)] = v

    def column(self, j):
        v = np.zeros(self.n, dtype=np.int64)
        v[self.perm[j]] = 1
        if j in self.cor:
            v = (v + self.cor[j]) % self.p
        return v

    def dense(self):
        out = np.zeros((self.n, self.n), dtype=np.int64)
        out[self.perm, np.arange(self.n)] = 1
        for j, v in self.cor.items():
            out[:, j] = (out[:, j] + v) % self.p
        return out

    def __matmul__(self, other):
        """Matrix product; corrections stay sparse (columns add up)."""
        if not isinstance(other, PrimeFieldMatrix):
            return NotImplemented
        if self.p != other.p or self.n != other.n:
            raise LiftError("matrix shape or modulus mismatch")
        p = self.p
        perm = self.perm[other.perm]
        cor = {}

        def add_col(j, v):
            if j in cor:
                cor[j] = (cor[j] + v) % p
            else:
                cor[j] = v % p

        # self @ C_other: column j maps through self entirely
        for j, v in other.cor.items():
            add_col(j, self._apply(v))
        # C_self @ P_other: column j picks self's correction at other.perm[j]
        if self.cor:
            for j in np.flatnonzero(np.isin(other.perm, list(self.cor))).tolist():
                add_col(j, self.cor[int(other.perm[j])])
        out = PrimeFieldMatrix(p, perm, cor)
        return out

    def _apply(self, v):
        """Matrix-vector product M v."""
        out = np.zeros(self.n, dtype=np.int64)
        out[self.perm] = v
        for j, col in self.cor.items():
            if v[j]:
                out = (out + v[j] * col) % self.p
        return out % self.p

    def is_identity(self):
        ident = np.arange(self.n)
        touched = set(self.cor)
        for j in range(self.n):
            if j not in touched:
                if self.perm[j] != j:
                    return False
        e = np.zeros(self.n, dtype=np.int64)
        for j in touched:
            col = self.column(j)
            e[:] = 0
            e[j] = 1
            if not np.array_equal(col, e):
                return False
        return True

    def __eq__(self, other):
        if not isinstance(other, PrimeFieldMatrix):
            return NotImplemented
        if self.p != other.p or self.n != other.n:
            return False
        cols = set(self.cor) | set(other.cor)
        if not np.array_equal(
            np.delete(self.perm, list(cols)), np.delete(other.perm, list(cols))
        ):
            return False
        return all(np.array_equal(self.column(j), other.column(j)) for j in cols)

    def power(self, k):
        if k < 0:
            raise LiftError("negative powers not needed; invert explicitly")
        result = identity_matrix(self.p, self.n)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base
            k >>= 1
        return result

    def det(self):
        """Exact determinant mod p via the low-rank determinant lemma:
        det(P + C) = det(P) det(I + P^-1 C), and the second factor is the
        determinant of a small matrix on the correction columns."""
        sign = _as_permutation(self.perm).parity() % self.p
        if not self.cor:
            return sign
        cols = sorted(self.cor)
        k = len(cols)
        pos = {j: i for i, j in enumerate(cols)}
        inv = np.empty(self.n, dtype=np.int64)
        inv[self.perm] = np.arange(self.n)
        small = np.zeros((k, k), dtype=np.int64)
        for i, j in enumerate(cols):
            v = self.cor[j][self.perm]  # P^-1 applied to the correction
            for jj, ii in pos.items():
                small[ii, i] = v[jj] % self.p
            small[i, i] = (small[i, i] + 1) % self.p
        return (sign * _small_det_mod(small, self.p)) % self.p


def _as_permutation(perm):
    """The permutation part of a matrix as a Permutation (a copy, since
    permutations freeze their image array)."""
    return Permutation._trusted(perm.copy())


def _small_det_mod(mat, p):
    m = mat.copy() % p
    k = m.shape[0]
    det = 1
    for col in range(k):
        nz = np.flatnonzero(m[col:, col])
        if not nz.size:
            return 0
        piv = col + int(nz[0])
        if piv != col:
            m[[col, piv]] = m[[piv, col]]
            det = -det
        det = (det * m[col, col]) % p
        inv = pow(int(m[col, col]), p - 2, p) if p > 2 else int(m[col, col])
        m[col] = (m[col] * inv) % p
        for row in range(col + 1, k):
            if m[row, col]:
                m[row] = (m[row] - m[row, col] * m[col]) % p
    return det % p


def identity_matrix(p, n):
    return PrimeFieldMatrix(p, np.arange(n))


def permutation_matrix(g, p):
    """The matrix sending e_j to e_{g[j]}."""
    return PrimeFieldMatrix(p, g.array)


# -- fixed space dimensions ------------------------------------------------------


def dense_fixed_space_dim(matrix):
    """dim ker(M - I) by dense Gaussian elimination mod p."""
    p = matrix.p
    m = (matrix.dense() - np.eye(matrix.n, dtype=np.int64)) % p
    return matrix.n - _rank_mod(m, p)


def _rank_mod(m, p):
    m = m.copy() % p
    rows, cols = m.shape
    rank = 0
    for col in range(cols):
        nz = np.flatnonzero(m[rank:, col])
        if not nz.size:
            continue
        piv = rank + int(nz[0])
        m[[rank, piv]] = m[[piv, rank]]
        inv = pow(int(m[rank, col]), p - 2, p) if p > 2 else int(m[rank, col])
        m[rank] = (m[rank] * inv) % p
        nz = np.flatnonzero(m[:, col])
        nz = nz[nz != rank]
        if nz.size:
            m[nz] = (m[nz] - np.outer(m[nz, col], m[rank])) % p
        rank += 1
        if rank == rows:
            break
    return rank


def fixed_space_dim(matrix):
    """dim ker(M - I), exact mod p.

    For the structured form the kernel is solved by propagating unknowns
    along the cycles of the permutation part: writing lam for the vector
    of values at the correction columns, every coordinate of a solution
    is a start value for its cycle plus a known linear form in lam, and
    closing each cycle plus matching lam against its own expression gives
    a small linear system whose kernel dimension equals the answer.
    Equivalent to (and cross-checked against) dense elimination.
    """
    p = matrix.p
    n = matrix.n
    cols = sorted(matrix.cor)
    k = len(cols)
    cycles = _as_permutation(matrix.perm).cycles(include_fixed=True)
    c = len(cycles)
    if k == 0:
        # permutation matrix: one dimension per cycle
        return c

    # v[g[m]] = v[m] + sum_j lam_j * cor_j[g[m]]  (from (P + C) v = v).
    # Walking a cycle from its first point, each step adds the corrections
    # at the point it lands on: a point's lam coefficients sum the steps
    # up to it, and the cycle's closure sums all of its steps.  run[:, i]
    # sums the first i steps of the walk; every sum is below n * p, far
    # inside int64.
    lengths = np.array([len(cyc) for cyc in cycles])
    ends = np.cumsum(lengths)
    starts = ends - lengths
    walk = np.array([pt for cyc in cycles for pt in cyc])
    cycle_id = np.empty(n, dtype=np.int64)
    cycle_id[walk] = np.repeat(np.arange(c), lengths)
    position = np.empty(n, dtype=np.int64)
    position[walk] = np.arange(n)
    cor = np.array([matrix.cor[j] for j in cols])
    run = np.zeros((k, n + 1), dtype=np.int64)
    np.cumsum(cor[:, matrix.perm[walk]], axis=1, out=run[:, 1:])

    # unknowns: s_0..s_{c-1} (cycle start values) then lam_0..lam_{k-1};
    # one row closes each cycle, one matches each lam_i to its expression
    system = np.zeros((c + k, c + k), dtype=np.int64)
    system[:c, c:] = (run[:, ends] - run[:, starts]).T
    for i, j in enumerate(cols):
        row = system[c + i]
        row[cycle_id[j]] = 1
        row[c:] = run[:, position[j]] - run[:, starts[cycle_id[j]]]
        row[c + i] -= 1
    return (c + k) - _rank_mod(system % p, p)


# -- the lift --------------------------------------------------------------------


@dataclass(frozen=True)
class LinearTriple:
    """Verified (2,3,7) matrix triple over F_p, with its permutation source."""

    p: int
    t1: int
    x: PrimeFieldMatrix
    y: PrimeFieldMatrix
    z: PrimeFieldMatrix
    xi: Permutation
    y_perm: Permutation
    handle_points: tuple  # (a, b, a2, b2)

    @property
    def n(self):
        return self.x.n


def build_linear_triple(m, p, t1, handle_points=None):
    """Lift one map to matrices over F_p.

    handle_points = (a, b, a2, b2) are the four designated points: two
    free (1)-handle pairs, all fixed by the map's involution.  When
    omitted, the two lowest free (1)-handles are used.
    """
    if p > P_MAX:
        raise LiftError(
            f"p = {p} is above {P_MAX}, the largest p whose residue "
            "products fit int64"
        )
    if not is_prime(p):
        raise LiftError(f"{p} is not prime")
    if not _is_primitive_root(t1, p):
        raise LiftError(f"t1 = {t1} is not a generator of F_{p}^*")
    if handle_points is None:
        handles = m.find_handles(1)
        if len(handles) < 2:
            raise LiftError("need two free (1)-handles for the modification")
        h1, h2 = handles[0], handles[1]
        handle_points = (h1.a, h1.b, h2.a, h2.b)
    a, b, a2, b2 = handle_points
    xi, y = m.x, m.y
    for pt in handle_points:
        if xi[pt] != pt:
            raise LiftError(f"designated point {pt} is not fixed by the involution")

    n = m.n
    xprime = _x_modification(p, n, t1 % p, a, b, a2, b2)
    ximat = permutation_matrix(xi, p)
    if not (xprime @ xprime).is_identity():
        raise LiftError("x' is not an involution")
    if not (xprime @ ximat) == (ximat @ xprime):
        raise LiftError("x' does not commute with the involution")

    x = xprime @ ximat
    ymat = permutation_matrix(y, p)
    if not (x @ x).is_identity():
        raise LiftError("relation x^2 = 1 fails")
    if not (ymat @ ymat @ ymat).is_identity():
        raise LiftError("relation y^3 = 1 fails")
    xy = x @ ymat
    if not xy.power(7).is_identity():
        raise LiftError("relation (xy)^7 = 1 fails")
    z = xy.power(6)  # (xy)^-1 since (xy)^7 = 1
    for name, mat in (("x", x), ("y", ymat), ("z", z)):
        if mat.det() != 1 % p:
            raise LiftError(f"det({name}) != 1")
    return LinearTriple(p, t1 % p, x, ymat, z, xi, y, tuple(handle_points))


def _x_modification(p, n, t1, a, b, a2, b2):
    """Identity except on columns a and b: a -> -a + t1 a', b -> -b + t1 b'."""
    cor = {}
    va = np.zeros(n, dtype=np.int64)
    va[a] = -2
    va[a2] = t1
    vb = np.zeros(n, dtype=np.int64)
    vb[b] = -2
    vb[b2] = t1
    cor[a] = va
    cor[b] = vb
    return PrimeFieldMatrix(p, np.arange(n), cor)


@dataclass(frozen=True)
class BeauvilleDims:
    passed: bool
    dims1: tuple  # (x, y, z) fixed-space dimensions for the first triple
    dims2: tuple

    def __bool__(self):
        return self.passed


def beauville_dims(t1, t2):
    """Position-wise fixed-space dimensions must all differ.

    x and y dimensions come from the structured kernel solver; the z
    dimension equals the cycle count of xi*y (xy is conjugate to xi*y, a
    fact of the underlying construction this evidence relies on).
    """
    if t1.p != t2.p or t1.n != t2.n:
        raise LiftError("triples must live over the same field and degree")
    dims1 = _dims(t1)
    dims2 = _dims(t2)
    passed = all(d1 != d2 for d1, d2 in zip(dims1, dims2))
    return BeauvilleDims(passed, dims1, dims2)


def _dims(t):
    dim_x = fixed_space_dim(t.x)
    dim_y = fixed_space_dim(t.y)
    dim_z = len((t.xi * t.y_perm).cycles(include_fixed=True))
    return (dim_x, dim_y, dim_z)


# -- pair-level driver ------------------------------------------------------------


@dataclass(frozen=True)
class LiftReport:
    plan: ConstructionPlan
    p: int
    t1: int
    n: int
    extra_g_copies: int
    triple1: LinearTriple
    triple2: LinearTriple
    dims: BeauvilleDims


def lift_pair(plan, p, t1):
    """Build the plan's pair with enough stock that the first copy of the
    stock map has two free (1)-handles shared by both members, lift both
    members over F_p, and compare fixed-space dimensions.

    The stock is enlarged by whole copies (degree +42 each) as needed,
    matching the construction's stated degree penalty.
    """
    # inside the first stock copy
    found = with_free_stock_handles(build_pair(plan), 42)
    if found is None:
        raise LiftError("could not free two stock handles for the lift")
    eff, pair, extra_g, shared = found
    lift1, lift2, dims = _lift_at(pair.w1, pair.w2, p, t1, shared)
    return LiftReport(eff, p, t1 % p, pair.degree, extra_g, lift1, lift2, dims)


def lift_maps(w1, w2, p, t1):
    """Lift an existing pair of maps (for instance reloaded from a
    serialized certificate) over F_p.

    The modification is anchored at the two lowest free (1)-handle pairs
    common to both members; pairs built with the minimal stock expose
    only one and must be rebuilt with a larger stock first.
    """
    if w1.n != w2.n:
        raise LiftError("pair members must have equal degree")
    shared = shared_handles(w1, w2, 0, w1.n)
    if len(shared) < 2:
        raise LiftError(
            "need two free (1)-handle pairs common to both members; "
            "rebuild the pair with a larger stock"
        )
    return _lift_at(w1, w2, p, t1, shared)


def _lift_at(w1, w2, p, t1, shared):
    """Lift both members with the modification anchored at the first two
    of the shared handle point pairs, and compare the dimensions."""
    (a, b), (a2, b2) = shared[0], shared[1]
    pts = (a, b, a2, b2)
    lift1 = build_linear_triple(w1, p, t1, pts)
    lift2 = build_linear_triple(w2, p, t1, pts)
    dims = beauville_dims(lift1, lift2)
    if not dims:
        raise LiftError(
            f"fixed-space dimensions coincide: {dims.dims1} vs {dims.dims2}"
        )
    return lift1, lift2, dims

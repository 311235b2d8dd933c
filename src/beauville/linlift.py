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
linear in n; one mod-p forward elimination serves every rank and
determinant, and a dense fixed-space count validates the structured one
on small instances.

Beauville evidence at the matrix level compares the fixed-subspace
dimensions of x, y and z, each computed from its matrix.  They come out
as cycle counts: that of y, that of xi minus 2 for x, and that of the
permutation xi y for z.  The two members of a pair have different cycle
counts in all three positions, so no position can be conjugate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .construct import (
    ConstructionPlan,
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
        return self == identity_matrix(self.p, self.n)

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
        cols = sorted(self.cor)
        # I + P^-1 C on the correction columns, where (P^-1 v)[i] = v[g[i]]
        small = np.eye(len(cols), dtype=np.int64)
        for i, j in enumerate(cols):
            small[:, i] += self.cor[j][self.perm[cols]]
        sign = _as_permutation(self.perm).parity()
        return sign * _eliminate(small, self.p)[1] % self.p


def _as_permutation(perm):
    """The permutation part of a matrix as a Permutation (a copy, since
    permutations freeze their image array)."""
    return Permutation._trusted(perm.copy())


def _eliminate(m, p):
    """Forward elimination mod p: (rank, det), det being 0 unless m is
    square of full rank.  Residues stay below p, so every product of two
    fits int64 for p <= P_MAX."""
    m = m % p
    rows, cols = m.shape
    rank, det = 0, 1
    for col in range(cols):
        if rank == rows:
            break
        nz = np.flatnonzero(m[rank:, col])
        if not nz.size:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            m[[rank, piv]] = m[[piv, rank]]
            det = -det
        pivot = int(m[rank, col])
        det = det * pivot % p
        factors = m[rank + 1 :, col] * pow(pivot, -1, p) % p
        m[rank + 1 :] = (m[rank + 1 :] - np.outer(factors, m[rank])) % p
        rank += 1
    return rank, (det % p if rank == rows == cols else 0)


def identity_matrix(p, n):
    return PrimeFieldMatrix(p, np.arange(n))


def permutation_matrix(g, p):
    """The matrix sending e_j to e_{g[j]}."""
    return PrimeFieldMatrix(p, g.array)


# -- fixed space dimensions ------------------------------------------------------


def dense_fixed_space_dim(matrix):
    """dim ker(M - I) by dense Gaussian elimination mod p."""
    m = matrix.dense() - np.eye(matrix.n, dtype=np.int64)
    return matrix.n - _eliminate(m, matrix.p)[0]


def fixed_space_dim(matrix):
    """dim ker(M - I), exact mod p, from component sums.

    Off the correction columns J, column j of M - I is e_{g[j]} - e_j, an
    edge j -- g[j] of a graph whose components are the cycles of g that
    miss J and the paths the other cycles break into after each point of
    J.  Those columns span exactly the vectors that sum to 0 on every
    component, so dim ker(M - I) = (#components) - rank(Q), where Q holds
    the component sums of the columns of M - I at J.  Equivalent to (and
    cross-checked against) dense elimination.
    """
    n = matrix.n
    cols = sorted(matrix.cor)
    cycles = _as_permutation(matrix.perm).cycles(include_fixed=True)
    lengths = np.fromiter(map(len, cycles), dtype=np.int64, count=len(cycles))
    ends = np.cumsum(lengths)
    starts = ends - lengths
    walk = np.fromiter(chain.from_iterable(cycles), dtype=np.int64, count=n)
    # number the paths along the walk: one starts at each cycle's first
    # point and after each point of J; a cycle's last path runs on into its
    # first unless the cycle's last point is in J
    cut = np.zeros(n, dtype=bool)
    cut[cols] = True
    new_path = np.zeros(n, dtype=bool)
    new_path[starts] = True
    new_path[1:] |= cut[walk[:-1]]
    path = np.cumsum(new_path) - 1
    wraps = ~cut[walk[ends - 1]]
    joined = np.arange(n)
    joined[path[ends - 1][wraps]] = path[starts][wraps]
    _, component = np.unique(joined[path], return_inverse=True)

    # the columns of M - I at J, in walk order, summed per component
    diff = np.zeros((len(cols), n), dtype=np.int64)
    for i, j in enumerate(cols):
        diff[i] = matrix.column(j)
        diff[i, j] -= 1
    sums = np.zeros((component.max() + 1, len(cols)), dtype=np.int64)
    np.add.at(sums, component, diff[:, walk].T)
    return sums.shape[0] - _eliminate(sums, matrix.p)[0]


# -- the lift --------------------------------------------------------------------


@dataclass(frozen=True)
class LinearTriple:
    """Verified (2,3,7) matrix triple over F_p, with the four points its
    modification is anchored at."""

    p: int
    t1: int
    x: PrimeFieldMatrix
    y: PrimeFieldMatrix
    z: PrimeFieldMatrix
    handle_points: tuple  # (a, b, a2, b2)

    @property
    def n(self):
        return self.x.n


def build_linear_triple(m, p, t1, handle_points):
    """Lift one map to matrices over F_p.

    handle_points = (a, b, a2, b2) are the four designated points: two
    free (1)-handle pairs, all fixed by the map's involution.
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
    z = xy.power(6)
    if not (z @ xy).is_identity():
        raise LiftError("relation (xy)^7 = 1 fails")
    for name, mat in (("x", x), ("y", ymat), ("z", z)):
        if mat.det() != 1 % p:
            raise LiftError(f"det({name}) != 1")
    return LinearTriple(p, t1 % p, x, ymat, z, tuple(handle_points))


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
    """Position-wise fixed-space dimensions of x, y and z must all differ.

    Each dimension is computed from its own matrix by `fixed_space_dim`;
    conjugate matrices have equal fixed-space dimensions, so a difference
    rules conjugacy out.
    """
    if t1.p != t2.p or t1.n != t2.n:
        raise LiftError("triples must live over the same field and degree")
    dims1 = _dims(t1)
    dims2 = _dims(t2)
    passed = all(d1 != d2 for d1, d2 in zip(dims1, dims2))
    return BeauvilleDims(passed, dims1, dims2)


def _dims(t):
    return (fixed_space_dim(t.x), fixed_space_dim(t.y), fixed_space_dim(t.z))


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
    found = with_free_stock_handles(plan, 42)
    if found is None:
        raise LiftError("could not free two stock handles for the lift")
    pair, extra_g, shared = found
    lift1, lift2, dims = _lift_at(pair.w1, pair.w2, p, t1, shared)
    return LiftReport(pair.plan, p, t1 % p, pair.degree, extra_g, lift1, lift2, dims)


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
    of the shared handles, and compare the dimensions."""
    pts = shared[0].points + shared[1].points
    lift1 = build_linear_triple(w1, p, t1, pts)
    lift2 = build_linear_triple(w2, p, t1, pts)
    dims = beauville_dims(lift1, lift2)
    if not dims:
        raise LiftError(
            f"fixed-space dimensions coincide: {dims.dims1} vs {dims.dims2}"
        )
    return lift1, lift2, dims

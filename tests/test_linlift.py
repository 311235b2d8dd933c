import itertools
import random

import numpy as np
import pytest

from beauville import perm
from beauville.atlas import basic_map
from beauville.construct import all_minimal_plans, build_pair, minimal_plan
from beauville.linlift import (
    P_MAX,
    LiftError,
    PrimeFieldMatrix,
    beauville_dims,
    build_linear_triple,
    dense_fixed_space_dim,
    fixed_space_dim,
    identity_matrix,
    lift_pair,
    permutation_matrix,
)

from perm_helpers import random_permutation


class TestMatrixArithmetic:
    def test_permutation_matrix_roundtrip(self):
        g = perm.parse_cycles("(0 1 2)(3 4)", 5)
        m = permutation_matrix(g, 7)
        dense = m.dense()
        for j in range(5):
            col = np.zeros(5, dtype=int)
            col[g[j]] = 1
            assert np.array_equal(dense[:, j], col)

    def test_product_matches_dense(self):
        rng = random.Random(3)
        for _ in range(25):
            n = rng.randrange(3, 12)
            p = rng.choice([2, 3, 5, 7])
            a = permutation_matrix(random_permutation(n, rng), p)
            cor = {
                rng.randrange(n): np.array([rng.randrange(p) for _ in range(n)])
            }
            b = PrimeFieldMatrix(p, random_permutation(n, rng).array, cor)
            assert np.array_equal((a @ b).dense(), (a.dense() @ b.dense()) % p)
            assert np.array_equal((b @ a).dense(), (b.dense() @ a.dense()) % p)

    def test_det_matches_dense(self):
        rng = random.Random(9)
        for _ in range(25):
            n = rng.randrange(2, 9)
            p = rng.choice([2, 3, 5, 7, 11])
            cor = {}
            for _ in range(rng.randrange(0, 3)):
                cor[rng.randrange(n)] = np.array([rng.randrange(p) for _ in range(n)])
            m = PrimeFieldMatrix(p, random_permutation(n, rng).array, cor)
            dense = m.dense()
            want = round(np.linalg.det(dense.astype(float))) % p
            assert m.det() == want

    def test_power(self):
        g = perm.parse_cycles("(0 1 2 3 4 5 6)", 7)
        m = permutation_matrix(g, 3)
        assert m.power(7).is_identity()
        assert not m.power(3).is_identity()


class TestFixedSpace:
    def test_identity(self):
        assert fixed_space_dim(identity_matrix(5, 8)) == 8

    def test_permutation_matrix_dim_is_cycle_count(self):
        rng = random.Random(17)
        for _ in range(40):
            n = rng.randrange(2, 100)
            g = random_permutation(n, rng)
            p = rng.choice([2, 3, 5, 7])
            m = permutation_matrix(g, p)
            want = len(g.cycles(include_fixed=True))
            assert fixed_space_dim(m) == want

    def test_structured_matches_dense(self):
        # 0..12 correction columns, each at a random point, at a fixed point
        # of g or in g's longest cycle; columns sparse or dense, with
        # entries 1 and p - 1 among them so that components can cancel
        rng = random.Random(23)
        at_fixed = same_cycle = 0
        for _ in range(240):
            n = rng.randrange(3, 40)
            p = rng.choice([2, 3, 5, 3037000493])
            g = _random_with_fixed_points(n, rng)
            fixed = g.fixed_points()
            longest = max(g.cycles(include_fixed=True), key=len)
            cor = {}
            for _ in range(rng.randrange(0, 13)):
                j = rng.choice(rng.choice([range(n), fixed or range(n), longest]))
                v = np.zeros(n, dtype=np.int64)
                support = range(n) if rng.random() < 0.5 else rng.sample(range(n), 2)
                for i in support:
                    v[i] = rng.choice([0, 1, p - 1, rng.randrange(p)])
                cor[j] = v
            m = PrimeFieldMatrix(p, g.array, cor)
            assert fixed_space_dim(m) == dense_fixed_space_dim(m)
            at_fixed += any(j in fixed for j in m.cor)
            same_cycle += sum(j in longest for j in m.cor) >= 2
        assert at_fixed >= 50 and same_cycle >= 50


def _random_with_fixed_points(n, rng):
    """A random permutation of degree n fixing about a third of the points."""
    points = list(range(n))
    rng.shuffle(points)
    moved = points[: n - n // 3]
    cycles, i = [], 0
    while i < len(moved):
        size = rng.randrange(2, 9)
        cycles.append(moved[i : i + size])
        i += size
    return perm.from_cycles(n, cycles)


def g_handle_points():
    """Map G's two lowest free (1)-handles, as four designated points."""
    h1, h2 = basic_map("G").find_handles(1)[:2]
    return h1.points + h2.points


class TestTripleConstruction:
    def test_g_over_small_fields(self):
        g = basic_map("G")
        for p, t1 in ((2, 1), (3, 2), (5, 2), (5, 3), (7, 3)):
            tri = build_linear_triple(g, p, t1, g_handle_points())
            assert fixed_space_dim(tri.x) == len(g.x.cycles(include_fixed=True)) - 2
            assert fixed_space_dim(tri.y) == len(g.y.cycles(include_fixed=True))

    def test_x_modification_involution_commutes(self):
        # directly: x'^2 = 1 and x' xi = xi x', for any toy handle data
        from beauville.linlift import _x_modification

        g = basic_map("G")
        handles = g.find_handles(1)
        pts = (handles[0].a, handles[0].b, handles[1].a, handles[1].b)
        for p, t1 in ((3, 2), (5, 2)):
            xp = _x_modification(p, g.n, t1, *pts)
            assert (xp @ xp).is_identity()
            xi = permutation_matrix(g.x, p)
            assert (xp @ xi) == (xi @ xp)

    def test_rejects_bad_field_data(self):
        g = basic_map("G")
        with pytest.raises(LiftError, match="prime"):
            build_linear_triple(g, 6, 1, g_handle_points())
        with pytest.raises(LiftError, match="generator"):
            build_linear_triple(g, 7, 2, g_handle_points())  # 2 has order 3 mod 7

    def test_trivial_modification_reduces_to_permutations(self):
        # with no modification, permutation matrices satisfy the relations
        g = basic_map("G")
        p = 5
        xi = permutation_matrix(g.x, p)
        y = permutation_matrix(g.y, p)
        assert (xi @ xi).is_identity()
        assert (y @ y @ y).is_identity()
        assert (xi @ y).power(7).is_identity()


class TestLargePrime:
    # the largest prime not above P_MAX; 2 generates its multiplicative group
    P = 3037000493

    def test_bound_is_the_int64_limit(self):
        assert P_MAX * P_MAX < 2**63 <= (P_MAX + 1) ** 2
        assert perm.is_prime(self.P)
        assert not any(perm.is_prime(q) for q in range(self.P + 1, P_MAX + 1))

    def test_arithmetic_exact_at_the_bound(self):
        # residues near p: a product of two overflows int64 unless it is
        # reduced before the next one is added; the reference uses Python
        # integers
        rng = random.Random(31)
        p = self.P

        def matrix(n):
            cor = {
                rng.randrange(n): [p - 1 - rng.randrange(5) for _ in range(n)]
                for _ in range(3)
            }
            return PrimeFieldMatrix(p, random_permutation(n, rng).array, cor)

        for _ in range(10):
            n = rng.randrange(3, 7)
            a, b = matrix(n), matrix(n)
            want = (a.dense().astype(object) @ b.dense().astype(object)) % p
            assert np.array_equal((a @ b).dense(), want)
            assert a.det() == _leibniz_det(a.dense().tolist(), p)
            assert fixed_space_dim(a) == dense_fixed_space_dim(a)

    def test_lift_at_the_bound(self):
        tri = build_linear_triple(basic_map("G"), self.P, 2, g_handle_points())
        for mat in (tri.x, tri.y, tri.z):
            assert fixed_space_dim(mat) == dense_fixed_space_dim(mat)

    def test_rejects_p_above_the_bound_before_primality(self):
        # trial division up to sqrt(p) would take minutes here
        with pytest.raises(LiftError, match=str(P_MAX)):
            build_linear_triple(basic_map("G"), 1000000000000000003, 3, g_handle_points())
        with pytest.raises(LiftError, match=str(P_MAX)):
            build_linear_triple(basic_map("G"), P_MAX + 1, 3, g_handle_points())


def _leibniz_det(rows, p):
    """Determinant mod p as the signed sum over all permutations."""
    n = len(rows)
    total = 0
    for sigma in itertools.permutations(range(n)):
        inversions = sum(sigma[i] > sigma[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term *= rows[i][sigma[i]]
        total += term
    return total % p


class TestBeauvilleDims:
    def test_pair_differs_everywhere(self):
        rep = lift_pair(minimal_plan(0), 2, 1)
        assert rep.dims.passed
        d1, d2 = rep.dims.dims1, rep.dims.dims2
        assert all(a != b for a, b in zip(d1, d2))

    def test_self_comparison_fails(self):
        pair_plan = minimal_plan(0)
        rep = lift_pair(pair_plan, 3, 2)
        same = beauville_dims(rep.triple1, rep.triple1)
        assert not same.passed

    def test_dims_track_cycle_counts(self):
        rep = lift_pair(minimal_plan(0), 5, 2)
        w1 = build_pair(rep.plan).w1
        tri = rep.triple1
        assert fixed_space_dim(tri.y) == len(w1.y.cycles(include_fixed=True))
        assert fixed_space_dim(tri.x) == len(w1.x.cycles(include_fixed=True)) - 2

    def test_z_dims_are_cycle_counts_of_xy(self):
        # dim fix(z) of the lift equals the cycle count of the permutation
        # x y of the map, for both members of every minimal plan
        for plan in all_minimal_plans():
            rep = lift_pair(plan, 2, 1)
            pair = build_pair(rep.plan)
            for w, tri, dims in ((pair.w1, rep.triple1, rep.dims.dims1),
                                 (pair.w2, rep.triple2, rep.dims.dims2)):
                want = len((w.x * w.y).cycles(include_fixed=True))
                assert fixed_space_dim(tri.z) == dims[2] == want, plan

    def test_degree_penalty(self):
        rep = lift_pair(minimal_plan(0), 2, 1)
        assert rep.n == 294 + 42 * rep.extra_g_copies

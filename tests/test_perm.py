import math
import random
import tracemalloc

import pytest

from beauville import perm
from beauville.construct import ConstructionPlan, build_pair
from beauville.perm import (
    CycleType,
    Permutation,
    an_conjugate,
    conjugator_in_sn,
    from_cycles,
    group_order,
    identity,
    is_transitive,
    parse_cycles,
)


def brute_enumerate(gens):
    """Independent oracle: full closure under right multiplication."""
    n = gens[0].degree
    seen = {identity(n)}
    frontier = [identity(n)]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = p * g
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


def alternating_group(n):
    gens = [from_cycles(n, [(0, 1, 2)])]
    if n >= 4:
        gens.append(from_cycles(n, [tuple(range(n))]) if n % 2 else from_cycles(n, [tuple(range(1, n))]))
    return brute_enumerate(gens)


class TestBasics:
    def test_compose_convention(self):
        # left-to-right: (0 1) then (1 2) sends 0->1->2
        p = parse_cycles("(0 1)", 3)
        q = parse_cycles("(1 2)", 3)
        assert (p * q).cycle_string() == "(0 2 1)"

    def test_identity_laws(self):
        p = parse_cycles("(0 3)(1 4 2)", 5)
        e = identity(5)
        assert p * e == p
        assert e * p == p
        assert p * p.inverse() == e

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            parse_cycles("(0 1)", 2) * parse_cycles("(0 1)", 3)

    def test_not_bijection(self):
        with pytest.raises(ValueError):
            Permutation([0, 0, 1])

    def test_power(self):
        seven = parse_cycles("(0 1 2 3 4 5 6)")
        assert (seven ** 7).is_identity()
        assert (parse_cycles("(0 1 2)") ** 2) == parse_cycles("(0 2 1)")
        p = parse_cycles("(0 1)(2 3 4)", 5)
        assert p ** -1 == p.inverse()
        assert p ** -3 == p.inverse() ** 3

    def test_power_isolates_coprime_cycle(self):
        # a 7-cycle next to cycles of lengths 2 and 3: raising to lcm(2,3)
        # kills them and leaves a 7-cycle
        p = parse_cycles("(0 1)(2 3 4)(5 6 7 8 9 10 11)", 12)
        q = p ** math.lcm(2, 3)
        assert q.cycle_type() == CycleType([1] * 5 + [7])
        assert set(q.cycles()[0]) == set(range(5, 12))

    def test_cycle_type_and_parity(self):
        assert parse_cycles("(0 1)", 2).parity() == -1
        assert identity(5).cycle_type() == CycleType([1] * 5)
        p = parse_cycles("(0 1)(2 3)", 4)
        assert p.is_even

    def test_parity_multiplicative_and_conjugation_invariance(self):
        rng = random.Random(42)
        for _ in range(150):
            n = rng.randrange(2, 12)
            p = perm.random_permutation(n, rng)
            q = perm.random_permutation(n, rng)
            assert (p * q).parity() == p.parity() * q.parity()
            assert ((p * q).inverse()) == q.inverse() * p.inverse()
            g = perm.random_permutation(n, rng)
            assert p.conjugate_by(g).cycle_type() == p.cycle_type()

    def test_associativity(self):
        rng = random.Random(13)
        for _ in range(100):
            n = rng.randrange(1, 10)
            p, q, r = (perm.random_permutation(n, rng) for _ in range(3))
            assert (p * q) * r == p * (q * r)

    def test_cycle_string_roundtrip(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randrange(1, 15)
            p = perm.random_permutation(n, rng)
            assert parse_cycles(p.cycle_string(), degree=n) == p


class TestTransitivity:
    def test_basic(self):
        assert is_transitive([parse_cycles("(0 1 2 3 4)")], 5)
        assert not is_transitive([identity(2)], 2)
        with pytest.raises(ValueError):
            is_transitive([], 2)


class TestConjugatorInSn:
    def test_produces_a_conjugator(self):
        rng = random.Random(21)
        for _ in range(100):
            n = rng.randrange(2, 10)
            p = perm.random_permutation(n, rng)
            g = perm.random_permutation(n, rng)
            q = p.conjugate_by(g)
            sigma = conjugator_in_sn(p, q)
            assert p.conjugate_by(sigma) == q

    def test_deterministic(self):
        p = parse_cycles("(0 1 2)(3 4)", 6)
        q = parse_cycles("(1 3 5)(0 2)", 6)
        assert conjugator_in_sn(p, q) == conjugator_in_sn(p, q)

    def test_none_for_different_types(self):
        assert conjugator_in_sn(parse_cycles("(0 1)", 3), parse_cycles("(0 1 2)")) is None


class TestAnConjugate:
    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            an_conjugate(parse_cycles("(0 1)", 4), parse_cycles("(0 1)", 4))

    def test_three_cycles_small(self):
        # brute-force oracle over all of A_4: (0 1 2) and (0 2 1) are not
        # conjugate there, but become conjugate in A_5
        p4, q4 = parse_cycles("(0 1 2)", 4), parse_cycles("(0 2 1)", 4)
        brute = any(p4.conjugate_by(g) == q4 for g in alternating_group(4))
        assert brute is False
        assert an_conjugate(p4, q4) is False

        p5, q5 = parse_cycles("(0 1 2)", 5), parse_cycles("(0 2 1)", 5)
        brute = any(p5.conjugate_by(g) == q5 for g in alternating_group(5))
        assert brute is True
        assert an_conjugate(p5, q5) is True

    def test_self(self):
        p = parse_cycles("(0 1 2 3 4 5 6)", 7)
        assert an_conjugate(p, p)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_exhaustive_small_degrees(self, n):
        group = sorted(alternating_group(n), key=lambda p: p.images)
        # class lookup oracle by conjugation-orbit closure
        class_of = {}
        for p in group:
            if p in class_of:
                continue
            orbit = {p.conjugate_by(g) for g in group}
            for q in orbit:
                class_of[q] = p
        for p in group:
            for q in group:
                assert an_conjugate(p, q) == (class_of[p] == class_of[q]), (p, q)

    @pytest.mark.parametrize("n", [6, 7])
    def test_class_grid_and_samples(self, n):
        group = sorted(alternating_group(n), key=lambda p: p.images)
        class_of = {}
        reps = []
        for p in group:
            if p in class_of:
                continue
            orbit = {p.conjugate_by(g) for g in group}
            for q in orbit:
                class_of[q] = p
            reps.append(sorted(orbit, key=lambda r: r.images))
        # all ordered class pairs, three elements from each side
        for c1 in reps:
            for c2 in reps:
                for p in c1[:3]:
                    for q in c2[:3]:
                        assert an_conjugate(p, q) == (class_of[p] == class_of[q])
        rng = random.Random(n)
        for _ in range(1500):
            p = rng.choice(group)
            q = rng.choice(group)
            assert an_conjugate(p, q) == (class_of[p] == class_of[q])

    def test_conjugator_is_even_when_claimed(self):
        rng = random.Random(99)
        for _ in range(200):
            n = rng.randrange(3, 9)
            p = perm.random_even_permutation(n, rng)
            g = perm.random_even_permutation(n, rng)
            q = p.conjugate_by(g)
            assert an_conjugate(p, q)


class TestGroupOrder:
    def test_a5(self):
        gens = [parse_cycles("(0 1 2 3 4)"), parse_cycles("(0 1 2)", 5)]
        assert len(brute_enumerate(gens)) == 60
        assert group_order(gens) == 60

    def test_trivial_and_small(self):
        assert group_order([identity(4)]) == 1
        assert group_order([parse_cycles("(0 1)", 2)]) == 2
        s4 = [parse_cycles("(0 1)", 4), parse_cycles("(0 1 2 3)")]
        assert group_order(s4) == 24

    def test_intransitive_and_imprimitive(self):
        cases = [
            ([parse_cycles("(0 1 2)", 5), parse_cycles("(3 4)", 5)], 6),
            ([parse_cycles("(0 1)(2 3)", 7), parse_cycles("(4 5 6)", 7)], 6),
            # wreath-like: two blocks of two, swapped
            (
                [
                    parse_cycles("(0 1)", 4),
                    parse_cycles("(2 3)", 4),
                    parse_cycles("(0 2)(1 3)", 4),
                ],
                8,
            ),
        ]
        for gens, want in cases:
            assert group_order(gens) == want == len(brute_enumerate(gens))

    def test_matches_enumeration_on_random_groups(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randrange(3, 8)
            gens = [perm.random_permutation(n, rng) for _ in range(2)]
            assert group_order(gens) == len(brute_enumerate(gens))

    def test_upper_bound_shortcut(self):
        n = 30
        rng = random.Random(11)
        gens = [perm.random_even_permutation(n, rng) for _ in range(2)]
        bound = math.factorial(n) // 2
        got = group_order(gens, upper_bound=bound)
        assert got <= bound

    def test_unreachable_bound_is_inconclusive(self):
        from beauville.perm import OrderInconclusive

        gens = [parse_cycles("(0 1)", 3), parse_cycles("(1 2)", 3)]
        with pytest.raises(OrderInconclusive):
            group_order(gens, upper_bound=12, max_rounds=50)

    def test_invalid_bound_detected(self):
        gens = [parse_cycles("(0 1 2 3 4)"), parse_cycles("(0 1 2)", 5)]
        with pytest.raises(ValueError, match="bound"):
            group_order(gens, upper_bound=30)  # |A_5| = 60 exceeds it

    def test_chain_memory_small_case(self):
        # n = 246: the chain's rows take about 7.5 MB as uint8 and about
        # 60 MB as int64.
        m = build_pair(ConstructionPlan(8, 3, "small_n")).w1
        target = math.factorial(m.n) // 2
        tracemalloc.start()
        try:
            assert group_order([m.x, m.y], upper_bound=target) == target
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20

    @pytest.mark.parametrize("n", [256, 257])
    def test_alternating_at_row_dtype_switch(self, n):
        # Rows hold points 0..n-1: uint8 up to n = 256, uint16 from 257.
        # (0 1 2) with the cycle on 0..n-1 (n odd) or 1..n-1 (n even)
        # generates A_n.
        cycle = tuple(range(n % 2 == 0, n))
        gens = [from_cycles(n, [(0, 1, 2)]), from_cycles(n, [cycle])]
        target = math.factorial(n) // 2
        assert group_order(gens, upper_bound=target) == target

import itertools
import math
import random
import re
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from beauville import perm
from beauville.atlas import basic_map
from beauville.compose import eval_expr
from beauville.construct import (
    S3_SHORTCUT_DEGREES,
    SMALL_CASE_DEGREES,
    ConstructionPlan,
    build_pair,
    minimal_plan,
    v_map,
)
from beauville.perm import (
    CycleType,
    Permutation,
    from_cycles,
    group_order,
    identity,
    is_transitive,
    parse_cycles,
)

from frozen_parse_cycles import parse_cycles as frozen_parse_cycles
from perm_helpers import brute_closure, equal_and_same_hash, power, random_permutation


def random_even_permutation(n, rng):
    """A random permutation, times (0 1) when it is odd."""
    p = random_permutation(n, rng)
    if not p.is_even:
        p = from_cycles(n, [(0, 1)]) * p
    return p


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
        seven = parse_cycles("(0 1 2 3 4 5 6)", 7)
        assert power(seven, 7).is_identity()
        assert power(parse_cycles("(0 1 2)", 3), 2) == parse_cycles("(0 2 1)", 3)
        p = parse_cycles("(0 1)(2 3 4)", 5)
        assert power(p, -1) == p.inverse()
        assert power(p, -3) == power(p.inverse(), 3)

    def test_power_isolates_coprime_cycle(self):
        # a 7-cycle next to cycles of lengths 2 and 3: raising to lcm(2,3)
        # kills them and leaves a 7-cycle
        p = parse_cycles("(0 1)(2 3 4)(5 6 7 8 9 10 11)", 12)
        q = power(p, math.lcm(2, 3))
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
            p = random_permutation(n, rng)
            q = random_permutation(n, rng)
            assert (p * q).parity() == p.parity() * q.parity()
            assert ((p * q).inverse()) == q.inverse() * p.inverse()
            g = random_permutation(n, rng)
            assert p.conjugate_by(g).cycle_type() == p.cycle_type()

    def test_associativity(self):
        rng = random.Random(13)
        for _ in range(100):
            n = rng.randrange(1, 10)
            p, q, r = (random_permutation(n, rng) for _ in range(3))
            assert (p * q) * r == p * (q * r)

    def test_cycle_string_roundtrip(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randrange(1, 15)
            p = random_permutation(n, rng)
            assert parse_cycles(p.cycle_string(), degree=n) == p


class TestEquality:
    def test_other_degrees_never_equal(self):
        assert Permutation([1, 0]) != Permutation([1, 0, 2])
        assert identity(3) != identity(4)
        assert from_cycles(4, [(0, 1)]) != parse_cycles("(0 1)", 2)
        assert all(identity(n) != identity(m) for n in range(1, 6) for m in range(1, 6) if n != m)

    def test_other_types_never_equal(self):
        assert (identity(3) == object()) is False
        assert identity(3) != object()
        assert identity(2) != (0, 1)

    def test_every_constructor_compares_and_hashes_equal(self):
        n = 7
        want = Permutation([1, 2, 0, 4, 3, 5, 6])  # (0 1 2)(3 4)
        g = parse_cycles("(0 5)(2 6)", n)
        made = [
            Permutation(list(want.images)),
            Permutation(np.array(want.images, dtype=np.int32)),
            Permutation(np.array(want.images, dtype=np.uint8)),
            parse_cycles("(0 1 2)(3 4)", n),
            parse_cycles("(1,2,0)(4,3)", n),
            from_cycles(n, [(1, 2, 0), (4, 3)]),
            parse_cycles("(1 2)", n) * parse_cycles("(0 1)(3 4)", n),
            want.inverse().inverse(),
            power(want, 7),
            power(want.inverse(), -1),
            want.conjugate_by(g).conjugate_by(g.inverse()),
        ]
        for p in made:
            assert equal_and_same_hash(p, want), p
        assert len({want, *made}) == 1
        assert equal_and_same_hash(power(want, 0), identity(n))
        assert equal_and_same_hash(power(want, 6), identity(n))
        assert equal_and_same_hash(want * want.inverse(), identity(n))

    def test_constructor_copies_the_callers_array(self):
        # a view of the caller's int64 array once became the image array:
        # writing to the caller's array changed p but not its stored hash
        base = np.arange(4, dtype=np.int64)
        p = Permutation(base[:])
        swapped = Permutation([1, 0, 2, 3])
        base[0], base[1] = 1, 0
        assert p.images == (0, 1, 2, 3)
        assert equal_and_same_hash(p, identity(4))
        assert p != swapped and hash(p) != hash(swapped)
        assert base.flags.writeable
        assert Permutation(base) == swapped and base.flags.writeable

    def test_trusted_arrays_compare_and_hash_equal(self):
        from beauville.atlas import basic_map
        from beauville.compose import k_compose, pick_handle, self_join
        from beauville.linlift import _as_permutation, permutation_matrix

        g, a = basic_map("G"), basic_map("A")
        joined = k_compose(g, pick_handle(g, 1), a, pick_handle(a, 1))
        selfjoined = self_join(g, *g.find_handles(1)[:2])
        lifted = permutation_matrix(a.x * a.y, 5)
        for p in (joined.x, joined.y, joined.t, selfjoined.x):
            assert equal_and_same_hash(p, Permutation(list(p.images)))
        assert equal_and_same_hash(_as_permutation(lifted.perm), a.x * a.y)


class TestTransitivity:
    def test_basic(self):
        assert is_transitive([parse_cycles("(0 1 2 3 4)", 5)], 5)
        assert not is_transitive([identity(2)], 2)
        with pytest.raises(ValueError):
            is_transitive([], 2)


class TestKernelRefusals:
    # the whole text of each refusal next to the closure, and the edges of
    # orbit and is_transitive that need no generator
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: perm.closure([], 10), "need at least one generator"),
            (
                lambda: perm.closure([identity(3), identity(4)], 10),
                "degree mismatch: 3 vs 4",
            ),
            (
                lambda: is_transitive([parse_cycles("(0 1)", 3)], 4),
                "generator degree mismatch",
            ),
            (lambda: is_transitive([], 2), "empty generator list with n > 1"),
        ],
        ids=["closure no generator", "closure degrees", "transitive degrees", "transitive empty"],
    )
    def test_refusals(self, call, message):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message

    @pytest.mark.parametrize("n", [0, 1])
    def test_no_generator_on_at_most_one_point_is_transitive(self, n):
        assert is_transitive([], n) is True

    def test_orbit_without_generators_is_the_start(self):
        assert perm.orbit([], 3) == {3}


class TestGroupOrder:
    def test_a5(self):
        gens = [parse_cycles("(0 1 2 3 4)", 5), parse_cycles("(0 1 2)", 5)]
        assert len(brute_closure(gens)) == 60
        assert group_order(gens) == 60

    def test_trivial_and_small(self):
        assert group_order([identity(4)]) == 1
        assert group_order([parse_cycles("(0 1)", 2)]) == 2
        s4 = [parse_cycles("(0 1)", 4), parse_cycles("(0 1 2 3)", 4)]
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
            assert group_order(gens) == want == len(brute_closure(gens))

    def test_matches_enumeration_on_random_groups(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randrange(3, 8)
            gens = [random_permutation(n, rng) for _ in range(2)]
            assert group_order(gens) == len(brute_closure(gens))

    def test_valid_bound_gives_the_order(self):
        n = 30
        rng = random.Random(11)
        gens = [random_even_permutation(n, rng) for _ in range(2)]
        bound = math.factorial(n) // 2
        assert group_order(gens, upper_bound=bound) == bound

    def test_bound_below_the_order_is_no_proof(self):
        # map A generates PSL(2, 13), of order 1092, with no 11-cycle: the
        # walk finds none, the closure counts 1092, and that proved order
        # raises against 182
        m = basic_map("A")
        with pytest.raises(ValueError, match="bound"):
            group_order([m.x, m.y], upper_bound=182)
        for bound in (1092, 2184):
            assert group_order([m.x, m.y], upper_bound=bound) == 1092

    def test_unreached_bound_still_gives_the_order(self):
        # |S_3| = 6 never reaches the bound 12: the closure counts it
        gens = [parse_cycles("(0 1)", 3), parse_cycles("(1 2)", 3)]
        assert group_order(gens, upper_bound=12) == 6

    def test_invalid_bound_detected(self):
        gens = [parse_cycles("(0 1 2 3 4)", 5), parse_cycles("(0 1 2)", 5)]
        with pytest.raises(ValueError, match="bound"):
            group_order(gens, upper_bound=30)  # |A_5| = 60 exceeds it

    def test_degree_mismatch_is_refused(self):
        gens = [parse_cycles("(0 1 2)", 3), parse_cycles("(0 1)", 4)]
        with pytest.raises(ValueError, match="generator degree mismatch"):
            group_order(gens)

    def test_oracle_memory_small_case(self):
        # n = 246: the giant test holds the walk's 7 image arrays, 2 KB
        # each, and the orbit of point 0
        m = build_pair(ConstructionPlan(8, 3, "small_n")).w1
        assert traced_peak_order(m) < 2**18

    def test_oracle_memory_largest_pair(self):
        # n = 589, the largest minimal, small or shortcut pair
        m = build_pair(minimal_plan(1)).w1
        assert m.n == 589
        assert traced_peak_order(m) < 2**18

    def test_bounded_proofs_are_pinned(self, monkeypatch):
        # the walk step at which the giant test meets its cycle, for the
        # bounded proofs of the 14 V_r maps (n = 36..216): a change to the
        # walk, its seed or the cycle test moves them
        checked = []
        check = perm._has_giant_cycle
        monkeypatch.setattr(perm, "_has_giant_cycle", lambda arr: checked.append(arr) or check(arr))
        steps = []
        for r in range(14):
            m = v_map(r)
            target = math.factorial(m.n) // 2
            checked.clear()
            assert group_order([m.x, m.y], upper_bound=target) == target
            steps.append(len(checked))
        assert steps == [20, 8, 14, 1, 8, 3, 2, 2, 8, 4, 15, 13, 6, 13]

    @pytest.mark.parametrize("n", [256, 257])
    def test_alternating_at_row_dtype_switch(self, n):
        # A_256 and A_257, the degrees where a stabilizer chain's rows
        # changed width.  (0 1 2) with the cycle on 0..n-1 (n odd) or
        # 1..n-1 (n even) generates A_n.
        cycle = tuple(range(n % 2 == 0, n))
        gens = [from_cycles(n, [(0, 1, 2)]), from_cycles(n, [cycle])]
        target = math.factorial(n) // 2
        assert group_order(gens, upper_bound=target) == target

    def test_verification_is_complete(self):
        # S_6: (3, 3] holds no prime, so no walk runs, and the closure
        # counts all 720 elements of a group given by three generators
        gens = [
            parse_cycles("(0 1 3)(4 5)", 6),
            parse_cycles("(0 1 3 4)(2 5)", 6),
            parse_cycles("(0 4 3)", 6),
        ]
        assert group_order(gens) == 720

    def test_matches_enumeration_sweep(self, monkeypatch):
        # Product replacement keeps the walk's state generating the group
        # (Celler et al., 1995), so the last state of each run's walk
        # generates a group of the order returned
        walks = []

        class Recorded(perm._Walk):
            def __init__(self, state, acc):
                super().__init__(state, acc)
                walks.append(self)

        monkeypatch.setattr(perm, "_Walk", Recorded)
        rng = random.Random(2017)
        for _ in range(300):
            n = rng.randrange(3, 8)
            gens = [random_permutation(n, rng) for _ in range(rng.randrange(1, 4))]
            want = len(brute_closure(gens))
            walks.clear()
            assert group_order(gens) == want, gens
            if walks:
                state = [Permutation(x.tolist()) for x in walks[-1].state]
                assert len(brute_closure(state)) == want, gens

    def test_random_walk_never_stalls_on_other_seeds(self, monkeypatch):
        # the walk meets a cycle of prime length in (n/2, n - 3] within
        # WALK_STEPS steps on all 1,628 runs, the 14 V_r maps and both
        # members of criterion 6's 30 pairs under rng seeds 0..19, 198 and
        # 225: a run that misses falls to the closure, which raises past
        # its cap.  Over seeds 0..299 the longest run took 66 steps, and
        # the mean 8.25.  Seeds 198 and 225 are kept because they hung an
        # earlier oracle
        maps = [v_map(r) for r in range(14)]
        maps += [m for pair in criterion_6_pairs() for m in (pair.w1, pair.w2)]
        for seed in [*range(20), 198, 225]:
            rng = SimpleNamespace(Random=lambda _, seed=seed: random.Random(seed))
            monkeypatch.setattr(perm, "random", rng)
            for m in maps:
                target = math.factorial(m.n) // 2
                assert group_order([m.x, m.y], upper_bound=target) == target, (seed, m.n)


class TestPrimitiveStop:
    """A cycle of prime length p, n/2 < p <= n - 3, in a transitive group
    makes it primitive, and then Jordan's theorem gives A_n: the order is
    n! with an odd generator, else n!/2, and a bound below it raises."""

    def test_odd_generators_give_the_symmetric_group(self):
        n = 12
        gens = [from_cycles(n, [(0, 1)]), from_cycles(n, [tuple(range(n))])]
        assert group_order(gens) == math.factorial(n)

    def test_bound_below_the_proved_order_raises(self):
        n = 101
        gens = [from_cycles(n, [(0, 1, 2)]), from_cycles(n, [tuple(range(n))])]
        bound = math.factorial(n) // 4
        with pytest.raises(ValueError, match="bound"):
            group_order(gens, upper_bound=bound)


class TestJordanStop:
    """The giant test's boundaries: each group below holds cycles of
    prime length that miss (n/2, n - 3] at one end, or is intransitive,
    so its order is counted, never taken for n!/2 or n!."""

    def test_transitive_imprimitive_group_with_p_cycles(self):
        # S_5 wr S_2 on 10 points, of order 2 * 120^2 = CLOSURE_CAP:
        # transitive with the blocks {0..4} and {5..9}, and (0 1 2 3 4) is
        # a 5-cycle with p = n/2.  A test without 2p > n would answer 10!
        gens = [
            parse_cycles("(0 1 2 3 4)", 10),
            parse_cycles("(0 1)", 10),
            parse_cycles("(0 5)(1 6)(2 7)(3 8)(4 9)", 10),
        ]
        assert is_transitive(gens, 10)
        assert group_order(gens) == 2 * 120**2 == perm.CLOSURE_CAP

    @pytest.mark.parametrize(
        "texts, n, want",
        [
            # A_5 = PSL(2, 5) on the projective line, infinity at 5:
            # z + 1 and -1/z; its 5-cycles have p > n - 3
            (["(0 1 2 3 4)", "(0 5)(1 4)"], 6, 60),
            # PGammaL(2, 8) on GF(8) = F_2[a]/(a^3 + a + 1), elements as
            # bit masks, infinity at 8: z + 1, az, 1/z and z^2.  Its
            # 7-cycles have p > n - 3, and it has no 5-cycle
            (
                ["(0 1)(2 3)(4 5)(6 7)", "(1 2 4 3 6 7 5)", "(0 8)(2 5)(3 6)(4 7)", "(2 4 6)(3 5 7)"],
                9,
                1512,
            ),
            # intransitive: A_7 on 0..6 of 10 points, with a 7-cycle
            (["(0 1 2 3 4 5 6)", "(0 1 2)"], 10, 2520),
        ],
        ids=["PSL(2,5) on 6", "PGammaL(2,8) on 9", "A_7 on 10"],
    )
    def test_primitive_or_intransitive_groups_are_counted(self, texts, n, want):
        gens = [parse_cycles(text, n) for text in texts]
        assert len(brute_closure(gens)) == want
        assert group_order(gens) == want

    @pytest.mark.parametrize(
        "text, n, want",
        [
            ("(0 1 2)(3 4)", 8, False),  # 3 < n/2
            ("(0 1)(2 3 4 5)", 8, False),  # 4 is not prime
            ("(0 1 2)(3 4 5)", 9, False),  # two 3-cycles
            ("(0 1 2)(3 4 5 6 7 8)", 9, False),  # 6 is not prime
            ("(0 1 2 3 4 5)", 12, False),  # 6 is not prime
            ("(0 1 2 3 4 5 6)", 9, False),  # 7 > n - 3
            ("(0 1 2 3 4 5 6)", 10, True),
            ("(0 1 2 3 4 5 6)(7 8 9 10 11)", 12, True),  # 7 > n/2, 5 is not
            ("(0 1 2 3 4)(5 6 7 8 9)", 10, False),  # 5 = n/2
            ("(0 1 2 3 4)(5 6 7)", 8, True),  # 5 = n - 3
        ],
    )
    def test_which_elements_yield_a_prime_cycle(self, text, n, want):
        assert perm._has_giant_cycle(parse_cycles(text, n).array) is want


class TestBoundedNo:
    """A group that is neither proved A_n nor S_n by the walk nor counted
    under the cap raises, naming both limits, and does so quickly."""

    @pytest.mark.parametrize("text", ["J", "I(2)I", "L(2)L"])
    def test_imprimitive_maps_raise_within_half_a_second(self, text):
        m = eval_expr(text)
        t0 = time.process_time()
        with pytest.raises(ValueError, match=f"{perm.WALK_STEPS} walk steps.*{perm.CLOSURE_CAP}"):
            group_order([m.x, m.y])
        assert time.process_time() - t0 < 0.5

    @pytest.mark.parametrize("text, mib", [("J", 9.6), ("I(2)I", 14.2), ("L(2)L", 24.1)])
    def test_imprimitive_maps_raise_within_a_memory_bound(self, text, mib):
        # the closure keeps each element as the bytes of one narrow row,
        # so a refusal at the cap of 28,800 elements stays under half of
        # what image tuples of n ints took (19.2, 28.4 and 48.2 MiB)
        m = eval_expr(text)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"more than {perm.CLOSURE_CAP} elements"):
                group_order([m.x, m.y])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= mib * 2**20


def criterion_6_pairs():
    """The 30 pairs of acceptance criterion 6: every minimal, small and
    shortcut pair."""
    plans = [minimal_plan(r) for r in range(14)]
    plans += [ConstructionPlan(r, 3, "small_n") for r in SMALL_CASE_DEGREES]
    plans += [ConstructionPlan(r, 3, "s3_shortcut") for r in S3_SHORTCUT_DEGREES]
    pairs = [build_pair(plan) for plan in plans]
    assert len(pairs) == 30
    return pairs


def traced_peak_order(m):
    """The tracemalloc peak, in bytes, of proving |<x, y>| = n!/2 for m."""
    target = math.factorial(m.n) // 2
    tracemalloc.start()
    try:
        assert group_order([m.x, m.y], upper_bound=target) == target
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# -- kernels against a pure-Python reference ----------------------------------


def naive_cycles(images):
    """Every cycle, fixed points included: follow each point until it
    returns, and keep the cycle at its least point."""
    out = []
    for start in range(len(images)):
        cyc = [start]
        while images[cyc[-1]] != start:
            cyc.append(images[cyc[-1]])
        if min(cyc) == start:
            out.append(tuple(cyc))
    return out


def naive_is_even(images):
    n = len(images)
    inversions = sum(images[i] > images[j] for i in range(n) for j in range(i + 1, n))
    return inversions % 2 == 0


def naive_power(images, k):
    """k-fold application (of the inverse for k < 0); large k rotates each
    cycle by k instead."""
    n = len(images)
    if abs(k) > 9:
        out = [None] * n
        for cyc in naive_cycles(images):
            for i, pt in enumerate(cyc):
                out[pt] = cyc[(i + k) % len(cyc)]
        return tuple(out)
    step = list(images)
    if k < 0:
        for a, b in enumerate(images):
            step[b] = a
    out = list(range(n))
    for _ in range(abs(k)):
        out = [step[a] for a in out]
    return tuple(out)


def naive_orbit(gens, start):
    seen = {start}
    while True:
        grown = seen | {g[a] for g in gens for a in seen}
        if grown == seen:
            return seen
        seen = grown


def random_images(rng):
    return [p.images for p in (random_permutation(rng.randrange(1, 61), rng) for _ in range(200))]


class TestKernelsAgainstReference:
    def test_cycle_data(self):
        rng = random.Random(60)
        for images in random_images(rng):
            p = Permutation(images)
            want = naive_cycles(images)
            lengths = [len(c) for c in want]
            assert p.cycles(include_fixed=True) == want
            assert p.cycles() == [c for c in want if len(c) > 1]
            assert p.cycle_type() == CycleType(lengths)
            assert p.order() == math.lcm(*lengths)
            assert p.is_even == naive_is_even(images)
            assert p.parity() == (1 if naive_is_even(images) else -1)

    def test_powers(self):
        rng = random.Random(61)
        big = 10**18 + 7
        for images in random_images(rng):
            p = Permutation(images)
            for k in [*range(-9, 10), big, -big]:
                assert power(p, k).images == naive_power(images, k), k

    def test_orbits(self):
        rng = random.Random(62)
        for _ in range(12):
            n = rng.randrange(1, 61)
            # a few short cycles each, so most sets are intransitive
            gens = []
            for _ in range(rng.randrange(1, 4)):
                pts = rng.sample(range(n), min(n, rng.randrange(1, 6)))
                gens.append(from_cycles(n, [pts]))
            for start in range(n):
                assert perm.orbit(gens, start) == naive_orbit([g.images for g in gens], start)
            assert is_transitive(gens, n) == (len(naive_orbit([g.images for g in gens], 0)) == n)


class TestCycleMemo:
    @pytest.fixture
    def passes(self, monkeypatch):
        """The degree of each cycle walk and of each vector pass."""
        got = SimpleNamespace(walks=[], lengths=[])
        real_walk, real_counts = perm._walk_cycles, perm._cycle_counts

        def counting_walk(images):
            got.walks.append(len(images))
            return real_walk(images)

        def counting_counts(arr):
            got.lengths.append(arr.size)
            return real_counts(arr)

        monkeypatch.setattr(perm, "_walk_cycles", counting_walk)
        monkeypatch.setattr(perm, "_cycle_counts", counting_counts)
        return got

    def test_lengths_come_from_one_pass_and_no_walk(self, passes):
        p = parse_cycles("(0 1 2)(3 4)", 7)
        for _ in range(2):
            assert p.order() == 6
            assert not p.is_even
            assert p.parity() == -1
            assert p.cycle_type() == CycleType([1, 1, 2, 3])
        assert p.cycle_type() is p.cycle_type()
        assert passes.walks == []
        assert passes.lengths == [7]
        # a power is a new permutation with a pass of its own
        assert power(p, 2).order() == 3
        assert passes.walks == []
        assert passes.lengths == [7, 7]

    def test_one_walk_per_permutation(self, passes):
        p = parse_cycles("(0 1 2)(3 4)", 7)
        assert p.cycles() == [(0, 1, 2), (3, 4)]
        assert len(p.cycles(include_fixed=True)) == 4
        assert p.cycle_string() == "(0 1 2)(3 4)"
        assert passes.walks == [7]
        assert passes.lengths == []
        # the walk is no source of lengths: they still take one pass
        assert p.order() == 6
        assert not p.is_even
        assert passes.walks == [7]
        assert passes.lengths == [7]

    def test_returned_lists_are_copies(self):
        p = parse_cycles("(0 1 2)(3 4)", 7)
        got = p.cycles()
        got.append((5, 6))
        got[0] = (9,)
        full = p.cycles(include_fixed=True)
        full.clear()
        assert p.cycles() == [(0, 1, 2), (3, 4)]
        assert p.cycles(include_fixed=True) == [(0, 1, 2), (3, 4), (5,), (6,)]


class TestRefusalMessages:
    # The exact texts are part of the interface: CLI errors and map
    # parsing report them.
    @pytest.mark.parametrize(
        "text, degree, message",
        [
            ("(0 1)(1 2)", None, "point 1 appears in two cycles"),
            ("(0,1)(3,3)", None, "point 3 appears in two cycles"),
            ("(0 1)(2 5)", 4, "point 5 out of range for degree 4"),
            ("(0 -1)", 3, "point -1 out of range for degree 3"),
            ("(0 -1)", None, "point -1 out of range for degree 1"),
            ("(0 1)()", None, "empty cycle in '(0 1)()'"),
            ("()(a)", None, "empty cycle in '()(a)'"),
            ("(a)()", None, "invalid literal for int() with base 10: 'a'"),
            ("0 1", None, "bad cycle notation: '0 1'"),
            ("(0 1", None, "bad cycle notation: '(0 1'"),
            ("(0 1) (2 3)", None, "invalid literal for int() with base 10: '1)'"),
            # Permutation([]) refuses an empty permutation; so does a parse
            ("id", 0, "a permutation needs degree >= 1, got 0"),
            # the degree is refused before any point is range-checked
            ("id", -3, "a permutation needs degree >= 1, got -3"),
        ],
    )
    def test_parse_cycles(self, text, degree, message):
        if degree is None:
            # any degree holding the text's points gives the message: the
            # least one
            degree = 1 + max(map(int, re.findall(r"-?\d+", text)), default=0)
        with pytest.raises(ValueError) as exc:
            parse_cycles(text, degree)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "cycles, degree, message",
        [
            ([(0, 1), (1, 2)], 3, "point 1 appears in two cycles"),
            ([(0, 1, 0)], 3, "point 0 appears in two cycles"),
            ([(2, 0), (0, 9)], 3, "point 0 appears in two cycles"),
            ([(3, 5), (5, 7)], 4, "point 5 out of range for degree 4"),
            ([(-1, 0)], 3, "point -1 out of range for degree 3"),
            ([(0, 10**30)], 3, f"point {10**30} out of range for degree 3"),
            ([], 0, "a permutation needs degree >= 1, got 0"),
            ([], -3, "a permutation needs degree >= 1, got -3"),
        ],
    )
    def test_from_cycles(self, cycles, degree, message):
        with pytest.raises(ValueError) as exc:
            from_cycles(degree, cycles)
        assert str(exc.value) == message

    def test_empty_cycles_are_skipped(self):
        assert from_cycles(5, [(0, 1), (), (2, 3, 4)]) == parse_cycles("(0 1)(2 3 4)", 5)
        assert from_cycles(3, [()]).is_identity()


def parse_outcome(parse, text, degree):
    """The permutation a parse returns, or the message of its ValueError."""
    try:
        return parse(text, degree)
    except ValueError as exc:
        return ("ValueError", str(exc))


def mutate(text, rng):
    """text with one to three seeded edits: a replaced, inserted or
    deleted character, a doubled stretch or a long run of digits."""
    alphabet = "0123456789 ,()-+_id\t\n\x0b\x0c\r\x1c\xa0\u0663a."
    for _ in range(rng.randrange(1, 4)):
        i = rng.randrange(len(text) + 1)
        op = rng.randrange(5)
        if op == 0 and text:
            i = min(i, len(text) - 1)
            text = text[:i] + rng.choice(alphabet) + text[i + 1:]
        elif op == 1:
            text = text[:i] + rng.choice(alphabet) + text[i:]
        elif op == 2:
            text = text[:i] + text[i + 1:]
        elif op == 3:
            j = rng.randrange(i, len(text) + 1)
            text = text[:j] + text[i:j] + text[j:]
        else:
            run = rng.choice(["0" * 17 + "1", "0" * 18 + "2", "9" * 18, "9" * 19, "1" * 25])
            text = text[:i] + run + text[i:]
    return text


class TestTokenizer:
    """The numpy tokenizer against the frozen token scan: the same
    permutation, or a ValueError with the same message."""

    def test_every_short_text(self):
        chars = "012 ,()-+_id"
        for length in range(5):
            for letters in itertools.product(chars, repeat=length):
                text = "".join(letters)
                for degree in (3, 100):
                    assert parse_outcome(parse_cycles, text, degree) == parse_outcome(
                        frozen_parse_cycles, text, degree
                    ), (text, degree)

    def test_seeded_mutations(self):
        rng = random.Random(16)
        for _ in range(3000):
            n = rng.choice([rng.randrange(1, 12), rng.randrange(12, 200)])
            text = random_permutation(n, rng).cycle_string()
            if rng.random() < 0.3:
                text = text.replace(" ", rng.choice([", ", ",", "  ", "\t"]))
            text = mutate(text, rng)
            for degree in (n, 2 * n):
                assert parse_outcome(parse_cycles, text, degree) == parse_outcome(
                    frozen_parse_cycles, text, degree
                ), (text, degree)

    def test_plain_texts_take_the_tokenizer(self):
        rng = random.Random(17)
        for n in (7, 100, 700):
            p = random_permutation(n, rng)
            text = p.cycle_string()
            for variant in (text, text.replace(" ", ", "), f" ( {text[1:-1]} ) "):
                assert perm._tokenize_cycles(variant.strip()) is not None, variant
                assert parse_cycles(variant, n) == p
        for text in (
            "id",
            "()",
            "(0 1)()",
            "(0 -1)",
            "(0 1) (2 3)",
            "(0 \u0663)",
            "(0 1_0)",
            "(0 " + "9" * 19 + ")",
        ):
            assert perm._tokenize_cycles(text) is None, text

    @pytest.mark.parametrize("text", [5, 2.5, None, b"(0 1)", ["(0 1)"]])
    def test_non_string_text_refused(self, text):
        with pytest.raises(ValueError, match="cycle text must be a string"):
            parse_cycles(text, 3)


class TestCycleLengths:
    """The pointer-doubling lengths against the walk, as multisets."""

    @staticmethod
    def check(p):
        got = p._all_lengths()
        assert got.dtype == np.int64
        assert sorted(got.tolist()) == sorted(map(len, perm._walk_cycles(p.array.tolist())))

    def test_every_permutation_up_to_degree_6(self):
        for n in range(1, 7):
            for images in itertools.permutations(range(n)):
                self.check(Permutation(images))

    def test_seeded_random_permutations(self):
        rng = random.Random(18)
        for _ in range(300):
            self.check(random_permutation(rng.randrange(1, 701), rng))

    @pytest.mark.parametrize("n", [1, 2, 7, 700])
    def test_identity_and_long_cycle(self, n):
        self.check(identity(n))
        cycle = from_cycles(n, [tuple(range(n))])
        self.check(cycle)
        assert cycle._all_lengths().tolist() == [n]

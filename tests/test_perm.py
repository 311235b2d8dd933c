import hashlib
import itertools
import math
import random
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from beauville import perm
from beauville.atlas import basic_map
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
from perm_helpers import brute_closure, random_permutation


# sha256 of the bounded proofs' orders and strong generating sets for the
# 14 V_r maps, each chain ended by the Jordan stop; see
# TestGroupOrder.test_bounded_proofs_are_pinned
V_MAP_CHAINS = "fda9cf490e8ade4c0f0751d471b6bc8f7c76e5c9403e71450b2031aa3dccb2f0"


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
        assert (seven ** 7).is_identity()
        assert (parse_cycles("(0 1 2)", 3) ** 2) == parse_cycles("(0 2 1)", 3)
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


def equal_and_same_hash(p, q):
    return p == q and q == p and hash(p) == hash(q)


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
            want ** 7,
            want.inverse() ** -1,
            want.conjugate_by(g).conjugate_by(g.inverse()),
        ]
        for p in made:
            assert equal_and_same_hash(p, want), p
        assert len({want, *made}) == 1
        assert equal_and_same_hash(want ** 0, identity(n))
        assert equal_and_same_hash(want ** 6, identity(n))
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
        # map A generates PSL(2, 13), of order 1092: a chain that passes
        # 182 short of a proof goes on, and the proved order raises
        m = basic_map("A")
        with pytest.raises(ValueError, match="bound"):
            group_order([m.x, m.y], upper_bound=182)
        for bound in (1092, 2184):
            assert group_order([m.x, m.y], upper_bound=bound) == 1092

    def test_unreached_bound_still_gives_the_order(self):
        # |S_3| = 6 never reaches the bound 12: the exact check ends it
        gens = [parse_cycles("(0 1)", 3), parse_cycles("(1 2)", 3)]
        assert group_order(gens, upper_bound=12) == 6

    def test_invalid_bound_detected(self):
        gens = [parse_cycles("(0 1 2 3 4)", 5), parse_cycles("(0 1 2)", 5)]
        with pytest.raises(ValueError, match="bound"):
            group_order(gens, upper_bound=30)  # |A_5| = 60 exceeds it

    def test_invalid_bound_detected_by_verify(self, monkeypatch):
        # with the walk standing still, the chain of map A stays at order
        # 14 until the stall rule runs verify(), which completes it to
        # |PSL(2, 13)| = 1092 > 500
        verified = []
        verify = perm._Chain.verify

        def recorded(chain):
            verified.append(chain.order)
            return verify(chain)

        monkeypatch.setattr(perm._Walk, "step", lambda walk, rng: None)
        monkeypatch.setattr(perm._Chain, "verify", recorded)
        m = basic_map("A")
        with pytest.raises(ValueError, match="bound"):
            group_order([m.x, m.y], upper_bound=500)
        assert verified[0] == 14

    def test_chain_memory_small_case(self):
        # n = 246: every transversal row of the chain would take about
        # 60 MB; the flat trees, one edge list per level, with no rows
        # built in the random phase, one shared base row and one array per
        # strong generator, peak near 0.06 MiB once the Jordan stop ends
        # the chain
        m = build_pair(ConstructionPlan(8, 3, "small_n")).w1
        assert traced_peak_order(m) < 1 * 2**20

    def test_chain_memory_largest_pair(self):
        # n = 589, the largest minimal, small or shortcut pair: every row
        # would take about 820 MB; the trees are one list of n edge
        # references per level, and the 3 levels built before the Jordan
        # stop peak near 0.12 MiB
        m = build_pair(minimal_plan(1)).w1
        assert m.n == 589
        assert traced_peak_order(m) < 2**18

    def test_chain_stores_each_piece_once(self, monkeypatch):
        # after map J's "no", which verify() finishes at 35 levels: a
        # level's tree is its edge list alone, every level's base row and
        # base edge are the chain's one read-only identity, each strong
        # generator is kept only as the inverse array the trees' edges
        # hold, and the bases and image lists refer to at most n int
        # objects
        chains = recorded_chains(monkeypatch)
        m = basic_map("J")
        group_order([m.x, m.y])
        (chain,) = chains
        assert len(chain.levels) == 35
        for lv in chain.levels:
            assert not hasattr(lv, "parent") and not hasattr(lv, "orbit")
            assert lv.rows[lv.base] is chain._id and lv.edge[lv.base] is chain._id
        assert not chain._id.flags.writeable
        edges = {id(inv) for lv in chain.levels for inv in lv.edge if inv is not None}
        assert all(id(inv) in edges for _, inv in chain.strong)
        points = {id(lv.base) for lv in chain.levels}
        points |= {id(pt) for lv in chain.levels for images, _ in lv.gens or () for pt in images}
        assert len(points) <= m.n

    def test_bounded_proofs_are_pinned(self, monkeypatch):
        # the orders and every strong generator, (entry level, inverse
        # array), of the bounded proofs for the 14 V_r maps (n = 36..216):
        # a change to how a strip applies the trees must keep them
        chains = []

        class Recorded(perm._Chain):
            def __init__(self, degree):
                super().__init__(degree)
                chains.append(self)

        monkeypatch.setattr(perm, "_Chain", Recorded)
        digest = hashlib.sha256()
        for r in range(14):
            m = v_map(r)
            target = math.factorial(m.n) // 2
            digest.update(f"{group_order([m.x, m.y], upper_bound=target)}\n".encode())
        assert len(chains) == 14
        for chain in chains:
            digest.update(f"{len(chain.strong)}\n".encode())
            for tag, inv in chain.strong:
                digest.update(f"{tag}:".encode())
                digest.update(inv.astype("<i8").tobytes())
        assert digest.hexdigest() == V_MAP_CHAINS

    def test_only_verify_keeps_rows(self, monkeypatch):
        # the random phase builds no row; verify() strips through the
        # same rows many times over and keeps them
        chains = []

        class Recorded(perm._Chain):
            def __init__(self, degree):
                super().__init__(degree)
                chains.append(self)

        monkeypatch.setattr(perm, "_Chain", Recorded)
        m = v_map(6)
        target = math.factorial(m.n) // 2
        assert group_order([m.x, m.y], upper_bound=target) == target
        (chain,) = chains
        assert chain.kept == 0
        assert all(list(lv.rows) == [lv.base] for lv in chain.levels)
        chain = s4_chain()
        while not chain.verify():
            pass
        assert chain.order == 24
        assert chain.kept > 0
        assert any(len(lv.rows) > 1 for lv in chain.levels)

    def test_rows_past_the_cache_are_not_kept(self, monkeypatch):
        # with no room for rows, every strip of verify() walks the tree's
        # edges
        monkeypatch.setattr(perm, "_ROW_CACHE_BYTES", 0)
        chain = s4_chain()
        while not chain.verify():
            pass
        assert chain.order == 24
        assert chain.kept == 0
        assert all(list(lv.rows) == [lv.base] for lv in chain.levels)

    @pytest.mark.parametrize("n", [256, 257])
    def test_alternating_at_row_dtype_switch(self, n):
        # A_256 and A_257, where the rows once changed from 1 to 2 bytes.
        # (0 1 2) with the cycle on 0..n-1 (n odd) or 1..n-1 (n even)
        # generates A_n.
        cycle = tuple(range(n % 2 == 0, n))
        gens = [from_cycles(n, [(0, 1, 2)]), from_cycles(n, [cycle])]
        target = math.factorial(n) // 2
        assert group_order(gens, upper_bound=target) == target

    def test_verification_is_complete(self):
        # S_6; a check of each level's own generators only stops at 600,
        # which does not divide 720
        gens = [
            parse_cycles("(0 1 3)(4 5)", 6),
            parse_cycles("(0 1 3 4)(2 5)", 6),
            parse_cycles("(0 4 3)", 6),
        ]
        assert group_order(gens) == 720

    def test_matches_enumeration_sweep(self, monkeypatch):
        # group_order, and a bare chain finished by verify() alone, with
        # no random elements to fill it first.  Product replacement keeps
        # the walk's state generating the group (Celler et al., 1995), so
        # the last state of each run's walk generates a group of the order
        # returned
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
            chain = chain_of(gens)
            while not chain.verify():
                pass
            assert chain.order == want, gens

    def test_random_walk_never_stalls_on_other_seeds(self, monkeypatch):
        # the random phase alone reaches a stop on all 1,628 runs, the 14
        # V_r maps and both members of criterion 6's 30 pairs under rng
        # seeds 0..19, 198 and 225, within 16 levels (13 at most over
        # seeds 0..299): a run that stalls falls back on the exact check,
        # and a chain past 16 levels is lost, both failing the test here.
        # On seeds 198 and 225 a walk stripped into a point stabilizer is
        # caught in a proper subgroup, and its chain passes 200 levels
        class Bounded(perm._Chain):
            def _enter(self, res, i):
                super()._enter(res, i)
                if len(self.levels) > 16:
                    raise AssertionError("the chain passed 16 levels")

            def verify(self):
                raise AssertionError("the random phase stalled short of n!/2")

        monkeypatch.setattr(perm, "_Chain", Bounded)
        maps = [v_map(r) for r in range(14)]
        maps += [m for pair in criterion_6_pairs() for m in (pair.w1, pair.w2)]
        for seed in [*range(20), 198, 225]:
            rng = SimpleNamespace(Random=lambda _, seed=seed: random.Random(seed))
            monkeypatch.setattr(perm, "random", rng)
            for m in maps:
                target = math.factorial(m.n) // 2
                assert group_order([m.x, m.y], upper_bound=target) == target, (seed, m.n)


def recorded_chains(monkeypatch):
    """The chains group_order builds, each with (top, order) after every
    add.  A chain left below the returned order was ended by the stop."""
    chains = []

    class Recorded(perm._Chain):
        def __init__(self, degree):
            super().__init__(degree)
            self.seen = []
            chains.append(self)

        def add(self, arr):
            super().add(arr)
            self.seen.append((self.top(), self.order))

    monkeypatch.setattr(perm, "_Chain", Recorded)
    return chains


class TestPrimitiveStop:
    """The Jordan stop needs levels 0 and 1 full, which make G
    2-transitive, hence primitive: a transitive group alone, or a chain
    order past 4^n with level 1 open, proves nothing."""

    def test_imprimitive_group_passes_4_to_the_n_without_stopping(self, monkeypatch):
        # map J: the chain passes 4^72 while level 1 is still open, and
        # <x, y> is a proper subgroup; a stop on the order alone would
        # answer A_72
        chains = recorded_chains(monkeypatch)
        m = basic_map("J")
        assert m.n == 72
        order = group_order([m.x, m.y])
        assert order < math.factorial(72) // 2
        (chain,) = chains
        assert any(top == 1 and seen > 4**72 for top, seen in chain.seen)
        assert chain.order == order

    def test_odd_generators_give_the_symmetric_group(self, monkeypatch):
        chains = recorded_chains(monkeypatch)
        n = 12
        gens = [from_cycles(n, [(0, 1)]), from_cycles(n, [tuple(range(n))])]
        assert group_order(gens) == math.factorial(n)
        (chain,) = chains
        assert chain.top() >= 2
        assert chain.order < math.factorial(n)

    def test_bound_below_the_proved_order_raises(self, monkeypatch):
        chains = recorded_chains(monkeypatch)
        n = 101
        gens = [from_cycles(n, [(0, 1, 2)]), from_cycles(n, [tuple(range(n))])]
        bound = math.factorial(n) // 4
        with pytest.raises(ValueError, match="bound"):
            group_order(gens, upper_bound=bound)
        (chain,) = chains
        assert chain.top() >= 2
        assert chain.order < bound


class TestJordanStop:
    """Levels 0 and 1 full make G 2-transitive, hence primitive, and a
    primitive group holding a cycle of prime length p <= n - 3 contains
    A_n (Jordan; Wielandt, Finite Permutation Groups, 1964, 13.9): once a
    generator, or a walk element that grew the chain, has such a cycle
    as a power, |G| is n!/2 or n!."""

    def test_largest_minimal_member_stops_at_three_levels(self, monkeypatch):
        chains = recorded_chains(monkeypatch)
        m = build_pair(minimal_plan(1)).w1
        n = m.n
        assert n == 589
        assert group_order([m.x, m.y]) == math.factorial(n) // 2
        (chain,) = chains
        assert chain.top() >= 2
        assert chain.order < 4**n
        assert len(chain.levels) == 3

    def test_transitive_imprimitive_group_with_p_cycles(self):
        # S_5 wr S_2 on 10 points, of order 2 * 120^2: transitive with the
        # blocks {0..4} and {5..9}, and (0 1 2 3 4) is a 5-cycle, 5 <= n - 3.
        # A stop that took level 0 full, transitivity alone, for
        # primitivity would answer 10!
        gens = [
            parse_cycles("(0 1 2 3 4)", 10),
            parse_cycles("(0 1)", 10),
            parse_cycles("(0 5)(1 6)(2 7)(3 8)(4 9)", 10),
        ]
        assert is_transitive(gens, 10)
        assert group_order(gens) == 2 * 120**2

    @pytest.mark.parametrize(
        "text, n, want",
        [
            ("(0 1 2)(3 4)", 8, True),  # the 3-cycle is its cube
            ("(0 1)(2 3 4 5)", 8, False),  # 2 divides 4
            ("(0 1 2)(3 4 5)", 9, False),  # two 3-cycles
            ("(0 1 2)(3 4 5 6 7 8)", 9, False),  # 3 divides 6
            ("(0 1 2 3 4 5)", 12, False),  # 6 is not prime
            ("(0 1 2 3 4 5 6)", 9, False),  # 7 > n - 3
            ("(0 1 2 3 4 5 6)", 10, True),
            ("(0 1 2 3 4 5 6)(7 8 9 10 11)", 12, True),  # 5 and 7 both
        ],
    )
    def test_which_elements_yield_a_prime_cycle(self, text, n, want):
        assert perm._yields_prime_cycle(parse_cycles(text, n).array) is want

    def test_only_elements_that_grew_the_chain_are_checked(self, monkeypatch):
        # map A (PSL(2, 13) on 14 points): its two generators and each
        # walk element that grew the chain, no more; its 7-elements have
        # two 7-cycles, so no check says yes, and verify() ends the run
        # at 1092
        checked = []
        grew = []  # per add before verify(), whether the order rose
        check, add, verify = perm._yields_prime_cycle, perm._Chain.add, perm._Chain.verify

        def counting(arr):
            checked.append(arr)
            return check(arr)

        def recorded(chain, *args):
            before = chain.order
            add(chain, *args)
            grew.append(chain.order > before)

        def verified(chain):
            # the elements verify() adds are no walk elements
            monkeypatch.setattr(perm._Chain, "add", add)
            return verify(chain)

        monkeypatch.setattr(perm, "_yields_prime_cycle", counting)
        monkeypatch.setattr(perm._Chain, "add", recorded)
        monkeypatch.setattr(perm._Chain, "verify", verified)
        m = basic_map("A")
        assert group_order([m.x, m.y]) == 1092
        assert any(grew[2:])
        assert len(checked) == 2 + sum(grew[2:])


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


def chain_of(gens):
    chain = perm._Chain(gens[0].degree)
    for g in gens:
        chain.add(g.array)
    return chain


def s4_chain():
    """A chain at order 12 for S_4, which verify() must extend."""
    return chain_of([parse_cycles("(0 3 2 1)", 4), parse_cycles("(1 3 2)", 4)])


class TestChain:
    def test_deeper_generator_extends_upper_orbits(self):
        # (1 2) fixes the base 0, so it enters at level 1; level 0's orbit
        # must still close under it
        chain = chain_of([parse_cycles("(0 1)", 3), parse_cycles("(1 2)", 3)])
        assert chain.order == 6
        assert chain.verify()

    def test_verify_runs_over_deeper_generators(self):
        # S_4: both levels are full, so the chain sits at 4 * 3 = 12.  The
        # Schreier generators of level 0 built from its own generator
        # (0 3 2 1) all sift; one built from (1 3 2), which entered at
        # level 1, does not
        chain = s4_chain()
        assert chain.order == 12
        assert not chain.verify()
        while not chain.verify():
            pass
        assert chain.order == 24

    def test_strong_generating_set_invariants(self, monkeypatch):
        # map J, whose "no" verify() finishes with 35 levels, 34 of them
        # open; the invariants are checked every 8 additions
        chains = []

        class Checked(perm._Chain):
            def __init__(self, degree):
                super().__init__(degree)
                self.adds = 0
                chains.append(self)

            def add(self, arr):
                super().add(arr)
                self.adds += 1
                if self.adds % 8 == 0:
                    check_strong_generating_set(self)

        monkeypatch.setattr(perm, "_Chain", Checked)
        m = basic_map("J")
        assert group_order([m.x, m.y]) < math.factorial(m.n) // 2
        (chain,) = chains
        assert chain.adds > 8
        assert len(chain.levels) == 35
        assert len(chain.open) == 34
        check_strong_generating_set(chain, every_row=True)


def check_strong_generating_set(chain, every_row=False):
    """Each strong generator fixes the bases above its entry level j and
    moves b_j.  Each level's orbit, the points with an edge, is closed
    under S^(i), and its size is the level's; the base's edge is the
    chain's identity, so the base is its own parent.  Every other edge is
    the inverse of a generator in S^(i) and takes its point to a parent
    one step nearer the base.  Each open level's tree is breadth-first
    over its generators, and each point's row maps it back to the base.
    Without every_row only the kept rows are read: a row built from the
    tree costs one gather per edge of its path."""
    bases = [lv.base for lv in chain.levels]
    for j, g in chain.strong:
        assert (g[bases[:j]] == bases[:j]).all()
        assert g[bases[j]] != bases[j]
    tags = np.array([j for j, _ in chain.strong])
    strong = np.array([g for _, g in chain.strong])
    open_levels = set(chain.open)
    for i, lv in enumerate(chain.levels):
        points = [pt for pt, inv in enumerate(lv.edge) if inv is not None]
        assert len(points) == lv.size
        in_orbit = np.zeros(chain.n, dtype=bool)
        in_orbit[points] = True
        assert in_orbit[strong[tags >= i][:, points]].all(), f"level {i} not closed"
        assert lv.edge[lv.base] is chain._id
        level_gens = {id(g) for j, g in chain.strong if j >= i}
        depth = {lv.base: 0}
        for pt in points:
            # walk up to a point of known depth, each edge a generator's
            # inverse taking its point to a parent in the orbit; a walk
            # longer than the orbit has met a cycle
            path = []
            while pt not in depth:
                inv = lv.edge[pt]
                assert id(inv) in level_gens
                path.append(pt)
                pt = inv.item(pt)
                assert in_orbit[pt] and len(path) <= len(points)
            for child in reversed(path):
                depth[child] = depth[pt] + 1
                pt = child
        if i in open_levels:
            # an open level's tree is breadth-first over its generators:
            # each point lies as deep as its distance from the base
            distance = bfs_distances(lv.base, [images for images, _ in lv.gens])
            assert depth == distance, f"level {i} not breadth-first"
        for pt in points if every_row else list(lv.rows):
            assert lv.row(pt, lv.rows)[pt] == lv.base


def bfs_distances(start, image_lists):
    """Each point's distance from start in the graph of the image lists."""
    distance = {start: 0}
    queue = [start]
    for pt in queue:
        for images in image_lists:
            if images[pt] not in distance:
                distance[images[pt]] = distance[pt] + 1
                queue.append(images[pt])
    return distance


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
                assert (p ** k).images == naive_power(images, k), k

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
        assert (p ** 2).order() == 3
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
        got = perm._cycle_lengths(p.array)
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
        assert perm._cycle_lengths(cycle.array).tolist() == [n]

import dataclasses
from functools import lru_cache

import pytest

from beauville import certify, compose, construct
from beauville.atlas import BASIC_MAP_IDS, basic_map
from beauville.compose import eval_expr, join, pick_handle
from beauville.construct import (
    MINIMAL_DEGREES,
    S3_SHORTCUT_DEGREES,
    SMALL_CASE_DEGREES,
    CHAIN_RECIPES,
    RECIPES,
    VARIANTS,
    ConstructionPlan,
    PlanError,
    build_pair,
    minimal_plan,
    realize,
    schedule,
    shared_handles,
    stock_U,
    v_map,
    with_free_stock_handles,
    x_map,
)
from beauville.maps import HurwitzMap
from fold_helpers import fold_expr


@pytest.fixture
def counted(monkeypatch):
    """Counts of map validations, of `compose.join` calls and of the
    chain engine's joins."""
    counts = {"validate": 0, "join": 0, "chain_join": 0}
    validate, join_, chain_join = HurwitzMap._validate, compose.join, compose.Chain.join

    def counting(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(HurwitzMap, "_validate", counting("validate", validate))
    monkeypatch.setattr(compose, "join", counting("join", join_))
    monkeypatch.setattr(compose.Chain, "join", counting("chain_join", chain_join))
    return counts


def _chained_stock(s):
    """U_s as joined one piece at a time: floor(s/3) copies of G, then
    an A (s = 1 mod 3) or an E (s = 2 mod 3), all by (1)-handles."""
    out = basic_map("G")
    for _ in range(s // 3 - 1):
        out = join(out, 1, basic_map("G"))
    if s % 3 == 1:
        out = join(out, 1, basic_map("A"))
    elif s % 3 == 2:
        out = join(out, 1, basic_map("E"))
    return out


@lru_cache(maxsize=None)
def _folded(name):
    """An ingredient as `compose.join` folds build it: "U<s>" the stock,
    "V<r>" the chain map, "X<i>" a marker, a letter the basic map."""
    if name[0] == "U":
        return _chained_stock(int(name[1:]))
    if name[0] == "V":
        return fold_expr(CHAIN_RECIPES[int(name[1:])][0])
    if name[0] == "X":
        return fold_expr({"X1": "4G(1)A(1)A(1)A", "X2": "L(2)M"}[name])
    return basic_map(name)


def _folded_pair(plan):
    """A plan's members as joined one piece at a time: the pieces by their
    (1)-handles, then each marker, then the tail by (2)-handles.  Every
    ingredient comes from `compose.join` folds, not from the engine."""
    names, chain = plan._layout
    w = None
    for name in names:
        piece = _folded({"U": f"U{plan.s_star}", "V": f"V{chain}"}.get(name, name))
        w = piece if w is None else join(w, 1, piece)
    members = [join(w, 1, _folded(f"X{i}")) for i in (1, 2)]
    tail = RECIPES[plan.variant].tail
    if tail:
        members = [join(m, 2, basic_map(tail)) for m in members]
    return members


def _admitted_plans(r, stocks):
    out = []
    for variant in VARIANTS:
        for s in stocks:
            try:
                out.append(ConstructionPlan(r, s, variant))
            except PlanError:
                break
    return out


class TestStock:
    @pytest.mark.parametrize("s", [3, 4, 5, 6, 7, 8, 9])
    def test_degree_and_handles(self, s):
        u = stock_U(s)
        assert u.n == 14 * s
        assert len(u.find_handles(1)) >= 2
        assert u.prime_set() <= {2, 3, 11, 13}
        assert u.genus() == 0

    def test_five_has_two_free_handles(self):
        # the single-E choice at s = 2 mod 3 keeps two handles free at s=5
        assert len(stock_U(5).find_handles(1)) == 2

    @pytest.mark.parametrize("s", range(3, 73))
    def test_equals_the_chained_joins(self, s):
        assert stock_U(s) == _chained_stock(s)

    def test_rejects_small(self):
        with pytest.raises(PlanError):
            stock_U(2)

    def test_a_stock_is_validated_once(self, counted):
        basic_map("G")
        stock_U.cache_clear()
        assert stock_U(600).n == 8400
        assert counted == {"validate": 1, "join": 0, "chain_join": 199}

    def test_huge_stock_is_refused_by_degree(self, counted):
        with pytest.raises(compose.CompositionError, match=r"^chain degree 14000000 exceeds"):
            stock_U(10**6)
        assert counted == {"validate": 0, "join": 0, "chain_join": 0}

    def test_stock_handle_pattern(self):
        # any free stock handle has its points in w-cycles of lengths 1, 13
        for s in (3, 4, 5, 6):
            u = stock_U(s)
            for h in u.find_handles(1):
                la = len(u.w_cycles.cycle_of(h.a))
                lb = len(u.w_cycles.cycle_of(h.b))
                assert sorted((la, lb)) == [1, 13]


class TestVMaps:
    @pytest.mark.parametrize("r", range(14))
    def test_published_conformance(self, r):
        expr, d_r, pre, post, p_r, lp = CHAIN_RECIPES[r]
        m = v_map(r)  # raises on any mismatch
        assert m.n == d_r
        assert tuple(m.w_cycles.lengths()) == tuple(sorted(pre + post))
        h = pick_handle(m, 1)
        assert len(m.w_cycles.cycle_of(h.a)) == 1
        assert len(m.w_cycles.cycle_of(h.b)) == pre[1]
        assert lp == pre[1] + 13

    @pytest.mark.parametrize("r", range(14))
    def test_certifying_cycle_is_useful(self, r):
        m = v_map(r)
        p_r = CHAIN_RECIPES[r][4]
        assert p_r in [len(u.cycle) for u in m.useful_cycles()]

    @pytest.mark.parametrize("r", range(14))
    def test_equals_the_join_fold(self, r):
        assert v_map(r) == _folded(f"V{r}")

    @pytest.mark.parametrize("r", range(14))
    def test_recipe_is_validated_once(self, r, counted):
        for map_id in BASIC_MAP_IDS:
            basic_map(map_id)
        counted.update(validate=0, chain_join=0)
        eval_expr(CHAIN_RECIPES[r][0])
        assert counted["validate"] == 1

    def test_specific_degrees(self):
        assert v_map(0).n == 42
        assert v_map(6).n == 216
        assert v_map(13).n == 195
        m13 = v_map(13)
        h = pick_handle(m13, 1)
        assert len(m13.w_cycles.cycle_of(h.b)) == 51


class TestMarkers:
    def test_x1(self):
        m = x_map(1)
        assert m.n == 210
        assert m.fixed_point_vector().as_tuple() == (6, 6, 0)
        assert len(m.find_handles(1)) == 3
        # chains of G and A only produce cycle lengths 1, 2, 13, 26
        assert m.prime_set() == frozenset({2, 13})
        assert m.tau() // 2 == 51

    def test_x2(self):
        m = x_map(2)
        assert m.n == 210
        assert m.fixed_point_vector().as_tuple() == (2, 0, 7)
        assert len(m.find_handles(1)) == 1
        assert m.prime_set() == frozenset({2, 3, 7, 13, 19, 29})
        assert m.tau() // 2 == 52

    @pytest.mark.parametrize("i", [1, 2])
    def test_equals_the_join_fold(self, i):
        assert x_map(i) == _folded(f"X{i}")

    def test_difference(self):
        d = x_map(1).fixed_point_vector() - x_map(2).fixed_point_vector()
        assert d.as_tuple() == (4, 6, -7)


class TestPlans:
    def test_variant_validation(self):
        with pytest.raises(PlanError):
            ConstructionPlan(6, 3, "standard")  # p_6 = 5 divides the 70-cycle
        with pytest.raises(PlanError):
            ConstructionPlan(0, 3, "shifted")
        with pytest.raises(PlanError):
            ConstructionPlan(2, 3, "r1_special")
        with pytest.raises(PlanError):
            ConstructionPlan(0, 2, "standard")
        with pytest.raises(PlanError):
            ConstructionPlan(14, 3)
        with pytest.raises(PlanError, match="integers"):
            ConstructionPlan(True, 3)
        with pytest.raises(PlanError, match="integers"):
            ConstructionPlan(0, 3.0)

    def test_minimal_degrees_match_published_table(self):
        for r in range(14):
            assert minimal_plan(r).degree == MINIMAL_DEGREES[r]

    def test_standard_degree_formula(self):
        for r in (0, 2, 3, 4, 5, 7, 12, 13):
            for s in (3, 4, 5, 6):
                plan = ConstructionPlan(r, s, "standard")
                assert plan.degree == 14 * s + CHAIN_RECIPES[r][1] + 210

    def test_shifted_bumps_small_stock(self):
        assert ConstructionPlan(6, 3, "shifted").s_star == 6
        assert ConstructionPlan(6, 4, "shifted").s_star == 7
        assert ConstructionPlan(6, 6, "shifted").s_star == 6
        assert ConstructionPlan(6, 3, "s3_shortcut").s_star == 3


class TestBuildPair:
    @pytest.mark.parametrize("r", range(14))
    def test_minimal(self, r):
        pair = build_pair(minimal_plan(r))
        assert pair.degree == MINIMAL_DEGREES[r]
        dv = (pair.w1.fixed_point_vector() - pair.w2.fixed_point_vector()).as_tuple()
        assert dv == (4, 6, -7)
        # the certifying prime divides exactly one cycle length per member
        for m in (pair.w1, pair.w2):
            divisible = [l for l in m.w_cycles.lengths() if l % pair.prime == 0]
            assert divisible == [pair.prime]
            assert pair.prime <= m.n - 3

    def test_missing_prime_cycle_names_member(self, monkeypatch):
        # r8_special merges the 47-cycle into one of length 83
        recipe = dataclasses.replace(construct.RECIPES["r8_special"], prime=47)
        monkeypatch.setitem(construct.RECIPES, "r8_special", recipe)
        with pytest.raises(PlanError, match=r"^W_1: hypothesis \(ii\): no w-cycle of length 47"):
            build_pair(minimal_plan(8))

    def test_nonminimal_stock(self):
        pair = build_pair(ConstructionPlan(0, 6, "standard"))
        assert pair.degree == 294 + 42

    def test_shared_handles_are_handles_of_both_members(self):
        pair = build_pair(ConstructionPlan(0, 6, "standard"))
        lo, hi = pair.plan.stock_range
        shared = shared_handles(pair.w1, pair.w2, lo, hi)
        assert len(shared) >= 2
        for h in shared:
            assert h in pair.w1.find_handles(1) and h in pair.w2.find_handles(1)
            assert all(lo <= p < hi for p in h.points)
        assert [min(h.points) for h in shared] == sorted(min(h.points) for h in shared)

    def test_small_cases(self):
        for r, n in SMALL_CASE_DEGREES.items():
            assert build_pair(ConstructionPlan(r, 3, "small_n")).degree == n

    @pytest.mark.parametrize("r", [4, 6, 10])
    def test_small_case_rejections(self, r):
        with pytest.raises(PlanError, match="divisible by"):
            ConstructionPlan(r, 3, "small_n")

    def test_s3_shortcut_degrees(self):
        for r, n in S3_SHORTCUT_DEGREES.items():
            assert build_pair(ConstructionPlan(r, 3, "s3_shortcut")).degree == n

    def test_members_are_valid_maps(self):
        pair = build_pair(minimal_plan(7))
        for m in (pair.w1, pair.w2):
            assert m.genus() == 0
            assert m.x.order() == 2 and m.y.order() == 3 and m.z.order() == 7


class TestSchedule:
    @pytest.mark.parametrize("r", range(14))
    def test_realize_equals_the_join_fold(self, r, monkeypatch):
        # every stock 3..60 of every variant, and 0-4 extra copies of G
        # on each: the realized arrays and the free (1)-handles are the
        # fold's, and so are the cover's and the lift's enlargement choices
        folded, by_inputs = {}, {}
        for plan in _admitted_plans(r, range(3, 73)):
            # the fold reads s only through the stock, as s*
            inputs = (plan.variant, plan.s_star if "U" in plan._layout[0] else None)
            if inputs not in by_inputs:
                by_inputs[inputs] = _folded_pair(plan)
            members = by_inputs[inputs]
            sched = schedule(plan)
            assert sched.degree == plan.degree == members[0].n
            assert sched.stock_range == plan.stock_range
            for m, arrays, handles in zip(members, realize(sched), sched.handles):
                for g, arr in zip("xyt", arrays):
                    assert arr.tobytes() == getattr(m, g).array.tobytes(), (plan, g)
                assert handles == tuple(m.find_handles(1)), plan
            folded[plan] = members

        def expected(plan, labels):
            for extra_g in range(5):
                bigger = ConstructionPlan(plan.r, plan.s + 3 * extra_g, plan.variant)
                lo, hi = bigger.stock_range
                shared = shared_handles(*folded[bigger], lo, hi if labels is None else lo + labels)
                if len(shared) >= 2:
                    return bigger, extra_g, shared
            return None

        monkeypatch.setattr(construct, "build_pair", lambda plan: plan)
        for plan in _admitted_plans(r, range(3, 61)):
            for labels in (None, 42):
                assert with_free_stock_handles(plan, labels) == expected(plan, labels), plan

    @pytest.mark.parametrize("r", range(14))
    def test_build_pair_validates_each_member_once(self, r, counted):
        plan = minimal_plan(r)
        schedule(plan)  # fills the ingredient and schedule caches
        counted.update(validate=0, chain_join=0)
        build_pair(plan)
        assert counted == {"validate": 2, "join": 0, "chain_join": 0}

    @pytest.mark.parametrize("r", range(14))
    def test_cover_validates_its_members_and_joins(self, r, counted):
        plan = minimal_plan(r)
        certify.certify_cover(plan)  # fills the ingredient and schedule caches
        counted.update(validate=0, chain_join=0)
        cov = certify.certify_cover(plan)
        joins = {"adjoin_E_2A": 3, "internal_join": 1}[cov.branch]
        assert counted == {"validate": 2 + joins, "join": 0, "chain_join": 0}

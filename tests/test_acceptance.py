"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line with its runtime against the stated budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.
"""

import math
import random
import time
from collections import Counter

import pytest

from beauville import perm
from beauville.atlas import BASIC_MAP_IDS, basic_map, published_row, validate_atlas
from beauville.certify import (
    certify_cover,
    certify_dhb,
    min_degree_search,
)
from beauville.compose import eval_expr, k_compose, merge_law_check, pick_handle
from beauville.construct import (
    MINIMAL_DEGREES,
    S3_SHORTCUT_DEGREES,
    SMALL_CASE_DEGREES,
    CHAIN_RECIPES,
    ConstructionPlan,
    PlanError,
    build_pair,
    minimal_plan,
    stock_U,
    v_map,
    x_map,
)
from beauville.frobenius import (
    BUNDLED_TABLES,
    bundled_table,
    conjugacy_classes,
    enumerate_group,
    frobenius_count,
)
from beauville.linlift import lift_pair
from beauville.maps import new_map
from beauville.perm import from_cycles, group_order

from perm_helpers import random_permutation


def report(criterion, started, budget):
    elapsed = time.time() - started
    print(f"[acceptance] criterion {criterion}: PASS in {elapsed:.2f}s (budget {budget}s)")
    assert elapsed < budget, f"criterion {criterion} exceeded its {budget}s budget"


def test_criterion_1_atlas_conformance():
    t0 = time.time()
    rep = validate_atlas()
    assert rep.ok, rep.failures()
    for mid in BASIC_MAP_IDS:
        m = basic_map(mid)
        row = published_row(mid)
        assert m.n == row.degree
        assert m.t.parity() == row.t_parity
        assert m.fixed_point_vector().as_tuple() == row.fixed_points
        assert m.handle_counts() == row.handles
        assert tuple(m.w_cycles.lengths()) == row.w_cycles
        # every published bold length is certified useful
        assert not (Counter(row.useful_lengths) - Counter(m.useful_lengths()))
    a = basic_map("A")
    assert group_order([a.x, a.y]) == 1092
    report(1, t0, 1)


def test_criterion_2_composition_laws():
    t0 = time.time()
    gg = eval_expr("G(1)G")
    assert gg.w_cycles.lengths() == (1, 1, 1, 1, 2, 13, 13, 13, 13, 26)
    lm = eval_expr("L(2)M")
    assert lm.w_cycles.lengths() == (1, 12, 14, 26, 42, 57, 58)
    assert lm.prime_set() == frozenset({2, 3, 7, 13, 19, 29})

    from beauville.compose import self_join

    rng = random.Random(0xACCE)
    joins = 0
    self_joins = 0
    while joins < 1000:
        left = basic_map(rng.choice(BASIC_MAP_IDS))
        for _ in range(rng.randrange(1, 4)):
            k = rng.choice([1, 2, 3])
            # occasionally join the map to itself instead
            lh = [h for h in left.find_handles(k) if h.mirror_paired]
            disjoint = [
                (a, b)
                for i, a in enumerate(lh)
                for b in lh[i + 1 :]
                if not set(a.points) & set(b.points)
            ]
            if disjoint and rng.random() < 0.2:
                h1, h2 = rng.choice(disjoint)
                res = self_join(left, h1, h2)
                self_joins += 1
                assert res.n == left.n
                assert res.genus() == left.genus() + 1
                dv = left.fixed_point_vector() - res.fixed_point_vector()
                assert dv.as_tuple() == (4, 0, 0)
                assert res.tau() // 2 == left.tau() // 2 + 1
                left = res
                continue
            right = basic_map(rng.choice(BASIC_MAP_IDS))
            rh = [h for h in right.find_handles(k) if h.mirror_paired]
            if not lh or not rh:
                continue
            h1, h2 = rng.choice(lh), rng.choice(rh)
            res = k_compose(left, h1, right, h2)
            joins += 1
            dv = left.fixed_point_vector() - (res.fixed_point_vector() - right.fixed_point_vector())
            assert dv.as_tuple() == (4, 0, 0)
            assert res.genus() == left.genus() + right.genus()
            assert res.tau() // 2 == left.tau() // 2 + right.tau() // 2 + 1
            assert res.t.parity() == left.t.parity() * right.t.parity()
            assert merge_law_check(left, h1, right, h2, res).ok
            left = res
    assert self_joins >= 50
    report(2, t0, 10)


def test_criterion_3_chain_map_conformance():
    t0 = time.time()
    for r in range(14):
        expr, d_r, pre, post, p_r, l_prime = CHAIN_RECIPES[r]
        m = v_map(r)
        assert m.n == d_r
        assert tuple(m.w_cycles.lengths()) == tuple(sorted(pre + post))
        h = pick_handle(m, 1)
        assert len(m.w_cycles.cycle_of(h.a)) == 1
        assert len(m.w_cycles.cycle_of(h.b)) == pre[1]
        assert l_prime == pre[1] + 13
        # after the stock join the designated cycle grows by 13
        w = k_compose(stock_U(3), stock_U(3).find_handles(1)[-1], m, h)
        merged = w.w_cycles.cycle_of(h.b + stock_U(3).n)
        assert len(merged) == l_prime
    report(3, t0, 5)


def test_criterion_4_all_minimal_certificates():
    t0 = time.time()
    expected = [294, 589, 394, 367, 396, 439, 510, 329, 540, 457, 430, 459, 432, 447]
    for r in range(14):
        cert = certify_dhb(minimal_plan(r))
        assert cert.n == expected[r] == MINIMAL_DEGREES[r]
        assert cert.pair.prime == minimal_plan(r).prime
        assert cert.beauville.passed
        assert cert.jordan1.prime == cert.jordan2.prime == cert.pair.prime
    report(4, t0, 60)


def test_criterion_5_small_cases():
    t0 = time.time()
    expected = {
        0: 252, 1: 267, 2: 352, 3: 325, 5: 397, 7: 287,
        8: 246, 9: 345, 11: 375, 12: 390, 13: 405,
    }
    assert expected == SMALL_CASE_DEGREES
    for r, n in expected.items():
        cert = certify_dhb(ConstructionPlan(r, 3, "small_n"))
        assert cert.n == n
    for r in (4, 6, 10):
        with pytest.raises(PlanError, match="divisible by"):
            ConstructionPlan(r, 3, "small_n")
    shortcut = {1: 547, 6: 468, 9: 415, 10: 388, 11: 417}
    assert shortcut == S3_SHORTCUT_DEGREES
    for r, n in shortcut.items():
        cert = certify_dhb(ConstructionPlan(r, 3, "s3_shortcut"))
        assert cert.n == n
    report(5, t0, 60)


def test_criterion_6_independent_generation_oracle():
    t0 = time.time()
    pairs = []
    for r in range(14):
        if MINIMAL_DEGREES[r] <= 600:
            pairs.append(build_pair(minimal_plan(r)))
    for r in SMALL_CASE_DEGREES:
        if SMALL_CASE_DEGREES[r] <= 600:
            pairs.append(build_pair(ConstructionPlan(r, 3, "small_n")))
    for r in S3_SHORTCUT_DEGREES:
        if S3_SHORTCUT_DEGREES[r] <= 600:
            pairs.append(build_pair(ConstructionPlan(r, 3, "s3_shortcut")))
    assert len(pairs) == 30  # every minimal, small and shortcut pair
    for pair in pairs:
        target = math.factorial(pair.degree) // 2
        for m in (pair.w1, pair.w2):
            assert group_order([m.x, m.y], upper_bound=target) == target
    report(6, t0, 1)


def test_criterion_7_minimum_degree():
    t0 = time.time()
    res = min_degree_search()
    assert res.n == 168
    sigs = {frozenset((a, b)) for a, b in res.witnesses}
    assert frozenset(((0, 4, 6, 0), (0, 0, 0, 7))) in sigs
    assert frozenset(((0, 8, 3, 0), (0, 0, 0, 7))) in sigs
    report(7, t0, 0.1)


def test_criterion_8_double_cover():
    t0 = time.time()
    assert x_map(1).tau() // 2 == 51
    assert x_map(2).tau() // 2 == 52
    for r in range(14):
        cov = certify_cover(minimal_plan(r))
        assert cov.tau1 % 4 == 0 and cov.tau2 % 4 == 0
        expected = (8, 3, -7) if cov.branch == "adjoin_E_2A" else (8, 6, -7)
        assert cov.v_difference == expected
    report(8, t0, 60)


def _cross_oracle(table, gens):
    degree = gens[0].degree
    reps = table.representatives(degree=degree)
    eligible = [c.name for c in table.classes if c.rep_order in (1, 2, 3, 5, 7)]
    elements = enumerate_group(gens, cap=2000)
    classes = conjugacy_classes(elements, gens)
    class_of = {p: i for i, cl in enumerate(classes) for p in cl}
    idx = {nm: class_of[reps[nm]] for nm in eligible}
    inv_idx = {nm: idx[table.class_named(nm).inverse] for nm in eligible}
    for xn in eligible:
        for yn in eligible:
            tallies = Counter()
            for x in classes[idx[xn]]:
                for y in classes[idx[yn]]:
                    tallies[class_of[x * y]] += 1
            for zn in eligible:
                # xyz = 1 iff xy lies in the inverse class of z
                want = tallies.get(inv_idx[zn], 0)
                assert frobenius_count(table, xn, yn, zn) == want, (xn, yn, zn)


def test_criterion_9_frobenius_cross_oracle():
    t0 = time.time()
    gens = {
        "s3": [perm.parse_cycles("(0 1)", 3), perm.parse_cycles("(0 1 2)", 3)],
        "s4": [perm.parse_cycles("(0 1)", 4), perm.parse_cycles("(0 1 2 3)", 4)],
        "a4": [perm.parse_cycles("(0 1 2)", 4), perm.parse_cycles("(0 1)(2 3)", 4)],
        "a5": [perm.parse_cycles("(0 1 2 3 4)", 5), perm.parse_cycles("(0 1 2)", 5)],
    }
    a = basic_map("A")
    gens["l2_13"] = [a.x, a.y]
    for name in BUNDLED_TABLES:
        table = bundled_table(name)  # its first load checks orthogonality exactly
        _cross_oracle(table, gens[name])
    report(9, t0, 120)


def test_criterion_10_linear_lift():
    t0 = time.time()
    t1_for = {2: 1, 3: 2, 5: 2}
    for r in range(14):
        for p in (2, 3, 5):
            rep = lift_pair(minimal_plan(r), p, t1_for[p])
            # build_linear_triple verified x^2 = y^3 = (xy)^7 = 1, det = 1
            assert rep.dims.passed
            assert all(a != b for a, b in zip(rep.dims.dims1, rep.dims.dims2))
    report(10, t0, 120)


def test_criterion_11_property_suite():
    t0 = time.time()
    # the degree bound of certify.beauville_check is tight: in A_7 and
    # A_8 the 7-cycle type is the only one of order 2, 3 or 7 whose
    # S_n-class splits into two A_n-classes
    for n in (7, 8):
        cyc = tuple(range(n)) if n % 2 else tuple(range(1, n))
        gens = [from_cycles(n, [(0, 1, 2)]), from_cycles(n, [cyc])]
        group = enumerate_group(gens, cap=20160)
        assert len(group) == math.factorial(n) // 2
        classes_of_type = Counter(
            cl[0].cycle_type().lengths
            for cl in conjugacy_classes(group, gens)
            if cl[0].order() in (2, 3, 7)
        )
        split = [t for t, k in classes_of_type.items() if k > 1]
        assert split == [(1,) * (n - 7) + (7,)], (n, classes_of_type)

    # useful-cycle persistence across every join the construction performs:
    # each ingredient's useful cycles survive (possibly embedded) into both
    # assembled members, and the certifying cycle is useful there
    def pieces(plan):
        from beauville.construct import SHIFT_TARGET, CHAIN_RECIPES

        v = plan.variant
        if v == "standard":
            out = [(stock_U(plan.s), 0), (v_map(plan.r), 14 * plan.s)]
        elif v in ("shifted", "s3_shortcut") and plan.r != 1:
            rs = SHIFT_TARGET[plan.r]
            out = [
                (basic_map("C"), 0),
                (stock_U(plan.s_star), 21),
                (v_map(rs), 21 + 14 * plan.s_star),
            ]
        elif v in ("r1_special",) or (v == "s3_shortcut" and plan.r == 1):
            out = [
                (stock_U(plan.s_star), 0),
                (v_map(5), 14 * plan.s_star),
                (basic_map("M"), 14 * plan.s_star + 187),
            ]
        elif v == "r8_special":
            out = [(stock_U(plan.s), 0), (v_map(12), 14 * plan.s)]
        else:  # small_n
            out = [(v_map(plan.r), 0)]
        marker_offset = sum(p.n for p, _ in out)
        return out, marker_offset

    plans = [minimal_plan(r) for r in range(14)]
    plans += [ConstructionPlan(r, 3, "small_n") for r in SMALL_CASE_DEGREES]
    plans += [ConstructionPlan(r, 3, "s3_shortcut") for r in S3_SHORTCUT_DEGREES]
    for plan in plans:
        pair = build_pair(plan)
        parts, marker_offset = pieces(plan)
        for i, member in ((1, pair.w1), (2, pair.w2)):
            member_useful = [set(u.cycle) for u in member.useful_cycles()]
            for piece, offset in parts + [(x_map(i), marker_offset)]:
                for u in piece.useful_cycles():
                    shifted = {p + offset for p in u.cycle}
                    assert any(
                        shifted <= s for s in member_useful
                    ), (plan, piece.n, offset)
            assert plan.prime in [len(s) for s in member_useful]

    # conjugation invariance of the map invariants under relabeling
    rng = random.Random(5)
    for mid in ("B", "H", "M"):
        m = basic_map(mid)
        sigma = random_permutation(m.n, rng)
        rel = new_map(m.n, *(g.conjugate_by(sigma) for g in (m.x, m.y, m.t)))
        assert rel.fixed_point_vector() == m.fixed_point_vector()
        assert rel.w_cycles.lengths() == m.w_cycles.lengths()
        assert rel.handle_counts() == m.handle_counts()
        assert rel.useful_lengths() == m.useful_lengths()
        assert rel.genus() == m.genus()
    report(11, t0, 30)

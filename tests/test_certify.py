import itertools
import json

import pytest

from beauville import certify, construct, linlift, maps, perm
from beauville.atlas import BASIC_MAP_IDS, basic_map
from beauville.cli import main
from beauville.certify import (
    CertificationError,
    beauville_check,
    certificate_maps,
    certificate_to_json,
    certify_cover,
    certify_dhb,
    jordan_certify,
    min_degree_search,
    verify_certificate,
)
from beauville.compose import CompositionError, eval_expr, self_join
from beauville.construct import ConstructionPlan, MapPair, build_pair, minimal_plan
from beauville.maps import MapError, UsefulCycle, new_map
from beauville.perm import Permutation, from_cycles, is_prime


class TestJordan:
    def test_map_a_prime_too_large(self):
        with pytest.raises(CertificationError, match=r"n - 3"):
            jordan_certify(basic_map("A"), 13)

    def test_absent_prime(self):
        with pytest.raises(CertificationError, match="no w-cycle"):
            jordan_certify(basic_map("G"), 11)

    def test_noncoprime(self):
        # G(1)G has cycles 1^4 2 13^4 26: a 2-cycle exists but 2 | 26
        m = eval_expr("G(1)G")
        with pytest.raises(CertificationError, match="coprime"):
            jordan_certify(m, 2)

    def test_not_prime(self):
        with pytest.raises(CertificationError, match="not prime"):
            jordan_certify(basic_map("A"), 6)

    def test_cycle_not_useful(self):
        # B's 3-cycle of w passes (ii) and (iii) but is not useful
        with pytest.raises(CertificationError, match=r"hypothesis \(iv\): the 3-cycle"):
            jordan_certify(basic_map("B"), 3)

    @pytest.mark.parametrize("r", range(14))
    def test_jordan_cycle_matches_useful_cycles(self, r):
        pair = build_pair(minimal_plan(r))
        for m in (pair.w1, pair.w2):
            useful = [u for u in m.useful_cycles() if len(u) == pair.prime]
            assert useful == [m.jordan_cycle(pair.prime)]

    def test_issues_on_construction(self):
        pair = build_pair(minimal_plan(0))
        cert = jordan_certify(pair.w1, 17)
        assert cert.n == 294 and cert.prime == 17
        assert len(cert.cycle) == 17
        assert cert.conclusion.endswith("<x,y> = A_294")


def reference_jordan_cycle(m, p):
    """jordan_cycle by the route that walks every cycle of w: the lengths
    from WCycles, and the cycle from every useful cycle of w."""
    lengths = m.w_cycles.lengths()
    if not is_prime(p):
        raise MapError(f"hypothesis (ii): {p} is not prime")
    if p not in lengths:
        raise MapError(
            f"hypothesis (ii): no w-cycle of length {p} (cycle type {list(lengths)})"
        )
    if p > m.n - 3:
        raise MapError(f"hypothesis (ii): p = {p} > n - 3 = {m.n - 3}")
    bad = [l for l in lengths if l % p == 0][1:]
    if bad:
        raise MapError(f"hypothesis (iii): p = {p} not coprime to cycle length {bad[0]}")
    useful = [u for u in m.useful_cycles() if len(u) == p]
    if not useful:
        raise MapError(f"hypothesis (iv): the {p}-cycle is not useful")
    return useful[0]


def _outcome(route, m, p):
    try:
        return route(m, p)
    except MapError as exc:
        return (type(exc), str(exc))


def _relabelled_b():
    """Map B with the points 0 and 11 swapped: the handle point 11 becomes
    the least point of the useful 5-cycle of w."""
    m = basic_map("B")
    images = list(range(m.n))
    images[0], images[11] = 11, 0
    sigma = Permutation(images)
    return new_map(m.n, *(g.conjugate_by(sigma) for g in (m.x, m.y, m.t)))


@pytest.fixture(scope="module")
def jordan_maps():
    """The atlas maps, V_0..V_13, X_1, X_2, every composable two-piece
    chain P(k)Q, the members of the 14 minimal pairs and of their 14
    covers, and B relabelled, by name."""
    got = {mid: basic_map(mid) for mid in BASIC_MAP_IDS}
    got.update((f"V_{r}", construct.v_map(r)) for r in range(14))
    got.update((f"X_{i}", construct.x_map(i)) for i in (1, 2))
    for a, k, b in itertools.product(BASIC_MAP_IDS, (1, 2, 3), BASIC_MAP_IDS):
        try:
            got[f"{a}({k}){b}"] = eval_expr(f"{a}({k}){b}")
        except CompositionError:
            pass
    for r in range(14):
        for kind, pair in (
            ("minimal", build_pair(minimal_plan(r))),
            ("cover", certify_cover(minimal_plan(r)).base.pair),
        ):
            got[f"{kind} r={r} W_1"], got[f"{kind} r={r} W_2"] = pair.w1, pair.w2
    got["B relabelled"] = _relabelled_b()
    return got


class TestJordanCycleRoutes:
    """jordan_cycle reads w's cycle type and walks only its p-cycle; the
    reference walks every cycle of w and finds every useful cycle."""

    def test_same_cycle_or_same_refusal_for_every_prime(self, jordan_maps):
        # of the 146 pairs of maps with a (k)-handle each, the 13 that
        # join B's one (2)-handle pick one without a reflection pair
        assert len(jordan_maps) == 14 + 14 + 2 + 133 + 56 + 1
        issued = 0
        for name, m in jordan_maps.items():
            for p in filter(is_prime, range(2, m.n + 1)):
                got = _outcome(maps.HurwitzMap.jordan_cycle, m, p)
                assert got == _outcome(reference_jordan_cycle, m, p), (name, p)
                issued += isinstance(got, UsefulCycle)
        assert issued == 198

    def test_handle_point_exclusion_moves_the_x_witness_on_a_5_cycle(self):
        # unexcluded, the least point 0 of the cycle would be its x-witness
        u = _relabelled_b().jordan_cycle(5)
        assert u == UsefulCycle((0, 10, 5, 11, 7), x_witness=5, y_witness=10)


class TestWorkCounts:
    """Certificates read w's cycle type, not its cycles: no re-verification
    walks a cycle or finds useful cycles, and issuing walks only the
    cycles of the x, y and t texts."""

    @pytest.fixture
    def spies(self, monkeypatch):
        got = {"walks": 0, "useful": 0}
        real_walk = perm._walk_cycles
        useful = maps.HurwitzMap.__dict__["_useful_cycles"]
        real_useful = useful.func

        def counting_walk(images):
            got["walks"] += 1
            return real_walk(images)

        def counting_useful(m):
            got["useful"] += 1
            return real_useful(m)

        monkeypatch.setattr(perm, "_walk_cycles", counting_walk)
        monkeypatch.setattr(useful, "func", counting_useful)
        return got

    @pytest.fixture(scope="class")
    def minimal_texts(self):
        return [certificate_to_json(certify_dhb(minimal_plan(r))) for r in range(14)]

    def test_reverifying_walks_no_cycle(self, minimal_texts, spies):
        assert all(verify_certificate(text) for text in minimal_texts)
        assert spies == {"walks": 0, "useful": 0}

    def test_issuing_walks_the_six_generator_texts(self, minimal_texts, spies):
        plan = minimal_plan(0)
        certificate_to_json(certify_dhb(plan))
        spies["walks"] = 0
        # one walk per cycle text: x, y and t of each member
        assert certificate_to_json(certify_dhb(plan)) == minimal_texts[0]
        assert spies == {"walks": 6, "useful": 0}


class TestBeauville:
    def test_standard_pair_passes(self):
        # orders 2, 3 and 7 make fixed-point counts fix cycle types, and
        # a pair's counts differ at every position, so cycle types decide
        for r in range(14):
            pair = build_pair(minimal_plan(r))
            ev = beauville_check(pair.w1, pair.w2)
            assert ev.passed, r
            for name in ("x", "y", "z"):
                method, ok, _ = ev.positions[name]
                assert ok and method == "cycle_type", (r, name)

    def test_same_map_fails(self):
        pair = build_pair(minimal_plan(0))
        ev = beauville_check(pair.w1, pair.w1)
        assert not ev.passed

    def test_symmetry(self):
        pair = build_pair(minimal_plan(12))
        assert beauville_check(pair.w1, pair.w2).passed == beauville_check(
            pair.w2, pair.w1
        ).passed

    def test_equal_x_types_fail_at_x(self):
        # same degree 84, same x cycle type, different y types: genus-0
        # chain A(1)E(1)G with v = (4,3,0) against the genus-1 self-joined
        # double-G with v = (4,0,0)
        m1 = eval_expr("G(1)A(1)E")
        gg = eval_expr("G(1)G")
        m2 = self_join(gg, *gg.find_handles(1)[:2])
        assert m1.n == m2.n == 84
        assert m1.fixed_point_vector().as_tuple() == (4, 3, 0)
        assert m2.fixed_point_vector().as_tuple() == (4, 0, 0)
        assert m1.x.cycle_type() == m2.x.cycle_type()
        ev = beauville_check(m1, m2)
        assert not ev.passed
        method, ok, detail = ev.positions["x"]
        assert method == "cycle_type" and not ok
        assert detail == f"cycle types equal: {m1.x.cycle_type()}, so conjugate in A_84"
        # z has no fixed point in either, so its types are equal too
        assert [ev.positions[k][1] for k in "xyz"] == [False, True, False]

    @pytest.mark.parametrize("n", [1, 8])
    def test_refuses_degrees_below_9(self, n):
        # the one-point map, and a genus-0 map of degree 8 (PGL(2, 7) on
        # the projective line over F_7); no map has degree 7
        if n == 1:
            x = y = t = from_cycles(1, [])
        else:
            x = from_cycles(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
            y = from_cycles(8, [(1, 2, 4), (5, 6, 7)])
            t = from_cycles(8, [(0, 3), (1, 2), (6, 7)])
        m = new_map(n, x, y, t)
        with pytest.raises(CertificationError, match=f"needs degree n >= 9, got {n}"):
            beauville_check(m, m)

    def test_cycle_types_decide_from_degree_9(self):
        # the lemma of BeauvilleEvidence, on cycle types: an even element
        # of prime order p in {2, 3, 7} has k p-cycles and n - pk fixed
        # points, and its S_n-class splits in A_n exactly when those
        # lengths are odd and distinct; that happens at n = 7 and 8 only
        splitting = {}
        for n in range(1, 601):
            for p in (2, 3, 7):
                for k in range(1, n // p + 1):
                    if (p - 1) * k % 2:
                        continue  # odd permutation
                    mult = {p: k, 1: n - p * k}
                    if all(l % 2 and m <= 1 for l, m in mult.items()):
                        splitting.setdefault(n, []).append((p, k))
        assert splitting == {3: [(3, 1)], 4: [(3, 1)], 7: [(7, 1)], 8: [(7, 1)]}

    def test_rejects_wrong_type(self):
        m = basic_map("A")

        class Fake:
            n = m.n
            x = m.x
            y = m.y
            z = m.y  # wrong order

        with pytest.raises(CertificationError, match="2,3,7"):
            beauville_check(m, Fake())


class TestDHB:
    @pytest.mark.parametrize("r", [0, 7, 8])
    def test_minimal(self, r):
        cert = certify_dhb(minimal_plan(r))
        assert cert.v_difference == (4, 6, -7)
        assert cert.jordan1.prime == cert.jordan2.prime == cert.pair.prime

    def test_serialization_roundtrip(self):
        cert = certify_dhb(minimal_plan(0))
        text = certificate_to_json(cert)
        assert verify_certificate(text)
        # byte-determinism
        assert text == certificate_to_json(certify_dhb(minimal_plan(0)))

    def test_tampered_certificate_rejected(self):
        cert = certify_dhb(minimal_plan(0))
        doc = json.loads(certificate_to_json(cert))
        doc["w2"] = doc["w1"]  # same triple twice cannot be Beauville
        assert not verify_certificate(json.dumps(doc))

    def test_tampered_prime_rejected(self):
        doc = json.loads(certificate_to_json(certify_dhb(minimal_plan(0))))
        doc["prime"] = 19  # no 19-cycle in these maps
        assert not verify_certificate(json.dumps(doc))

    def test_inconsistent_image_arrays_rejected(self):
        doc = json.loads(certificate_to_json(certify_dhb(minimal_plan(0))))
        imgs = doc["w1"]["x_images"]
        imgs[0], imgs[1] = imgs[1], imgs[0]
        assert not verify_certificate(json.dumps(doc))

    def test_intransitive_member_rejected(self):
        # 21 disjoint copies of map A have degree 294 and satisfy every
        # relation; only the transitivity check of map validation stops them
        doc = json.loads(certificate_to_json(certify_dhb(minimal_plan(0))))
        a = basic_map("A")
        for gen in ("x", "y", "t"):
            cycles = [
                tuple(14 * k + p for p in c)
                for k in range(21)
                for c in getattr(a, gen).cycles()
            ]
            perm = from_cycles(294, cycles)
            doc["w1"][gen] = perm.cycle_string()
            doc["w1"][f"{gen}_images"] = list(perm.images)
        with pytest.raises(CertificationError, match="w1: <x, y> is not transitive"):
            certificate_maps(doc)
        assert verify_certificate(json.dumps(doc)) is False

    MISSING = ("w1", "w2", "n", "prime", "jordan1", "jordan2", "v_difference")

    @pytest.mark.parametrize(
        "member, value",
        [(m, None) for m in MISSING] + [("prime", "7"), ("prime", 10**18 + 9)],
        ids=[*MISSING, "prime_text", "prime_huge"],
    )
    def test_missing_member_rejected(self, member, value):
        doc = json.loads(certificate_to_json(certify_dhb(minimal_plan(0))))
        if value is None:
            del doc[member]
        else:
            doc[member] = value
        assert verify_certificate(json.dumps(doc)) is False

    def test_tampered_v_difference_rejected(self):
        doc = json.loads(certificate_to_json(certify_dhb(minimal_plan(0))))
        doc["v_difference"] = [4, 6, 7]
        assert not verify_certificate(json.dumps(doc))

    def test_small_case_certificate(self):
        cert = certify_dhb(ConstructionPlan(8, 3, "small_n"))
        assert cert.n == 246


def _leaves(node, path=()):
    """(path, value) for every scalar under a JSON node."""
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _leaves(node[key], (*path, key))
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _leaves(item, (*path, i))
    else:
        yield path, node


def _tampered(value):
    """A changed value of the same type, and values of other types that
    Python calls equal: the int of a bool, the float of an int, and the
    bool of an int 0 or 1."""
    if isinstance(value, bool):
        return not value, int(value)
    if isinstance(value, int):
        return (value + 1, float(value)) + ((bool(value),) if value in (0, 1) else ())
    return value + "!", None


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


class TestVerifyEvidence:
    """Every stated field must equal the one derived again."""

    @pytest.fixture(scope="class")
    def dhb_doc(self):
        return json.loads(certificate_to_json(certify_dhb(minimal_plan(0))))

    @pytest.fixture(scope="class")
    def cover_doc(self):
        # r = 2 takes the internal join, which keeps the degree
        return json.loads(certificate_to_json(certify_cover(minimal_plan(2))))

    @pytest.mark.parametrize("kind", ["dhb", "cover"])
    def test_every_evidence_leaf_is_checked(self, kind, dhb_doc, cover_doc):
        doc = dhb_doc if kind == "dhb" else cover_doc
        assert verify_certificate(json.dumps(doc))
        paths = [p for p, _ in _leaves({k: v for k, v in doc.items() if k not in ("w1", "w2")})]
        assert len(paths) > 50
        for path in paths:
            for value in _tampered(_get(doc, path)):
                bad = json.loads(json.dumps(doc))
                _set(bad, path, value)
                assert verify_certificate(json.dumps(bad)) is False, (path, value)

    TAMPER = {
        "jordan1.cycle": lambda d: d["jordan1"]["cycle"].reverse(),
        "jordan1.x_witness": lambda d: _set(d, ("jordan1", "x_witness"), 0),
        "jordan1.conclusion": lambda d: _set(d, ("jordan1", "conclusion"), "<x,y> = A_5"),
        "jordan2.n": lambda d: _set(d, ("jordan2", "n"), d["n"] + 1),
        "jordan2.prime": lambda d: _set(d, ("jordan2", "prime"), 2),
        "beauville.x.ok": lambda d: _set(d, ("beauville", "x", "ok"), False),
        "beauville.x.ok_as_int": lambda d: _set(d, ("beauville", "x", "ok"), 1),
        "beauville.z.method": lambda d: _set(d, ("beauville", "z", "method"), "an_conjugate"),
        "schema": lambda d: _set(d, ("schema",), "beauville-certificate-v0"),
        "plan.r": lambda d: _set(d, ("plan", "r"), 5),
        "plan.variant": lambda d: _set(d, ("plan", "variant"), "small_n"),
        "plan.s_as_text": lambda d: _set(d, ("plan", "s"), "3"),
        "unknown_top_level_key": lambda d: _set(d, ("note",), "extra"),
        "unknown_key_in_w1": lambda d: _set(d, ("w1", "note"), "extra"),
        "missing_x_images": lambda d: d["w1"].pop("x_images"),
        # refused before a parse would allocate an array of 10^15 points
        "w1.degree_huge": lambda d: _set(d, ("w1", "degree"), 10**15),
        "kind_unknown": lambda d: _set(d, ("kind",), "whatever"),
    }

    COVER_TAMPER = {
        "extra_g_copies": lambda d: _set(d, ("extra_g_copies",), 5),
        "branch_swapped": lambda d: _set(d, ("branch",), "adjoin_E_2A"),
        "kind_dhb": lambda d: _set(d, ("kind",), "dhb"),
    }

    @pytest.mark.parametrize("field", sorted(TAMPER) + sorted(COVER_TAMPER))
    def test_named_tampering_rejected(self, field, dhb_doc, cover_doc):
        tamper = self.TAMPER.get(field) or self.COVER_TAMPER[field]
        doc = json.loads(json.dumps(dhb_doc if field in self.TAMPER else cover_doc))
        before = json.dumps(doc, sort_keys=True)
        tamper(doc)
        assert json.dumps(doc, sort_keys=True) != before
        assert verify_certificate(json.dumps(doc)) is False

    @pytest.mark.parametrize(
        "bad", ["", "not json", "[1, 2]", "7", '{"schema": "other"}', [], None, 7]
    )
    def test_malformed_input_is_false(self, bad):
        assert verify_certificate(bad) is False

    def test_deeply_nested_text_is_false(self):
        # deeper than the JSON decoder's recursion limit
        assert verify_certificate("[" * 10**5) is False


def _retype(doc, gen, value, new):
    """Write w1's image entry equal to value as new, which == takes for it."""
    images = doc["w1"][f"{gen}_images"]
    images[images.index(value)] = new


def _swapped(doc):
    """The members swapped and every claim restated from the swapped maps,
    so that only the v-difference tells which member carries X_1."""
    doc = json.loads(json.dumps(doc))
    doc["w1"], doc["w2"] = doc["w2"], doc["w1"]
    doc["jordan1"], doc["jordan2"] = doc["jordan2"], doc["jordan1"]
    doc["v_difference"] = [-v for v in doc["v_difference"]]
    for position in doc["beauville"].values():
        first, second = position["detail"].removeprefix("cycle types differ: ").split(" vs ")
        position["detail"] = f"cycle types differ: {second} vs {first}"
    return doc


class TestOneCheckPerFact:
    """A member section is read in one place, by verify and by lift
    --pair alike, and the v-difference of every kind is checked."""

    @pytest.fixture(scope="class")
    def text(self):
        # stock s = 6 leaves the two shared handles that lift --pair needs
        return certificate_to_json(certify_dhb(ConstructionPlan(0, 6, "standard")))

    # a JSON float is refused like a bool: it equals no int once read
    MEMBER_DEFECTS = {
        "true": (lambda d: _retype(d, "x", 1, True), "w1.x_images disagree with w1.x"),
        "false": (lambda d: _retype(d, "y", 0, False), "w1.y_images disagree with w1.y"),
        "zero_float": (lambda d: _retype(d, "t", 0, 0.0), "w1.t_images disagree with w1.t"),
        "five_float": (lambda d: _retype(d, "x", 5, 5.0), "w1.x_images disagree with w1.x"),
        "unknown_key": (lambda d: _set(d, ("w1", "note"), "extra"), "unknown field w1.note"),
    }

    @pytest.mark.parametrize("defect", sorted(MEMBER_DEFECTS))
    def test_member_defect_refused_by_verify_and_lift(self, defect, text, tmp_path, capsys):
        tamper, problem = self.MEMBER_DEFECTS[defect]
        doc = json.loads(text)
        tamper(doc)
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(doc))
        assert verify_certificate(path.read_text()) is False
        assert main(["lift", "--p", "3", "--t1", "2", "--pair", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: {problem}\n"

    def test_non_int_zero_refused_in_a_document(self, text):
        # a document not read from text can also hold 0.0 for 0, and a
        # float for any other image, such as 5.0 for 5
        for value, new in ((0, False), (0, 0.0), (5, 5.0)):
            doc = json.loads(text)
            _retype(doc, "x", value, new)
            with pytest.raises(CertificationError, match=r"^w1\.x_images disagree with w1\.x$"):
                certificate_maps(doc)

    @pytest.mark.parametrize(
        "plan",
        [minimal_plan(0), minimal_plan(1), minimal_plan(8), ConstructionPlan(8, 3, "small_n"),
         ConstructionPlan(10, 3, "s3_shortcut")],
        ids=["minimal_r0", "minimal_r1", "minimal_r8", "small_n_r8", "s3_shortcut_r10"],
    )
    def test_swapped_members_refused(self, plan):
        cert = certify_dhb(plan)
        assert cert.v_difference == certify.DHB_V_DIFFERENCE == (4, 6, -7)
        doc = json.loads(certificate_to_json(cert))
        assert verify_certificate(json.dumps(doc)) is True
        assert verify_certificate(json.dumps(_swapped(doc))) is False
        swapped = MapPair(cert.pair.w2, cert.pair.w1, cert.plan)
        with pytest.raises(
            CertificationError, match=r"^v-difference \(-4, -6, 7\), expected \(4, 6, -7\)$"
        ):
            certify._dhb_certificate(swapped, certify.DHB_V_DIFFERENCE)


class TestMinDegree:
    def test_published_bound(self):
        res = min_degree_search()
        assert res.n == 168
        assert res.witnesses == (
            ((0, 0, 0, 7), (0, 4, 6, 0)),
            ((0, 0, 0, 7), (0, 8, 3, 0)),
            ((0, 0, 0, 7), (1, 4, 3, 0)),
        )


class TestCover:
    @pytest.mark.parametrize("r", [0, 2])
    def test_branches(self, r):
        cov = certify_cover(minimal_plan(r))
        assert cov.tau1 % 4 == 0 and cov.tau2 % 4 == 0
        if cov.branch == "adjoin_E_2A":
            assert cov.v_difference == (8, 3, -7)
        else:
            assert cov.v_difference == (8, 6, -7)
        assert verify_certificate(certificate_to_json(cov))

    def test_tau_not_divisible_by_4_refused(self):
        # the uncovered r = 0 pair: only tau1 = 142 fails, so the check
        # must refuse when either value does
        base = certify_dhb(minimal_plan(0))
        with pytest.raises(CertificationError, match="^tau values not divisible by 4: 142, 144$"):
            certify._cover_certificate(base, "internal_join", 0)

    def test_internal_join_raises_genus(self):
        cov = certify_cover(minimal_plan(2))
        assert cov.branch == "internal_join"
        assert cov.base.pair.w2.genus() == 1
        assert cov.base.pair.w1.genus() == 0

    def test_builds_each_stock_once(self, monkeypatch):
        # r = 0 needs one extra copy of G: the tau parities and the free
        # handles at s = 3 come from schedules, so only s = 6 is built.
        built = []

        def counting(plan):
            built.append((plan.r, plan.s))
            return build_pair(plan)

        monkeypatch.setattr(certify, "build_pair", counting)
        monkeypatch.setattr(construct, "build_pair", counting)
        assert certify_cover(minimal_plan(0)).extra_g_copies == 1
        assert built == [(0, 6)]

    def test_skips_a_stock_it_already_built(self, monkeypatch):
        # the shifted plan at s = 3 already has s* = 6, so one extra copy
        # of G (s = 6) would assemble the degree-510 pair again; the cover
        # and the lift both go on to s = 9, and build only that pair
        built = []

        def counting(plan):
            built.append((plan.s, plan.degree))
            return build_pair(plan)

        for module in (certify, construct):
            monkeypatch.setattr(module, "build_pair", counting)
        assert certify_cover(minimal_plan(6)).extra_g_copies == 2
        assert built == [(9, 552)]
        built.clear()
        assert linlift.lift_pair(minimal_plan(6), 3, 2).extra_g_copies == 2
        assert built == [(9, 552)]

    def test_stockless_plan_is_never_built(self, monkeypatch):
        # a small_n plan has no stock, so no extra copy of G frees a
        # handle; the cover builds at most the pair it keeps, so none
        built = []

        def counting(plan):
            built.append((plan.s, plan.degree))
            return build_pair(plan)

        for module in (certify, construct):
            monkeypatch.setattr(module, "build_pair", counting)
        with pytest.raises(CertificationError, match="could not provision"):
            certify_cover(ConstructionPlan(0, 3, "small_n"))
        assert built == []

    @pytest.mark.parametrize("s", [3, 5])
    def test_every_class_verifies(self, s):
        seen = set()
        for r in range(14):
            cov = certify_cover(ConstructionPlan(r, s, construct.default_variant(r)))
            seen.add((cov.branch, cov.extra_g_copies))
            assert verify_certificate(certificate_to_json(cov)) is True, r
        assert {branch for branch, _ in seen} == {"adjoin_E_2A", "internal_join"}
        assert max(extra for _, extra in seen) == {3: 2, 5: 3}[s]

    def test_nonminimal_stock(self):
        cov = certify_cover(ConstructionPlan(0, 6, "standard"))
        assert cov.tau1 % 4 == 0 and cov.tau2 % 4 == 0
        assert cov.v_difference in ((8, 3, -7), (8, 6, -7))


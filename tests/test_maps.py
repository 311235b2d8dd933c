import random

import pytest

from beauville import perm
from beauville.atlas import basic_map
from beauville.maps import (
    HurwitzMap,
    IntransitiveError,
    MapError,
    RelationError,
    map_from_text,
    map_to_text,
    new_map,
)
from beauville.perm import identity

from perm_helpers import random_permutation


@pytest.fixture(scope="module")
def map_a():
    return basic_map("A")


class TestValidation:
    def test_basic_map_is_valid(self, map_a):
        assert map_a.n == 14

    def test_identity_x_is_intransitive(self, map_a):
        with pytest.raises(IntransitiveError):
            new_map(14, identity(14), map_a.y, map_a.t)

    def test_identity_t_breaks_reflection_relation(self, map_a):
        with pytest.raises(RelationError, match=r"\(yt\)\^2|\(xt\)\^2"):
            new_map(14, map_a.x, map_a.y, identity(14))

    def test_corrupted_y_is_caught(self, map_a):
        bad = list(map_a.y.images)
        # swap two images, keeping a bijection but breaking y^3 = 1
        bad[0], bad[1] = bad[1], bad[0]
        with pytest.raises(MapError):
            new_map(14, map_a.x, perm.Permutation(bad), map_a.t)


class TestInvariants:
    def test_fixed_point_vector_and_genus(self, map_a):
        assert map_a.fixed_point_vector().as_tuple() == (2, 2, 0)
        assert map_a.genus() == 0
        assert map_a.signature().degree() == 14

    def test_z_and_parity(self, map_a):
        assert map_a.z.order() == 7
        assert map_a.x.is_even and map_a.y.is_even and map_a.z.is_even

    def test_signature_identity_all_basic_maps(self):
        for mid in "ABCDEFGHIJKLMN":
            m = basic_map(mid)
            v = m.fixed_point_vector()
            assert 84 * (m.genus() - 1) + 21 * v.alpha + 28 * v.beta + 36 * v.gamma == m.n

    def test_genus_rejects_corrupt_degree(self, map_a):
        # a fake map with inconsistent counts cannot arise from new_map, so
        # drive the formula directly through a relabeled-but-padded fake
        class Fake(HurwitzMap):
            def __init__(self):
                pass

        f = Fake()
        f.n = 15
        f.x, f.y, f.t = map_a.x, map_a.y, map_a.t  # counts belong to n=14
        f.n = 15
        with pytest.raises(MapError, match="genus"):
            HurwitzMap.genus(f)


class TestHandles:
    def test_map_a_single_handle(self, map_a):
        handles = map_a.find_handles(1)
        assert len(handles) == 1
        assert map_a.find_handles(2) == [] and map_a.find_handles(3) == []
        (h,) = handles
        xy = map_a.x * map_a.y
        assert xy[h.a] == h.b
        assert map_a.x[h.a] == h.a and map_a.x[h.b] == h.b

    def test_handle_pair_unordered_once(self):
        for mid in "ABCDEFGHIJKLMN":
            m = basic_map(mid)
            seen = set()
            for h in m.all_handles():
                key = frozenset(h.points)
                assert key not in seen
                seen.add(key)


class TestWCycles:
    def test_map_a(self, map_a):
        assert map_a.w_cycles.lengths() == (1, 13)

    def test_membership_index(self, map_a):
        wc = map_a.w_cycles
        for cyc in wc:
            for pt in cyc:
                assert wc.cycle_of(pt) == cyc

    def test_prime_set(self, map_a):
        assert map_a.prime_set() == frozenset({13})

    def test_prime_set_single_prime_cycle(self):
        # a map whose w is a single n-cycle with n prime gives {n}: use B
        # restricted reasoning is unavailable, so check the arithmetic path
        m = basic_map("L")
        assert m.prime_set() == frozenset({2, 3, 7, 23, 29})


class TestUsefulCycles:
    def test_witnesses_satisfy_definition(self):
        for mid in "ABCDEFGHIJKLMN":
            m = basic_map(mid)
            handle_pts = m.handle_points
            for u in m.useful_cycles():
                members = set(u.cycle)
                assert m.x[u.x_witness] in members
                assert not (m.x[u.x_witness] == u.x_witness and u.x_witness in handle_pts)
                assert m.y[u.y_witness] in members

    def test_subset_of_w_cycles(self):
        m = basic_map("K")
        wc = {tuple(c) for c in m.w_cycles}
        for u in m.useful_cycles():
            assert tuple(u.cycle) in wc

    def test_found_once_per_map(self, monkeypatch):
        from beauville import maps

        made = []
        useful_cycle = maps.UsefulCycle
        monkeypatch.setattr(maps, "UsefulCycle", lambda *a: made.append(a) or useful_cycle(*a))
        k = basic_map("K")
        m = HurwitzMap(k.n, k.x, k.y, k.t)
        first = m.useful_cycles()
        second = m.useful_cycles()
        assert isinstance(first, list) and first == second and first is not second
        assert len(made) == len(first) > 0
        first.clear()
        assert m.useful_cycles() == second


class TestTau:
    def test_map_a(self, map_a):
        assert map_a.tau() == 6

    def test_identity_accepted(self):
        # the one-point map: x is the identity, a degenerate involution
        one = identity(1)
        assert new_map(1, one, one, one).tau() == 0

    def test_map_c_parity(self):
        m = basic_map("C")
        assert m.tau() == 8
        assert (m.tau() // 2) % 2 == 0  # one of the four even-tau/2 maps

    def test_rejects_non_involution(self, map_a):
        # tau counts the transpositions of x, and no map has an x that is
        # not an involution: the constructor refuses one of order 3
        with pytest.raises(RelationError, match=r"x\^2"):
            new_map(14, map_a.y, map_a.x, map_a.t)


class TestRelabeling:
    def test_conjugation_invariance(self):
        rng = random.Random(8)
        for mid in ("A", "B", "G", "M"):
            m = basic_map(mid)
            sigma = random_permutation(m.n, rng)
            r = new_map(m.n, *(g.conjugate_by(sigma) for g in (m.x, m.y, m.t)))
            assert r.fixed_point_vector() == m.fixed_point_vector()
            assert r.genus() == m.genus()
            assert r.handle_counts() == m.handle_counts()
            assert r.w_cycles.lengths() == m.w_cycles.lengths()
            assert tuple(r.useful_lengths()) == tuple(m.useful_lengths())


class TestSerialization:
    def test_roundtrip(self, map_a):
        text = map_to_text(map_a)
        again = map_from_text(text)
        assert again == map_a

    def test_roundtrip_whole_atlas(self):
        for mid in "ABCDEFGHIJKLMN":
            m = basic_map(mid)
            assert map_from_text(map_to_text(m)) == m

    def test_bad_header(self):
        with pytest.raises(MapError):
            map_from_text("nope\ndegree 3\n")

    def test_point_beyond_degree_rejected(self):
        text = "beauville-map v1\ndegree 3\nx (0 5)\ny id\nt id\n"
        with pytest.raises(ValueError):
            map_from_text(text)

    @pytest.mark.parametrize(
        "lines, message",
        [
            ("degree abc\nx id\ny id\nt id", "field degree: invalid literal for int() with base 10: 'abc'"),
            ("degree -3\nx id\ny id\nt id", "field degree: a permutation needs degree >= 1, got -3"),
            ("degree 3\nx id\ny (0 5)\nt id", "field y: point 5 out of range for degree 3"),
            ("degree 3\nx id\ny id\nt (0 1", "field t: bad cycle notation: '(0 1'"),
            (
                "degree 15999999999\nx (0 1)\ny (0 1 2)\nt id",
                "field degree: 15999999999 points cannot all be moved by 12 characters of x and y",
            ),
        ],
    )
    def test_bad_field_named(self, lines, message):
        with pytest.raises(MapError) as exc:
            map_from_text(f"beauville-map v1\n{lines}\n")
        assert str(exc.value) == message

    def test_missing_field(self):
        with pytest.raises(MapError, match="missing"):
            map_from_text("beauville-map v1\ndegree 3\nx id\ny id\n")

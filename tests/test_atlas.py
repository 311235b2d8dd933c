from collections import Counter

import pytest

from beauville import atlas
from beauville.atlas import (
    BASIC_MAP_IDS,
    basic_map,
    published_row,
    validate_atlas,
)
from beauville.maps import MapError, new_map
from beauville.perm import Permutation, group_order


class TestData:
    def test_fourteen_maps(self):
        assert len(BASIC_MAP_IDS) == 14
        for mid in BASIC_MAP_IDS:
            assert basic_map(mid).n == published_row(mid).degree

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            basic_map("Z")
        with pytest.raises(KeyError):
            published_row("Z")

    def test_row_degree_is_cycle_sum(self):
        for mid in BASIC_MAP_IDS:
            row = published_row(mid)
            assert sum(row.w_cycles) == row.degree

    def test_sample_rows(self):
        k = published_row("K")
        assert (k.degree, k.t_parity) == (72, 1)
        assert k.fixed_points == (4, 0, 2)
        assert k.handles == (1, 0, 0)
        assert sorted(k.w_cycles) == [1, 5, 17, 49]
        assert k.useful_lengths == (17,)
        d = published_row("D")
        assert (d.degree, d.t_parity) == (22, -1)
        assert d.fixed_points == (2, 1, 1)
        assert d.handles == (0, 1, 0)
        assert sorted(d.w_cycles) == [5, 6, 11]
        i = published_row("I")
        assert i.degree == 57 and i.handles == (0, 2, 0)


class TestConformance:
    def test_full_run(self):
        report = validate_atlas()
        assert report.ok, report.failures()
        # every map checks all six table fields plus genus
        for mid in BASIC_MAP_IDS:
            fields = report.results[mid]
            for name in (
                "degree",
                "t_parity",
                "fixed_points",
                "handles",
                "w_cycles",
                "useful_lengths",
                "genus",
            ):
                assert name in fields

    def test_map_a_group_order(self):
        m = basic_map("A")
        assert group_order([m.x, m.y]) == 1092

    def test_map_a_order_past_the_cap_is_a_failed_field(self, monkeypatch):
        # the atlas counts map A's closure under a cap of the published
        # order, so a larger group is a failed field, not a raise
        monkeypatch.setattr(atlas, "MAP_A_GROUP_ORDER", 1000)
        report = validate_atlas()
        assert not report.ok
        assert report.failures() == [("A", "group_order", "> 1000", 1000)]

    def test_monodromy_orders_divisible_by_42(self):
        # the group contains elements of orders 2, 3 and 7; several maps
        # land exactly on classical simple groups, which pins the
        # transcription far beyond the table fields
        import math

        known = {"A": 1092, "C": 168, "E": 504, "F": 12180, "G": 1092}
        for mid in BASIC_MAP_IDS:
            m = basic_map(mid)
            if mid == "J":
                # imprimitive, with more elements than the closure's cap:
                # the order is not proved, and the oracle says so
                with pytest.raises(ValueError, match="not proved"):
                    group_order([m.x, m.y])
                continue
            order = group_order([m.x, m.y])
            assert order % 42 == 0, mid
            if mid in known:
                assert order == known[mid], mid
            if mid in "BDHIKLMN":
                assert order == math.factorial(m.n) // 2, mid

    def test_basic_maps_pass_validation(self):
        for mid in BASIC_MAP_IDS:
            m = basic_map(mid)
            new_map(m.n, m.x, m.y, m.t)  # does not raise
            assert m.genus() == 0

    def test_corruption_is_caught(self):
        g = basic_map("G")
        bad = list(g.y.images)
        bad[0], bad[3] = bad[3], bad[0]
        with pytest.raises(MapError):
            new_map(g.n, g.x, Permutation(bad), g.t)

    def test_useful_contains_published_bold(self):
        for mid in BASIC_MAP_IDS:
            m = basic_map(mid)
            published = Counter(published_row(mid).useful_lengths)
            computed = Counter(m.useful_lengths())
            assert not (published - computed), mid


class TestHandleDisjointness:
    def test_b_is_the_only_overlap(self):
        for mid in BASIC_MAP_IDS:
            points = [pt for h in basic_map(mid).all_handles() for pt in h.points]
            assert (len(set(points)) < len(points)) == (mid == "B"), mid

    def test_b_handles_pairwise_share(self):
        m = basic_map("B")
        handles = m.all_handles()
        assert len(handles) == 3
        for i, h1 in enumerate(handles):
            for h2 in handles[i + 1 :]:
                assert set(h1.points) & set(h2.points)

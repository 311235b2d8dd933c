"""The 14 basic maps A..N and their conformance suite.

The permutation data lives in _atlas_data, frozen from the reference
figures; the published table rows are stored as an independent literal
dataset so the two can cross-validate.  validate_atlas recomputes every
row field from the permutations and compares.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from . import _atlas_data
from .maps import map_from_doc
from .perm import closure

__all__ = [
    "BASIC_MAP_IDS",
    "PublishedRow",
    "basic_map",
    "published_row",
    "validate_atlas",
    "AtlasReport",
]

BASIC_MAP_IDS = tuple("ABCDEFGHIJKLMN")

# The reference names the degree-14 monodromy group: PSL(2,13), order 1092.
MAP_A_GROUP_ORDER = 1092


@dataclass(frozen=True)
class PublishedRow:
    """Published row: degree, reflection parity, fixed points of (x,y,z),
    handle counts for k=1,2,3, cycle lengths of w, and the cycle lengths
    published in bold face (useful cycles singled out in the source)."""

    degree: int
    t_parity: int
    fixed_points: tuple
    handles: tuple
    w_cycles: tuple
    useful_lengths: tuple


@lru_cache(maxsize=None)
def basic_map(map_id):
    """The frozen, pre-validated basic map with the given one-letter id."""
    if map_id not in BASIC_MAP_IDS:
        raise KeyError(f"unknown basic map {map_id!r} (expected one of A..N)")
    return map_from_doc(_atlas_data.BASIC_MAPS[map_id])


@lru_cache(maxsize=None)
def published_row(map_id):
    if map_id not in BASIC_MAP_IDS:
        raise KeyError(f"unknown basic map {map_id!r} (expected one of A..N)")
    raw = _atlas_data.PUBLISHED_ROWS[map_id]
    return PublishedRow(
        degree=raw["degree"],
        t_parity=raw["t_parity"],
        fixed_points=tuple(raw["fixed_points"]),
        handles=tuple(raw["handles"]),
        w_cycles=tuple(sorted(raw["w_cycles"])),
        useful_lengths=tuple(sorted(raw["useful_lengths"])),
    )


@dataclass
class AtlasReport:
    """Per-map, per-field conformance verdicts."""

    results: dict  # map id -> {field: (ok, computed, expected)}

    @property
    def ok(self):
        return all(ok for fields in self.results.values() for ok, _, _ in fields.values())

    def failures(self):
        return [
            (mid, field, computed, expected)
            for mid, fields in self.results.items()
            for field, (ok, computed, expected) in fields.items()
            if not ok
        ]

    def lines(self):
        out = []
        for mid, fields in self.results.items():
            verdict = "PASS" if all(ok for ok, _, _ in fields.values()) else "FAIL"
            out.append(f"map {mid}: {verdict}")
            for field, (ok, computed, expected) in fields.items():
                mark = "ok " if ok else "BAD"
                out.append(f"  [{mark}] {field}: computed={computed} published={expected}")
        return out


def validate_atlas():
    """Recompute every published field from the permutations and compare.

    The useful-length field is checked as containment: every length
    published in bold must be certified useful by the computed witness
    definition.  (The published marking is a curated subset: cycles such
    as the 13-cycle of map A carry witnesses yet are not marked.)  All
    other fields must match exactly; map A additionally has its monodromy
    group order, counted by its closure up to 1092 elements, checked
    against 1092.
    """
    results = {}
    for mid in BASIC_MAP_IDS:
        m = basic_map(mid)
        row = published_row(mid)
        fields = {}
        fields["degree"] = (m.n == row.degree, m.n, row.degree)
        fields["t_parity"] = (m.t.parity() == row.t_parity, m.t.parity(), row.t_parity)
        v = m.fixed_point_vector().as_tuple()
        fields["fixed_points"] = (v == row.fixed_points, v, row.fixed_points)
        hc = m.handle_counts()
        fields["handles"] = (hc == row.handles, hc, row.handles)
        wl = tuple(m.w_cycles.lengths())
        fields["w_cycles"] = (wl == row.w_cycles, wl, row.w_cycles)
        ul = tuple(m.useful_lengths())
        contained = _multiset_contains(ul, row.useful_lengths)
        fields["useful_lengths"] = (contained, ul, row.useful_lengths)
        fields["genus"] = (m.genus() == 0, m.genus(), 0)
        if mid == "A":
            # counted under a cap of the published order: a larger group
            # reads as a failed field
            try:
                order = len(closure([m.x, m.y], MAP_A_GROUP_ORDER))
            except ValueError:
                order = f"> {MAP_A_GROUP_ORDER}"
            fields["group_order"] = (order == MAP_A_GROUP_ORDER, order, MAP_A_GROUP_ORDER)
        results[mid] = fields
    return AtlasReport(results)


def _multiset_contains(big, small):
    return not (Counter(small) - Counter(big))

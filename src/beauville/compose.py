"""The (k)-composition calculus: joining maps along handles.

Joining maps D, D' along same-kind handles (a, b) and (a', b') turns the
four fixed points of x into the new 2-cycles (a, a') and (b, b'); y and
the reflection are untouched.  The effect on the cycles of w is a pure
successor swap at the four points -- merge_law_check verifies the
resulting concatenations and insertions case by case.

Composition expressions use the published chain notation: "L(2)M" joins
L and M along their (2)-handles, "4G" abbreviates a chain of four copies
of G joined by (1)-handles, and chains associate to the left.  At each
join both sides use their free handle of the required kind with the
largest minimum point; with that convention the chain recipes reproduce
the published cycle data exactly.

eval_expr and the construction schedules build chains with one engine,
`Chain`, which validates only the finished map; `join`, `k_compose` and
`self_join` validate each map they build.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from ._atlas_data import BASIC_MAPS
from .atlas import BASIC_MAP_IDS, basic_map
from .maps import Handle, HurwitzMap, MapError, handles_in_arrays
from .perm import Permutation

__all__ = [
    "CompositionError",
    "MAX_DEGREE",
    "Chain",
    "k_compose",
    "self_join",
    "eval_expr",
    "pick_handle",
    "MergeVerdict",
    "merge_law_check",
]


# The largest degree eval_expr builds; checked before anything is joined.
MAX_DEGREE = 2**20


class CompositionError(MapError):
    """A join cannot be performed as requested."""


def _check_handle(m, h):
    if h not in m.find_handles(h.k):
        raise CompositionError(f"handle {h} does not belong to the map")
    _check_paired(h)


def _check_paired(h):
    if not h.mirror_paired:
        # Only the map with overlapping handles has such pairs; the
        # composed reflection (the union of the two) would violate its
        # defining relations there.
        raise CompositionError(
            f"handle {h} is not reflection-paired; the joined map would "
            "have no inherited reflection"
        )


def k_compose(d1, h1, d2, h2):
    """Join d1 and d2 along handles of the same kind.

    The result lives on the disjoint union: d1's points keep their labels
    and d2's are shifted up by d1's degree.
    """
    if h1.k != h2.k:
        raise CompositionError(f"handle kinds differ: ({h1.k}) vs ({h2.k})")
    _check_handle(d1, h1)
    _check_handle(d2, h2)
    n = d1.n
    arrays = chain_arrays(((d1, 0), (d2, n)), ((h1.a, h2.a + n), (h1.b, h2.b + n)))
    return HurwitzMap(n + d2.n, *map(Permutation._trusted, arrays))


def self_join(d, h1, h2):
    """Join a map to itself along two disjoint same-kind handles.

    Degree is unchanged, the fixed point vector drops by (4, 0, 0) and
    the genus rises by exactly one.
    """
    if h1.k != h2.k:
        raise CompositionError(f"handle kinds differ: ({h1.k}) vs ({h2.k})")
    if set(h1.points) & set(h2.points):
        raise CompositionError(f"handles {h1} and {h2} are not disjoint")
    _check_handle(d, h1)
    _check_handle(d, h2)
    xa = np.array(d.x.array)
    _swap(xa, ((h1.a, h2.a), (h1.b, h2.b)))
    before = d.genus()
    out = HurwitzMap(d.n, Permutation._trusted(xa), d.y, d.t)
    if out.genus() != before + 1:
        raise CompositionError("self-join did not raise the genus by one")
    return out


# -- canonical handle choice ---------------------------------------------


def pick_handle(m, k):
    """The free (k)-handle used by chain evaluation: largest minimum point.

    Taking the most recently created component's handle first is what
    makes the published chain recipes come out with the published cycle
    data; find_handles still enumerates ascending.
    """
    return _last(m.find_handles(k), k)


def _last(handles, k):
    if not handles:
        raise CompositionError(f"no free ({k})-handle available")
    return handles[-1]


def join(d1, k, d2):
    """k_compose with the canonical handle choice on both sides."""
    return k_compose(d1, pick_handle(d1, k), d2, pick_handle(d2, k))


# -- chain notation ----------------------------------------------------------


def _terms(text):
    """Read chain notation into [(join kind or None, count, map id), ...]:
    expr := term (join term)*, join := '(' [123] ')', term := [A-N] |
    integer [A-N].  The whole text is read before anything is joined."""
    tokens = _tokenize(text)
    terms, k, pos = [], None, 0
    while True:
        count = 1
        if pos < len(tokens) and tokens[pos][0] == "int":
            count = tokens[pos][1]
            pos += 1
            if pos == len(tokens) or tokens[pos][0] != "map":
                raise CompositionError(f"expected a map name after {count} in {text!r}")
            if count < 1:
                raise CompositionError("repeat count must be >= 1")
        if pos == len(tokens):
            raise CompositionError(f"expected a map name at end of {text!r}")
        kind, val = tokens[pos]
        if kind != "map":
            raise CompositionError(f"unexpected token {val!r} at position {pos} in {text!r}")
        terms.append((k, count, val))
        pos += 1
        if pos == len(tokens):
            return terms
        kind, k = tokens[pos]
        if kind != "join":
            raise CompositionError(f"expected (k) join at token {pos} in {text!r}")
        pos += 1


_TOKEN = re.compile(r"\s|\(([^)]*)(\)?)|(\d+)|([%s])|(.)" % "".join(BASIC_MAP_IDS), re.S)


def _tokenize(text):
    out = []
    for match in _TOKEN.finditer(text):
        inner, closed, digits, map_id, bad = match.groups()
        if bad or inner is not None and not closed:
            what = "unclosed '('" if inner is not None else f"bad character {bad!r}"
            raise CompositionError(f"{what} at position {match.start()} in {text!r}")
        if inner is not None:
            k = inner.strip()
            if k not in ("1", "2", "3"):
                raise CompositionError(f"join kind must be 1, 2 or 3, got {k!r}")
            out.append(("join", int(k)))
        elif digits:
            out.append(("int", int(digits)))
        elif map_id:
            out.append(("map", map_id))
    return out


def eval_expr(text):
    """Evaluate chain notation to a map: the whole text is read and its
    degree bounded by MAX_DEGREE, then its terms are compiled to one
    Chain, whose map is validated once.  "mG" is G joined (1) to itself
    m - 1 times, and each term is joined whole onto the chain so far."""
    terms = _terms(text)
    degree = sum(count * BASIC_MAPS[map_id]["degree"] for _, count, map_id in terms)
    if degree > MAX_DEGREE:
        raise CompositionError(f"chain degree {degree} exceeds the limit {MAX_DEGREE}")
    chain = None
    for k, count, map_id in terms:
        term = Chain(basic_map(map_id))
        for _ in range(count - 1):
            term.join(1, Chain(basic_map(map_id)))
        chain = term if k is None else chain.join(k, term)
    return chain.build()


# -- the chain engine ----------------------------------------------------------


class Chain:
    """A map under construction: its pieces (map, offset) side by side,
    the swaps (i, j) its joins make in x, and its degree.  A join changes
    x only at its four handle points, which stop being fixed, so it
    creates no (1)-handle: the chain keeps its (1)-handles ascending and
    drops used ones from the end.  (2)- and (3)-handles, which a join can
    create, are read off the realized arrays from the end back.  So a
    join costs time linear in the chain joined on.
    """

    def __init__(self, m):
        self.pieces, self.swaps, self.degree = [(m, 0)], [], m.n
        self._handles, self._used = m.find_handles(1), set()
        self._arrays, self._realized = [np.empty(0, np.int64)] * 3, (0, 0)

    def free_handles(self):
        """The free (1)-handles of the realized map, ascending by least point."""
        return [h for h in self._handles if self._used.isdisjoint(h.points)]

    def handle(self, k):
        """`pick_handle(m, k)` on the map m this chain realizes."""
        if k == 1:
            handles = self._handles
            while handles and not self._used.isdisjoint(handles[-1].points):
                handles.pop()
            return _last(handles, 1)
        n = lo = self.degree
        while True:
            # the last handle with a >= lo is the last of all if its least
            # point is >= lo too
            lo = max(0, 2 * lo - n - 64)
            handles = handles_in_arrays(*self.arrays(), lo)[k]
            if lo == 0 or handles and min(handles[-1].points) >= lo:
                return _last(handles, k)

    def join(self, k, other):
        """Join `other` onto this chain along each one's canonical
        (k)-handle, as `join` does, and return this chain."""
        h1, h2 = self.handle(k), other.handle(k)
        _check_paired(h1)
        _check_paired(h2)
        n = self.degree
        self.pieces += [(m, off + n) for m, off in other.pieces]
        self.swaps += [(i + n, j + n) for i, j in other.swaps]
        self.swaps += [(h1.a, h2.a + n), (h1.b, h2.b + n)]
        self._handles += [
            Handle(1, h.a + n, h.b + n, h.mirror_paired) for h in other.free_handles()
        ]
        self._used.update(self.swaps[-2] + self.swaps[-1])
        self.degree += other.degree
        return self

    def arrays(self):
        """The realized x, y and t, in buffers that each call extends by
        the pieces and swaps joined since the last."""
        n, (placed, swapped) = self.degree, self._realized
        if self._arrays[0].size < n:
            self._arrays = [np.resize(arr, 2 * n) for arr in self._arrays]
        if self.pieces[placed:]:
            start = self.pieces[placed][1]
            for arr, new in zip(self._arrays, chain_arrays(self.pieces[placed:], ())):
                arr[start:n] = new
        _swap(self._arrays[0], self.swaps[swapped:])
        self._realized = (len(self.pieces), len(self.swaps))
        return tuple(arr[:n] for arr in self._arrays)

    def build(self):
        """The realized chain as a map, validated once."""
        arrays = chain_arrays(self.pieces, self.swaps)
        return HurwitzMap(self.degree, *map(Permutation._trusted, arrays))


def chain_arrays(pieces, swaps):
    """The x, y and t image arrays of a chain: its pieces' arrays at their
    offsets in one concatenation, then x swapped on the listed pairs."""
    offsets = np.repeat([off for _, off in pieces], [m.n for m, _ in pieces])
    x, y, t = (np.concatenate([getattr(m, g).array for m, _ in pieces]) + offsets for g in "xyt")
    _swap(x, swaps)
    return x, y, t


def _swap(x, swaps):
    if swaps:
        i, j = np.array(swaps).T
        x[i], x[j] = j, i


# -- merge law verification -----------------------------------------------


@dataclass
class MergeVerdict:
    """Outcome of checking a join against the cycle merge laws."""

    case: str          # "concat" | "insert_left" | "insert_right" | "cross"
    ok: bool
    details: list


def merge_law_check(d1, h1, d2, h2, result):
    """Verify that result's w-cycles relate to d1's and d2's exactly per
    the merge case analysis.

    At the four joined points the successor rule is a pure swap:

        a -> a'w',   a' -> aw,   b -> b'w',   b' -> bw

    and every other point keeps its old successor.  Which partition that
    produces depends on whether a, b share a cycle of w in d1 and whether
    a', b' do in d2: no sharing concatenates c_a c_a' and c_b c_b'; one
    side sharing inserts the other side's two cycles; both sides sharing
    crosses into c_a c_b' and c_b c_a'.
    """
    details = []
    ok = True
    off = d1.n
    w1, w2, wr = d1.w, d2.w, result.w

    same1 = d1.w_cycles.index_of[h1.a] == d1.w_cycles.index_of[h1.b]
    same2 = d2.w_cycles.index_of[h2.a] == d2.w_cycles.index_of[h2.b]
    if not same1 and not same2:
        case = "concat"
    elif same1 and not same2:
        case = "insert_left"
    elif same2 and not same1:
        case = "insert_right"
    else:
        case = "cross"

    swaps = {
        h1.a: w2[h2.a] + off,
        h2.a + off: w1[h1.a],
        h1.b: w2[h2.b] + off,
        h2.b + off: w1[h1.b],
    }
    for pt in range(result.n):
        expected = swaps.get(
            pt, w1[pt] if pt < off else w2[pt - off] + off
        )
        if wr[pt] != expected:
            ok = False
            details.append(f"successor of {pt}: got {wr[pt]}, expected {expected}")

    # predicted partition of the affected cycles
    ca = frozenset(d1.w_cycles.cycle_of(h1.a))
    cb = frozenset(d1.w_cycles.cycle_of(h1.b))
    ca2 = frozenset(p + off for p in d2.w_cycles.cycle_of(h2.a))
    cb2 = frozenset(p + off for p in d2.w_cycles.cycle_of(h2.b))
    got = {
        frozenset(result.w_cycles.cycle_of(pt))
        for pt in (h1.a, h1.b, h2.a + off, h2.b + off)
    }
    if case == "cross":
        # ca == cb and ca2 == cb2 split crosswise into two cycles: one
        # holding a with b', the other b with a'.
        cyc_a = frozenset(result.w_cycles.cycle_of(h1.a))
        cyc_b = frozenset(result.w_cycles.cycle_of(h1.b))
        cross_ok = (
            cyc_a != cyc_b
            and (cyc_a | cyc_b) == (ca | ca2)
            and not (cyc_a & cyc_b)
            and h2.b + off in cyc_a
            and h2.a + off in cyc_b
        )
        if not cross_ok:
            ok = False
            details.append("cross case: the shared cycles did not split crosswise")
    else:
        if case == "concat":
            predicted = {ca | ca2, cb | cb2}
        else:
            predicted = {ca | cb | ca2 | cb2}
        if got != predicted:
            ok = False
            details.append(
                f"merged cycle partition mismatch: got sizes "
                f"{sorted(len(s) for s in got)}, predicted {sorted(len(s) for s in predicted)}"
            )

    untouched = [
        frozenset(c) for c in d1.w_cycles if not ({h1.a, h1.b} & set(c))
    ] + [
        frozenset(p + off for p in c)
        for c in d2.w_cycles
        if not ({h2.a, h2.b} & set(c))
    ]
    result_cycles = {frozenset(c) for c in result.w_cycles}
    for c in untouched:
        if c not in result_cycles:
            ok = False
            details.append(f"untouched cycle of length {len(c)} was disturbed")

    return MergeVerdict(case, ok, details)

"""Validated (2,3,7)-triples with a reflection, and their derived data.

A map is a quadruple (n, x, y, t) of permutations with

    x^2 = y^3 = (xy)^7 = 1,   t^2 = (xt)^2 = (yt)^2 = 1,

and <x, y> transitive on the n points.  Everything else -- the face
permutation z = (xy)^-1, the tracking permutation w = xyt, handles, the
fixed point vector, genus -- is recomputed on demand from these four
fields and cached; caches never enter equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .perm import (
    is_identity_array,
    is_prime,
    is_transitive,
    parse_cycles,
    prime_divisors,
)

__all__ = [
    "MapError",
    "RelationError",
    "IntransitiveError",
    "FixedPointVector",
    "Signature",
    "Handle",
    "WCycles",
    "UsefulCycle",
    "HurwitzMap",
    "new_map",
    "map_doc",
    "map_to_text",
    "map_from_text",
]

MAP_FORMAT_VERSION = "beauville-map v1"


class MapError(ValueError):
    """Invalid map data."""


class RelationError(MapError):
    """A defining relation fails; the message names the relation."""


class IntransitiveError(MapError):
    """<x, y> does not act transitively."""


@dataclass(frozen=True)
class FixedPointVector:
    """Counts (alpha, beta, gamma) of fixed points of x, y and z."""

    alpha: int
    beta: int
    gamma: int

    def __sub__(self, other):
        return FixedPointVector(
            self.alpha - other.alpha, self.beta - other.beta, self.gamma - other.gamma
        )

    def as_tuple(self):
        return (self.alpha, self.beta, self.gamma)


@dataclass(frozen=True)
class Signature:
    """Point-stabilizer signature (g; 2^[alpha], 3^[beta], 7^[gamma])."""

    genus: int
    alpha: int
    beta: int
    gamma: int

    def degree(self):
        return 84 * (self.genus - 1) + 21 * self.alpha + 28 * self.beta + 36 * self.gamma


@dataclass(frozen=True)
class Handle:
    """A (k)-handle: fixed points a, b of x with b = a(xy)^k.

    The orientation (a, b) is canonical: since (xy)^7 = 1 and k is in
    {1,2,3}, at most one orientation of an unordered pair can satisfy the
    defining relation, and a pair qualifies for at most one k.  In the
    mirror-symmetric maps the reflection usually also carries a to b; that
    is reported by find_handles but not required (the one map with
    overlapping handles cannot satisfy it for all three at once).
    """

    k: int
    a: int
    b: int
    mirror_paired: bool = True

    @property
    def points(self):
        return (self.a, self.b)


class WCycles:
    """Cycle decomposition of w with a point -> cycle index lookup, built
    on first use."""

    def __init__(self, w):
        self.cycles = w.cycles(include_fixed=True)

    @cached_property
    def index_of(self):
        return {pt: i for i, cyc in enumerate(self.cycles) for pt in cyc}

    def lengths(self):
        return tuple(sorted(len(c) for c in self.cycles))

    def cycle_of(self, point):
        return self.cycles[self.index_of[point]]

    def __iter__(self):
        return iter(self.cycles)


@dataclass(frozen=True)
class UsefulCycle:
    """A useful cycle of w with its witnessing points.

    x_witness has its x-image inside the cycle and is not a handle fixed
    point; y_witness has its y-image inside the cycle.
    """

    cycle: tuple
    x_witness: int
    y_witness: int

    def __len__(self):
        return len(self.cycle)


class HurwitzMap:
    """Immutable validated map; see the module docstring."""

    def __init__(self, n, x, y, t):
        if not (n == x.degree == y.degree == t.degree):
            raise MapError(
                f"degree mismatch: n={n}, x={x.degree}, y={y.degree}, t={t.degree}"
            )
        self.n = n
        self.x = x
        self.y = y
        self.t = t
        self._validate()

    def _validate(self):
        x, y, t, n = self.x, self.y, self.t, self.n

        def check(arr, name):
            if not is_identity_array(arr):
                raise RelationError(f"relation {name} = 1 fails")

        if not is_transitive([x, y], n):
            raise IntransitiveError("<x, y> is not transitive")
        xa, ya, ta = x.array, y.array, t.array
        check(xa[xa], "x^2")
        check(ya[ya[ya]], "y^3")
        xy = ya[xa]
        p = xy
        for _ in range(6):
            p = xy[p]
        check(p, "(xy)^7")
        check(ta[ta], "t^2")
        check(ta[xa[ta[xa]]], "(xt)^2")
        check(ta[ya[ta[ya]]], "(yt)^2")

    # -- identity is on the stored quadruple only --------------------------

    def __eq__(self, other):
        if not isinstance(other, HurwitzMap):
            return NotImplemented
        return (
            self.n == other.n
            and self.x == other.x
            and self.y == other.y
            and self.t == other.t
        )

    def __hash__(self):
        return hash((self.n, self.x, self.y, self.t))

    def __repr__(self):
        return f"HurwitzMap(n={self.n}, v={self.fixed_point_vector().as_tuple()})"

    # -- derived permutations ----------------------------------------------

    @cached_property
    def z(self):
        """Face permutation (xy)^-1, of order dividing 7."""
        return (self.x * self.y).inverse()

    @cached_property
    def w(self):
        return self.x * self.y * self.t

    # -- numeric invariants --------------------------------------------------

    def fixed_point_vector(self):
        return FixedPointVector(
            len(self.x.fixed_points()),
            len(self.y.fixed_points()),
            len(self.z.fixed_points()),
        )

    def genus(self):
        """Genus from the Riemann-Hurwitz count; rejects corrupt data."""
        v = self.fixed_point_vector()
        num = self.n - 21 * v.alpha - 28 * v.beta - 36 * v.gamma
        if num % 84:
            raise MapError(f"non-integral genus: 1 + {num}/84")
        g = 1 + num // 84
        if g < 0:
            raise MapError(f"negative genus {g}")
        return g

    def signature(self):
        v = self.fixed_point_vector()
        return Signature(self.genus(), v.alpha, v.beta, v.gamma)

    # -- handles -------------------------------------------------------------

    @cached_property
    def _handles_by_k(self):
        xfix = set(self.x.fixed_points())
        xy = self.x * self.y
        t = self.t
        found = {1: [], 2: [], 3: []}
        for k in (1, 2, 3):
            step = xy ** k
            for a in sorted(xfix):
                b = step[a]
                if b != a and b in xfix:
                    found[k].append(Handle(k, a, b, mirror_paired=(t[a] == b)))
            found[k].sort(key=lambda h: min(h.a, h.b))
        return found

    def find_handles(self, k):
        """All (k)-handles, ascending by least point."""
        if k not in (1, 2, 3):
            raise ValueError("handle kind must be 1, 2 or 3")
        return list(self._handles_by_k[k])

    def all_handles(self):
        return [h for k in (1, 2, 3) for h in self._handles_by_k[k]]

    def handle_counts(self):
        return tuple(len(self._handles_by_k[k]) for k in (1, 2, 3))

    @cached_property
    def handle_points(self):
        return frozenset(pt for h in self.all_handles() for pt in h.points)

    # -- cycles of w ----------------------------------------------------------

    @cached_property
    def w_cycles(self):
        return WCycles(self.w)

    def useful_cycles(self):
        """Cycles of w with an x-witness and a y-witness inside them.

        The x-witness must not be a fixed point of x lying in a handle, so
        that usefulness survives composition.  Found once per map; each
        call returns a new list.
        """
        return list(self._useful_cycles)

    @cached_property
    def _useful_cycles(self):
        xa, ya = self.x.array.tolist(), self.y.array.tolist()
        handle_pts = self.handle_points
        out = []
        for cyc in self.w_cycles:
            members = set(cyc)
            x_wit = None
            y_wit = None
            for pt in sorted(members):
                if x_wit is None and xa[pt] in members:
                    if not (xa[pt] == pt and pt in handle_pts):
                        x_wit = pt
                if y_wit is None and ya[pt] in members:
                    y_wit = pt
                if x_wit is not None and y_wit is not None:
                    break
            if x_wit is not None and y_wit is not None:
                out.append(UsefulCycle(cyc, x_wit, y_wit))
        return tuple(out)

    def jordan_cycle(self, p):
        """The useful w-cycle of prime length p that Jordan's theorem needs.

        Hypotheses: (ii) some w-cycle has prime length p <= n-3; (iii) p
        is coprime to every other cycle length of w; (iv) that cycle is
        useful.  Raises MapError naming the first that fails.
        """
        lengths = self.w_cycles.lengths()
        if not is_prime(p):
            raise MapError(f"hypothesis (ii): {p} is not prime")
        if p not in lengths:
            raise MapError(
                f"hypothesis (ii): no w-cycle of length {p} (cycle type {list(lengths)})"
            )
        if p > self.n - 3:
            raise MapError(f"hypothesis (ii): p = {p} > n - 3 = {self.n - 3}")
        # p is the least multiple of p, so the sorted lengths list it first
        bad = [l for l in lengths if l % p == 0][1:]
        if bad:
            raise MapError(f"hypothesis (iii): p = {p} not coprime to cycle length {bad[0]}")
        useful = [u for u in self.useful_cycles() if len(u) == p]
        if not useful:
            raise MapError(f"hypothesis (iv): the {p}-cycle is not useful")
        return useful[0]

    def useful_lengths(self):
        return tuple(sorted(len(c) for c in self.useful_cycles()))

    def prime_set(self):
        """Primes dividing the cycle lengths of w."""
        return frozenset(q for l in self.w_cycles.lengths() for q in prime_divisors(l))

    def tau(self):
        """Number of transpositions (n - |Fix x|) / 2 of the involution x."""
        return (self.n - len(self.x.fixed_points())) // 2


def new_map(n, x, y, t):
    """Validate and build a map; errors name the failing relation."""
    return HurwitzMap(n, x, y, t)


# -- text serialization ------------------------------------------------------


def map_doc(m):
    """A map's degree, then x, y, t in cycle notation."""
    return {
        "degree": m.n,
        "x": m.x.cycle_string(),
        "y": m.y.cycle_string(),
        "t": m.t.cycle_string(),
    }


def map_to_text(m):
    """Versioned text form: a header, then map_doc's fields as lines."""
    lines = [MAP_FORMAT_VERSION] + [f"{k} {v}" for k, v in map_doc(m).items()]
    return "\n".join(lines) + "\n"


def map_from_text(text):
    """The map of map_to_text's form; a MapError names the missing or
    malformed field."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or lines[0] != MAP_FORMAT_VERSION:
        raise MapError(f"expected header {MAP_FORMAT_VERSION!r}")
    fields = {}
    for ln in lines[1:]:
        key, _, rest = ln.partition(" ")
        fields[key] = rest.strip()

    def field(key, parse):
        try:
            return parse(fields[key])
        except KeyError:
            raise MapError(f"missing field {key!r}") from None
        except ValueError as exc:
            raise MapError(f"field {key}: {exc}") from None

    n = field("degree", int)
    if n < 1:
        raise MapError(f"field degree: a permutation needs degree >= 1, got {n}")
    # <x, y> moves every point when n > 1, and each point takes a character
    chars = field("x", len) + field("y", len)
    if n > 1 and n > chars:
        raise MapError(
            f"field degree: {n} points cannot all be moved by {chars} characters of x and y"
        )
    x, y, t = (field(k, lambda text: parse_cycles(text, degree=n)) for k in ("x", "y", "t"))
    return new_map(n, x, y, t)

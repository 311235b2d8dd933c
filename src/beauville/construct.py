"""Recipes that assemble pairs of same-degree maps with distinct fixed
point vectors, one per residue class mod 14.

The ingredients: a stock chain U_s of degree 14s built from copies of G
(plus one A or E when s is not divisible by 3); fourteen chain maps V_r
of degree d_r = r mod 14, each carrying a useful cycle of prime length
p_r and a designated free (1)-handle whose points lie in w-cycles of
lengths 1 and l_r; and the two markers X_1 = 4G+3A and X_2 = L(2)M of
degree 210 whose fixed point vectors (6,6,0) and (2,0,7) differ in every
coordinate.  A plan selects a residue class, a stock parameter and a
variant; build_pair assembles W_i = W(1)X_i and verifies that the
certifying prime's cycle is present, useful and coprime to every other
cycle length.

Variants: the eight residues whose p_r survives next to the 70-cycle
created by attaching X_2 build directly ("standard"); four residues swap
V_r for V_{r+7 mod 14} and restore the degree with a copy of C
("shifted"); r = 1 swaps in V_5 and adds a copy of M; r = 8 swaps in
V_12 and chains an extra M through the (2)-handles, merging the 47-cycle
into one of prime length 83.  "small_n" drops the stock entirely
(degree d_r + 210), which fails exactly for r in {4, 6, 10} where
l_r + 57 is divisible by p_r; "s3_shortcut" runs the shifted and r = 1
recipes with the minimal stock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from ._atlas_data import BASIC_MAPS
from .atlas import basic_map
from .compose import Chain, chain_arrays, eval_expr, pick_handle
from .maps import HurwitzMap, MapError
from .perm import Permutation

__all__ = [
    "PlanError",
    "ConstructionPlan",
    "MapPair",
    "CHAIN_RECIPES",
    "stock_U",
    "v_map",
    "x_map",
    "Schedule",
    "schedule",
    "realize",
    "build_pair",
    "shared_handles",
    "with_free_stock_handles",
    "minimal_plan",
    "all_minimal_plans",
    "SMALL_CASE_DEGREES",
    "S3_SHORTCUT_DEGREES",
    "MINIMAL_DEGREES",
]


class PlanError(ValueError):
    """Invalid construction plan parameters."""


# Chain expression, degree d_r, w-cycle data split as the designated
# (1, l_r) pair plus the rest, certifying prime p_r, and l'_r = l_r + 13.
CHAIN_RECIPES = {
    0: ("H", 42, (1, 10), (3, 11, 17), 17, 23),
    1: ("B(3)H", 57, (1, 10), (3, 5, 14, 24), 5, 23),
    2: ("F(2)E(1)G(1)H", 142, (1, 13), (2, 2, 3, 11, 17, 22, 23, 24, 24), 17, 26),
    3: ("E(2)I(2)F", 115, (1, 9), (4, 10, 17, 22, 22, 30), 17, 22),
    4: ("J(1)K", 144, (1, 11), (2, 5, 10, 16, 17, 22, 60), 17, 24),
    5: ("C(3)N(1)E(2)F", 187, (1, 17), (2, 8, 18, 20, 24, 24, 30, 43), 43, 30),
    6: ("B(3)C(1)G(1)M(2)F", 216, (1, 13), (2, 2, 5, 8, 11, 12, 14, 24, 26, 34, 64), 5, 26),
    7: ("C(1)E(2)E", 77, (1, 9), (2, 4, 8, 17, 18, 18), 17, 22),
    8: ("B(3)C", 36, (1, 11), (5, 8, 11), 5, 24),
    9: ("C(3)H(1)J", 135, (1, 11), (1, 2, 3, 8, 10, 16, 19, 21, 21, 22), 19, 24),
    10: ("B(3)C(1)G(1)E(2)F", 136, (1, 13), (2, 2, 5, 8, 11, 22, 24, 24, 24), 5, 26),
    11: ("C(1)J(1)J", 165, (1, 11), (2, 2, 4, 8, 10, 10, 16, 16, 19, 22, 22, 22), 19, 24),
    12: ("J(1)M", 180, (1, 11), (2, 10, 12, 14, 16, 19, 22, 26, 47), 47, 24),
    13: ("F(2)I(2)M", 195, (1, 51), (4, 10, 12, 14, 23, 26, 26, 28), 23, 64),
}

STANDARD_RS = frozenset({0, 2, 3, 4, 5, 7, 12, 13})
SHIFTED_RS = frozenset({6, 9, 10, 11})
SHIFT_TARGET = {6: 13, 9: 2, 10: 3, 11: 4}
SMALL_EXCLUDED = frozenset({4, 6, 10})
MARKER_DEGREE = 210


def _bumped_stock(s):
    return s + 3 if s in (3, 4, 5) else s


@dataclass(frozen=True)
class _Recipe:
    """How one variant assembles its pair.

    `layout(r)` gives the pieces joined by (1)-handles before the
    markers, in order ("U" is the stock, "V" the chain map, any other
    letter a basic map), and the index of the chain map.  `stock` maps s
    to the effective stock parameter s*.  `tail` is joined onto each
    member through (2)-handles after the markers, and `prime` replaces
    the chain map's certifying prime.
    """

    rs: frozenset
    refusal: str
    layout: object
    stock: object
    tail: str = None
    prime: int = None


RECIPES = {
    "standard": _Recipe(
        STANDARD_RS,
        "standard recipe is only valid for r in {rs}: attaching the second "
        "marker creates a cycle length sharing a factor with p_{r}",
        lambda r: ("UV", r), lambda s: s,
    ),
    "shifted": _Recipe(
        SHIFTED_RS, "shifted recipe is only for r in {rs}",
        lambda r: ("CUV", SHIFT_TARGET[r]), _bumped_stock,
    ),
    "r1_special": _Recipe(
        frozenset({1}), "r1_special requires r = 1", lambda r: ("UVM", 5), _bumped_stock
    ),
    # Chain an extra copy of M onto each member through the (2)-handles,
    # merging the useful 47-cycle with a 36-cycle into one of prime
    # length 47 + 36 = 83.
    "r8_special": _Recipe(
        frozenset({8}), "r8_special requires r = 8", lambda r: ("UV", 12), lambda s: s,
        tail="M", prime=83,
    ),
    "small_n": _Recipe(
        frozenset(range(14)) - SMALL_EXCLUDED,
        "no small case for r = {r}: l_r + 57 = {l57} is divisible by p_r = {p}",
        lambda r: ("V", r), lambda s: s,
    ),
    "s3_shortcut": _Recipe(
        SHIFTED_RS | {1}, "s3_shortcut applies to r in {{1, 6, 9, 10, 11}}",
        lambda r: RECIPES["r1_special" if r == 1 else "shifted"].layout(r), lambda s: 3,
    ),
}

VARIANTS = tuple(RECIPES)

# Published minimal degrees per residue class.
MINIMAL_DEGREES = {
    0: 294, 1: 589, 2: 394, 3: 367, 4: 396, 5: 439, 6: 510,
    7: 329, 8: 540, 9: 457, 10: 430, 11: 459, 12: 432, 13: 447,
}
SMALL_CASE_DEGREES = {
    0: 252, 1: 267, 2: 352, 3: 325, 5: 397, 7: 287, 8: 246,
    9: 345, 11: 375, 12: 390, 13: 405,
}
S3_SHORTCUT_DEGREES = {1: 547, 6: 468, 9: 415, 10: 388, 11: 417}


@dataclass(frozen=True)
class ConstructionPlan:
    r: int
    s: int = 3
    variant: str = None  # default picked from r

    def __post_init__(self):
        if type(self.r) is not int or type(self.s) is not int:
            raise PlanError(f"r and s must be integers, got {self.r!r} and {self.s!r}")
        if not 0 <= self.r <= 13:
            raise PlanError(f"r must be 0..13, got {self.r}")
        if self.variant is None:
            object.__setattr__(self, "variant", default_variant(self.r))
        if self.variant not in RECIPES:
            raise PlanError(f"unknown variant {self.variant!r}")
        recipe = RECIPES[self.variant]
        if self.r not in recipe.rs:
            _, _, (_, l_r), _, p_r, _ = CHAIN_RECIPES[self.r]
            raise PlanError(
                recipe.refusal.format(r=self.r, rs=sorted(recipe.rs), l57=l_r + 57, p=p_r)
            )
        if "U" in self._layout[0] and self.s < 3:
            raise PlanError(f"stock parameter s must be >= 3, got {self.s}")

    @property
    def s_star(self):
        """Effective stock parameter after the extra-G bump.

        The shifted and r = 1 recipes need three free (1)-handles in the
        stock; for s in {3, 4, 5} they add a whole copy of G (s + 3),
        which is what yields the published minimal degrees.  The
        s3_shortcut keeps s* = 3: with the minimal stock the single copy
        of G has exactly the three handles needed.
        """
        return RECIPES[self.variant].stock(self.s)

    @property
    def _layout(self):
        return RECIPES[self.variant].layout(self.r)

    def _piece_degree(self, name):
        if name == "U":
            return 14 * self.s_star
        if name == "V":
            return CHAIN_RECIPES[self._layout[1]][1]
        return BASIC_MAPS[name]["degree"]

    @property
    def degree(self):
        tail = RECIPES[self.variant].tail
        return (
            sum(self._piece_degree(name) for name in self._layout[0])
            + MARKER_DEGREE
            + (BASIC_MAPS[tail]["degree"] if tail else 0)
        )

    @property
    def stock_range(self):
        """Label range occupied by the stock chain in the assembled maps."""
        pieces = self._layout[0]
        if "U" not in pieces:
            return (0, 0)
        lo = sum(self._piece_degree(name) for name in pieces[: pieces.index("U")])
        return (lo, lo + self._piece_degree("U"))

    @property
    def prime(self):
        return RECIPES[self.variant].prime or CHAIN_RECIPES[self._layout[1]][4]


def default_variant(r):
    """The first variant in table order that serves r."""
    return next(v for v in VARIANTS if r in RECIPES[v].rs)


def minimal_plan(r):
    """The plan realizing the published minimal degree for class r."""
    return ConstructionPlan(r, 3, default_variant(r))


def all_minimal_plans():
    return [minimal_plan(r) for r in range(14)]


@dataclass(frozen=True)
class MapPair:
    """Two maps of equal degree with fixed point vectors differing in all
    three coordinates.  `cycles` holds each member's useful cycle of the
    plan's prime when build_pair has found it, else None."""

    w1: object
    w2: object
    plan: ConstructionPlan
    cycles: tuple = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.w1.n != self.w2.n:
            raise PlanError("pair members must have equal degree")
        d = self.w1.fixed_point_vector() - self.w2.fixed_point_vector()
        if 0 in d.as_tuple():
            raise PlanError(
                f"fixed point vectors must differ in all coordinates, difference {d.as_tuple()}"
            )

    @property
    def degree(self):
        return self.w1.n

    @property
    def prime(self):
        return self.plan.prime


# -- ingredients ------------------------------------------------------------


@lru_cache(maxsize=None)
def stock_U(s):
    """Chain of floor(s/3) copies of G, plus an A (s = 1 mod 3) or an E
    (s = 2 mod 3), all joined by (1)-handles; degree 14s."""
    if s < 3:
        raise PlanError(f"stock parameter must be >= 3, got {s}")
    out = eval_expr(f"{s // 3}G" + ("", "(1)A", "(1)E")[s % 3])
    if out.n != 14 * s:
        raise MapError(f"U_{s} degree {out.n} != {14 * s}")
    return out


@lru_cache(maxsize=None)
def v_map(r):
    """The chain map V_r, checked against its published cycle data."""
    expr, d_r, pre, post, p_r, lp = CHAIN_RECIPES[r]
    m = eval_expr(expr)
    if m.n != d_r:
        raise MapError(f"V_{r} degree {m.n} != published {d_r}")
    expect = tuple(sorted(pre + post))
    if tuple(m.w_cycles.lengths()) != expect:
        raise MapError(
            f"V_{r} w-cycles {m.w_cycles.lengths()} != published {expect}"
        )
    h = pick_handle(m, 1)
    la = len(m.w_cycles.cycle_of(h.a))
    lb = len(m.w_cycles.cycle_of(h.b))
    if (la, lb) != pre:
        raise MapError(
            f"V_{r} designated handle sits in cycles ({la}, {lb}), published {pre}"
        )
    return m


@lru_cache(maxsize=None)
def x_map(i):
    """The degree-210 markers: X_1 = 4G+3A, X_2 = L(2)M."""
    if i == 1:
        m, want = eval_expr("4G(1)A(1)A(1)A"), (MARKER_DEGREE, (6, 6, 0), 3)
    elif i == 2:
        m, want = eval_expr("L(2)M"), (MARKER_DEGREE, (2, 0, 7), 1)
    else:
        raise ValueError("marker index must be 1 or 2")
    got = (m.n, m.fixed_point_vector().as_tuple(), len(m.find_handles(1)))
    if got != want:
        raise MapError(
            f"X_{i}: degree, fixed point vector and free (1)-handles {got} != {want}"
        )
    return m


# -- pair assembly -----------------------------------------------------------


@dataclass(frozen=True)
class Schedule:
    """A plan compiled to the joins that build its pair, one entry per
    member in each of `pieces`, `swaps` and `handles`.

    A member's pieces are (map, offset) pairs, the cached ingredients
    placed side by side in join order; its swaps are the transpositions
    (i, j) that its joins make in x, two per join; its handles are the
    free (1)-handles of the map it realizes, ascending by least point.
    """

    pieces: tuple
    swaps: tuple
    handles: tuple
    degree: int
    stock_range: tuple


@lru_cache(maxsize=None)
def schedule(plan):
    """The plan's join schedule: each member compiled to one
    `compose.Chain` over the cached ingredients, joined by their
    (1)-handles, then its marker, then the r8 tail by (2)-handles.
    Cached, so a plan is scheduled once."""
    names, chain = plan._layout
    first, *rest = (
        stock_U(plan.s_star) if name == "U" else v_map(chain) if name == "V" else basic_map(name)
        for name in names
    )
    tail = RECIPES[plan.variant].tail
    members = []
    for i in (1, 2):
        w = Chain(first)
        for piece in rest + [x_map(i)]:
            w.join(1, Chain(piece))
        if tail:
            w.join(2, Chain(basic_map(tail)))
        members.append((tuple(w.pieces), tuple(w.swaps), tuple(w.free_handles()), w.degree))
    pieces, swaps, handles, (degree, _) = zip(*members)
    if degree != plan.degree:
        raise PlanError(f"assembled degree {degree} != planned {plan.degree}")
    return Schedule(pieces, swaps, handles, plan.degree, plan.stock_range)


def realize(sched):
    """Each member's x, y and t image arrays: its pieces' arrays at their
    offsets in one concatenation, then x swapped on the listed pairs."""
    return tuple(chain_arrays(p, s) for p, s in zip(sched.pieces, sched.swaps))


def build_pair(plan):
    """Realize the plan's schedule, validate each member once as a map,
    and find the plan's prime as a useful w-cycle of both."""
    w1, w2 = (
        HurwitzMap(plan.degree, *map(Permutation._trusted, arrays))
        for arrays in realize(schedule(plan))
    )
    cycles = []
    for which, m in (("W_1", w1), ("W_2", w2)):
        try:
            cycles.append(m.jordan_cycle(plan.prime))
        except MapError as exc:
            raise PlanError(f"{which}: {exc}") from None
    return MapPair(w1, w2, plan, tuple(cycles))


def shared_handles(w1, w2, lo, hi):
    """The free (1)-handles present in both members with every point in
    lo..hi-1, ascending by least point.  The members share labels and
    reflection on their common prefix, so inside the stock these are
    exactly the unused stock handles, and each is a handle of both."""
    return _common_handles(w1.find_handles(1), w2.find_handles(1), lo, hi)


def _common_handles(handles1, handles2, lo, hi):
    h2 = set(handles2)
    return [h for h in handles1 if h in h2 and all(lo <= p < hi for p in h.points)]


def with_free_stock_handles(plan, labels):
    """The pair of `plan` with the fewest extra whole copies of G in the
    stock (s + 3 each, at most 4) that leave two shared free (1)-handles
    inside the stock, or inside its first `labels` labels.

    The handles are read off each enlarged plan's schedule, so only the
    pair returned is built.  Returns (pair, extra copies, shared
    handles), the pair carrying the enlarged plan, or None when four
    extra copies do not suffice, as for a plan with no stock.
    """
    for extra_g in range(5):
        bigger = ConstructionPlan(plan.r, plan.s + 3 * extra_g, plan.variant)
        sched = schedule(bigger)
        lo, hi = sched.stock_range
        if labels is not None:
            hi = lo + labels
        shared = _common_handles(*sched.handles, lo, hi)
        if len(shared) >= 2:
            return build_pair(bigger), extra_g, shared
    return None

"""Exact permutation algebra on the points 0..n-1.

Permutations act on the right: the image of a point ``a`` under ``p`` is
``p[a]``, and products compose left to right, so ``(p * q)[a] == q[p[a]]``.
All values are immutable; every operation returns a new permutation.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter

import numpy as np

__all__ = [
    "Permutation",
    "identity",
    "from_cycles",
    "parse_cycles",
    "CycleType",
    "an_conjugate",
    "conjugator_in_sn",
    "is_transitive",
    "orbit",
    "group_order",
    "OrderInconclusive",
    "is_prime",
    "prime_divisors",
]


class Permutation:
    """A bijection on {0..n-1}, stored as its read-only array of images.

    Permutations are immutable, so each one memoizes its cycle
    decomposition: the first of `cycles`, `cycle_type`, `order`,
    `is_even` or `parity` walks the cycles once, and every later call
    reads the stored walk.
    """

    __slots__ = ("_arr", "_hash", "_cycles")

    def __init__(self, images):
        arr = np.asarray(images, dtype=np.int64)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("a permutation needs a nonempty 1-d image list")
        n = arr.size
        seen = np.zeros(n, dtype=bool)
        if arr.min() < 0 or arr.max() >= n:
            raise ValueError("images out of range 0..n-1")
        seen[arr] = True
        if not seen.all():
            raise ValueError("images are not a bijection on 0..n-1")
        arr.setflags(write=False)
        self._arr = arr
        self._hash = hash(arr.tobytes())
        self._cycles = None

    @classmethod
    def _trusted(cls, arr):
        # arr must already be a valid int64 image array; skips validation.
        self = object.__new__(cls)
        arr.setflags(write=False)
        self._arr = arr
        self._hash = hash(arr.tobytes())
        self._cycles = None
        return self

    @property
    def degree(self):
        return self._arr.size

    @property
    def array(self):
        """Read-only numpy view of the image array."""
        return self._arr

    @property
    def images(self):
        return tuple(self._arr.tolist())

    def __getitem__(self, point):
        return int(self._arr[point])

    def __len__(self):
        return self._arr.size

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return self._arr.size == other._arr.size and bool(
            np.array_equal(self._arr, other._arr)
        )

    def __mul__(self, other):
        """Left-to-right product: a^(p*q) = (a^p)^q."""
        if not isinstance(other, Permutation):
            return NotImplemented
        if self._arr.size != other._arr.size:
            raise ValueError(
                f"degree mismatch: {self._arr.size} vs {other._arr.size}"
            )
        return Permutation._trusted(other._arr[self._arr])

    def inverse(self):
        inv = np.empty_like(self._arr)
        inv[self._arr] = np.arange(self._arr.size, dtype=np.int64)
        return Permutation._trusted(inv)

    def __pow__(self, k):
        """k-fold product; negative k uses the inverse.  Computed by
        repeated squaring of the image array."""
        base = self._arr if k >= 0 else self.inverse()._arr
        k = abs(k)
        out = None
        while k:
            if k & 1:
                out = base if out is None else base[out]
            k >>= 1
            if k:
                base = base[base]
        if out is None:
            return identity(self._arr.size)
        return Permutation._trusted(out)

    def _all_cycles(self):
        # The memoized decomposition, fixed points included.
        if self._cycles is None:
            self._cycles = _walk_cycles(self._arr.tolist())
        return self._cycles

    def cycles(self, include_fixed=False):
        """Disjoint cycles, each rotated to start at its least point,
        ordered by that least point.  A new list on every call."""
        if include_fixed:
            return list(self._all_cycles())
        return [c for c in self._all_cycles() if len(c) > 1]

    def cycle_type(self):
        return CycleType(map(len, self._all_cycles()))

    def fixed_points(self):
        return tuple(np.flatnonzero(self._arr == np.arange(self._arr.size)).tolist())

    def order(self):
        return math.lcm(*map(len, self._all_cycles()))

    @property
    def is_even(self):
        # n - (number of cycles) counts the transpositions needed.
        return (self._arr.size - len(self._all_cycles())) % 2 == 0

    def parity(self):
        """+1 for an even permutation, -1 for an odd one."""
        return 1 if self.is_even else -1

    def is_identity(self):
        return bool(np.array_equal(self._arr, np.arange(self._arr.size)))

    def conjugate_by(self, g):
        """g^-1 * self * g under the right action: (a^g)^(self^g) = (a^self)^g."""
        if g.degree != self.degree:
            raise ValueError("degree mismatch")
        out = np.empty_like(self._arr)
        out[g._arr] = g._arr[self._arr]
        return Permutation._trusted(out)

    def cycle_string(self):
        cycs = self.cycles()
        if not cycs:
            return "id"
        # str((0, 1, 2)) is "(0, 1, 2)"; without its commas it is the
        # notation (cycles() leaves out 1-cycles, whose str is "(5,)").
        return "".join(map(str, cycs)).replace(",", "")

    def __repr__(self):
        return f"Permutation[{self.degree}] {self.cycle_string()}"


class CycleType:
    """Multiset of cycle lengths (fixed points included as 1s)."""

    __slots__ = ("lengths",)

    def __init__(self, lengths):
        self.lengths = tuple(sorted(lengths))
        if self.lengths and self.lengths[0] < 1:
            raise ValueError("cycle lengths must be >= 1")

    @property
    def degree(self):
        return sum(self.lengths)

    def counter(self):
        return Counter(self.lengths)

    def __eq__(self, other):
        if isinstance(other, CycleType):
            return self.lengths == other.lengths
        if isinstance(other, (tuple, list, Counter)):
            return self == CycleType(
                other.elements() if isinstance(other, Counter) else other
            )
        return NotImplemented

    def __hash__(self):
        return hash(self.lengths)

    def __iter__(self):
        return iter(self.lengths)

    def __repr__(self):
        parts = []
        for l, m in sorted(self.counter().items()):
            parts.append(f"{l}^{m}" if m > 1 else f"{l}")
        return " ".join(parts)


def _walk_cycles(images):
    """Every cycle of the image list, fixed points included, each starting
    at its least point and ordered by it.  The package's one cycle walk."""
    seen = bytearray(len(images))
    out = []
    for start, pt in enumerate(images):
        if seen[start]:
            continue
        cyc = [start]
        while pt != start:
            seen[pt] = 1
            cyc.append(pt)
            pt = images[pt]
        out.append(tuple(cyc))
    return tuple(out)


def identity(n):
    return Permutation._trusted(np.arange(n, dtype=np.int64))


def from_cycles(n, cycles):
    """Permutation of degree n from disjoint cycles of points."""
    cycles = [c for c in map(list, cycles) if c]
    return _from_flat(n, [pt for c in cycles for pt in c], [len(c) for c in cycles])


def _from_flat(n, points, sizes):
    """from_cycles for the points of the cycles listed one after another,
    and the cycle lengths (none of them 0)."""
    arr = np.arange(n, dtype=np.int64)
    pts = np.asarray(points)
    if not pts.size:
        return Permutation._trusted(arr)
    if (
        pts.dtype.kind != "i"
        or pts.min() < 0
        or pts.max() >= n
        or np.bincount(pts).max() > 1
    ):
        _check_points(n, points)
    # each point goes to the next of its cycle, the last to the first
    ends = np.cumsum(sizes)
    nxt = np.arange(1, pts.size + 1)
    nxt[ends - 1] = ends - sizes
    arr[pts] = pts[nxt]
    return Permutation._trusted(arr)


def _check_points(n, points):
    """Raise for the first point, in the order given, that repeats or
    lies outside 0..n-1."""
    used = set()
    for pt in points:
        if pt in used:
            raise ValueError(f"point {pt} appears in two cycles")
        if not 0 <= pt < n:
            raise ValueError(f"point {pt} out of range for degree {n}")
        used.add(pt)


def parse_cycles(text, degree=None):
    """Parse cycle notation like "(0 1)(2 3 4)" or "id".

    Points may be separated by spaces or commas.  If degree is omitted it
    is taken as 1 + the largest point mentioned.
    """
    text = text.strip()
    points, sizes = [], []
    if text not in ("id", "()", ""):
        if not text.startswith("(") or not text.endswith(")"):
            raise ValueError(f"bad cycle notation: {text!r}")
        tokens = [c.split() for c in text[1:-1].replace(",", " ").split(")(")]
        sizes = list(map(len, tokens))
        if 0 in sizes:
            # an in-order scan meets a bad point before the empty cycle first
            for toks in tokens[: sizes.index(0)]:
                list(map(int, toks))
            raise ValueError(f"empty cycle in {text!r}")
        points = list(map(int, itertools.chain.from_iterable(tokens)))
    top = max(points, default=-1)
    if degree is None:
        degree = top + 1 if top >= 0 else 1
    elif top >= degree:
        raise ValueError(f"point {top} out of range for degree {degree}")
    return _from_flat(degree, points, sizes)


def orbit(gens, start):
    """Orbit of a point under the group generated by gens."""
    if not gens:
        return {start}
    seen = {start}
    frontier = [start]
    image_lists = [g.array.tolist() for g in gens]
    while frontier:
        nxt = []
        for pt in frontier:
            for images in image_lists:
                img = images[pt]
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return seen


def is_transitive(gens, n):
    """True iff the orbit of point 0 under <gens> is all n points."""
    gens = list(gens)
    if not gens:
        if n > 1:
            raise ValueError("empty generator list with n > 1")
        return True
    if any(g.degree != n for g in gens):
        raise ValueError("generator degree mismatch")
    return len(orbit(gens, 0)) == n


def conjugator_in_sn(p, q):
    """Some g in S_n with p^g = q, or None if the cycle types differ.

    Cycles are matched in (length, least point) order, so the result is
    deterministic.
    """
    if p.degree != q.degree:
        raise ValueError("degree mismatch")
    cp = sorted(p.cycles(include_fixed=True), key=lambda c: (len(c), c[0]))
    cq = sorted(q.cycles(include_fixed=True), key=lambda c: (len(c), c[0]))
    if [len(c) for c in cp] != [len(c) for c in cq]:
        return None
    arr = np.empty(p.degree, dtype=np.int64)
    arr[[x for c in cp for x in c]] = [y for c in cq for y in c]
    return Permutation._trusted(arr)


def _odd_centralizer_element(p):
    """An odd permutation commuting with p, or None if none exists.

    A cycle of even length is odd as a permutation; swapping two cycles of
    equal odd length l is a product of l transpositions, hence odd.  If
    all cycle lengths are odd and pairwise distinct the centralizer is
    generated by the (even) cycles themselves, so no odd element exists.
    """
    cycles = p.cycles(include_fixed=True)
    for c in cycles:
        if len(c) % 2 == 0:
            return from_cycles(p.degree, [c])
    by_len = {}
    for c in cycles:
        if len(c) in by_len:
            other = by_len[len(c)]
            return from_cycles(
                p.degree, [(a, b) for a, b in zip(other, c)]
            )
        by_len[len(c)] = c
    return None


def an_conjugate(p, q, n=None):
    """Decide conjugacy of two even permutations inside A_n.

    Constructive: build one S_n conjugator; if it is odd, try to repair it
    with an odd centralizer element of p.  When every cycle length is odd
    and they are pairwise distinct no repair exists (the class splits) and
    the answer is the parity of the conjugator found.
    """
    if n is not None and (p.degree != n or q.degree != n):
        raise ValueError("degree does not match n")
    if not p.is_even or not q.is_even:
        raise ValueError("an_conjugate needs even permutations")
    g = conjugator_in_sn(p, q)
    if g is None:
        return False
    if g.is_even:
        return True
    fix = _odd_centralizer_element(p)
    if fix is not None:
        g2 = fix * g
        if not (g2.is_even and p.conjugate_by(g2) == q):
            raise ValueError("the repaired conjugator is not an even conjugator")
        return True
    return False


class OrderInconclusive(RuntimeError):
    """Raised when the randomized stabilizer chain fails to settle."""


class _Level:
    __slots__ = ("base", "gens", "invs", "uinv")

    def __init__(self, base, degree):
        self.base = base
        self.gens = []
        self.invs = []
        # point -> inverse of a coset representative u with base^u = point,
        # stored in the narrowest unsigned dtype that holds every point
        self.uinv = {base: np.arange(degree, dtype=np.min_scalar_type(degree - 1))}

    def add_gen(self, arr):
        self.gens.append(arr)
        inv = np.empty_like(arr)
        inv[arr] = np.arange(arr.size, dtype=np.intp)
        self.invs.append(inv)
        self._grow()

    def _grow(self):
        images = [g.tolist() for g in self.gens]
        frontier = list(self.uinv)
        while frontier:
            nxt = []
            for pt in frontier:
                base_uinv = self.uinv[pt]
                for g, ginv in zip(images, self.invs):
                    img = g[pt]
                    if img not in self.uinv:
                        # u_img = u_pt * g, so u_img^-1 = g^-1 * u_pt^-1
                        self.uinv[img] = base_uinv[ginv]
                        nxt.append(img)
            frontier = nxt

    def strip(self, arr):
        """Multiply arr by the inverse coset representative of base^arr.

        Returns None when base^arr is outside the basic orbit.  The result
        is an intp array: numpy gathers indexed by a narrow array are
        about three times slower.
        """
        pt = int(arr[self.base])
        u = self.uinv.get(pt)
        if u is None:
            return None
        if pt == self.base:
            return arr
        return u[arr].astype(np.intp)


class _Chain:
    def __init__(self, n):
        self.n = n
        self.levels = []
        self.order = 1  # product of the basic orbit sizes, kept by add
        self._id = np.arange(n, dtype=np.intp)

    def sift(self, arr, start=0):
        """Strip arr through the levels from `start` on; return (residue,
        level index where it dropped out)."""
        for i in range(start, len(self.levels)):
            nxt = self.levels[i].strip(arr)
            if nxt is None:
                return arr, i
            arr = nxt
        return arr, len(self.levels)

    def add(self, arr):
        """Sift and, if a nontrivial residue remains, extend the chain."""
        res, i = self.sift(arr)
        while not np.array_equal(res, self._id):
            if i == len(self.levels):
                moved = int(np.flatnonzero(res != self._id)[0])
                self.levels.append(_Level(moved, self.n))
            lv = self.levels[i]
            before = len(lv.uinv)
            lv.add_gen(res)
            self.order = self.order // before * len(lv.uinv)
            # res fixes the bases of the levels before i, so its re-sift
            # starts at level i and goes on from i + 1 only if that strip
            # leaves more than the identity.
            res = lv.strip(res)
            if not np.array_equal(res, self._id):
                res, i = self.sift(res, i + 1)

    def verify(self):
        """Deterministic Schreier generator closure, bottom-up.

        Returns True if the chain was already complete, False if it had to
        be extended (in which case call again).
        """
        for i in reversed(range(len(self.levels))):
            lv = self.levels[i]
            for pt in list(lv.uinv):
                u = np.empty(self.n, dtype=np.intp)
                u[lv.uinv[pt]] = self._id
                for g in lv.gens:
                    # Sifting u*g from level i strips the Schreier
                    # generator u * g * rep((b_i)^(u*g))^-1.
                    res, j = self.sift(g[u], i)
                    if not np.array_equal(res, self._id):
                        self.add(res)
                        return False
        return True


def group_order(gens, upper_bound=None, rng=None, max_rounds=4096):
    """Exact order of the group generated by gens (stabilizer chain).

    Without upper_bound the randomized chain is finished off with a full
    deterministic Schreier-generator verification, so the result is exact.
    With upper_bound (a proven bound such as n!/2 for even generators) the
    computation stops as soon as the chain order reaches the bound: the
    orbit product never exceeds the true order, so equality is a proof.

    Memory: each chain level keeps one inverse coset representative, a row
    of n points, per point of its basic orbit.  For A_n that is about
    n^3/2 row entries, 1 byte each up to degree 256 and 2 bytes above:
    about 7.5 MB at n = 246 and 200 MB at n = 589.
    """
    gens = [g for g in gens if not g.is_identity()]
    if not gens:
        return 1
    n = gens[0].degree
    if any(g.degree != n for g in gens):
        raise ValueError("generator degree mismatch")
    rng = rng or random.Random(0x237)
    chain = _Chain(n)
    for g in gens:
        chain.add(g.array)
        if upper_bound is not None and chain.order == upper_bound:
            return chain.order

    # Product-replacement state for pseudo-random elements.
    state = [g.array for g in gens]
    while len(state) < 6:
        state.append(state[len(state) % len(gens)])
    acc = state[0]

    def random_element():
        nonlocal acc
        for _ in range(3):
            i, j = rng.randrange(len(state)), rng.randrange(len(state))
            if i != j:
                state[i] = state[i][state[j]]
        acc = acc[state[rng.randrange(len(state))]]
        return acc

    for _ in range(30):
        random_element()

    streak = 0
    for _ in range(max_rounds):
        if upper_bound is not None:
            got = chain.order
            if got == upper_bound:
                return got
            if got > upper_bound:
                raise ValueError("upper_bound exceeded; the bound was not valid")
        w = random_element()
        before = chain.order
        chain.add(w)
        streak = streak + 1 if chain.order == before else 0
        if upper_bound is None and streak >= 24:
            while not chain.verify():
                pass
            return chain.order
    if upper_bound is not None and chain.order == upper_bound:
        return chain.order
    if upper_bound is None:
        while not chain.verify():
            pass
        return chain.order
    raise OrderInconclusive(
        f"randomized stabilizer chain stalled at order {chain.order}"
    )


def is_prime(p):
    """Trial division; numbers below 2 are not prime."""
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def prime_divisors(m):
    """The set of primes dividing m >= 1."""
    out = set()
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.add(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.add(m)
    return out


def random_permutation(n, rng=None):
    rng = rng or random
    images = list(range(n))
    rng.shuffle(images)
    return Permutation(images)


def random_even_permutation(n, rng=None):
    p = random_permutation(n, rng)
    if not p.is_even and n >= 2:
        swap = from_cycles(n, [(0, 1)])
        p = swap * p
    return p

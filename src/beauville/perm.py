"""Exact permutation algebra on the points 0..n-1.

Permutations act on the right: the image of a point ``a`` under ``p`` is
``p[a]``, and products compose left to right, so ``(p * q)[a] == q[p[a]]``.
All values are immutable; every operation returns a new permutation.

The module also holds an exact group-order oracle, `group_order`, which
imports nothing else of the package.  It proves A_n <= G by the giant
test, a cycle of prime length p with n/2 < p <= n - 3 met by a random
walk in a transitive G, and otherwise counts G's `closure` up to
CLOSURE_CAP elements; `enumerate_group` lists that closure.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from functools import lru_cache
from operator import itemgetter

import numpy as np

__all__ = [
    "Permutation",
    "identity",
    "from_cycles",
    "parse_cycles",
    "CycleType",
    "is_transitive",
    "orbit",
    "group_order",
    "closure",
    "enumerate_group",
    "is_prime",
    "prime_divisors",
]


class Permutation:
    """A bijection on {0..n-1}, stored as its read-only array of images.

    Permutations are immutable, so each one memoizes what it learns of its
    cycles.  One vector pass (`_cycle_counts`), which visits no point one
    by one, finds each cycle's least point and its length there; `order`,
    `cycle_type`, `is_even`, `parity` and `cycles_of_length` read that.
    `cycles` and `cycle_string`, which need every point, read one walk of
    the cycles (`_walk_cycles`); `cycles_of_length` walks only the cycles
    it returns.
    Every constructor stores an int64 array, and equality and hash both
    read its bytes: two permutations are equal when their stored hashes
    and image bytes are, so permutations of different degrees never are.
    """

    __slots__ = ("_arr", "_hash", "_cycles", "_counts", "_ctype")

    def __init__(self, images):
        # a copy: the caller's array stays its own, writable and unaliased
        arr = np.array(images, dtype=np.int64)
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
        self._cycles = self._counts = self._ctype = None

    @classmethod
    def _trusted(cls, arr):
        # arr must already be a valid int64 image array; skips validation.
        self = object.__new__(cls)
        arr.setflags(write=False)
        self._arr = arr
        self._hash = hash(arr.tobytes())
        self._cycles = self._counts = self._ctype = None
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

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return self._hash == other._hash and self._arr.tobytes() == other._arr.tobytes()

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

    def _all_counts(self):
        # The memoized length of each cycle at its least point, 0 elsewhere.
        if self._counts is None:
            self._counts = _cycle_counts(self._arr)
        return self._counts

    def _all_lengths(self):
        # The lengths of every cycle, fixed points included.
        counts = self._all_counts()
        return counts[counts > 0]

    def cycles(self, include_fixed=False):
        """Disjoint cycles, each rotated to start at its least point,
        ordered by that least point.  A new list on every call."""
        if include_fixed:
            return list(self._all_cycles())
        return [c for c in self._all_cycles() if len(c) > 1]

    def cycles_of_length(self, k):
        """The cycles of length k, fixed points too when k is 1, each
        rotated to start at its least point, ordered by that least point.
        Walks only their points."""
        images = self._arr.tolist()
        out = []
        for start in np.flatnonzero(self._all_counts() == k).tolist():
            cyc = [start]
            pt = images[start]
            while pt != start:
                cyc.append(pt)
                pt = images[pt]
            out.append(tuple(cyc))
        return out

    def cycle_type(self):
        if self._ctype is None:
            self._ctype = CycleType(np.sort(self._all_lengths()).tolist())
        return self._ctype

    def fixed_points(self):
        return tuple(np.flatnonzero(self._arr == np.arange(self._arr.size)).tolist())

    def order(self):
        # the lengths that occur are where their histogram is nonzero
        return math.lcm(*np.flatnonzero(np.bincount(self._all_lengths())).tolist())

    @property
    def is_even(self):
        # n - (number of cycles) counts the transpositions needed.
        return (self._arr.size - self._all_lengths().size) % 2 == 0

    def parity(self):
        """+1 for an even permutation, -1 for an odd one."""
        return 1 if self.is_even else -1

    def is_identity(self):
        return is_identity_array(self._arr)

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
        template = "".join(map(_cycle_template, map(len, cycs)))
        return template % tuple(itertools.chain.from_iterable(cycs))

    def __repr__(self):
        return f"Permutation[{self.degree}] {self.cycle_string()}"


class CycleType:
    """Multiset of cycle lengths (fixed points included as 1s)."""

    __slots__ = ("lengths",)

    def __init__(self, lengths):
        self.lengths = tuple(sorted(lengths))
        if self.lengths and self.lengths[0] < 1:
            raise ValueError("cycle lengths must be >= 1")

    def __eq__(self, other):
        if not isinstance(other, CycleType):
            return NotImplemented
        return self.lengths == other.lengths

    def __repr__(self):
        parts = []
        for l, m in sorted(Counter(self.lengths).items()):
            parts.append(f"{l}^{m}" if m > 1 else f"{l}")
        return " ".join(parts)


def _walk_cycles(images):
    """Every cycle of the image list, fixed points included, each starting
    at its least point and ordered by it.  The package's one walk of
    every cycle."""
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


@lru_cache(maxsize=64)
def _cycle_template(k):
    # "(%d %d %d)" for k = 3: a k-cycle's text, given its points
    return "(" + " ".join(["%d"] * k) + ")"


def _cycle_counts(arr):
    """For each point of an image array, the length of its cycle if it is
    that cycle's least point, else 0, as an int64 array of the array's
    size.

    Pointer doubling (Hillis and Steele, "Data parallel algorithms",
    CACM 29(12), 1986): after round r, lab[a] is the least point among
    the first 2^r points of a's cycle from a, and p the 2^r-th power.
    Once a round leaves lab unchanged, each a has lab[a] <= lab[p[a]],
    so lab is constant on each cycle and is its least point; that takes
    ceil(log2 of the longest cycle) rounds and one more.  lab only
    decreases, so its sum tells whether a round changed it."""
    lab = np.arange(arr.size, dtype=np.int64)
    total = lab.sum()
    p = arr
    while True:
        np.minimum(lab, lab[p], out=lab)
        after = lab.sum()
        if after == total:
            break
        total = after
        p = p[p]
    return np.bincount(lab, minlength=arr.size)


@lru_cache(maxsize=4)
def _identity_bytes(n, itemsize):
    # the bytes of 0..n-1 depend on the item size, not on the signedness
    return np.arange(n, dtype=f"i{itemsize}").tobytes()


def is_identity_array(arr):
    """Whether an integer image array fixes every point: one comparison of
    its bytes with those of the identity of its size and item size."""
    return arr.tobytes() == _identity_bytes(arr.size, arr.itemsize)


def identity(n):
    return Permutation._trusted(np.arange(n, dtype=np.int64))


def from_cycles(n, cycles):
    """Permutation of degree n from disjoint cycles of points."""
    cycles = [c for c in map(list, cycles) if c]
    return _from_flat(n, [pt for c in cycles for pt in c], [len(c) for c in cycles])


def _from_flat(n, points, sizes):
    """from_cycles for the points of the cycles listed one after another,
    and the cycle lengths (none of them 0)."""
    if n < 1:
        raise ValueError(f"a permutation needs degree >= 1, got {n}")
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


def parse_cycles(text, degree):
    """Parse cycle notation like "(0 1)(2 3 4)" or "id" on 0..degree-1.

    Points may be separated by spaces or commas.  A text of plain decimal
    points is read by a numpy tokenizer, any other by a token scan; both
    give the same permutation, and the scan words every refusal.
    """
    if not isinstance(text, str):
        raise ValueError(f"cycle text must be a string, not {type(text).__name__}")
    if degree < 1:
        raise ValueError(f"a permutation needs degree >= 1, got {degree}")
    points, sizes, top = _read_cycles(text.strip())
    if top >= degree:
        raise ValueError(f"point {top} out of range for degree {degree}")
    return _from_flat(degree, points, sizes)


# The bytes the tokenizer reads: ASCII digits, whitespace, commas and parens.
_CYCLE_BYTES = b"0123456789 \t\n\r\v\f,()"
_DIGIT_MASK = bytes(48 <= c <= 57 for c in range(256))  # digit -> 1, else 0
_LONG_RUN = b"\x01" * 19  # 19 digits may not fit an int64
_TO_SPACE = bytes.maketrans(b",()", b"   ")  # numpy reads the rest as space


def _read_cycles(text):
    """(points, sizes, largest point) of a stripped cycle text, by the
    tokenizer when it applies and by the scan otherwise.  Nothing of the
    size of the largest point is allocated."""
    return _tokenize_cycles(text) or _scan_cycles(text)


def _tokenize_cycles(text):
    """(points, sizes, largest point) of a stripped cycle text made only of
    ASCII digits, whitespace and commas inside (...) groups written back
    to back as ")(", each group with a point and each point at most 18
    digits long, or None for any other text.  Points and sizes are int
    arrays, found by a few passes over the text's bytes."""
    if not text.isascii() or text[:1] != "(" or text[-1:] != ")":
        return None
    raw = text.encode()
    k = raw.count(b"(")
    # with k of each paren and k - 1 ")(", every paren but the first and
    # the last is in a ")(", so the groups hold no parens
    if raw.translate(None, _CYCLE_BYTES) or raw.count(b")") != k or raw.count(b")(") != k - 1:
        return None
    digits = raw.translate(_DIGIT_MASK)
    if _LONG_RUN in digits:
        return None
    # a point starts where a digit follows a non-digit, and the starts
    # between one "(" and the next belong to the first one's group
    d = np.frombuffer(digits, dtype=np.bool_)
    opens = np.flatnonzero(np.frombuffer(raw, dtype=np.uint8) == ord("("))
    sizes = np.add.reduceat(d[1:] > d[:-1], opens, dtype=np.intp)
    if not sizes.all():
        return None
    points = np.fromstring(raw.translate(_TO_SPACE), dtype=np.int64, sep=" ")
    return points, sizes, int(points.max())


def _scan_cycles(text):
    """_tokenize_cycles for any stripped text, one token at a time; raises
    naming the first thing wrong, in reading order."""
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
    return points, sizes, max(points, default=-1)


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


# group_order's giant test walks at most WALK_STEPS steps; otherwise it
# counts the group's closure up to CLOSURE_CAP elements
WALK_STEPS = 1000
CLOSURE_CAP = 28_800


def closure(gens, cap):
    """The elements of <gens> as a list of image tuples, so its length is
    the group's order; raises ValueError once the order passes cap.

    The list grows from the identity, and each element in it is taken
    once times every generator g: g * p sends a to p[g[a]], so its
    images are p's at g's, one call of g's itemgetter.  It holds at most
    cap tuples of n points."""
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].degree
    for g in gens:
        if g.degree != n:
            raise ValueError(f"degree mismatch: {n} vs {g.degree}")
    elements = [tuple(range(n))]
    if n == 1:  # itemgetter of one point returns it, not a 1-tuple
        return elements
    times = [itemgetter(*g.images) for g in gens]
    seen = set(elements)
    done = 0
    while done < len(elements):
        layer = elements[done:]
        done = len(elements)
        for g_times in times:
            for q in map(g_times, layer):
                if q not in seen:
                    if len(elements) >= cap:
                        raise ValueError(f"group order exceeds the cap {cap}")
                    seen.add(q)
                    elements.append(q)
    return elements


def enumerate_group(gens, cap=10_000):
    """All elements of <gens> as Permutations, sorted by their images;
    raises if the order exceeds the cap.  One Permutation is made per
    element of the closure, in the sorted order of its image tuples."""
    rows = np.array(sorted(closure(gens, cap)), dtype=np.int64)
    return [Permutation._trusted(row) for row in rows]


def _has_giant_cycle(arr):
    """Whether the image array has a cycle of prime length p with
    n/2 < p <= n - 3.  At most one cycle is longer than n/2, so it is
    the longest one."""
    n = arr.size
    p = int(_cycle_counts(arr).max())
    return 2 * p > n and p <= n - 3 and is_prime(p)


class _Walk:
    """Product-replacement walk with an accumulator (Celler et al., 1995):
    a list of group elements and a running product, as image arrays."""

    __slots__ = ("state", "acc")

    def __init__(self, state, acc):
        self.state = state
        self.acc = acc

    def step(self, rng):
        state = self.state
        for _ in range(3):
            i, j = rng.randrange(len(state)), rng.randrange(len(state))
            if i != j:
                state[i] = state[i][state[j]]
        self.acc = self.acc[state[rng.randrange(len(state))]]


def _walk_finds_giant_cycle(gens, n):
    """Whether <gens> is transitive and a product-replacement walk in it
    meets, within WALK_STEPS steps after 30 unchecked ones, an element
    with a cycle of prime length p, n/2 < p <= n - 3."""
    if not any(map(is_prime, range(n // 2 + 1, n - 2))) or not is_transitive(gens, n):
        return False
    rng = random.Random(0x237)
    state = [g.array for g in gens]
    while len(state) < 6:
        state.append(state[len(state) % len(gens)])
    walk = _Walk(state, state[0])
    for _ in range(30):
        walk.step(rng)
    for _ in range(WALK_STEPS):
        walk.step(rng)
        if _has_giant_cycle(walk.acc):
            return True
    return False


def group_order(gens, upper_bound=None):
    """Exact order of the group G generated by gens, by one of two proofs.

    - The giant test (Seress, Permutation Group Algorithms, 2003, 10.2).
      If G is transitive, a product-replacement walk in G (Celler,
      Leedham-Green, Murray, Niemeyer and O'Brien, 1995) looks, for at
      most WALK_STEPS steps, for an element with a cycle of prime length
      p, n/2 < p <= n - 3.  Its other cycles are shorter than p, so a
      power of it is a p-cycle.  A p-cycle cannot move a block of G,
      since p blocks of two or more points would take more than n, and
      it cannot fit inside one, since a block has at most n/2 points; so
      G is primitive, and a primitive group holding a p-cycle with
      p <= n - 3 contains A_n (Jordan; Wielandt, Finite Permutation
      Groups, 1964, 13.9).  |G| is then n!/2 if every generator is even,
      else n!.
    - Otherwise the closure of G is counted, up to CLOSURE_CAP elements.

    When neither applies, ValueError names WALK_STEPS and CLOSURE_CAP:
    the answer is never guessed.  The walk starts from the seed 0x237,
    so a run is repeatable, and it holds 7 image arrays of n points; the
    closure holds at most CLOSURE_CAP tuples of n points.
    upper_bound is only a check: a proved order above it raises
    ValueError, as that bound was not valid.
    """
    gens = [g for g in gens if not g.is_identity()]
    if not gens:
        return 1
    n = gens[0].degree
    if any(g.degree != n for g in gens):
        raise ValueError("generator degree mismatch")
    if _walk_finds_giant_cycle(gens, n):
        order = math.factorial(n) // (2 if all(g.is_even for g in gens) else 1)
    else:
        try:
            order = len(closure(gens, CLOSURE_CAP))
        except ValueError:
            raise ValueError(
                f"order not proved: the giant test, at most {WALK_STEPS} walk steps"
                " in a transitive group, found no cycle of prime length p with"
                f" n/2 < p <= n - 3, and the group has more than {CLOSURE_CAP} elements"
            ) from None
    if upper_bound is not None and order > upper_bound:
        raise ValueError("upper_bound exceeded; the bound was not valid")
    return order


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

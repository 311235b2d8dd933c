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
from functools import lru_cache

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


def _cycle_lengths(arr):
    """The length of every cycle of an image array, fixed points included,
    ordered by least point, as an int64 array: map(len, _walk_cycles)
    without a Python step per point."""
    counts = _cycle_counts(arr)
    return counts[counts > 0]


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


_ROW_CACHE_BYTES = 2**27  # verify() keeps rows for later strips up to this


class _Level:
    __slots__ = ("base", "edge", "size", "rows", "gens")

    def __init__(self, base, identity):
        self.base = base
        # flat Schreier tree (Sims 1970), indexed by point: edge[pt] is
        # None off the orbit, and otherwise the inverse array of a
        # generator g with parent^g = pt, so edge[pt][pt] is pt's parent.
        # The base's edge is the chain's one read-only identity, so the
        # base is its own parent.  While the level is open the tree is
        # breadth-first over all of its generators
        self.edge = [None] * len(identity)
        self.edge[base] = identity
        self.size = 1  # the number of orbit points
        # point -> inverse of a coset representative u with base^u =
        # point: the base's row, the identity, and the rows verify() kept
        self.rows = {base: identity}
        # (image list, inverse array) of each generator of S^(i), shared
        # with the other levels; None once the orbit is full
        self.gens = []

    def extend(self, gen):
        """Add a generator of S^(i) and rebuild the flat tree
        breadth-first from the base over all the generators (Seress 2003,
        4.4), so each path is a shortest word in them; only extending the
        old tree would keep its paths along the first generator's cycle.
        One queue loop builds the edges; with one generator it walks that
        generator's cycle.  Rows kept by verify() stay valid, each the
        inverse of some element taking the base to its point."""
        self.gens.append(gen)
        gens = self.gens
        base = self.base
        edge = [None] * len(self.edge)
        edge[base] = self.edge[base]
        queue = [base]
        for pt in queue:  # the loop also visits what it appends
            for images, inv in gens:
                img = images[pt]
                if edge[img] is None:
                    edge[img] = inv
                    queue.append(img)
        self.edge, self.size = edge, len(queue)

    def row(self, pt, rows):
        """The inverse coset row of an orbit point: walk up the tree to
        the nearest point with a row in `rows`, then gather down from it
        (u_pt = u_parent * g along each edge)."""
        edge = self.edge
        path = []
        row = rows.get(pt)
        while row is None:
            inv = edge[pt]
            path.append(inv)
            pt = inv.item(pt)
            row = rows.get(pt)
        for inv in reversed(path):
            row = row[inv]
        return row


class _Chain:
    """Stabilizer chain on one strong generating set S.

    Each strong generator is tagged with the level i where it entered: it
    fixes the bases b_0..b_{i-1} and moves b_i.  S^(i), the generators of
    level i or deeper, is thus S intersected with the stabilizer of
    b_0..b_{i-1}, and level i's orbit is closed under S^(i).
    """

    def __init__(self, n):
        self.n = n
        self.levels = []
        # (entry level, inverse array) per strong generator: the array
        # the trees' edges hold; S^(i) and its inverses generate one group
        self.strong = []
        self.open = []  # indices of the levels whose orbit is not yet full
        self.order = 1  # product of the basic orbit sizes, kept by add
        self.kept = 0  # bytes of the levels' kept rows, base rows aside
        self._id = np.arange(n, dtype=np.intp)
        self._id.flags.writeable = False
        # the ints 0..n-1, one object each: the bases and every open
        # level's image lists refer to these
        self._ints = np.arange(n, dtype=object)

    def top(self):
        """The first level whose orbit is not full (the number of levels
        if all are)."""
        return self.open[0] if self.open else len(self.levels)

    def sift(self, arr, start=0):
        """Strip arr through levels start..last; return (residue, level
        index where it dropped out, or the number of levels).

        Each strip multiplies by the inverse coset row of the base image:
        the level's kept row if verify() kept one, and otherwise the
        tree's edges applied to arr on the way up, the same gathers as
        building the row.  A strip builds no row.
        """
        levels = self.levels
        for i in range(start, len(levels)):
            lv = levels[i]
            base = lv.base
            pt = arr.item(base)
            if pt == base:
                continue
            edge = lv.edge
            if edge[pt] is None:
                return arr, i
            u = lv.rows.get(pt)
            if u is not None:
                arr = u[arr]
            else:
                while pt != base:
                    inv = edge[pt]
                    arr = inv[arr]
                    pt = inv.item(pt)
        return arr, len(levels)

    def add(self, arr):
        """Sift arr and, if a nontrivial residue remains, extend the
        chain."""
        res, i = self.sift(arr)
        while not is_identity_array(res):
            if i == len(self.levels):
                # a new last level, whose tree is res's cycle through the
                # moved base: res now sifts to the identity there
                moved = self._ints[np.flatnonzero(res != self._id)[0]]
                self.levels.append(_Level(moved, self._id))
                self.open.append(i)
                self._enter(res, i)
                return
            self._enter(res, i)
            # res fixes the bases of the levels before i, so its re-sift
            # starts at level i, where base^res is now in the orbit
            res, i = self.sift(res, i)

    def _enter(self, res, i):
        """Make res a strong generator of level i: extend every open level
        k <= i, and close the levels whose orbit reaches n - k points,
        the most any group fixing b_0..b_{k-1} can have."""
        inv = np.empty_like(res)
        inv[res] = self._id
        self.strong.append((i, inv))
        gen = (self._ints[res].tolist(), inv)
        still_open = []
        for k in self.open:
            if k <= i:
                lv = self.levels[k]
                before = lv.size
                lv.extend(gen)
                self.order = self.order // before * lv.size
                if lv.size == self.n - k:
                    lv.gens = None
                    continue
            still_open.append(k)
        self.open = still_open

    def verify(self):
        """Deterministic Schreier generator closure, bottom-up.

        Every Schreier generator u * g * rep((b_i)^(u*g))^-1 of level i,
        for u a coset representative and g the inverse of a generator in
        S^(i), must sift to the identity; those inverses generate the same
        group, so by Schreier's lemma this is complete.  Returns True if
        the chain was already complete, False if it had to be extended
        (in which case call again).
        Each level's rows are built once per call, and kept whole while
        the kept rows take under _ROW_CACHE_BYTES.
        """
        for i in reversed(range(len(self.levels))):
            gens = [g for k, g in self.strong if k >= i]
            lv = self.levels[i]
            # the orbit in point order: each row is gathered down from the
            # nearest ancestor whose row is already built
            orbit = [pt for pt, inv in enumerate(lv.edge) if inv is not None]
            rows = {lv.base: self._id}
            for pt in orbit:
                rows[pt] = lv.row(pt, rows)
            if self.kept < _ROW_CACHE_BYTES:
                self.kept += (len(rows) - len(lv.rows)) * self._id.nbytes
                lv.rows = rows
            for pt in orbit:
                u = np.empty(self.n, dtype=np.intp)
                u[rows[pt]] = self._id
                for g in gens:
                    # u*g times the row of its base image is the Schreier
                    # generator, which fixes b_i
                    ug = g[u]
                    res, _ = self.sift(rows[ug.item(lv.base)][ug], i + 1)
                    if not is_identity_array(res):
                        self.add(res)
                        return False
        return True


def _yields_prime_cycle(arr):
    """Whether some power of the image array is a cycle of prime length
    p <= n - 3: arr has a cycle of length p, and p divides no other
    cycle's length, so arr to the product of the others is that cycle."""
    lengths = _cycle_lengths(arr)
    return any(
        p <= arr.size - 3 and is_prime(p) and np.count_nonzero(lengths % p == 0) == 1
        for p in set(lengths.tolist())
    )


class _Walk:
    """Product-replacement walk with an accumulator (Celler et al., 1995):
    a list of group elements and a running product, as intp arrays."""

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


def group_order(gens, upper_bound=None):
    """Exact order of the group generated by gens (stabilizer chain).

    The chain keeps one strong generating set S.  Each strong generator
    enters at some level i: it fixes the base points b_0..b_{i-1} and
    moves b_i.  S^(i) is the set of strong generators that entered at
    level i or deeper, that is S intersected with the stabilizer of
    b_0..b_{i-1}, and level i's basic orbit is the orbit of b_i under
    S^(i).

    The result is always the exact order, and the run stops only on one
    of three proofs:
    - the chain stops as soon as its order reaches n! (n!/2 when every
      generator is even), a bound on |G| that the orbit product never
      exceeds, so equality is a proof;
    - Jordan's stop: once levels 0 and 1 are full, level 0's orbit has
      n points and level 1's, under a subgroup of the point stabilizer,
      n - 1, so G is 2-transitive and hence primitive.  If then a
      generator, or a walk element that grew the chain, has a cycle of
      prime length p <= n - 3 whose length divides no other cycle's, a
      power of it is a p-cycle, and a primitive group holding one
      contains A_n (Wielandt, Finite Permutation Groups, 1964, 13.9), so
      |G| is n!/2 if every generator is even, else n!.  Only those
      elements are checked, once each, and the check draws no random
      numbers, so a run is the same run as without this stop, cut short;
    - a chain that stops growing short of both, 24 random rounds in a
      row, is finished off with the deterministic Schreier-generator
      verification, which is complete because it runs over all of
      S^(i) at each level i.  A "no" on an imprimitive group, such as
      atlas map J, ends this way and is the slow case.
    upper_bound is only a check: a proved order above it raises
    ValueError, as that bound was not valid.

    Random elements come from one product-replacement walk in G
    (Celler, Leedham-Green, Murray, Niemeyer and O'Brien, 1995), each
    fed to the chain from level 0.  A step replaces one element of the
    walk's state by its product with another, so the state always
    generates G and the walk cannot be caught in a proper subgroup, as a
    walk stripped into a point stabilizer can, and then stall.
    Exactness never depends on the walk: every element fed in is a
    product of generators, so the chain order stays a lower bound on
    |G|, and the result is proved in one of the three ways above.

    Memory: each level keeps a flat Schreier tree (Sims 1970), one list
    of n edges indexed by point, each None off the orbit or a reference
    to a strong generator's inverse array; the base's edge is the
    chain's one read-only identity, which is also every level's base
    row.  An open level's tree is rebuilt breadth-first over all its
    generators whenever it gains one, so its paths are shortest words
    in them (Seress 2003, 4.4).  A strip reads a kept coset row, or
    applies the edges from the base image up to the base straight to the
    element.  Only verify() builds rows, 8n bytes each: once per call,
    one level at a time, it builds a level's table, forms the Schreier
    generators from it, and keeps whole tables while the kept rows take
    under _ROW_CACHE_BYTES (128 MiB).  Each strong generator keeps one
    array, its inverse, 8n bytes: the trees' edges and verify() use that
    same array.  It also keeps an image list while a level it extends is
    open.  The walk holds 7 arrays of 8n bytes.
    The tracemalloc peak of an A_n proof, ended by the Jordan stop, is
    0.06 MiB at n = 246 and 0.12 MiB at n = 589 (3 levels and 4 strong
    generators instead of 587 levels).
    """
    gens = [g for g in gens if not g.is_identity()]
    if not gens:
        return 1
    n = gens[0].degree
    if any(g.degree != n for g in gens):
        raise ValueError("generator degree mismatch")
    rng = random.Random(0x237)
    # |<gens>| <= n!, or n!/2 if every generator is even: a chain reaching
    # it is complete, with no verification
    full = math.factorial(n) // (2 if all(g.is_even for g in gens) else 1)
    chain = _Chain(n)
    # intp arrays, the dtype the chain's identity test compares against
    arrays = [g.array.astype(np.intp, copy=False) for g in gens]
    for arr in arrays:
        chain.add(arr)

    # product replacement in G: each step keeps the state generating G
    state = list(arrays)
    while len(state) < 6:
        state.append(state[len(state) % len(arrays)])
    walk = _Walk(state, state[0])
    for _ in range(30):
        walk.step(rng)

    order = None  # set when the Jordan stop proves A_n <= G
    # whether G holds a p-cycle, p prime <= n - 3, as a power of a
    # generator or of a walk element that grew the chain
    p_cycle = any(_yields_prime_cycle(arr) for arr in arrays)
    streak = 0
    while chain.order < full:
        if p_cycle and chain.top() >= 2:
            # levels 0 and 1 full: G is 2-transitive, so primitive, and
            # holds a p-cycle (Jordan)
            order = full
            break
        walk.step(rng)
        before = chain.order
        chain.add(walk.acc)
        if chain.order == before:
            streak += 1
        else:
            streak = 0
            p_cycle = p_cycle or _yields_prime_cycle(walk.acc)
        if streak >= 24:
            while not chain.verify():
                pass
            break
    if order is None:
        order = chain.order
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

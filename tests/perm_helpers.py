"""Permutation helpers shared by the tests: seeded random permutations,
powers, an equality check that also compares hashes, and an enumeration
oracle independent of the package's own."""

import random
from operator import itemgetter

import numpy as np

from beauville.perm import Permutation


def random_permutation(n, rng=None):
    rng = rng or random
    images = list(range(n))
    rng.shuffle(images)
    return Permutation(images)


def power(p, k):
    """The k-fold product of p, of its inverse for negative k, by repeated
    squaring of the image array."""
    base = p.array if k >= 0 else p.inverse().array
    out = np.arange(p.degree)
    k = abs(k)
    while k:
        if k & 1:
            out = base[out]
        base = base[base]
        k >>= 1
    return Permutation(out)


def equal_and_same_hash(p, q):
    return p == q and q == p and hash(p) == hash(q)


def brute_closure(gens):
    """Independent oracle: the image tuples of the closure of gens under
    right multiplication, taken on tuples: p * g sends a to g[p[a]]."""
    n = gens[0].degree
    images = [g.images for g in gens]
    start = tuple(range(n))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for p in frontier:
            # itemgetter of one point returns that point, not a 1-tuple;
            # on one point every permutation is the identity, so p * g = g
            times = itemgetter(*p) if n > 1 else tuple
            for g in images:
                q = times(g)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


def brute_enumerate(gens):
    """brute_closure's elements as Permutations."""
    return set(map(Permutation, brute_closure(gens)))

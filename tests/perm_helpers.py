"""Permutation helpers shared by the tests: seeded random permutations and
an enumeration oracle independent of the package's own."""

import random

from beauville.perm import Permutation, identity


def random_permutation(n, rng=None):
    rng = rng or random
    images = list(range(n))
    rng.shuffle(images)
    return Permutation(images)


def brute_enumerate(gens):
    """Independent oracle: full closure under right multiplication."""
    n = gens[0].degree
    seen = {identity(n)}
    frontier = [identity(n)]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = p * g
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen

"""Reference folds for the chain engine: every join made on built maps by
`compose.join`, each result validated, as chain notation was evaluated
before `compose.Chain`.  The tests compare the engine's maps with these."""

from beauville.atlas import basic_map
from beauville.compose import _terms, join


def fold_expr(text):
    """Chain notation as one left fold of `compose.join` over its terms:
    "mG" is G joined (1) to itself m - 1 times, and each term is joined
    whole onto the map built so far."""
    m = None
    for k, count, map_id in _terms(text):
        term = basic_map(map_id)
        for _ in range(count - 1):
            term = join(term, 1, basic_map(map_id))
        m = term if k is None else join(m, k, term)
    return m


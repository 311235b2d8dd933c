"""Structure-constant counting from character tables, with an
element-enumeration oracle for small permutation groups.

The count n(X, Y, Z) of solutions of xyz = 1 with x, y, z in prescribed
conjugacy classes comes from the classical character formula

    (|X| |Y| |Z| / |G|) * sum over irreducibles of chi(x)chi(y)chi(z)/chi(1).

Character values are cyclotomic integers in GAP notation, integer
combinations of the roots of unity E(n) = exp(2 pi i / n).  A table holds
them over one conductor m, the lcm of its n, as sparse (exponent mod m,
coefficient) pairs: products add exponents, sums add coefficients and
conjugation negates exponents.  A sum that must be rational is
reduced modulo the cyclotomic polynomial Phi_m and must come out
constant, so every check and count is exact.  Tables ship as data files;
the parser validates the class equation, the table shape, the degrees
and row orthogonality at load.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from types import MappingProxyType

import numpy as np

from .perm import _read_cycles, enumerate_group, parse_cycles

__all__ = [
    "TableError",
    "CharacterTable",
    "load_table",
    "bundled_table",
    "BUNDLED_TABLES",
    "frobenius_count",
    "brute_count",
    "class_sum_coefficient",
    "enumerate_group",
    "conjugacy_classes",
]

TABLE_FORMAT_VERSION = "beauville-table v2"
# Largest conductor accepted, for a single E(n) and for a whole table; the
# reduction modulo Phi_m allocates m coefficients.
MAX_CONDUCTOR = 1000

BUNDLED_TABLES = ("s3", "s4", "a4", "a5", "l2_13")


class TableError(ValueError):
    """Malformed or inconsistent character table data."""


@dataclass(frozen=True)
class ClassInfo:
    name: str
    size: int
    rep_order: int
    inverse: str
    rep: str = ""  # optional cycle notation of a representative


class CharacterTable:
    """Class data plus the matrix of irreducible character values.

    `characters` holds `parse_value` results.  The conductor is the lcm of
    their n, and each value is kept as (exponent mod conductor,
    coefficient) pairs.  A table is read-only once built, since
    `bundled_table` shares one among all its callers: `classes`,
    `characters` and `weights` are tuples, `index` is a read-only
    mapping, and no attribute can be set again.
    """

    def __init__(self, group_name, order, classes, characters):
        self.group_name = group_name
        self.order = order
        self.classes = tuple(classes)
        self.index = MappingProxyType({c.name: i for i, c in enumerate(self.classes)})
        m = math.lcm(1, *(n for row in characters for v in row for n, _, _ in v))
        if m > MAX_CONDUCTOR:
            raise TableError(f"the values need conductor {m}, above {MAX_CONDUCTOR}")
        self.conductor = m
        self.characters = tuple(
            tuple(tuple((k * (m // n) % m, c) for n, k, c in v) for v in row)
            for row in characters
        )
        self._validate()
        self._frozen = True

    def __setattr__(self, name, value):
        if getattr(self, "_frozen", False):
            raise AttributeError(f"a character table is read-only; cannot set {name!r}")
        object.__setattr__(self, name, value)

    def _validate(self):
        if sum(c.size for c in self.classes) != self.order:
            raise TableError("class sizes do not sum to the group order")
        if len(self.characters) != len(self.classes):
            raise TableError(
                f"{len(self.characters)} characters for {len(self.classes)} classes"
            )
        for row in self.characters:
            if len(row) != len(self.classes):
                raise TableError("character row length mismatch")
        for c in self.classes:
            if c.inverse not in self.index:
                raise TableError(f"inverse class {c.inverse!r} of {c.name!r} unknown")
            if c.rep:
                _check_rep(c)
        m = self.conductor
        ident = self.index[_identity_class(self)]
        degrees = []
        for i, row in enumerate(self.characters):
            rem = _reduce(row[ident], m)
            if any(rem[1:]) or rem[0] <= 0:
                raise TableError(f"character {i} has degree {_format(rem, m)}")
            degrees.append(rem[0])
        # frobenius_count weighs row i by lcm(degrees) / degree i
        self.degree_lcm = math.lcm(*degrees)
        self.weights = tuple(self.degree_lcm // d for d in degrees)
        # row orthogonality: sum |C| chi(C) conj(psi(C)) = |G| [chi == psi];
        # the (j, i) sum is the conjugate of the (i, j) one
        for i, chi in enumerate(self.characters):
            for j, psi in enumerate(self.characters[: i + 1]):
                rem = _reduce(
                    ((ea - eb, c.size * ca * cb)
                     for c, a, b in zip(self.classes, chi, psi)
                     for ea, ca in a for eb, cb in b),
                    m,
                )
                if rem != [self.order if i == j else 0] + [0] * (len(rem) - 1):
                    raise TableError(
                        f"row orthogonality fails for characters {i}, {j}: "
                        f"{_format(rem, m)}"
                    )

    def class_named(self, name):
        try:
            return self.classes[self.index[name]]
        except KeyError:
            raise TableError(f"unknown class {name!r}") from None

    def representatives(self, degree):
        """Permutation representatives of the given degree, when the table
        carries them."""
        return {c.name: parse_cycles(c.rep, degree=degree) for c in self.classes if c.rep}


def _check_rep(c):
    """A class representative's points are distinct and non-negative and
    the lcm of its cycle lengths is the class's rep_order.  It is read
    from its points and cycle sizes, so no array of 1 + the largest point
    is made."""
    try:
        points, sizes, _ = _read_cycles(c.rep)
    except ValueError as exc:
        raise TableError(f"class {c.name}: representative {c.rep!r}: {exc}") from None
    if min(points, default=0) < 0:
        raise TableError(f"class {c.name}: representative {c.rep!r} has a negative point")
    if len(set(points)) != len(points):
        raise TableError(f"class {c.name}: representative {c.rep!r} repeats a point")
    order = math.lcm(*sizes)
    if order != c.rep_order:
        raise TableError(
            f"class {c.name}: representative {c.rep!r} has order {order}, not {c.rep_order}"
        )


def _identity_class(table):
    for c in table.classes:
        if c.size == 1 and c.rep_order == 1:
            return c.name
    raise TableError("no identity class")


# -- cyclotomic arithmetic ------------------------------------------------------


@lru_cache(maxsize=None)
def _cyclotomic(m):
    """Phi_m as its degree and its nonzero (power, coefficient) terms below
    the leading 1: x^m - 1 divided by Phi_d for every proper divisor d."""
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly = _divide(poly, d)[0]
    return len(poly) - 1, tuple((k, c) for k, c in enumerate(poly[:-1]) if c)


def _divide(poly, m):
    """Quotient and remainder of an integer polynomial (coefficients from
    the constant term up) by Phi_m."""
    deg, terms = _cyclotomic(m)
    poly = list(poly)
    quotient = [0] * max(len(poly) - deg, 0)
    for top in range(len(poly) - 1, deg - 1, -1):
        c = poly[top]
        if c:
            quotient[top - deg] = c
            for k, ck in terms:
                poly[top - deg + k] -= c * ck
    return quotient, poly[:deg]


def _reduce(terms, m):
    """The canonical coefficients of sum c E(m)^e over (e, c) terms: its
    remainder modulo Phi_m, rational iff only the constant one is nonzero."""
    acc = [0] * m
    for e, c in terms:
        acc[e % m] += c
    return _divide(acc, m)[1]


def _format(coeffs, m):
    """GAP notation for sum coeffs[k] E(m)^k."""
    terms = [f"{c}*E({m})^{k}" if k else str(c) for k, c in enumerate(coeffs) if c]
    # drop unit coefficients and first powers: 1*E(7)^1 -> E(7)
    return re.sub(r"\b1\*|\^1\b", "", "+".join(terms).replace("+-", "-")) or "0"


# -- file format ---------------------------------------------------------------

_TERM = re.compile(r"([+-]?)(?:(?:(\d+)\*)?E\((\d+)\)(?:\^(\d+))?|(\d+))")


def parse_value(tok):
    """Parse a value in GAP notation (`3`, `E(3)^2`, `-E(7)-E(7)^6`,
    `2*E(5)+1`) into its terms (n, k, c), each standing for c E(n)^k; an
    integer c is the term (1, 0, c)."""
    terms = []
    pos = 0
    while not terms or pos < len(tok):
        mt = _TERM.match(tok, pos)
        if mt is None or (terms and not mt.group(1)):
            raise TableError(f"bad value {tok!r}: expected terms like 3, -E(5), 2*E(7)^3")
        sign, coef, n, k, const = mt.groups()
        if n is not None and not 0 < int(n) <= MAX_CONDUCTOR:
            raise TableError(f"bad value {tok!r}: E({n}) is not in E(1)..E({MAX_CONDUCTOR})")
        c = int(const or coef or 1) * (-1 if sign == "-" else 1)
        terms.append((int(n or 1), int(k or 1) if n else 0, c))
        pos = mt.end()
    return tuple(terms)


def _int(tok, line):
    try:
        return int(tok)
    except ValueError:
        raise TableError(f"bad integer {tok!r} in line {line!r}") from None


def parse_table(text):
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or lines[0] != TABLE_FORMAT_VERSION:
        got = f", got {lines[0]!r}" if lines else ""
        raise TableError(f"expected header {TABLE_FORMAT_VERSION!r}{got}")
    group_name = None
    order = None
    classes = []
    characters = []
    for ln in lines[1:]:
        key, _, rest = ln.partition(" ")
        if key == "group":
            group_name = rest.strip()
        elif key == "order":
            order = _int(rest, ln)
        elif key == "class":
            parts = rest.split()
            if len(parts) not in (4, 5):
                raise TableError(f"bad class line: {ln!r}")
            name, size, rep_order, inverse = parts[:4]
            rep = parts[4] if len(parts) == 5 else ""
            classes.append(
                ClassInfo(name, _int(size, ln), _int(rep_order, ln), inverse, rep)
            )
        elif key == "char":
            characters.append([parse_value(tok) for tok in rest.split()])
        else:
            raise TableError(f"unknown line {ln!r}")
    if group_name is None or order is None:
        raise TableError("missing group or order header")
    return CharacterTable(group_name, order, classes, characters)


def load_table(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise TableError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise TableError(f"cannot read {path}: not UTF-8 text") from None
    return parse_table(text)


@lru_cache(maxsize=None)
def bundled_table(name):
    """A bundled table, read, parsed and validated once per process: every
    call with the same name returns the same immutable table."""
    if name not in BUNDLED_TABLES:
        raise TableError(f"no bundled table {name!r}; have {BUNDLED_TABLES}")
    text = resources.files("beauville").joinpath(f"data/{name}.tbl").read_text()
    return parse_table(text)


# -- the counting formula -------------------------------------------------------


def frobenius_count(table, x_name, y_name, z_name):
    """The number of solutions of xyz = 1 in the three named classes.

    Each character's term is weighed by lcm(degrees) / chi(1), so the sum
    is a cyclotomic integer; it must reduce to a rational integer s, and
    |X| |Y| |Z| s / (|G| lcm(degrees)) must be an integer.
    """
    cx, cy, cz = (table.class_named(nm) for nm in (x_name, y_name, z_name))
    ix, iy, iz = (table.index[c.name] for c in (cx, cy, cz))
    m = table.conductor
    terms = (
        (ex + ey + ez, w * ax * ay * az)
        for row, w in zip(table.characters, table.weights)
        for ex, ax in row[ix] for ey, ay in row[iy] for ez, az in row[iz]
    )
    rem = _reduce(terms, m)
    triple = f"({x_name}, {y_name}, {z_name})"
    if any(rem[1:]):
        raise TableError(f"the character sum for {triple} is {_format(rem, m)}, not rational")
    count = Fraction(cx.size * cy.size * cz.size * rem[0], table.order * table.degree_lcm)
    if count.denominator != 1:
        raise TableError(f"non-integral count {count} for {triple}")
    return int(count)


def class_sum_coefficient(table, x_name, y_name, z_name):
    """Coefficient of the z class sum in the product of the x and y class
    sums: n(X, Y, Z^-1) / |Z|."""
    cz = table.class_named(z_name)
    return Fraction(frobenius_count(table, x_name, y_name, cz.inverse), cz.size)


# -- enumeration oracle ---------------------------------------------------------
# The elements come from perm.enumerate_group, the package's one enumerator.


def conjugacy_classes(elements, gens):
    """Partition of the distinct elements into conjugacy classes under
    <gens>; classes sorted by (rep order, size, min element), each sorted
    by images.

    The elements are indexed by their image bytes.  Conjugation by a
    generator g maps all of them at once, as one scatter of their image
    rows (g^-1 p g sends a^g to (a^p)^g), and then to element indices;
    the classes are the orbits of these index maps.  Raises if a
    conjugate is not among the elements.
    """
    perms = list(dict.fromkeys(elements))
    if not perms:
        return []
    n = perms[0].degree
    if any(p.degree != n for p in itertools.chain(perms, gens)):
        raise ValueError("degree mismatch")
    rows = np.stack([p.array for p in perms])
    index = {p.array.tobytes(): i for i, p in enumerate(perms)}
    conj = np.empty_like(rows)
    maps = []
    for g in gens:
        conj[:, g.array] = g.array[rows]
        try:
            maps.append([index[row.tobytes()] for row in conj])
        except KeyError:
            raise ValueError("conjugation left the element set") from None
    # label the orbits from the elements in images order, so that each
    # class, listed in that order, starts at its least element
    order = np.lexsort(rows.T[::-1]).tolist()
    label = [-1] * len(perms)
    count = 0
    for start in order:
        if label[start] >= 0:
            continue
        label[start] = count
        orbit = [start]
        for i in orbit:  # the loop also visits what it appends
            for images in maps:
                j = images[i]
                if label[j] < 0:
                    label[j] = count
                    orbit.append(j)
        count += 1
    classes = [[] for _ in range(count)]
    for i in order:
        classes[label[i]].append(perms[i])
    classes.sort(key=lambda cl: (cl[0].order(), len(cl), cl[0].images))
    return classes


def brute_count(gens, x_rep, y_rep, z_rep, cap=10_000):
    """Count ordered triples (x, y, z) with xyz = 1 and each factor
    conjugate (inside <gens>) to the given representative."""
    elements = enumerate_group(gens, cap=cap)
    classes = conjugacy_classes(elements, list(gens))
    class_of = {p: idx for idx, cl in enumerate(classes) for p in cl}
    try:
        cx, cy, cz = (class_of[r] for r in (x_rep, y_rep, z_rep))
    except KeyError as exc:
        raise ValueError(f"representative {exc} is not in the group") from None
    return sum(class_of[(x * y).inverse()] == cz for x in classes[cx] for y in classes[cy])

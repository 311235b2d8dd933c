import hashlib
import itertools
import math
import random
import time
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest

from beauville import frobenius
from beauville.atlas import basic_map
from beauville.frobenius import (
    BUNDLED_TABLES,
    MAX_CONDUCTOR,
    TableError,
    brute_count,
    bundled_table,
    class_sum_coefficient,
    conjugacy_classes,
    enumerate_group,
    frobenius_count,
    load_table,
    parse_table,
    parse_value,
)
from beauville.perm import Permutation, closure, from_cycles, identity, parse_cycles

from count_helpers import full_conductor_count
from perm_helpers import brute_closure, brute_enumerate, equal_and_same_hash, random_permutation


def s3_gens():
    return [parse_cycles("(0 1)", 3), parse_cycles("(0 1 2)", 3)]


C3_TABLE = (
    "beauville-table v2\ngroup C3\norder 3\n"
    "class 1A 1 1 1A id\n"
    "class 3A 1 3 3B (0,1,2)\n"
    "class 3B 1 3 3A (0,2,1)\n"
    "char 1 1 1\n"
    "char 1 E(3) E(3)^2\n"
    "char 1 E(3)^2 E(3)\n"
)


# cyclic group of order 4: character values are Gaussian integers
C4_TABLE = (
    "beauville-table v2\ngroup C4\norder 4\n"
    "class 1A 1 1 1A id\n"
    "class 4A 1 4 4B (0,1,2,3)\n"
    "class 2A 1 2 2A (0,2)(1,3)\n"
    "class 4B 1 4 4A (0,3,2,1)\n"
    "char 1 1 1 1\n"
    "char 1 E(4) -1 -E(4)\n"
    "char 1 -1 1 -1\n"
    "char 1 E(4)^3 -1 E(4)\n"
)

# rows orthonormal over weight-1 classes, but not the character table of
# any group: the (1A, 2A, 2A) sum is 2 - 2 E(8)^2
F_TABLE = (
    "beauville-table v2\ngroup F\norder 4\n"
    "class 1A 1 1 1A\nclass 2A 1 2 2A\nclass 2B 1 2 2B\nclass 2C 1 2 2C\n"
    "char 1 1 1 1\n"
    "char 1 E(8)^3 -1 E(8)^7\n"
    "char 1 -1 1 -1\n"
    "char 1 E(8)^7 -1 E(8)^3\n"
)

# the shape of D7's table (class sizes 1, 2, 2, 2, 7), with integers where
# D7 has E(7)^k + E(7)^-k: rows orthogonal and every sum rational, but not
# the table of any group, since n(7A, 7A, 7A) comes out as -6/7
FAKE_D7_TABLE = (
    "beauville-table v2\ngroup D\norder 14\n"
    "class 1A 1 1 1A\nclass 7A 2 7 7A\nclass 7B 2 7 7B\nclass 7C 2 7 7C\n"
    "class 2A 7 2 2A\n"
    "char 1 1 1 1 1\n"
    "char 1 1 1 1 -1\n"
    "char 2 -2 0 1 0\n"
    "char 2 0 1 -2 0\n"
    "char 2 1 -2 0 0\n"
)


def bad_a5_table(rep_3a):
    """The bundled A5 table with another text for the 3A representative."""
    text = resources.files("beauville").joinpath("data/a5.tbl").read_text()
    line = "class 3A 20 3 3A (0,1,2)"
    assert line in text
    return text.replace(line, f"class 3A 20 3 3A {rep_3a}")


class TestParsing:
    def test_values(self):
        assert parse_value("3") == ((1, 0, 3),)
        assert parse_value("-1") == ((1, 0, -1),)
        assert parse_value("E(3)^2") == ((3, 2, 1),)
        assert parse_value("-E(7)-E(7)^6") == ((7, 1, -1), (7, 6, -1))
        assert parse_value("2*E(4)+E(6)^3") == ((4, 1, 2), (6, 3, 1))
        assert parse_value("+5-3*E(5)^11") == ((1, 0, 5), (5, 11, -3))
        # float input is gone with the v1 format
        with pytest.raises(TableError, match="bad value"):
            parse_value("-0.5+0.8660254037844386i")

    @pytest.mark.parametrize(
        "tok",
        ["E(0)", "1.5", "1/2", "1/0", "E(3)^", "2E", "E(3)E(3)", "", "+", "2*3", "i"],
    )
    def test_malformed_values(self, tok):
        with pytest.raises(TableError) as exc:
            parse_value(tok)
        assert repr(tok) in str(exc.value)

    def test_conductor_bound(self):
        t0 = time.perf_counter()
        with pytest.raises(TableError, match=r"E\(1000000007\)"):
            parse_value("E(1000000007)")
        with pytest.raises(TableError, match=rf"E\({MAX_CONDUCTOR + 1}\)"):
            parse_value(f"E({MAX_CONDUCTOR + 1})")
        assert parse_value(f"E({MAX_CONDUCTOR})") == ((MAX_CONDUCTOR, 1, 1),)
        # each root is within the bound, their lcm 3 * 997 * 991 is not
        text = C3_TABLE.replace("char 1 1 1\n", "char 1 E(997)-E(997)+1 E(991)-E(991)+1\n")
        with pytest.raises(TableError, match="conductor 2964081, above 1000"):
            parse_table(text)
        assert time.perf_counter() - t0 < 1.0

    def test_bad_header(self):
        with pytest.raises(TableError):
            parse_table("nope\n")
        with pytest.raises(TableError, match="beauville-table v2"):
            parse_table(C3_TABLE.replace("v2", "v1"))

    def test_bad_integer_fields(self):
        with pytest.raises(TableError, match="'abc' in line 'order abc'"):
            parse_table(C3_TABLE.replace("order 3", "order abc"))
        with pytest.raises(TableError, match="'one'"):
            parse_table(C3_TABLE.replace("class 1A 1 1", "class 1A one 1"))

    def test_orthogonality_enforced(self):
        bad = (
            "beauville-table v2\ngroup X\norder 2\n"
            "class 1A 1 1 1A\nclass 2A 1 2 2A\n"
            "char 1 1\nchar 1 1\n"
        )
        with pytest.raises(TableError, match="orthogonality"):
            parse_table(bad)

    def test_orthogonality_names_characters_of_irrational_sum(self):
        # against the trivial row, 1 + E(3)^2 + E(3)^2 = -1 - 2 E(3)
        text = C3_TABLE.replace("char 1 E(3)^2 E(3)\n", "char 1 E(3)^2 E(3)^2\n")
        with pytest.raises(TableError, match=r"characters 2, 0: -1-2\*E\(3\)$"):
            parse_table(text)

    def test_degree_must_be_a_positive_integer(self):
        text = C3_TABLE.replace("char 1 E(3) E(3)^2", "char E(3) E(3)^2 1")
        with pytest.raises(TableError, match=r"character 1 has degree E\(3\)"):
            parse_table(text)

    def test_exact_complex_values(self):
        # cyclic group of order 3, values the primitive cube roots of unity
        t = parse_table(C3_TABLE)
        assert t.conductor == 3
        # x * y = identity forces y = x^-1
        assert frobenius_count(t, "3A", "3B", "1A") == 1
        assert frobenius_count(t, "3A", "3A", "3A") == 1
        assert frobenius_count(t, "3A", "3A", "1A") == 0

    def test_exact_gaussian_values(self):
        t = parse_table(C4_TABLE)
        assert frobenius_count(t, "4A", "4A", "2A") == 1
        assert frobenius_count(t, "4A", "4B", "1A") == 1
        assert frobenius_count(t, "4A", "4A", "1A") == 0
        assert frobenius_count(t, "2A", "2A", "1A") == 1

    def test_irrational_count_refused(self):
        t = parse_table(F_TABLE)
        with pytest.raises(TableError, match=r"\(1A, 2A, 2A\) is 2-2\*E\(8\)\^2, not rational"):
            frobenius_count(t, "1A", "2A", "2A")

    def test_class_sum_mismatch(self):
        bad = (
            "beauville-table v2\ngroup X\norder 3\n"
            "class 1A 1 1 1A\nclass 2A 1 2 2A\n"
            "char 1 1\nchar 1 -1\n"
        )
        with pytest.raises(TableError, match="sum"):
            parse_table(bad)


@pytest.mark.parametrize(
    "text, triple, message",
    [
        (C3_TABLE + "char 1 1 1\n", None, "4 characters for 3 classes"),
        (C3_TABLE.replace("char 1 1 1\n", "char 1 1 1 1\n"), None,
         "character row length mismatch"),
        (C3_TABLE.replace("class 3A 1 3 3B", "class 3A 1 3 3C"), None,
         "inverse class '3C' of '3A' unknown"),
        (C3_TABLE.replace("class 1A 1 1 1A id", "class 1A 1 3 1A"), None, "no identity class"),
        (C3_TABLE.replace("class 1A 1 1 1A id", "class 1A 1 1"), None,
         "bad class line: 'class 1A 1 1'"),
        (C3_TABLE + "colour red\n", None, "unknown line 'colour red'"),
        (C3_TABLE.replace("group C3\n", ""), None, "missing group or order header"),
        (FAKE_D7_TABLE, ("7A", "7A", "7A"), "non-integral count -6/7 for (7A, 7A, 7A)"),
    ],
    ids=["characters", "row-length", "inverse", "identity", "class-line", "unknown-line",
         "header", "non-integral"],
)
def test_each_refusal_fires(text, triple, message):
    """Every refusal of the table reader and of the count, each named."""
    with pytest.raises(TableError) as exc:
        frobenius_count(parse_table(text), *triple) if triple else parse_table(text)
    assert str(exc.value) == message


class TestBundled:
    @pytest.mark.parametrize("name", BUNDLED_TABLES)
    def test_loads_and_validates(self, name):
        table = bundled_table(name)
        assert table.order == {"s3": 6, "s4": 24, "a4": 12, "a5": 60, "l2_13": 1092}[name]
        assert len(table.characters) == len(table.classes)

    def test_unknown(self):
        with pytest.raises(TableError):
            bundled_table("m11")

    @pytest.mark.parametrize(
        "rep, named",
        [
            ("(0,1,hello", "class 3A: representative '(0,1,hello': bad cycle notation"),
            ("(0,1)", "class 3A: representative '(0,1)' has order 2, not 3"),
            ("(0,-1,2)", "class 3A: representative '(0,-1,2)' has a negative point"),
            ("(0,1,0)", "class 3A: representative '(0,1,0)' repeats a point"),
        ],
        ids=["not-cycles", "order", "negative", "repeat"],
    )
    def test_bad_representative_refused_at_load(self, tmp_path, rep, named):
        path = tmp_path / "a5.tbl"
        path.write_text(bad_a5_table(rep))
        with pytest.raises(TableError) as exc:
            load_table(path)
        assert str(exc.value).startswith(named)

    def test_representative_check_allocates_nothing_for_a_huge_point(self):
        # the check reads points and cycle sizes, with no array of 1 + the
        # largest point; only a permutation of some degree needs one
        table = parse_table(bad_a5_table("(0,1,999999999999999999999)"))
        with pytest.raises(ValueError, match="out of range for degree 5"):
            table.representatives(degree=5)

    def test_representatives_need_a_degree(self):
        with pytest.raises(TypeError):
            bundled_table("a5").representatives()
        reps = bundled_table("a5").representatives(degree=7)
        assert reps["3A"] == parse_cycles("(0 1 2)", 7)

    def test_loaded_once_and_shared_read_only(self, tmp_path):
        table = bundled_table("a5")
        assert bundled_table("a5") is table
        assert isinstance(table.classes, tuple) and isinstance(table.weights, tuple)
        assert isinstance(table.characters, tuple)
        assert all(isinstance(row, tuple) for row in table.characters)
        with pytest.raises(TypeError):
            table.index["1A"] = 1
        with pytest.raises(AttributeError):
            table.order = 120
        assert frobenius_count(bundled_table("a5"), "2A", "3A", "5A") == 60
        # a table read from a file is parsed again on every call
        path = tmp_path / "a5.tbl"
        path.write_text(resources.files("beauville").joinpath("data/a5.tbl").read_text())
        first, second = load_table(path), load_table(path)
        assert first is not second and first is not table
        assert first.characters == second.characters == table.characters


class TestCounts:
    def test_identity_triple(self):
        for name in BUNDLED_TABLES:
            assert frobenius_count(bundled_table(name), "1A", "1A", "1A") == 1

    def test_s3_transposition_pairs(self):
        # ordered pairs of transpositions with product of order 3: brute
        # enumeration gives 6, and so does direct reasoning (3 choices for
        # the first, 2 distinct remaining)
        got = brute_count(
            s3_gens(),
            parse_cycles("(0 1)", 3),
            parse_cycles("(0 1)", 3),
            parse_cycles("(0 1 2)", 3),
        )
        assert got == 6
        assert frobenius_count(bundled_table("s3"), "2A", "2A", "3A") == 6

    def test_unknown_class(self):
        with pytest.raises(TableError):
            frobenius_count(bundled_table("s3"), "2A", "2A", "7A")

    def test_cyclic_rotation_invariance(self):
        table = bundled_table("a5")
        names = [c.name for c in table.classes]
        for x in names:
            for y in names:
                for z in names:
                    a = frobenius_count(table, x, y, z)
                    assert a == frobenius_count(table, y, z, x)
                    assert a == frobenius_count(table, z, x, y)

    def test_class_sum_coefficient(self):
        t = bundled_table("s3")
        assert class_sum_coefficient(t, "1A", "1A", "1A") == 1
        assert class_sum_coefficient(t, "2A", "2A", "3A") == Fraction(6, 2)
        # definitional identity |Z| * coefficient = n(X, Y, Z^-1)
        t4 = bundled_table("a4")
        for x in ("2A", "3A", "3B"):
            for z in ("3A", "3B"):
                cz = t4.class_named(z)
                assert cz.size * class_sum_coefficient(t4, x, x, z) == frobenius_count(
                    t4, x, x, cz.inverse
                )


def cyclic_table(n):
    """The table of the cyclic group of order n, class i holding g^i:
    its columns' conductors are the divisors n / gcd(n, i) of n."""
    lines = [f"beauville-table v2\ngroup C{n}\norder {n}\n"]
    lines += [f"class g{i} 1 {n // math.gcd(n, i)} g{-i % n}\n" for i in range(n)]
    for j in range(n):
        powers = (i * j % n for i in range(n))
        lines.append("char " + " ".join(f"E({n})^{e}" if e else "1" for e in powers) + "\n")
    return "".join(lines)


TEST_TABLES = {
    "c3": C3_TABLE,
    "c4": C4_TABLE,
    "c8": cyclic_table(8),
    "c12": cyclic_table(12),
    "f": F_TABLE,
    "fake_d7": FAKE_D7_TABLE,
}


class TestColumnFields:
    """Each count is reduced in its own columns' field, Q(E(k)) for k the
    lcm of their conductors, and agrees with the reduction at the table's
    whole conductor."""

    @pytest.mark.parametrize("name", BUNDLED_TABLES + tuple(TEST_TABLES))
    def test_counts_and_refusals_match_the_full_conductor(self, name):
        table = bundled_table(name) if name in BUNDLED_TABLES else parse_table(TEST_TABLES[name])
        names = [c.name for c in table.classes]
        for triple in itertools.product(names, repeat=3):
            try:
                want = full_conductor_count(table, *triple)
            except TableError as exc:
                with pytest.raises(TableError) as got:
                    frobenius_count(table, *triple)
                assert str(got.value) == str(exc), triple
            else:
                assert frobenius_count(table, *triple) == want, triple

    def test_cyclic_counts(self):
        # in C_n, n(g^a, g^b, g^c) = [a + b + c = 0 mod n]; C12's columns
        # have conductors 1, 2, 3, 4, 6 and 12
        table = parse_table(cyclic_table(12))
        assert set(table.column_conductors) == {1, 2, 3, 4, 6, 12}
        for a, b, c in itertools.product(range(12), repeat=3):
            want = int((a + b + c) % 12 == 0)
            assert frobenius_count(table, f"g{a}", f"g{b}", f"g{c}") == want

    def test_l2_13_sweep_reduces_at_1_or_7(self, monkeypatch):
        table = bundled_table("l2_13")
        assert table.conductor == 91
        assert table.column_conductors == (1, 1, 1, 1, 7, 7, 7, 13, 13)
        names = [c.name for c in table.classes if c.rep_order in (1, 2, 3, 5, 7)]
        assert names == ["1A", "2A", "3A", "7A", "7B", "7C"]
        seen = []
        divide = frobenius._divide

        def recording_divide(poly, m):
            seen.append(m)
            return divide(poly, m)

        monkeypatch.setattr(frobenius, "_divide", recording_divide)
        for triple in itertools.product(names, repeat=3):
            frobenius_count(table, *triple)
        assert set(seen) == {1, 7}

    @pytest.mark.parametrize("name", BUNDLED_TABLES)
    def test_conductors_divide_the_class_orders(self, name):
        # chi(g) lies in Q(E(o(g))); F_TABLE, no group's table, breaks this
        table = bundled_table(name)
        assert len(table.column_conductors) == len(table.classes)
        for k, c in zip(table.column_conductors, table.classes):
            assert c.rep_order % k == 0, c.name

    def test_conductors_are_read_only(self):
        table = bundled_table("l2_13")
        with pytest.raises(AttributeError, match="read-only"):
            table.column_conductors = (1,) * 9
        assert isinstance(table.column_conductors, tuple)


# SHA-256 of "X,Y,Z count" lines over every class triple (class names
# sorted) of each bundled table; taken from the float-valued tables that
# preceded the exact cyclotomic format, so any count that moved fails here.
COUNT_DIGESTS = {
    "s3": "4b9db51bc309bb8ef220baaf938ac299005792878a7a6eb3c5262e042e97fe6d",
    "s4": "d41e9af94175ff96a66b1fb75e40a3f9696fe57a83ad518bee4e09c5faf3cd7e",
    "a4": "0b1c96bf5f445d5f3b37152f9e63f806adb6c6125e8f0de0fb03fd3c6868c60f",
    "a5": "d04f6363f53d999e925855596416cf387698204c9b5c7146d53274b46d131472",
    "l2_13": "dcbab84c3845570cf59c5d1200670fb24477f9c200b043a686671883d42e8e65",
}


@pytest.mark.parametrize("name", BUNDLED_TABLES)
def test_every_count_pinned(name):
    table = bundled_table(name)
    names = sorted(c.name for c in table.classes)
    text = "".join(
        f"{x},{y},{z} {frobenius_count(table, x, y, z)}\n"
        for x, y, z in itertools.product(names, repeat=3)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == COUNT_DIGESTS[name]


class TestEnumeration:
    def test_trivial_group(self):
        got = brute_count([identity(3)], identity(3), identity(3), identity(3))
        assert got == 1

    def test_cap(self):
        m = basic_map("A")
        with pytest.raises(ValueError, match="cap"):
            enumerate_group([m.x, m.y], cap=100)

    def test_classes_of_s3(self):
        elements = enumerate_group(s3_gens())
        classes = conjugacy_classes(elements, s3_gens())
        assert sorted(len(c) for c in classes) == [1, 2, 3]

    def test_rep_outside_group(self):
        with pytest.raises(ValueError, match="not in the group"):
            brute_count(
                [parse_cycles("(0 1 2)", 3)],
                parse_cycles("(0 1)", 3),
                parse_cycles("(0 1)", 3),
                parse_cycles("(0 1 2)", 3),
            )

    def test_cap_equal_to_the_order_passes(self):
        gens = ENUMERATED_GENS["l2_13"]()
        assert len(enumerate_group(gens, cap=1092)) == 1092
        with pytest.raises(ValueError, match="exceeds the cap 1091"):
            enumerate_group(gens, cap=1091)

    def test_mixed_degrees(self):
        with pytest.raises(ValueError, match="degree mismatch"):
            enumerate_group([parse_cycles("(0 1 2)", 3), parse_cycles("(0 1)", 4)])
        with pytest.raises(ValueError, match="degree mismatch"):
            conjugacy_classes(enumerate_group(s3_gens()), [parse_cycles("(0 1)", 4)])

    def test_elements_not_closed_under_conjugation(self):
        elements = [identity(3), parse_cycles("(0 1)", 3)]
        with pytest.raises(ValueError, match="left the element set"):
            conjugacy_classes(elements, s3_gens())

    def test_duplicate_elements_collapse(self):
        gens = GROUP_GENS["a4"]()
        elements = enumerate_group(gens)
        classes = conjugacy_classes(elements, gens)
        assert conjugacy_classes(elements[::-1] + elements[3:9], gens) == classes
        assert sum(map(len, classes)) == len(elements) == 12
        # a seeded shuffle with repeats, some of them new objects, gives
        # the classes of the sorted elements
        rng = random.Random(48)
        for name in BUNDLED_TABLES:
            gens = ENUMERATED_GENS[name]()
            elements = enumerate_group(gens, cap=3000)
            classes = conjugacy_classes(elements, gens)
            shuffled = elements + rng.sample(elements, len(elements) // 3)
            shuffled += [Permutation(p.images) for p in rng.sample(elements, 5)]
            rng.shuffle(shuffled)
            assert conjugacy_classes(shuffled, gens) == classes, name
            assert sum(map(len, classes)) == len(elements) == bundled_table(name).order

    @pytest.mark.parametrize("name", BUNDLED_TABLES)
    def test_elements_are_the_sorted_closure(self, name):
        gens = ENUMERATED_GENS[name]()
        elements = enumerate_group(gens, cap=3000)
        assert [p.images for p in elements] == sorted(map(tuple, closure(gens, 3000).tolist()))
        for p in elements:
            assert equal_and_same_hash(p, Permutation(p.images))
            assert not p.array.flags.writeable

    def test_no_elements_or_no_generators(self):
        assert conjugacy_classes([], s3_gens()) == []
        elements = enumerate_group(s3_gens())
        singletons = conjugacy_classes(elements, [])
        assert singletons == [[p] for p in sorted(elements, key=lambda p: (p.order(), p.images))]


GROUP_GENS = {
    "s3": lambda: s3_gens(),
    "s4": lambda: [parse_cycles("(0 1)", 4), parse_cycles("(0 1 2 3)", 4)],
    "a4": lambda: [parse_cycles("(0 1 2)", 4), parse_cycles("(0 1)(2 3)", 4)],
    "a5": lambda: [parse_cycles("(0 1 2 3 4)", 5), parse_cycles("(0 1 2)", 5)],
}


def alternating_gens(n):
    """The generators of A_n that acceptance criterion 11 enumerates."""
    gens = [from_cycles(n, [(0, 1, 2)])]
    if n >= 4:
        gens.append(from_cycles(n, [tuple(range(n)) if n % 2 else tuple(range(1, n))]))
    return gens


ENUMERATED_GENS = {
    **GROUP_GENS,
    "l2_13": lambda: [basic_map("A").x, basic_map("A").y],
    **{f"alt{n}": (lambda n=n: alternating_gens(n)) for n in range(3, 8)},
}

def closure_case(case):
    """The generators a block closure test runs on: a bundled table's,
    an atlas map's x and y, or the group on one point."""
    if case in ENUMERATED_GENS:
        return ENUMERATED_GENS[case]()
    if case.startswith("map "):
        m = basic_map(case[4:])
        return [m.x, m.y]
    return [identity(1)]


def layered_closure(gens):
    """The closure's rows in the order it meets them, on tuples: the
    layer times each generator in turn, g * p sending a to p[g[a]]."""
    n = gens[0].degree
    elements = [tuple(range(n))]
    seen = set(elements)
    done = 0
    while done < len(elements):
        layer = elements[done:]
        done = len(elements)
        for g in gens:
            for p in layer:
                q = tuple(p[a] for a in g.images)
                if q not in seen:
                    seen.add(q)
                    elements.append(q)
    return elements


class TestBlockClosure:
    CASES = [*BUNDLED_TABLES, *(f"map {mid}" for mid in "ACEFG"), "one point"]

    @pytest.mark.parametrize("case", CASES)
    def test_rows_are_the_group(self, case):
        gens = closure_case(case)
        block = closure(gens, 20_000)
        rows = list(map(tuple, block.tolist()))
        assert set(rows) == brute_closure(gens)
        assert len(set(rows)) == len(rows)
        assert block.dtype == np.min_scalar_type(gens[0].degree - 1)
        assert block.flags.c_contiguous and not block.flags.writeable

    @pytest.mark.parametrize("case", ["s4", "map A", "map C", "one point"])
    def test_rows_come_in_the_order_met(self, case):
        gens = closure_case(case)
        assert list(map(tuple, closure(gens, 20_000).tolist())) == layered_closure(gens)

    @pytest.mark.parametrize("n, dtype", [(256, np.uint8), (257, np.uint16)])
    def test_row_width(self, n, dtype):
        # one byte per point up to n = 256, two bytes past it: S_3 on the
        # last three points
        gens = [from_cycles(n, [tuple(range(n - 3, n))]), from_cycles(n, [(n - 2, n - 1)])]
        block = closure(gens, 6)
        assert block.dtype == dtype
        assert set(map(tuple, block.tolist())) == brute_closure(gens)

    @pytest.mark.parametrize("case", ["a5", "map A", "map F"])
    def test_cap(self, case):
        gens = closure_case(case)
        order = len(brute_closure(gens))
        assert len(closure(gens, order)) == order
        with pytest.raises(ValueError) as exc:
            closure(gens, order - 1)
        assert str(exc.value) == f"group order exceeds the cap {order - 1}"


# SHA-256 of each group's element list (one line of images per element,
# in the order enumerate_group returns them) followed by its class
# partition (one line of element positions per class, in the order
# conjugacy_classes returns them); taken from the enumeration that built
# one Permutation per product and compared them with np.array_equal.
ENUMERATION_DIGESTS = {
    "a4": "36f8b6f0458ef713db92f8d3cd73d8fa9b1c8ddd187fa1d6c548600fd689d630",
    "a5": "478ed10169f6604e9b00e55cbc43cdac072ed57152e47778b6552a07c01bd634",
    "alt3": "a507822c850c6a3033314f31e31040303af5c60be091e447149156e59dcfc5df",
    "alt4": "36f8b6f0458ef713db92f8d3cd73d8fa9b1c8ddd187fa1d6c548600fd689d630",
    "alt5": "478ed10169f6604e9b00e55cbc43cdac072ed57152e47778b6552a07c01bd634",
    "alt6": "1fedecc6a979cb18d47057b47046175c1a4055487547dca6237b87d4f6450f9d",
    "alt7": "cfbf6e28ed803c5303d6d08bd7ccd647e04d9cf52283d9cd18415a33867a372f",
    "l2_13": "cbaf8248f96f9c1cd9afba71be8eb5a59b123d13b9206bb23a7577da90033f9f",
    "s3": "7b2ce71769c8ce3611d9ffe07e79d7e62bf29be805515f9f7ecdba646761c184",
    "s4": "c7c6bd8f739faf3a607d4bd3a3a7f40b7a584f75a8fdbc65a358b37f1d940422",
}


def reference_classes(elements, gens):
    """The orbits of conjugation, one conjugate_by at a time, each sorted
    by images; classes in the order conjugacy_classes promises."""
    unseen = set(elements)
    classes = []
    while unseen:
        orbit = {min(unseen, key=lambda p: p.images)}
        frontier = list(orbit)
        while frontier:
            frontier = [q for q in {p.conjugate_by(g) for p in frontier for g in gens} if q not in orbit]
            orbit.update(frontier)
        unseen -= orbit
        classes.append(sorted(orbit, key=lambda p: p.images))
    return sorted(classes, key=lambda cl: (cl[0].order(), len(cl), cl[0].images))


def test_enumeration_matches_reference_on_random_groups():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randrange(1, 7)
        gens = [random_permutation(n, rng) for _ in range(rng.randrange(1, 4))]
        elements = enumerate_group(gens, cap=720)
        assert elements == sorted(brute_enumerate(gens), key=lambda p: p.images)
        assert conjugacy_classes(elements, gens) == reference_classes(elements, gens)


@pytest.mark.parametrize("name", sorted(ENUMERATED_GENS))
def test_enumeration_pinned(name):
    gens = ENUMERATED_GENS[name]()
    elements = enumerate_group(gens, cap=3000)
    classes = conjugacy_classes(elements, gens)
    position = {p: i for i, p in enumerate(elements)}
    text = "".join(" ".join(map(str, p.images)) + "\n" for p in elements)
    text += "".join(" ".join(str(position[p]) for p in cl) + "\n" for cl in classes)
    assert hashlib.sha256(text.encode()).hexdigest() == ENUMERATION_DIGESTS[name]


@pytest.mark.parametrize("name", ["s3", "s4", "a4", "a5"])
def test_cross_oracle_small_groups(name):
    """Table counts equal enumeration counts for every class triple with
    element orders in {1, 2, 3, 5, 7}."""
    table = bundled_table(name)
    gens = GROUP_GENS[name]()
    degree = gens[0].degree
    reps = table.representatives(degree=degree)
    eligible = [c.name for c in table.classes if c.rep_order in (1, 2, 3, 5, 7)]
    elements = enumerate_group(gens)
    classes = conjugacy_classes(elements, gens)
    class_of = {p: i for i, cl in enumerate(classes) for p in cl}
    idx = {nm: class_of[reps[nm]] for nm in eligible}
    for xn in eligible:
        for yn in eligible:
            tallies = {}
            for x in classes[idx[xn]]:
                for y in classes[idx[yn]]:
                    z = (x * y).inverse()
                    tallies[class_of[z]] = tallies.get(class_of[z], 0) + 1
            for zn in eligible:
                assert frobenius_count(table, xn, yn, zn) == tallies.get(idx[zn], 0)

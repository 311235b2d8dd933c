"""Seeded mutations of map documents, map text and certificate members.

Every reader of a map goes through `maps.map_from_doc`; whatever the
input, it may refuse only with its declared error: `MapError` for a map
document or map text, `CertificationError` for a certificate.  Fixed
regression cases pin the messages, and the size bound on a stated degree.
"""

import copy
import json
import random
import time
import tracemalloc

import pytest

from beauville import _atlas_data
from beauville.atlas import BASIC_MAP_IDS, basic_map
from beauville.certify import (
    CertificationError,
    certificate_from_json,
    certificate_maps,
    certificate_to_json,
    certify_dhb,
    verify_certificate,
)
from beauville.construct import minimal_plan
from beauville.maps import MapError, map_doc, map_from_doc, map_from_text, map_to_text

CHARS = "0123456789  (),-+_\n\tid٣\x00"
VALUES = [None, True, False, 0, -1, 1, 14, 14.0, "14", 10**15, [], {}, "id", "()", 5, [0]]


def mutate_text(text, rng):
    """One to three edits: drop, insert, replace or repeat characters."""
    for _ in range(rng.randrange(1, 4)):
        i = rng.randrange(len(text) + 1)
        op = rng.randrange(4)
        if op == 0:
            text = text[:i] + text[i + 1 :]
        elif op == 1:
            text = text[:i] + rng.choice(CHARS) + text[i:]
        elif op == 2:
            text = text[:i] + rng.choice(CHARS) + text[i + 1 :]
        else:
            text = text[:i] + text[i : i + rng.randrange(1, 8)] * 2 + text[i + 8 :]
    return text


def mutate_doc(doc, rng):
    """A copy of a map document with one field dropped, retyped or edited."""
    doc = copy.deepcopy(doc)
    key = rng.choice(sorted(doc))
    value = doc[key]
    op = rng.randrange(4)
    if op == 0:
        del doc[key]
    elif op == 1:
        doc[key] = rng.choice(VALUES)
    elif isinstance(value, str):
        doc[key] = mutate_text(value, rng)
    elif isinstance(value, int):
        doc[key] = value + rng.choice([-value, -1, 1, value, 10**6])
    elif isinstance(value, list) and value:
        i, j = rng.randrange(len(value)), rng.randrange(len(value))
        value[i], value[j] = value[j], rng.choice([value[i], True, -1, len(value), 0.0])
    return doc


def outcome(read, arg, error):
    """The reader's result, or the refusal of the declared type."""
    try:
        return read(arg)
    except error as exc:
        return exc


@pytest.fixture(scope="module")
def dhb_doc():
    return json.loads(certificate_to_json(certify_dhb(minimal_plan(0))))


def test_mutated_inputs_raise_only_the_declared_error(dhb_doc):
    rng = random.Random(28)
    start = time.process_time()
    refused = 0
    for _ in range(40):
        for mid in BASIC_MAP_IDS:
            raw = _atlas_data.BASIC_MAPS[mid]
            refused += isinstance(outcome(map_from_doc, mutate_doc(raw, rng), MapError), MapError)
            text = mutate_text(map_to_text(basic_map(mid)), rng)
            refused += isinstance(outcome(map_from_text, text, MapError), MapError)
    for _ in range(120):
        doc = dict(dhb_doc)
        key = rng.choice(["w1", "w2"])
        doc[key] = mutate_doc(doc[key], rng)
        if rng.random() < 0.2:
            doc[key] = rng.choice(VALUES)
        got = outcome(certificate_maps, doc, CertificationError)
        refused += isinstance(got, CertificationError)
        if isinstance(got, list):
            assert verify_certificate(json.dumps(doc)) in (True, False)
        else:
            assert verify_certificate(json.dumps(doc)) is False
    # most mutations break a map; some, such as swapping spaces, do not
    assert refused > 1000
    assert time.process_time() - start < 2.0


def retype_member(doc, rng):
    """A copy of a certificate with one member entry that == still takes:
    an image written as a float, or as a bool where it is 0 or 1, or an
    unknown key."""
    doc = copy.deepcopy(doc)
    member = doc[rng.choice(["w1", "w2"])]
    op = rng.randrange(3)
    if op == 2:
        member[rng.choice(["note", "z", "images", "x "])] = rng.choice(VALUES)
        return doc
    images = member[f"{rng.choice('xyt')}_images"]
    value = rng.randrange(len(images) if op == 0 else 2)
    images[images.index(value)] = float(value) if op == 0 else bool(value)
    return doc


def test_member_mutations_are_refused_naming_the_field(dhb_doc):
    rng = random.Random(29)
    start = time.process_time()
    for _ in range(40):
        text = json.dumps(retype_member(dhb_doc, rng))
        named = r"^(unknown field w[12]\.|w([12])\.[xyt]_images disagree with w\2\.)"
        with pytest.raises(CertificationError, match=named):
            certificate_maps(certificate_from_json(text))
        assert verify_certificate(text) is False
    assert time.process_time() - start < 1.0


HUGE = f"{10**15} points cannot all be moved by 4 characters of x and y"


@pytest.mark.parametrize(
    "change, field, problem",
    [
        ({"degree": 10**15, "x": "id", "y": "id", "t": "id"}, "degree", HUGE),
        ({"degree": True}, "degree", "expected an int, got True"),
        ({"degree": "14"}, "degree", "expected an int, got '14'"),
        ({"degree": 14.0}, "degree", "expected an int, got 14.0"),
        ({"x": 5}, "x", "cycle text must be a string, not int"),
        ({"t": None}, "t", None),
    ],
)
def test_regression_cases(change, field, problem):
    # a change to None drops the field
    doc = dict(_atlas_data.BASIC_MAPS["A"], **change)
    doc = {k: v for k, v in doc.items() if v is not None}
    with pytest.raises(MapError) as exc:
        map_from_doc(doc)
    assert str(exc.value) == (
        f"missing field {field!r}" if problem is None else f"field {field}: {problem}"
    )
    member = dict(doc, **{f"{g}_images": [] for g in "xyt"})
    with pytest.raises(CertificationError) as exc:
        certificate_maps({"w1": member})
    assert str(exc.value) == (
        f"missing field w1.{field}"
        if problem is None
        else f"malformed field w1.{field}: {problem}"
    )


def test_huge_degree_refused_without_allocating():
    member = {"degree": 10**15, "x": "id", "y": "id", "t": "id"}
    member.update({f"{g}_images": [] for g in "xyt"})
    tracemalloc.start()
    try:
        with pytest.raises(CertificationError, match=r"^malformed field w1\.degree: "):
            certificate_maps({"w1": member})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_inverse_of_map_doc():
    for mid in BASIC_MAP_IDS:
        m = basic_map(mid)
        assert map_from_doc(map_doc(m)) == m

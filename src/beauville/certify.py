"""Certification: machine-checked evidence that constructed pairs generate
alternating groups and satisfy the Beauville non-conjugacy condition.

The generation route is the Jordan corollary: a transitive <x, y> plus a
useful cycle of w of prime length p <= n-3, coprime to every other cycle
length, forces <x, y, t> >= A_n; since x and y are even and <x, y> has
index at most 2, <x, y> = A_n.  Certificates carry the raw permutations
and every hypothesis needed to re-verify them offline.

One derivation defines a certificate: the issuers run it on the pairs
they build, and `verify_certificate` on the maps a document embeds,
comparing the document it would issue with the stated one.

An independent stabilizer-chain oracle cross-checks |<x, y>| = n!/2;
production certificates never depend on it.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

from .atlas import basic_map
from .construct import ConstructionPlan, MapPair, build_pair, with_free_stock_handles
from .compose import k_compose, pick_handle, self_join
from .maps import MapError, map_doc, new_map
from .perm import group_order, parse_cycles

__all__ = [
    "CertificationError",
    "JordanCertificate",
    "jordan_certify",
    "BeauvilleEvidence",
    "beauville_check",
    "DHBCertificate",
    "certify_dhb",
    "MinDegreeResult",
    "min_degree_search",
    "CoverCertificate",
    "certify_cover",
    "alternating_order_oracle",
    "verify_certificate",
    "certificate_to_json",
    "certificate_from_json",
    "certificate_maps",
]

SCHEMA = "beauville-certificate-v1"


class CertificationError(ValueError):
    """A certification hypothesis failed; the message names it."""


# -- Jordan route -------------------------------------------------------------


@dataclass(frozen=True)
class JordanCertificate:
    """Evidence that <x, y> of a map is the full alternating group."""

    n: int
    prime: int
    cycle: tuple
    x_witness: int
    y_witness: int
    w_cycle_type: tuple
    conclusion: str = ""


def jordan_certify(m, p):
    """Issue a generation certificate, or raise naming the failed hypothesis.

    Hypotheses: (i) <x, y> transitive; (ii)-(iv) a useful w-cycle of prime
    length p <= n-3, coprime to every other cycle length, as checked by
    `HurwitzMap.jordan_cycle`.  (i) holds for every map, so it is not
    re-checked: a map is only built after it passes
    `HurwitzMap._validate`, which refuses an intransitive <x, y>, or
    relabels one that has.
    """
    try:
        u = m.jordan_cycle(p)
    except MapError as exc:
        raise CertificationError(str(exc)) from None
    if not (m.x.is_even and m.y.is_even):
        raise CertificationError("x and y must be even permutations")
    return JordanCertificate(
        n=m.n,
        prime=p,
        cycle=u.cycle,
        x_witness=u.x_witness,
        y_witness=u.y_witness,
        w_cycle_type=m.w_cycles.lengths(),
        conclusion=(
            f"<x,y,t> >= A_{m.n}; x, y even and [<x,y,t>:<x,y>] <= 2, "
            f"so <x,y> = A_{m.n}"
        ),
    )


# -- Beauville evidence --------------------------------------------------------


@dataclass(frozen=True)
class BeauvilleEvidence:
    """Per-position comparison of the two triples, by cycle types.

    Lemma: for n >= 9, two elements of order 2, 3 or 7 are conjugate in
    A_n exactly when their cycle types are equal.  Proof: an S_n-class
    splits in A_n only when its cycle lengths are distinct and odd (James
    and Kerber 1981, ch. 1); order 2 brings a 2-cycle, and order 3 or 7
    with distinct lengths leaves n <= 1 + 3 or n <= 1 + 7.  The orders
    are prime, so every non-identity power of a generator has its type.
    """

    passed: bool
    positions: dict  # name -> ("cycle_type", ok, detail)

    def __bool__(self):
        return self.passed


def beauville_check(m1, m2):
    """Evidence that no power of one triple's generator is conjugate to a
    power of the other's.  Cross-position pairs have coprime orders, so
    only like positions are compared, and by the lemma of
    `BeauvilleEvidence` a position passes exactly when its two cycle
    types differ.  Degrees below 9, where the lemma fails, are refused;
    no two maps of such a degree have different signatures anyway."""
    if m1.n != m2.n:
        raise CertificationError("Beauville comparison needs equal degrees")
    if m1.n < 9:
        raise CertificationError(
            f"Beauville comparison needs degree n >= 9, got {m1.n}: below 9 "
            "a class of elements of order 7 can split in A_n"
        )
    for m in (m1, m2):
        if m.x.order() != 2 or m.y.order() != 3 or m.z.order() != 7:
            raise CertificationError(
                "triple is not of type exactly (2,3,7): orders "
                f"({m.x.order()}, {m.y.order()}, {m.z.order()})"
            )
    positions = {}
    for name in "xyz":
        c1 = getattr(m1, name).cycle_type()
        c2 = getattr(m2, name).cycle_type()
        ok = c1 != c2
        positions[name] = (
            "cycle_type",
            ok,
            f"cycle types differ: {c1} vs {c2}"
            if ok
            else f"cycle types equal: {c1}, so conjugate in A_{m1.n}",
        )
    return BeauvilleEvidence(all(ok for _, ok, _ in positions.values()), positions)


# -- full dHB certificates ------------------------------------------------------


@dataclass(frozen=True)
class DHBCertificate:
    pair: MapPair
    jordan1: JordanCertificate
    jordan2: JordanCertificate
    beauville: BeauvilleEvidence
    v_difference: tuple

    @property
    def plan(self):
        return self.pair.plan

    @property
    def n(self):
        return self.pair.degree


def _dhb_certificate(pair):
    """Certify generation of both members by the plan's prime, and the
    Beauville condition; raise naming what fails."""
    j1 = jordan_certify(pair.w1, pair.prime)
    j2 = jordan_certify(pair.w2, pair.prime)
    ev = beauville_check(pair.w1, pair.w2)
    # a defence only: orders 2, 3 and 7 make fixed-point counts fix cycle
    # types, and MapPair makes all three counts differ
    if not ev:
        raise CertificationError(f"Beauville condition failed: {ev.positions}")
    dv = (pair.w1.fixed_point_vector() - pair.w2.fixed_point_vector()).as_tuple()
    return DHBCertificate(pair, j1, j2, ev, dv)


def certify_dhb(plan):
    """Build the plan's pair and certify both generation and Beauville."""
    return _dhb_certificate(build_pair(plan))


def alternating_order_oracle(m):
    """Independent stabilizer-chain check that |<x, y>| = n!/2.

    The generators are even, so `group_order` takes n!/2 as its bound and
    stops as soon as the chain reaches it.  For a proper subgroup it
    finishes with its exact Schreier-generator check, and the answer is
    False.
    """
    if not (m.x.is_even and m.y.is_even):
        raise CertificationError("oracle needs even generators")
    return group_order([m.x, m.y]) == math.factorial(m.n) // 2


# -- minimum degree search -----------------------------------------------------


@dataclass(frozen=True)
class MinDegreeResult:
    n: int
    witnesses: tuple  # pairs of signature tuples (g, alpha, beta, gamma)


def min_degree_search(g_max=3, count_max=(16, 12, 14)):
    """Smallest degree admitting two (2,3,7)-signatures whose fixed point
    counts differ in all three coordinates.

    Degrees satisfy n = 84(g-1) + 21a + 28b + 36c; two signatures of
    equal degree automatically have a1 = a2 mod 4, b1 = b2 mod 3 and
    c1 = c2 mod 7, and the Beauville condition forces all three
    differences to be non-zero.  Negative bounds raise ValueError, and
    bounds too small to contain any solution raise CertificationError
    rather than returning silently.
    """
    if isinstance(count_max, int):
        count_max = (count_max, count_max, count_max)
    if g_max < 0 or min(count_max) < 0:
        raise ValueError(
            f"search bounds must be non-negative: g_max={g_max}, count_max={count_max}"
        )
    a_max, b_max, c_max = count_max
    by_degree = {}
    for g in range(g_max + 1):
        for a in range(a_max + 1):
            for b in range(b_max + 1):
                for c in range(c_max + 1):
                    n = 84 * (g - 1) + 21 * a + 28 * b + 36 * c
                    if n >= 1:
                        by_degree.setdefault(n, []).append((g, a, b, c))
    best = None
    for n in sorted(by_degree):
        sigs = by_degree[n]
        pairs = []
        for i, s1 in enumerate(sigs):
            for s2 in sigs[i + 1 :]:
                da, db, dc = s1[1] - s2[1], s1[2] - s2[2], s1[3] - s2[3]
                if da and db and dc:
                    if da % 4 or db % 3 or dc % 7:
                        raise CertificationError(
                            f"signatures {s1} and {s2} of degree {n} break the "
                            "congruences a = 0 mod 4, b = 0 mod 3, c = 0 mod 7"
                        )
                    pairs.append((s1, s2))
        if pairs:
            best = MinDegreeResult(n, tuple(pairs))
            break
    if best is None:
        raise CertificationError(
            f"no signature pair found with g <= {g_max}, counts <= {count_max}"
        )
    return best


# -- double cover --------------------------------------------------------------


# Per parity fix: the v-difference it leaves and how much it adds to the
# degree (a copy of E on one side, two copies of A on the other).
COVER_BRANCHES = {"adjoin_E_2A": ((8, 3, -7), 28), "internal_join": ((8, 6, -7), 0)}


@dataclass(frozen=True)
class CoverCertificate:
    """Certifies the lifting conditions to the double cover: both tau(x_i)
    divisible by 4, Beauville evidence intact after the parity fix."""

    base: DHBCertificate
    branch: str               # "adjoin_E_2A" or "internal_join"
    extra_g_copies: int
    tau1: int
    tau2: int

    @property
    def n(self):
        return self.base.n

    @property
    def v_difference(self):
        return self.base.v_difference


def _cover_certificate(base, branch, extra_g):
    """Add the double-cover conditions to a certified pair: both tau
    values divisible by 4 and the v-difference the branch leaves."""
    tau1, tau2 = base.pair.w1.tau(), base.pair.w2.tau()
    if tau1 % 4 or tau2 % 4:
        raise CertificationError(f"tau values not divisible by 4: {tau1}, {tau2}")
    expected = COVER_BRANCHES[branch][0]
    if base.v_difference != expected:
        raise CertificationError(f"v-difference {base.v_difference}, expected {expected}")
    return CoverCertificate(base, branch, extra_g, tau1, tau2)


def certify_cover(plan):
    """Adapt a plan so both triples lift to the double cover.

    An involution lifts to an involution exactly when its transposition
    count tau is divisible by 4.  The two members always end up with
    opposite parities of tau/2; the fix depends on which side is odd:

    * tau(x_1)/2 odd:  adjoin a copy of E to W_1 and two copies of A to
      W_2 through stock (1)-handles (degree +28, plus whole G copies if
      the stock runs out of handles); the v-difference becomes (8,3,-7).
    * tau(x_2)/2 odd:  make an internal (1)-join inside W_2's stock,
      leaving the same two handles unused in W_1 (degree unchanged after
      any stock enlargement); the v-difference becomes (8,6,-7).
    """
    base_pair = build_pair(plan)
    t1 = base_pair.w1.tau() // 2
    t2 = base_pair.w2.tau() // 2
    if t1 % 2 == t2 % 2:
        raise CertificationError(
            f"tau/2 parities should always be opposite, got {t1}, {t2}"
        )
    branch = "adjoin_E_2A" if t1 % 2 == 1 else "internal_join"
    # either branch needs two free stock (1)-handles
    found = with_free_stock_handles(base_pair, None)
    if found is None:
        raise CertificationError(
            "could not provision enough unused stock handles "
            f"for variant {plan.variant!r}"
        )
    pair, extra_g, shared = found

    if branch == "adjoin_E_2A":
        e, a = basic_map("E"), basic_map("A")
        w1 = k_compose(pair.w1, shared[-1], e, pick_handle(e, 1))
        w2 = k_compose(pair.w2, shared[-1], a, pick_handle(a, 1))
        w2 = k_compose(w2, shared[-2], a, pick_handle(a, 1))
    else:
        # W_1 keeps the same two handles unused; degrees stay equal.
        w1, w2 = pair.w1, self_join(pair.w2, shared[-2], shared[-1])
    base = _dhb_certificate(MapPair(w1, w2, pair.plan))
    return _cover_certificate(base, branch, extra_g)


# -- serialization ------------------------------------------------------------


def certificate_to_json(cert):
    """Deterministic JSON document embedding the raw permutations."""
    if not isinstance(cert, (DHBCertificate, CoverCertificate)):
        raise TypeError(f"cannot serialize {type(cert).__name__}")
    pair = cert.base.pair if isinstance(cert, CoverCertificate) else cert.pair
    doc = {**_claims(cert), "w1": _map_doc(pair.w1), "w2": _map_doc(pair.w2)}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _map_doc(m):
    # both forms travel: cycle text for humans, image arrays for machines
    images = {f"{g}_images": list(getattr(m, g).images) for g in "xyt"}
    return {**map_doc(m), **images}


MAP_FIELDS = frozenset(("degree", "x", "y", "t", "x_images", "y_images", "t_images"))


def _beauville_doc(ev):
    return {
        k: {"method": m, "ok": ok, "detail": d}
        for k, (m, ok, d) in ev.positions.items()
    }


def _plan_claims(plan, kind, n):
    """The fields of a certificate that its plan, kind and degree fix."""
    return {
        "schema": SCHEMA,
        "kind": kind,
        "plan": asdict(plan),
        "n": n,
        "prime": plan.prime,
    }


def _claims(cert):
    """Every field of a certificate's document except the maps w1, w2."""
    cover = cert if isinstance(cert, CoverCertificate) else None
    base = cover.base if cover else cert
    doc = _plan_claims(base.plan, "cover" if cover else "dhb", base.n)
    doc.update(
        # a Jordan certificate's document is its fields
        jordan1=vars(base.jordan1),
        jordan2=vars(base.jordan2),
        beauville=_beauville_doc(base.beauville),
        v_difference=list(base.v_difference),
    )
    if cover:
        doc.update(
            branch=cover.branch,
            extra_g_copies=cover.extra_g_copies,
            tau=[cover.tau1, cover.tau2],
        )
    return doc


def certificate_from_json(text):
    """Parse a certificate document and check its schema; the maps come
    from certificate_maps."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise CertificationError(f"not a JSON document: {exc}") from None
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != SCHEMA:
        raise CertificationError(f"unknown schema {schema!r}")
    return doc


def certificate_maps(doc):
    """The members [w1, w2] rebuilt from a certificate document's cycle
    text.  Raises naming the field that is missing or malformed, or whose
    image array is not of the stated degree or disagrees with its cycle
    text."""
    maps = []
    for key in ("w1", "w2"):
        try:
            raw = doc[key]
            n = raw["degree"]
            perms = []
            for gen in ("x", "y", "t"):
                images = raw[f"{gen}_images"]
                # checked before the parse, so that the array it allocates
                # is no larger than the document itself
                if len(images) != n:
                    raise CertificationError(
                        f"{key}.{gen}_images has {len(images)} entries, not the degree {n}"
                    )
                perm = parse_cycles(raw[gen], degree=n)
                if tuple(images) != perm.images:
                    raise CertificationError(
                        f"{key}.{gen}_images disagree with {key}.{gen}"
                    )
                perms.append(perm)
            maps.append(new_map(n, *perms))
        except CertificationError:
            raise
        except KeyError as exc:
            name = exc.args[0]
            raise CertificationError(
                f"missing field {name if name == key else f'{key}.{name}'}"
            ) from None
        except (TypeError, ValueError) as exc:
            raise CertificationError(f"malformed field {key}: {exc}") from None
    return maps


def _canonical(node):
    # JSON text tells true from 1 and 7 from 7.0, which == does not
    return json.dumps(node, sort_keys=True)


def verify_certificate(text_or_doc):
    """Re-verify a serialized certificate by deriving it again and comparing.

    Stage 1, before any map is parsed: the stated plan (integer r and s, a
    known variant) fixes the schema, the prime and the degree of the
    certificate and of each member; for a cover the branch adds to the
    degree, and extra_g_copies must be an int in 0..4 that leaves a valid
    stock.
    Stage 2: the certificate is derived from the embedded maps by the
    issuing code, and every field but the maps must equal the derived one
    as serialized, key sets included; each map section must have exactly
    the issued fields.  Any defect, malformed input included, gives False.
    """
    try:
        doc = (
            certificate_from_json(text_or_doc)
            if isinstance(text_or_doc, str)
            else text_or_doc
        )
        plan = ConstructionPlan(**doc["plan"])
        n = plan.degree
        kind = "cover" if doc["kind"] == "cover" else "dhb"
        if kind == "cover":
            extra_g = doc["extra_g_copies"]
            # a bool is an int that == 0 or 1 and serializes as itself
            if type(extra_g) is not int or not 0 <= extra_g <= 4:
                return False
            # the plan before the extra copies of G must be valid too
            ConstructionPlan(plan.r, plan.s - 3 * extra_g, plan.variant)
            n += COVER_BRANCHES[doc["branch"]][1]
        fixed = _plan_claims(plan, kind, n)
        if any(_canonical(doc[k]) != _canonical(v) for k, v in fixed.items()):
            return False
        # the plan fixes each member's degree too: no huge array gets parsed
        if any(set(doc[k]) != MAP_FIELDS or doc[k]["degree"] != n for k in ("w1", "w2")):
            return False
        cert = _dhb_certificate(MapPair(*certificate_maps(doc), plan))
        if kind == "cover":
            cert = _cover_certificate(cert, doc["branch"], extra_g)
        stated = {k: v for k, v in doc.items() if k not in ("w1", "w2")}
        return _canonical(stated) == _canonical(_claims(cert))
    except (AttributeError, KeyError, RecursionError, TypeError, ValueError):
        return False

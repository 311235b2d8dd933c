"""Certification: machine-checked evidence that constructed pairs generate
alternating groups and satisfy the Beauville non-conjugacy condition.

The generation route is the Jordan corollary: a transitive <x, y> plus a
useful cycle of w of prime length p <= n-3, coprime to every other cycle
length, forces <x, y, t> >= A_n; since x and y are even and <x, y> has
index at most 2, <x, y> = A_n.  Certificates carry the raw permutations
and every hypothesis needed to re-verify them offline.

An independent stabilizer-chain oracle cross-checks |<x, y>| = n!/2 for
moderate degrees; production certificates never depend on it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .atlas import basic_map
from .construct import ConstructionPlan, MapPair, build_pair, with_free_stock_handles
from .compose import k_compose, pick_handle, self_join, CompositionError
from .maps import new_map
from .perm import an_conjugate, chain_row_bytes, group_order, is_prime, parse_cycles

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

    def __post_init__(self):
        if not is_prime(self.prime):
            raise CertificationError(f"{self.prime} is not prime")


def jordan_certify(m, p):
    """Issue a generation certificate, or raise naming the failed hypothesis.

    Hypotheses: (i) <x, y> transitive; (ii) some w-cycle has prime length
    p <= n-3; (iii) p is coprime to every other cycle length of w;
    (iv) that cycle is useful (witnesses for x and y recorded).  (i) holds
    for every map, so it is not re-checked: a map is only built after it
    passes `HurwitzMap._validate`, which refuses an intransitive <x, y>, or
    relabels one that has.
    """
    if not is_prime(p):
        raise CertificationError(f"hypothesis (ii): {p} is not prime")
    lengths = list(m.w_cycles.lengths())
    candidates = [c for c in m.w_cycles if len(c) == p]
    if not candidates:
        raise CertificationError(
            f"hypothesis (ii): no w-cycle of length {p} (cycle type {lengths})"
        )
    if p > m.n - 3:
        raise CertificationError(f"hypothesis (ii): p = {p} > n - 3 = {m.n - 3}")
    others = list(lengths)
    others.remove(p)
    bad = [l for l in others if math.gcd(l, p) != 1]
    if bad:
        raise CertificationError(
            f"hypothesis (iii): p = {p} not coprime to cycle length {bad[0]}"
        )
    cycle = candidates[0]
    useful = {u.cycle: u for u in m.useful_cycles()}
    if cycle not in useful:
        raise CertificationError(f"hypothesis (iv): the {p}-cycle is not useful")
    u = useful[cycle]
    if not (m.x.is_even and m.y.is_even):
        raise CertificationError("x and y must be even permutations")
    return JordanCertificate(
        n=m.n,
        prime=p,
        cycle=cycle,
        x_witness=u.x_witness,
        y_witness=u.y_witness,
        w_cycle_type=tuple(lengths),
        conclusion=(
            f"<x,y,t> >= A_{m.n}; x, y even and [<x,y,t>:<x,y>] <= 2, "
            f"so <x,y> = A_{m.n}"
        ),
    )


# -- Beauville evidence --------------------------------------------------------


@dataclass(frozen=True)
class BeauvilleEvidence:
    """Per-position comparison of the two triples.

    For each position the non-identity powers of one generator all share
    a cycle type (the orders 2, 3, 7 are prime), so distinct cycle types
    rule conjugacy out; equal cycle types fall back to an explicit A_n
    conjugacy decision for each power.
    """

    passed: bool
    positions: dict  # name -> ("cycle_type" | "an_conjugate", ok, detail)

    def __bool__(self):
        return self.passed


def beauville_check(m1, m2):
    """Evidence that no power of one triple's generator is conjugate to a
    power of the other's.  Cross-position pairs have coprime orders, so
    only like positions are compared."""
    if m1.n != m2.n:
        raise CertificationError("Beauville comparison needs equal degrees")
    for m in (m1, m2):
        if m.x.order() != 2 or m.y.order() != 3 or m.z.order() != 7:
            raise CertificationError(
                "triple is not of type exactly (2,3,7): orders "
                f"({m.x.order()}, {m.y.order()}, {m.z.order()})"
            )
    positions = {}
    passed = True
    for name, g1, g2, order in (
        ("x", m1.x, m2.x, 2),
        ("y", m1.y, m2.y, 3),
        ("z", m1.z, m2.z, 7),
    ):
        if g1.cycle_type() != g2.cycle_type():
            positions[name] = (
                "cycle_type",
                True,
                f"cycle types differ: {g1.cycle_type()} vs {g2.cycle_type()}",
            )
            continue
        # same cycle type for every non-identity power; decide conjugacy
        # of g1 against each power of g2 constructively in A_n
        conj = [
            j for j in range(1, order) if an_conjugate(g1, g2 ** j)
        ]
        ok = not conj
        positions[name] = (
            "an_conjugate",
            ok,
            "no power conjugate" if ok else f"g1 ~ g2^{conj[0]} in A_n",
        )
        passed = passed and ok
    return BeauvilleEvidence(passed, positions)


# -- full dHB certificates ------------------------------------------------------


@dataclass(frozen=True)
class DHBCertificate:
    plan: ConstructionPlan
    pair: MapPair
    jordan1: JordanCertificate
    jordan2: JordanCertificate
    beauville: BeauvilleEvidence
    v_difference: tuple

    @property
    def n(self):
        return self.pair.degree


def certify_dhb(plan):
    """Build the plan's pair and certify both generation and Beauville."""
    pair = build_pair(plan)
    j1 = jordan_certify(pair.w1, pair.prime)
    j2 = jordan_certify(pair.w2, pair.prime)
    ev = beauville_check(pair.w1, pair.w2)
    if not ev:
        raise CertificationError(f"Beauville condition failed: {ev.positions}")
    dv = (pair.w1.fixed_point_vector() - pair.w2.fixed_point_vector()).as_tuple()
    return DHBCertificate(plan, pair, j1, j2, ev, dv)


# Memory ceiling of the oracle's chain rows: 256 MiB covers every minimal,
# small and shortcut pair, the largest (n = 589) needing about 205 MB.
ORACLE_MAX_BYTES = 2**28


def alternating_order_oracle(m, max_bytes=ORACLE_MAX_BYTES):
    """Independent stabilizer-chain check that |<x, y>| = n!/2.

    The generators are even, so n!/2 is a proven upper bound and reaching
    it makes the chain order exact.  A chain for A_n stores about n^3/2
    row entries of 1 or 2 bytes (`perm.chain_row_bytes`); a degree whose
    rows would exceed max_bytes raises before any work.
    """
    need = chain_row_bytes(m.n)
    if need > max_bytes:
        raise CertificationError(
            f"degree {m.n} needs about {need} bytes of chain rows, "
            f"above the oracle ceiling of {max_bytes} bytes"
        )
    if not (m.x.is_even and m.y.is_even):
        raise CertificationError("oracle needs even generators")
    target = math.factorial(m.n) // 2
    return group_order([m.x, m.y], upper_bound=target) == target


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


@dataclass(frozen=True)
class CoverCertificate:
    """Certifies the lifting conditions to the double cover: both tau(x_i)
    divisible by 4, Beauville evidence intact after the parity fix."""

    base: DHBCertificate
    branch: str               # "adjoin_E_2A" or "internal_join"
    extra_g_copies: int
    tau1: int
    tau2: int
    v_difference: tuple

    @property
    def n(self):
        return self.base.n


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
    eff, pair, extra_g, shared = found

    if branch == "adjoin_E_2A":
        w1 = k_compose_at(pair.w1, shared[-1], basic_map("E"))
        w2 = k_compose_at(pair.w2, shared[-1], basic_map("A"))
        w2 = k_compose_at(w2, shared[-2], basic_map("A"))
    else:
        w2 = self_join(
            pair.w2,
            _handle_at(pair.w2, shared[-2]),
            _handle_at(pair.w2, shared[-1]),
        )
        w1 = pair.w1
        # W_1 keeps the same two handles unused; degrees stay equal.
    fixed = MapPair(w1, w2, plan=plan, prime=plan.prime)
    j1 = jordan_certify(fixed.w1, plan.prime)
    j2 = jordan_certify(fixed.w2, plan.prime)
    ev = beauville_check(fixed.w1, fixed.w2)
    if not ev:
        raise CertificationError(f"Beauville failed after parity fix: {ev.positions}")
    tau1, tau2 = fixed.w1.tau(), fixed.w2.tau()
    if tau1 % 4 or tau2 % 4:
        raise CertificationError(f"tau values not divisible by 4: {tau1}, {tau2}")
    dv = (fixed.w1.fixed_point_vector() - fixed.w2.fixed_point_vector()).as_tuple()
    expected = (8, 3, -7) if branch == "adjoin_E_2A" else (8, 6, -7)
    if dv != expected:
        raise CertificationError(f"v-difference {dv}, expected {expected}")
    base = DHBCertificate(eff, fixed, j1, j2, ev, dv)
    return CoverCertificate(base, branch, extra_g, tau1, tau2, dv)


def _handle_at(m, points):
    for h in m.find_handles(1):
        if h.points == points:
            return h
    raise CompositionError(f"no free (1)-handle at points {points}")


def k_compose_at(m, points, other):
    """Join `other` by (1)-handles, the left side at the given point pair."""
    return k_compose(m, _handle_at(m, points), other, pick_handle(other, 1))


# -- serialization ------------------------------------------------------------


def certificate_to_json(cert):
    """Deterministic JSON document embedding the raw permutations."""
    if isinstance(cert, CoverCertificate):
        doc = _cover_doc(cert)
    elif isinstance(cert, DHBCertificate):
        doc = _dhb_doc(cert)
    else:
        raise TypeError(f"cannot serialize {type(cert).__name__}")
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _map_doc(m):
    # both forms travel: cycle text for humans, image arrays for machines
    return {
        "degree": m.n,
        "x": m.x.cycle_string(),
        "y": m.y.cycle_string(),
        "t": m.t.cycle_string(),
        "x_images": list(m.x.images),
        "y_images": list(m.y.images),
        "t_images": list(m.t.images),
    }


def _jordan_doc(j):
    return {
        "n": j.n,
        "prime": j.prime,
        "cycle": list(j.cycle),
        "x_witness": j.x_witness,
        "y_witness": j.y_witness,
        "w_cycle_type": list(j.w_cycle_type),
        "conclusion": j.conclusion,
    }


def _dhb_doc(cert):
    return {
        "schema": SCHEMA,
        "kind": "dhb",
        "plan": {
            "r": cert.plan.r,
            "s": cert.plan.s,
            "variant": cert.plan.variant,
        },
        "n": cert.n,
        "prime": cert.pair.prime,
        "w1": _map_doc(cert.pair.w1),
        "w2": _map_doc(cert.pair.w2),
        "jordan1": _jordan_doc(cert.jordan1),
        "jordan2": _jordan_doc(cert.jordan2),
        "beauville": _beauville_doc(cert.beauville),
        "v_difference": list(cert.v_difference),
    }


def _beauville_doc(ev):
    return {
        k: {"method": m, "ok": ok, "detail": d}
        for k, (m, ok, d) in ev.positions.items()
    }


def _cover_doc(cert):
    doc = _dhb_doc(cert.base)
    doc["kind"] = "cover"
    doc["branch"] = cert.branch
    doc["extra_g_copies"] = cert.extra_g_copies
    doc["tau"] = [cert.tau1, cert.tau2]
    return doc


def certificate_from_json(text):
    """Parse a certificate document and check its schema; the maps come
    from certificate_maps."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CertificationError(f"not a JSON document: {exc}") from None
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != SCHEMA:
        raise CertificationError(f"unknown schema {schema!r}")
    return doc


def certificate_maps(doc):
    """The members [w1, w2] rebuilt from a certificate document's cycle
    text.  Raises naming the field that is missing or malformed, or whose
    image array disagrees with its cycle text."""
    maps = []
    for key in ("w1", "w2"):
        try:
            raw = doc[key]
            n = raw["degree"]
            perms = []
            for gen in ("x", "y", "t"):
                perm = parse_cycles(raw[gen], degree=n)
                images = raw.get(f"{gen}_images")
                if images is not None and tuple(images) != perm.images:
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


def verify_certificate(text_or_doc):
    """Re-verify a serialized certificate from its own payload alone.

    Rebuilds the maps from the embedded permutations, re-runs both Jordan
    certifications and the Beauville comparison, and requires the stated
    jordan1, jordan2 and beauville sections to equal the recomputed ones
    as serialized (types included); re-checks the v-difference, and the
    tau values of cover certificates.  Any defect, a malformed document
    included, gives False.  No access to the construction pipeline is
    needed.
    """
    try:
        doc = (
            certificate_from_json(text_or_doc)
            if isinstance(text_or_doc, str)
            else text_or_doc
        )
        if doc.get("schema") != SCHEMA:
            return False
        w1, w2 = certificate_maps(doc)
        n, p, v_difference = doc["n"], doc["prime"], list(doc["v_difference"])
        stated = [doc["jordan1"], doc["jordan2"], doc["beauville"]]
        tau = doc["tau"] if doc.get("kind") == "cover" else None
    except (AttributeError, CertificationError, KeyError, TypeError):
        return False
    if w1.n != n or w2.n != n:
        return False
    # no w-cycle is longer than n; the bound also keeps trial division off
    # a huge stated prime
    if type(p) is not int or p > n:
        return False
    try:
        j1 = jordan_certify(w1, p)
        j2 = jordan_certify(w2, p)
        ev = beauville_check(w1, w2)
    except CertificationError:
        return False
    if not ev:
        return False
    dv = (w1.fixed_point_vector() - w2.fixed_point_vector()).as_tuple()
    if list(dv) != v_difference:
        return False
    if tau is not None:
        tau1, tau2 = w1.tau(), w2.tau()
        if [tau1, tau2] != tau or tau1 % 4 or tau2 % 4:
            return False
    # compared as JSON text, which tells true from 1 and 7 from 7.0
    evidence = [_jordan_doc(j1), _jordan_doc(j2), _beauville_doc(ev)]
    try:
        stated = json.dumps(stated, sort_keys=True)
    except (TypeError, ValueError):
        return False
    return stated == json.dumps(evidence, sort_keys=True)

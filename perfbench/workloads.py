"""Seeded op lists for the three benchmark workloads, and their checks.

Every workload is a fixed list of ops generated from (seed, seconds) before
anything is timed.  An op carries its inputs and the value its output must
match; `execute` runs it against the package and `check` compares.  The
package is always called through its module attributes, so that the spans
installed by `spans.Tracer` see these calls too.

Every round of a workload runs the same plans, certificates and maps for
every seed.  The seed sets the order of the ops and picks among inputs of
equal cost: the primitive root of a lift and where a tampered certificate
is made false.  The seed does not choose stock sizes, variants or
certificates, because those set the degrees and with them the op costs:
runs of different seeds do the same work and their figures compare.
"""

from __future__ import annotations

import json
import math
import random
import sys
from collections import Counter
from dataclasses import dataclass

from beauville import atlas, certify, construct, frobenius, linlift, perm
from beauville.construct import S3_SHORTCUT_DEGREES, SMALL_CASE_DEGREES, ConstructionPlan

WORKLOADS = ("certify", "verify", "oracle")

# Nominal seconds one round takes on the reference host (2 vCPUs, Python
# 3.11, numpy 2.4).  They fix how many rounds a given --seconds asks for;
# the op count never depends on how fast this particular run goes.
ROUND_SECONDS = {"certify": 24.0, "verify": 3.0, "oracle": 30.0}

STOCKS = tuple(range(3, 10))
PRIMITIVE_ROOTS = {2: (1,), 3: (2,), 5: (2, 3), 7: (3, 5)}
ORACLE_CAP = 400
# Largest degree the oracle workload runs: n = 417 peaks near 330 MB,
# while the n = 540 and 589 members would need 670-850 MB.
ORACLE_MAX_DEGREE = 420
TAMPER_FIELDS = ("x_images", "prime", "v_difference", "tau")

# Generators of the groups behind the bundled character tables; the
# brute-force tallies enumerate these groups.
TABLE_GENERATORS = {
    "s3": ("(0 1)", "(0 1 2)", 3),
    "s4": ("(0 1)", "(0 1 2 3)", 4),
    "a4": ("(0 1 2)", "(0 1)(2 3)", 4),
    "a5": ("(0 1 2 3 4)", "(0 1 2)", 5),
}
BRUTE_MAX_ORDER = 60
L2_13_TRIPLE = ("2A", "3A", "7A")
ELIGIBLE_ORDERS = (1, 2, 3, 5, 7)


@dataclass
class Op:
    kind: str
    label: str
    args: tuple
    expect: object = None


def rounds_for(workload, seconds):
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def _variants(r):
    """Variant list per residue class, one entry per stock size: each
    optional variant the class admits once, the default for the rest."""
    optional = []
    if r not in construct.SMALL_EXCLUDED:
        optional.append("small_n")
    if r in construct.SHIFTED_RS | {1}:
        optional.append("s3_shortcut")
    return optional + [construct.default_variant(r)] * (len(STOCKS) - len(optional))


# -- generation ---------------------------------------------------------------


def generate(workload, seed, seconds):
    """The fixed op list, plus whatever the ops share (set-up state)."""
    rng = random.Random(f"{workload}:{seed}")
    rounds = rounds_for(workload, seconds)
    if workload == "certify":
        return _gen_certify(rng, rounds), {}
    if workload == "verify":
        return _gen_verify(rng, rounds)
    if workload == "oracle":
        return _gen_oracle(rng, rounds), {}
    raise ValueError(f"unknown workload {workload!r}")


def _gen_certify(rng, rounds):
    # A round visits every (r, s) cell once: 2 construct, 3 certify,
    # 1 cover and 1 lift per cell.  Construct ops are as many as cover and
    # lift ops together, so the median rank sits mid-band among certify ops.
    # Construct and certify ops walk each r's variant list from the cell's
    # stock size on, so every variant appears 2 resp. 3 times per r; lift
    # primes cycle over the cells.
    per_cell = {"construct": 2, "certify": 3, "cover": 1, "lift": 1}
    primes = tuple(PRIMITIVE_ROOTS)
    ops = []
    for _ in range(rounds):
        block = []
        for r in range(14):
            variants = _variants(r)
            for i, s in enumerate(STOCKS):
                for kind, count in per_cell.items():
                    for copy in range(count):
                        if kind in ("cover", "lift"):
                            variant = construct.default_variant(r)
                        else:
                            variant = variants[(i + copy) % len(variants)]
                        plan = ConstructionPlan(r, s, variant)
                        tag = f"{kind} r={r} s={s} {variant}"
                        if kind == "lift":
                            p = primes[(len(STOCKS) * r + i) % len(primes)]
                            t1 = rng.choice(PRIMITIVE_ROOTS[p])
                            block.append(Op(kind, f"{tag} p={p} t1={t1}", (plan, p, t1)))
                        else:
                            block.append(Op(kind, tag, (plan,)))
        rng.shuffle(block)
        ops.extend(block)
    return ops


def issue_certificates():
    """Serialized certificates by (kind, plan): a dhb certificate for every
    (r, s) cell and every stockless small_n plan, and a cover certificate
    per r, every stock size used twice."""
    plans = []
    for r in range(14):
        plans += [("dhb", ConstructionPlan(r, s, construct.default_variant(r))) for s in STOCKS]
        if r not in construct.SMALL_EXCLUDED:
            plans.append(("dhb", ConstructionPlan(r, 3, "small_n")))
    plans += [("cover", _cover_plan(r)) for r in range(14)]
    issue = {"dhb": certify.certify_dhb, "cover": certify.certify_cover}
    return {(kind, plan): certify.certificate_to_json(issue[kind](plan)) for kind, plan in plans}


def _cover_plan(r):
    return ConstructionPlan(r, STOCKS[r % len(STOCKS)], construct.default_variant(r))


def tamper(text, fieldname, rng):
    """A copy whose claim in one compared field is false."""
    doc = json.loads(text)
    if fieldname == "x_images":
        images = doc[rng.choice(("w1", "w2"))]["x_images"]
        i, j = rng.sample(range(len(images)), 2)
        images[i], images[j] = images[j], images[i]
    elif fieldname == "prime":
        doc["prime"] += 1  # every certifying prime is odd, so this is composite
    elif fieldname == "v_difference":
        doc["v_difference"][rng.randrange(3)] += 1
    elif fieldname == "tau":
        doc["tau"][rng.randrange(2)] += 4  # still divisible by 4
    else:
        raise ValueError(f"unknown tamper field {fieldname!r}")
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _gen_verify(rng, rounds):
    certs = issue_certificates()
    # per compared field, a false copy of one certificate per r: the
    # cover certificate for tau (only covers state it), else a dhb
    # certificate whose stock size moves with r and the field
    tampered = []
    for f_index, f in enumerate(TAMPER_FIELDS):
        for r in range(14):
            if f == "tau":
                key = ("cover", _cover_plan(r))
            else:
                s = STOCKS[(r + f_index) % len(STOCKS)]
                key = ("dhb", ConstructionPlan(r, s, construct.default_variant(r)))
            tampered.append((f, key, tamper(certs[key], f, rng)))
    frobenius_expect = {name: frobenius_expected(name) for name in frobenius.BUNDLED_TABLES}
    ops = []
    for _ in range(rounds):
        # every certificate re-verified once, intact and tampered copies,
        # 3 sweeps of every table and 12 atlas checks: intact
        # re-verification is 60% of the ops and holds the median.
        block = []
        for (kind, plan), text in certs.items():
            block.append(Op("intact", f"intact {kind} r={plan.r} s={plan.s} {plan.variant}",
                            (text,), True))
        for f, (kind, plan), text in tampered:
            block.append(Op("tampered", f"tampered {f} {kind} r={plan.r} s={plan.s}",
                            (text,), False))
        for _ in range(3):
            for name in frobenius.BUNDLED_TABLES:
                block.append(Op("frobenius", f"frobenius {name}", (name,),
                                frobenius_expect[name]))
        block += [Op("atlas", "validate_atlas", (), True) for _ in range(12)]
        rng.shuffle(block)
        ops.extend(block)
    return ops, {"certificates": len(certs)}


def oracle_pool():
    """Every input of the oracle workload, as (stratum, label, map).

    chain: the 14 V_r maps (n = 36..216); pair: both members of the pairs
    criterion 6 checks (n = 246..397); above_cap: both members of the
    shortcut and small pairs past the 400 cap, up to ORACLE_MAX_DEGREE.
    """
    pool = [("chain", f"V_{r}", construct.v_map(r)) for r in range(14)]
    plans = [construct.minimal_plan(r) for r in range(14)]
    plans += [ConstructionPlan(r, 3, "small_n") for r in SMALL_CASE_DEGREES]
    plans += [ConstructionPlan(r, 3, "s3_shortcut") for r in S3_SHORTCUT_DEGREES]
    for plan in plans:
        if plan.degree > ORACLE_MAX_DEGREE:
            continue
        pair = construct.build_pair(plan)
        stratum = "pair" if pair.degree <= ORACLE_CAP else "above_cap"
        tag = f"{plan.variant} r={plan.r} n={pair.degree}"
        pool += [(stratum, f"{tag} W_1", pair.w1), (stratum, f"{tag} W_2", pair.w2)]
    return pool


def _gen_oracle(rng, rounds):
    ops = [Op(stratum, f"group_order {label}", (m.x, m.y), math.factorial(m.n) // 2)
           for stratum, label, m in oracle_pool()]
    out = []
    for _ in range(rounds):
        rng.shuffle(ops)
        out.extend(ops)
    return out


# -- warm-up --------------------------------------------------------------------


def clear_caches():
    """Empty every lru cache of the package, as in a fresh process."""
    for name, module in list(sys.modules.items()):
        if name == "beauville" or name.startswith("beauville."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def warm_caches(workload):
    """Fill the package's lru caches so the timed ops see steady state.

    Users of `beauville certify --all-minimal` pay these once per process;
    the benchmark pays them in set-up, where set-up time shows them.
    """
    if workload != "certify":
        return
    for mid in atlas.BASIC_MAP_IDS:
        atlas.basic_map(mid)
    for r in range(14):
        construct.v_map(r)
    construct.x_map(1)
    construct.x_map(2)
    for s in range(3, max(STOCKS) + 3 * 4 + 1):
        construct.stock_U(s)


def warm_up(workload, ops):
    """Run one op of every kind, untimed: the one with the least label, so
    that the warm-up, and with it set-up time, is the same for every seed
    (the first op of a kind in the shuffled list costs what the seed draws).
    The oracle's strata share one code path, so its chain stratum alone
    warms it."""
    warm_caches(workload)
    kinds = ["chain"] if workload == "oracle" else sorted({op.kind for op in ops})
    for kind in kinds:
        execute(min((op for op in ops if op.kind == kind), key=lambda op: op.label))


# -- execution ------------------------------------------------------------------


def execute(op):
    """Run one op against the package and return what `check` needs."""
    kind, args = op.kind, op.args
    if kind == "construct":
        (plan,) = args
        pair = construct.build_pair(plan)
        return pair.degree, pair.w2.n, pair.prime
    if kind in ("certify", "cover"):
        (plan,) = args
        issue = certify.certify_dhb if kind == "certify" else certify.certify_cover
        cert = issue(plan)
        text = certify.certificate_to_json(cert)
        return cert, certify.verify_certificate(text)
    if kind == "lift":
        return linlift.lift_pair(*args)
    if kind in ("intact", "tampered"):
        return certify.verify_certificate(args[0])
    if kind == "atlas":
        return atlas.validate_atlas().ok
    if kind == "frobenius":
        return frobenius_sweep(args[0])
    if kind in ("chain", "pair", "above_cap"):
        x, y = args
        return perm.group_order([x, y], upper_bound=op.expect)
    raise ValueError(f"unknown op kind {kind!r}")


def frobenius_sweep(name):
    """Structure constants for every triple of eligible classes, and the
    class sizes of the group enumerated from its generators."""
    table = frobenius.bundled_table(name)
    names = eligible_classes(table)
    counts = {(x, y, z): frobenius.frobenius_count(table, x, y, z)
              for x in names for y in names for z in names}
    gens = _table_generators(name)
    classes = frobenius.conjugacy_classes(frobenius.enumerate_group(gens, cap=2000), gens)
    return counts, sorted(len(cl) for cl in classes)


def eligible_classes(table):
    return [c.name for c in table.classes if c.rep_order in ELIGIBLE_ORDERS]


def _table_generators(name):
    if name == "l2_13":
        m = atlas.basic_map("A")
        return [m.x, m.y]
    a, b, degree = TABLE_GENERATORS[name]
    return [perm.parse_cycles(a, degree), perm.parse_cycles(b, degree)]


def frobenius_expected(name):
    """What a Frobenius op must return, computed once in set-up: n(X, Y, Z)
    by enumerating the group (count x in X, y in Y with xy in the inverse
    class of Z) for every triple of a table of order at most BRUTE_MAX_ORDER
    and for (2A, 3A, 7A) alone in L2(13), and the table's class sizes."""
    table = frobenius.bundled_table(name)
    names = eligible_classes(table)
    gens = _table_generators(name)
    reps = table.representatives(degree=gens[0].degree)
    classes = frobenius.conjugacy_classes(frobenius.enumerate_group(gens, cap=2000), gens)
    class_of = {p: i for i, cl in enumerate(classes) for p in cl}
    idx = {nm: class_of[reps[nm]] for nm in names}
    inv_idx = {nm: idx[table.class_named(nm).inverse] for nm in names}
    if table.order <= BRUTE_MAX_ORDER:
        xy_pairs, zs = [(x, y) for x in names for y in names], names
    else:  # every bundled table is either small or L2(13)
        xy_pairs, zs = [L2_13_TRIPLE[:2]], L2_13_TRIPLE[2:]
    out = {}
    for xn, yn in xy_pairs:
        tallies = Counter(class_of[x * y] for x in classes[idx[xn]] for y in classes[idx[yn]])
        for zn in zs:
            out[(xn, yn, zn)] = tallies.get(inv_idx[zn], 0)
    return out, sorted(c.size for c in table.classes)


# -- checks ---------------------------------------------------------------------


def _stocked_degree(plan, extra_g):
    return ConstructionPlan(plan.r, plan.s + 3 * extra_g, plan.variant).degree


def check(op, out):
    """True when the op's output is what the inputs promise."""
    kind, args = op.kind, op.args
    if kind == "construct":
        (plan,) = args
        n1, n2, prime = out
        return n1 == n2 == plan.degree and prime == plan.prime
    if kind == "certify":
        cert, verified = out
        return verified is True and cert.n == args[0].degree
    if kind == "cover":
        cert, verified = out
        grow = 28 if cert.branch == "adjoin_E_2A" else 0
        want = _stocked_degree(args[0], cert.extra_g_copies) + grow
        return verified is True and cert.n == want
    if kind == "lift":
        plan, p, t1 = args
        return (bool(out.dims) and out.p == p
                and out.n == _stocked_degree(plan, out.extra_g_copies)
                and all(a != b for a, b in zip(out.dims.dims1, out.dims.dims2)))
    if kind in ("intact", "tampered", "atlas"):
        return out is op.expect
    if kind == "frobenius":
        counts, class_sizes = out
        brute, table_sizes = op.expect
        if any(v < 0 for v in counts.values()):
            return False
        # xyz = 1 iff yzx = 1, so the count is invariant under rotation
        if any(counts[(y, z, x)] != v for (x, y, z), v in counts.items()):
            return False
        return (class_sizes == table_sizes and bool(brute)
                and all(counts[k] == v for k, v in brute.items()))
    if kind in ("chain", "pair", "above_cap"):
        return out == op.expect
    return False


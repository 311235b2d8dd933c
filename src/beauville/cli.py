"""Command-line surface: validation, composition, construction,
certification and counting, with machine-readable JSON reports.

Exit codes: 0 all checks passed, 1 a check failed, 2 usage or parse
error.  Reports are byte-deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from . import __version__
from .atlas import BASIC_MAP_IDS, basic_map, validate_atlas
from .certify import (
    CertificationError,
    certificate_from_json,
    certificate_maps,
    certificate_to_json,
    certify_cover,
    certify_dhb,
    min_degree_search,
    verify_certificate,
)
from .compose import CompositionError, eval_expr
from .construct import ConstructionPlan, PlanError, all_minimal_plans, build_pair
from .frobenius import (
    BUNDLED_TABLES,
    TableError,
    bundled_table,
    frobenius_count,
    load_table,
)
from .linlift import LiftError, lift_maps, lift_pair
from .maps import MapError, map_doc, map_to_text

REPORT_SCHEMA = "beauville-report-v1"


def _report(command, payload, passed):
    doc = {
        "schema": REPORT_SCHEMA,
        "command": command,
        "result": payload,
        "pass": bool(passed),
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


class OutputError(Exception):
    """The report file cannot be written."""


def _emit(args, text):
    if getattr(args, "out", None):
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise OutputError(f"cannot write {args.out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _plan_from_args(args):
    return ConstructionPlan(args.r, args.s, args.variant)


def cmd_atlas(args):
    if args.action == "validate":
        rep = validate_atlas()
        if args.format == "text":
            _emit(args, "\n".join(rep.lines()) + "\n")
            return 0 if rep.ok else 1
        payload = {
            mid: {
                field: {"ok": ok, "computed": _plain(c), "published": _plain(e)}
                for field, (ok, c, e) in fields.items()
            }
            for mid, fields in rep.results.items()
        }
        _emit(args, _report("atlas validate", payload, rep.ok))
        return 0 if rep.ok else 1
    # export, the other action argparse admits
    if args.map not in BASIC_MAP_IDS:
        raise PlanError(f"unknown map {args.map!r}")
    _emit(args, map_to_text(basic_map(args.map)))
    return 0


def _plain(v):
    if isinstance(v, tuple):
        return list(v)
    return v


def cmd_compose(args):
    m = eval_expr(args.expr)
    payload = {
        "expr": args.expr,
        "degree": m.n,
        "w_cycles": list(m.w_cycles.lengths()),
        "fixed_points": list(m.fixed_point_vector().as_tuple()),
        "genus": m.genus(),
        "handle_counts": list(m.handle_counts()),
        "prime_set": sorted(m.prime_set()),
        "useful_lengths": list(m.useful_lengths()),
    }
    _emit(args, _report(f"compose {args.expr}", payload, True))
    return 0


def cmd_construct(args):
    plan = _plan_from_args(args)
    pair = build_pair(plan)
    payload = {
        "plan": asdict(plan),
        "degree": pair.degree,
        "prime": pair.prime,
        "v1": list(pair.w1.fixed_point_vector().as_tuple()),
        "v2": list(pair.w2.fixed_point_vector().as_tuple()),
        "w1": map_doc(pair.w1),
        "w2": map_doc(pair.w2),
    }
    _emit(args, _report("construct", payload, True))
    return 0


def cmd_certify(args):
    if args.all_minimal:
        plans = all_minimal_plans()
    else:
        if args.r is None:
            raise PlanError("certify needs --r R or --all-minimal")
        plans = [_plan_from_args(args)]
    docs = [_certify_doc(plan) for plan in plans]
    passed = all(doc["verified"] for doc in docs)
    _emit(args, _report("certify", docs, passed))
    return 0 if passed else 1


def _certify_doc(plan):
    cert = certify_dhb(plan)
    text = certificate_to_json(cert)
    return {
        "plan": asdict(plan),
        "n": cert.n,
        "prime": cert.pair.prime,
        "verified": verify_certificate(text),
        "certificate": json.loads(text),
    }


def cmd_cover(args):
    plan = _plan_from_args(args)
    cov = certify_cover(plan)
    text = certificate_to_json(cov)
    payload = {
        "plan": asdict(plan),
        "n": cov.n,
        "branch": cov.branch,
        "tau": [cov.tau1, cov.tau2],
        "v_difference": list(cov.v_difference),
        "verified": verify_certificate(text),
        "certificate": json.loads(text),
    }
    _emit(args, _report("cover", payload, payload["verified"]))
    return 0 if payload["verified"] else 1


def cmd_min_degree(args):
    res = min_degree_search()
    payload = {
        "n": res.n,
        "witnesses": [[list(a), list(b)] for a, b in res.witnesses],
    }
    _emit(args, _report("min-degree", payload, True))
    return 0


def cmd_frobenius(args):
    if args.table in BUNDLED_TABLES:
        table = bundled_table(args.table)
    else:
        table = load_table(args.table)
    names = [s.strip() for s in args.classes.split(",")]
    if len(names) != 3:
        raise TableError("--classes needs exactly three class names X,Y,Z")
    count = frobenius_count(table, *names)
    payload = {
        "group": table.group_name,
        "order": table.order,
        "classes": names,
        "count": count,
    }
    _emit(args, _report("frobenius", payload, True))
    return 0


def cmd_lift(args):
    if args.pair:
        try:
            with open(args.pair, encoding="utf-8") as fh:
                maps = certificate_maps(certificate_from_json(fh.read()))
        except OSError as exc:
            raise LiftError(f"cannot read {args.pair}: {exc.strerror}") from None
        except CertificationError as exc:
            raise LiftError(f"{args.pair}: {exc}") from None
        triple1, _, dims = lift_maps(maps[0], maps[1], args.p, args.t1)
        payload = {"source": args.pair, "n": maps[0].n}
    else:
        if args.r is None:
            raise PlanError("lift needs --r R (or --pair FILE)")
        plan = _plan_from_args(args)
        rep = lift_pair(plan, args.p, args.t1)
        triple1, dims = rep.triple1, rep.dims
        # the requested plan: rep.plan carries the enlarged stock
        payload = {"plan": asdict(plan), "n": rep.n, "extra_g_copies": rep.extra_g_copies}
    payload.update(
        p=args.p,
        t1=args.t1 % args.p,
        handle_points=list(triple1.handle_points),
        dims1=list(dims.dims1),
        dims2=list(dims.dims2),
        relations="x^2 = y^3 = (xy)^7 = 1, det = 1 verified",
    )
    _emit(args, _report("lift", payload, True))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="beauville",
        description=(
            "Construct and machine-certify pairs of (2,3,7) generating "
            "triples of alternating groups"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("atlas", help="validate or export the basic maps")
    p.add_argument("action", choices=["validate", "export"])
    p.add_argument("--map", default="A", help="map id for export")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_atlas)

    p = sub.add_parser("compose", help="evaluate a chain expression")
    p.add_argument("expr")
    p.add_argument("--out")
    p.set_defaults(func=cmd_compose)

    # add_parser(name, help=None) would list the command with an empty help
    for name, func, extra in (
        ("construct", cmd_construct, {}),
        ("cover", cmd_cover, {}),
        ("lift", cmd_lift, {}),
        ("certify", cmd_certify, {"help": "issue and re-verify certificates"}),
    ):
        p = sub.add_parser(name, **extra)
        p.add_argument("--r", type=int, required=name in ("construct", "cover"))
        p.add_argument("--s", type=int, default=3)
        p.add_argument("--variant", default=None)
        if name == "certify":
            p.add_argument("--all-minimal", action="store_true")
        p.add_argument("--out")
        if name == "lift":
            p.add_argument("--p", type=int, required=True)
            p.add_argument("--t1", type=int, required=True)
            p.add_argument("--pair", help="serialized pair certificate to lift")
        p.set_defaults(func=func)

    p = sub.add_parser("min-degree")
    p.add_argument("--out")
    p.set_defaults(func=cmd_min_degree)

    p = sub.add_parser("frobenius")
    p.add_argument("--table", required=True, help="bundled name or a file path")
    p.add_argument("--classes", required=True, help="X,Y,Z class names")
    p.add_argument("--out")
    p.set_defaults(func=cmd_frobenius)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (PlanError, CompositionError, MapError, TableError, LiftError, OutputError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except CertificationError as exc:
        sys.stderr.write(f"check failed: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

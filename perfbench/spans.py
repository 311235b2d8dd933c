"""Spans around the package's public calls, installed from outside.

`Tracer.install()` replaces each traced function, wherever a `beauville`
module holds a reference to it, by a wrapper that records a span: name,
start, end (CPU seconds of the thread, the clock of the end-to-end
timings), parent span and op id.  Calls between package modules go
through those references, so nested calls get parents.  Nothing in the
package itself changes, and `uninstall()` puts the originals back.

Spans stay in memory; `write_jsonl` saves them when the run ends, and
`layer_metrics` turns them into the per-layer figures.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import tracemalloc

# (module, function) pairs to trace; methods are given as "Class.method".
TRACED = (
    ("perm", "group_order"),
    ("perm", "parse_cycles"),
    ("perm", "is_transitive"),
    ("maps", "new_map"),
    ("maps", "HurwitzMap.useful_cycles"),
    ("atlas", "validate_atlas"),
    ("compose", "join"),
    ("compose", "k_compose"),
    ("compose", "self_join"),
    ("construct", "build_pair"),
    ("certify", "certify_dhb"),
    ("certify", "certify_cover"),
    ("certify", "jordan_certify"),
    ("certify", "beauville_check"),
    ("certify", "certificate_to_json"),
    ("certify", "certificate_from_json"),
    ("certify", "verify_certificate"),
    ("frobenius", "bundled_table"),
    ("frobenius", "frobenius_count"),
    ("frobenius", "enumerate_group"),
    ("frobenius", "conjugacy_classes"),
    ("linlift", "lift_pair"),
    ("linlift", "build_linear_triple"),
)

LAYERS = ("perm", "maps", "atlas", "compose", "construct", "certify", "frobenius", "linlift")

# Degree bands of the oracle, matching its three strata.
ORDER_BANDS = (("n_le_216", 216), ("n_le_400", 400), ("n_gt_400", None))


def _facts(name, args, result):
    """Per-call counts recorded with the span."""
    if name == "perm.group_order":
        return {"points": args[0][0].degree}
    if name == "certify.certificate_to_json":
        return {"bytes": len(result)}
    if name == "certify.verify_certificate":
        return {"rejected": int(result is False)}
    if name in ("certify.certify_cover", "linlift.lift_pair"):
        return {"extra_g": result.extra_g_copies}
    return None


class Tracer:
    """Records spans while installed.  With measure_memory, each outermost
    group_order call also runs under tracemalloc, which slows it several
    times over; run.py therefore measures memory in a separate pass."""

    def __init__(self, measure_memory=False):
        self.measure_memory = measure_memory
        self.spans = []
        self.op_id = None
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        measure_memory = self.measure_memory and name == "perm.group_order"

        def traced(*args, **kwargs):
            span = {"name": name, "parent": stack[-1] if stack else None,
                    "op": self.op_id}
            spans.append(span)
            stack.append(len(spans) - 1)
            own_trace = measure_memory and not tracemalloc.is_tracing()
            if own_trace:
                tracemalloc.start()
            span["start"] = time.thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.thread_time()
                stack.pop()
                if own_trace:
                    span["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
            facts = _facts(name, args, result)
            if facts:
                span.update(facts)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Point every reference to a traced function at its wrapper."""
        if not self._patches:
            self._patches = self._find_patches()
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original, _ in reversed(self._patches):
            setattr(owner, key, original)

    def _find_patches(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "beauville" or key.startswith("beauville.")]
        patches = []
        for modname, attr in TRACED:
            module = sys.modules[f"beauville.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                wrapper = self._wrap(f"{modname}.{meth}", original)
                patches.append((owner, meth, original, wrapper))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(f"{modname}.{attr}", original)
            for mod in modules:
                for key, value in vars(mod).items():
                    if value is original:
                        patches.append((mod, key, original, wrapper))
        return patches

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **span}, sort_keys=True) + "\n")


def metric_names():
    """Every per-layer metric name, in a fixed order."""
    names = []
    for modname, attr in TRACED:
        base = f"{modname}.{attr.split('.')[-1]}"
        names += [f"{base}.calls", f"{base}.busy_ms", f"{base}.p50_ms"]
        if base == "perm.group_order":
            names += [f"{base}.points", f"{base}.peak_mb"]
            names += [f"{base}.{band}.busy_ms" for band, _ in ORDER_BANDS]
        elif base == "certify.certificate_to_json":
            names.append(f"{base}.bytes")
        elif base == "certify.verify_certificate":
            names.append(f"{base}.rejected")
        elif base in ("certify.certify_cover", "linlift.lift_pair"):
            names.append(f"{base}.extra_g")
    names += [f"{layer}.self_ms" for layer in LAYERS]
    names += ["tracing.spans", "tracing.overhead_ratio"]
    return names


def metric_unit(name):
    stat = name.rsplit(".", 1)[1]
    if stat.endswith("_ms"):
        return "ms"
    return {"peak_mb": "MB", "bytes": "B", "overhead_ratio": "ratio"}.get(stat, "count")


def _band(n):
    for band, limit in ORDER_BANDS:
        if limit is None or n <= limit:
            return band
    raise AssertionError(n)


def layer_metrics(spans, overhead_ratio, peak_mb):
    """Per-layer figures from the spans of the traced ops.

    busy_ms sums a function's outermost spans (a call nested in a call of
    the same function is not counted twice); p50_ms is the median span;
    <layer>.self_ms is the time inside the layer's spans not covered by
    their child spans.
    """
    child_ms = [0.0] * len(spans)
    out = {name: 0 for name in metric_names()}
    durations = {}
    for s in spans:
        ms = (s["end"] - s["start"]) * 1e3
        durations.setdefault(s["name"], []).append(ms)
        if s["parent"] is not None:
            child_ms[s["parent"]] += ms
        if not _nested_in_same(s, spans):
            out[f"{s['name']}.busy_ms"] += ms
        out[f"{s['name']}.calls"] += 1
        for key in ("points", "bytes", "rejected", "extra_g"):
            if key in s:
                out[f"{s['name']}.{key}"] += s[key]
        if s["name"] == "perm.group_order":
            out[f"perm.group_order.{_band(s['points'])}.busy_ms"] += ms
    for i, s in enumerate(spans):
        layer = s["name"].split(".")[0]
        ms = (s["end"] - s["start"]) * 1e3
        out[f"{layer}.self_ms"] += ms - child_ms[i]
    for name, values in durations.items():
        out[f"{name}.p50_ms"] = statistics.median(values)
    out["perm.group_order.peak_mb"] = peak_mb
    out["tracing.spans"] = len(spans)
    out["tracing.overhead_ratio"] = overhead_ratio
    return out


def _nested_in_same(span, spans):
    parent = span["parent"]
    while parent is not None:
        if spans[parent]["name"] == span["name"]:
            return True
        parent = spans[parent]["parent"]
    return False

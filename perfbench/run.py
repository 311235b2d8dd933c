"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout.  One process, one thread, closed loop:
the next op starts only after the previous one has returned and been
checked.  The op list is fixed by (workload, seed, seconds) before anything
is timed; see workloads.py.  With --trace 0 the last line of stdout is the
end-to-end result, with --trace 1 the per-layer result of a traced run (see
spans.py and README.md).  Lines before it list every metric with its unit
and the run's diagnostics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Pinned before the interpreter starts (hash seed) or numpy loads (threads).
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
E2E_UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
SETUP_REPEATS = 3
TAIL_BEYOND = 10


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("certify", "verify", "oracle"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def pinned_env():
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return env


# -- set-up ---------------------------------------------------------------------


def setup(workloads, args):
    """Generate the inputs and warm up SETUP_REPEATS times, the package's
    caches emptied before each, so every repetition pays what a fresh
    process pays.  Returns the last op list and the CPU seconds of each
    repetition."""
    seconds, ops, context = [], None, None
    for _ in range(SETUP_REPEATS):
        ops = context = None  # so one op list at a time sets peak memory
        workloads.clear_caches()
        gc.collect()
        cpu0 = time.process_time()
        ops, context = workloads.generate(args.workload, args.seed, args.seconds)
        workloads.warm_up(args.workload, ops)
        seconds.append(time.process_time() - cpu0)
    return ops, context, seconds


# -- timing -----------------------------------------------------------------------


def timed(workloads, op):
    """(CPU seconds, wall seconds, output, error) of one op; the check is
    outside the timing.  Ops compute on this one thread and wait for
    nothing, so their CPU time is their latency on an unshared machine;
    wall time adds whatever the host ran instead (see README.md)."""
    gc.collect()
    wall0, cpu0 = time.perf_counter(), time.thread_time()
    try:
        out, error = workloads.execute(op), None
    except Exception as exc:  # a raising op is a failed op, not a crash
        out, error = None, exc
    return time.thread_time() - cpu0, time.perf_counter() - wall0, out, error


def passed(workloads, op, out, error):
    if error is not None:
        return False
    try:
        return bool(workloads.check(op, out))
    except Exception:
        return False


def run_untraced(workloads, ops):
    latencies, walls, failures = [], [], []
    for op in ops:
        seconds, wall, out, error = timed(workloads, op)
        latencies.append(seconds)
        walls.append(wall)
        if not passed(workloads, op, out, error):
            failures.append(f"{op.label}: {error!r}" if error else op.label)
    return latencies, walls, failures


def run_traced(workloads, ops):
    """Each op twice, untraced and traced, alternating which goes first, so
    the overhead ratio compares neighbours in time."""
    from spans import Tracer

    tracer = Tracer()
    plain, traced, failures = [], [], []
    for i, op in enumerate(ops):
        results = {}
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                tracer.op_id = i
                tracer.install()
            try:
                results[with_trace] = timed(workloads, op)
            finally:
                tracer.uninstall()
        plain.append(results[False][0])
        traced.append(results[True][0])
        if not all(passed(workloads, op, out, err) for _, _, out, err in results.values()):
            failures.append(op.label)
    return tracer, plain, traced, failures


def group_order_peak_mb(workloads, ops, spans):
    """tracemalloc peak of the run's largest group_order call, from one
    more untimed run of its op.  The chain's memory grows as n^3, so the
    call of largest degree holds the peak."""
    from spans import Tracer

    calls = [s for s in spans if s["name"] == "perm.group_order"]
    if not calls:
        return 0.0
    memory = Tracer(measure_memory=True)
    with memory:
        workloads.execute(ops[max(calls, key=lambda s: s["points"])["op"]])
    return max(s["peak_mb"] for s in memory.spans if "peak_mb" in s)


# -- statistics ---------------------------------------------------------------------


def tail_rank(n):
    """1-based rank of the highest percentile with TAIL_BEYOND samples above."""
    return max(1, n - TAIL_BEYOND)


def median_band(ops, latencies):
    """Which op kind holds the median, and whether the median lies inside
    that kind's interquartile latency band (so p50 cannot jump between
    the bands of two kinds from one run to the next)."""
    order = sorted(range(len(ops)), key=latencies.__getitem__)
    mid, half = len(order) // 2, max(1, len(order) // 20)
    middle = [ops[i].kind for i in order[max(0, mid - half):mid + half]]
    kind, count = max(((k, middle.count(k)) for k in set(middle)), key=lambda kc: kc[1])
    own = [t for op, t in zip(ops, latencies) if op.kind == kind]
    q1, _, q3 = statistics.quantiles(own, n=4) if len(own) > 1 else (own[0],) * 3
    p50 = statistics.median(latencies)
    return {"kind": kind, "share_of_middle_ranks": count / len(middle),
            "kind_q1_ms": q1 * 1e3, "kind_q3_ms": q3 * 1e3,
            "inside_band": q1 <= p50 <= q3}


def op_timings(latencies, passed_ops):
    """throughput, p50 and tail of one list of op latencies (seconds)."""
    return {
        "throughput_ops_s": passed_ops / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": sorted(latencies)[tail_rank(len(latencies)) - 1] * 1e3,
    }


def machine_probe():
    """Median wall and CPU ms of a fixed pure-Python loop: host speed, for
    diagnosis only."""
    walls, cpus = [], []
    for _ in range(5):
        wall0, cpu0 = time.perf_counter(), time.thread_time()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        walls.append((time.perf_counter() - wall0) * 1e3)
        cpus.append((time.thread_time() - cpu0) * 1e3)
    return {"wall_ms": statistics.median(walls), "cpu_ms": statistics.median(cpus)}


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- output ----------------------------------------------------------------------------


def emit(args, metrics, units, attempted, failures, diagnostics):
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value} {units[name]}")
    # the sixth end-to-end figure; not in BENCHMARK.json, which lists only
    # metrics that are never 0
    print(f"{args.workload} fail_ratio = {len(failures) / attempted} ratio")
    print(json.dumps({"diagnostics": diagnostics}, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "beauville", "__init__.py")):
        print(f"perfbench: no package sources at {SRC}; run from the root of "
              "a checkout of the repository", file=sys.stderr)
        return 2
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        script = os.path.abspath(__file__)
        os.execve(sys.executable, [sys.executable, script, *argv], pinned_env())
    sys.path.insert(0, SRC)
    import numpy
    import workloads

    # CPU seconds of this process since it started, the interpreter start
    # before the re-exec included
    import_s = time.process_time()
    ops, context, setup_repeats_s = setup(workloads, args)
    setup_s = import_s + statistics.median(setup_repeats_s)

    probe_before = machine_probe()
    gc.collect()
    gc.freeze()  # set-up objects stay put; per-op collections scan only new ones
    wall0 = time.perf_counter()
    if args.trace:
        tracer, plain, traced, failures = run_traced(workloads, ops)
        latencies = plain
    else:
        latencies, walls, failures = run_untraced(workloads, ops)
    wall = time.perf_counter() - wall0
    probe_after = machine_probe()

    n = len(latencies)
    rank = tail_rank(n)
    diagnostics = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "rounds": workloads.rounds_for(args.workload, args.seconds), "ops": n,
        "kinds": {k: sum(op.kind == k for op in ops) for k in sorted({op.kind for op in ops})},
        "tail": {"rank": rank, "samples": n, "beyond": n - rank,
                 "percentile": 100 * rank / n},
        "median_band": median_band(ops, latencies),
        "fail_ratio": len(failures) / n, "failures": failures[:5],
        "import_s": import_s, "setup_repeats_s": setup_repeats_s, "wall_s": wall,
        "probe_before": probe_before, "probe_after": probe_after,
        "cpu": cpu_model(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        **context,
    }

    if args.trace:
        from spans import layer_metrics, metric_unit

        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write_jsonl(path)
        diagnostics["spans_file"] = os.path.relpath(path, ROOT)
        peak = group_order_peak_mb(workloads, ops, tracer.spans)
        metrics = layer_metrics(tracer.spans, sum(traced) / sum(plain), peak)
        units = {name: metric_unit(name) for name in metrics}
    else:
        passed_ops = n - len(failures)
        metrics = {"setup_s": setup_s, **op_timings(latencies, passed_ops),
                   "peak_rss_mb": peak_rss_mb()}
        units = E2E_UNITS
        diagnostics["wall_timings"] = op_timings(walls, passed_ops)
    emit(args, metrics, units, n, failures, diagnostics)
    return 0


if __name__ == "__main__":
    sys.exit(main())

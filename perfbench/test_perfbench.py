"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from beauville.construct import ConstructionPlan  # noqa: E402


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_ops_other_seed_other_ops(workload):
    def labels(seed):
        return [op.label for op in workloads.generate(workload, seed, 1)[0]]

    first, again, other = labels(7), labels(7), labels(8)
    assert first == again
    assert first != other


def test_op_count_follows_seconds_not_speed():
    ops_short, _ = workloads.generate("verify", 1, 3)
    ops_long, _ = workloads.generate("verify", 1, 3 * 3)
    assert len(ops_long) == 3 * len(ops_short) == 3 * 206


def test_benchmark_json_matches_the_code():
    bench = load_benchmark()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert [m["name"] for m in bench["per_layer"]] == spans.metric_names()
    assert all(m["unit"] == spans.metric_unit(m["name"]) for m in bench["per_layer"])


def _run(*argv, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metric_names_match_benchmark_json(trace):
    proc = _run("--workload", "verify", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    bench = load_benchmark()
    listed = bench["per_layer"] if trace == "1" else bench["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed}
    for line in proc.stdout.splitlines()[:len(listed)]:
        name, unit = line.split()[1], line.split()[-1]
        assert result["metrics"][name]["unit"] == unit


def test_wrong_results_count_as_failed():
    ops, _ = workloads.generate("verify", 1, 1)
    tampered = next(op for op in ops if op.kind == "tampered")
    sweep = next(op for op in ops if op.args == ("a5",))
    tallies, class_sizes = sweep.expect
    wrong_tallies = {k: v + 1 for k, v in tallies.items()}
    plan = ConstructionPlan(0, 3)
    ops = [
        workloads.Op("construct", "right", (plan,)),
        sweep,
        # a tampered certificate presented as intact: verify answers False
        workloads.Op("intact", "tampered as intact", tampered.args, True),
        # a lift over a field of non-prime order raises inside the op
        workloads.Op("lift", "raises", (plan, 4, 1)),
        # Frobenius counts that disagree with the brute-force tallies
        workloads.Op("frobenius", "wrong tallies", ("a5",), (wrong_tallies, class_sizes)),
    ]
    latencies, walls, failures = run.run_untraced(workloads, ops)
    assert len(latencies) == len(walls) == 5
    assert [f.split(":")[0] for f in failures] == [
        "tampered as intact", "raises", "wrong tallies"]


def test_wrong_oracle_answer_fails_the_check():
    stratum, label, m = workloads.oracle_pool()[0]
    op = workloads.Op(stratum, label, (m.x, m.y), math.factorial(m.n) // 2)
    assert workloads.check(op, workloads.execute(op))
    assert not workloads.check(op, op.expect // 2)


def test_no_sources_means_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_tail_rank_leaves_ten_beyond():
    assert run.tail_rank(588) == 578
    assert run.tail_rank(25) == 15

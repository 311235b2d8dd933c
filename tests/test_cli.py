import json
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import pytest

from beauville.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


def a5_table_with_3a_rep(rep):
    text = resources.files("beauville").joinpath("data/a5.tbl").read_text()
    return text.replace("class 3A 20 3 3A (0,1,2)", f"class 3A 20 3 3A {rep}")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestReports:
    def test_atlas_validate(self, capsys):
        code, out = run(capsys, "atlas", "validate")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "beauville-report-v1"
        assert doc["pass"] is True
        assert set(doc["result"]) == set("ABCDEFGHIJKLMN")

    def test_atlas_export(self, capsys):
        code, out = run(capsys, "atlas", "export", "--map", "A")
        assert code == 0
        assert out.startswith("beauville-map v1")
        from beauville.maps import map_from_text

        assert map_from_text(out).n == 14

    def test_compose(self, capsys):
        code, out = run(capsys, "compose", "L(2)M")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["degree"] == 210
        assert doc["result"]["w_cycles"] == [1, 12, 14, 26, 42, 57, 58]
        assert doc["result"]["prime_set"] == [2, 3, 7, 13, 19, 29]

    def test_python_m_runs_the_cli(self, capsys):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "beauville", "certify", "--r", "0"],
            env=env,
            capture_output=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        _, out = run(capsys, "certify", "--r", "0")
        assert proc.stdout == out.encode()

    def test_compose_deterministic(self, capsys):
        _, out1 = run(capsys, "compose", "B(3)C")
        _, out2 = run(capsys, "compose", "B(3)C")
        assert out1 == out2

    def test_construct(self, capsys):
        code, out = run(capsys, "construct", "--r", "0", "--s", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["degree"] == 294
        assert doc["result"]["prime"] == 17

    def test_certify_single(self, capsys):
        code, out = run(capsys, "certify", "--r", "7", "--s", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert doc["result"][0]["n"] == 329
        assert doc["result"][0]["verified"] is True

    def test_certify_all_minimal(self, capsys):
        code, out = run(capsys, "certify", "--all-minimal")
        assert code == 0
        doc = json.loads(out)
        assert [entry["n"] for entry in doc["result"]] == [
            294, 589, 394, 367, 396, 439, 510, 329, 540, 457, 430, 459, 432, 447,
        ]
        assert all(entry["verified"] for entry in doc["result"])

    def test_min_degree(self, capsys):
        code, out = run(capsys, "min-degree")
        assert code == 0
        assert json.loads(out)["result"]["n"] == 168

    def test_frobenius(self, capsys):
        code, out = run(capsys, "frobenius", "--table", "s3", "--classes", "2A,2A,3A")
        assert code == 0
        assert json.loads(out)["result"]["count"] == 6

    def test_cover(self, capsys):
        code, out = run(capsys, "cover", "--r", "0", "--s", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["tau"][0] % 4 == 0

    def test_lift(self, capsys):
        code, out = run(capsys, "lift", "--r", "0", "--s", "3", "--p", "2", "--t1", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["dims1"] != doc["result"]["dims2"]

    def test_lift_from_certificate_file(self, tmp_path, capsys):
        # a pair built with a larger stock exposes two shared handles
        code = main(["certify", "--r", "0", "--s", "6", "--out", str(tmp_path / "c.json")])
        assert code == 0
        cert = json.loads((tmp_path / "c.json").read_text())["result"][0]["certificate"]
        (tmp_path / "pair.json").write_text(json.dumps(cert))
        code, out = run(
            capsys, "lift", "--p", "3", "--t1", "2", "--pair", str(tmp_path / "pair.json")
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["n"] == 336
        assert doc["result"]["dims1"] != doc["result"]["dims2"]

    def test_atlas_validate_text(self, capsys):
        code, out = run(capsys, "atlas", "validate", "--format", "text")
        assert code == 0
        assert out.splitlines()[0] == "map A: PASS"


class TestErrors:
    def test_parse_error_exit_2(self, capsys):
        assert main(["compose", "A(9)B"]) == 2

    def test_malformed_chain_refused_before_a_join_fails(self, capsys):
        # A has one (1)-handle: joining would fail at the second join
        assert main(["compose", "A(1)A(1)A(1)"]) == 2
        err = capsys.readouterr().err
        assert err == "error: expected a map name at end of 'A(1)A(1)A(1)'\n"

    @pytest.mark.parametrize(
        "argv, degree",
        [
            (["compose", "99999999999999999999G"], 42 * 99999999999999999999),
            (["construct", "--r", "0", "--s", "1000000"], 14 * 10**6),
            (["certify", "--r", "0", "--s", "1000000"], 14 * 10**6),
            (["cover", "--r", "0", "--s", "1000000"], 14 * 10**6),
        ],
        ids=["compose", "construct", "certify", "cover"],
    )
    def test_chain_degree_is_bounded(self, capsys, argv, degree):
        start = time.process_time()
        code = main(argv)
        assert time.process_time() - start < 1.0
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"error: chain degree {degree} exceeds the limit 1048576\n", err

    def test_invalid_plan_exit_2(self, capsys):
        assert main(["construct", "--r", "6", "--s", "3", "--variant", "standard"]) == 2

    def test_small_case_rejection_names_reason(self, capsys):
        code = main(["construct", "--r", "4", "--variant", "small_n"])
        err = capsys.readouterr().err
        assert code == 2
        assert "divisible by" in err

    def test_malformed_lift_pair(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        bad_json = tmp_path / "bad.json"
        bad_json.write_text("{not json")
        no_member = tmp_path / "no_member.json"
        no_member.write_text(json.dumps({"schema": "beauville-certificate-v1", "w2": {}}))
        zero, huge = tmp_path / "zero.json", tmp_path / "huge.json"
        for path, degree, images in ((zero, 0, []), (huge, 10**15, [1, 0])):
            member = {"degree": degree, "x": "id", "y": "id", "t": "id"}
            member.update({f"{g}_images": images for g in "xyt"})
            path.write_text(json.dumps({"schema": "beauville-certificate-v1", "w1": member}))
        for path, problem in (
            (missing, "cannot read"),
            (bad_json, "not a JSON document"),
            (no_member, "missing field w1"),
            # no empty permutation: orbit() used to fail on it with IndexError
            (zero, "malformed field w1.degree: a permutation needs degree >= 1, got 0"),
            # refused before a parse would allocate 10^15 points
            (
                huge,
                f"malformed field w1.degree: {10**15} points cannot all be moved "
                "by 4 characters of x and y",
            ),
        ):
            code = main(["lift", "--p", "3", "--t1", "2", "--pair", str(path)])
            err = capsys.readouterr().err
            assert code == 2, path
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert str(path) in err and problem in err, err

    def test_lift_pair_with_non_string_cycle_text(self, tmp_path, capsys):
        # parse_cycles used to fail on it with AttributeError, a traceback
        member = {"degree": 3, "x": 5, "y": "id", "t": "id"}
        member.update({f"{g}_images": [0, 1, 2] for g in "xyt"})
        path = tmp_path / "pair.json"
        path.write_text(json.dumps({"schema": "beauville-certificate-v1", "w1": member}))
        code = main(["lift", "--p", "3", "--t1", "2", "--pair", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == (
            f"error: {path}: malformed field w1.x: cycle text must be a string, not int\n"
        ), err

    def test_lift_pair_with_minimal_stock_refused(self, tmp_path, capsys):
        # a pair built with the minimal stock shares only one free (1)-handle
        code = main(["certify", "--r", "0", "--s", "3", "--out", str(tmp_path / "c.json")])
        assert code == 0
        cert = json.loads((tmp_path / "c.json").read_text())["result"][0]["certificate"]
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(cert))
        code = main(["lift", "--p", "3", "--t1", "2", "--pair", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == (
            "error: need two free (1)-handle pairs common to both members; "
            "rebuild the pair with a larger stock\n"
        ), err

    def test_unwritable_out_exit_2(self, tmp_path, capsys):
        target = tmp_path / "no_such_dir" / "x.json"
        code = main(["construct", "--r", "0", "--out", str(target)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: cannot write {target}: No such file or directory\n", err

    def test_lift_prime_above_int64_bound(self, capsys):
        # refused before the trial division that would run for minutes
        code = main(["lift", "--r", "0", "--p", "1000000000000000003", "--t1", "3"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "1000000000000000003" in err and "3037000499" in err, err

    @pytest.mark.parametrize(
        "text, named",
        [
            ("beauville-table v2\ngroup X\norder abc\n", "'order abc'"),
            ("beauville-table v2\ngroup X\norder 1\nclass 1A one 1 1A\nchar 1\n", "'one'"),
            ("beauville-table v2\ngroup X\norder 1\nclass 1A 1 1 1A\nchar 1/0\n", "'1/0'"),
            ("beauville-table v1\ngroup X\norder 1\nclass 1A 1 1 1A\nchar 1\n", "v2"),
            (b"\xff\xfe", "not UTF-8"),
            (None, "cannot read"),
            (a5_table_with_3a_rep("(0,1,hello"), "class 3A: representative '(0,1,hello'"),
            (a5_table_with_3a_rep("(0,1)"), "class 3A: representative '(0,1)' has order 2"),
        ],
        ids=["order", "class-size", "value", "v1-header", "binary", "missing",
             "rep-not-cycles", "rep-order"],
    )
    def test_malformed_table(self, tmp_path, capsys, text, named):
        path = tmp_path / "t.tbl"
        if isinstance(text, bytes):
            path.write_bytes(text)
        elif text is not None:
            path.write_text(text)
        code = main(["frobenius", "--table", str(path), "--classes", "1A,1A,1A"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert named in err, err

    def test_min_degree_takes_no_bounds(self, capsys):
        # the search runs by degree and needs no box
        code = main(["min-degree", "--g-max", "2"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert "error: unrecognized arguments: --g-max 2" in err, err
        assert err.count("error:") == 1, err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["certify"], "certify needs --r R or --all-minimal"),
            (["lift", "--p", "3", "--t1", "2"], "lift needs --r R (or --pair FILE)"),
            (
                ["frobenius", "--table", "a5", "--classes", "2A,3A"],
                "--classes needs exactly three class names X,Y,Z",
            ),
            (["atlas", "export", "--map", "Z"], "unknown map 'Z'"),
        ],
        ids=["certify-no-r", "lift-no-r", "frobenius-two-classes", "atlas-unknown-map"],
    )
    def test_refused_arguments_exit_2(self, capsys, argv, message):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"error: {message}\n", err

    def test_failed_check_exit_1(self, capsys):
        # small_n has no stock, so no stock handle is ever free
        code = main(["cover", "--r", "0", "--variant", "small_n"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err == (
            "check failed: could not provision enough unused stock handles "
            "for variant 'small_n'\n"
        ), err

    def test_usage_error(self, capsys):
        assert main(["no-such-command"]) == 2

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = main(["min-degree", "--out", str(target)])
        assert code == 0
        assert json.loads(target.read_text())["result"]["n"] == 168

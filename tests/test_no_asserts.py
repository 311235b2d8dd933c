"""Checks in the package must survive `python -O`, which strips asserts."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "beauville"


def test_no_assert_statements():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert sorted(SRC.glob("*.py")), SRC
    assert found == []

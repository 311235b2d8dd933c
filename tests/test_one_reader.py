"""Cycle text from input is read in one place: `maps.map_from_doc`, which
bounds a map's degree before anything of that size is allocated.  The
only other reader is a character table's class representatives."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "beauville"


def calls_by_function(tree, name):
    """Qualified names of the functions whose bodies call `name`."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                func = child.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called == name:
                    found.add(".".join(scope))
            visit(child, scope)

    visit(tree, [])
    return found


def test_parse_cycles_is_called_only_by_the_readers():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found |= {f"{path.stem}.{f}" for f in calls_by_function(tree, "parse_cycles")}
    assert found == {"maps.map_from_doc", "frobenius.CharacterTable.representatives"}

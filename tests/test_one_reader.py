"""Cycle text from input is read in one place: `maps.map_from_doc`, which
bounds a map's degree before anything of that size is allocated.  The
only other reader is a character table's class representatives.  A
certificate's member sections are read in one place too:
`certify.certificate_maps`.  And no certificate rests on the group-order
oracle: no module of the package calls `perm.group_order`, and `perm`
imports no other module of the package, so the oracle reuses none of the
certificates' evidence.  Chains are joined by one engine, `compose.Chain`."""

import ast
from pathlib import Path

from beauville import frobenius, perm

SRC = Path(__file__).resolve().parent.parent / "src" / "beauville"


def scopes_where(tree, match):
    """Qualified names of the functions whose bodies hold a node that
    `match` accepts ("" for module level)."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if match(child):
                found.add(".".join(scope))
            visit(child, scope)

    visit(tree, [])
    return found


def calls_by_function(tree, name):
    """Qualified names of the functions whose bodies call `name`."""

    def match(node):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        return (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name

    return scopes_where(tree, match)


def reads_by_function(tree, name):
    """Qualified names of the functions whose bodies read the name `name`."""

    def match(node):
        return isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id == name

    return scopes_where(tree, match)


def uses_by_function(tree, name):
    """Qualified names of the functions whose bodies use `name`, bare or
    as an attribute."""

    def match(node):
        if isinstance(node, ast.Attribute):
            return node.attr == name
        return isinstance(node, ast.Name) and node.id == name

    return scopes_where(tree, match)


def test_parse_cycles_is_called_only_by_the_readers():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found |= {f"{path.stem}.{f}" for f in calls_by_function(tree, "parse_cycles")}
    assert found == {"maps.map_from_doc", "frobenius.CharacterTable.representatives"}


def test_certificate_members_are_read_only_by_certificate_maps():
    tree = ast.parse((SRC / "certify.py").read_text(encoding="utf-8"))
    assert calls_by_function(tree, "map_from_doc") == {"certificate_maps"}
    assert reads_by_function(tree, "MAP_FIELDS") == {"certificate_maps"}


def test_group_order_has_no_caller_in_src():
    # the issuing path proves generation by Jordan's theorem from w's
    # useful cycle, and the atlas counts map A's closure; the oracle stays
    # for tests, demos and the benchmark.  The one enumerator is perm's
    found = set()
    imports = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found |= {f"{path.stem}.{f}" for f in uses_by_function(tree, "group_order")}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imports |= {(path.stem, a.asname) for a in node.names if a.name == "group_order"}
    assert found == set()
    assert imports == set()
    assert frobenius.enumerate_group is perm.enumerate_group


def test_the_oracle_imports_no_other_module_of_the_package():
    # perm's giant test finds its own p-cycle in <x, y>, and primitivity
    # follows from that cycle: it cannot reuse maps.jordan_cycle, the
    # useful cycles or a certificate's witnesses
    tree = ast.parse((SRC / "perm.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported, "perm.py imports nothing"
    assert not {m for m in imported if m.startswith(".") or m.split(".")[0] == "beauville"}


def test_chains_are_built_only_by_the_compose_engine():
    # construct compiles its pairs to `compose.Chain`: it keeps no chain
    # type of its own, makes no join on built maps and places no arrays
    tree = ast.parse((SRC / "construct.py").read_text(encoding="utf-8"))
    classes = {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    assert not {name for name in classes if "chain" in name.lower()}, classes
    joins = {
        node.func.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    } & {"join", "k_compose", "self_join"}
    assert joins == set()
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "compose"
        for alias in node.names
    }
    assert imported.isdisjoint({"join", "k_compose", "self_join"}), imported
    assert calls_by_function(tree, "concatenate") == set()

"""Leftover scan: every top-level def, class and assignment in the package
must be referenced somewhere outside its own definition.

A deletion that leaves a helper, constant or schema without a caller
fails here instead of lingering. Pure AST work over the source tree, no
Ray: a reference is a use of the name in its own module outside its
definition, or, in any other scanned file, an import of the name or an
attribute access ``.name``. Docstrings and comments do not count.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "nfl_feature_store_ray"
SCANNED = [PACKAGE, ROOT / "tests", ROOT / "scripts", ROOT / "perfbench",
           ROOT / "__ray_entry__.py"]
# Registry tables every query module fills in; the registry merges them.
EXEMPT = {"QUERIES", "ORACLES"}


def _py_files():
    for p in SCANNED:
        yield from ([p] if p.is_file() else sorted(p.rglob("*.py")))


def _definitions(tree):
    """(name, defining node) of each top-level definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name):
                    yield t.id, node


def _uses(tree):
    """(name, line, is_foreign_reference) of every name use in a file.
    A bare name only refers to a definition in the same module; imports
    and attribute accesses may refer to a definition anywhere."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True
        elif isinstance(node, ast.ImportFrom):
            for a in node.names:
                yield a.name, node.lineno, True


def unreferenced_names() -> list[str]:
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in _py_files()}
    uses = defaultdict(list)  # name -> [(path, line, is_foreign_reference)]
    for path, tree in trees.items():
        for name, line, foreign in _uses(tree):
            uses[name].append((path, line, foreign))
    orphans = []
    for path, tree in trees.items():
        if PACKAGE not in path.parents:
            continue
        for name, node in _definitions(tree):
            if name in EXEMPT or (name.startswith("__") and name.endswith("__")):
                continue
            span = range(node.lineno, node.end_lineno + 1)
            if not any(line not in span if p == path else foreign
                       for p, line, foreign in uses[name]):
                orphans.append(f"{path.relative_to(ROOT)}:{name}")
    return orphans


def test_no_unreferenced_top_level_names():
    assert unreferenced_names() == []

"""Static checks on the package's source."""

import ast
import json
import pathlib

import pytest

import qbmlab

SOURCES = sorted(pathlib.Path(qbmlab.__file__).parent.glob("*.py"))
TESTS = sorted(pathlib.Path(__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda path: path.name)
def test_no_unused_top_level_import(path):
    # no linter runs on the package or its tests; an import kept for other readers carries "# noqa: F401"
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        if any("noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        unused += [
            f"{path.name}:{node.lineno}: {alias.name}"
            for alias in node.names
            if (alias.asname or alias.name.split(".")[0]) not in used
        ]
    assert not unused


def test_no_unreferenced_private_name():
    # no linter runs on the package: a private function, class or assignment at module level (not a
    # dunder) that nothing in the package reads, by name, attribute or import, lost its last caller
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    unreferenced = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [target.id for target in targets if isinstance(target, ast.Name)]
            else:
                continue
            unreferenced += [
                f"{name}:{node.lineno}: {private}"
                for private in defined
                if private.startswith("_") and not (private.startswith("__") and private.endswith("__"))
                and private not in referenced
            ]
    assert not unreferenced


@pytest.mark.parametrize("path", sorted(pathlib.Path(__file__).parents[1].glob("BENCH_*.json")), ids=lambda path: path.name)
def test_bench_records_name_their_machine(path):
    # a bench record's numbers hold on its machine only, so each names its CPU count and versions
    machine = json.loads(path.read_text(encoding="utf-8")).get("machine")
    assert isinstance(machine, dict) and {"nproc", "numpy", "python"} <= machine.keys()

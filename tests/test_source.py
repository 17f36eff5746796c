"""Static checks on the package's source."""

import ast
import pathlib

import pytest

import qbmlab

SOURCES = sorted(pathlib.Path(qbmlab.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unused_top_level_import(path):
    # no linter runs on the package; an import kept for other readers carries "# noqa: F401"
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

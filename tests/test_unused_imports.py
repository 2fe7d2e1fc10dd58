"""Every name a module imports is used in that module.

The scan covers the library modules and the test files.  A package's
`__init__.py` is exempt: its imports are the public API.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted(
    p for p in [*ROOT.glob("src/pqk/*.py"), *ROOT.glob("tests/*.py")] if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """The names that source's imports bind and its code never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_scan_sees_an_unused_import():
    src = "from a import b, c\nimport d.e\nimport f as g\nprint(c, d)\n"
    assert unused_imports(src) == ["b (line 1)", "g (line 3)"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []

"""Every name that a module of the package, a test module or a script
imports is used in that module."""

import ast
from pathlib import Path

import latspi

PACKAGE = Path(latspi.__file__).parent
ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports and never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    # the package's __init__ imports names only to re-export them
    paths = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    paths += sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("scripts/*.py"))
    found = {str(path): names for path in paths if (names := unused_imports(path.read_text()))}
    assert found == {}


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from .x import a, b as c\n"
        "print(sys, a)\n"
    )
    assert unused_imports(source) == ["os (line 2)", "c (line 3)"]

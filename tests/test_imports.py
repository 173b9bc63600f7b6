"""Every name that a module of the package, a test module or a script
imports is used in that module, every private function or class of the
package is referenced somewhere in it, and every function that the
benchmark's tracer wraps by name exists."""

import ast
import importlib
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


def unreferenced_private(sources: dict[str, str]) -> list[str]:
    """The module-level private functions and classes of ``sources`` (module
    name to source) that no code outside their own definition names."""
    defined: list[tuple[str, str, int]] = []
    named: set[str] = set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names.update(alias.name for alias in node.names)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name.startswith("_"):
                defined.append((module, stmt.name, stmt.lineno))
                names.discard(stmt.name)  # a recursive call is no reference
            named |= names
    return [f"{module}.{name} (line {line})" for module, name, line in defined if name not in named]


def test_no_unreferenced_private_definitions():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private(sources) == []


def test_unreferenced_private_definitions_are_found():
    sources = {
        "a": (
            "def _used(): return _Helper()\n"
            "class _Helper: pass\n"
            "def _dead(n): return _dead(n - 1)\n"
            "def _read(): pass\n"
            "def _imported(): pass\n"
            "def public(): return _used()\n"
        ),
        "b": "from . import a\nfrom .a import _imported\nprint(a._read, _imported)\n",
    }
    assert unreferenced_private(sources) == ["a._dead (line 3)"]


def traced_names() -> dict[str, tuple[str, ...]]:
    """``TRACED`` of ``perfbench/tracing.py``, read from its source: layer to
    the functions, and ``Class.method`` names, that the tracer wraps."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and [ast.unparse(t) for t in stmt.targets] == ["TRACED"]:
            return ast.literal_eval(stmt.value)
    raise AssertionError("perfbench/tracing.py has no TRACED table")


def test_every_traced_name_resolves():
    # a function no library path calls, such as ``alpha_canonical``, is
    # still wrapped by the traced benchmark, which fails once it is gone
    traced = traced_names()
    assert traced and all(traced.values())
    missing = []
    for layer, names in traced.items():
        module = importlib.import_module(f"latspi.{layer}")
        for qual in names:
            head, _, method = qual.partition(".")
            found = getattr(module, head, None)
            if method:
                # the tracer replaces a method in its class's own namespace
                found = vars(found).get(method) if isinstance(found, type) else None
            if not callable(found):
                missing.append(f"{layer}.{qual}")
    assert missing == []

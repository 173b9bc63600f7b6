"""Every name that a module of the package or a test module imports is
used in that module, every private function or class of the package is
referenced somewhere in it, and every function that the benchmark's tracer
wraps by name exists.  Tests import no private name of the package, and
the reference semantics in ``tests/reference`` imports only the parser,
the theory, the node classes and the static test's witness record."""

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
    paths += sorted(ROOT.glob("tests/**/*.py"))
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


# what ``tests/reference`` may import from the package: the parser, the
# theory (for ``normalize`` and ``equal``), the node classes of messages,
# frames, processes, states, labels, locations and events, and the static
# test's witness record
REFERENCE_MAY_IMPORT = {
    "latspi.syntax": set("parse_process ExtendedProcess Process Guard Nil New Par Bang In Out Match Mismatch Sum".split()),
    "latspi.terms": {"Theory", "Var", "Alias", "App", "Symbol", "Substitution"},
    "latspi.lts": {"Location", "PairLoc", "OutLabel", "InLabel", "TauLabel", "Event"},
    "latspi.knowledge": {"StaticWitness"},
}
# helpers of the named syntax that no test may pin
TEST_MAY_NOT_IMPORT = {"fresh_supply", "all_names"}


def forbidden_imports(source: str, allowed: dict | None = None) -> list[str]:
    """The names that ``source`` imports from the package and may not:
    ``TEST_MAY_NOT_IMPORT`` and private names, and, when ``allowed`` maps
    modules to the names that may be imported from them, every other name,
    a whole module included."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import) and allowed is not None:
            found += [f"{a.name} (line {node.lineno})" for a in node.names if a.name.split(".")[0] == "latspi"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "latspi":
            for a in node.names:
                private = a.name in TEST_MAY_NOT_IMPORT or a.name.startswith("_")
                if private or (allowed is not None and a.name not in allowed.get(node.module, ())):
                    found.append(f"{node.module}.{a.name} (line {node.lineno})")
    return found


def test_tests_import_only_what_they_may():
    found = {}
    for path in sorted(ROOT.glob("tests/**/*.py")):
        allowed = REFERENCE_MAY_IMPORT if path.parent.name == "reference" else None
        found[str(path)] = forbidden_imports(path.read_text(), allowed)
    assert not any(found.values()), found


def test_forbidden_imports_are_found():
    source = (
        "import latspi.lts\n"
        "from latspi.syntax import parse_process, all_names, _subst\n"
        "from latspi.lts import Event, enabled_transitions\n"
        "from latspi import games\n"
        "from .syntax import subst\n"
    )
    assert forbidden_imports(source) == ["latspi.syntax.all_names (line 2)", "latspi.syntax._subst (line 2)"]
    assert forbidden_imports(source, REFERENCE_MAY_IMPORT) == [
        "latspi.lts (line 1)",
        "latspi.syntax.all_names (line 2)",
        "latspi.syntax._subst (line 2)",
        "latspi.lts.enabled_transitions (line 3)",
        "latspi.games (line 4)",
    ]


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

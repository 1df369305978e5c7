"""Source hygiene, checked on the syntax trees.

No linter ships with the test environment, so this scans the trees
itself.

* No module imports a name it never uses.  A name counts as used when it
  appears as an identifier anywhere in the module.  Exempt are
  ``from __future__`` imports and the re-exports a package lists in
  ``__all__``.
* A package module reads a private (single leading underscore) attribute
  of anything but ``self`` or ``cls`` only when the same module defines
  that name, so private state, such as the simplex tableau, has one
  owning module.
* Every span the benchmark's tracer (``perfbench/tracing.py``) installs
  names a callable that its owner in the package defines, so a rename
  inside ``omtq`` cannot silently drop a layer from the traced split.
* Every function and method the package defines has a caller outside
  the tests: its name appears as an identifier or attribute somewhere in
  ``src/`` or ``perfbench/``, or as a string in ``perfbench/`` (the
  tracer names what it wraps by string).  Exempt are dunders and the
  names a module lists in ``__all__``.  Code that only tests call is
  moved into ``tests/`` or deleted.
"""

import ast
import importlib
from pathlib import Path

import pytest

import omtq

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "omtq").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def _imported(tree):
    """(bound name, line) for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used(tree) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _exported(tree) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree) | _exported(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _defined(tree) -> set[str]:
    """Every name the module binds: functions, classes, assigned names
    and assigned attributes."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            out.add(node.attr)
    return out


def _foreign_private_reads(tree) -> list[str]:
    """'name (line n)' for each private attribute read off an object
    other than self or cls whose name the module does not define."""
    defined = _defined(tree)
    return [
        f"{node.attr} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and _private(node.attr)
        and node.attr not in defined
        and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
    ]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_private_reads_across_modules(path):
    found = _foreign_private_reads(ast.parse(path.read_text(encoding="utf-8")))
    assert not found, f"{path.name} reads private names of another module: {', '.join(found)}"


def test_perfbench_spans_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    missing = []
    for layer, path, attr in tracing.SPANS:
        owner = omtq
        for part in filter(None, path.split(".")):
            owner = getattr(owner, part, None)
        # the owner's own attribute: a name only inherited from a base
        # class would wrap the base's version instead
        if not callable(getattr(owner, "__dict__", {}).get(attr)):
            missing.append(f"{layer}: " + ".".join(filter(None, ("omtq", path, attr))))
    assert not missing, f"tracer spans that omtq does not define: {', '.join(missing)}"


def _referenced(path) -> set[str]:
    """Identifiers and attribute names read or written in the module."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _strings(path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def test_every_package_function_has_a_caller_outside_the_tests():
    known = set()
    for path in sorted((ROOT / "src").rglob("*.py")) + BENCH:
        known |= _referenced(path)
    for path in BENCH:
        known |= _strings(path)
    for path in PACKAGE:
        known |= _exported(ast.parse(path.read_text(encoding="utf-8")))
    uncalled = [
        f"{path.name}: {node.name} (line {node.lineno})"
        for path in PACKAGE
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in known
    ]
    assert not uncalled, f"package functions nothing in src/ or perfbench/ calls: {', '.join(uncalled)}"

"""Layout checks over the source tree.

Code that only the tests use lives in the tests, so every module-level
function and class of ``src/guardedsat`` has a reader in the package
itself, in ``scripts/`` or in ``perfbench/``.  And the benchmark's tracer
rebinds package names by attribute path, so each of those names must
exist: deleting one fails here, not only in the benchmark's smoke test.
Each must also have a reader in ``src/``: a traced name that the package
no longer calls leaves its per-layer metric reading 0.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "guardedsat"


MODULES = frozenset(path.stem for path in PACKAGE.glob("*.py"))


def _base(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _package_reads(tree: ast.Module) -> dict[str, set[int]]:
    """The lines on which ``tree`` reads each package name: a name the
    file defines at module level or imports from the package, read bare,
    or any name read off a package module (``terms.subsumes``,
    ``gs.terms.subsumes``)."""
    local = {node.name: node.name for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("guardedsat")):
            local.update((a.asname or a.name, a.name) for a in node.names)
    out: dict[str, set[int]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in local:
            name = local[node.id]
        elif isinstance(node, ast.Attribute) and \
                _base(node.value) in MODULES:
            name = node.attr
        else:
            continue
        out.setdefault(name, set()).add(node.lineno)
    return out


def test_every_module_level_definition_has_a_reader():
    """Each module-level function and class of the package is read in
    ``src/`` outside its own definition, or in ``scripts/`` or
    ``perfbench/``."""
    trees = {path: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    reads = {path: _package_reads(tree) for path, tree in trees.items()}
    outside: set[str] = set()
    for path in sorted((ROOT / "scripts").glob("*.py")) + \
            sorted((ROOT / "perfbench").glob("*.py")):
        outside.update(_package_reads(ast.parse(path.read_text())))
    unread = []
    for path, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            own = range(node.lineno, (node.end_lineno or node.lineno) + 1)
            lines = {line for p, r in reads.items()
                     for line in r.get(node.name, ())
                     if p != path or line not in own}
            if not lines and node.name not in outside:
                unread.append(f"{path.stem}.{node.name}")
    assert not unread, unread


def _gs_path(node: ast.AST) -> tuple[str, str] | None:
    """``(module, name)`` for an expression ``gs.<module>.<name>``."""
    if isinstance(node, ast.Attribute) and \
            isinstance(node.value, ast.Attribute) and \
            isinstance(node.value.value, ast.Name) and \
            node.value.value.id == "gs":
        return node.value.attr, node.attr
    return None


def _traced() -> tuple[set[tuple[str, str]], set[tuple[str, str, str]]]:
    """The ``(module, name)`` of each ``gs.<module>.<name>`` that
    ``perfbench/tracer.py`` reads, and the ``(module, class, method)`` of
    each ``_method(gs.<module>.<class>, "<method>", ...)``."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    paths = {p for node in ast.walk(tree) if (p := _gs_path(node))}
    methods = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "_method" and len(node.args) >= 2:
            owner, attr = _gs_path(node.args[0]), node.args[1]
            assert owner is not None and isinstance(attr, ast.Constant)
            methods.add((*owner, attr.value))
    return paths, methods


def test_every_name_the_tracer_rebinds_exists():
    """Each ``gs.<module>.<name>`` that ``perfbench/tracer.py`` reads
    names a package attribute, and each ``_method(gs.<module>.<Class>,
    "<attr>", ...)`` a method defined on that class itself."""
    paths, methods = _traced()
    assert len(paths) >= 15 and len(methods) >= 4, (paths, methods)
    missing = [f"{m}.{n}" for m, n in sorted(paths) if not hasattr(
        importlib.import_module(f"guardedsat.{m}"), n)]
    missing += [f"{m}.{c}.{a}" for m, c, a in sorted(methods)
                if a not in vars(getattr(
                    importlib.import_module(f"guardedsat.{m}"), c))]
    assert not missing, missing


# traced names that the solve path does not call yet: the tracer counts
# ``rename_apart`` for a metric that reads 0 until the engine's own
# counters replace the rebinding (ROADMAP item 6)
UNCALLED_TRACED = frozenset({"terms.rename_apart"})


def test_every_name_the_tracer_rebinds_has_a_reader():
    """Each function that ``perfbench/tracer.py`` rebinds is read in
    ``src/`` outside its own definition, and each method it wraps is
    called there, so no per-layer metric reads 0 because the package
    stopped calling a traced name.  :data:`UNCALLED_TRACED` lists the
    known exceptions, and only names that really are unread."""
    traced, methods = _traced()
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    reads = {stem: _package_reads(t) for stem, t in trees.items()}
    unread = []
    for module, name in sorted(traced):
        definition = next(node for node in trees[module].body
                          if getattr(node, "name", None) == name)
        own = range(definition.lineno, definition.end_lineno + 1)
        if not any(line not in own or stem != module
                   for stem, r in reads.items()
                   for line in r.get(name, ())):
            unread.append(f"{module}.{name}")
    called = {node.func.attr for t in trees.values() for node in ast.walk(t)
              if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)}
    unread += sorted(f"{m}.{c}.{a}" for m, c, a in methods
                     if a not in called)
    assert sorted(UNCALLED_TRACED) == unread, unread

"""Every module-level function and class in the package is read by the package.

A definition that only the tests reach belongs in `tests/` (an oracle) or
nowhere. A read counts when it resolves to the definition: a bare name in
its own module or in a module that imports it with `from .mod import name`,
or `alias.name` where `alias` is the module (`from . import mod [as alias]`).
A definition's reads of itself (recursion) do not count.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "titshom"

# Kept although nothing in the package reads them, each for a stated reason.
ALLOWED = {
    # H_*(G; M), the paper's object; the Smith-form oracle checks it
    ("actions", "group_homology"),
    # named by perfbench/layers.py, which must keep resolving
    ("actions", "tensor_matrix"),
    ("complexes", "exactness_report"),
    ("partsix", "w_poset_complex"),
}


def _is_click_command(node: ast.AST) -> bool:
    """Decorated with `@<group>.command(...)` or `@click.group(...)`."""
    for deco in getattr(node, "decorator_list", ()):
        func = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(func, ast.Attribute) and func.attr in ("command", "group"):
            return True
    return False


def unreached_definitions(sources: dict[str, ast.Module]) -> list[tuple[str, str]]:
    """(module, name) of each top-level def or class no other code reads."""
    defined: dict[tuple[str, str], ast.AST] = {}
    for mod, tree in sources.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[(mod, stmt.name)] = stmt
    read: set[tuple[str, str]] = set()
    for mod, tree in sources.items():
        names: dict[str, tuple[str, str]] = {}  # bare name -> definition
        modules: dict[str, str] = {}  # local alias -> module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        modules[alias.asname or alias.name] = alias.name
                    else:
                        names[alias.asname or alias.name] = (node.module, alias.name)
        for stmt in tree.body:
            owner = (mod, getattr(stmt, "name", None))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    target = names.get(node.id, (mod, node.id))
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    if node.value.id not in modules:
                        continue
                    target = (modules[node.value.id], node.attr)
                else:
                    continue
                if target != owner:
                    read.add(target)
    return sorted(
        key for key, node in defined.items() if key not in read and not _is_click_command(node)
    )


def _package_sources() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))}


def test_every_definition_is_reached_by_the_package():
    # an allowed name that gains a caller, or is deleted, leaves the list too
    assert unreached_definitions(_package_sources()) == sorted(ALLOWED)


def test_scan_flags_test_only_helpers():
    sources = {
        "a": ast.parse(
            "def used(): pass\n"
            "def self_only(n): return self_only(n - 1)\n"
            "def unused(): pass\n"
            "class Read: pass\n"
        ),
        "b": ast.parse(
            "from .a import used\n"
            "from . import a as amod\n"
            "def caller(): return used(), amod.Read\n"
            "@main.command()\n"
            "def cmd(): pass\n"
        ),
    }
    assert unreached_definitions(sources) == [("a", "self_only"), ("a", "unused"), ("b", "caller")]

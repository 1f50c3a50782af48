"""Every definition in the package is read by the package.

A definition that only the tests reach belongs in `tests/` (an oracle) or
nowhere. Module-level functions, classes and names count as read when a
read resolves to them: a bare name in their own module or in a module that
imports it with `from .mod import name`, or `alias.name` where `alias` is
the module (`from . import mod [as alias]`). A definition's reads of itself
(recursion) do not count. The methods, properties and annotated fields of
a top-level class count as read when the package loads an attribute of
that name anywhere. Dunder members and click commands are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "titshom"

# Kept although nothing in the package reads them, each for a stated reason.
ALLOWED = {
    # the package version, read by packaging tools and users
    ("__init__", "__version__"),
    # report fields that the rank-2 tests read
    ("barres", "Rank2Report.st_rank"),
    ("barres", "Rank2Report.standard_coeff"),
    # the signs that the tests rebuild the augmented lines from
    ("zsymbols", "AugItem.signs"),
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


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _class_members(cls: ast.ClassDef) -> list[str]:
    """Names of the methods, properties and annotated fields of a class."""
    out = []
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append(node.name)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            out.append(node.target.id)
    return [name for name in out if not _is_dunder(name)]


def unreached_definitions(sources: dict[str, ast.Module]) -> list[tuple[str, str]]:
    """(module, name) of each top-level def, class or name, and
    (module, "Class.member") of each member, that no other code reads."""
    defined: dict[tuple[str, str], ast.AST] = {}
    members: dict[tuple[str, str], str] = {}
    for mod, tree in sources.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[(mod, stmt.name)] = stmt
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                defined.update({(mod, t.id): stmt for t in targets if isinstance(t, ast.Name)})
            if isinstance(stmt, ast.ClassDef):
                members.update({(mod, f"{stmt.name}.{name}"): name for name in _class_members(stmt)})
    loaded = {
        node.attr
        for tree in sources.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
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
    unread = [key for key, node in defined.items() if key not in read and not _is_click_command(node)]
    return sorted(unread + [key for key, name in members.items() if name not in loaded])


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
            "LIMIT = 3\n"
            "SPARE: int = 4\n"
            "class Read:\n"
            "    size: int\n"
            "    spare: int\n"
            "    def __repr__(self): return ''\n"
            "    def go(self):\n"
            "        self.spare = LIMIT\n"  # a store is no read
            "        return self.size\n"
            "    @property\n"
            "    def idle(self): return 0\n"
        ),
        "b": ast.parse(
            "from .a import used\n"
            "from . import a as amod\n"
            "def caller(): return used(), amod.Read().go()\n"
            "@main.command()\n"
            "def cmd(): pass\n"
        ),
    }
    assert unreached_definitions(sources) == [
        ("a", "Read.idle"),
        ("a", "Read.spare"),
        ("a", "SPARE"),
        ("a", "self_only"),
        ("a", "unused"),
        ("b", "caller"),
    ]

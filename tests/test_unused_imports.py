"""Every imported name in the package and its tests is used, and is
imported from the module that defines it."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "titshom"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import and never read anywhere in the module."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(a.asname or a.name, node.lineno) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(), str(path))) == []


def top_level_definitions(tree: ast.Module) -> set[str]:
    """Names a module binds at top level by def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def package_imports(tree: ast.Module):
    """(module, name, line) for `from .mod import name` and
    `from titshom.mod import name`."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or not node.module:
            continue
        if node.level == 1:
            module = node.module
        elif node.level == 0 and node.module.startswith("titshom."):
            module = node.module.removeprefix("titshom.")
        else:
            continue
        for alias in node.names:
            yield module, alias.name, node.lineno


def test_every_import_names_a_definition_of_its_module():
    """A re-export would pass `test_no_unused_imports` whenever the
    re-exporting module also uses the name itself."""
    defined = {
        path.stem: top_level_definitions(ast.parse(path.read_text(), str(path)))
        for path in PACKAGE.glob("*.py")
    }
    strays = [
        f"{path.parent.name}/{path.name}:{line} imports {name} from {module}"
        for path in SOURCES
        for module, name, line in package_imports(ast.parse(path.read_text(), str(path)))
        if name not in defined[module]
    ]
    assert strays == []

"""Every cache that outlives the call that made it is pinned here.

A module-level `lru_cache` (or `functools.cache`) keeps its entries for the
life of the interpreter, so two runs in one process share them. The package
keeps a few on purpose; a cache that serves one computation lives inside the
function that needs it (`reports._suite_barset`, `reports._x1_images`,
`partsix.verify_double_identities`) and dies with the call. A new
module-level cache fails this test until it is listed with its reason.

A mutable default argument, such as `spans: dict = {}`, is a cache of the
same lifetime that the scan above cannot see, so no function in the package
may have one.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "titshom"

CACHE_NAMES = {"lru_cache", "cache"}

# (module, name) -> why the cache may outlive its call
PINNED = {
    ("building", "steinberg"): "the model of GL_n(F_q) with its certified basis, shared by every suite over (n, q)",
    ("building", "_orderings"): "the n! signed orderings, the same for every symbol of rank n",
    ("fqfield", "field"): "the tables of F_q, which depend on q only",
    ("zsymbols", "_laplace_plan"): "the Laplace plan of the k x k minors in Z^n, which depends on (n, k) only",
    ("zsymbols", "recognize_apf"): "the frame search, pure in its lines and repeated on the same blocks across claims",
}


def _names_a_cache(node: ast.AST) -> bool:
    """`lru_cache`, `cache`, `functools.lru_cache`, or a call of one of them."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr in CACHE_NAMES
    return isinstance(node, ast.Name) and node.id in CACHE_NAMES


def module_caches(sources: dict[str, ast.Module]) -> list[tuple[str, str]]:
    """(module, name) of each cache made when its module is imported.

    A decorated top-level def counts, and so does a top-level assignment
    whose value wraps a function in a cache, such as
    `name = lru_cache(maxsize=None)(f)`. Caches made inside a function body
    do not count: they live as long as that call.
    """
    found = []
    for mod, tree in sources.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(_names_a_cache(d) for d in stmt.decorator_list):
                    found.append((mod, stmt.name))
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                value = stmt.value
                if isinstance(value, ast.Call) and _names_a_cache(value.func):
                    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                    found += [(mod, t.id) for t in targets if isinstance(t, ast.Name)]
    return sorted(found)


def _package_sources() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))}


def test_module_level_caches_are_the_pinned_ones():
    # a pinned cache that is removed or scoped to a call leaves the list too
    assert module_caches(_package_sources()) == sorted(PINNED)


def test_scan_finds_module_caches_only():
    sources = {
        "a": ast.parse(
            "from functools import lru_cache, cache\n"
            "import functools\n"
            "@lru_cache(maxsize=None)\n"
            "def plan(n): pass\n"
            "@functools.cache\n"
            "def table(q): pass\n"
            "wrapped = lru_cache(maxsize=8)(plan)\n"
            "def scoped(xs):\n"
            "    memo = lru_cache(maxsize=None)(plan)\n"
            "    return [memo(x) for x in xs]\n"
            "class Model:\n"
            "    @functools.cached_property\n"
            "    def basis(self): pass\n"
        ),
    }
    assert module_caches(sources) == [("a", "plan"), ("a", "table"), ("a", "wrapped")]


MUTABLE_DISPLAYS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
MUTABLE_CALLS = {"dict", "list", "set"}


def _is_mutable_default(node: ast.AST | None) -> bool:
    """`{}`, `[]`, a comprehension, or a call of `dict`, `list` or `set`."""
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id in MUTABLE_CALLS
    return isinstance(node, MUTABLE_DISPLAYS)


def mutable_defaults(sources: dict[str, ast.Module]) -> list[tuple[str, str]]:
    """(module, function) for each default argument, positional or
    keyword-only, of a def or lambda at any depth that is a mutable literal."""
    found = []
    for mod, tree in sources.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                defaults = node.args.defaults + node.args.kw_defaults
                if any(_is_mutable_default(d) for d in defaults):
                    found.append((mod, getattr(node, "name", "<lambda>")))
    return sorted(found)


def test_no_function_has_a_mutable_default():
    assert mutable_defaults(_package_sources()) == []


def test_scan_finds_mutable_defaults():
    sources = {
        "a": ast.parse(
            "def memo(x, spans={}): pass\n"
            "def rows(x, out=[]): pass\n"
            "def seen(x, *, done=set()): pass\n"
            "class Model:\n"
            "    def table(self, cache=dict()): pass\n"
            "def outer():\n"
            "    return lambda x, acc={k: 0 for k in 'ab'}: acc\n"
            "def fine(x, spans=None, *, rows=(), name='', k=frozenset()): pass\n"
        ),
    }
    assert mutable_defaults(sources) == [
        ("a", "<lambda>"), ("a", "memo"), ("a", "rows"), ("a", "seen"), ("a", "table")
    ]

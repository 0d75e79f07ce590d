"""Every ``functools`` cache in the package has a finite bound.

An ``lru_cache(maxsize=None)`` or a ``functools.cache`` keeps every argument
it has seen alive for the life of the process.  This parses each module of
``src/nlhb`` with ``ast`` and requires each use of ``lru_cache`` to be a call
that names a finite integer ``maxsize``, and ``cache`` never to be used.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "nlhb"
MODULES = sorted(PACKAGE.glob("*.py"))
CACHES = {"lru_cache", "cache"}


def _cache_refs(tree: ast.Module):
    """Each expression that names ``functools.lru_cache`` or
    ``functools.cache``, as (function name, node)."""
    modules, names = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names if a.name == "functools")
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            names.update((a.asname or a.name, a.name) for a in node.names if a.name in CACHES)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in names:
            yield names[node.id], node
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in CACHES
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            yield node.attr, node


def _finite_maxsize(call: ast.Call) -> bool:
    sizes = call.args[:1] + [kw.value for kw in call.keywords if kw.arg == "maxsize"]
    return len(sizes) == 1 and isinstance(sizes[0], ast.Constant) and type(sizes[0].value) is int


def _unbounded(source: str) -> list[int]:
    """Lines of the caches in ``source`` that name no finite integer maxsize."""
    tree = ast.parse(source)
    bounded = {
        id(node.func)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _finite_maxsize(node)
    }
    return sorted(
        node.lineno
        for name, node in _cache_refs(tree)
        if name != "lru_cache" or id(node) not in bounded
    )


@pytest.mark.parametrize("source, lines", [
    ("from functools import lru_cache\n@lru_cache(maxsize=64)\ndef f(x): pass\n", []),
    ("from functools import lru_cache\n@lru_cache(8)\ndef f(x): pass\n", []),
    ("from functools import lru_cache\n@lru_cache(maxsize=None)\ndef f(x): pass\n", [2]),
    ("from functools import lru_cache\n@lru_cache\ndef f(x): pass\n", [2]),
    ("from functools import lru_cache as memo\n@memo()\ndef f(x): pass\n", [2]),
    ("import functools\n@functools.cache\ndef f(x): pass\n", [2]),
    ("import functools as ft\ng = ft.lru_cache(maxsize=None)(len)\n", [2]),
    ("from functools import cache\n@cache\ndef f(x): pass\n", [2]),
    ("from functools import cached_property\n", []),
])
def test_the_check_reads_each_form(source, lines):
    assert _unbounded(source) == lines


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_cache_has_a_finite_maxsize(path):
    lines = _unbounded(path.read_text(encoding="utf-8"))
    assert not lines, "%s has a cache with no finite maxsize at line(s) %s" % (
        path.name, ", ".join(map(str, lines))
    )

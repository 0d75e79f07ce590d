"""Every package name that the traced benchmark wraps or reads must exist.

``perfbench/layers.py`` wraps package functions by dotted name, the
benchmark stamps its records with ``_kernels.BACKEND``, and every
``perfbench/*.py`` reads package names as ``<module>.<name>`` or imports them
with ``from nlhb.<module> import <name>``.  A rename or deletion in ``src/``
would otherwise surface only in the benchmark itself; this resolves each name
against the package without installing or running anything.
"""

import ast
import sys
from pathlib import Path

import pytest

from nlhb import _kernels, attacks, authsvc, gf2core, nlfunc, params, protocols, reductions

BENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
sys.path.insert(0, BENCH)
try:
    import layers  # read only: the module only defines names until install() is called
finally:
    sys.path.remove(BENCH)

PACKAGE = (_kernels, attacks, authsvc, gf2core, nlfunc, params, protocols, reductions)
MODULES = layers._by_name(PACKAGE)
BY_MODULE_NAME = {m.__name__.split(".")[-1]: m for m in PACKAGE}

# install() wraps honest_transcript_source, and through it each draw it returns
_WRAPPED_AS = {"reductions.honest_transcript_source.draw": "reductions.honest_transcript_source"}

SPANS = sorted(
    {_WRAPPED_AS.get(span, span) for span, _ in layers.L0 + layers.L1 + layers.L2 + layers.L3}
    | set(layers.SERVER_CODEC)
    | {span for _, spans in layers.SERVER_FUNCTIONS for span in spans}
    | {layers.AUTHENTICATE, "authsvc._expect"}
)


@pytest.mark.parametrize("span", SPANS)
def test_wrapped_name_resolves(span):
    first, *rest = span.split(".")
    owner = MODULES[first]
    for part in rest:
        owner = getattr(owner, part)
    assert callable(owner)


def test_read_names_exist():
    assert _kernels.BACKEND == "numpy"
    assert isinstance(authsvc.CHALLENGE, int)


def _read_names():
    """Dotted package names in the source of each ``perfbench/*.py``: the
    longest ``<module>.<attr>...`` chain on a bare package module name, and
    each ``from nlhb[.<module>] import <name>``."""
    names = set()
    for path in sorted(Path(BENCH).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("nlhb"):
                prefix = node.module.split(".")[1:]
                names.update(".".join(prefix + [alias.name]) for alias in node.names)
            elif isinstance(node, ast.Attribute):
                chain = [node.attr]
                value = node.value
                while isinstance(value, ast.Attribute):
                    chain.insert(0, value.attr)
                    value = value.value
                if isinstance(value, ast.Name) and value.id in BY_MODULE_NAME:
                    names.add(".".join([value.id] + chain))
    # an inner link of a chain is read too, so keep only the longest chains
    return sorted(n for n in names if not any(m.startswith(n + ".") for m in names))


READ = _read_names()


def test_read_names_found():
    assert "authsvc.serve" in READ
    assert "gf2core.derive_seed" in READ


@pytest.mark.parametrize("name", READ)
def test_read_name_resolves(name):
    first, *rest = name.split(".")
    owner = BY_MODULE_NAME[first]
    for part in rest:
        owner = getattr(owner, part)

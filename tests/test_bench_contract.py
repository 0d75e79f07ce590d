"""Every package name that the traced benchmark wraps or reads must exist.

``perfbench/layers.py`` wraps package functions by dotted name, and the
benchmark stamps its records with ``_kernels.BACKEND``.  A rename or deletion
in ``src/`` would otherwise surface only in the benchmark's own tests; this
resolves each name against the package without installing or running
anything.
"""

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

MODULES = layers._by_name((_kernels, attacks, authsvc, gf2core, nlfunc, params, protocols, reductions))

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

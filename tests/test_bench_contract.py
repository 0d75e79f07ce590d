"""Every package name that the traced benchmark wraps or reads must exist,
and the benchmark's correctness gates pass on the package at smoke size.

``perfbench/layers.py`` wraps package functions by dotted name, the
benchmark stamps its records with ``_kernels.BACKEND``, and every
``perfbench/*.py`` reads package names as ``<module>.<name>`` or imports them
with ``from nlhb.<module> import <name>``.  A rename or deletion in ``src/``
would otherwise surface only in the benchmark itself; this resolves each name
against the package without installing or running anything, and binds each
call that ``perfbench/*.py`` makes to a package name against its signature.
"""

import ast
import inspect
import json
import sys
from pathlib import Path

import pytest

from nlhb import _kernels, attacks, authsvc, gf2core, nlfunc, params, protocols, reductions
from nlhb.gf2core import RandomSource

BENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
_PATH = list(sys.path)
sys.path.insert(0, BENCH)
try:
    import harness
    import layers  # read only: the module only defines names until install() is called
    import workloads  # read only: the module only defines the phases and their inputs
finally:
    sys.path[:] = _PATH

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


def _dotted(node):
    """``a.b.c`` for an attribute chain on a bare name, else None."""
    chain = []
    while isinstance(node, ast.Attribute):
        chain.insert(0, node.attr)
        node = node.value
    return ".".join([node.id] + chain) if isinstance(node, ast.Name) else None


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
                name = _dotted(node)
                if name and name.split(".")[0] in BY_MODULE_NAME:
                    names.add(name)
    # an inner link of a chain is read too, so keep only the longest chains
    return sorted(n for n in names if not any(m.startswith(n + ".") for m in names))


READ = _read_names()


def test_read_names_found():
    assert "authsvc.serve" in READ
    assert "gf2core.derive_seed" in READ


def _resolve(name):
    first, *rest = name.split(".")
    owner = BY_MODULE_NAME[first]
    for part in rest:
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize("name", READ)
def test_read_name_resolves(name):
    _resolve(name)


def _read_calls():
    """(package name, positional count, keyword names) of each call in
    ``perfbench/*.py`` whose callee is a package name, read as
    ``<module>.<name>`` or through ``from nlhb[.<module>] import <name>``.
    Calls that unpack ``*args`` or ``**kwargs`` cannot be bound statically and
    are left out."""
    calls = set()
    for path in sorted(Path(BENCH).glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            alias.asname or alias.name: ".".join(node.module.split(".")[1:] + [alias.name])
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("nlhb")
            for alias in node.names
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if any(isinstance(a, ast.Starred) for a in node.args):
                continue
            if any(kw.arg is None for kw in node.keywords):
                continue
            name = _dotted(node.func)
            if name is None:
                continue
            first, _, rest = name.partition(".")
            if first not in BY_MODULE_NAME:
                if first not in imported:
                    continue
                name = ".".join(filter(None, [imported[first], rest]))
            calls.add((name, len(node.args), tuple(sorted(kw.arg for kw in node.keywords))))
    return sorted(calls)


CALLS = _read_calls()


def test_read_calls_found():
    assert ("reductions.PerfectPassiveForger", 2, ("q",)) in CALLS
    assert ("protocols.generate_key", 2, ()) in CALLS


@pytest.mark.parametrize(
    "name, positional, keywords", CALLS,
    ids=["%s(%d%s)" % (n, p, "".join("," + k for k in kws)) for n, p, kws in CALLS],
)
def test_read_call_binds(name, positional, keywords):
    inspect.signature(_resolve(name)).bind(*range(positional), **dict.fromkeys(keywords))


# ---------------------------------------------------------------------------
# the benchmark's correctness gates, in-process at smoke size
# ---------------------------------------------------------------------------

def test_sessions_batch_passes_its_gates_and_pinned_digest():
    tally = harness.Tally()
    phase = workloads.SessionsPhase(workloads.sessions_inputs(1, workloads.SMOKE), tally)
    phase.batch()
    assert tally.correct and tally.failed == 0, tally.errors
    assert tally.attempted == workloads.SMOKE.batch
    pinned = json.loads((Path(BENCH) / "pinned.json").read_text())
    assert phase.digest == pinned["sessions/smoke"]["1"]


def test_check_log_counts_and_re_verifies_every_record(tmp_path):
    inp = workloads.handshake_inputs(1, workloads.SMOKE)
    rng = RandomSource(5)
    sessions = [
        protocols.run_session(e.params, e.key, rng, rng) for _ in range(3) for e in inp.entries
    ]
    log = tmp_path / "sessions.log"
    protocols.write_transcripts(str(log), sessions)
    tally = harness.Tally()
    outcomes = [(t.proto, t.accepted, t.distance) for t in sessions]
    assert workloads.check_log(inp, log, outcomes, tally) == len(sessions)
    assert tally.correct, tally.errors

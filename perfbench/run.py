"""The nlhb benchmark: one seeded workload, timed end to end and checked.

    python3 perfbench/run.py --workload sessions --seed 1 --seconds 10 --trace 0

Workloads (see workloads.py): ``sessions`` and ``drivers``.  Every run
executes all three phases (sessions, handshake, drivers) so that it reports
every end-to-end metric; the named workload's own phase runs for
``--seconds`` (drivers: at least four passes of its suite), the other
phase at a fixed reference size, and the handshake phase at fixed counts.

``--trace 0`` prints the end-to-end metrics, measured untraced.  ``--trace 1``
first repeats the workload's own phase untraced, then runs the whole
workload with spans around the package's layer functions and prints the
per-layer metrics, including the tracing overhead on the workload's own
primary metric.  The last stdout line is the JSON result; the full record,
stamped with backend, numpy and Python versions, nproc, commit and seed, is
written under ``.bench_out/`` with the spans of a traced run.

``--sizes smoke`` shrinks every problem for the harness's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import subprocess
import sys
import time

import harness
import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("sessions", "drivers")
PHASES = ("sessions", "handshake", "drivers")
DEFAULT_SEED = 1
SETUP_PER_ROUND = 4
ROUNDS = 4
DRIVERS_PASS_S = 2.5
PROBE_TIMEOUT_S = 120

E2E = [
    ("setup_s", "s"),
    ("sessions_per_s", "1/s"),
    ("replay_sessions_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("server_rss_mb", "MB"),
]


def measure_setup(seed: int, sizes) -> float:
    """Seconds from starting a fresh interpreter to its set-up being done."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), str(seed), sizes.name],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)
        line = proc.stdout.readline() if ready else ""
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError("set-up probe failed (exit %s, said %r)" % (proc.returncode, line))
    return elapsed


def primary_time(focus: str, phase: dict) -> float:
    """The focus phase's time per unit of work, for the tracing overhead."""
    if focus == "sessions":
        return 1.0 / phase["sessions_per_s"]
    return phase["keysearch_s"] + phase["reduction_s"] + phase["analysis_s"]


def share(total: int, index: int) -> int:
    """Round ``index``'s part of ``total`` items split over ROUNDS rounds."""
    return total * (index + 1) // ROUNDS - total * index // ROUNDS


def run_rounds(W, focus, phases, inputs, seconds, sizes, tally, tracer=None, tag="run",
               before_round=None):
    """Run ``phases`` interleaved over ROUNDS rounds, the focus phase first
    in each, so every phase's samples span the whole run rather than one
    stretch of it.  ``before_round(r)``, if given, runs ahead of round r.
    The focus phase gets the run's time: ``seconds`` of sessions, or
    max(4, seconds // DRIVERS_PASS_S) passes of the drivers suite (three
    otherwise).  The handshake phase runs the same fixed counts in every
    workload."""
    sessions = W.SessionsPhase(inputs.sessions, tally)
    drivers = W.DriversPhase(inputs.drivers, tally)
    handshake = W.HandshakePhase(inputs.handshake, tally, tracer, tag) if "handshake" in phases else None
    sessions_s = seconds if focus == "sessions" else sizes.sessions_probe_s
    jobs = (max(4, int(seconds // DRIVERS_PASS_S)) if focus == "drivers" else 3) * len(inputs.drivers)
    steps = {
        "sessions": lambda r: sessions.run_for(sessions_s / ROUNDS),
        "handshake": lambda r: handshake.run(share(sizes.closed, r), share(sizes.open_count, r)),
        "drivers": lambda r: drivers.run(share(jobs, r)),
    }
    results = {
        "sessions": lambda: sessions.result(),
        "handshake": lambda: handshake.finish(),
        "drivers": lambda: drivers.result(),
    }
    try:
        for r in range(ROUNDS):
            if before_round is not None:
                before_round(r)
            for phase in phases:
                steps[phase](r)
        return {phase: results[phase]() for phase in phases}
    finally:
        if handshake is not None:
            handshake.kill()


def e2e_values(out: dict, setup: list) -> dict:
    s, h, d = out["sessions"], out["handshake"], out["drivers"]
    return {
        "setup_s": harness.median(setup),
        "sessions_per_s": s["sessions_per_s"],
        "replay_sessions_per_s": s["replay_sessions_per_s"],
        "peak_rss_mb": out["peak_rss_mb"],
        "handshakes_per_s": h["handshakes_per_s"],
        "handshake_p50_ms": h["handshake_p50_ms"],
        "open_p50_ms": h["open_p50_ms"],
        "server_rss_mb": h["server_rss_mb"],
        "keysearch_s": d["keysearch_s"],
        "reduction_s": d["reduction_s"],
        "analysis_s": d["analysis_s"],
    }


def run(workload: str, seed: int, seconds: float, trace: bool, size_name: str = "full") -> dict:
    """One benchmark run; returns the full result record."""
    import workloads as W

    sizes = W.SIZES[size_name]
    order = [workload] + [p for p in PHASES if p != workload]
    # Set-up is probed in fresh interpreters ahead of every round, so its
    # median, like the phases' samples, spans the whole run.
    setup: list[float] = []

    def probe_setup(r: int) -> None:
        setup.extend(measure_setup(seed, sizes) for _ in range(SETUP_PER_ROUND))

    inputs = W.build_inputs(seed, sizes)
    tally = harness.Tally()
    record = {
        "workload": workload,
        "sizes": sizes.name,
        "seconds": seconds,
        "trace": int(trace),
        "stamp": harness.stamp(ROOT, W._kernels.BACKEND, W.np.__version__, seed),
        "setup_samples_s": setup,
    }

    tracer = reference = None
    if trace:
        reference = run_rounds(W, workload, [workload], inputs, seconds, sizes, tally, tag="reference")
        tracer = harness.Tracer()
        layers.install(tracer, W.PACKAGE_MODULES)
    try:
        out = run_rounds(W, workload, order, inputs, seconds, sizes, tally, tracer,
                         before_round=probe_setup)
    finally:
        if tracer is not None:
            tracer.restore()
    out["peak_rss_mb"] = harness.peak_rss_mb()
    record["phases"] = out
    record["e2e"] = e2e_values(out, setup)

    with open(os.path.join(HERE, "pinned.json")) as fp:
        pinned = json.load(fp)
    for phase in ("sessions", "drivers"):
        message = harness.check_digest(pinned, "%s/%s" % (phase, sizes.name), seed, out[phase]["digest"])
        tally.check(message is None, message)

    if trace:
        untraced = primary_time(workload, reference[workload])
        h, d = out["handshake"], out["drivers"]
        extras = {
            "frame_bytes": h["frame_bytes"],
            "drivers.keys_recovered": d["keys_recovered"],
            "drivers.key_attempts": d["key_attempts"],
            "loadgen.cpu_share": h["loadgen_cpu_share"],
            "loadgen.open_lateness_p50_ms": h["open_lateness"]["p50_ms"],
            "loadgen.open_lateness_p99_ms": h["open_lateness"]["p99_ms"],
            "handshakes_per_s": h["handshakes_per_s"],
            "handshake_p50_ms": h["handshake_p50_ms"],
            "open_p50_ms": h["open_p50_ms"],
            "handshake_p99_ms": h["closed"]["p99_ms"],
            "open_p99_ms": h["open"]["p99_ms"],
            "keysearch_s": d["keysearch_s"],
            "reduction_s": d["reduction_s"],
            "analysis_s": d["analysis_s"],
            "trace.overhead_pct": 100.0 * (primary_time(workload, out[workload]) - untraced) / untraced,
        }
        record["reference"] = reference
        metrics = layers.layer_metrics(tracer.spans(), json.loads(h["server_summary"]), extras)
        os.makedirs(W.OUT, exist_ok=True)
        tracer.write(os.path.join(W.OUT, "spans-%s-seed%d.tsv" % (workload, seed)))
    else:
        metrics = {name: {"value": record["e2e"][name], "unit": unit} for name, unit in E2E}

    record.update(correct=tally.correct, attempted=tally.attempted, failed=tally.failed,
                  errors=tally.errors, misses=tally.misses, metrics=metrics)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sizes", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "nlhb", "__init__.py")):
        print("perfbench: no nlhb package under %s; run from a full source tree"
              % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2

    record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.sizes)

    import workloads as W

    os.makedirs(W.OUT, exist_ok=True)
    harness.dump_json(os.path.join(W.OUT, "result-%s-seed%d-trace%d.json"
                                   % (args.workload, args.seed, args.trace)), record)
    for line in record["errors"]:
        harness.log("ERROR: " + line)
    for line in record["misses"]:
        harness.log("miss: " + line)
    print("# " + " ".join("%s=%s" % kv for kv in sorted(record["stamp"].items())))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Tests of the benchmark harness's own logic, plus a smoke run of every
workload at miniature sizes.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402


# ---------------------------------------------------------------------------
# percentiles with sample counts
# ---------------------------------------------------------------------------

def test_nearest_rank_percentiles_and_tail_counts():
    values = list(range(1, 1001))
    assert harness.percentile(values, 50) == 500
    assert harness.percentile(values, 99) == 990
    assert harness.percentile(values, 100) == 1000
    assert harness.beyond(1000, 99) == 10
    assert harness.beyond(999, 99) == 9
    assert harness.percentile([7], 99) == 7
    assert harness.beyond(1, 99) == 0
    assert harness.percentile([4, 1, 3, 2], 50) == 2
    with pytest.raises(ValueError):
        harness.percentile([], 50)
    with pytest.raises(ValueError):
        harness.percentile([1], 0)


def test_latency_summary_reports_samples_and_p99_tail():
    summary = harness.latency_summary([i / 1000.0 for i in range(1, 1001)])
    assert summary["samples"] == 1000
    assert summary["p99_tail"] == 10
    assert summary["p50_ms"] == pytest.approx(500.0)
    assert summary["p99_ms"] == pytest.approx(990.0)
    assert summary["max_ms"] == pytest.approx(1000.0)
    assert harness.latency_summary([0.001] * 200)["p99_tail"] == 2


# ---------------------------------------------------------------------------
# spans and self time
# ---------------------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    spans = [
        ("root", 0.0, 10.0, -1, 7, 0),
        ("a", 1.0, 4.0, 0, 7, 0),
        ("a.leaf", 2.0, 3.0, 1, 7, 0),
        ("b", 5.0, 7.0, 0, 7, 0),
    ]
    assert harness.self_times(spans) == [5.0, 2.0, 1.0, 2.0]
    agg = harness.aggregate(spans)
    assert agg["root"]["self_ms"] == pytest.approx(5000.0)
    assert agg["root"]["total_ms"] == pytest.approx(10000.0)
    assert agg["a"]["calls"] == 1


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def test_tracer_nests_spans_and_restores_every_binding():
    clock = FakeClock()
    core = types.ModuleType("core")
    user = types.ModuleType("user")

    def inner(x):
        clock.now += 1.0
        return [0] * x

    def outer(x):
        clock.now += 2.0
        return core.inner(x) + core.inner(x)

    core.inner, core.outer = inner, outer
    user.inner = inner  # a "from core import inner" binding
    tracer = harness.Tracer(clock=clock)
    tracer.wrap(core, "inner", "core.inner", size=lambda args, value: len(value), modules=(core, user))
    tracer.wrap(core, "outer", "core.outer", modules=(core, user))
    assert user.inner is core.inner is not inner
    tracer.set_request(3)
    assert core.outer(4) == [0] * 8
    tracer.restore()
    assert core.inner is inner and user.inner is inner and core.outer is outer

    spans = tracer.spans()
    assert [(s[0], s[3], s[4], s[5]) for s in spans] == [
        ("core.outer", -1, 3, 0),
        ("core.inner", 0, 3, 4),
        ("core.inner", 0, 3, 4),
    ]
    agg = tracer.aggregate()
    assert agg["core.outer"]["self_ms"] == pytest.approx(2000.0)
    assert agg["core.inner"] == {"calls": 2, "self_ms": pytest.approx(2000.0),
                                 "total_ms": pytest.approx(2000.0), "size": 8}
    assert harness.count_under(spans, "core.inner", "core.outer") == 2
    assert harness.sum_size_under(spans, "core.inner", {"core.outer"}) == (8, 4.0)


def test_tracer_closes_a_span_when_the_call_raises(tmp_path):
    tracer = harness.Tracer()

    def boom():
        raise KeyError("x")

    wrapped = tracer.traced(boom, "boom")
    with pytest.raises(KeyError):
        wrapped()
    (name, start, end, parent, _, _), = tracer.spans()
    assert name == "boom" and end >= start and parent == -1
    tracer.write(tmp_path / "spans.tsv")
    lines = (tmp_path / "spans.tsv").read_text().splitlines()
    assert lines[0].split("\t") == ["index", "name", "start_s", "end_s", "parent", "request", "size"]
    assert lines[1].split("\t")[1] == "boom"


# ---------------------------------------------------------------------------
# open-loop due-time accounting
# ---------------------------------------------------------------------------

def test_open_loop_times_requests_from_their_due_time():
    clock = FakeClock()
    service = {0: 0.030}

    def request(j):
        clock.now += service.get(j, 0.001)
        if j == 2:
            raise ConnectionError("refused")
        return j

    results = harness.run_open_loop(100.0, 5, 1, request, clock=clock, sleep=clock.sleep)
    lateness = [round(r[0] * 1e3, 6) for r in results]
    latency = [round(r[1] * 1e3, 6) for r in results]
    # request 0 stalls 30 ms; 1..3 were due at 10, 20, 30 ms and wait for it
    assert lateness == [0.0, 20.0, 11.0, 2.0, 0.0]
    assert latency == [30.0, 21.0, 12.0, 3.0, 1.0]
    assert [r[2] for r in results[:2]] == [0, 1]
    assert isinstance(results[2][2], ConnectionError)


def test_closed_loop_runs_every_request_once():
    seen = []
    elapsed, results = harness.run_closed_loop(50, 2, lambda j: seen.append(j) or j)
    assert sorted(seen) == list(range(50))
    assert [r[2] for r in results] == list(range(50))
    assert all(start <= end for start, end, _ in results)
    assert elapsed >= 0


def test_best_stretch_statistics():
    # completions 10 ms apart, then a 2 ms-apart burst of 4
    ends = [0.00, 0.01, 0.02, 0.03, 0.032, 0.034, 0.036, 0.038]
    assert harness.best_rate(ends, 2) == pytest.approx(2 / 0.004)
    assert harness.best_rate(ends, 7) == pytest.approx(7 / 0.038)
    assert harness.best_rate(ends, 8) == pytest.approx(7 / 0.038)
    assert harness.best_rate([1.0], 4) == 0.0
    values = [5, 6, 7, 1, 2, 3, 0]
    assert harness.best_median(values, 3) == 2
    assert harness.best_median(values, 8) == 3


# ---------------------------------------------------------------------------
# failure counting and digests
# ---------------------------------------------------------------------------

def test_tally_counts_failures_and_separates_expected_misses():
    tally = harness.Tally()
    for _ in range(3):
        tally.ok()
    tally.fail("planted key not recovered", fatal=False)
    assert (tally.attempted, tally.failed, tally.correct) == (4, 1, True)
    tally.fail("honest session rejected")
    tally.check(True, "never recorded")
    tally.check(False, "replay differs")
    assert (tally.attempted, tally.failed, tally.correct) == (5, 2, False)
    assert tally.errors == ["honest session rejected", "replay differs"]
    assert tally.misses == ["planted key not recovered"]


def test_digest_check_flags_only_a_pinned_mismatch():
    got = harness.digest(["a", b"b"])
    assert got == harness.digest(["ab"]) and len(got) == 32
    pinned = {"sessions/full": {"1": got}}
    assert harness.check_digest(pinned, "sessions/full", 1, got) is None
    assert harness.check_digest(pinned, "sessions/full", 2, "00") is None
    assert harness.check_digest(pinned, "drivers/full", 1, "00") is None
    message = harness.check_digest(pinned, "sessions/full", 1, "00")
    assert got in message and "00" in message


def test_pinned_digests_cover_the_default_seed():
    pinned = json.loads((BENCH / "pinned.json").read_text())
    for key in ("sessions/full", "drivers/full", "sessions/smoke", "drivers/smoke"):
        assert str(run.DEFAULT_SEED) in pinned[key]


def test_paper_size_sessions_reproduce_their_pinned_digest():
    import workloads

    tally = harness.Tally()
    phase = workloads.SessionsPhase(workloads.sessions_inputs(run.DEFAULT_SEED, workloads.FULL), tally)
    phase.batch()
    assert tally.correct and tally.failed == 0
    pinned = json.loads((BENCH / "pinned.json").read_text())
    assert phase.digest == pinned["sessions/full"][str(run.DEFAULT_SEED)]


# ---------------------------------------------------------------------------
# BENCHMARK.json matches what the harness prints
# ---------------------------------------------------------------------------

def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.E2E
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for path in spec["paths"]:
        assert (ROOT / path).is_dir()


# ---------------------------------------------------------------------------
# smoke runs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_is_correct_and_reports_every_e2e_metric(workload):
    record = run.run(workload, run.DEFAULT_SEED, 0.2, False, "smoke")
    assert record["errors"] == [] and record["correct"]
    assert record["failed"] == 0 and record["attempted"] > 0
    assert [(name, m["unit"]) for name, m in record["metrics"].items()] == run.E2E
    assert all(m["value"] > 0 for m in record["metrics"].values())
    assert record["stamp"]["seed"] == run.DEFAULT_SEED
    assert set(record["stamp"]) == {"backend", "numpy", "python", "nproc", "commit", "seed"}


def test_smoke_traced_run_reports_every_per_layer_metric():
    record = run.run("sessions", run.DEFAULT_SEED, 0.2, True, "smoke")
    assert record["correct"], record["errors"]
    metrics = record["metrics"]
    assert [(name, m["unit"]) for name, m in metrics.items()] == layers.PER_LAYER
    assert metrics["protocols.run_session.calls"]["value"] > 0
    assert metrics["server.verify.calls"]["value"] == metrics["authsvc.authenticate.calls"]["value"]
    assert metrics["drivers.keys_recovered"]["value"] == metrics["drivers.key_attempts"]["value"]
    # every handshake sends the same frames for its protocol, so the count is exact
    assert metrics["authsvc.client.frame_bytes_per_handshake"]["value"] == 1685.0


def test_without_sources_the_benchmark_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sessions", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

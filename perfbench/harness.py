"""Measurement plumbing for the nlhb benchmark: statistics, span tracing,
open-loop pacing, failure tallies, output digests and result stamps.

Nothing here imports ``nlhb``; the workloads in :mod:`workloads` call into
the package and use these helpers to time and check what it does.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import threading
import time
from array import array


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError("percentile rank must be in (0, 100]")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank q-th percentile."""
    return count - max(1, math.ceil(q / 100.0 * count))


def latency_summary(samples_s) -> dict:
    """p50 and p99 in ms of latencies given in seconds, with the sample count
    and the number of samples past p99 (a p99 read from fewer than ten tail
    samples is flagged by ``p99_tail`` < 10)."""
    ms = [s * 1e3 for s in samples_s]
    return {
        "p50_ms": percentile(ms, 50),
        "p99_ms": percentile(ms, 99),
        "max_ms": max(ms),
        "samples": len(ms),
        "p99_tail": beyond(len(ms), 99),
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rss_mb(pid: int) -> float:
    """Current resident set size of process ``pid`` in MB (Linux /proc)."""
    with open("/proc/%d/status" % pid) as fp:
        for line in fp:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmRSS line for pid %d" % pid)


median = statistics.median


def best_rate(ends, window: int) -> float:
    """Highest rate over ``window`` consecutive intervals between
    completions, given their end times; the whole span's rate when there
    are too few."""
    ends = sorted(ends)
    if len(ends) <= window:
        return (len(ends) - 1) / (ends[-1] - ends[0]) if len(ends) > 1 else 0.0
    return max(window / (ends[i + window] - ends[i]) for i in range(len(ends) - window))


def best_median(values, chunk: int) -> float:
    """Lowest median over consecutive chunks of ``chunk`` values (a trailing
    partial chunk is ignored); the plain median when there are too few."""
    if len(values) < chunk:
        return median(values)
    return min(median(values[i:i + chunk]) for i in range(0, len(values) - chunk + 1, chunk))


# ---------------------------------------------------------------------------
# failure tally
# ---------------------------------------------------------------------------

class Tally:
    """Operations attempted and failed, with a reason per failure.

    ``fatal`` failures also make the run incorrect; a non-fatal one is an
    expected, seed-dependent miss (a probabilistic attack that did not
    recover its key) and only counts as failed.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.misses: list[str] = []

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str, fatal: bool = True) -> None:
        self.attempted += 1
        self.failed += 1
        (self.errors if fatal else self.misses).append(reason)

    def check(self, condition: bool, reason) -> None:
        """A correctness condition that is not an operation of its own."""
        if not condition:
            self.errors.append(reason)

    @property
    def correct(self) -> bool:
        return not self.errors


# ---------------------------------------------------------------------------
# digests
# ---------------------------------------------------------------------------

def digest(chunks) -> str:
    """blake2b-128 over a sequence of str/bytes chunks."""
    h = hashlib.blake2b(digest_size=16)
    for chunk in chunks:
        h.update(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
    return h.hexdigest()


def check_digest(pinned: dict, key: str, seed: int, got: str) -> str | None:
    """Compare ``got`` with the digest pinned for (key, seed).

    Returns None when it matches or nothing is pinned for that pair, and a
    message naming both digests when it differs.
    """
    want = pinned.get(key, {}).get(str(seed))
    if want is None or want == got:
        return None
    return "%s digest for seed %d is %s, pinned %s" % (key, seed, got, want)


# ---------------------------------------------------------------------------
# open loop
# ---------------------------------------------------------------------------

def run_open_loop(rate: float, count: int, workers: int, request, *,
                  clock=time.perf_counter, sleep=time.sleep):
    """Offer ``count`` requests at ``rate`` per second over ``workers`` callers.

    Request j is due at t0 + j / rate.  A free worker takes the earliest
    request not yet taken, sleeps until it is due and calls ``request(j)``;
    when every worker is busy past a due time the request waits, and that
    wait counts in its latency.  Returns per request (lateness, latency,
    outcome): lateness is start minus due, latency is end minus due, and
    outcome is what ``request`` returned or the exception it raised.
    """
    results = [None] * count
    lock = threading.Lock()
    cursor = [0]
    t0 = clock()

    def worker():
        while True:
            with lock:
                j = cursor[0]
                if j >= count:
                    return
                cursor[0] += 1
            due = t0 + j / rate
            wait = due - clock()
            if wait > 0:
                sleep(wait)
            start = clock()
            try:
                outcome = request(j)
            except Exception as exc:  # counted as a failed request by the caller
                outcome = exc
            results[j] = (start - due, clock() - due, outcome)

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results


def run_closed_loop(count: int, workers: int, request, *, clock=time.perf_counter):
    """``workers`` callers issue ``count`` requests back to back.

    Returns (elapsed seconds, per request (start, end, outcome)).
    """
    results = [None] * count
    lock = threading.Lock()
    cursor = [0]

    def worker():
        while True:
            with lock:
                j = cursor[0]
                if j >= count:
                    return
                cursor[0] += 1
            start = clock()
            try:
                outcome = request(j)
            except Exception as exc:  # counted as a failed request by the caller
                outcome = exc
            results[j] = (start, clock(), outcome)

    t0 = clock()
    threads = [threading.Thread(target=worker, daemon=True) for _ in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return clock() - t0, results


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

class Tracer:
    """In-memory spans around calls into the package.

    :meth:`wrap` replaces a function or method with a wrapper that records
    one span per call: name, start, end, the enclosing span in the same
    thread, the current request id and an optional size (bits, rows or
    bytes).  Module-level functions are replaced in every module listed in
    ``modules`` that holds them, so ``from x import f`` bindings are caught.
    :meth:`restore` puts every original back.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.request = array("q")
        self.size = array("q")
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, request_id: int) -> None:
        """Tag spans opened from now on in this thread with ``request_id``."""
        self._local.request = request_id

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            with self._lock:
                nid = self._name_ids.setdefault(name, len(self.names))
                if nid == len(self.names):
                    self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        nid = self._intern(name)
        stack = self._stack()
        parent = stack[-1] if stack else -1
        req = getattr(self._local, "request", -1)
        with self._lock:
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(parent)
            self.request.append(req)
            self.size.append(0)
            self.end.append(0.0)
            self.start.append(self.clock())
        stack.append(idx)
        return idx

    def close(self, idx: int, size: int = 0) -> None:
        self.end[idx] = self.clock()
        if size:
            self.size[idx] = size
        self._stack().pop()

    # -- patching ----------------------------------------------------------

    def traced(self, fn, name, size=None, result=None):
        """A wrapper of ``fn`` that records one span per call.

        ``name`` is the span name, or a function of the call's positional
        arguments returning it.  ``size(args, value)`` gives the span's size.
        ``result(value)`` may replace the returned value (used to trace the
        closure a factory returns).
        """
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name(args) if callable(name) else name)
            try:
                value = fn(*args, **kwargs)
            except BaseException:
                tracer.close(idx)
                raise
            tracer.close(idx, size(args, value) if size else 0)
            return result(value) if result else value

        traced.__wrapped__ = fn
        return traced

    def wrap(self, owner, attr: str, name, size=None, result=None, modules=()):
        """Replace ``owner.attr`` by :meth:`traced` of it, in ``owner`` and in
        every module of ``modules`` bound to the same object."""
        original = getattr(owner, attr)
        wrapper = self.traced(original, name, size, result)
        for target in [owner] + [m for m in modules if m is not owner and getattr(m, attr, None) is original]:
            self.patch(target, attr, wrapper)

    def patch(self, target, attr: str, value) -> None:
        """Set ``target.attr`` to ``value`` until :meth:`restore`."""
        self._patches.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def restore(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def spans(self):
        """Closed spans as (name, start, end, parent, request, size) tuples."""
        return [
            (self.names[self.name_id[i]], self.start[i], self.end[i],
             self.parent[i], self.request[i], self.size[i])
            for i in range(len(self.start))
        ]

    def write(self, path) -> None:
        """Write the spans as TSV: index, name, start, end, parent, request, size."""
        with open(path, "w") as fp:
            fp.write("index\tname\tstart_s\tend_s\tparent\trequest\tsize\n")
            for i, (name, start, end, parent, req, size) in enumerate(self.spans()):
                fp.write("%d\t%s\t%.9f\t%.9f\t%d\t%d\t%d\n" % (i, name, start, end, parent, req, size))

    def aggregate(self) -> dict:
        """Per span name: calls, self time in ms and total size."""
        return aggregate(self.spans())


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the time its direct
    children cover.  Children run in the parent's thread and nest inside
    it, so the covered time is the sum of their durations."""
    own = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def aggregate(spans) -> dict:
    """{name: {"calls", "self_ms", "total_ms", "size"}} over ``spans``."""
    out: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        name, start, end, _, _, size = span
        entry = out.setdefault(name, {"calls": 0, "self_ms": 0.0, "total_ms": 0.0, "size": 0})
        entry["calls"] += 1
        entry["self_ms"] += own * 1e3
        entry["total_ms"] += (end - start) * 1e3
        entry["size"] += size
    return out


def count_under(spans, name: str, ancestor: str) -> int:
    """How many ``name`` spans have an ``ancestor`` span above them."""
    under = [False] * len(spans)
    hits = 0
    for i, (span_name, _, _, parent, *_rest) in enumerate(spans):
        # parents open before their children, so they come first
        if parent >= 0:
            under[i] = under[parent] or spans[parent][0] == ancestor
        if under[i] and span_name == name:
            hits += 1
    return hits


def sum_size_under(spans, name: str, ancestors) -> tuple[int, float]:
    """Total size of ``name`` spans below any of ``ancestors``, and the total
    duration in seconds of the outermost ``ancestors`` spans."""
    top = [None] * len(spans)
    size = 0
    busy = 0.0
    for i, (span_name, start, end, parent, _, span_size) in enumerate(spans):
        top[i] = top[parent] if parent >= 0 else None
        if top[i] is None and span_name in ancestors:
            top[i] = span_name
            busy += end - start
        elif top[i] is not None and span_name == name:
            size += span_size
    return size, busy


# ---------------------------------------------------------------------------
# stamps
# ---------------------------------------------------------------------------

def source_revision(root) -> str:
    """The git commit of ``root`` when it is a checkout, otherwise a digest of
    the files under ``root/src`` (a source tree exported without history)."""
    head = os.path.join(root, ".git", "HEAD")
    if os.path.exists(head):
        with open(head) as fp:
            ref = fp.read().strip()
        if ref.startswith("ref: "):
            ref_path = os.path.join(root, ".git", ref[5:])
            if os.path.exists(ref_path):
                with open(ref_path) as fp:
                    return fp.read().strip()
        else:
            return ref
    chunks = []
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fname in sorted(filenames):
            if fname.endswith(".py"):
                path = os.path.join(dirpath, fname)
                chunks.append(os.path.relpath(path, src))
                with open(path, "rb") as fp:
                    chunks.append(fp.read())
    return "src-" + digest(chunks)


def stamp(root, backend: str, numpy_version: str, seed: int) -> dict:
    return {
        "backend": backend,
        "numpy": numpy_version,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": source_revision(root),
        "seed": seed,
    }


def dump_json(path, obj) -> None:
    with open(path, "w") as fp:
        json.dump(obj, fp, indent=1, sort_keys=True)
        fp.write("\n")


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)

"""The three benchmark phases, their seeded inputs and their correctness gates.

- sessions:  in-process honest ``run_session`` at paper size, round-robin
  over hb, hb+, nlhb and nlhb+, then a write/read/re-verify replay of every
  batch (layers L0-L2).
- handshake: ``AuthService`` in a child process with a transcript log, driven
  by two client connections from this process; a closed loop of a fixed
  number of handshakes, then an open loop at a fixed offered rate (L4).
- drivers:   a fixed suite of seeded research jobs in three groups, each the
  control for the other two: keysearch (bulk L0 on 2^k-row matrices),
  reduction (per-call overhead on tiny draws) and analysis (big-integer
  arithmetic) (L3).

Every input is derived from the workload seed; the package only receives
the generated inputs.
"""

from __future__ import annotations

import collections
import io
import os
import select
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from nlhb import _kernels, attacks, authsvc, gf2core, nlfunc, params, protocols, reductions  # noqa: E402
from nlhb.gf2core import RandomSource, derive_seed  # noqa: E402
from nlhb.nlfunc import DEFAULT_SPEC  # noqa: E402
from nlhb.protocols import generate_key, hb_params, nlhb_params  # noqa: E402

from harness import (  # noqa: E402
    best_median,
    best_rate,
    digest,
    latency_summary,
    median,
    rss_mb,
    run_closed_loop,
    run_open_loop,
)

PACKAGE_MODULES = (_kernels, attacks, authsvc, gf2core, nlfunc, params, protocols, reductions)
EPS, EPS_PRIME = Fraction(1, 4), Fraction(348, 1000)


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; FULL is the benchmark, SMOKE the test-suite miniature."""

    name: str
    # sessions: paper-size parameters, sessions per timed batch, and the time
    # the phase runs when it is not the workload's own
    k: int
    n_linear: int
    n_nonlinear: int
    batch: int
    sessions_probe_s: float
    # handshake: closed-loop count, open-loop offered rate and count
    closed: int
    open_rate: float
    open_count: int
    # drivers
    majority_k: int
    noisefree_k: int
    lf2_k: int
    lf2_transcripts: int
    lf2_seeds: int
    reduction_k: int
    reduction_seeds: int
    entropy_widths: tuple


FULL = Sizes(
    name="full", k=128, n_linear=1164, n_nonlinear=1167, batch=16, sessions_probe_s=10.0,
    closed=400, open_rate=150.0, open_count=450,
    majority_k=18, noisefree_k=16, lf2_k=16, lf2_transcripts=128, lf2_seeds=3,
    reduction_k=8, reduction_seeds=3, entropy_widths=(2, 3, 4),
)

SMOKE = Sizes(
    name="smoke", k=16, n_linear=256, n_nonlinear=259, batch=8, sessions_probe_s=0.05,
    closed=16, open_rate=200.0, open_count=16,
    majority_k=8, noisefree_k=8, lf2_k=8, lf2_transcripts=64, lf2_seeds=1,
    reduction_k=4, reduction_seeds=1, entropy_widths=(2, 3),
)

SIZES = {s.name: s for s in (FULL, SMOKE)}


def paper_params(sizes: Sizes):
    """hb, hb+, nlhb and nlhb+ at the paper's eps = 1/4, eps' = 348/1000."""
    k, nl, nn = sizes.k, sizes.n_linear, sizes.n_nonlinear
    return [
        hb_params(k, nl, EPS, EPS_PRIME),
        hb_params(k, nl, EPS, EPS_PRIME, blinded=True),
        nlhb_params(k, nn, EPS, EPS_PRIME, DEFAULT_SPEC),
        nlhb_params(k, nn, EPS, EPS_PRIME, DEFAULT_SPEC, blinded=True),
    ]


def paper_keys(seed: int, label: str, plist):
    root = RandomSource(seed).derive(label)
    return [generate_key(p, root.derive("key-" + p.proto)) for p in plist]


# ---------------------------------------------------------------------------
# sessions
# ---------------------------------------------------------------------------

@dataclass
class SessionsInputs:
    seed: int
    sizes: Sizes
    params: list
    keys: list


def sessions_inputs(seed: int, sizes: Sizes) -> SessionsInputs:
    plist = paper_params(sizes)
    return SessionsInputs(seed, sizes, plist, paper_keys(seed, "sessions", plist))


class SessionsPhase:
    """Batches of honest sessions, each followed by a timed replay.

    Batch b draws from streams derived from (seed, b), so batch 0 is the
    same in every run of a seed and its transcript text is the digest.
    Throughput is that of the fastest batch (best of N, as timeit reports):
    co-tenant load on a shared machine slows whole stretches of a run by up
    to ~1.8x, which moves a median between runs but rarely spares every
    batch.
    """

    def __init__(self, inp: SessionsInputs, tally):
        self.inp = inp
        self.tally = tally
        self.by_proto = {p.proto: key for p, key in zip(inp.params, inp.keys)}
        self.root = RandomSource(inp.seed).derive("sessions")
        self.rates: list[float] = []
        self.replay_rates: list[float] = []
        self.batches = 0
        self.digest = None

    def run_for(self, seconds: float) -> None:
        """Run whole batches for ``seconds`` (at least one)."""
        deadline = time.perf_counter() + seconds
        self.batch()
        while time.perf_counter() < deadline:
            self.batch()

    def batch(self) -> None:
        inp, tally, index = self.inp, self.tally, self.batches
        rng = self.root.derive("batch-%d" % index)
        prover, verifier = rng.derive("prover"), rng.derive("verifier")
        nproto = len(inp.params)

        t0 = time.perf_counter()
        try:
            sessions = [
                protocols.run_session(inp.params[i % nproto], inp.keys[i % nproto], prover, verifier)
                for i in range(inp.sizes.batch)
            ]
        except Exception as exc:  # a package failure is a failed operation, not a crash
            tally.fail("batch %d: run_session raised %r" % (index, exc))
            self.batches += 1
            return
        t1 = time.perf_counter()
        buf = io.StringIO()
        protocols.write_transcripts(buf, sessions)
        text = buf.getvalue()
        try:
            replayed = protocols.read_transcripts(io.StringIO(text))
            decisions = [
                protocols.verify(t.params, self.by_proto[t.proto], t.a, t.z, b=t.b) for t in replayed
            ]
        except Exception as exc:  # as above: the replay is part of the checked output
            replayed, decisions = None, None
            tally.check(False, "batch %d: replay raised %r" % (index, exc))
        t2 = time.perf_counter()
        if replayed is not None:
            self.rates.append(len(sessions) / (t1 - t0))
            self.replay_rates.append(len(replayed) / (t2 - t1))
            tally.check(protocols.transcripts_to_text(replayed) == text,
                        "batch %d: replayed transcript text differs" % index)
            tally.check(decisions == [(t.accepted, t.distance) for t in sessions],
                        "batch %d: replayed decisions differ" % index)

        for i, t in enumerate(sessions):
            if t.accepted:
                tally.ok()
            else:
                tally.fail("batch %d session %d (%s): honest session rejected at distance %d"
                           % (index, i, t.proto, t.distance))
        if index == 0:
            self.digest = digest([text])
        self.batches += 1

    def result(self) -> dict:
        return {
            "sessions_per_s": max(self.rates, default=0.0),
            "replay_sessions_per_s": max(self.replay_rates, default=0.0),
            "median_sessions_per_s": median(self.rates) if self.rates else 0.0,
            "median_replay_sessions_per_s": median(self.replay_rates) if self.replay_rates else 0.0,
            "batches": self.batches,
            "sessions": self.batches * self.inp.sizes.batch,
            "digest": self.digest,
        }


# ---------------------------------------------------------------------------
# handshake
# ---------------------------------------------------------------------------

SERVER = os.path.join(HERE, "server.py")
IDENTITY = "tag-%s"


@dataclass
class HandshakeInputs:
    sizes: Sizes
    entries: list
    keystore_text: str
    service_seed: int
    client_seeds: list


def handshake_inputs(seed: int, sizes: Sizes) -> HandshakeInputs:
    plist = paper_params(sizes)
    keys = paper_keys(seed, "handshake", plist)
    entries = [authsvc.KeystoreEntry(IDENTITY % p.proto, p, key) for p, key in zip(plist, keys)]
    text = "\n".join(authsvc.format_keystore_entry(e) for e in entries)
    total = sizes.closed + sizes.open_count
    client_root = derive_seed(seed, "clients")
    return HandshakeInputs(
        sizes, entries, text, derive_seed(seed, "service"),
        [derive_seed(client_root, "client-%d" % j) for j in range(total)],
    )


class Server:
    """``AuthService`` in a child process (see server.py)."""

    def __init__(self, inp: HandshakeInputs, tag: str, trace: bool = False, timeout: float = 60.0):
        os.makedirs(OUT, exist_ok=True)
        tag = "%s-%d" % (tag, os.getpid())
        self.keystore = os.path.join(OUT, "keystore-%s.txt" % tag)
        self.log = os.path.join(OUT, "sessions-%s.log" % tag)
        self.trace = os.path.join(OUT, "server-spans-%s.tsv" % tag) if trace else None
        with open(self.keystore, "w") as fp:
            fp.write(inp.keystore_text)
        if os.path.exists(self.log):
            os.remove(self.log)
        cmd = [sys.executable, SERVER, "--keystore", self.keystore, "--log", self.log,
               "--seed", str(inp.service_seed)]
        if self.trace:
            cmd += ["--trace", self.trace]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        line = self._readline(timeout)
        fields = line.split()
        if len(fields) != 3 or fields[0] != "listening":
            self.kill()
            raise RuntimeError("auth server did not start; it printed %r" % line)
        self.address = (fields[1], int(fields[2]))

    def _readline(self, timeout: float) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        return self.proc.stdout.readline() if ready else ""

    def rss_mb(self) -> float:
        return rss_mb(self.proc.pid)

    def stop(self, timeout: float = 60.0) -> str:
        """Ask the server to shut down; returns its last stdout line."""
        try:
            out, _ = self.proc.communicate("stop\n", timeout=timeout)
        finally:
            self.kill()
        if self.proc.returncode != 0:
            raise RuntimeError("auth server exited with %s" % self.proc.returncode)
        lines = out.strip().splitlines()
        return lines[-1] if lines else ""

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if os.path.exists(self.keystore):
            os.remove(self.keystore)


def iter_log_records(path, chunk: int = 64):
    """Parsed transcripts from a session log, ``chunk`` records at a time, so
    the whole log is never held in memory."""
    block: list[str] = []
    records = 0
    with open(path) as fp:
        for line in fp:
            if line.strip():
                block.append(line)
                continue
            records += 1
            if records == chunk:
                yield protocols.transcripts_from_text("".join(block))
                block, records = [], 0
    if block:
        yield protocols.transcripts_from_text("".join(block))


def check_log(inp: HandshakeInputs, path, outcomes, tally) -> int:
    """Re-verify every logged transcript with its keystore key; the logged
    (proto, decision, distance) multiset must equal what the clients saw."""
    by_proto = {e.params.proto: e for e in inp.entries}
    logged = collections.Counter()
    count = 0
    try:
        for records in iter_log_records(path):
            for t in records:
                count += 1
                entry = by_proto[t.proto]
                if t.params != entry.params:
                    tally.check(False, "logged %s session %d has params %s" % (t.proto, count, t.params))
                got = protocols.verify(entry.params, entry.key, t.a, t.z, b=t.b)
                if got != (t.accepted, t.distance):
                    tally.check(False, "logged %s session %d re-verifies to %s, logged %s"
                                % (t.proto, count, got, (t.accepted, t.distance)))
                logged[(t.proto, t.accepted, t.distance)] += 1
    except Exception as exc:  # an unreadable log fails the gate
        tally.check(False, "server log record %d: %r" % (count + 1, exc))
    tally.check(logged == collections.Counter(outcomes),
                "server log (%d records) disagrees with the %d client outcomes"
                % (count, len(outcomes)))
    return count


STRETCH = 32


class HandshakePhase:
    """Handshakes against one server child over two client connections.

    Each :meth:`run` does a closed loop of a given number of handshakes,
    then an open loop of a given number of requests at ``sizes.open_rate``
    per second.  Handshake j uses identity j mod 4 and client seed j.

    Like the session rates, the reported figures are those of the best
    stretch of STRETCH consecutive handshakes: the highest closed-loop
    rate, and the lowest closed- and open-loop median latency.  Co-tenant
    load moved whole-run medians by up to 45% between sets of runs half an
    hour apart; the record keeps the whole-run figures too.
    """

    def __init__(self, inp: HandshakeInputs, tally, tracer=None, tag: str = "run"):
        self.inp = inp
        self.tally = tally
        self.tracer = tracer
        self.server = Server(inp, tag, trace=tracer is not None)
        self.next = 0
        self.closed_elapsed = 0.0
        self.closed_cpu = 0.0
        self.closed: list[float] = []
        self.closed_rates: list[float] = []
        self.closed_p50s: list[float] = []
        self.opened: list[float] = []
        self.opened_p50s: list[float] = []
        self.lateness: list[float] = []
        self.outcomes: list[tuple] = []
        self.frame_bytes = 0

    def handshake(self, j):
        entry = self.inp.entries[j % len(self.inp.entries)]
        frame_log = None
        if self.tracer is not None:
            self.tracer.set_request(j)
            frame_log = []
        result = authsvc.authenticate(
            self.server.address, entry.identity, entry.key, entry.params,
            rng=RandomSource(self.inp.client_seeds[j]), frame_log=frame_log,
        )
        if frame_log is not None:
            self.frame_bytes += sum(5 + len(payload) for _, payload in frame_log)
        return entry.params.proto, result

    def _record(self, j, outcome) -> bool:
        if isinstance(outcome, Exception):
            self.tally.fail("handshake %d failed: %r" % (j, outcome))
            return False
        proto, (accepted, distance) = outcome
        self.outcomes.append((proto, accepted, distance))
        if not accepted:
            self.tally.fail("handshake %d (%s) rejected at distance %s" % (j, proto, distance))
            return False
        self.tally.ok()
        return True

    def run(self, closed: int, opened: int) -> None:
        base = self.next
        cpu0 = time.process_time()
        elapsed, results = run_closed_loop(closed, 2, lambda j: self.handshake(base + j))
        self.closed_cpu += time.process_time() - cpu0
        self.closed_elapsed += elapsed
        done = [(start, end) for j, (start, end, out) in enumerate(results) if self._record(base + j, out)]
        lat = [end - start for start, end in done]
        self.closed += lat
        self.closed_rates.append(best_rate([end for _, end in done], STRETCH))
        self.closed_p50s.append(best_median(lat, STRETCH))

        base += closed
        results = run_open_loop(self.inp.sizes.open_rate, opened, 2, lambda j: self.handshake(base + j))
        lat = [lat for j, (_, lat, out) in enumerate(results) if self._record(base + j, out)]
        self.opened += lat
        self.opened_p50s.append(best_median(lat, STRETCH))
        self.lateness += [late for late, _, _ in results]
        self.next = base + opened

    def finish(self) -> dict:
        """Read the server's RSS, stop it and check its log."""
        try:
            server_rss = self.server.rss_mb()
            summary = self.server.stop()
        finally:
            self.server.kill()
        logged = check_log(self.inp, self.server.log, self.outcomes, self.tally)
        os.remove(self.server.log)
        closed = latency_summary(self.closed or [float("nan")])
        opened = latency_summary(self.opened or [float("nan")])
        return {
            "handshakes_per_s": max(self.closed_rates),
            "handshake_p50_ms": min(self.closed_p50s) * 1e3,
            "open_p50_ms": min(self.opened_p50s) * 1e3,
            "closed_mean_per_s": len(self.closed) / self.closed_elapsed,
            "server_rss_mb": server_rss,
            "closed": closed,
            "open": opened,
            "open_lateness": latency_summary(self.lateness or [float("nan")]),
            "loadgen_cpu_share": self.closed_cpu / self.closed_elapsed,
            "logged": logged,
            "frame_bytes": self.frame_bytes,
            "handshakes": len(self.outcomes),
            "server_summary": summary,
        }

    def kill(self) -> None:
        self.server.kill()


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------

@dataclass
class Job:
    group: str
    name: str
    run: object  # () -> (text, recovered or None); recovered is None for non-key jobs


def _hex(bits) -> str:
    return np.packbits(bits).tobytes().hex()


def _attack_job(group, name, run_attack, key):
    def run():
        report = run_attack()
        found = report.recovered_key
        text = "%s success=%s queries=%d key=%s stats=%s" % (
            name, report.success, report.queries,
            "-" if found is None else _hex(found), sorted(report.stats.items()))
        return text, bool(report.success and found is not None and np.array_equal(found, key.s1)), report.success
    return Job(group, name, run)


def drivers_inputs(seed: int, sizes: Sizes) -> list[Job]:
    """The fixed job suite for ``seed``: keys, transcripts and oracle seeds
    are drawn here; each job rebuilds its stateful streams when it runs, so
    every pass repeats the same work."""
    root = RandomSource(seed).derive("drivers")
    jobs = []

    def stream(label):
        return derive_seed(root.seed, label)

    # keysearch and reduction jobs run at eps = 1/8, eps' = 1/4, where an honest
    # response fails verification with probability ~2^-26 at D = 256; at the
    # paper's 1/4 and 348/1000 it is ~2^-12, enough for the all-must-verify
    # gates of the attacks to miss a correctly recovered key on some seeds
    eps, eps_prime = Fraction(1, 8), Fraction(1, 4)
    k = sizes.majority_k
    nl = nlhb_params(k, 259, eps, eps_prime, DEFAULT_SPEC)
    key = generate_key(nl, root.derive("majority-key"))
    jobs.append(_attack_job(
        "keysearch", "majority_vote_attack nlhb k=%d" % k,
        lambda nl=nl, key=key: attacks.majority_vote_attack(
            attacks.make_prover_oracle(nl, key, RandomSource(stream("majority-oracle"))),
            nl.k, None, nl, rng=RandomSource(stream("majority-rng"))),
        key))

    k = sizes.noisefree_k
    nl = nlhb_params(k, 259, eps, eps_prime, DEFAULT_SPEC)
    key = generate_key(nl, root.derive("noisefree-key"))
    ts = protocols.transcript_sampler(nl, key, root.derive("noisefree-transcripts"), 16)
    jobs.append(_attack_job(
        "keysearch", "noise_free_selection_attack nlhb k=%d" % k,
        lambda nl=nl, ts=ts: attacks.noise_free_selection_attack(
            ts, nl.k, 10, rng=RandomSource(stream("noisefree-rng"))),
        key))

    k = sizes.lf2_k
    hb = hb_params(k, 256, eps, eps_prime)
    for s in range(sizes.lf2_seeds):
        key = generate_key(hb, root.derive("lf2-key-%d" % s))
        ts = protocols.transcript_sampler(hb, key, root.derive("lf2-transcripts-%d" % s),
                                          sizes.lf2_transcripts)
        jobs.append(_attack_job(
            "keysearch", "lf2_attack hb k=%d seed %d" % (k, s),
            lambda hb=hb, ts=ts: attacks.lf2_attack(ts, 8, hb), key))

    k = sizes.reduction_k
    ideal = nlhb_params(k, 259, eps, eps_prime, DEFAULT_SPEC)
    composed = hb_params(k, 256, eps, eps_prime)
    for s in range(sizes.reduction_seeds):
        key = generate_key(ideal, root.derive("ideal-key-%d" % s))
        jobs.append(Job("reduction", "algorithm_x ideal nlhb k=%d seed %d" % (k, s), _reduction(
            ideal, key, lambda p, key, s=s: reductions.ideal_distinguisher(p, key, q=2, seed=s),
            stream("ideal-source-%d" % s))))
        key = generate_key(composed, root.derive("composed-key-%d" % s))
        jobs.append(Job("reduction", "algorithm_x composed hb k=%d seed %d" % (k, s), _reduction(
            composed, key,
            lambda p, key, s=s: reductions.forger_to_distinguisher(
                reductions.PerfectPassiveForger(p, key, q=3), 3, Fraction(43, 100), seed=s),
            stream("composed-source-%d" % s))))

    jobs.append(Job("analysis", "find_min_D paper", _find_min_d))
    for p in sizes.entropy_widths:
        jobs.append(Job("analysis", "max_entropy_functions p=%d" % p, lambda p=p: _max_entropy(p)))
    return jobs


def _reduction(p, key, make_oracle, source_seed):
    def run():
        oracle = make_oracle(p, key)
        source = reductions.honest_transcript_source(p, key, RandomSource(source_seed))
        got = reductions.algorithm_x(oracle, source, p.k)
        hit = bool(np.array_equal(got, key.s1))
        return "recovered=%s" % _hex(got), hit, hit
    return run


def _find_min_d():
    r = params.find_min_D(EPS, EPS_PRIME, -80, -40)
    ok = r.fa.log2 <= -80 and r.fr.log2 <= -40 and r.u == params.threshold_u(EPS_PRIME, r.d)
    return "D=%d u=%d fa=%s fr=%s" % (r.d, r.u, r.fa.exact, r.fr.exact), None, ok


def _max_entropy(p):
    best, winners = nlfunc.max_entropy_functions(p)
    return "best=%r winners=%s" % (best, [nlfunc.format_spec(w) for w in winners]), None, bool(winners)


GROUPS = ("keysearch", "reduction", "analysis")


class DriversPhase:
    """The job suite run pass after pass, a few jobs at a time; each group's
    time is the median over passes of the sum of its jobs' times."""

    def __init__(self, jobs: list[Job], tally):
        self.jobs = jobs
        self.tally = tally
        self.per_group = {g: [] for g in GROUPS}
        self.spent = dict.fromkeys(GROUPS, 0.0)
        self.texts: list[str] = []
        self.first = None
        self.done = 0
        self.recovered = self.attempts = 0

    def run(self, count: int) -> None:
        for _ in range(count):
            self.job(self.jobs[self.done % len(self.jobs)])
            self.done += 1
            if self.done % len(self.jobs) == 0:
                self._end_pass()

    def job(self, job: Job) -> None:
        tally = self.tally
        t0 = time.perf_counter()
        try:
            text, hit, ok = job.run()
        except Exception as exc:  # a package failure is a failed operation, not a crash
            self.texts.append("%s: raised %r" % (job.name, exc))
            tally.fail("%s raised %r" % (job.name, exc))
            return
        finally:
            self.spent[job.group] += time.perf_counter() - t0
        self.texts.append("%s: %s" % (job.name, text))
        if hit is None:  # analysis job: the result itself is the check
            if ok:
                tally.ok()
            else:
                tally.fail("%s: result fails its own bounds" % job.name)
            return
        self.attempts += 1
        if hit:
            self.recovered += 1
            tally.ok()
        elif ok:
            tally.fail("%s: reported success with a wrong key" % job.name)
        else:
            tally.fail("%s: planted key not recovered" % job.name, fatal=False)

    def _end_pass(self) -> None:
        passes = len(self.per_group["analysis"])
        for g in GROUPS:
            self.per_group[g].append(self.spent[g])
        self.spent = dict.fromkeys(GROUPS, 0.0)
        if self.first is None:
            self.first = self.texts
        self.tally.check(self.texts == self.first, "drivers pass %d differs from pass 0" % passes)
        self.texts = []

    def result(self) -> dict:
        return {
            "keysearch_s": median(self.per_group["keysearch"]),
            "reduction_s": median(self.per_group["reduction"]),
            "analysis_s": median(self.per_group["analysis"]),
            "per_group": self.per_group,
            "passes": len(self.per_group["analysis"]),
            "keys_recovered": self.recovered,
            "key_attempts": self.attempts,
            "digest": digest(line + "\n" for line in self.first),
            "results": self.first,
        }


# ---------------------------------------------------------------------------
# all inputs of a seed
# ---------------------------------------------------------------------------

@dataclass
class Inputs:
    sessions: SessionsInputs
    handshake: HandshakeInputs
    drivers: list


def build_inputs(seed: int, sizes: Sizes) -> Inputs:
    return Inputs(sessions_inputs(seed, sizes), handshake_inputs(seed, sizes), drivers_inputs(seed, sizes))

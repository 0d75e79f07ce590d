"""Which package functions the traced run wraps, per layer, and how their
spans become the per-layer metrics listed in BENCHMARK.json.

The wrappers are installed from the benchmark's own files around calls into
each layer's public functions; nothing under ``src/`` changes.
"""

from __future__ import annotations

import socket
import threading

from harness import aggregate, count_under, sum_size_under

# (span name, which is the owner's path in the package; what its size counts)
L0 = [
    ("gf2core.mat_vec_mul", None),
    ("nlfunc.apply_f", None),
    ("gf2core.hamming", None),
    ("gf2core.RandomSource.uniform_matrix", "bits"),
    ("gf2core.RandomSource.bernoulli_bits", "bits"),
    ("gf2core.as_bits", None),
    ("gf2core.as_bit_matrix", None),
    ("gf2core.all_bit_vectors", "rows"),
    ("nlfunc.apply_f_batch", "rows"),
    ("kernels.hamming_rows", "rows"),
    ("gf2core.gf2_rank", None),
    ("gf2core.gaussian_solve", None),
    ("gf2core.dump_matrix", "bytes"),
    ("gf2core.load_matrix", "bytes"),
    ("gf2core.dump_bits", "bytes"),
]
L1 = [
    ("protocols.respond", None),
    ("protocols.verify", None),
    ("protocols.expected_response", None),
]
L2 = [
    ("protocols.run_session", None),
    ("protocols.write_transcripts", "bytes"),
    ("protocols.read_transcripts", "bytes"),
    ("reductions.honest_transcript_source.draw", "rows"),
]
L3 = [
    ("attacks.majority_vote_attack", None),
    ("attacks.noise_free_selection_attack", None),
    ("attacks.lf2_attack", None),
    ("reductions.algorithm_x", None),
    ("reductions.DistinguisherOracle.__call__", None),
    ("params.find_min_D", None),
    ("params.false_accept", None),
    ("params.false_reject", None),
    ("nlfunc.max_entropy_functions", None),
]
KEYSEARCH = {"attacks.majority_vote_attack", "attacks.noise_free_selection_attack"}

# client-side handshake phases, as span names
CONNECT = "authsvc.client.connect"
CHALLENGE_WAIT = "authsvc.client.challenge_wait"
DECISION_WAIT = "authsvc.client.decision_wait"
AUTHENTICATE = "authsvc.authenticate"

# server-side spans, recorded in the server process
SERVER_CODEC = ("gf2core.load_matrix", "gf2core.load_bits", "gf2core.dump_matrix", "authsvc.encode_frame")
SERVER_FUNCTIONS = [
    ("read_frame", ("authsvc.read_frame",)),
    ("codec", SERVER_CODEC),
    ("verify", ("protocols.verify",)),
    ("format_transcript", ("protocols.format_transcript",)),
    ("handle", ("authsvc.AuthService._handle",)),
]

def _per_layer_names():
    out = []
    for span, size in L0 + L1 + L2 + L3:
        out.append((span + ".calls", "count"))
        out.append((span + ".self_ms", "ms"))
        if size:
            out.append((span + "." + size, size))
    out += [
        ("gf2core.as_bits.calls_per_session", "count"),
        ("gf2core.as_bit_matrix.calls_per_session", "count"),
        ("attacks.keysearch.candidates_per_s", "1/s"),
        ("drivers.keys_recovered", "count"),
        ("drivers.key_attempts", "count"),
        ("authsvc.authenticate.calls", "count"),
        ("authsvc.client.connect_ms", "ms"),
        ("authsvc.client.challenge_wait_ms", "ms"),
        ("authsvc.client.compute_ms", "ms"),
        ("authsvc.client.decision_wait_ms", "ms"),
        ("authsvc.client.frame_bytes_per_handshake", "bytes"),
    ]
    for short, _ in SERVER_FUNCTIONS:
        out.append(("server.%s.calls" % short, "count"))
        out.append(("server.%s.self_ms" % short, "ms"))
    out += [
        ("server.peak_threads", "count"),
        ("loadgen.cpu_share", "share"),
        ("loadgen.open_lateness_p50_ms", "ms"),
        ("loadgen.open_lateness_p99_ms", "ms"),
        ("handshakes_per_s", "1/s"),
        ("handshake_p50_ms", "ms"),
        ("open_p50_ms", "ms"),
        ("handshake_p99_ms", "ms"),
        ("open_p99_ms", "ms"),
        ("keysearch_s", "s"),
        ("reduction_s", "s"),
        ("analysis_s", "s"),
        ("trace.spans", "count"),
        ("trace.overhead_pct", "%"),
    ]
    return out


PER_LAYER = _per_layer_names()


def _size_of(kind):
    if kind == "bits":
        return lambda args, value: value.size
    if kind == "rows":
        return lambda args, value: value.shape[0]
    return None


def _by_name(modules) -> dict:
    """Modules by their last dotted name, without a leading underscore (metric
    names must start with a letter)."""
    return {m.__name__.split(".")[-1].lstrip("_"): m for m in modules}


def install(tracer, modules) -> None:
    """Wrap the L0-L3 functions and the client half of L4 in this process."""
    by_name = _by_name(modules)
    wrap = tracer.wrap
    for span, size in L0 + L1 + L2 + L3:
        if span == "reductions.honest_transcript_source.draw":
            continue
        owner_path, attr = span.rsplit(".", 1)
        parts = owner_path.split(".")
        owner = by_name[parts[0]]
        for part in parts[1:]:
            owner = getattr(owner, part)
        if size == "bytes":
            sizer = _bytes_sizer(attr)
        else:
            sizer = _size_of(size)
        wrap(owner, attr, span, size=sizer, modules=modules)

    reductions = by_name["reductions"]
    draw_rows = _size_of("rows")
    wrap(reductions, "honest_transcript_source", "reductions.honest_transcript_source",
         result=lambda draw: tracer.traced(draw, "reductions.honest_transcript_source.draw", draw_rows),
         modules=modules)

    authsvc = by_name["authsvc"]
    wrap(socket, "create_connection", CONNECT)
    wrap(authsvc, "_expect", lambda args: CHALLENGE_WAIT if args[1] == authsvc.CHALLENGE else DECISION_WAIT)
    wrap(authsvc, "authenticate", AUTHENTICATE)


def _bytes_sizer(attr):
    if attr.startswith("dump_"):
        return lambda args, value: len(value)
    if attr.startswith("load_"):
        return lambda args, value: len(args[0])
    if attr == "write_transcripts":
        return lambda args, value: args[0].tell() if hasattr(args[0], "tell") else 0
    if attr == "read_transcripts":
        return lambda args, value: len(args[0].getvalue()) if hasattr(args[0], "getvalue") else 0
    raise ValueError(attr)


def install_server(tracer, modules) -> dict:
    """Wrap the server half of L4; returns a dict whose ``peak_threads``
    holds the most threads seen alive when a handshake starts."""
    by_name = _by_name(modules)
    authsvc, gf2core, protocols = by_name["authsvc"], by_name["gf2core"], by_name["protocols"]
    wrap = tracer.wrap
    wrap(authsvc, "read_frame", "authsvc.read_frame")
    wrap(authsvc, "encode_frame", "authsvc.encode_frame")
    for attr in ("load_matrix", "load_bits", "dump_matrix"):
        wrap(gf2core, attr, "gf2core." + attr, modules=modules)
    wrap(protocols, "verify", "protocols.verify", modules=modules)
    wrap(protocols, "format_transcript", "protocols.format_transcript", modules=modules)

    stats = {"peak_threads": 0, "requests": 0}
    lock = threading.Lock()
    handle = authsvc.AuthService._handle

    def counted(service, sock):
        with lock:
            stats["requests"] += 1
            tracer.set_request(stats["requests"])
            stats["peak_threads"] = max(stats["peak_threads"], threading.active_count())
        return handle(service, sock)

    tracer.patch(authsvc.AuthService, "_handle", tracer.traced(counted, "authsvc.AuthService._handle"))
    return stats


def server_summary(tracer, stats) -> dict:
    """The server's per-layer figures, keyed as in PER_LAYER."""
    agg = tracer.aggregate()
    out = {"server.peak_threads": stats["peak_threads"]}
    for short, spans in SERVER_FUNCTIONS:
        out["server.%s.calls" % short] = sum(agg.get(s, {}).get("calls", 0) for s in spans)
        out["server.%s.self_ms" % short] = sum(agg.get(s, {}).get("self_ms", 0.0) for s in spans)
    return out


def layer_metrics(spans, server: dict, extras: dict) -> dict:
    """Every PER_LAYER metric from this process's spans, the server's summary
    and figures the phases measured themselves (``extras``)."""
    agg = aggregate(spans)
    values = {}
    for span, size in L0 + L1 + L2 + L3:
        entry = agg.get(span, {"calls": 0, "self_ms": 0.0, "size": 0})
        values[span + ".calls"] = entry["calls"]
        values[span + ".self_ms"] = entry["self_ms"]
        if size:
            values[span + "." + size] = entry["size"]
    sessions = agg.get("protocols.run_session", {}).get("calls", 0)
    for fn in ("gf2core.as_bits", "gf2core.as_bit_matrix"):
        under = count_under(spans, fn, "protocols.run_session")
        values[fn + ".calls_per_session"] = under / sessions if sessions else 0.0
    rows, busy = sum_size_under(spans, "nlfunc.apply_f_batch", KEYSEARCH)
    values["attacks.keysearch.candidates_per_s"] = rows / busy if busy else 0.0

    handshakes = agg.get(AUTHENTICATE, {}).get("calls", 0)
    total = {name: agg.get(name, {}).get("total_ms", 0.0)
             for name in (AUTHENTICATE, CONNECT, CHALLENGE_WAIT, DECISION_WAIT)}
    per = (lambda ms: ms / handshakes) if handshakes else (lambda ms: 0.0)
    values[AUTHENTICATE + ".calls"] = handshakes
    values["authsvc.client.connect_ms"] = per(total[CONNECT])
    values["authsvc.client.challenge_wait_ms"] = per(total[CHALLENGE_WAIT])
    values["authsvc.client.decision_wait_ms"] = per(total[DECISION_WAIT])
    values["authsvc.client.compute_ms"] = per(
        total[AUTHENTICATE] - total[CONNECT] - total[CHALLENGE_WAIT] - total[DECISION_WAIT])
    values["authsvc.client.frame_bytes_per_handshake"] = (
        extras["frame_bytes"] / handshakes if handshakes else 0.0)
    values.update(server)
    values["trace.spans"] = len(spans)
    for name in ("drivers.keys_recovered", "drivers.key_attempts", "loadgen.cpu_share",
                 "loadgen.open_lateness_p50_ms", "loadgen.open_lateness_p99_ms",
                 "handshakes_per_s", "handshake_p50_ms", "open_p50_ms",
                 "handshake_p99_ms", "open_p99_ms", "keysearch_s", "reduction_s",
                 "analysis_s", "trace.overhead_pct"):
        values[name] = extras[name]
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}

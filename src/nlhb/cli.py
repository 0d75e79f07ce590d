"""Command-line front end: simulation, analysis, attacks, reductions, service.

Every randomized subcommand reports the seed it ran under as its first output
row, so any table can be regenerated exactly.  Output is TSV by default
(`--format text` for aligned key/value lines); rows starting with ``#`` are
human-oriented summaries.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from fractions import Fraction

import numpy as np

from . import attacks, authsvc, reductions
from .cost import count_ops
from .gf2core import (
    DimensionError,
    FormatError,
    ParameterError,
    RandomSource,
    mat_vec_mul,
    read_entries,
    read_text,
    _pack_hex,
)
from .nlfunc import (
    DEFAULT_SPEC,
    IDENTITY_SPEC,
    balance_check,
    format_spec,
    max_entropy_functions,
    merge_error_distribution,
    parse_spec,
)
from .params import MAX_D, false_accept, false_reject, find_min_D, threshold_u
from .protocols import (
    ProtocolParams,
    SecretKey,
    generate_key,
    read_transcripts,
    run_session,
    transcript_sampler,
    write_transcripts,
)

_DOMAIN_ERRORS = (
    ParameterError,
    FormatError,
    DimensionError,
    attacks.NeedMoreSamplesError,
    authsvc.ServiceError,
    OSError,
)


# ---------------------------------------------------------------------------
# plumbing: config merge, seeds, report writing
# ---------------------------------------------------------------------------

def _merge_config(argv: list[str]) -> list[str]:
    """Expand ``--config FILE`` into flags placed before the explicit ones,
    so the command line wins on conflicts."""
    out = list(argv)
    for i, token in enumerate(out):
        path = None
        if token == "--config":
            if i + 1 >= len(out):
                raise ParameterError("--config needs a file path")
            path = out[i + 1]
            rest = out[:i] + out[i + 2 :]
        elif token.startswith("--config="):
            path = token.split("=", 1)[1]
            rest = out[:i] + out[i + 1 :]
        if path is None:
            continue
        if i == 0:
            raise ParameterError("--config belongs after the subcommand")
        settings: dict[str, str] = {}
        for entry in read_entries(read_text(path, "config file")):
            repeated = entry.keys() & settings.keys()
            if repeated:
                raise FormatError("config sets %r twice" % min(repeated))
            settings.update(entry)
        flags: list[str] = []
        for key, value in settings.items():
            if value.lower() in ("true", "false"):
                if value.lower() == "true":
                    flags.append("--%s" % key)
            else:
                flags.extend(["--%s" % key, value])
        return rest[:1] + flags + rest[1:]
    return out


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    return int.from_bytes(os.urandom(8), "big")


class Report:
    """Accumulates rows; renders TSV or aligned text to stdout or --out."""

    def __init__(self, fmt: str, out_path=None):
        self.fmt = fmt
        self.out_path = out_path
        self.rows: list[tuple[str, ...]] = []

    def row(self, *cells) -> None:
        self.rows.append(tuple(str(c) for c in cells))

    def comment(self, text: str) -> None:
        self.rows.append(("# " + text,))

    def render(self) -> str:
        if self.fmt == "tsv":
            return "".join("\t".join(r) + "\n" for r in self.rows)
        width = max((len(r[0]) for r in self.rows if len(r) > 1), default=0)
        lines = []
        for r in self.rows:
            if len(r) == 1:
                lines.append(r[0])
            else:
                lines.append("%-*s  %s" % (width, r[0], "  ".join(r[1:])))
        return "\n".join(lines) + "\n"

    def emit(self) -> None:
        text = self.render()
        if self.out_path:
            with open(self.out_path, "w", encoding="utf-8") as fp:
                fp.write(text)
        else:
            sys.stdout.write(text)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("expected a fraction like 1/4, got %r" % text)


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("expected a positive integer, got %r" % text)
    return value


def _u64(text: str) -> int:
    value = int(text)
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError("seed must fit in 64 bits")
    return value


def _widths(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated widths like 2,3, got %r" % text)


def _address(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit():
        raise argparse.ArgumentTypeError("expected host:port, got %r" % text)
    return host or "127.0.0.1", int(port)


def _spec(args):
    """The --spec map, or the protocol's default one."""
    if args.spec:
        return parse_spec(args.spec)
    return IDENTITY_SPEC if args.proto in ("hb", "hb+") else DEFAULT_SPEC


# Bits a command may hold in all the count k x n matrices it asks for: 2^28
# bits is 256 MB as uint8, room for 450 of the paper's 512 x 1164 challenges,
# and keeps numpy from being asked for gigabytes.
_MAX_BITS = 1 << 28


def _check_size(k: int, n: int, count: int = 1) -> None:
    # a factor below 1 draws nothing itself, but must not hide the others' size
    if max(count, 1) * max(k, 1) * max(n, 1) > _MAX_BITS:
        raise ParameterError(
            "count*k*n = %d*%d*%d exceeds the %d-bit limit" % (count, k, n, _MAX_BITS)
        )


def _build_params(args) -> ProtocolParams:
    spec = _spec(args)
    eps = args.eps if args.eps is not None else Fraction(1, 4)
    epsp = args.epsp if args.epsp is not None else (eps + Fraction(1, 2)) / 2
    n = args.n if args.n is not None else 256 + spec.p
    _check_size(args.k, n)
    return ProtocolParams(proto=args.proto, k=args.k, n=n, eps=eps, eps_prime=epsp, spec=spec)


def _add_common(sub, *, seeded: bool = True, out_help: str = "write the report here instead of stdout"):
    sub.add_argument("--format", choices=("tsv", "text"), default="tsv")
    sub.add_argument("--out", help=out_help)
    if seeded:
        sub.add_argument("--seed", type=_u64, help="64-bit seed (printed; random if omitted)")


def _add_protocol_flags(sub, *, proto_choices=("hb", "hb+", "nlhb", "nlhb+")):
    sub.add_argument("--proto", choices=proto_choices, default="nlhb")
    sub.add_argument("--k", type=int, default=16)
    sub.add_argument("--n", type=int)
    sub.add_argument("--eps", type=_fraction)
    sub.add_argument("--epsp", type=_fraction)
    sub.add_argument("--spec", help='nonlinear map, e.g. "p=3; g=x1x2+x1x3+x2x3"')


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_params(args) -> int:
    report = Report(args.format, args.out)
    if args.dd is not None:
        d = args.dd
        if d > MAX_D:
            raise ParameterError("D=%d exceeds %d, the largest D find_min_D scans" % (d, MAX_D))
        u = threshold_u(args.epsp, d)
        fa, fr = false_accept(d, u), false_reject(d, args.eps, u)
        report.row("D", d)
    else:
        found = find_min_D(args.eps, args.epsp, args.pfa, args.pfr)
        d, u, fa, fr = found.d, found.u, found.fa, found.fr
        report.row("D", d)
        report.comment("smallest D meeting 2^%g / 2^%g" % (args.pfa, args.pfr))
    report.row("u", u)
    report.row("log2_false_accept", "%.6f" % fa.log2)
    report.row("log2_false_reject", "%.6f" % fr.log2)
    report.emit()
    return 0


def _cmd_cost(args) -> int:
    ops = count_ops(args.proto, args.k, args.dd, spec=_spec(args))
    report = Report(args.format, args.out)
    report.row("proto", "k", "D", "multiplications", "additions")
    report.row(args.proto, args.k, args.dd, ops.scalar_multiplications, ops.scalar_additions)
    for name, mults, adds in ops.breakdown:
        report.row("phase:" + name, "", "", mults, adds)
    report.emit()
    return 0


def _cmd_analyze(args) -> int:
    report = Report(args.format, args.out)
    if args.enumerate:
        report.row("p", "max_entropy_bits", "maximizers", "g")
        for p in args.p:
            best, winners = max_entropy_functions(p)
            for spec in winners:
                report.row(p, "%g" % best, len(winners), format_spec(spec))
        report.emit()
        return 0
    if not args.spec:
        raise ParameterError("analyze needs --enumerate or --spec")
    spec = parse_spec(args.spec)
    dist = merge_error_distribution(spec)
    report.row("g", format_spec(spec))
    report.row("entropy_bits", "%g" % dist.entropy_bits())
    report.row("support", len(dist.probabilities))
    for outcome, prob in sorted(dist.probabilities.items()):
        report.row("P[%s]" % "".join(map(str, outcome)), prob)
    if args.balance_n:
        check = balance_check(spec, args.balance_n)
        report.row("balanced_at_n_%d" % args.balance_n, check.is_uniform)
    report.emit()
    return 0


def _cmd_simulate(args) -> int:
    report = Report(args.format, None)
    if args.replay:
        transcripts = read_transcripts(args.replay)
        report.row("record", "proto", "k", "n", "decision", "distance")
        for i, t in enumerate(transcripts):
            report.row(i, t.proto, t.params.k, t.params.n,
                       "accept" if t.accepted else "reject", t.distance)
        report.emit()
        return 0
    params = _build_params(args)
    _check_size(params.k, params.n, args.sessions)
    seed = _resolve_seed(args)
    root = RandomSource(seed)
    key = generate_key(params, root.derive("key"))
    rng_prover = root.derive("prover")
    rng_verifier = root.derive("verifier")
    report.row("seed", seed)
    report.row("session", "decision", "distance")
    transcripts = []
    accepted = 0
    for i in range(args.sessions):
        t = run_session(params, key, rng_prover, rng_verifier)
        transcripts.append(t)
        accepted += int(t.accepted)
        report.row(i, "accept" if t.accepted else "reject", t.distance)
    report.comment("%d/%d sessions accepted (u=%d, D=%d)"
                   % (accepted, args.sessions, params.u, params.d))
    if args.out:
        write_transcripts(args.out, transcripts)
        report.comment("transcripts written to %s" % args.out)
    report.emit()
    return 0


def _cmd_attack(args) -> int:
    params = _build_params(args)
    # each transcript yields D column samples
    n_transcripts = max(4, -(-args.samples // params.d))
    if args.attack == "majority":
        _check_size(1, params.d, args.reps or 1)
    else:
        _check_size(params.k, params.n, n_transcripts)
    seed = _resolve_seed(args)
    root = RandomSource(seed)
    key = generate_key(params, root.derive("key"))
    report = Report(args.format, args.out)
    report.row("seed", seed)

    if args.attack == "majority":
        oracle = attacks.make_prover_oracle(params, key, root.derive("oracle"))
        result = attacks.majority_vote_attack(
            oracle, params.k, args.reps, params, rng=root.derive("attack")
        )
    else:
        transcripts = transcript_sampler(params, key, root.derive("samples"), n_transcripts)
        if args.attack == "lf2":
            result = attacks.lf2_attack(transcripts, args.b, params)
        else:
            result = attacks.noise_free_selection_attack(
                transcripts, params.k, args.trials, rng=root.derive("attack")
            )

    report.row("attack", result.attack)
    report.row("proto", result.proto)
    report.row("queries", result.queries)
    report.row("success", result.success)
    if result.recovered_key is not None:
        report.row("recovered_key", _pack_hex(result.recovered_key))
        report.row("planted_key", _pack_hex(key.s1))
        report.row("key_match", bool(np.array_equal(result.recovered_key, key.s1)))
    for name, value in sorted(result.stats.items()):
        if isinstance(value, float):
            report.row("stat:" + name, "%.6g" % value)
        elif not isinstance(value, (list, dict)):
            report.row("stat:" + name, value)
    verdict = "recovered the planted key" if result.success else "did not recover the key"
    report.comment("%s attack on %s %s" % (result.attack, result.proto, verdict))
    report.emit()
    return 0


def _cmd_reduce(args) -> int:
    seed = _resolve_seed(args)
    root = RandomSource(seed)
    report = Report(args.format, args.out)
    report.row("seed", seed)
    mode = args.mode

    if mode == "embed":
        spec = parse_spec(args.spec) if args.spec else DEFAULT_SPEC
        eps = args.eps if args.eps is not None else Fraction(1, 8)
        _check_size(args.k, max(args.n, args.nprime), args.instances)
        secret = root.derive("secret").uniform_bits(args.k)
        rng = root.derive("embed")
        instances = []
        layout = None
        for _ in range(args.instances):
            g = rng.uniform_matrix(args.k, args.nprime)
            z = mat_vec_mul(secret, g) ^ rng.bernoulli_bits(args.nprime, eps)
            a, y, layout = reductions.lpn_to_unld_embed(g, z, spec, args.n, rng, eps)
            instances.append((a, y))
        recovered, distance = reductions.brute_force_unld(instances, args.k, spec)
        report.row("positions", " ".join(map(str, layout.positions)))
        report.row("gaps", " ".join(map(str, layout.gaps)))
        report.row("instances", args.instances)
        report.row("recovered", _pack_hex(recovered))
        report.row("planted", _pack_hex(secret))
        report.row("match", bool(np.array_equal(recovered, secret)))
        report.row("total_distance", distance)
        report.comment("LPN secret %s through the widened instance"
                       % ("recovered" if np.array_equal(recovered, secret) else "missed"))
        report.emit()
        return 0

    if mode == "hybrid":
        params = _build_params(args)
        key = generate_key(params, root.derive("key"))
        t = run_session(params, key, root.derive("prover"), root.derive("verifier"))
        strings = reductions.transcript_batch(params, [t])
        hybrid = reductions.hybrid_sample(strings, args.row, params, root.derive("hybrid"))
        a2, z2 = reductions.batch_views(hybrid, params)
        report.row("row", args.row)
        report.row("original_row", _pack_hex(t.a[args.row - 1]))
        report.row("perturbed_row", _pack_hex(a2[0, args.row - 1]))
        report.row("z", _pack_hex(z2[0]))
        report.comment("row %d re-randomized; response left untouched" % args.row)
        report.emit()
        return 0

    params = _build_params(args)
    # a distinguisher batch holds at most q + 1 strings
    _check_size(1, reductions.string_length(params), args.q + 1)
    key = generate_key(params, root.derive("key"))

    if mode == "thm2":
        oracle = reductions.ideal_distinguisher(params, key, q=args.q, seed=seed)
        source = reductions.honest_transcript_source(params, key, root.derive("source"))
        recovered = reductions.algorithm_x(
            oracle, source, params.k, n_batches=args.batches
        )
        report.row("recovered", _pack_hex(recovered))
        report.row("planted", _pack_hex(key.s1))
        report.row("match", bool(np.array_equal(recovered, key.s1)))
        report.comment("algorithm X against the ideal distinguisher")
        report.emit()
        return 0

    if mode == "thm3":
        forger = {
            "perfect": lambda: reductions.PerfectPassiveForger(params, key, q=args.q),
            "honest": lambda: reductions.HonestPassiveForger(params, key, q=args.q),
            "random": lambda: reductions.RandomPassiveForger(params, q=args.q),
        }[args.adversary]()
        oracle = reductions.forger_to_distinguisher(forger, args.q, args.epsdd, seed=seed)
        low, high = reductions.passive_distinguisher_interval(params)
        plain = params
    else:  # thm4: the parser admits only hb+ and nlhb+
        forced = SecretKey(s1=key.s1, s2=reductions.rewinding_s2(params, seed))
        forger = {
            "perfect": lambda: reductions.HonestActiveForger(params, forced, q=args.q, noisy=False),
            "honest": lambda: reductions.HonestActiveForger(params, forced, q=args.q),
            "random": lambda: reductions.RandomActiveForger(params, q=args.q),
            "learning": lambda: reductions.ExtractingActiveForger(params, key.s1, q=args.q),
        }[args.adversary]()
        oracle = reductions.active_forger_to_distinguisher(forger, args.q, args.eps1, seed=seed)
        low, high = reductions.rewinding_distinguisher_interval(params)
        plain = dataclasses.replace(params, proto=params.proto.rstrip("+"))
    # both wrappers read their input strings as single-secret transcripts
    honest_src = reductions.honest_transcript_source(
        plain, SecretKey(s1=key.s1), root.derive("honest")
    )
    uniform_src = reductions.uniform_string_source(plain, root.derive("uniform"))
    trials = args.trials
    hon = sum(oracle(honest_src(oracle.q)) for _ in range(trials))
    uni = sum(oracle(uniform_src(oracle.q)) for _ in range(trials))

    report.row("adversary", args.adversary)
    report.row("threshold_interval", "(%s, %s)" % (low, high))
    report.row("declared_advantage", "%.6f" % oracle.advantage)
    report.row("honest_rate", "%d/%d" % (hon, trials))
    report.row("uniform_rate", "%d/%d" % (uni, trials))
    report.row("gap", "%.4f" % ((hon - uni) / trials))
    report.comment("distinguisher separation between honest and uniform input")
    report.emit()
    return 0


def _cmd_serve(args) -> int:
    keystore = authsvc.read_keystore(args.keystore)
    seed = _resolve_seed(args)
    service = authsvc.AuthService(
        args.bind,
        keystore,
        seed=seed,
        mute_decisions=args.mute_decisions,
        log_path=args.log,
    ).start()
    host, port = service.address
    sys.stdout.write("seed\t%d\nlistening\t%s:%d\n" % (seed, host, port))
    sys.stdout.flush()
    try:
        while service._thread.is_alive():
            service._thread.join(timeout=3600)
    except KeyboardInterrupt:
        return 0
    finally:
        service.shutdown()
    sys.stderr.write("error: the server thread stopped\n")
    return 1


def _cmd_auth(args) -> int:
    entries = authsvc.read_keystore(args.key_file)
    entry = entries.get(args.identity)
    if entry is None:
        raise ParameterError(
            "identity %r not present in %s" % (args.identity, args.key_file)
        )
    seed = _resolve_seed(args)
    accepted, distance = authsvc.authenticate(
        args.server,
        args.identity,
        entry.key,
        entry.params,
        rng=RandomSource(seed),
        timeout=args.timeout,
    )
    report = Report(args.format, args.out)
    report.row("seed", seed)
    report.row("identity", args.identity)
    if accepted is None:
        report.row("decision", "muted")
        report.emit()
        return 0
    report.row("decision", "accept" if accepted else "reject")
    report.row("distance", distance)
    report.row("threshold_u", entry.params.u)
    report.emit()
    return 0 if accepted else 1


# ---------------------------------------------------------------------------
# parser assembly and dispatch
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlhb",
        description="HB-family protocols: simulate, analyze, attack, reduce, serve.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("params", help="certify or search acceptance thresholds")
    p.add_argument("--eps", type=_fraction, required=True)
    p.add_argument("--epsp", type=_fraction, required=True)
    p.add_argument("--dd", type=int, help="certify this D instead of searching")
    p.add_argument("--pfa", type=float, default=-80.0, help="log2 false-accept target")
    p.add_argument("--pfr", type=float, default=-40.0, help="log2 false-reject target")
    _add_common(p, seeded=False)
    p.set_defaults(func=_cmd_params)

    p = subs.add_parser("cost", help="per-session GF(2) operation counts")
    p.add_argument("--proto", choices=("hb", "hb+", "nlhb", "nlhb+"), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--dd", type=int, required=True, help="response length D")
    p.add_argument("--spec")
    _add_common(p, seeded=False)
    p.set_defaults(func=_cmd_cost)

    p = subs.add_parser("analyze", help="merge-error distributions and entropy")
    p.add_argument("--enumerate", action="store_true", help="rank all window maps")
    p.add_argument("--p", type=_widths, default=[2, 3, 4],
                   help="comma-separated window widths (default 2,3,4)")
    p.add_argument("--spec", help="analyze one map instead of enumerating")
    p.add_argument("--balance-n", type=int, help="also check balance at this n")
    _add_common(p, seeded=False)
    p.set_defaults(func=_cmd_analyze)

    p = subs.add_parser("simulate", help="run honest sessions / replay transcripts")
    _add_protocol_flags(p)
    p.add_argument("--sessions", type=_positive, default=10)
    p.add_argument("--replay", help="re-read a transcript file instead of simulating")
    _add_common(p, out_help="write the session transcripts to this file")
    p.set_defaults(func=_cmd_simulate)

    p = subs.add_parser("attack", help="key-recovery attacks at desk scale")
    p.add_argument("--attack", choices=("majority", "lf2", "noisefree"), required=True)
    _add_protocol_flags(p, proto_choices=("hb", "nlhb"))
    p.set_defaults(proto="hb")
    p.add_argument("--b", type=int, default=8, help="LF2 block width")
    p.add_argument(
        "--samples", type=_positive, default=16384,
        help="column samples to draw for lf2/noisefree (transcripts = ceil(samples/D))",
    )
    p.add_argument("--reps", type=int, help="majority-vote repetitions")
    p.add_argument("--trials", type=int, default=64, help="noise-free selection trials")
    _add_common(p)
    p.set_defaults(func=_cmd_attack)

    p = subs.add_parser("reduce", help="security-reduction constructions")
    modes = p.add_subparsers(dest="mode", required=True)

    m = modes.add_parser("embed", help="widen LPN samples into the nonlinear code")
    m.add_argument("--k", type=int, default=8)
    m.add_argument("--nprime", type=int, default=10)
    m.add_argument("--n", type=int, default=31)
    m.add_argument("--spec")
    m.add_argument("--eps", type=_fraction)
    m.add_argument("--instances", type=int, default=6)
    _add_common(m)
    m.set_defaults(func=_cmd_reduce)

    m = modes.add_parser("hybrid", help="re-randomize one challenge row")
    _add_protocol_flags(m)
    m.add_argument("--row", type=int, default=1)
    _add_common(m)
    m.set_defaults(func=_cmd_reduce)

    m = modes.add_parser("thm2", help="algorithm X against the ideal distinguisher")
    _add_protocol_flags(m, proto_choices=("hb", "nlhb"))
    m.add_argument("--q", type=int, default=2)
    m.add_argument("--batches", type=int, default=32)
    _add_common(m)
    m.set_defaults(func=_cmd_reduce)

    m = modes.add_parser("thm3", help="passive forger to distinguisher rates")
    _add_protocol_flags(m, proto_choices=("hb", "nlhb"))
    m.add_argument("--adversary", choices=("perfect", "random", "honest"), default="perfect")
    m.add_argument("--q", type=int, default=2)
    m.add_argument("--epsdd", type=_fraction, help="accept threshold rate (default midpoint)")
    m.add_argument("--trials", type=_positive, default=100)
    _add_common(m)
    m.set_defaults(func=_cmd_reduce)

    m = modes.add_parser("thm4", help="active forger to distinguisher via rewinding")
    _add_protocol_flags(m, proto_choices=("hb+", "nlhb+"))
    m.set_defaults(proto="nlhb+")
    m.add_argument(
        "--adversary",
        choices=("perfect", "random", "honest", "learning"),
        default="learning",
    )
    m.add_argument("--q", type=int, default=5)
    m.add_argument("--eps1", type=_fraction, help="accept threshold rate (default midpoint)")
    m.add_argument("--trials", type=_positive, default=100)
    _add_common(m)
    m.set_defaults(func=_cmd_reduce)

    p = subs.add_parser("serve", help="run the verifier service")
    p.add_argument("--bind", type=_address, default=("127.0.0.1", 9630))
    p.add_argument("--keystore", required=True)
    p.add_argument("--mute-decisions", action="store_true")
    p.add_argument("--log", help="append-only transcript log path")
    p.add_argument("--seed", type=_u64)
    p.set_defaults(func=_cmd_serve)

    p = subs.add_parser("auth", help="authenticate against a running service")
    p.add_argument("--server", type=_address, required=True)
    p.add_argument("--identity", required=True)
    p.add_argument("--key-file", required=True, help="keystore file holding the identity")
    p.add_argument("--timeout", type=float, default=10.0)
    _add_common(p)
    p.set_defaults(func=_cmd_auth)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        argv = _merge_config(argv)
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse usage failures exit 2
        return int(exc.code or 0)
    except _DOMAIN_ERRORS as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Command-line front end: simulation, analysis, attacks, reductions, service.

Every randomized subcommand reports the seed it ran under as its first output
row, so any table can be regenerated exactly.  Output is TSV by default
(`--format text` for aligned columns); rows starting with ``#`` are
human-oriented summaries.  Each subcommand only fills a report: `main` builds
it and emits it once the command returns, so a command that raises prints no
report and writes no ``--out`` file.
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
    check_held,
    mat_vec_mul,
    read_entries,
    read_text,
    _pack_hex,
    _rate,
)
from .nlfunc import (
    DEFAULT_SPEC,
    balance_check,
    format_spec,
    max_entropy_functions,
    merge_error_distribution,
    parse_spec,
)
from .params import MAX_D, check_rates, false_accept, false_reject, find_min_D, threshold_u
from .protocols import (
    PROTOCOLS,
    ProtocolParams,
    SecretKey,
    generate_key,
    read_transcripts,
    response_map,
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
    """Expand ``--config FILE`` into flags placed after the subcommand path
    (the leading tokens that are not flags, e.g. ``reduce thm2``) and before
    the explicit flags, so the command line wins on conflicts."""
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
            for key, value in entry.items():  # typed text: spaces around "=" are allowed
                key = key.strip()
                if key in settings:
                    raise FormatError("config sets %r twice" % key)
                settings[key] = value.strip()
        flags: list[str] = []
        for key, value in settings.items():
            if value.lower() in ("true", "false"):
                if value.lower() == "true":
                    flags.append("--%s" % key)
            else:
                flags.extend(["--%s" % key, value])
        head = 0
        while head < len(rest) and not rest[head].startswith("-"):
            head += 1
        return rest[:head] + flags + rest[head:]
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
        # a cell is padded to the widest cell of its column that is not a row's last
        widths = [max((len(r[i]) for r in self.rows if len(r) > i + 1), default=0)
                  for i in range(max(map(len, self.rows), default=1) - 1)]
        lines = ["  ".join([c.ljust(w) for c, w in zip(r[:-1], widths)] + [r[-1]])
                 for r in self.rows]
        return "\n".join(lines) + "\n"

    def emit(self) -> None:
        text = self.render()
        if self.out_path:
            with open(self.out_path, "w", encoding="utf-8") as fp:
                fp.write(text)
        else:
            sys.stdout.write(text)


def _fraction(text: str) -> Fraction:
    """A typed rate such as ``1/4`` or ``0.25``, read by :func:`gf2core._rate`."""
    try:
        return _rate(text)
    except ParameterError:
        raise argparse.ArgumentTypeError("expected a fraction like 1/4 or 0.25, got %r" % text) from None


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
    if not sep or not port.isdigit() or int(port) > 65535:
        raise argparse.ArgumentTypeError(
            "expected host:port with a port up to 65535, got %r" % text
        )
    return host or "127.0.0.1", int(port)


# Longest --timeout accepted: a day.  Far longer ones overflow the socket
# layer's time_t (1e10 s already does on Linux).
_MAX_TIMEOUT = 86400.0


def _timeout(text: str) -> float:
    value = float(text)
    if not 0 < value <= _MAX_TIMEOUT:  # also refuses nan
        raise argparse.ArgumentTypeError(
            "expected seconds above 0 and at most %g, got %r" % (_MAX_TIMEOUT, text)
        )
    return value


def _finite(text: str) -> float:
    value = float(text)
    if not abs(value) < float("inf"):  # also refuses nan
        raise argparse.ArgumentTypeError("expected a finite number, got %r" % text)
    return value


def _spec(args):
    """The --spec map, or the protocol's default one."""
    spec = response_map(args.proto, None if args.spec is None else parse_spec(args.spec))
    return DEFAULT_SPEC if spec is None else spec


def _check_size(k: int, n: int, count: int = 1) -> None:
    # a factor below 1 draws nothing itself, but must not hide the others' size
    check_held(max(count, 1), max(k, 1) * max(n, 1))


def _build_params(args) -> ProtocolParams:
    spec = _spec(args)
    eps = args.eps if args.eps is not None else Fraction(1, 4)
    epsp = args.epsp if args.epsp is not None else (eps + Fraction(1, 2)) / 2
    n = args.n if args.n is not None else 256 + spec.p
    _check_size(args.k, n)
    return ProtocolParams(proto=args.proto, k=args.k, n=n, eps=eps, eps_prime=epsp, spec=spec)


def _root(args, report) -> RandomSource:
    """The command's root source; its seed is the report's first row."""
    seed = _resolve_seed(args)
    report.row("seed", seed)
    return RandomSource(seed)


def _keyed(args, report):
    """Params from the protocol flags, the root source, and the key drawn from it."""
    params = _build_params(args)
    root = _root(args, report)
    return params, root, generate_key(params, root.derive("key"))


def _add_common(sub, *, seeded: bool = True, out: bool = True):
    """--format, --seed if seeded, and --out for the report unless the
    command gives --out another meaning."""
    sub.add_argument("--format", choices=("tsv", "text"), default="tsv")
    if out:
        sub.add_argument("--out", dest="report", help="write the report here instead of stdout")
    if seeded:
        sub.add_argument("--seed", type=_u64, help="64-bit seed (printed; random if omitted)")


def _add_protocol_flags(sub, proto="nlhb", k=16, *, proto_choices=PROTOCOLS):
    sub.add_argument("--proto", choices=proto_choices, default=proto)
    sub.add_argument("--k", type=int, default=k)
    sub.add_argument("--n", type=int)
    sub.add_argument("--eps", type=_fraction)
    sub.add_argument("--epsp", type=_fraction)
    sub.add_argument("--spec", help='nonlinear map, e.g. "p=3; g=x1x2+x1x3+x2x3"')


# ---------------------------------------------------------------------------
# subcommands: each fills the report that main builds and emits
# ---------------------------------------------------------------------------

def _cmd_params(args, report) -> None:
    if args.dd is not None:
        d = args.dd
        if d > MAX_D:
            raise ParameterError("D=%d exceeds %d, the largest D find_min_D scans" % (d, MAX_D))
        eps, epsp = check_rates(args.eps, args.epsp)
        u = threshold_u(epsp, d)
        fa, fr = false_accept(d, u), false_reject(d, eps, u)
        report.row("D", d)
    else:
        found = find_min_D(args.eps, args.epsp, args.pfa, args.pfr)
        d, u, fa, fr = found.d, found.u, found.fa, found.fr
        report.row("D", d)
        report.comment("smallest D meeting 2^%g / 2^%g" % (args.pfa, args.pfr))
    report.row("u", u)
    report.row("log2_false_accept", "%.6f" % fa.log2)
    report.row("log2_false_reject", "%.6f" % fr.log2)


def _cmd_cost(args, report) -> None:
    ops = count_ops(args.proto, args.k, args.dd, spec=_spec(args))
    report.row("proto", "k", "D", "multiplications", "additions")
    report.row(args.proto, args.k, args.dd, ops.scalar_multiplications, ops.scalar_additions)
    for name, mults, adds in ops.breakdown:
        report.row("phase:" + name, "", "", mults, adds)


def _cmd_analyze(args, report) -> None:
    if args.enumerate:
        report.row("p", "max_entropy_bits", "maximizers", "g")
        for p in args.p:
            best, winners = max_entropy_functions(p)
            for spec in winners:
                report.row(p, "%g" % best, len(winners), format_spec(spec))
        return
    if args.spec is None:
        raise ParameterError("analyze needs --enumerate or --spec")
    spec = parse_spec(args.spec)
    # first, so that a refused balance stops the merge; only its verdict is held
    balanced = None if args.balance_n is None else balance_check(spec, args.balance_n).is_uniform
    dist = merge_error_distribution(spec)
    report.row("g", format_spec(spec))
    report.row("entropy_bits", "%g" % dist.entropy_bits())
    report.row("support", len(dist.probabilities))
    for outcome, prob in sorted(dist.probabilities.items()):
        report.row("P[%s]" % "".join(map(str, outcome)), prob)
    if balanced is not None:
        report.row("balanced_at_n_%d" % args.balance_n, balanced)


def _cmd_simulate(args, report) -> None:
    if args.replay is not None:
        transcripts = read_transcripts(args.replay)
        report.row("record", "proto", "k", "n", "decision", "distance")
        for i, t in enumerate(transcripts):
            report.row(i, t.proto, t.params.k, t.params.n,
                       "accept" if t.accepted else "reject", t.distance)
        return
    params, root, key = _keyed(args, report)
    _check_size(params.k, params.n, args.sessions)
    rng_prover = root.derive("prover")
    rng_verifier = root.derive("verifier")
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


def _cmd_attack(args, report) -> None:
    params, root, key = _keyed(args, report)
    if args.attack == "majority":
        _check_size(1, params.d, args.reps or 1)
        oracle = attacks.make_prover_oracle(params, key, root.derive("oracle"))
        result = attacks.majority_vote_attack(
            oracle, params.k, args.reps, params, rng=root.derive("attack")
        )
    else:
        # each transcript yields D column samples
        n_transcripts = max(4, -(-args.samples // params.d))
        _check_size(params.k, params.n, n_transcripts)
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


def _cmd_embed(args, report) -> None:
    root = _root(args, report)
    spec = parse_spec(args.spec) if args.spec is not None else DEFAULT_SPEC
    _check_size(args.k, max(args.n, args.nprime), args.instances)
    secret = root.derive("secret").uniform_bits(args.k)
    rng = root.derive("embed")
    instances = []
    layout = None
    for _ in range(args.instances):
        g = rng.uniform_matrix(args.k, args.nprime)
        z = mat_vec_mul(secret, g) ^ rng.bernoulli_bits(args.nprime, args.eps)
        a, y, layout = reductions.lpn_to_unld_embed(g, z, spec, args.n, rng, args.eps)
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


def _cmd_hybrid(args, report) -> None:
    params, root, key = _keyed(args, report)
    t = run_session(params, key, root.derive("prover"), root.derive("verifier"))
    strings = reductions.transcript_batch(params, [t])
    hybrid = reductions.hybrid_sample(strings, args.row, params, root.derive("hybrid"))
    a2, z2 = reductions.batch_views(hybrid, params)
    report.row("row", args.row)
    report.row("original_row", _pack_hex(t.a[args.row - 1]))
    report.row("perturbed_row", _pack_hex(a2[0, args.row - 1]))
    report.row("z", _pack_hex(z2[0]))
    report.comment("row %d re-randomized; response left untouched" % args.row)


def _cmd_thm2(args, report) -> None:
    params, root, key = _keyed(args, report)
    # a distinguisher batch holds at most q + 1 strings
    _check_size(1, reductions.string_length(params), args.q + 1)
    oracle = reductions.ideal_distinguisher(params, key, q=args.q, seed=root.seed)
    source = reductions.honest_transcript_source(params, key, root.derive("source"))
    recovered = reductions.algorithm_x(oracle, source, params.k, n_batches=args.batches)
    report.row("recovered", _pack_hex(recovered))
    report.row("planted", _pack_hex(key.s1))
    report.row("match", bool(np.array_equal(recovered, key.s1)))
    report.comment("algorithm X against the ideal distinguisher")


def _cmd_forger_rates(args, report) -> None:
    """thm3 (hb, nlhb: a passive forger) and thm4 (hb+, nlhb+: an active one,
    rewound): the forger as a distinguisher, on honest and on uniform input."""
    params, root, key = _keyed(args, report)
    _check_size(1, reductions.string_length(params), args.q + 1)
    seed = root.seed
    if not params.blinded:
        forger = {
            "perfect": lambda: reductions.PerfectPassiveForger(params, key, q=args.q),
            "honest": lambda: reductions.HonestPassiveForger(params, key, q=args.q),
            "random": lambda: reductions.RandomPassiveForger(params, q=args.q),
        }[args.adversary]()
        oracle = reductions.forger_to_distinguisher(forger, args.q, args.epsdd, seed=seed)
        low, high = reductions.passive_distinguisher_interval(params)
        plain = params
    else:
        forced = SecretKey(s1=key.s1, s2=reductions.rewinding_s2(params, seed))
        forger = {
            "perfect": lambda: reductions.HonestActiveForger(params, forced, noisy=False),
            "honest": lambda: reductions.HonestActiveForger(params, forced),
            "random": lambda: reductions.RandomActiveForger(params),
            "learning": lambda: reductions.ExtractingActiveForger(params, key.s1),
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


def _cmd_serve(args, report) -> int:
    # the report stays empty: the seed and address print before serve_forever blocks
    keystore = authsvc.read_keystore(args.keystore)
    seed = _resolve_seed(args)
    service = authsvc.AuthService(
        args.bind, keystore, seed=seed, mute_decisions=args.mute_decisions, log_path=args.log
    )
    host, port = service.address
    print("seed\t%d\nlistening\t%s:%d" % (seed, host, port), flush=True)
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        return 0
    finally:
        service.server_close()
    sys.stderr.write("error: the server stopped\n")
    return 1


def _cmd_auth(args, report) -> int:
    entries = authsvc.read_keystore(args.key_file)
    entry = entries.get(args.identity)
    if entry is None:
        raise ParameterError(
            "identity %r not present in %s" % (args.identity, args.key_file)
        )
    root = _root(args, report)
    accepted, distance = authsvc.authenticate(
        args.server,
        args.identity,
        entry.key,
        entry.params,
        rng=root,
        timeout=args.timeout,
    )
    report.row("identity", args.identity)
    if accepted is None:
        report.row("decision", "muted")
        return 0
    report.row("decision", "accept" if accepted else "reject")
    report.row("distance", distance)
    report.row("threshold_u", entry.params.u)
    return 0 if accepted else 1


# ---------------------------------------------------------------------------
# parser assembly and dispatch
# ---------------------------------------------------------------------------

# The flags that only some modes of a command read, with their defaults, keyed
# by command and then by mode: --attack's value, or whether --dd, --enumerate
# or --replay is given.  These flags take no argparse default, so a flag is
# given exactly when it is not None.
_MODES = {
    "params": ("dd", {True: {}, False: dict(pfa=-80.0, pfr=-40.0)}),
    "analyze": ("enumerate", {True: dict(p=(2, 3, 4)), False: dict(spec=None, balance_n=None)}),
    "simulate": ("replay", {True: {}, False: dict(proto="nlhb", k=16, n=None, eps=None, epsp=None,
                                                 spec=None, sessions=10, out=None, seed=None)}),
    "attack": ("attack", {"majority": dict(reps=None), "lf2": dict(b=8, samples=16384),
                          "noisefree": dict(samples=16384, trials=64)}),
}


def _apply_mode(parser, args) -> None:
    """Refuse a given flag of _MODES the chosen mode does not read; fill its defaults."""
    if args.command not in _MODES:
        return
    flag, modes = _MODES[args.command]
    value = getattr(args, flag)
    mode = value if flag == "attack" else value is not None
    reads = modes[mode]
    for dest in dict.fromkeys(d for other in modes.values() for d in other):
        if dest not in reads and getattr(args, dest) is not None:
            how = ("--attack " + value if flag == "attack"
                   else ("--" if mode else "without --") + flag)
            parser.error("%s %s does not read --%s" % (args.command, how, dest.replace("_", "-")))
    for dest, default in reads.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)


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
    p.add_argument("--pfa", type=_finite, help="log2 false-accept target")
    p.add_argument("--pfr", type=_finite, help="log2 false-reject target")
    _add_common(p, seeded=False)
    p.set_defaults(func=_cmd_params)

    p = subs.add_parser("cost", help="per-session GF(2) operation counts")
    p.add_argument("--proto", choices=PROTOCOLS, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--dd", type=int, required=True, help="response length D")
    p.add_argument("--spec")
    _add_common(p, seeded=False)
    p.set_defaults(func=_cmd_cost)

    p = subs.add_parser("analyze", help="merge-error distributions and entropy")
    p.add_argument("--enumerate", action="store_true", default=None, help="rank all window maps")
    p.add_argument("--p", type=_widths, help="comma-separated window widths (default 2,3,4)")
    p.add_argument("--spec", help="analyze one map instead of enumerating")
    p.add_argument("--balance-n", type=int, help="also check balance at this n")
    _add_common(p, seeded=False)
    p.set_defaults(func=_cmd_analyze)

    p = subs.add_parser("simulate", help="run honest sessions / replay transcripts")
    _add_protocol_flags(p, proto=None, k=None)
    p.add_argument("--sessions", type=_positive)
    p.add_argument("--replay", help="re-read a transcript file instead of simulating")
    p.add_argument("--out", help="write the session transcripts to this file")
    _add_common(p, out=False)
    p.set_defaults(func=_cmd_simulate)

    p = subs.add_parser("attack", help="key-recovery attacks at desk scale")
    p.add_argument("--attack", choices=("majority", "lf2", "noisefree"), required=True)
    _add_protocol_flags(p, "hb", proto_choices=("hb", "nlhb"))
    p.add_argument("--b", type=int, help="LF2 block width")
    p.add_argument(
        "--samples", type=_positive,
        help="column samples to draw for lf2/noisefree (transcripts = ceil(samples/D))",
    )
    p.add_argument("--reps", type=int, help="majority-vote repetitions")
    p.add_argument("--trials", type=int, help="noise-free selection trials")
    _add_common(p)
    p.set_defaults(func=_cmd_attack)

    p = subs.add_parser("reduce", help="security-reduction constructions")
    modes = p.add_subparsers(dest="mode", required=True)

    m = modes.add_parser("embed", help="widen LPN samples into the nonlinear code")
    m.add_argument("--k", type=int, default=8)
    m.add_argument("--nprime", type=int, default=10)
    m.add_argument("--n", type=int, default=31)
    m.add_argument("--spec")
    m.add_argument("--eps", type=_fraction, default=Fraction(1, 8))
    m.add_argument("--instances", type=int, default=6)
    _add_common(m)
    m.set_defaults(func=_cmd_embed)

    m = modes.add_parser("hybrid", help="re-randomize one challenge row")
    _add_protocol_flags(m)
    m.add_argument("--row", type=int, default=1)
    _add_common(m)
    m.set_defaults(func=_cmd_hybrid)

    m = modes.add_parser("thm2", help="algorithm X against the ideal distinguisher")
    _add_protocol_flags(m, proto_choices=("hb", "nlhb"))
    m.add_argument("--q", type=int, default=2)
    m.add_argument("--batches", type=int, default=32)
    _add_common(m)
    m.set_defaults(func=_cmd_thm2)

    m = modes.add_parser("thm3", help="passive forger to distinguisher rates")
    _add_protocol_flags(m, proto_choices=("hb", "nlhb"))
    m.add_argument("--adversary", choices=("perfect", "random", "honest"), default="perfect")
    m.add_argument("--q", type=int, default=2)
    m.add_argument("--epsdd", type=_fraction, help="accept threshold rate (default midpoint)")
    m.add_argument("--trials", type=_positive, default=100)
    _add_common(m)
    m.set_defaults(func=_cmd_forger_rates)

    m = modes.add_parser("thm4", help="active forger to distinguisher via rewinding")
    _add_protocol_flags(m, "nlhb+", proto_choices=("hb+", "nlhb+"))
    m.add_argument(
        "--adversary",
        choices=("perfect", "random", "honest", "learning"),
        default="learning",
    )
    m.add_argument("--q", type=int, default=5)
    m.add_argument("--eps1", type=_fraction, help="accept threshold rate (default midpoint)")
    m.add_argument("--trials", type=_positive, default=100)
    _add_common(m)
    m.set_defaults(func=_cmd_forger_rates)

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
    p.add_argument("--timeout", type=_timeout, default=10.0)
    _add_common(p)
    p.set_defaults(func=_cmd_auth)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        argv = _merge_config(argv)
        parser = build_parser()
        args = parser.parse_args(argv)
        _apply_mode(parser, args)
        report = Report(getattr(args, "format", "tsv"), getattr(args, "report", None))
        code = args.func(args, report)
        report.emit()  # only now: a command that raises writes no report
        return code or 0
    except SystemExit as exc:  # argparse usage failures exit 2
        return int(exc.code or 0)
    except _DOMAIN_ERRORS as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

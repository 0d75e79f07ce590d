"""End-to-end checks of the command-line front end."""

import contextlib
import io
import signal
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nlhb import authsvc, cli
from nlhb.gf2core import RandomSource
from nlhb.nlfunc import DEFAULT_SPEC
from nlhb.protocols import generate_key, nlhb_params


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def cells(text):
    return [line.split("\t") for line in text.splitlines() if not line.startswith("#")]


def kv(text):
    """Two-column rows as a dict; later duplicates would clobber, none exist."""
    return {r[0]: r[1] for r in cells(text) if len(r) == 2}


# ---------------------------------------------------------------------------
# deterministic subcommands: params / cost / analyze
# ---------------------------------------------------------------------------

def test_params_certify_frozen_tails():
    code, out, _ = run_cli(["params", "--eps", "1/4", "--epsp", "348/1000", "--dd", "1164"])
    assert code == 0
    got = kv(out)
    assert got["D"] == "1164"
    assert got["u"] == "405"
    assert got["log2_false_accept"] == "-83.161176"
    assert got["log2_false_reject"] == "-44.563199"


def test_params_search_finds_minimal_dd():
    code, out, _ = run_cli(["params", "--eps", "1/4", "--epsp", "348/1000"])
    assert code == 0
    got = kv(out)
    assert got["D"] == "1109"
    assert got["u"] == "385"
    assert got["log2_false_accept"] == "-80.187751"
    assert got["log2_false_reject"] == "-42.046244"


@pytest.mark.parametrize(
    "proto,k,mults,adds",
    [
        ("hb", "512", "595968", "594804"),
        ("nlhb", "128", "152868", "151701"),
        ("nlhb", "512", "600996", "599829"),
    ],
)
def test_cost_table_rows(proto, k, mults, adds):
    code, out, _ = run_cli(["cost", "--proto", proto, "--k", k, "--dd", "1164"])
    assert code == 0
    table = cells(out)
    assert table[0] == ["proto", "k", "D", "multiplications", "additions"]
    assert table[1] == [proto, k, "1164", mults, adds]
    phases = [r for r in table if r[0].startswith("phase:")]
    assert sum(int(r[3]) for r in phases) == int(mults)
    assert sum(int(r[4]) for r in phases) == int(adds)


def test_analyze_enumerate_default_widths():
    code, out, _ = run_cli(["analyze", "--enumerate"])
    assert code == 0
    table = cells(out)
    assert table[0] == ["p", "max_entropy_bits", "maximizers", "g"]
    by_p = {}
    for p, entropy, winners, _g in table[1:]:
        by_p.setdefault(p, []).append((entropy, winners))
    assert len(by_p["2"]) == 1 and by_p["2"][0] == ("2", "1")
    assert len(by_p["3"]) == 3 and all(row == ("2.5", "3") for row in by_p["3"])
    assert len(by_p["4"]) == 46 and all(row == ("3", "46") for row in by_p["4"])


def test_analyze_single_spec_with_balance():
    code, out, _ = run_cli(
        ["analyze", "--spec", "p=3; g=x1x2+x1x3+x2x3", "--balance-n", "10"]
    )
    assert code == 0
    got = kv(out)
    assert got["entropy_bits"] == "2.5"
    assert got["balanced_at_n_10"] == "True"
    probs = [Fraction(v) for name, v in got.items() if name.startswith("P[")]
    assert sum(probs) == 1


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_is_seed_stable():
    first = run_cli(["simulate", "--seed", "7"])
    second = run_cli(["simulate", "--seed", "7"])
    assert first == second
    code, out, _ = first
    assert code == 0
    table = cells(out)
    assert table[0] == ["seed", "7"]
    decisions = [r[1] for r in table[2:]]
    assert decisions == ["accept"] * 10


def test_simulate_differs_across_seeds():
    _, out_a, _ = run_cli(["simulate", "--seed", "7"])
    _, out_b, _ = run_cli(["simulate", "--seed", "8"])
    assert out_a != out_b


def test_simulate_without_seed_still_reports_one():
    code, out, _ = run_cli(["simulate", "--sessions", "2"])
    assert code == 0
    first = cells(out)[0]
    assert first[0] == "seed"
    assert 0 <= int(first[1]) < 1 << 64


def test_simulate_replay_round_trip(tmp_path):
    path = tmp_path / "sessions.log"
    code, out, _ = run_cli(
        ["simulate", "--seed", "5", "--sessions", "4", "--out", str(path)]
    )
    assert code == 0
    live = [(r[1], r[2]) for r in cells(out)[2:]]

    code, out, _ = run_cli(["simulate", "--replay", str(path)])
    assert code == 0
    table = cells(out)
    assert table[0] == ["record", "proto", "k", "n", "decision", "distance"]
    replayed = [(r[4], r[5]) for r in table[1:]]
    assert replayed == live
    assert all(r[1] == "nlhb" for r in table[1:])


def test_simulate_replay_of_a_bad_log_exits_one(tmp_path):
    path = tmp_path / "sessions.log"
    assert run_cli(["simulate", "--seed", "5", "--sessions", "1", "--out", str(path)])[0] == 0
    text = path.read_text(encoding="utf-8")
    last = text.splitlines()[-1]
    path.write_text(text.replace(last, last.split()[0] + " distance=abc"), encoding="utf-8")
    code, _, err = run_cli(["simulate", "--replay", str(path)])
    assert code == 1
    assert err.startswith("error: line 7:")


# ---------------------------------------------------------------------------
# attack
# ---------------------------------------------------------------------------

def test_attack_majority_recovers_hb_key():
    code, out, _ = run_cli(
        ["attack", "--attack", "majority", "--proto", "hb", "--k", "16", "--seed", "3"]
    )
    assert code == 0
    got = kv(out)
    assert got["key_match"] == "True"
    assert got["stat:reps"] == "79"
    assert got["queries"] == "179"
    assert got["recovered_key"] == got["planted_key"]


def test_attack_lf2_splits_hb_from_nlhb():
    base = ["attack", "--attack", "lf2", "--k", "16", "--b", "8",
            "--eps", "1/8", "--seed", "11"]
    code, out, _ = run_cli(base + ["--proto", "hb"])
    assert code == 0
    assert kv(out)["success"] == "True"

    code, out, _ = run_cli(base + ["--proto", "nlhb"])
    assert code == 0
    got = kv(out)
    assert got["success"] == "False"
    assert got["stat:verify_accepts"] == "0"


def test_attack_noisefree_output_is_stable():
    argv = ["attack", "--attack", "noisefree", "--proto", "nlhb",
            "--k", "12", "--n", "259", "--seed", "6"]
    first = run_cli(argv)
    assert first == run_cli(argv)
    code, out, _ = first
    assert code == 0
    got = kv(out)
    assert got["key_match"] == "True"
    assert got["stat:bruteforce_evaluations"] == "4096"


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------

def test_reduce_embed_default_layout_and_recovery():
    code, out, _ = run_cli(["reduce", "embed", "--seed", "2"])
    assert code == 0
    got = kv(out)
    assert got["positions"] == "1 4 7 10 13 16 19 22 25 28"
    assert got["gaps"] == "2 2 2 2 2 2 2 2 2"
    assert got["match"] == "True"


def test_reduce_hybrid_rerandomizes_one_row():
    code, out, _ = run_cli(["reduce", "hybrid", "--row", "1", "--seed", "4"])
    assert code == 0
    got = kv(out)
    assert got["original_row"] != got["perturbed_row"]
    assert len(got["z"]) == 2 * ((256 + 7) // 8)


def test_reduce_hybrid_rejects_out_of_range_row():
    code, _, err = run_cli(["reduce", "hybrid", "--row", "99", "--seed", "4"])
    assert code == 1
    assert err.startswith("error:")


def test_reduce_thm2_recovers_key():
    code, out, _ = run_cli(["reduce", "thm2", "--k", "8", "--n", "131", "--seed", "3"])
    assert code == 0
    got = kv(out)
    assert got["match"] == "True"
    assert got["recovered"] == got["planted"]


def test_reduce_thm3_perfect_forger_rates():
    argv = ["reduce", "thm3", "--adversary", "perfect", "--k", "16",
            "--eps", "1/8", "--epsp", "1/4", "--trials", "20",
            "--epsdd", "43/100", "--seed", "5"]
    first = run_cli(argv)
    assert first == run_cli(argv)
    code, out, _ = first
    assert code == 0
    got = kv(out)
    assert got["threshold_interval"] == "(5/16, 1/2)"
    assert got["honest_rate"] == "20/20"
    assert got["uniform_rate"] == "0/20"
    assert got["gap"] == "1.0000"


def test_reduce_thm3_rejects_threshold_outside_interval():
    code, _, err = run_cli(
        ["reduce", "thm3", "--adversary", "perfect", "--epsdd", "43/100", "--seed", "5"]
    )
    # interval at the default noise rates starts at 7/16 > 43/100
    assert code == 1
    assert "interval" in err


def test_reduce_thm4_learning_forger_separation():
    code, out, _ = run_cli(
        ["reduce", "thm4", "--proto", "nlhb+", "--k", "8", "--n", "131",
         "--eps", "1/8", "--epsp", "1/4", "--eps1", "91/200",
         "--trials", "6", "--q", "5", "--seed", "5"]
    )
    assert code == 0
    got = kv(out)
    assert got["adversary"] == "learning"
    assert got["threshold_interval"] == "(3/8, 1/2)"
    assert got["honest_rate"] == "6/6"
    assert got["uniform_rate"] == "0/6"
    assert got["gap"] == "1.0000"


def test_reduce_thm4_requires_blinded_protocol():
    code, _, err = run_cli(["reduce", "thm4", "--proto", "nlhb", "--seed", "1"])
    assert code == 2  # argparse rejects the choice before the handler runs


@pytest.mark.parametrize("mode", ["thm2", "thm3"])
@pytest.mark.parametrize("proto", ["hb+", "nlhb+"])
def test_reduce_thm2_thm3_reject_blinded_protocols(mode, proto):
    # packed transcripts are single-secret, so argparse refuses the choice
    code, _, err = run_cli(["reduce", mode, "--proto", proto, "--k", "8", "--n", "40", "--seed", "6"])
    assert code == 2
    assert "invalid choice" in err


# ---------------------------------------------------------------------------
# config merge and exit codes
# ---------------------------------------------------------------------------

def test_config_flags_lose_to_explicit_ones(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("proto=nlhb\nk=8\nn=131\neps=1/8\nsessions=6\n")
    code, out, _ = run_cli(
        ["simulate", "--config", str(cfg), "--sessions", "2", "--seed", "20"]
    )
    assert code == 0
    table = cells(out)
    assert len([r for r in table if len(r) == 3 and r[0].isdigit()]) == 2

    code, out, _ = run_cli(["simulate", "--config", str(cfg), "--seed", "20"])
    assert code == 0
    table = cells(out)
    assert len([r for r in table if len(r) == 3 and r[0].isdigit()]) == 6


def test_config_supports_boolean_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("enumerate=true\np=2\n")
    code, out, _ = run_cli(["analyze", "--config", str(cfg)])
    assert code == 0
    table = cells(out)
    assert table[1][0] == "2"
    assert len(table) == 2  # header plus the single p=2 maximizer


def test_config_rejects_stray_lines(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sessions\n")
    code, _, err = run_cli(["simulate", "--config", str(cfg)])
    assert code == 1
    assert "key=value" in err


def test_config_must_be_utf8(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"sessions=2\n\xff\n")
    code, _, err = run_cli(["simulate", "--config", str(cfg)])
    assert code == 1
    assert "UTF-8" in err


def test_usage_errors_exit_two():
    assert run_cli(["no-such-command"])[0] == 2
    assert run_cli(["params", "--eps", "1/4"])[0] == 2  # missing --epsp
    assert run_cli(["simulate", "--eps", "bogus"])[0] == 2


def test_analyze_bad_widths_is_a_usage_error():
    code, _, err = run_cli(["analyze", "--enumerate", "--p", "2,x"])
    assert code == 2
    assert "comma-separated widths" in err


def test_attack_zero_reps_is_not_replaced_by_the_default():
    code, _, err = run_cli(
        ["attack", "--attack", "majority", "--proto", "hb", "--k", "8", "--reps", "0", "--seed", "1"]
    )
    assert code == 1
    assert "reps must be odd and positive" in err


def test_domain_errors_exit_one():
    code, _, err = run_cli(
        ["attack", "--attack", "majority", "--proto", "hb", "--k", "0", "--seed", "1"]
    )
    assert code == 1
    assert err.startswith("error:")


_THM3 = ["reduce", "thm3", "--adversary", "perfect", "--eps", "1/8", "--epsp", "1/4",
         "--epsdd", "43/100"]
_THM4 = ["reduce", "thm4", "--adversary", "learning", "--eps", "1/8", "--epsp", "1/4",
         "--eps1", "91/200"]


@pytest.mark.parametrize("argv, want", [
    (_THM3 + ["--q", "-1"], 1),
    (_THM3 + ["--trials", "0"], 2),
    (_THM4 + ["--trials", "0"], 2),
    (_THM4 + ["--q", "-2"], 1),
    (["simulate", "--sessions", "-3"], 2),
    (["attack", "--attack", "noisefree", "--proto", "nlhb", "--k", "8", "--samples", "-100000"], 2),
    (["reduce", "thm2", "--k", "8", "--n", "131", "--q", "0"], 1),
    (["reduce", "embed", "--k", "0"], 1),
])
def test_nonsense_counts_are_refused(argv, want):
    code, out, err = run_cli(argv + ["--seed", "1"])
    assert code == want
    assert "Traceback" not in err
    if want == 1:
        assert err.startswith("error:") and out == ""
    else:
        assert "expected a positive integer" in err


@pytest.mark.parametrize("argv", [
    ["simulate", "--proto", "hb", "--k", "100000", "--n", "100000"],
    ["reduce", "embed", "--k", "100000", "--n", "100000"],
    # count flags: the bits of all the matrices a count asks for are bounded
    ["attack", "--attack", "lf2", "--proto", "hb", "--k", "8", "--samples", "2000000000"],
    ["attack", "--attack", "noisefree", "--proto", "nlhb", "--k", "8", "--samples", "2000000000"],
    ["attack", "--attack", "majority", "--proto", "hb", "--k", "8", "--reps", "2000000001"],
    ["simulate", "--k", "16", "--sessions", "2000000000"],
    ["reduce", "embed", "--instances", "2000000000"],
    ["reduce", "thm2", "--q", "2147483648"],
    ["reduce", "thm3", "--q", "2147483648"],
    ["reduce", "thm4", "--q", "2147483648"],
])
def test_oversized_matrix_is_refused_before_allocation(argv):
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code, _, err = run_cli(argv + ["--seed", "1"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 2.0
    assert peak < 2**20
    assert code == 1
    assert err.startswith("error:") and "exceeds" in err


@pytest.mark.parametrize("argv", [
    ["simulate", "--proto", "hb", "--k", "512", "--n", "1164"],
    ["simulate", "--proto", "nlhb", "--k", "128", "--n", "1164", "--sessions", "29"],
])
def test_paper_size_runs_pass_the_size_guard(argv):
    code, out, err = run_cli(argv + ["--seed", "1"])
    assert code == 0 and err == ""
    assert "sessions accepted" in out


def test_size_guard_admits_paper_size_counts():
    # attack lf2 at the default --samples, and a thm batch of q = 100 strings
    cli._check_size(512, 1164, -(-16384 // 1164))
    cli._check_size(1, 128 * 1164 + 1161, 100 + 1)


# Every subcommand but serve and auth, drawn with small valid values or the
# hostile ones.  Counts that only buy time (--trials, --batches) draw no huge
# value: a valid request for 2^31 trials is slow, not wrong, like a k=26 key
# search, which the small --k range never reaches either.
HOSTILE = ["0", "-1", str(2**31), str(2**63), "1/0", "x"]
_SLOW_COUNT_HOSTILE = ["0", "-1", "1/0", "x"]


def _ints(lo, hi, hostile=HOSTILE):
    return st.one_of(st.integers(lo, hi).map(str), st.sampled_from(hostile))


def _pick(*values):
    return st.one_of(st.sampled_from(values), st.sampled_from(HOSTILE))


_EPS = _pick("1/8", "1/4")
_EPSP = _pick("3/8", "2/5")
_SPEC = _pick("p=2; g=x1x2", "p=3; g=x1x2+x1x3+x2x3", "p=0; g=0")
_TRIALS = _ints(1, 3, _SLOW_COUNT_HOSTILE)
# Flags always given (so no slow default applies), then flags drawn or not.
_SIZE = {"--k": _ints(1, 5), "--n": _ints(4, 24)}
_FRACTIONS = {"--eps": _EPS, "--epsp": _EPSP}
_COMMANDS = {
    ("params",): ({"--eps": _EPS, "--epsp": _EPSP, "--pfa": _pick("-10", "-6"),
                   "--pfr": _pick("-5", "-3")}, {"--dd": _ints(1, 64)}),
    ("cost",): ({"--proto": _pick("hb", "nlhb+"), "--k": _ints(1, 16), "--dd": _ints(1, 64)},
                {"--spec": _SPEC}),
    ("analyze",): ({"--spec": _SPEC}, {"--balance-n": _ints(2, 8)}),
    ("analyze", "--enumerate"): ({"--p": _ints(1, 3)}, {}),
    ("simulate",): (_SIZE, dict(_FRACTIONS, **{"--proto": _pick("hb", "hb+", "nlhb", "nlhb+"),
                                               "--sessions": _ints(1, 3)})),
    ("attack",): (dict(_SIZE, **{"--attack": _pick("majority", "lf2", "noisefree"),
                                 "--samples": _ints(1, 256), "--trials": _TRIALS}),
                  dict(_FRACTIONS, **{"--proto": _pick("hb", "nlhb"), "--b": _ints(1, 4),
                                      "--reps": _ints(1, 7)})),
    ("reduce", "embed"): ({"--k": _ints(0, 4), "--nprime": _ints(1, 8), "--n": _ints(4, 24)},
                          {"--eps": _EPS, "--instances": _ints(1, 3), "--spec": _SPEC}),
    ("reduce", "hybrid"): (_SIZE, dict(_FRACTIONS, **{"--proto": _pick("hb", "nlhb+"),
                                                      "--row": _ints(1, 6)})),
    ("reduce", "thm2"): (dict(_SIZE, **{"--batches": _TRIALS}),
                         dict(_FRACTIONS, **{"--proto": _pick("hb", "nlhb"), "--q": _ints(1, 3)})),
    ("reduce", "thm3"): (dict(_SIZE, **{"--trials": _TRIALS}),
                         dict(_FRACTIONS, **{"--adversary": _pick("perfect", "random", "honest"),
                                             "--q": _ints(1, 3), "--epsdd": _pick("9/20", "2/5")})),
    ("reduce", "thm4"): (dict(_SIZE, **{"--trials": _TRIALS}),
                         dict(_FRACTIONS, **{"--proto": _pick("hb+", "nlhb+"),
                                             "--adversary": _pick("perfect", "random", "honest",
                                                                  "learning"),
                                             "--q": _ints(1, 3),
                                             "--eps1": _pick("9/20", "47/100")})),
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    required, optional = _COMMANDS[command]
    optional = dict(optional, **{"--format": _pick("tsv", "text")})
    argv = list(command)
    for flag in sorted(required) + draw(st.lists(st.sampled_from(sorted(optional)), unique=True)):
        argv += [flag, draw({**required, **optional}[flag])]
    if command[0] not in ("params", "cost", "analyze"):
        argv += ["--seed", draw(_pick("1", "7"))]
    return argv


class _Overran(Exception):
    pass


def _overran(signum, frame):
    raise _Overran()


@given(_argv())
@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_any_argv_ends_in_output_or_an_error(argv):
    previous = signal.signal(signal.SIGALRM, _overran)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        code, _, err = run_cli(argv)
    except _Overran:
        pytest.fail("%r ran past 5 s" % (argv,))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2)
    assert "Traceback" not in err


def test_text_format_uses_aligned_columns():
    code, out, _ = run_cli(
        ["params", "--eps", "1/4", "--epsp", "348/1000", "--dd", "1164",
         "--format", "text"]
    )
    assert code == 0
    assert "\t" not in out
    assert "log2_false_accept  " in out


def test_out_flag_redirects_report(tmp_path):
    path = tmp_path / "report.tsv"
    code, out, _ = run_cli(
        ["params", "--eps", "1/4", "--epsp", "348/1000", "--dd", "1164",
         "--out", str(path)]
    )
    assert code == 0
    assert out == ""
    assert kv(path.read_text())["u"] == "405"


# ---------------------------------------------------------------------------
# auth against a live service
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def service(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("svc")
    params = nlhb_params(16, 259, Fraction(1, 4), Fraction(87, 250), DEFAULT_SPEC)
    key = generate_key(params, RandomSource(1))
    keystore = tmp / "keys.txt"
    authsvc.write_keystore(str(keystore), [authsvc.KeystoreEntry("tag-01", params, key)])

    wrong = tmp / "wrong.txt"
    authsvc.write_keystore(
        str(wrong),
        [authsvc.KeystoreEntry("tag-01", params, generate_key(params, RandomSource(2)))],
    )

    svc = authsvc.AuthService(
        ("127.0.0.1", 0), authsvc.read_keystore(str(keystore)), seed=9
    ).start()
    try:
        yield {
            "addr": "%s:%d" % svc.address,
            "keystore": str(keystore),
            "wrong": str(wrong),
        }
    finally:
        svc.shutdown()


def test_auth_accepts_the_right_key(service):
    code, out, _ = run_cli(
        ["auth", "--server", service["addr"], "--identity", "tag-01",
         "--key-file", service["keystore"], "--seed", "7"]
    )
    assert code == 0
    got = kv(out)
    assert got["decision"] == "accept"
    assert got["threshold_u"] == "89"
    assert int(got["distance"]) <= 89


def test_auth_rejects_the_wrong_key(service):
    code, out, _ = run_cli(
        ["auth", "--server", service["addr"], "--identity", "tag-01",
         "--key-file", service["wrong"], "--seed", "8"]
    )
    assert code == 1
    assert kv(out)["decision"] == "reject"


def test_auth_unknown_identity_is_a_domain_error(service):
    code, _, err = run_cli(
        ["auth", "--server", service["addr"], "--identity", "nobody",
         "--key-file", service["keystore"], "--seed", "1"]
    )
    assert code == 1
    assert "nobody" in err


def test_auth_unreachable_server_exits_one(service):
    code, _, err = run_cli(
        ["auth", "--server", "127.0.0.1:1", "--identity", "tag-01",
         "--key-file", service["keystore"], "--timeout", "0.5", "--seed", "1"]
    )
    assert code == 1
    assert err.startswith("error:")


def test_auth_bad_key_file_exits_one(service, tmp_path):
    bad = tmp_path / "bad.txt"
    with open(service["keystore"], encoding="utf-8") as fp:
        bad.write_text(fp.read().replace("k=16\n", "k=x\n"), encoding="utf-8")
    code, _, err = run_cli(
        ["auth", "--server", service["addr"], "--identity", "tag-01",
         "--key-file", str(bad), "--seed", "1"]
    )
    assert code == 1
    assert err.startswith("error: keystore entry 'tag-01'")


def test_auth_muted_service_reports_muted(tmp_path):
    params = nlhb_params(16, 259, Fraction(1, 4), Fraction(87, 250), DEFAULT_SPEC)
    key = generate_key(params, RandomSource(1))
    keystore = tmp_path / "keys.txt"
    authsvc.write_keystore(str(keystore), [authsvc.KeystoreEntry("tag-01", params, key)])
    with authsvc.AuthService(
        ("127.0.0.1", 0), authsvc.read_keystore(str(keystore)),
        seed=9, mute_decisions=True,
    ) as svc:
        code, out, _ = run_cli(
            ["auth", "--server", "%s:%d" % svc.address, "--identity", "tag-01",
             "--key-file", str(keystore), "--seed", "7"]
        )
    assert code == 0
    assert kv(out)["decision"] == "muted"


def test_serve_exits_one_when_the_server_thread_stops(tmp_path, monkeypatch):
    params = nlhb_params(16, 259, Fraction(1, 4), Fraction(87, 250), DEFAULT_SPEC)
    keystore = tmp_path / "keys.txt"
    key = generate_key(params, RandomSource(1))
    authsvc.write_keystore(str(keystore), [authsvc.KeystoreEntry("tag-01", params, key)])
    start = authsvc.AuthService.start

    def start_then_stop(service):
        start(service)
        service._server.shutdown()  # serve_forever returns, so the thread ends
        return service

    monkeypatch.setattr(authsvc.AuthService, "start", start_then_stop)
    argv = ["serve", "--bind", "127.0.0.1:0", "--keystore", str(keystore), "--seed", "1"]
    result = []
    command = threading.Thread(target=lambda: result.append(run_cli(argv)), daemon=True)
    command.start()
    command.join(timeout=10)
    assert not command.is_alive(), "nlhb serve kept waiting on a stopped server thread"
    code, _, err = result[0]
    assert code == 1
    assert err == "error: the server thread stopped\n"


def _config_flags(tmp_path, data: bytes):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(data)
    return cli._merge_config(["simulate", "--config", str(cfg), "--seed", "3"])


def test_config_crlf_gives_the_same_flags(tmp_path):
    text = b"# run\nproto=nlhb\nk=8\n\nsessions=2\nreplay=false\n"
    flags = _config_flags(tmp_path, text)
    assert flags == ["simulate", "--proto", "nlhb", "--k", "8", "--sessions", "2", "--seed", "3"]
    assert _config_flags(tmp_path, text.replace(b"\n", b"\r\n")) == flags


def test_config_lone_cr_is_not_a_line_break(tmp_path):
    flags = _config_flags(tmp_path, b"k=8\rsessions=2\n")
    assert flags == ["simulate", "--k", "8\rsessions=2", "--seed", "3"]


def test_config_repeated_key_is_an_error(tmp_path):
    for text in ("k=8\nk=9\n", "k=8\n\nk=9\n"):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        code, _, err = run_cli(["simulate", "--config", str(cfg)])
        assert code == 1
        assert "'k'" in err


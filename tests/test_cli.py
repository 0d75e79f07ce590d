"""End-to-end checks of the command-line front end."""

import argparse
import contextlib
import io
import os
import re
import signal
import socket
import threading
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from nlhb import authsvc, cli, nlfunc
from nlhb.gf2core import RandomSource, check_enumerable
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


def _one_key_keystore(path):
    """A keystore file holding one nlhb key, for identity tag-01."""
    params = nlhb_params(16, 259, Fraction(1, 4), Fraction(87, 250), DEFAULT_SPEC)
    key = generate_key(params, RandomSource(1))
    authsvc.write_keystore(str(path), [authsvc.KeystoreEntry("tag-01", params, key)])
    return str(path)


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


@pytest.mark.parametrize("dd", [[], ["--dd", "100"]], ids=["search", "certify"])
@pytest.mark.parametrize("eps, epsp", [("3/8", "1/4"), ("1/4", "1/4"), ("1/4", "7/10")])
def test_params_refuses_rates_outside_the_order(eps, epsp, dd):
    code, out, err = run_cli(["params", "--eps", eps, "--epsp", epsp] + dd)
    assert (code, out) == (1, "")
    assert err == "error: need 0 < eps < eps' < 1/2\n"


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


@pytest.mark.parametrize("spec, same", [
    ("p=3;g=x2x3+x1x2+x1x3", True),
    ("  p = 3 ;  g = x3x2+x2x1+x1x3 ", True),
    ("p=03; g=x1x2+x1x3+x2x3", True),
    ("p=\u0663; g=x1x2+x1x3+x2x3", False),
    ("p=3; g=x\u0661x2+x1x3+x2x3", False),
    ("p=3; g=x1x2 + x1x3+x2x3", False),
    ("p=3, g=x1x2+x1x3+x2x3", False),
    ("P=3; g=x1x2+x1x3+x2x3", False),
])
def test_spec_flag_reads_ascii_spellings_of_the_written_spec(spec, same):
    written = run_cli(["analyze", "--spec", "p=3; g=x1x2+x1x3+x2x3"])
    code, out, err = run_cli(["analyze", "--spec", spec])
    if same:
        assert (code, out, err) == written
    else:
        assert code == 1 and out == "" and err.startswith("error:")


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


@pytest.mark.parametrize("extra", [["--out", "copy.log"], ["--seed", "5"], ["--out", "copy.log", "--seed", "5"]])
def test_simulate_replay_refuses_out_and_seed(tmp_path, monkeypatch, extra):
    """A replay writes nothing and draws nothing, so --out and --seed beside
    --replay are a usage error, not flags dropped without a word."""
    monkeypatch.chdir(tmp_path)
    assert run_cli(["simulate", "--seed", "5", "--sessions", "1", "--out", "sessions.log"])[0] == 0
    code, out, err = run_cli(["simulate", "--replay", "sessions.log"] + extra)
    assert code == 2 and out == ""
    assert "--replay" in err and "Traceback" not in err
    assert not (tmp_path / "copy.log").exists()


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


def test_attack_lf2_refuses_more_than_64_bucket_rows():
    code, out, err = run_cli(["attack", "--attack", "lf2", "--proto", "hb", "--k", "80",
                              "--b", "8", "--samples", "20000"])
    assert code == 1 and out == ""
    assert err == "error: lf2 buckets on at most 64 rows (k - b), got k - b = 72: b must be at least 16\n"


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


@pytest.mark.parametrize("mode, flags", [
    ("thm2", ["--k", "8", "--n", "131", "--batches", "4"]),
    ("embed", ["--k", "6", "--nprime", "8", "--instances", "2"]),
])
def test_config_flags_follow_the_reduce_mode(tmp_path, mode, flags):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join("%s=%s\n" % (f[2:], v) for f, v in zip(flags[::2], flags[1::2])))
    explicit = run_cli(["reduce", mode] + flags + ["--seed", "1"])
    assert explicit[0] == 0
    assert run_cli(["reduce", mode, "--config", str(cfg), "--seed", "1"]) == explicit
    assert run_cli(["reduce", "--config", str(cfg), mode, "--seed", "1"]) == explicit


def test_explicit_flag_beats_the_config_under_reduce(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k=8\nn=131\nbatches=4\n")
    got = run_cli(["reduce", "thm2", "--config", str(cfg), "--k", "12", "--seed", "1"])
    assert got[0] == 0
    assert got == run_cli(["reduce", "thm2", "--k", "12", "--n", "131", "--batches", "4", "--seed", "1"])
    assert len(kv(got[1])["planted"]) == 4  # 12 key bits are 2 hex bytes; the file's 8 are 1


def test_config_equals_form_reads_the_file_and_must_follow_the_subcommand(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k=8\nn=131\nbatches=4\n")
    spaced = run_cli(["reduce", "thm2", "--config", str(cfg), "--seed", "1"])
    assert spaced[0] == 0
    assert run_cli(["reduce", "thm2", "--config=" + str(cfg), "--seed", "1"]) == spaced
    code, out, err = run_cli(["--config", str(cfg), "reduce", "thm2", "--seed", "1"])
    assert (code, out) == (1, "")
    assert "belongs after the subcommand" in err


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


def test_thm3_negative_q_names_the_given_q():
    code, out, err = run_cli(_THM3 + ["--q", "-5", "--seed", "1"])
    assert code == 1 and out == ""
    assert "-5" in err and "-4" not in err


_BALANCED = ["analyze", "--spec", "p=3; g=x1x2+x1x3+x2x3"]


@pytest.mark.parametrize("argv", [
    ["simulate", "--replay", ""],
    ["simulate", "--spec", "", "--k", "8", "--seed", "1"],
    ["attack", "--attack", "lf2", "--spec", "", "--k", "8", "--seed", "1"],
    ["cost", "--proto", "nlhb", "--k", "8", "--dd", "16", "--spec", ""],
    ["reduce", "embed", "--spec", "", "--seed", "1"],
    ["reduce", "hybrid", "--spec", "", "--seed", "1"],
    ["reduce", "thm2", "--spec", "", "--seed", "1"],
    ["reduce", "thm3", "--spec", "", "--seed", "1"],
    ["reduce", "thm4", "--spec", "", "--seed", "1"],
    ["analyze", "--spec", ""],
    _BALANCED + ["--balance-n", "0"],
    _BALANCED + ["--balance-n", "1"],
    _BALANCED + ["--balance-n", "-3"],
    ["simulate", "--config"],
    ["analyze"],
])
def test_empty_or_zero_flag_is_not_read_as_absent(argv):
    code, out, err = run_cli(argv)
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert out == ""


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
    # exhaustive searches: 2^26 int64 key distances, 2^24-entry lf2 score tables
    ["attack", "--attack", "majority", "--proto", "nlhb", "--k", "26", "--n", "40"],
    ["attack", "--attack", "lf2", "--proto", "hb", "--k", "24", "--b", "24", "--samples", "4000",
     "--eps", "1/8", "--epsp", "1/4"],
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


# Every subcommand, drawn with small valid values or the hostile ones.
# Counts that only buy time (--trials, --batches) draw no huge value: a valid
# request for 2^31 trials is slow, not wrong, like a k=26 key search, which
# the small --k range never reaches either.
HOSTILE = ["0", "-1", str(2**31), str(2**63), "1/0", "x"]
_SLOW_COUNT_HOSTILE = ["0", "-1", "1/0", "x"]


def _ints(lo, hi, hostile=HOSTILE):
    return st.one_of(st.integers(lo, hi).map(str), st.sampled_from(hostile))


def _pick(*values, hostile=HOSTILE):
    return st.one_of(st.sampled_from(values), st.sampled_from(hostile))


_EPS = _pick("1/8", "1/4")
_EPSP = _pick("3/8", "2/5")
_SPEC = _pick("p=2; g=x1x2", "p=3; g=x1x2+x1x3+x2x3", "p=0; g=0")
_TRIALS = _ints(1, 3, _SLOW_COUNT_HOSTILE)
_PATHS = st.sampled_from(["<keys>", "<missing>"])
_BAD_ADDRESSES = HOSTILE + ["127.0.0.1:65536", "127.0.0.1", ":", "127.0.0.1:x"]
# Flags always given (so no slow default applies), then flags drawn or not.
_SIZE = {"--k": _ints(1, 5), "--n": _ints(4, 24)}
_FRACTIONS = {"--eps": _EPS, "--epsp": _EPSP}
_COMMANDS = {
    ("params",): ({"--eps": _EPS, "--epsp": _EPSP,
                   "--pfa": _pick("-10", "-6", hostile=HOSTILE + ["nan", "inf"]),
                   "--pfr": _pick("-5", "-3", hostile=HOSTILE + ["nan", "inf"])},
                  {"--dd": _ints(1, 64)}),
    ("cost",): ({"--proto": _pick("hb", "nlhb+"), "--k": _ints(1, 16), "--dd": _ints(1, 64)},
                {"--spec": _SPEC}),
    ("analyze",): ({"--spec": _SPEC}, {"--balance-n": _ints(2, 8)}),
    ("analyze", "--enumerate"): ({"--p": _ints(1, 3)}, {}),
    ("simulate",): (_SIZE, dict(_FRACTIONS, **{"--proto": _pick("hb", "hb+", "nlhb", "nlhb+"),
                                               "--sessions": _ints(1, 3)})),
    # one row per --attack mode, each drawing only the flags that mode reads
    ("attack", "--attack", "majority"): (_SIZE, dict(_FRACTIONS, **{"--proto": _pick("hb", "nlhb"),
                                                                    "--reps": _ints(1, 7)})),
    ("attack", "--attack", "lf2"): (dict(_SIZE, **{"--samples": _ints(1, 256)}),
                                    dict(_FRACTIONS, **{"--proto": _pick("hb", "nlhb"),
                                                        "--b": _ints(1, 4)})),
    ("attack", "--attack", "noisefree"): (dict(_SIZE, **{"--samples": _ints(1, 256),
                                                         "--trials": _TRIALS}),
                                          dict(_FRACTIONS, **{"--proto": _pick("hb", "nlhb")})),
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
    # serve and auth run with the server loop returning at once and every
    # connection refused.  A valid bind takes port 0; every host is a literal
    # address, so nothing is looked up.  <keys>, <missing> and <log> stand for
    # paths the test fills in; None marks a flag that takes no value.
    ("serve",): ({"--bind": _pick("127.0.0.1:0", ":0", hostile=_BAD_ADDRESSES),
                  "--keystore": _PATHS},
                 {"--mute-decisions": st.none(), "--log": st.just("<log>")}),
    ("auth",): ({"--server": _pick("127.0.0.1:1", ":9630", hostile=_BAD_ADDRESSES),
                 "--key-file": _PATHS, "--identity": st.sampled_from(["tag-01", "nobody"])},
                {"--timeout": _pick("0.5", "30", hostile=HOSTILE + ["nan", "inf", "1e10"])}),
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    required, optional = _COMMANDS[command]
    if command != ("serve",):
        optional = dict(optional, **{"--format": _pick("tsv", "text")})
    argv = list(command)
    for flag in sorted(required) + draw(st.lists(st.sampled_from(sorted(optional)), unique=True)):
        value = draw({**required, **optional}[flag])
        argv += [flag] if value is None else [flag, value]
    if command[0] not in ("params", "cost", "analyze"):
        argv += ["--seed", draw(_pick("1", "7"))]
    return argv


class _Overran(Exception):
    pass


def _overran(signum, frame):
    raise _Overran()


def _refused(*args, **kwargs):
    raise ConnectionRefusedError("connection refused")


@pytest.fixture(scope="module")
def argv_paths(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("argv")
    return {"<keys>": _one_key_keystore(tmp / "keys.txt"), "<missing>": str(tmp / "missing.txt"),
            "<log>": str(tmp / "log.txt")}


def _run_cli_within_5s(argv):
    """:func:`run_cli`, failing the test if it runs past 5 s."""
    previous = signal.signal(signal.SIGALRM, _overran)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        return run_cli(argv)
    except _Overran:
        pytest.fail("%r ran past 5 s" % (argv,))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@given(_argv())
@settings(max_examples=140, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_any_argv_ends_in_output_or_an_error(argv_paths, argv):
    argv = [argv_paths.get(token, token) for token in argv]
    with mock.patch.object(authsvc.AuthService, "serve_forever", lambda service: None), \
            mock.patch.object(socket, "create_connection", _refused):
        code, out, err = _run_cli_within_5s(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    # serve prints its seed and address before it blocks; any other command
    # that fails prints no report
    if code != 0 and argv[0] != "serve":
        assert out == ""


# A separate "-inf" token reads as a flag; the "=" form reaches the type check.
# A finite target no D <= MAX_D can meet is find_min_D's error (exit 1).
@pytest.mark.parametrize("flag, code", [
    ("--pfa=-inf", 2), ("--pfa=nan", 2), ("--pfa=inf", 2), ("--pfr=nan", 2), ("--pfr=-inf", 2),
    ("--pfa=-1e9", 1), ("--pfr=-1e9", 1), ("--dd=100001", 1),
])
def test_params_refuses_targets_it_can_never_meet(flag, code):
    got, out, err = _run_cli_within_5s(["params", "--eps", "1/4", "--epsp", "348/1000", flag])
    assert (got, out) == (code, "")
    assert "Traceback" not in err


def test_text_format_uses_aligned_columns(tmp_path):
    code, out, _ = run_cli(
        ["params", "--eps", "1/4", "--epsp", "348/1000", "--dd", "1164",
         "--format", "text"]
    )
    assert code == 0
    assert "\t" not in out
    assert "log2_false_accept  " in out

    # a wider table: every column starts at one offset, and no line ends in padding
    path = str(tmp_path / "sessions.log")
    assert run_cli(["simulate", "--k", "8", "--n", "100", "--sessions", "12", "--seed", "1",
                    "--out", path])[0] == 0
    code, out, _ = run_cli(["simulate", "--replay", path, "--format", "text"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 13 and lines[0].split() == ["record", "proto", "k", "n", "decision",
                                                     "distance"]
    starts = [[m.start() for m in re.finditer(r"\S+", line)] for line in lines]
    assert all(s == starts[0] for s in starts) and len(starts[0]) == 6
    assert all(line == line.rstrip() for line in lines)


@pytest.mark.parametrize("argv", [
    ["params", "--eps", "1/4", "--epsp", "348/1000", "--dd", "1164"],
    ["cost", "--proto", "nlhb", "--k", "8", "--dd", "16"],
    ["analyze", "--spec", "p=2; g=x1x2"],
    ["attack", "--attack", "lf2", "--proto", "hb", "--k", "8", "--b", "4", "--eps", "1/8",
     "--seed", "11"],
    ["reduce", "embed", "--k", "4", "--nprime", "6", "--n", "19", "--instances", "2", "--seed", "2"],
    ["reduce", "hybrid", "--k", "4", "--n", "24", "--seed", "4"],
    ["reduce", "thm2", "--k", "4", "--n", "24", "--batches", "2", "--seed", "3"],
    ["reduce", "thm3", "--k", "4", "--n", "24", "--eps", "1/8", "--epsp", "1/4",
     "--epsdd", "43/100", "--trials", "2", "--seed", "5"],
    ["reduce", "thm4", "--k", "4", "--n", "24", "--eps", "1/8", "--epsp", "1/4",
     "--eps1", "91/200", "--trials", "2", "--seed", "5"],
], ids=["params", "cost", "analyze", "attack", "embed", "hybrid", "thm2", "thm3", "thm4"])
def test_out_flag_redirects_report(argv, tmp_path):
    code, want, _ = run_cli(argv)
    assert code == 0
    path = tmp_path / "report.tsv"
    code, out, _ = run_cli(argv + ["--out", str(path)])
    assert (code, out) == (0, "")
    assert path.read_bytes() == want.encode()
    if "--seed" in argv:
        assert want.startswith("seed\t%s\n" % argv[argv.index("--seed") + 1])


def test_analyze_refuses_a_window_too_wide_to_enumerate():
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code, out, err = run_cli(["analyze", "--spec", "p=12; g=x1x2"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 10 * 2**20
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "exceeds" in err


@pytest.mark.parametrize("p", [10, 11])
def test_analyze_refuses_a_merge_too_large_to_hold(p):
    # 2^(2p+2) merge states pass the enumeration range; what
    # merge_error_distribution would hold for them does not pass the size guard
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code, out, err = run_cli(["analyze", "--spec", "p=%d; g=x1x2" % p])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 10 * 2**20
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "exceeds" in err


def test_merge_size_guard_admits_p9_and_covers_the_measured_peak():
    check_enumerable(20, nlfunc.merge_state_bytes(nlfunc.NonlinearFunctionSpec(  # p = 9 still runs
        9, tuple((o, o + 1) for o in range(1, 9)))))
    for p in (4, 5, 6, 7):
        spec = nlfunc.NonlinearFunctionSpec(p, ((1, p),))
        tracemalloc.start()
        try:
            nlfunc.merge_error_distribution(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the rows' bytes, to within the few KB of its fixed-size objects
        held = (1 << 2 * p + 2) * nlfunc.merge_state_bytes(spec)
        assert held * 0.9 <= peak <= held + 2**14


# ---------------------------------------------------------------------------
# a flag the chosen mode does not read is a usage error
# ---------------------------------------------------------------------------

# Each argv with the flags its mode reads, then the flags it would drop.
# <log> is a transcript file the test writes, <out> a path nothing may create.
_UNREAD = [
    (["simulate", "--replay", "<log>"], ["--k", "99", "--sessions", "3", "--proto", "hb+"]),
    (["simulate", "--replay", "<log>"], ["--out", "<out>"]),
    (["attack", "--attack", "majority", "--k", "8", "--seed", "1"],
     ["--b", "3", "--trials", "5", "--samples", "99"]),
    (["attack", "--attack", "lf2", "--k", "8", "--b", "4", "--seed", "1"],
     ["--reps", "5", "--trials", "3"]),
    (["attack", "--attack", "noisefree", "--k", "8", "--trials", "3", "--seed", "1"],
     ["--b", "4"]),
    (["analyze", "--enumerate", "--p", "2"], ["--spec", "p=2; g=x1x2", "--balance-n", "4"]),
    (["analyze", "--spec", "p=2; g=x1x2"], ["--p", "3"]),
    (["params", "--eps", "1/4", "--epsp", "348/1000", "--dd", "100"], ["--pfa", "-10"]),
]


@pytest.fixture(scope="module")
def unread_paths(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("unread")
    log = tmp / "sessions.log"
    assert run_cli(["simulate", "--k", "8", "--n", "32", "--sessions", "2", "--seed", "5",
                    "--out", str(log)])[0] == 0
    return {"<log>": str(log), "<out>": str(tmp / "report.txt")}


@pytest.mark.parametrize("argv, unread", _UNREAD, ids=lambda a: " ".join(a))
def test_flag_the_mode_does_not_read_is_a_usage_error(unread_paths, argv, unread):
    fill = [unread_paths.get(token, token) for token in argv + unread]
    report = [] if argv[0] == "simulate" else ["--out", unread_paths["<out>"]]
    code, out, err = run_cli(fill + report)
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    assert any("does not read " + flag in err for flag in unread if flag.startswith("--"))
    assert not os.path.exists(unread_paths["<out>"])
    assert run_cli(fill[: len(argv)])[0] == 0


def test_config_keys_the_mode_does_not_read_are_refused(unread_paths, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("replay=%s\nk=8\n" % unread_paths["<log>"])
    code, out, err = run_cli(["simulate", "--config", str(cfg)])
    assert (code, out) == (2, "")
    assert "simulate --replay does not read --k" in err
    cfg.write_text("replay=%s\n" % unread_paths["<log>"])
    assert run_cli(["simulate", "--config", str(cfg)])[0] == 0


class _ReadRecorder(argparse.Namespace):
    """A namespace that records each attribute read from the moment main
    reads ``func``, just before it calls the command."""

    def __getattribute__(self, name):
        reads = object.__getattribute__(self, "__dict__").get("_reads")
        if name == "func":
            object.__setattr__(self, "_reads", set())
        elif reads is not None:
            reads.add(name)
        return object.__getattribute__(self, name)


def _flag_dests(command):
    """Each flag of the command's parser, as spelled, with the attribute it
    sets (read from argparse's action list, which has no public accessor)."""
    subs = next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    return {s: a.dest for a in subs.choices[command]._actions for s in a.option_strings}


def _count(lo, hi):
    return st.integers(lo, hi).map(str)


# The flags each command with modes takes besides the mode's own, with valid
# small values.
_MODE_FLAGS = {
    "params": {"--pfa": st.sampled_from(["-10", "-6"]), "--pfr": st.sampled_from(["-5", "-3"])},
    "analyze": {"--p": st.sampled_from(["2", "2,3"]), "--balance-n": _count(4, 8)},
    "simulate": {"--proto": st.sampled_from(["hb", "nlhb+"]),
                 "--k": _count(2, 8), "--n": _count(24, 40), "--eps": st.just("1/8"),
                 "--epsp": st.just("3/8"), "--spec": st.just("p=0; g=0"),
                 "--sessions": _count(1, 3), "--out": st.just("<out>"),
                 "--seed": _count(1, 9)},
    "attack": {"--proto": st.sampled_from(["hb", "nlhb"]), "--k": _count(4, 6),
               "--eps": st.just("1/8"), "--reps": st.sampled_from(["1", "3", "5"]),
               "--b": _count(2, 3), "--samples": _count(64, 256),
               "--trials": _count(1, 3), "--seed": _count(1, 9)},
}
# Flags every argv of the command carries (the rates params needs; a map, as
# analyze without --enumerate needs --spec), then the flag that picks the mode,
# drawn apart from the rest so that each mode is drawn as often as the others.
_MODE_BASE = {
    "params": st.sampled_from([[], ["--dd", "50"]]).map(lambda m: ["--eps", "1/8",
                                                                    "--epsp", "3/8"] + m),
    "analyze": st.sampled_from([[], ["--enumerate"]]).map(lambda m: ["--spec", "p=2; g=x1x2"] + m),
    "simulate": st.sampled_from([[], ["--replay", "<log>"]]),
    "attack": st.sampled_from(["majority", "lf2", "noisefree"]).map(lambda a: ["--attack", a]),
}


def _run_recording(argv):
    """:func:`_run_cli_within_5s`, plus the attributes the command read."""
    recorder = _ReadRecorder()

    def recording_parser(build=cli.build_parser):
        parser = build()
        parse = parser.parse_args
        parser.parse_args = lambda args: parse(args, recorder)
        return parser

    with mock.patch.object(cli, "build_parser", recording_parser):
        code, out, err = _run_cli_within_5s(argv)
    return code, out, err, object.__getattribute__(recorder, "__dict__").get("_reads")


@st.composite
def _mixed_modes(draw):
    command = draw(st.sampled_from(sorted(_MODE_FLAGS)))
    flags = _MODE_FLAGS[command]
    argv = [command] + draw(_MODE_BASE[command])
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), unique=True, min_size=2)):
        argv += [flag, draw(flags[flag])]
    return argv


@given(_mixed_modes())
@example(["simulate", "--replay", "<log>", "--k", "8"])
@example(["attack", "--attack", "majority", "--b", "3", "--seed", "1"])
@example(["attack", "--attack", "lf2", "--reps", "5", "--seed", "1"])
@example(["analyze", "--spec", "p=2; g=x1x2", "--enumerate"])
@example(["analyze", "--spec", "p=2; g=x1x2", "--p", "3"])
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_each_given_flag_is_read_or_refused(unread_paths, argv):
    """An argv exits 2 naming a given flag that its mode does not read, or its
    command reads every flag it was given.  A refused flag is dropped and the
    rest run again, so a flag left unread behind another refusal still shows."""
    argv = [unread_paths.get(token, token) for token in argv]
    while True:
        code, out, err, reads = _run_recording(argv)
        assert "Traceback" not in err
        if code != 2:
            break
        assert out == "" and not os.path.exists(unread_paths["<out>"])
        refused = re.search(r"does not read (--[\w-]+)$", err, re.M)
        assert refused and refused.group(1) in argv, err
        at = argv.index(refused.group(1))
        del argv[at : at + 2]
    given = {dest for flag, dest in _flag_dests(argv[0]).items() if flag in argv}
    assert given <= reads, (argv, code, err)
    if os.path.exists(unread_paths["<out>"]):
        os.remove(unread_paths["<out>"])


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


@pytest.mark.parametrize("argv", [
    ["auth", "--server", "127.0.0.1:1", "--timeout", "-1"],
    ["auth", "--server", "127.0.0.1:1", "--timeout", "nan"],
    ["auth", "--server", "127.0.0.1:1", "--timeout", "inf"],
    ["auth", "--server", "127.0.0.1:1", "--timeout", "0"],
    ["auth", "--server", "127.0.0.1:1", "--timeout", "1e10"],
    ["auth", "--server", "127.0.0.1:70000"],
    ["serve", "--bind", "127.0.0.1:70000"],
], ids=" ".join)
def test_bad_address_or_timeout_is_a_usage_error_before_any_socket(argv, monkeypatch, tmp_path):
    def no_socket(*args, **kwargs):
        raise AssertionError("a socket was opened")

    monkeypatch.setattr(socket, "socket", no_socket)
    monkeypatch.setattr(socket, "create_connection", no_socket)
    keys = str(tmp_path / "keys.txt")
    rest = ["--keystore", keys] if argv[0] == "serve" else ["--identity", "tag-01", "--key-file", keys]
    code, _, err = run_cli(argv + rest)
    assert code == 2
    assert "Traceback" not in err
    assert "argument --" in err


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


def test_serve_exits_one_when_the_server_stops(tmp_path, monkeypatch):
    monkeypatch.setattr(authsvc.AuthService, "serve_forever", lambda service: None)
    keystore = _one_key_keystore(tmp_path / "keys.txt")
    argv = ["serve", "--bind", "127.0.0.1:0", "--keystore", keystore, "--seed", "1"]
    result = []
    command = threading.Thread(target=lambda: result.append(run_cli(argv)), daemon=True)
    command.start()
    command.join(timeout=10)
    assert not command.is_alive(), "nlhb serve kept waiting on a stopped server"
    code, _, err = result[0]
    assert code == 1
    assert err == "error: the server stopped\n"


def test_serve_exits_zero_on_ctrl_c_and_releases_its_port(tmp_path, monkeypatch):
    def interrupted(service):
        raise KeyboardInterrupt

    monkeypatch.setattr(authsvc.AuthService, "serve_forever", interrupted)
    keystore = _one_key_keystore(tmp_path / "keys.txt")
    code, out, err = run_cli(["serve", "--bind", "127.0.0.1:0", "--keystore", keystore, "--seed", "1"])
    assert (code, err) == (0, "")
    host, port = kv(out)["listening"].rsplit(":", 1)
    with socket.socket() as fresh:
        fresh.bind((host, int(port)))  # refused while the service still held it


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


def test_config_allows_spaces_around_the_equals_sign(tmp_path):
    flags = _config_flags(tmp_path, b"k = 8\nproto =nlhb\n\neps= 1/4 \n")
    assert flags == ["simulate", "--k", "8", "--proto", "nlhb", "--eps", "1/4", "--seed", "3"]


@pytest.mark.parametrize("value", ["1e1000000", "1E1000000", "25e-2", "1/4e0"])
def test_fraction_flags_refuse_the_exponent_form(value, tmp_path):
    code, out, err = _run_cli_within_5s(["params", "--eps", value, "--epsp", "348/1000"])
    assert (code, out) == (2, "")
    assert "1/4 or 0.25" in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eps=%s\nepsp=348/1000\n" % value)
    code, out, err = _run_cli_within_5s(["params", "--config", str(cfg)])
    assert (code, out) == (2, "")
    assert "1/4 or 0.25" in err


def test_fraction_flags_accept_a_ratio_or_a_decimal(tmp_path):
    want = run_cli(["params", "--eps", "1/4", "--epsp", "348/1000", "--dd", "1164"])
    assert want[0] == 0
    assert run_cli(["params", "--eps", "0.25", "--epsp", "0.348", "--dd", "1164"]) == want
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eps = 0.25\nepsp=87/250\ndd=1164\n")
    assert run_cli(["params", "--config", str(cfg)]) == want


def test_config_repeated_key_is_an_error(tmp_path):
    for text in ("k=8\nk=9\n", "k=8\n\nk=9\n", "k=8\nk =9\n"):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        code, _, err = run_cli(["simulate", "--config", str(cfg)])
        assert code == 1
        assert "'k'" in err


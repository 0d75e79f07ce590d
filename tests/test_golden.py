"""Golden seeded outputs: transcripts and attack/reduction reports, pinned by digest.

Every digest here was computed before the GF(2) kernels were rewritten;
a kernel, validation or RNG change that alters any seeded output fails
this file.  To re-pin after an intended behaviour change, print
``_digest(...)`` for the failing case and say why in CHANGES.md.
"""

import contextlib
import hashlib
import io
from fractions import Fraction

import numpy as np
import pytest

from nlhb import attacks, authsvc, cli
from nlhb import reductions as red
from nlhb.gf2core import RandomSource, mat_vec_mul
from nlhb.nlfunc import DEFAULT_SPEC
from nlhb.protocols import (
    SecretKey,
    generate_key,
    hb_params,
    nlhb_params,
    run_session,
    transcript_sampler,
    transcripts_to_text,
)

EPS, EPSP = Fraction(1, 4), Fraction(348, 1000)
SMALL_EPS, SMALL_EPSP = Fraction(1, 8), Fraction(1, 4)


def _digest(text: str) -> str:
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def _paper_params(proto):
    blinded = proto.endswith("+")
    if proto.startswith("nl"):
        return nlhb_params(128, 1167, EPS, EPSP, DEFAULT_SPEC, blinded=blinded)
    return hb_params(128, 1164, EPS, EPSP, blinded=blinded)


def _report_text(report) -> str:
    key = report.recovered_key
    lines = [
        "attack=%s proto=%s queries=%d success=%s" % (
            report.attack, report.proto, report.queries, report.success),
        "key=%s" % ("none" if key is None else "".join(str(int(b)) for b in key)),
    ]
    lines += ["%s=%r" % (name, report.stats[name]) for name in sorted(report.stats)]
    return "\n".join(lines) + "\n"


def _bits_text(bits) -> str:
    return "".join(str(int(b)) for b in bits)


SESSION_DIGESTS = {
    "hb": "8b69388a5a4639a2e33be8a57193dcdc",
    "hb+": "dee291cc7687664c959366dd38672c59",
    "nlhb": "274701ae630d0e7a551909d66410078c",
    "nlhb+": "5b6d826e012d6e62bb1faaccf705d158",
}


@pytest.mark.parametrize("proto", sorted(SESSION_DIGESTS))
def test_golden_run_session_paper_size(proto):
    params = _paper_params(proto)
    root = RandomSource(2024)
    key = generate_key(params, root.derive("key-" + proto))
    prover = root.derive("prover-" + proto)
    verifier = root.derive("verifier-" + proto)
    sessions = [run_session(params, key, prover, verifier) for _ in range(3)]
    assert all(t.accepted for t in sessions)
    assert _digest(transcripts_to_text(sessions)) == SESSION_DIGESTS[proto]


def test_golden_transcript_sampler():
    params = _paper_params("nlhb")
    key = generate_key(params, RandomSource(31))
    sessions = transcript_sampler(params, key, RandomSource(32), 4)
    assert _digest(transcripts_to_text(sessions)) == "6a20bc7f7616effefb7498f23583b714"


def test_golden_majority_vote_nlhb():
    params = nlhb_params(10, 67, SMALL_EPS, SMALL_EPSP, DEFAULT_SPEC)
    key = generate_key(params, RandomSource(41))
    oracle = attacks.make_prover_oracle(params, key, RandomSource(42))
    report = attacks.majority_vote_attack(oracle, 10, None, params, rng=RandomSource(43))
    assert report.success
    assert _digest(_report_text(report)) == "36250799fc188ef7aa42f092bde78a56"


def test_golden_majority_vote_hb():
    params = hb_params(16, 64, SMALL_EPS, SMALL_EPSP)
    key = generate_key(params, RandomSource(44))
    oracle = attacks.make_prover_oracle(params, key, RandomSource(45))
    report = attacks.majority_vote_attack(oracle, 16, None, params, rng=RandomSource(46))
    assert report.success
    assert _digest(_report_text(report)) == "77d0512aebb68b90b468eceddea31bd0"


def test_golden_noise_free_selection_nlhb():
    params = nlhb_params(10, 67, SMALL_EPS, SMALL_EPSP, DEFAULT_SPEC)
    key = generate_key(params, RandomSource(51))
    ts = transcript_sampler(params, key, RandomSource(52), 12)
    report = attacks.noise_free_selection_attack(ts, 10, 50, rng=RandomSource(53))
    assert report.success
    assert _digest(_report_text(report)) == "092a81601249fbe559f31bb952b9f446"


def test_golden_noise_free_survivor_filter():
    # At k=8, D=16 the first transcript leaves several keys, so these runs
    # go through the survivor filter: 2 or 3 transcripts, successes, a
    # failed verification and a run that filters out every key.
    params = nlhb_params(8, 19, SMALL_EPS, SMALL_EPSP, DEFAULT_SPEC)
    texts = []
    for s in range(6):
        key = generate_key(params, RandomSource(10 * s + 1))
        ts = transcript_sampler(params, key, RandomSource(10 * s + 2), 12)
        report = attacks.noise_free_selection_attack(ts, 8, 50, rng=RandomSource(10 * s + 3))
        assert report.stats["bruteforce_transcripts_used"] >= 2
        texts.append(_report_text(report))
    assert _digest("".join(texts)) == "3f8b36fca092f1d1362635ea3f940d6e"


def test_golden_noise_free_selection_hb():
    params = hb_params(8, 64, SMALL_EPS, SMALL_EPSP)
    key = generate_key(params, RandomSource(54))
    ts = transcript_sampler(params, key, RandomSource(55), 12)
    report = attacks.noise_free_selection_attack(ts, 8, 200, rng=RandomSource(56))
    assert report.success
    assert _digest(_report_text(report)) == "1722be43b475625ed8bca94e060da68e"


def test_golden_lf2_attack():
    params = hb_params(16, 256, SMALL_EPS, SMALL_EPSP)
    key = generate_key(params, RandomSource(61))
    ts = transcript_sampler(params, key, RandomSource(62), 64)
    report = attacks.lf2_attack(ts, 8, params)
    assert _digest(_report_text(report)) == "28b9722f4109031088ca0575ee1e4467"


def test_golden_algorithm_x():
    params = nlhb_params(8, 259, SMALL_EPS, SMALL_EPSP, DEFAULT_SPEC)
    key = generate_key(params, RandomSource(71))
    oracle = red.ideal_distinguisher(params, key, q=2, seed=7)
    source = red.honest_transcript_source(params, key, RandomSource(72))
    ideal = red.algorithm_x(oracle, source, 8, n_batches=16)

    hb = hb_params(8, 256, SMALL_EPS, SMALL_EPSP)
    hb_key = generate_key(hb, RandomSource(73))
    forger = red.PerfectPassiveForger(hb, hb_key, q=3)
    composed_oracle = red.forger_to_distinguisher(forger, 3, Fraction(43, 100), seed=8)
    composed = red.algorithm_x(
        composed_oracle, red.honest_transcript_source(hb, hb_key, RandomSource(74)), 8,
        n_batches=16,
    )
    text = "ideal=%s\ncomposed=%s\n" % (_bits_text(ideal), _bits_text(composed))
    assert _digest(text) == "9af8db5ded0e04ef8f26a58b38414a92"


def test_golden_rewinding_distinguisher():
    blinded = nlhb_params(10, 131, SMALL_EPS, SMALL_EPSP, DEFAULT_SPEC, blinded=True)
    plain = nlhb_params(10, 131, SMALL_EPS, SMALL_EPSP, DEFAULT_SPEC)
    s1 = RandomSource(81).uniform_bits(10)
    forger = red.ExtractingActiveForger(blinded, s1, q=5)
    oracle = red.active_forger_to_distinguisher(forger, 5, Fraction(91, 200), seed=9)
    honest = red.honest_transcript_source(plain, SecretKey(s1=s1), RandomSource(82))
    uniform = red.uniform_string_source(plain, RandomSource(83))
    verdicts = [oracle(honest(5)) for _ in range(6)] + [oracle(uniform(5)) for _ in range(6)]
    assert _digest("".join(map(str, verdicts))) == "873a2bc570042359f95b947479deda4e"


def test_golden_brute_force_unld():
    k, n_prime, n = 8, 10, 31
    root = RandomSource(91)
    secret = root.derive("secret").uniform_bits(k)
    rng = root.derive("embed")
    instances = []
    for _ in range(6):
        g = rng.uniform_matrix(k, n_prime)
        z = mat_vec_mul(secret, g) ^ rng.bernoulli_bits(n_prime, SMALL_EPS)
        a, y, _ = red.lpn_to_unld_embed(g, z, DEFAULT_SPEC, n, rng, SMALL_EPS)
        instances.append((a, y))
    recovered, distance = red.brute_force_unld(instances, k, DEFAULT_SPEC)
    assert np.array_equal(recovered, secret)
    text = "key=%s distance=%d\n" % (_bits_text(recovered), distance)
    assert _digest(text) == "342a857e8c977894bc629a3acf15ce45"


# The reduction TSV of `nlhb reduce` for every forger.
# thm3 runs at eps=1/4, eps'=3/8 and thm4 at D=16 with eps1 near the bottom
# of its interval, so that the rates fall strictly between 0 and the trial
# count wherever the forger allows it.
_THM_ARGS = ["--k", "8", "--n", "67", "--eps", "1/4", "--epsp", "3/8", "--seed", "11"]
_THM4_ARGS = ["--proto", "nlhb+", "--n", "19", "--eps1", "47/100", "--trials", "24"]
REDUCE_DIGESTS = {
    ("thm3", "perfect"): "aac0fb8eeda291f6371f7e9e0dc196fe",
    ("thm3", "honest"): "61a7024e7e86d73f0160b37f30e63a26",
    ("thm3", "random"): "bd6b920d5ad2e192d669b398f14ed43b",
    ("thm4", "perfect"): "6b234f633b0cd9ec26f8b0496a2acc74",
    ("thm4", "honest"): "5cc83cd1d02af8ec039edbe57c48c201",
    ("thm4", "random"): "ff86de1bedbae2b90da140882dc0b59e",
    ("thm4", "learning"): "d7e7111c9c5b3e00d1975c0559ec0dbb",
}


def _cli_digest(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return _digest(out.getvalue())


@pytest.mark.parametrize("mode, adversary", sorted(REDUCE_DIGESTS))
def test_golden_reduce_report(mode, adversary):
    argv = ["reduce", mode, "--adversary", adversary] + _THM_ARGS
    argv += ["--trials", "40"] if mode == "thm3" else _THM4_ARGS
    assert _cli_digest(argv) == REDUCE_DIGESTS[mode, adversary]


# The other `nlhb reduce` modes: algorithm X, the LPN embedding and one hybrid.
DRIVER_DIGESTS = {
    "thm2": (_THM_ARGS, "472408d4f24080754709b2a47a2437b0"),
    "embed": (["--seed", "11"], "a06bd0e652211b734b985a84ff38f6e5"),
    "hybrid": (["--row", "3"] + _THM_ARGS, "e86aad021eebdfdda3c844669df63b54"),
}


@pytest.mark.parametrize("mode", sorted(DRIVER_DIGESTS))
def test_golden_reduce_driver(mode):
    args, digest = DRIVER_DIGESTS[mode]
    assert _cli_digest(["reduce", mode] + args) == digest


SERVER_LOG_DIGESTS = {
    "hb+": "3e2bb9a551928b53cbbe316d7d178e53",
    "nlhb": "65cc9eef7ba695e08ede8d9f15fd7f05",
}


@pytest.mark.parametrize("proto", sorted(SERVER_LOG_DIGESTS))
def test_golden_loopback_server_log(proto, tmp_path):
    # The log holds the client's blinding matrix and response, so it pins the
    # prover's draws as well as the server's challenges.
    if proto == "hb+":
        params = hb_params(16, 64, SMALL_EPS, SMALL_EPSP, blinded=True)
    else:
        params = nlhb_params(16, 67, SMALL_EPS, SMALL_EPSP, DEFAULT_SPEC)
    key = generate_key(params, RandomSource(101))
    log_path = tmp_path / "sessions.log"
    entry = authsvc.KeystoreEntry("t", params, key)
    with authsvc.AuthService(("127.0.0.1", 0), {"t": entry}, seed=102, log_path=log_path) as running:
        for i in range(3):
            authsvc.authenticate(running.address, "t", key, params, rng=RandomSource(103 + i))
    assert _digest(log_path.read_text(encoding="utf-8")) == SERVER_LOG_DIGESTS[proto]

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from support import lf2_merge, measured_merge_distribution, total_variation

from nlhb.attacks import (
    AttackReport,
    _independent_columns,
    _merge_scores,
    _pool_samples,
    _score_block,
    NeedMoreSamplesError,
    default_majority_reps,
    lf2_attack,
    majority_vote_attack,
    make_prover_oracle,
    noise_free_selection_attack,
)
from nlhb.gf2core import ParameterError, RandomSource, gf2_rank, hamming, mat_vec_mul
from nlhb.nlfunc import DEFAULT_SPEC, merge_error_distribution
from nlhb.protocols import (
    SecretKey,
    expected_response,
    generate_key,
    hb_params,
    nlhb_params,
    run_session,
    transcript_sampler,
)

EPSP = Fraction(348, 1000)


def exact_majority_tail_leq(reps, eps, log2_target):
    """Integer-only oracle: P[B(reps, eps) >= ceil(reps/2)] <= 2**log2_target."""
    num, den = eps.numerator, eps.denominator
    need = (reps + 1) // 2
    tail = sum(
        math.comb(reps, i) * num**i * (den - num) ** (reps - i)
        for i in range(need, reps + 1)
    )
    # tail/den^reps <= 2^log2_target  <=>  tail * 2^-log2_target <= den^reps
    return tail * (1 << -log2_target) <= den**reps


def test_default_majority_reps_is_minimal_odd():
    for eps, frozen in ((Fraction(1, 4), 79), (Fraction(1, 8), 27)):
        reps = default_majority_reps(eps)
        assert reps == frozen
        assert exact_majority_tail_leq(reps, eps, -20)
        assert not exact_majority_tail_leq(reps - 2, eps, -20)
    with pytest.raises(ParameterError):
        default_majority_reps(Fraction(3, 4))
    with pytest.raises(ParameterError):
        default_majority_reps(Fraction(1, 4), log2_target=5)


def test_majority_recovers_hb_key():
    p = hb_params(32, 256, Fraction(1, 4), EPSP)
    key = generate_key(p, RandomSource(1))
    oracle = make_prover_oracle(p, key, RandomSource(2))
    report = majority_vote_attack(oracle, 32, None, p, rng=RandomSource(3))
    assert report.success
    assert np.array_equal(report.recovered_key, key.s1)
    assert report.queries == report.stats["reps"] + report.stats["verify_count"]
    assert abs(report.stats["noise_rate_estimate"] - 0.25) < 0.03


def test_majority_noiseless_single_rep():
    p = hb_params(16, 64, Fraction(1, 4), EPSP)
    key = generate_key(p, RandomSource(4))
    zero = np.zeros(p.d, dtype=np.uint8)

    def oracle(a):
        from nlhb.protocols import respond

        return respond(p, key, a, noise=zero)

    report = majority_vote_attack(oracle, 16, 1, p, rng=RandomSource(5))
    assert report.success and report.stats["rounds_used"] == 1
    assert np.array_equal(report.recovered_key, key.s1)


def test_majority_nlhb_denoise_and_bruteforce():
    p = nlhb_params(12, 259, Fraction(1, 4), EPSP, DEFAULT_SPEC)
    key = generate_key(p, RandomSource(6))
    oracle = make_prover_oracle(p, key, RandomSource(7))
    report = majority_vote_attack(oracle, 12, None, p, rng=RandomSource(8))
    assert report.success
    assert np.array_equal(report.recovered_key, key.s1)


def test_majority_validation():
    p = hb_params(8, 32, Fraction(1, 4), EPSP)
    key = generate_key(p, RandomSource(9))
    oracle = make_prover_oracle(p, key, RandomSource(10))
    with pytest.raises(ParameterError):
        majority_vote_attack(oracle, 8, 4, p)  # even reps
    with pytest.raises(ParameterError):
        majority_vote_attack(oracle, 9, 3, p)  # k mismatch
    plus = hb_params(8, 32, Fraction(1, 4), EPSP, blinded=True)
    with pytest.raises(ParameterError):
        majority_vote_attack(oracle, 8, 3, plus)
    with pytest.raises(ParameterError):
        make_prover_oracle(plus, generate_key(plus, RandomSource(11)), RandomSource(12))


def test_majority_reports_failure_on_garbage_oracle():
    p = hb_params(8, 32, Fraction(1, 4), EPSP)
    junk = RandomSource(13)

    def oracle(a):
        return junk.uniform_bits(p.d)

    report = majority_vote_attack(oracle, 8, 3, p, rng=RandomSource(14), max_rounds=3)
    assert not report.success and report.recovered_key is None
    assert "failure" in report.stats


# --- lf2 ----------------------------------------------------------------------

def rank_scan_columns(x, k, scan_limit=None):
    """Reference column selection: one rank computation per scanned column."""
    limit = x.shape[1] if scan_limit is None else min(scan_limit, x.shape[1])
    span = np.zeros((0, k), dtype=np.uint8)
    picked = []
    for j in range(limit):
        grown = np.vstack([span, x[:, j]])
        if gf2_rank(grown) > span.shape[0]:
            span = grown
            picked.append(j)
            if len(picked) == k:
                return np.array(picked)
    return None


@pytest.mark.parametrize("seed", range(12))
def test_independent_columns_match_rank_scan(seed):
    rng = RandomSource(700 + seed)
    k = 1 + seed % 9
    cols = 3 * k + seed
    x = rng.uniform_matrix(k, cols)
    if seed % 3 == 1:
        x[:, 1::2] = x[:, 0:-1:2]  # repeated columns
    if seed % 3 == 2:
        x[-1, :] = x[0, :] if k > 1 else 0  # rank k-1: no selection exists
    for limit in (None, k + 2, 2 * k):
        want = rank_scan_columns(x, k, limit)
        got = _independent_columns(x, k, limit)
        if want is None:
            assert got is None
        else:
            assert np.array_equal(got, want)
            assert gf2_rank(x[:, got]) == k


def test_lf2_merge_conserves_planted_relation():
    rng = RandomSource(20)
    s = rng.uniform_bits(10)
    a = rng.uniform_matrix(10, 400)
    z = mat_vec_mul(s, a)  # noiseless
    merged, merged_z, log = lf2_merge(a, z, 4)
    assert not merged[4:, :].any()
    assert np.array_equal(merged_z, mat_vec_mul(s, merged))
    for i, j in log:
        assert np.array_equal(a[4:, i], a[4:, j])


def test_lf2_merge_identical_columns():
    a = np.zeros((4, 2), dtype=np.uint8)
    a[:, 0] = [1, 0, 1, 1]
    a[:, 1] = [1, 0, 1, 1]
    z = np.array([1, 0], dtype=np.uint8)
    merged, merged_z, log = lf2_merge(a, z, 2)
    assert merged.shape == (4, 1) and not merged.any()
    assert merged_z[0] == 1  # XOR of the two response bits
    assert log == [(0, 1)]


def test_lf2_merge_validation():
    a = np.zeros((4, 8), dtype=np.uint8)
    z = np.zeros(8, dtype=np.uint8)
    with pytest.raises(ParameterError):
        lf2_merge(a, z, 0)
    with pytest.raises(ParameterError):
        lf2_merge(a, z, 4)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 9), st.integers(0, 300), st.data(), st.integers(0, 2**32 - 1))
def test_streamed_merge_scores_match_materialized_pairs(k, n_samples, data, seed):
    # lf2_merge materializes the pairs and stays the reference; the rows are
    # taken in a drawn order, as lf2_attack does once key bits are stripped
    b = data.draw(st.integers(1, k - 1))
    perm = np.array(data.draw(st.permutations(range(k))))
    rng = RandomSource(seed)
    x = rng.uniform_matrix(k, n_samples)
    y = rng.uniform_bits(n_samples)
    merged, merged_y, log = lf2_merge(x[perm], y, b)
    scores, total, nonempty = _merge_scores(x, y, perm[:b], perm[b:])
    assert np.array_equal(scores, _score_block(merged[:b], merged_y))
    assert total == len(log)
    assert nonempty == max(1, len({col.tobytes() for col in x[perm[b:]].T}))


def test_lf2_merge_round_memory_is_bounded():
    # the merge round of the k=16 lf2 benchmark job: materializing its pairs
    # as bytes and then as uint64 codes peaked at 109 MB
    hb = hb_params(16, 256, Fraction(1, 8), Fraction(1, 4))
    key = generate_key(hb, RandomSource(11))
    x, y = _pool_samples(transcript_sampler(hb, key, RandomSource(12), 96))
    tracemalloc.start()
    try:
        _, total, _ = _merge_scores(x, y, np.arange(8), np.arange(8, 16))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert total > 10**6
    assert peak < 8 * 2**20


def test_lf2_merge_apparent_noise_rate():
    # buckets engineered to hold exactly one pair each, so the 10^4 merged
    # bits are independent and the XOR-noise formula 2*eps*(1-eps) gets an
    # honest 4-sigma binomial check
    eps = Fraction(1, 4)
    pairs = 10**4
    k, b = 17, 2
    rng = RandomSource(21)
    s = rng.uniform_bits(k)
    low = np.unpackbits(
        np.arange(pairs, dtype=np.uint32).view(np.uint8).reshape(-1, 4),
        axis=1,
        bitorder="little",
    )[:, : k - b].T.astype(np.uint8)
    a = np.zeros((k, 2 * pairs), dtype=np.uint8)
    a[:b, :] = rng.uniform_matrix(b, 2 * pairs)
    a[b:, 0::2] = low
    a[b:, 1::2] = low
    noise = rng.bernoulli_bits(2 * pairs, eps)
    z = mat_vec_mul(s, a) ^ noise
    merged, merged_z, log = lf2_merge(a, z, b)
    assert merged.shape[1] == pairs
    rate = float(np.mean(merged_z ^ mat_vec_mul(s, merged)))
    q = 2 * float(eps) * (1 - float(eps))
    assert abs(rate - q) < 4 * math.sqrt(q * (1 - q) / pairs)


def test_lf2_attack_recovers_hb_key():
    p = hb_params(16, 256, Fraction(1, 8), Fraction(1, 4))
    key = generate_key(p, RandomSource(22))
    ts = transcript_sampler(p, key, RandomSource(23), 64)
    vts = transcript_sampler(p, key, RandomSource(24), 100)
    report = lf2_attack(ts, 8, p, verify_transcripts=vts)
    assert report.success
    assert np.array_equal(report.recovered_key, key.s1)
    merge_round, direct_round = report.stats["rounds"]
    assert merge_round["kind"] == "merge" and direct_round["kind"] == "direct"
    assert abs(merge_round["best_bias"] - 0.5625) < 0.05  # (1-2eps)^2
    assert abs(direct_round["best_bias"] - 0.75) < 0.05  # 1-2eps
    assert report.stats["verify_accepts"] >= 95  # key-recovery invariant


def test_lf2_attack_noiseless_fast_path():
    p = hb_params(16, 64, Fraction(1, 8), Fraction(1, 4))
    key = generate_key(p, RandomSource(25))
    rng = RandomSource(26)
    zero = np.zeros(p.d, dtype=np.uint8)
    ts = [run_session(p, key, rng, rng, noise=zero) for _ in range(4)]
    report = lf2_attack(ts, 8, p)
    assert report.success and report.stats["fast_path"]
    assert np.array_equal(report.recovered_key, key.s1)


def test_lf2_attack_nlhb_correlation_collapses():
    p = nlhb_params(16, 259, Fraction(1, 8), Fraction(1, 4), DEFAULT_SPEC)
    key = generate_key(p, RandomSource(27))
    ts = transcript_sampler(p, key, RandomSource(28), 64)
    vts = transcript_sampler(p, key, RandomSource(29), 100)
    report = lf2_attack(ts, 8, p, verify_transcripts=vts)
    assert not report.success
    assert report.stats["verify_accepts"] == 0
    for round_info in report.stats["rounds"]:
        assert abs(round_info["best_bias"]) < 0.1


def test_lf2_attack_needs_samples():
    p = hb_params(16, 64, Fraction(1, 4), EPSP)
    key = generate_key(p, RandomSource(30))
    ts = transcript_sampler(p, key, RandomSource(31), 1)
    vts = transcript_sampler(p, key, RandomSource(32), 4)
    with pytest.raises(NeedMoreSamplesError) as err:
        lf2_attack(ts, 8, p, verify_transcripts=vts)
    assert err.value.have < err.value.need


def test_lf2_attack_validation():
    p = hb_params(16, 64, Fraction(1, 8), Fraction(1, 4))
    key = generate_key(p, RandomSource(33))
    ts = transcript_sampler(p, key, RandomSource(34), 8)
    with pytest.raises(ParameterError):
        lf2_attack(ts, 0, p)
    with pytest.raises(ParameterError):
        lf2_attack(ts, 17, p)
    other = hb_params(16, 65, Fraction(1, 8), Fraction(1, 4))
    with pytest.raises(ParameterError):
        lf2_attack(ts, 8, other)
    plus = hb_params(8, 32, Fraction(1, 8), Fraction(1, 4), blinded=True)
    kplus = generate_key(plus, RandomSource(35))
    tplus = transcript_sampler(plus, kplus, RandomSource(36), 4)
    with pytest.raises(ParameterError):
        lf2_attack(tplus, 4)


# --- noise-free selection ------------------------------------------------------

def test_noise_free_first_trial_when_noiseless():
    p = hb_params(12, 64, Fraction(1, 8), Fraction(1, 4))
    key = generate_key(p, RandomSource(40))
    rng = RandomSource(41)
    zero = np.zeros(p.d, dtype=np.uint8)
    ts = [run_session(p, key, rng, rng, noise=zero) for _ in range(8)]
    report = noise_free_selection_attack(ts, 12, 10, rng=RandomSource(42))
    assert report.success and report.stats["trials_used"] == 1
    assert np.array_equal(report.recovered_key, key.s1)


def test_noise_free_trial_count_matches_geometric_mean():
    # per-trial success is exactly (1-eps)^k = (7/8)^12; over 200 seeded runs
    # the mean trial count sits within 4 sigma of the geometric expectation
    p = hb_params(12, 256, Fraction(1, 8), Fraction(1, 4))
    q = (7 / 8) ** 12
    counts = []
    for run in range(200):
        key = generate_key(p, RandomSource(1000 + run))
        ts = transcript_sampler(p, key, RandomSource(3000 + run), 4)
        vts = transcript_sampler(p, key, RandomSource(5000 + run), 8)
        report = noise_free_selection_attack(
            ts, 12, 400, rng=RandomSource(7000 + run), verify_transcripts=vts
        )
        assert report.success
        counts.append(report.stats["trials_used"])
    mean = float(np.mean(counts))
    sigma_mean = math.sqrt((1 - q) / q**2 / len(counts))
    assert abs(mean - 1 / q) < 4 * sigma_mean


def test_noise_free_nlhb_bruteforce_path():
    p = nlhb_params(12, 259, Fraction(1, 8), Fraction(1, 4), DEFAULT_SPEC)
    key = generate_key(p, RandomSource(43))
    ts = transcript_sampler(p, key, RandomSource(44), 8)
    report = noise_free_selection_attack(ts, 12, 10, rng=RandomSource(45))
    assert report.success
    assert np.array_equal(report.recovered_key, key.s1)
    assert report.stats["bruteforce_evaluations"] == 2**12
    assert report.stats["linear_solve"].startswith("inapplicable")


def test_noise_free_trials_exhausted():
    p = hb_params(10, 64, Fraction(1, 4), EPSP)
    key = generate_key(p, RandomSource(46))
    rng = RandomSource(47)
    ones = np.ones(p.d, dtype=np.uint8)  # every pool bit flipped: no clean pick
    pool = [run_session(p, key, rng, rng, noise=ones) for _ in range(2)]
    vts = transcript_sampler(p, key, RandomSource(48), 8)
    report = noise_free_selection_attack(pool, 10, 5, rng=RandomSource(49), verify_transcripts=vts)
    assert not report.success and report.recovered_key is None
    assert report.stats["trials_used"] == 5
    assert "failure" in report.stats
    assert report.stats["per_trial_success_estimate"] == pytest.approx((3 / 4) ** 10)


def test_recovered_key_verifies_fresh_transcripts():
    # the report invariant, checked against transcripts the attack never saw
    p = hb_params(16, 256, Fraction(1, 8), Fraction(1, 4))
    key = generate_key(p, RandomSource(50))
    ts = transcript_sampler(p, key, RandomSource(51), 64)
    report = lf2_attack(ts, 8, p)
    assert report.success
    fresh = transcript_sampler(p, key, RandomSource(52), 100)
    rkey = SecretKey(s1=report.recovered_key)
    accepts = sum(
        hamming(t.z, expected_response(p, rkey, t.a)) <= p.u for t in fresh
    )
    assert accepts >= 95


# --- merge error distribution, measured at protocol level ----------------------

def test_measured_merge_distribution_matches_exact_law():
    exact = merge_error_distribution(DEFAULT_SPEC)
    measured = measured_merge_distribution(DEFAULT_SPEC, RandomSource(60), 10**4)
    assert total_variation(measured, exact.probabilities) <= 0.05


def test_attack_report_shape():
    p = hb_params(8, 32, Fraction(1, 4), EPSP)
    key = generate_key(p, RandomSource(61))
    oracle = make_prover_oracle(p, key, RandomSource(62))
    report = majority_vote_attack(oracle, 8, 3, p, rng=RandomSource(63))
    assert isinstance(report, AttackReport)
    assert report.proto == "hb"
    assert report.attack == "majority"

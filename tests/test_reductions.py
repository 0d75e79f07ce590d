"""Reduction constructions: embedding, hybrids, algorithm X, forger wrappers."""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlhb.gf2core import (
    DimensionError,
    ParameterError,
    RandomSource,
    all_bit_vectors,
    hamming,
    mat_vec_mul,
)
from nlhb.nlfunc import DEFAULT_SPEC, apply_f_batch, parse_spec
from nlhb.params import false_accept
from nlhb.protocols import (
    SecretKey,
    expected_response,
    generate_key,
    hb_params,
    nlhb_params,
    transcript_sampler,
)
from nlhb import gf2core, protocols
from nlhb import reductions as red
from support import finite_transcript_source, hybrid_tables


def _feasible_triples(rng, count):
    draws = rng.u64(3 * count).reshape(count, 3)
    out = []
    for row in draws:
        p = int(row[0] % 3) + 2
        n_prime = int(row[1] % 9) + 2
        n = n_prime * p + 1 + int(row[2] % 12)
        out.append((n, n_prime, p))
    return out


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------

def test_default_layout_satisfies_constraints():
    rng = RandomSource(101)
    for n, n_prime, p in _feasible_triples(rng, 100):
        layout = red.default_layout(n, n_prime, p)
        assert len(layout.gaps) == n_prime - 1
        assert all(g >= p - 1 for g in layout.gaps)
        assert sum(layout.gaps) == n - p - n_prime
        assert layout.positions[0] == 1
        assert layout.positions[-1] == n - p
        # remainder beyond the minimal p-1 gaps all sits in the first gap
        if n_prime > 1:
            assert layout.gaps[0] == (p - 1) + (n - n_prime * p - 1)
            assert all(g == p - 1 for g in layout.gaps[1:])


def test_infeasible_triples_rejected():
    with pytest.raises(ParameterError):
        red.default_layout(30, 10, 3)  # needs n' <= (n-1)/p = 29/3


def test_embed_structural_invariants_exhaustive():
    """Every non-original column of A is zero and f(mA) restricted to the
    original positions equals mG — checked for all 2^k messages."""
    rng = RandomSource(102)
    k = 4
    for n, n_prime, p in _feasible_triples(rng, 25):
        if n_prime <= k:
            n_prime = k + 1
            n = n_prime * p + 1 + int(rng.u64(1)[0] % 8)
        spec = DEFAULT_SPEC if p == 3 else parse_spec(
            "p=%d; g=%s" % (p, "+".join("x1x%d" % j for j in range(2, p + 1)))
        )
        g = rng.uniform_matrix(k, n_prime)
        z = rng.uniform_bits(n_prime)
        a, y, layout = red.lpn_to_unld_embed(g, z, spec, n, rng, Fraction(1, 8))
        assert a.shape == (k, n) and y.shape == (n - p,)
        cols = np.array(layout.positions) - 1
        mask = np.ones(n, dtype=bool)
        mask[cols] = False
        assert not a[:, mask].any()
        assert np.array_equal(a[:, cols], g)
        assert np.array_equal(y[cols], z)
        ms = all_bit_vectors(k)
        images = apply_f_batch(spec, (ms @ a) & 1)
        assert np.array_equal(images[:, cols], (ms @ g) & 1)
        fill = np.ones(n - p, dtype=bool)
        fill[cols] = False
        assert not images[:, fill].any()


def test_embed_multi_instance_recovery():
    """Six embedded instances under one planted secret pin it down for the
    exhaustive decoder (a single instance leaves too few informative bits)."""
    k, n_prime, n = 8, 10, 31
    eps = Fraction(1, 8)
    for seed in range(10):
        rng = RandomSource(2000 + seed)
        secret = rng.uniform_bits(k)
        instances = []
        for _ in range(6):
            g = rng.uniform_matrix(k, n_prime)
            z = mat_vec_mul(secret, g) ^ rng.bernoulli_bits(n_prime, eps)
            a, y, _ = red.lpn_to_unld_embed(g, z, DEFAULT_SPEC, n, rng, eps)
            instances.append((a, y))
        recovered, _ = red.brute_force_unld(instances, k, DEFAULT_SPEC)
        assert np.array_equal(recovered, secret)


def test_embed_single_instance_is_underdetermined():
    """With one instance only the n' original positions carry signal, so the
    decoder frequently ties or loses — the reason recovery batches instances."""
    k, n_prime, n = 8, 10, 31
    eps = Fraction(1, 8)
    wins = 0
    for seed in range(30):
        rng = RandomSource(3000 + seed)
        secret = rng.uniform_bits(k)
        g = rng.uniform_matrix(k, n_prime)
        z = mat_vec_mul(secret, g) ^ rng.bernoulli_bits(n_prime, eps)
        a, y, _ = red.lpn_to_unld_embed(g, z, DEFAULT_SPEC, n, rng, eps)
        recovered, _ = red.brute_force_unld([(a, y)], k, DEFAULT_SPEC)
        wins += int(np.array_equal(recovered, secret))
    assert wins < 18


def test_embed_validation():
    rng = RandomSource(103)
    g = rng.uniform_matrix(4, 6)
    z = rng.uniform_bits(6)
    with pytest.raises(ParameterError):  # k >= n'
        red.lpn_to_unld_embed(rng.uniform_matrix(6, 6), rng.uniform_bits(6), DEFAULT_SPEC, 21, rng, Fraction(1, 8))
    with pytest.raises(DimensionError):  # z length
        red.lpn_to_unld_embed(g, rng.uniform_bits(5), DEFAULT_SPEC, 21, rng, Fraction(1, 8))
    with pytest.raises(ParameterError):  # linear spec has no gaps to absorb
        red.lpn_to_unld_embed(g, z, parse_spec("p=0; g=0"), 21, rng, Fraction(1, 8))
    with pytest.raises(ParameterError, match="0 < k"):  # empty secret
        red.lpn_to_unld_embed(
            np.zeros((0, 6), dtype=np.uint8), z, DEFAULT_SPEC, 21, rng, Fraction(1, 8)
        )
    with pytest.raises(ParameterError):
        red.brute_force_unld([], 4, DEFAULT_SPEC)


# ---------------------------------------------------------------------------
# hybrid perturbation: exact distribution facts by full enumeration
# ---------------------------------------------------------------------------

def _hybrid_params():
    return nlhb_params(3, 10, Fraction(1, 8), Fraction(1, 4), DEFAULT_SPEC)


def test_hybrid_noop_and_errors():
    params = _hybrid_params()
    rng = RandomSource(104)
    strings = rng.uniform_matrix(4, red.string_length(params))
    with pytest.raises(ParameterError):
        red.hybrid_sample(strings, 0, params, rng)
    with pytest.raises(ParameterError):
        red.hybrid_sample(strings, 4, params, rng)
    with pytest.raises(DimensionError):
        red.hybrid_sample(strings[:, :-1], 1, params, rng)
    with pytest.raises(DimensionError):
        red.hybrid_sample(strings[0], 1, params, rng)
    bad = strings.copy()
    bad[2, 5] = 2
    with pytest.raises(ParameterError):
        red.hybrid_sample(bad, 1, params, rng)
    before = strings.copy()
    red.hybrid_sample(strings, 1, params, rng)
    assert np.array_equal(strings, before)  # the input batch is not touched


def test_one_string_hybrid_adds_uniform_bits_to_row_i():
    params = _hybrid_params()
    strings = RandomSource(105).uniform_matrix(1, red.string_length(params))
    for i in range(1, params.k + 1):
        out = red.hybrid_sample(strings, i, params, RandomSource(106))
        diff = (out ^ strings)[0]
        lo = (i - 1) * params.n
        assert np.array_equal(diff[lo : lo + params.n], RandomSource(106).uniform_bits(params.n))
        assert not diff[:lo].any() and not diff[lo + params.n :].any()


@given(st.integers(1, 6), st.integers(1, 3), st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_hybrid_changes_only_row_i_of_each_string(q, i, seed):
    params = _hybrid_params()
    strings = RandomSource(seed).uniform_matrix(q, red.string_length(params))
    out = red.hybrid_sample(strings, i, params, RandomSource(seed + 1))
    masks = RandomSource(seed + 1).uniform_matrix(q, params.n)
    expected = strings.copy()
    expected[:, (i - 1) * params.n : i * params.n] ^= masks
    assert out.shape == strings.shape and np.array_equal(out, expected)


def test_hybrid_is_exactly_uniform_when_bit_set():
    # s_1 = 1, perturb row 1: every (A', z) cell gets identical mass
    table = hybrid_tables(s=(1, 0), i=1, include_c=True)
    assert int(table.min()) == int(table.max()) == 512  # 2^24 mass / 2^15 cells


def test_hybrid_equals_honest_when_bit_clear():
    # s_1 = 0, perturb row 1: row 1 never enters sA, so the joint law is the
    # honest one replicated once per c value — zero total variation
    hybrid = hybrid_tables(s=(0, 1), i=1, include_c=True)
    honest = hybrid_tables(s=(0, 1), i=1, include_c=False)
    assert np.array_equal(hybrid, honest * 64)
    # and it is visibly NOT uniform (sanity that the test can fail)
    assert int(hybrid.min()) != int(hybrid.max())


# ---------------------------------------------------------------------------
# batches and oracles
# ---------------------------------------------------------------------------

def test_distinguisher_batch_size_enforced():
    params = nlhb_params(4, 131, Fraction(1, 8), Fraction(1, 4), DEFAULT_SPEC)
    key = generate_key(params, RandomSource(106))
    oracle = red.ideal_distinguisher(params, key, q=2, seed=0)
    src = red.honest_transcript_source(params, key, RandomSource(107))
    assert oracle(src(2)) == 1
    with pytest.raises(ParameterError):
        oracle(src(3))


def test_honest_and_uniform_draws_refuse_a_negative_count():
    params = hb_params(4, 32, Fraction(1, 8), Fraction(1, 4))
    key = generate_key(params, RandomSource(165))
    for draw in (red.honest_transcript_source(params, key, RandomSource(166)),
                 red.uniform_string_source(params, RandomSource(167)),
                 lambda count: transcript_sampler(params, key, RandomSource(168), count)):
        assert len(draw(0)) == 0
        with pytest.raises(ParameterError, match="nonnegative"):
            draw(-1)


@pytest.mark.parametrize("other", [
    hb_params(4, 33, Fraction(1, 8), Fraction(1, 4)),  # another shape
    hb_params(4, 32, Fraction(1, 16), Fraction(1, 4)),  # the same shape, another eps
])
def test_transcript_batch_refuses_records_of_other_params(other):
    params = hb_params(4, 32, Fraction(1, 8), Fraction(1, 4))
    records = transcript_sampler(params, generate_key(params, RandomSource(161)), RandomSource(162), 2)
    stray = transcript_sampler(other, generate_key(other, RandomSource(163)), RandomSource(164), 1)
    with pytest.raises(ParameterError, match="transcripts mix protocol parameters"):
        red.transcript_batch(params, records + stray)


def test_distinguisher_refuses_a_malformed_batch():
    params = nlhb_params(4, 131, Fraction(1, 8), Fraction(1, 4), DEFAULT_SPEC)
    calls = []
    oracle = red.DistinguisherOracle(
        func=lambda strings: calls.append(strings) or 1, q=2, advantage=1.0, seed=0,
        params=params,
    )
    batch = RandomSource(160).uniform_matrix(2, red.string_length(params))
    with pytest.raises(DimensionError):
        oracle(batch[:, :-1])
    with pytest.raises(DimensionError):
        oracle(np.hstack([batch, batch[:, :1]]))
    bad = batch.copy()
    bad[1, 7] = 2
    with pytest.raises(ParameterError, match="0 or 1"):
        oracle(bad)
    assert calls == []
    oracle(batch)
    assert len(calls) == 1 and np.array_equal(calls[0], batch)


def test_finite_source_exhaustion():
    params = nlhb_params(4, 131, Fraction(1, 8), Fraction(1, 4), DEFAULT_SPEC)
    key = generate_key(params, RandomSource(108))
    pool = red.honest_transcript_source(params, key, RandomSource(109))(6)
    src = finite_transcript_source(list(pool))
    src(4)
    with pytest.raises(ParameterError, match="exhausted"):
        src(3)


# ---------------------------------------------------------------------------
# algorithm X
# ---------------------------------------------------------------------------

def test_algorithm_x_ideal_oracle_recovers_key():
    params = nlhb_params(8, 259, Fraction(1, 8), Fraction(1, 4), DEFAULT_SPEC)
    hits = 0
    for seed in range(20):
        key = generate_key(params, RandomSource(4000 + seed))
        oracle = red.ideal_distinguisher(params, key, q=2, seed=seed)
        src = red.honest_transcript_source(params, key, RandomSource(5000 + seed))
        recovered = red.algorithm_x(oracle, src, 8, n_batches=32)
        hits += int(np.array_equal(recovered, key.s1))
    assert hits >= 19


def test_algorithm_x_single_batch_noiseless():
    # with a noiseless source the rates are 0/1 exactly, so N=1 suffices
    params = nlhb_params(8, 259, Fraction(1, 8), Fraction(1, 4), DEFAULT_SPEC)
    key = generate_key(params, RandomSource(110))

    def noiseless(count):
        rng = noiseless.rng
        out = np.empty((count, red.string_length(params)), dtype=np.uint8)
        for row in range(count):
            a = rng.uniform_matrix(params.k, params.n)
            out[row] = np.concatenate([a.reshape(-1), expected_response(params, key, a)])
        return out

    noiseless.rng = RandomSource(111)
    oracle = red.ideal_distinguisher(params, key, q=1, seed=7)
    recovered = red.algorithm_x(oracle, noiseless, 8, n_batches=1)
    assert np.array_equal(recovered, key.s1)


def test_algorithm_x_vacuous_threshold_classifies_all_ones():
    # an oracle with no advantage never moves the estimate, and its declared
    # advantage 2 sets the decision threshold at 1/2 — nothing can cross it,
    # so every bit lands in the "indistinguishable = 1" branch
    params = nlhb_params(6, 13, Fraction(1, 4), Fraction(87, 250), DEFAULT_SPEC)
    key = generate_key(params, RandomSource(112))
    constant = red.DistinguisherOracle(
        func=lambda strings: 1, q=2, advantage=2.0, seed=0, params=params
    )
    src = red.honest_transcript_source(params, key, RandomSource(113))
    recovered = red.algorithm_x(constant, src, 6, n_batches=4)
    assert recovered.tolist() == [1] * 6


def test_algorithm_x_source_exhaustion_surfaces():
    params = nlhb_params(4, 131, Fraction(1, 8), Fraction(1, 4), DEFAULT_SPEC)
    key = generate_key(params, RandomSource(114))
    oracle = red.ideal_distinguisher(params, key, q=1, seed=1)
    pool = red.honest_transcript_source(params, key, RandomSource(115))(3)
    with pytest.raises(ParameterError, match="exhausted"):
        red.algorithm_x(oracle, finite_transcript_source(list(pool)), 4, n_batches=2)


def test_algorithm_x_validation():
    params = nlhb_params(4, 131, Fraction(1, 8), Fraction(1, 4), DEFAULT_SPEC)
    key = generate_key(params, RandomSource(116))
    oracle = red.ideal_distinguisher(params, key, q=1, seed=1)
    src = red.honest_transcript_source(params, key, RandomSource(117))
    with pytest.raises(ParameterError):
        red.algorithm_x(oracle, src, 5)  # k mismatch
    with pytest.raises(ParameterError):
        red.default_batch_count(4, 0.0)


@given(st.integers(2, 512), st.floats(0.01, 1.0))
def test_default_batch_count_schedule(k, delta):
    n = red.default_batch_count(k, delta)
    assert n >= 1
    # doubling delta can only shrink the schedule
    assert red.default_batch_count(k, min(1.0, 2 * delta)) <= n


# ---------------------------------------------------------------------------
# passive forger wrapper
# ---------------------------------------------------------------------------

def test_passive_interval_boundary_rejected():
    params = hb_params(8, 256, Fraction(1, 4), Fraction(348, 1000))
    low, high = red.passive_distinguisher_interval(params)
    assert low == Fraction(348, 1000) - 2 * Fraction(1, 4) * Fraction(348, 1000) + Fraction(1, 4)
    key = generate_key(params, RandomSource(118))
    forger = red.PerfectPassiveForger(params, key, q=2)
    with pytest.raises(ParameterError):
        red.forger_to_distinguisher(forger, 2, low)
    with pytest.raises(ParameterError):
        red.forger_to_distinguisher(forger, 2, Fraction(1, 2))


def test_perfect_forger_accepts_honest_input():
    params = hb_params(8, 256, Fraction(1, 4), Fraction(348, 1000))
    key = generate_key(params, RandomSource(119))
    forger = red.PerfectPassiveForger(params, key, q=2)
    oracle = red.forger_to_distinguisher(forger, 2, seed=3)  # midpoint threshold
    src = red.honest_transcript_source(params, key, RandomSource(120))
    hits = sum(oracle(src(3)) for _ in range(100))
    assert hits >= 99


def test_uniform_input_rate_matches_exact_tail():
    """On uniform strings the forged response is independent of the target,
    so the accept rate is exactly the false-accept tail at the threshold."""
    params = hb_params(8, 256, Fraction(1, 4), Fraction(348, 1000))
    key = generate_key(params, RandomSource(121))
    forger = red.PerfectPassiveForger(params, key, q=2)
    epsilon_dd = Fraction(43, 100)
    oracle = red.forger_to_distinguisher(forger, 2, epsilon_dd, seed=4)
    exact = float(false_accept(params.d, int(epsilon_dd * params.d)).exact)
    src = red.uniform_string_source(params, RandomSource(122))
    trials = 400
    hits = sum(oracle(src(3)) for _ in range(trials))
    sigma = (exact * (1 - exact) / trials) ** 0.5
    assert abs(hits / trials - exact) < 4 * sigma + 1e-9
    assert oracle.advantage == pytest.approx(1 - exact)


def test_random_forger_has_no_advantage():
    params = hb_params(8, 256, Fraction(1, 4), Fraction(348, 1000))
    key = generate_key(params, RandomSource(123))
    forger = red.RandomPassiveForger(params, q=1)
    oracle = red.forger_to_distinguisher(forger, 1, Fraction(43, 100), seed=5)
    src = red.honest_transcript_source(params, key, RandomSource(124))
    hits = sum(oracle(src(2)) for _ in range(300))
    assert hits / 300 < 0.06  # ~ exact tail 0.014, nowhere near the honest rate


def test_composed_extraction_from_perfect_forger():
    params = hb_params(8, 256, Fraction(1, 8), Fraction(1, 4))
    hits = 0
    for seed in range(10):
        key = generate_key(params, RandomSource(6000 + seed))
        forger = red.PerfectPassiveForger(params, key, q=3)
        oracle = red.forger_to_distinguisher(forger, 3, Fraction(43, 100), seed=seed)
        src = red.honest_transcript_source(params, key, RandomSource(7000 + seed))
        recovered = red.algorithm_x(oracle, src, 8, n_batches=64)
        hits += int(np.array_equal(recovered, key.s1))
    assert hits >= 9


# ---------------------------------------------------------------------------
# active forger wrapper (rewinding)
# ---------------------------------------------------------------------------

def _blinded(k=12, n=515, eps=Fraction(1, 8), epsp=Fraction(1, 4)):
    return nlhb_params(k, n, eps, epsp, DEFAULT_SPEC, blinded=True)


def test_rewinding_interval_and_validation():
    params = _blinded()
    low, high = red.rewinding_distinguisher_interval(params)
    assert low == (1 - (1 - 2 * params.eps_prime) ** 2) / 2
    key = generate_key(params, RandomSource(125))
    forger = red.HonestActiveForger(params, key)
    with pytest.raises(ParameterError):
        red.active_forger_to_distinguisher(forger, 1, low)
    plain = nlhb_params(12, 515, Fraction(1, 8), Fraction(1, 4), DEFAULT_SPEC)
    with pytest.raises(ParameterError):
        red.HonestActiveForger(plain, key)

    bad = SimpleNamespace(params=params, reset=lambda seed: None)
    with pytest.raises(ParameterError, match="snapshot"):
        red.active_forger_to_distinguisher(bad, 1, Fraction(91, 200))


def test_active_forger_phase_misuse_flagged():
    params = _blinded()
    key = generate_key(params, RandomSource(126))
    forger = red.HonestActiveForger(params, key)
    with pytest.raises(ParameterError, match="before reset"):
        forger.on_blinding(np.zeros((12, 515), dtype=np.uint8))
    forger.reset(1)
    with pytest.raises(ParameterError, match="misuse"):
        forger.respond(np.zeros((12, 515), dtype=np.uint8))
    b = RandomSource(127).uniform_matrix(12, 515)
    forger.on_blinding(b)
    with pytest.raises(ParameterError, match="misuse"):
        forger.on_blinding(b)  # response still pending
    forger.on_response(np.zeros(params.d, dtype=np.uint8))
    forger.commit_blinding()
    with pytest.raises(ParameterError, match="misuse"):
        forger.on_blinding(b)  # query phase is over


def test_snapshot_restore_replays_identically():
    params = _blinded()
    key = generate_key(params, RandomSource(128))
    forger = red.HonestActiveForger(params, key)
    forger.reset(9)
    forger.commit_blinding()
    a1 = RandomSource(129).uniform_matrix(12, 515)
    a2 = RandomSource(130).uniform_matrix(12, 515)
    state = forger.snapshot()
    z1 = forger.respond(a1)
    forger.restore(state)
    assert np.array_equal(forger.respond(a1), z1)
    forger.restore(state)
    assert not np.array_equal(forger.respond(a2), z1)


def test_forced_key_forger_accepts_honest_and_uniform_alike():
    """With s2 handed to the forger (the harness's 'forced equal' mode) the
    rewound XOR test sees only two noise vectors, whatever the input was."""
    params = _blinded()
    s1 = RandomSource(131).uniform_bits(12)
    s2 = RandomSource(77).derive("rewind-s2").uniform_bits(12)
    forger = red.HonestActiveForger(params, SecretKey(s1=s1, s2=s2))
    oracle = red.active_forger_to_distinguisher(forger, 2, seed=77)  # midpoint
    plain = nlhb_params(12, 515, Fraction(1, 8), Fraction(1, 4), DEFAULT_SPEC)
    src = red.honest_transcript_source(plain, SecretKey(s1=s1), RandomSource(132))
    hits = sum(oracle(src(2)) for _ in range(50))
    assert hits >= 48


def test_unforced_uniform_rate_coheres_with_exact_tail():
    """A forger whose s2 guess is independent of the wrapper's misses: the
    XOR test then behaves like the fair-coin tail at floor(eps1*D)."""
    params = _blinded()
    s1 = RandomSource(133).uniform_bits(12)
    own = generate_key(params, RandomSource(134))
    forger = red.HonestActiveForger(params, SecretKey(s1=s1, s2=own.s2))
    epsilon_1 = Fraction(91, 200)
    oracle = red.active_forger_to_distinguisher(forger, 1, epsilon_1, seed=88)
    exact = float(false_accept(params.d, int(epsilon_1 * params.d)).exact)
    src = red.uniform_string_source(
        nlhb_params(12, 515, Fraction(1, 8), Fraction(1, 4), DEFAULT_SPEC),
        RandomSource(135),
    )
    trials = 300
    hits = sum(oracle(src(1)) for _ in range(trials))
    # per-bit the mismatch is a fair coin (the linear x_i term of the window
    # makes the image difference uniform), but adjacent windows share
    # variables, so allow a band wider than the i.i.d. binomial one
    assert hits / trials < 0.1
    assert abs(hits / trials - exact) < 0.05


def test_learning_forger_separates_honest_from_uniform():
    """The forger that must extract s2 from the query phase: near-certain
    acceptance on honest input, tail-rate acceptance on uniform input."""
    params = _blinded()
    s1 = RandomSource(136).uniform_bits(12)
    forger = red.ExtractingActiveForger(params, s1)
    oracle = red.active_forger_to_distinguisher(forger, 5, Fraction(91, 200), seed=99)
    plain = nlhb_params(12, 515, Fraction(1, 8), Fraction(1, 4), DEFAULT_SPEC)
    honest_src = red.honest_transcript_source(plain, SecretKey(s1=s1), RandomSource(137))
    uniform_src = red.uniform_string_source(plain, RandomSource(138))
    honest_hits = sum(oracle(honest_src(5)) for _ in range(40))
    uniform_hits = sum(oracle(uniform_src(5)) for _ in range(40))
    assert honest_hits >= 38
    assert uniform_hits <= 4
    assert (honest_hits - uniform_hits) / 40 >= 0.9


def test_learning_forger_validation():
    params = _blinded()
    s1 = RandomSource(139).uniform_bits(12)
    with pytest.raises(ParameterError, match="k <= 16"):
        big = nlhb_params(17, 515, Fraction(1, 8), Fraction(1, 4), DEFAULT_SPEC, blinded=True)
        red.ExtractingActiveForger(big, RandomSource(140).uniform_bits(17))
    forger = red.ExtractingActiveForger(params, s1)
    forger.reset(0)
    with pytest.raises(ParameterError, match="query round"):
        forger.commit_blinding()


def test_random_active_forger_rate_is_negligible():
    params = _blinded()
    forger = red.RandomActiveForger(params)
    oracle = red.active_forger_to_distinguisher(forger, 1, Fraction(91, 200), seed=12)
    plain = nlhb_params(12, 515, Fraction(1, 8), Fraction(1, 4), DEFAULT_SPEC)
    src = red.honest_transcript_source(
        plain, SecretKey(s1=RandomSource(141).uniform_bits(12)), RandomSource(142)
    )
    hits = sum(oracle(src(1)) for _ in range(100))
    assert hits <= 8  # exact tail is ~0.019 at this threshold


def test_deterministic_given_seed_and_input():
    params = _blinded()
    key = generate_key(params, RandomSource(143))
    forger = red.HonestActiveForger(params, key)
    oracle = red.active_forger_to_distinguisher(forger, 2, seed=5)
    plain = nlhb_params(12, 515, Fraction(1, 8), Fraction(1, 4), DEFAULT_SPEC)
    batch = red.honest_transcript_source(plain, SecretKey(s1=key.s1), RandomSource(144))(2)
    assert oracle(batch) == oracle(batch)


def _source_params(proto, shape):
    if proto == "hb":
        return hb_params(*shape, Fraction(1, 8), Fraction(1, 4))
    return nlhb_params(*shape, Fraction(1, 8), Fraction(1, 4), DEFAULT_SPEC)


@pytest.mark.parametrize("proto, shape, count", [
    *(pytest.param(proto, shape, count, id="%s-%d" % (proto, count))
      for proto, shape in (("hb", (6, 40)), ("nlhb", (6, 43))) for count in (0, 1, 3)),
    pytest.param("hb", (128, 1164), 2, id="hb-128x1164-2"),
])
def test_honest_source_packs_transcript_sampler(proto, shape, count):
    # One stream, A then noise per session, however the rows are drawn.
    params = _source_params(proto, shape)
    key = generate_key(params, RandomSource(150))
    rows = red.honest_transcript_source(params, key, RandomSource(151))(count)
    sessions = transcript_sampler(params, key, RandomSource(151), count)
    packed = [np.concatenate([t.a.reshape(-1), t.z]) for t in sessions]
    expected = np.array(packed, dtype=np.uint8).reshape(count, red.string_length(params))
    assert rows.dtype == np.uint8 and np.array_equal(rows, expected)


@pytest.mark.parametrize("proto, shape", [("hb", (8, 256)), ("nlhb", (8, 259))], ids=["hb", "nlhb"])
def test_honest_source_multiplies_drawn_payloads(proto, shape, monkeypatch):
    # Each row's A is answered from the payload its draw makes: one payload
    # product per row, and only the d noise bits are packed.
    kernel, calls = gf2core._payload_mat_vec_mul, []

    def counted(*args, **kwargs):
        calls.append(args)
        return kernel(*args, **kwargs)

    for module in (gf2core, protocols):
        monkeypatch.setattr(module, "_payload_mat_vec_mul", counted)
    params = _source_params(proto, shape)
    key = generate_key(params, RandomSource(154))
    key._payload_masks(params.n)  # built before the spy, which sees every packbits
    packbits, packed = np.packbits, []
    monkeypatch.setattr(np, "packbits", lambda bits, *args: packed.append(bits.shape) or packbits(bits, *args))
    red.honest_transcript_source(params, key, RandomSource(155))(3)
    assert len(calls) == 3
    assert packed == [(params.d,)] * 3


@pytest.mark.parametrize("proto", ["hb+", "nlhb+"])
def test_honest_source_rejects_blinded_params_when_built(proto):
    if proto == "hb+":
        params = hb_params(6, 40, Fraction(1, 8), Fraction(1, 4), blinded=True)
    else:
        params = nlhb_params(6, 43, Fraction(1, 8), Fraction(1, 4), DEFAULT_SPEC, blinded=True)
    key = generate_key(params, RandomSource(152))
    with pytest.raises(ParameterError, match="blinded"):
        red.honest_transcript_source(params, key, RandomSource(153))

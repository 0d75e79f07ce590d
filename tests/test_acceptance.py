"""Shipping gate: one check per release criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
inline; each carries the measured runtime against the criterion's budget.
These tests drive the library exactly as a user would — nothing here reaches
into private state except the planted keys the checks must compare against.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from support import hybrid_tables, measured_merge_distribution, total_variation

from nlhb import attacks, authsvc, reductions as red
from nlhb.cost import count_ops
from nlhb.gf2core import RandomSource, hamming
from nlhb.nlfunc import (
    DEFAULT_SPEC,
    balance_check,
    format_spec,
    max_entropy_functions,
    merge_error_distribution,
    parse_spec,
)
from nlhb.params import false_accept, false_reject, threshold_u
from nlhb.protocols import (
    SecretKey,
    SessionTranscript,
    expected_response,
    format_transcript,
    generate_key,
    hb_params,
    nlhb_params,
    read_transcripts,
    run_session,
    transcript_sampler,
)


@contextmanager
def criterion(num: int, budget_s: float, detail: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print("criterion %2d: FAIL (%5.1fs / %3.0fs budget) %s"
              % (num, elapsed, budget_s, detail))
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_s:
        print("criterion %2d: FAIL (%5.1fs / %3.0fs budget) %s — over budget"
              % (num, elapsed, budget_s, detail))
        raise AssertionError("criterion %d exceeded its %.0fs budget (%.1fs)"
                             % (num, budget_s, elapsed))
    print("criterion %2d: PASS (%5.1fs / %3.0fs budget) %s"
          % (num, elapsed, budget_s, detail))


def test_criterion_01_merge_entropy_maximizers():
    required = {
        2: ["p=2; g=x1x2"],
        3: ["p=3; g=x1x2+x1x3", "p=3; g=x1x3+x2x3", "p=3; g=x1x2+x1x3+x2x3"],
        4: ["p=4; g=x1x4+x2x3", "p=4; g=x1x4+x2x4+x3x4", "p=4; g=x1x4+x2x3+x3x4"],
    }
    expected = {2: Fraction(2), 3: Fraction(5, 2), 4: Fraction(3)}
    with criterion(1, 10, "max merge-error entropy 2 / 2.5 / 3 bits at p=2,3,4"):
        for p in (2, 3, 4):
            best, winners = max_entropy_functions(p)
            assert best == float(expected[p])
            texts = {format_spec(w) for w in winners}
            for text in required[p]:
                assert text in texts, "%s missing from the p=%d maximizers" % (text, p)
            # the reported maximum is exact, not a float artifact
            for w in winners:
                assert merge_error_distribution(w).entropy_exact() == expected[p]


def test_criterion_02_operation_count_reproduction():
    spec = DEFAULT_SPEC
    with criterion(2, 1, "per-session op counts at D=1164 (three reference configurations)"):
        hb = count_ops("hb", 512, 1164)
        assert (hb.scalar_multiplications, hb.scalar_additions) == (595968, 594804)
        nl128 = count_ops("nlhb", 128, 1164, spec=spec)
        assert (nl128.scalar_multiplications, nl128.scalar_additions) == (152868, 151701)
        nl512 = count_ops("nlhb", 512, 1164, spec=spec)
        assert (nl512.scalar_multiplications, nl512.scalar_additions) == (600996, 599829)


def test_criterion_03_threshold_certification():
    with criterion(3, 5, "exact tails at D=1164: P_FA <= 2^-80, P_FR <= 2^-40"):
        d, eps, epsp = 1164, Fraction(1, 4), Fraction(348, 1000)
        u = threshold_u(epsp, d)
        assert u == 405
        fa = false_accept(d, u)
        fr = false_reject(d, eps, u)
        assert fa.exact <= Fraction(1, 2**80), (
            "claimed false-accept bound violated: log2 = %.6f" % fa.log2)
        assert fr.exact <= Fraction(1, 2**40), (
            "claimed false-reject bound violated: log2 = %.6f" % fr.log2)


def test_criterion_04_output_balance_exhaustive():
    with criterion(4, 5, "every 13-bit output hit exactly 8 times at n=16, p=3"):
        report = balance_check(DEFAULT_SPEC, 16)
        assert report.d == 13
        assert report.counts.shape[0] == 1 << 13
        assert report.expected_count == 8
        assert int(report.counts.min()) == int(report.counts.max()) == 8
        assert report.is_uniform


def test_criterion_05_completeness_and_soundness():
    params = nlhb_params(64, 1167, Fraction(1, 4), Fraction(348, 1000), DEFAULT_SPEC)
    key = generate_key(params, RandomSource(500))
    with criterion(5, 60, "1000 honest sessions accept; 10^4 random responders reject"):
        rng_p, rng_v = RandomSource(501), RandomSource(502)
        accepted = sum(
            run_session(params, key, rng_p, rng_v).accepted for _ in range(1000)
        )
        assert accepted == 1000

        noise = RandomSource(503)
        rejected = 0
        for _ in range(10**4):
            # uniform noise turns the response into a uniform string: exactly
            # the random-responder session, driven through the real verifier
            t = run_session(params, key, rng_p, rng_v,
                            noise=noise.uniform_bits(params.d))
            rejected += int(not t.accepted)
        assert rejected == 10**4


def test_criterion_06_lf2_contrast():
    hb = hb_params(16, 256, Fraction(1, 8), Fraction(1, 4))
    nl = nlhb_params(16, 259, Fraction(1, 8), Fraction(1, 4), DEFAULT_SPEC)
    with criterion(6, 300, "LF2 recovers hb keys (>=95/100), collapses on nlhb; "
                           "merge law within TV 0.05"):
        hits = 0
        for seed in range(100):
            key = generate_key(hb, RandomSource(9000 + seed))
            ts = transcript_sampler(hb, key, RandomSource(9200 + seed), 64)
            report = attacks.lf2_attack(ts, 8, hb)
            hits += int(report.success
                        and np.array_equal(report.recovered_key, key.s1))
        assert hits >= 95, "lf2 recovered only %d/100 hb keys" % hits

        key = generate_key(nl, RandomSource(9500))
        ts = transcript_sampler(nl, key, RandomSource(9501), 64)
        report = attacks.lf2_attack(ts, 8, nl)
        assert not report.success
        assert report.stats["verify_accepts"] == 0

        measured = measured_merge_distribution(DEFAULT_SPEC, RandomSource(60), 10**4)
        exact = merge_error_distribution(DEFAULT_SPEC)
        tv = total_variation(measured, exact.probabilities)
        assert tv <= 0.05, "single-merge error law off by TV %.4f" % tv


def test_criterion_07_majority_vote_recovery():
    hb32 = hb_params(32, 256, Fraction(1, 4), Fraction(348, 1000))
    nl16 = nlhb_params(16, 259, Fraction(1, 4), Fraction(348, 1000), DEFAULT_SPEC)
    with criterion(7, 300, "majority vote: hb k=32 >=99/100 trials; "
                           "nlhb k=16 via denoise + 2^16 sweep"):
        hits = 0
        for seed in range(100):
            key = generate_key(hb32, RandomSource(7000 + seed))
            oracle = attacks.make_prover_oracle(hb32, key, RandomSource(7200 + seed))
            report = attacks.majority_vote_attack(
                oracle, 32, 101, hb32, rng=RandomSource(7400 + seed)
            )
            hits += int(report.success
                        and np.array_equal(report.recovered_key, key.s1))
        assert hits >= 99, "majority vote recovered only %d/100 hb keys" % hits

        key = generate_key(nl16, RandomSource(7600))
        oracle = attacks.make_prover_oracle(nl16, key, RandomSource(7601))
        report = attacks.majority_vote_attack(
            oracle, 16, 101, nl16, rng=RandomSource(7602)
        )
        assert report.success
        assert np.array_equal(report.recovered_key, key.s1)


def test_criterion_08_embedding_recovery():
    from nlhb.gf2core import mat_vec_mul

    k, n_prime, n, eps = 8, 10, 31, Fraction(1, 8)
    with criterion(8, 120, "widened instances stay decodable (>=95/100 seeds); "
                           "layout invariants on 100 random shapes"):
        hits = 0
        for seed in range(100):
            root = RandomSource(8000 + seed)
            secret = root.derive("secret").uniform_bits(k)
            rng = root.derive("embed")
            instances = []
            for _ in range(6):
                g = rng.uniform_matrix(k, n_prime)
                z = mat_vec_mul(secret, g) ^ rng.bernoulli_bits(n_prime, eps)
                a, y, _ = red.lpn_to_unld_embed(g, z, DEFAULT_SPEC, n, rng, eps)
                instances.append((a, y))
            recovered, _ = red.brute_force_unld(instances, k, DEFAULT_SPEC)
            hits += int(np.array_equal(recovered, secret))
        assert hits >= 95, "embedding decoded only %d/100 planted secrets" % hits

        shape_rng = RandomSource(8400)
        checked = 0
        while checked < 100:
            p = 1 + int(shape_rng.u64(1)[0] % 4)
            n_p = 2 + int(shape_rng.u64(1)[0] % 11)
            nn = n_p * p + 1 + int(shape_rng.u64(1)[0] % 40)
            if not red.embedding_feasible(nn, n_p, p):
                continue
            layout = red.default_layout(nn, n_p, p)
            assert layout.positions[0] == 1
            assert layout.positions[-1] == nn - p
            assert len(layout.gaps) == n_p - 1
            assert min(layout.gaps) >= p - 1
            assert sum(layout.gaps) == nn - p - n_p
            if p >= 2:
                # one concrete widening: columns off the layout stay zero
                g = shape_rng.uniform_matrix(1, n_p)
                z = shape_rng.uniform_bits(n_p)
                spec = DEFAULT_SPEC if p == 3 else parse_spec(
                    {2: "p=2; g=x1x2", 4: "p=4; g=x1x4+x2x3"}[p]
                )
                a, _, _ = red.lpn_to_unld_embed(g, z, spec, nn, shape_rng, eps)
                live = np.zeros(nn, dtype=bool)
                live[np.array(layout.positions) - 1] = True
                assert not a[:, ~live].any()
            checked += 1


def test_criterion_09_hybrid_exactness():
    with criterion(9, 60, "row-1 hybrid exactly uniform when s_1=1, exactly "
                          "honest when s_1=0 (full enumeration)"):
        table = hybrid_tables(s=(1, 0), i=1, include_c=True)
        assert int(table.min()) == int(table.max()) == 512
        hybrid = hybrid_tables(s=(0, 1), i=1, include_c=True)
        honest = hybrid_tables(s=(0, 1), i=1, include_c=False)
        assert np.array_equal(hybrid, honest * 64)  # zero total variation


def test_criterion_10_reduction_pipeline():
    with criterion(10, 600, "bit recovery >=90/100 (ideal) and >=80/100 "
                            "(composed); rewinding gap >= 0.9 at D=512"):
        ideal_params = nlhb_params(8, 259, Fraction(1, 8), Fraction(1, 4), DEFAULT_SPEC)
        hits = 0
        for seed in range(100):
            key = generate_key(ideal_params, RandomSource(4000 + seed))
            oracle = red.ideal_distinguisher(ideal_params, key, q=2, seed=seed)
            src = red.honest_transcript_source(
                ideal_params, key, RandomSource(5000 + seed)
            )
            recovered = red.algorithm_x(oracle, src, 8, n_batches=32)
            hits += int(np.array_equal(recovered, key.s1))
        assert hits >= 90, "ideal-oracle recovery only %d/100" % hits

        composed_params = hb_params(8, 256, Fraction(1, 8), Fraction(1, 4))
        hits = 0
        for seed in range(100):
            key = generate_key(composed_params, RandomSource(6000 + seed))
            forger = red.PerfectPassiveForger(composed_params, key, q=3)
            oracle = red.forger_to_distinguisher(
                forger, 3, Fraction(43, 100), seed=seed
            )
            src = red.honest_transcript_source(
                composed_params, key, RandomSource(6500 + seed)
            )
            recovered = red.algorithm_x(oracle, src, 8, n_batches=64)
            hits += int(np.array_equal(recovered, key.s1))
        assert hits >= 80, "composed recovery only %d/100" % hits

        blinded = nlhb_params(12, 515, Fraction(1, 8), Fraction(1, 4),
                              DEFAULT_SPEC, blinded=True)
        plain = nlhb_params(12, 515, Fraction(1, 8), Fraction(1, 4), DEFAULT_SPEC)
        s1 = RandomSource(136).uniform_bits(12)
        forger = red.ExtractingActiveForger(blinded, s1)
        oracle = red.active_forger_to_distinguisher(
            forger, 5, Fraction(91, 200), seed=99
        )
        honest_src = red.honest_transcript_source(
            plain, SecretKey(s1=s1), RandomSource(137)
        )
        uniform_src = red.uniform_string_source(plain, RandomSource(138))
        hon = sum(oracle(honest_src(5)) for _ in range(40))
        uni = sum(oracle(uniform_src(5)) for _ in range(40))
        gap = (hon - uni) / 40
        assert gap >= 0.9, "rewinding gap %.3f (honest %d/40, uniform %d/40)" % (
            gap, hon, uni)


def test_criterion_11_service_interop(tmp_path):
    params = nlhb_params(16, 259, Fraction(1, 4), Fraction(87, 250), DEFAULT_SPEC)
    key = generate_key(params, RandomSource(1))
    wrong = generate_key(params, RandomSource(2))
    log_path = tmp_path / "sessions.log"
    with criterion(11, 10, "loopback auth: right key accepts, wrong key "
                           "rejects, log matches the in-process session"):
        entry = authsvc.KeystoreEntry("tag-01", params, key)
        with authsvc.AuthService(
            ("127.0.0.1", 0), {"tag-01": entry}, seed=42, log_path=log_path
        ) as service:
            accepted, distance = authsvc.authenticate(
                service.address, "tag-01", key, params, rng=RandomSource(14)
            )
            assert accepted is True and distance <= params.u

            rejected, far = authsvc.authenticate(
                service.address, "tag-01", wrong, params, rng=RandomSource(15)
            )
            assert rejected is False and far > params.u

        # reconstruct the accepting session from the injected seeds alone
        client = RandomSource(14)
        a = RandomSource(42).derive("session-0").uniform_matrix(params.k, params.n)
        z = expected_response(params, key, a) ^ client.bernoulli_bits(
            params.d, params.eps
        )
        local = SessionTranscript(params, None, a, z, accepted, distance)
        with open(log_path, "r", encoding="utf-8") as fp:
            logged = read_transcripts(fp)
        assert len(logged) == 2
        assert format_transcript(logged[0]) == format_transcript(local)
        assert hamming(logged[0].z, z) == 0

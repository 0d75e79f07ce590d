import io
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from support import counted_packs, edited_lines, edited_text, protocol_params

from nlhb import gf2core, protocols
from nlhb.gf2core import (
    DimensionError,
    FormatError,
    LineReader,
    ParameterError,
    RandomSource,
    _block_text,
    dump_bits,
    dump_matrix,
    mat_vec_mul,
)
from nlhb.nlfunc import DEFAULT_SPEC, IDENTITY_SPEC, NonlinearFunctionSpec, apply_f_batch, parse_spec
from nlhb.protocols import (
    PROTOCOLS,
    ProtocolParams,
    SecretKey,
    SessionTranscript,
    expected_response,
    format_transcript,
    generate_key,
    hb_params,
    nlhb_params,
    read_transcripts,
    respond,
    run_session,
    transcript_sampler,
    transcripts_from_text,
    transcripts_to_text,
    verify,
)

EPS = Fraction(1, 4)
EPSP = Fraction(348, 1000)


def small_nlhb(k=8, n=19):
    return nlhb_params(k, n, EPS, EPSP, DEFAULT_SPEC)


def test_params_derivations():
    p = small_nlhb()
    assert p.d == 16
    assert p.u == 5  # floor(0.348 * 16)
    assert not p.blinded
    plus = nlhb_params(8, 19, EPS, EPSP, DEFAULT_SPEC, blinded=True)
    assert plus.proto == "nlhb+"
    assert plus.blinded


def test_params_validation():
    with pytest.raises(ParameterError):
        ProtocolParams("hb", 8, 16, EPS, EPSP, DEFAULT_SPEC)  # linear needs identity map
    with pytest.raises(DimensionError):
        ProtocolParams("nlhb", 8, 3, EPS, EPSP, DEFAULT_SPEC)  # no room for window
    with pytest.raises(ParameterError):
        ProtocolParams("nlhb", 8, 16, EPSP, EPS, DEFAULT_SPEC)  # eps >= eps'
    with pytest.raises(ParameterError):
        ProtocolParams("hbx", 8, 16, EPS, EPSP, IDENTITY_SPEC)
    with pytest.raises(ParameterError):
        ProtocolParams("hb", 0, 16, EPS, EPSP, IDENTITY_SPEC)


def test_generate_key_shapes():
    p = small_nlhb()
    key = generate_key(p, RandomSource(1))
    assert key.s1.shape == (8,) and key.s2 is None
    plus = nlhb_params(8, 19, EPS, EPSP, DEFAULT_SPEC, blinded=True)
    key2 = generate_key(plus, RandomSource(1))
    assert key2.s2 is not None and key2.s2.shape == (8,)


def test_linear_protocol_is_identity_window_case():
    # hb and nlhb-with-identity-map must agree bit for bit under equal seeds
    hb = hb_params(12, 48, EPS, EPSP)
    nl = ProtocolParams("nlhb", 12, 48, EPS, EPSP, IDENTITY_SPEC)
    key = generate_key(hb, RandomSource(9))
    a = RandomSource(10).uniform_matrix(12, 48)
    z_hb = respond(hb, key, a, rng=RandomSource(11))
    z_nl = respond(nl, key, a, rng=RandomSource(11))
    assert np.array_equal(z_hb, z_nl)
    assert verify(hb, key, a, z_hb) == verify(nl, key, a, z_nl)


def test_zero_noise_accepts_at_distance_zero():
    p = small_nlhb()
    key = generate_key(p, RandomSource(2))
    a = RandomSource(3).uniform_matrix(p.k, p.n)
    z = respond(p, key, a, noise=np.zeros(p.d, dtype=np.uint8))
    accepted, dist = verify(p, key, a, z)
    assert accepted and dist == 0


def test_flipping_past_threshold_rejects():
    p = small_nlhb()
    key = generate_key(p, RandomSource(2))
    a = RandomSource(3).uniform_matrix(p.k, p.n)
    z = expected_response(p, key, a).copy()
    z[: p.u + 1] ^= 1
    accepted, dist = verify(p, key, a, z)
    assert not accepted and dist == p.u + 1


def test_verify_rejects_malformed_length():
    p = small_nlhb()
    key = generate_key(p, RandomSource(2))
    a = RandomSource(3).uniform_matrix(p.k, p.n)
    with pytest.raises(DimensionError):
        verify(p, key, a, np.zeros(p.d + 1, dtype=np.uint8))


def test_verify_ragged_challenge_is_a_dimension_error():
    p = small_nlhb()
    key = generate_key(p, RandomSource(2))
    ragged = [[0] * p.n] * (p.k - 1) + [[0] * (p.n - 1)]
    with pytest.raises(DimensionError, match="ragged bit matrix"):
        verify(p, key, ragged, np.zeros(p.d, dtype=np.uint8))


def _bad_exchanges(p, key):
    """(description, key, a, z, b, expected error) for malformed inputs."""
    rng = RandomSource(9)
    a = rng.uniform_matrix(p.k, p.n)
    z = np.zeros(p.d, dtype=np.uint8)
    two = a.copy()
    two[0, 0] = 2
    short = SecretKey(s1=key.s1[:-1], s2=key.s2)
    # a key checks its own bits, so one holding a 2 is refused when built
    with pytest.raises(ParameterError):
        SecretKey(s1=np.full(p.k, 2, dtype=np.uint8), s2=key.s2)
    b = rng.uniform_matrix(p.k, p.n) if p.blinded else None
    cases = [
        ("challenge shape", key, a[:, :-1], z, b, DimensionError),
        ("challenge not 2-D", key, a.reshape(-1), z, b, DimensionError),
        ("challenge entry 2", key, two, z, b, ParameterError),
        ("key length", short, a, z, b, DimensionError),
    ]
    if p.blinded:
        cases += [
            ("blinding shape", key, a, z, b[:-1], DimensionError),
            ("blinding entry 2", key, a, z, two, ParameterError),
            ("missing s2", SecretKey(s1=key.s1), a, z, b, ParameterError),
        ]
    return cases


@pytest.mark.parametrize("blinded", [False, True])
def test_respond_verify_reject_malformed_inputs(blinded):
    p = nlhb_params(8, 19, EPS, EPSP, DEFAULT_SPEC, blinded=blinded)
    key = generate_key(p, RandomSource(2))
    for _what, k, a, z, b, error in _bad_exchanges(p, key):
        with pytest.raises(error):
            respond(p, k, a, b=b, rng=RandomSource(0))
        with pytest.raises(error):
            verify(p, k, a, z, b=b)
        with pytest.raises(error):
            expected_response(p, k, a, b=b)
    a = RandomSource(3).uniform_matrix(p.k, p.n)
    b = RandomSource(4).uniform_matrix(p.k, p.n) if blinded else None
    with pytest.raises(ParameterError):
        verify(p, key, a, np.full(p.d, 3, dtype=np.uint8), b=b)
    with pytest.raises(DimensionError):
        respond(p, key, a, b=b, noise=np.zeros(p.d - 1, dtype=np.uint8))
    with pytest.raises(ParameterError):
        respond(p, key, a, b=b, noise=np.full(p.d, 2, dtype=np.uint8))


def test_run_session_checks_key_and_noise():
    p = small_nlhb()
    key = generate_key(p, RandomSource(2))
    with pytest.raises(DimensionError):
        run_session(p, SecretKey(s1=key.s1[:-1]), RandomSource(0), RandomSource(1))
    with pytest.raises(ParameterError):
        run_session(p, SecretKey(s1=key.s1 + 2), RandomSource(0), RandomSource(1))
    with pytest.raises(DimensionError):
        run_session(p, key, RandomSource(0), RandomSource(1), noise=np.zeros(3, dtype=np.uint8))
    plus = nlhb_params(8, 19, EPS, EPSP, DEFAULT_SPEC, blinded=True)
    with pytest.raises(ParameterError):
        run_session(plus, SecretKey(s1=key.s1), RandomSource(0), RandomSource(1))


def test_checked_key_is_the_callers_own_when_nothing_converts():
    p, plus = small_nlhb(), nlhb_params(8, 19, EPS, EPSP, DEFAULT_SPEC, blinded=True)
    key, plus_key = generate_key(p, RandomSource(3)), generate_key(plus, RandomSource(3))
    assert protocols._check_key(p, key) is key
    assert protocols._check_key(plus, plus_key) is plus_key
    # a list must be converted; an unblinded protocol keeps a stray s2 it never reads
    checked = protocols._check_key(p, SecretKey(s1=[1, 0] * 4))
    assert checked.s1.dtype == np.uint8 and checked.s1.tolist() == [1, 0] * 4
    assert protocols._check_key(p, plus_key) is plus_key


def test_secret_key_checks_and_holds_its_bits_when_built():
    with pytest.raises(ParameterError):
        SecretKey(s1=[0, 1, 2])
    with pytest.raises(ParameterError):
        SecretKey(s1=[0, 1], s2=np.array([1, -1]))
    with pytest.raises(DimensionError):
        SecretKey(s1=np.zeros((2, 4), dtype=np.uint8))
    with pytest.raises(DimensionError):
        SecretKey(s1=[1, 0], s2=1)
    source = np.array([1, 0, 1, 1], dtype=np.uint8)
    key = SecretKey(s1=source, s2=[True, False, True, True])
    for part in (key.s1, key.s2):
        assert part.dtype == np.uint8 and part.tolist() == [1, 0, 1, 1]
        assert not part.flags.writeable
        with pytest.raises(ValueError):
            part[0] = 0
    source[:] = 0
    assert key.s1.tolist() == [1, 0, 1, 1]


def test_key_masks_follow_the_width_one_table_per_part():
    # a key used at n1, then n2, then n1 again multiplies correctly each
    # time and holds the masks of one width only
    k = 13
    key = SecretKey(s1=RandomSource(5).uniform_bits(k), s2=RandomSource(6).uniform_bits(k))
    for n in (19, 24, 19):
        a, payload = RandomSource(n)._bits_and_payload(k, n)
        masks = key._payload_masks(n)
        for s, m in zip((key.s1, key.s2), masks):
            assert m.shape == ((k + 7) // 8, n)
            assert gf2core._payload_mat_vec_mul(m, payload, n) == gf2core._bits_int(gf2core._mat_vec_mul(s, a))
        [(held_n, *held)] = key._masks
        assert held_n == n and all(h is m for h, m in zip(held, masks))
        p = nlhb_params(k, n, EPS, EPSP, DEFAULT_SPEC, blinded=True)
        t = run_session(p, key, RandomSource(1), RandomSource(2))
        prover = RandomSource(1)
        b = prover.uniform_matrix(k, n)
        a = RandomSource(2).uniform_matrix(k, n)
        assert np.array_equal(t.z, respond(p, key, a, b=b, rng=prover))


def test_wide_sparse_window_holds_a_few_bytes_per_state_bit():
    # g reads offsets 1 and 20000 of a 20000-bit window: the map aligns
    # those and offset 0 only, and a one-bit key's masks are n bytes
    n = 20011
    params = nlhb_params(1, n, EPS, EPSP, parse_spec("p=20000; g=x1x20000"))
    key = generate_key(params, RandomSource(1))
    tracemalloc.start()
    try:
        t = run_session(params, key, RandomSource(2), RandomSource(3))
        decision = verify(params, key, t.a, t.z)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert decision == (t.accepted, t.distance)
    assert peak <= 16 * n  # a shift per window offset peaked at 1,600 n


@pytest.mark.parametrize("proto", PROTOCOLS)
def test_session_converts_no_key_bits(proto, monkeypatch):
    # the key checked its bits when built: a session with drawn noise calls
    # neither coercion, for the key or for anything else
    spec = IDENTITY_SPEC if proto.startswith("hb") else DEFAULT_SPEC
    p = ProtocolParams(proto, 8, 19, EPS, EPSP, spec)
    key = generate_key(p, RandomSource(2))
    calls = []
    for module in (gf2core, protocols):
        for name in ("as_bits", "as_bit_matrix"):
            def spy(values, *args, _real=getattr(module, name), **kwargs):
                calls.append(values)
                return _real(values, *args, **kwargs)
            monkeypatch.setattr(module, name, spy)
    for _ in range(2):
        run_session(p, key, RandomSource(3), RandomSource(4))
    assert calls == []


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(PROTOCOLS), st.integers(1, 7), st.integers(0, 4), st.integers(1, 7),
       st.integers(0, 2**32 - 1))
def test_session_is_respond_and_verify_at_odd_sizes(proto, k, blocks, residue, seed):
    # k < 8 (a partial payload block) and n not a multiple of 8
    spec = IDENTITY_SPEC if proto.startswith("hb") else DEFAULT_SPEC
    n = 8 * blocks + residue
    assume(n > spec.p)
    p = ProtocolParams(proto, k, n, EPS, EPSP, spec)
    key = generate_key(p, RandomSource(seed))
    t = run_session(p, key, RandomSource(seed + 1), RandomSource(seed + 2))
    prover = RandomSource(seed + 1)
    b = prover.uniform_matrix(k, n) if p.blinded else None
    a = RandomSource(seed + 2).uniform_matrix(k, n)
    z = respond(p, key, a, b=b, rng=prover)
    assert np.array_equal(t.a, a) and np.array_equal(t.z, z)
    assert (t.b is None) == (b is None) and (b is None or np.array_equal(t.b, b))
    assert (t.accepted, t.distance) == verify(p, key, a, z, b=b)


def test_session_matches_public_respond_and_verify():
    for p in (small_nlhb(), nlhb_params(8, 19, EPS, EPSP, DEFAULT_SPEC, blinded=True)):
        key = generate_key(p, RandomSource(2))
        t = run_session(p, key, RandomSource(3), RandomSource(4))
        prover = RandomSource(3)
        b = prover.uniform_matrix(p.k, p.n) if p.blinded else None
        a = RandomSource(4).uniform_matrix(p.k, p.n)
        z = respond(p, key, a, b=b, rng=prover)
        assert np.array_equal(t.a, a) and np.array_equal(t.z, z)
        assert (t.accepted, t.distance) == verify(p, key, a, z, b=b)


SMALL_VARIANTS = [
    hb_params(8, 16, EPS, EPSP),
    hb_params(8, 16, EPS, EPSP, blinded=True),
    small_nlhb(),
    nlhb_params(8, 19, EPS, EPSP, DEFAULT_SPEC, blinded=True),
]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(SMALL_VARIANTS), st.integers(0, 2**32 - 1), st.integers(-2, 2), st.data())
def test_session_decision_equals_verify(p, seed, offset, data):
    # run_session takes the distance from the noise weight; verify recomputes
    # the image, so the two must agree for drawn and for explicit noise
    key = generate_key(p, RandomSource(seed))
    t = run_session(p, key, RandomSource(seed + 1), RandomSource(seed + 2))
    assert (t.accepted, t.distance) == verify(t.params, key, t.a, t.z, b=t.b)
    # explicit noise of weight u-2 .. u+2, so both decisions occur
    flips = data.draw(st.permutations(range(p.d)))[: p.u + offset]
    noise = np.zeros(p.d, dtype=np.uint8)
    noise[flips] = 1
    t = run_session(p, key, RandomSource(seed + 1), RandomSource(seed + 2), noise=noise)
    assert (t.accepted, t.distance) == (offset <= 0, p.u + offset)
    assert (t.accepted, t.distance) == verify(t.params, key, t.a, t.z, b=t.b)


def test_respond_needs_noise_or_rng():
    p = small_nlhb()
    key = generate_key(p, RandomSource(2))
    a = RandomSource(3).uniform_matrix(p.k, p.n)
    with pytest.raises(ParameterError):
        respond(p, key, a)


def test_respond_wrong_proto_guards():
    # respond reads the variant from params: a blinding matrix is required by
    # the blinded variants and refused by the others
    p = small_nlhb()
    key = generate_key(p, RandomSource(2))
    a = RandomSource(3).uniform_matrix(p.k, p.n)
    with pytest.raises(ParameterError):
        respond(p, key, a, b=a, rng=RandomSource(0))
    plus = hb_params(8, 19, EPS, EPSP, blinded=True)
    with pytest.raises(ParameterError):
        respond(plus, generate_key(plus, RandomSource(2)), a, rng=RandomSource(0))


def test_blinded_zero_matrix_reduces_to_plain():
    # with B = 0 the blinding image f(s1.B) vanishes, leaving the plain protocol
    plus = nlhb_params(8, 19, EPS, EPSP, DEFAULT_SPEC, blinded=True)
    plain = small_nlhb()
    key = generate_key(plus, RandomSource(5))
    a = RandomSource(6).uniform_matrix(8, 19)
    noise = RandomSource(7).bernoulli_bits(plus.d, EPS)
    z_plus = respond(plus, key, a, b=np.zeros((8, 19), dtype=np.uint8), noise=noise)
    z_plain = respond(plain, SecretKey(s1=key.s2), a, noise=noise)
    assert np.array_equal(z_plus, z_plain)


def test_blinded_session_roundtrip():
    plus = nlhb_params(10, 23, EPS, EPSP, DEFAULT_SPEC, blinded=True)
    key = generate_key(plus, RandomSource(20))
    t = run_session(plus, key, RandomSource(21), RandomSource(22), noise=np.zeros(plus.d, dtype=np.uint8))
    assert t.accepted and t.distance == 0 and t.b is not None
    hplus = hb_params(10, 23, EPS, EPSP, blinded=True)
    hkey = generate_key(hplus, RandomSource(20))
    th = run_session(hplus, hkey, RandomSource(21), RandomSource(22), noise=np.zeros(hplus.d, dtype=np.uint8))
    assert th.accepted


def test_expected_response_blinding_guards():
    plus = nlhb_params(8, 19, EPS, EPSP, DEFAULT_SPEC, blinded=True)
    key = generate_key(plus, RandomSource(5))
    a = RandomSource(6).uniform_matrix(8, 19)
    with pytest.raises(ParameterError):
        expected_response(plus, key, a)  # missing B
    plain = small_nlhb()
    with pytest.raises(ParameterError):
        expected_response(plain, SecretKey(s1=key.s1), a, b=a)  # stray B


def test_sessions_deterministic_under_seeds():
    p = small_nlhb()
    key = generate_key(p, RandomSource(30))
    t1 = run_session(p, key, RandomSource(31), RandomSource(32))
    t2 = run_session(p, key, RandomSource(31), RandomSource(32))
    assert format_transcript(t1) == format_transcript(t2)
    t3 = run_session(p, key, RandomSource(33), RandomSource(32))
    assert not np.array_equal(t1.z, t3.z)


def test_honest_sessions_mostly_accept():
    # D = 256, u = 89: honest-noise rejection odds are ~1.5e-4 per session,
    # and the seed is fixed, so 200 sessions all accepting is stable.
    p = nlhb_params(16, 259, EPS, EPSP, DEFAULT_SPEC)
    key = generate_key(p, RandomSource(40))
    ts = transcript_sampler(p, key, RandomSource(41), 200)
    assert len(ts) == 200
    assert all(t.accepted for t in ts)
    dists = np.array([t.distance for t in ts])
    # mean distance concentrates near eps * D = 64 (4-sigma band of the mean)
    sigma_mean = (256 * 0.25 * 0.75 / 200) ** 0.5
    assert abs(dists.mean() - 64) < 4 * sigma_mean


def test_uniform_responses_reject():
    p = nlhb_params(16, 259, EPS, EPSP, DEFAULT_SPEC)
    key = generate_key(p, RandomSource(50))
    rng = RandomSource(51)
    for _ in range(50):
        a = rng.uniform_matrix(p.k, p.n)
        z = rng.uniform_bits(p.d)
        accepted, dist = verify(p, key, a, z)
        assert not accepted


# --- transcript files ---------------------------------------------------------

def test_transcript_text_round_trip():
    p = small_nlhb()
    key = generate_key(p, RandomSource(60))
    ts = transcript_sampler(p, key, RandomSource(61), 3)
    text = transcripts_to_text(ts)
    back = transcripts_from_text(text)
    assert transcripts_to_text(back) == text
    assert len(back) == 3
    for orig, parsed in zip(ts, back):
        assert np.array_equal(orig.a, parsed.a)
        assert np.array_equal(orig.z, parsed.z)
        assert orig.accepted == parsed.accepted
        assert orig.distance == parsed.distance
        assert parsed.params == p


def test_transcript_mixed_params_round_trip():
    # hb and hb+ records share one params line and differ only in proto
    hb, plus = hb_params(6, 15, EPS, EPSP), hb_params(6, 15, EPS, EPSP, blinded=True)
    ts = []
    for i, p in enumerate((hb, plus, hb, small_nlhb(), plus)):
        ts += transcript_sampler(p, generate_key(p, RandomSource(70 + i)), RandomSource(80 + i), 1)
    text = transcripts_to_text(ts)
    back = transcripts_from_text(text)
    assert [t.params for t in back] == [t.params for t in ts]
    assert transcripts_to_text(back) == text


def test_transcript_blinded_round_trip():
    plus = nlhb_params(6, 15, EPS, EPSP, DEFAULT_SPEC, blinded=True)
    key = generate_key(plus, RandomSource(62))
    ts = transcript_sampler(plus, key, RandomSource(63), 2)
    back = transcripts_from_text(transcripts_to_text(ts))
    assert np.array_equal(back[0].b, ts[0].b)


def test_transcript_exact_layout():
    p = nlhb_params(2, 7, EPS, EPSP, DEFAULT_SPEC)
    key = SecretKey(s1=np.array([1, 0], dtype=np.uint8))
    a = np.zeros((2, 7), dtype=np.uint8)
    z = respond(p, key, a, noise=np.zeros(p.d, dtype=np.uint8))
    text = format_transcript(
        SessionTranscript(params=p, b=None, a=a, z=z, accepted=True, distance=0)
    )
    assert text == (
        "proto=nlhb\n"
        "k=2 n=7 p=3 d=4 u=1 eps=1/4 epsp=87/250 g=x1x2+x1x3+x2x3\n"
        "mat 2 7\n"
        "0000\n"
        "bits 4\n"
        "00\n"
        "decision=accept distance=0\n"
    )


def test_transcript_parse_errors_carry_line_numbers():
    p = small_nlhb()
    key = generate_key(p, RandomSource(64))
    good = transcripts_to_text(transcript_sampler(p, key, RandomSource(65), 1))
    lines = good.splitlines()

    bad = "\n".join(["proto=zzz"] + lines[1:])
    with pytest.raises(FormatError):
        transcripts_from_text(bad)

    bad = "\n".join([lines[0], lines[1].replace("u=5", "u=6")] + lines[2:])
    with pytest.raises(FormatError) as err:
        transcripts_from_text(bad)
    assert err.value.line == 2

    # flip the decision so it disagrees with the recorded distance
    decision = lines[-1]
    flipped = decision.replace("accept", "reject") if "accept" in decision else decision.replace("reject", "accept")
    bad = "\n".join(lines[:-1] + [flipped])
    with pytest.raises(FormatError):
        transcripts_from_text(bad)

    with pytest.raises(FormatError):
        transcripts_from_text("proto=nlhb\n")  # truncated record

    # after a good record, a different params line is still checked
    second = "\n".join([lines[0], lines[1].replace("u=5", "u=6")] + lines[2:])
    with pytest.raises(FormatError) as err:
        transcripts_from_text(good + "\n" + second)
    assert err.value.line == len(lines) + 3


def test_transcript_hostile_values_are_format_errors(tmp_path):
    p = small_nlhb()
    key = generate_key(p, RandomSource(64))
    good = transcripts_to_text(transcript_sampler(p, key, RandomSource(65), 1))
    lines = good.splitlines()
    hex_at = next(i for i, line in enumerate(lines) if line.startswith("mat ")) + 1
    cases = [
        ("\n".join(lines[:-1] + [lines[-1].split()[0] + " distance=abc"]), len(lines)),
        (good.replace("eps=1/4", "eps=1/0"), 2),
        (good.replace("p=3", "p=99"), 2),
        ("\n".join(lines[:hex_at] + [lines[hex_at].upper()] + lines[hex_at + 1 :]), hex_at + 1),
    ]
    for text, line in cases:
        with pytest.raises(FormatError) as err:
            transcripts_from_text(text)
        assert err.value.line == line
    path = tmp_path / "sessions.txt"
    path.write_bytes(good.encode() + b"\xff\n")
    with open(path, encoding="utf-8") as fp, pytest.raises(FormatError, match="undecodable"):
        read_transcripts(fp)


def test_transcript_writer_accepts_path(tmp_path):
    from nlhb.protocols import read_transcripts, write_transcripts

    p = small_nlhb()
    key = generate_key(p, RandomSource(66))
    ts = transcript_sampler(p, key, RandomSource(67), 2)
    path = tmp_path / "sessions.txt"
    write_transcripts(str(path), ts)
    back = read_transcripts(str(path))
    assert len(back) == 2
    assert np.array_equal(back[1].a, ts[1].a)


def test_transcript_io_accepts_path_objects(tmp_path):
    from nlhb.protocols import write_transcripts

    p = small_nlhb()
    key = generate_key(p, RandomSource(68))
    ts = transcript_sampler(p, key, RandomSource(69), 3)
    path = tmp_path / "sessions.txt"
    write_transcripts(path, ts)
    assert path.read_bytes() == transcripts_to_text(ts).encode("utf-8")
    back = read_transcripts(path)
    assert transcripts_to_text(back) == transcripts_to_text(ts)


@pytest.mark.parametrize("gap", ["  ", "\t\t"])
def test_transcript_whitespace_inside_payload_is_format_error(gap):
    p = small_nlhb()
    key = generate_key(p, RandomSource(64))
    lines = transcripts_to_text(transcript_sampler(p, key, RandomSource(65), 1)).splitlines()
    z_hex = lines[-2]  # D=16 bits: four hex digits
    lines[-2] = z_hex[:2] + gap + z_hex[2:]
    with pytest.raises(FormatError, match="whitespace") as err:
        read_transcripts(io.StringIO("\n".join(lines) + "\n"))
    assert err.value.line == len(lines) - 1


def test_transcript_parse_peak_memory():
    # 64 paper-size records, the chunk the server-log check parses: ~3.6 MB of
    # text and ~14 MB of parsed matrices.  Parsing the string directly keeps
    # the peak near that; a StringIO copy of the text (4 bytes a character)
    # would add ~14 MB more.
    plist = [
        hb_params(128, 1164, EPS, EPSP),
        hb_params(128, 1164, EPS, EPSP, blinded=True),
        nlhb_params(128, 1167, EPS, EPSP, DEFAULT_SPEC),
        nlhb_params(128, 1167, EPS, EPSP, DEFAULT_SPEC, blinded=True),
    ]
    keys = [generate_key(p, RandomSource(i)) for i, p in enumerate(plist)]
    rng = RandomSource(70)
    text = transcripts_to_text([run_session(plist[i % 4], keys[i % 4], rng, rng) for i in range(64)])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        records = transcripts_from_text(text)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(records) == 64
    assert peak < 24e6, "parsing 64 records peaked at %.1f MB" % (peak / 1e6)


def test_transcript_parse_peak_memory_without_line_copies():
    # The same 64 records: the parsed matrices take ~14.3 MB, so a peak below
    # 15.5 MB leaves no room for a split copy of the 3.6 MB text.
    plist = [
        hb_params(128, 1164, EPS, EPSP),
        hb_params(128, 1164, EPS, EPSP, blinded=True),
        nlhb_params(128, 1167, EPS, EPSP, DEFAULT_SPEC),
        nlhb_params(128, 1167, EPS, EPSP, DEFAULT_SPEC, blinded=True),
    ]
    keys = [generate_key(p, RandomSource(i)) for i, p in enumerate(plist)]
    rng = RandomSource(70)
    text = transcripts_to_text([run_session(plist[i % 4], keys[i % 4], rng, rng) for i in range(64)])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        records = transcripts_from_text(text)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(records) == 64
    assert peak < 15.5e6, "parsing 64 records peaked at %.1f MB" % (peak / 1e6)


def _paper_sessions(seed, count):
    """``count`` paper-size sessions, round-robin over the four protocols."""
    plist = [
        hb_params(128, 1164, EPS, EPSP),
        hb_params(128, 1164, EPS, EPSP, blinded=True),
        nlhb_params(128, 1167, EPS, EPSP, DEFAULT_SPEC),
        nlhb_params(128, 1167, EPS, EPSP, DEFAULT_SPEC, blinded=True),
    ]
    keys = [generate_key(p, RandomSource(i)) for i, p in enumerate(plist)]
    rng = RandomSource(seed)
    return [run_session(plist[i % 4], keys[i % 4], rng, rng) for i in range(count)]


def _retained(build):
    """The records ``build()`` returns and the bytes they keep alive."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        records = build()
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return records, kept


def test_records_keep_packed_payloads():
    # 64 paper-size records hold ~1.6 MB of payloads; as uint8 bit arrays,
    # one byte per bit, they would keep ~14.4 MB.
    text = transcripts_to_text(_paper_sessions(70, 64))
    parsed, kept = _retained(lambda: transcripts_from_text(text))
    assert len(parsed) == 64
    assert kept < 2.5e6, "64 parsed records keep %.1f MB" % (kept / 1e6)
    drawn, kept = _retained(lambda: _paper_sessions(71, 64))
    assert len(drawn) == 64
    assert kept < 2.5e6, "64 run_session records keep %.1f MB" % (kept / 1e6)


@pytest.mark.parametrize("proto", ["hb", "hb+", "nlhb", "nlhb+"])
def test_record_arrays_are_the_drawn_bits_read_only(proto):
    blinded = proto.endswith("+")
    if proto.startswith("nlhb"):
        p = nlhb_params(5, 19, EPS, EPSP, DEFAULT_SPEC, blinded=blinded)  # 95 bits: padded
    else:
        p = hb_params(5, 19, EPS, EPSP, blinded=blinded)
    key = generate_key(p, RandomSource(80))
    t = run_session(p, key, RandomSource(81), RandomSource(82))
    prover = RandomSource(81)
    b = prover.uniform_matrix(5, 19) if blinded else None
    a = RandomSource(82).uniform_matrix(5, 19)
    z = expected_response(p, key, a, b) ^ prover.bernoulli_bits(p.d, p.eps)
    drawn = {"a": a, "z": z} if b is None else {"a": a, "b": b, "z": z}
    for record in (t, transcripts_from_text(format_transcript(t))[0]):
        assert (record.b is None) == (b is None)
        for name, want in drawn.items():
            got = getattr(record, name)
            assert got.dtype == np.uint8 and got.shape == want.shape
            assert np.array_equal(got, want)
            assert got is not getattr(record, name)
            with pytest.raises(ValueError):
                got[0] ^= 1
            with pytest.raises(AttributeError):
                setattr(record, name, want)
            assert np.array_equal(getattr(record, name), want)


# k*n is 95 and 69 bits: the drawn payloads of B and A end in a masked byte
ODD_SIZES = [hb_params(5, 19, EPS, EPSP), nlhb_params(3, 23, EPS, EPSP, DEFAULT_SPEC, blinded=True)]


@pytest.mark.parametrize("p", ODD_SIZES, ids=lambda p: p.proto)
def test_drawn_payloads_format_like_the_constructor(p):
    key = generate_key(p, RandomSource(83))
    for seed in range(0, 16, 2):
        t = run_session(p, key, RandomSource(seed), RandomSource(seed + 1))
        public = SessionTranscript(p, t.b, t.a, t.z, t.accepted, t.distance)
        assert format_transcript(t) == format_transcript(public)


@pytest.mark.parametrize("p", ODD_SIZES, ids=lambda p: p.proto)
def test_run_session_packs_only_the_response(p, monkeypatch):
    # B and A come packed from their draw; only z is packed
    key = generate_key(p, RandomSource(84))
    packed = counted_packs(monkeypatch)
    run_session(p, key, RandomSource(85), RandomSource(86))
    assert packed == [(p.d,)]


@pytest.mark.parametrize("p", [
    hb_params(5, 19, EPS, EPSP),
    hb_params(5, 19, EPS, EPSP, blinded=True),
    nlhb_params(3, 23, EPS, EPSP, DEFAULT_SPEC),
    nlhb_params(3, 23, EPS, EPSP, DEFAULT_SPEC, blinded=True),
], ids=lambda p: p.proto)
def test_run_session_unpacks_no_matrix(p, monkeypatch):
    # the image is computed from the drawn payloads of B and A
    key = generate_key(p, RandomSource(87))
    calls = []

    def counted(name, fn):
        return lambda *args: calls.append(name) or fn(*args)

    monkeypatch.setattr(RandomSource, "_bits_and_payload",
                        counted("_bits_and_payload", RandomSource._bits_and_payload))
    for module in (gf2core, protocols):
        monkeypatch.setattr(module, "_unpack_payload", counted("_unpack_payload", module._unpack_payload))
    t = run_session(p, key, RandomSource(88), RandomSource(89))
    assert calls == []
    assert verify(p, key, t.a, t.z, t.b) == (t.accepted, t.distance)


_KEY_FILLS = {"random": None, "zeros": 0, "ones": 1}


@pytest.mark.parametrize("proto", PROTOCOLS)
@settings(max_examples=25, deadline=None)
@given(st.integers(1, 20), st.integers(1, 70), st.sampled_from(sorted(_KEY_FILLS)),
       st.booleans(), st.integers(0, 2**32 - 1))
@example(16, 64, "ones", False, 0)
@example(13, 21, "zeros", True, 1)
@example(9, 1, "random", True, 2)
def test_int_image_and_z_payload_are_the_bit_path(proto, k, width, fill, over, seed):
    # k and n of any residue mod 8; noise of weight u, which accepts, or u + 1
    spec = IDENTITY_SPEC if proto.startswith("hb") else NonlinearFunctionSpec(5, ((1, 5), (2, 3, 4)))
    params = ProtocolParams(proto, k, spec.p + width, EPS, EPSP, spec)
    rng = RandomSource(seed)

    def part():
        value = _KEY_FILLS[fill]
        return rng.uniform_bits(k) if value is None else np.full(k, value, dtype=np.uint8)

    key = SecretKey(s1=part(), s2=part() if params.blinded else None)
    weight = params.u + over
    noise = np.zeros(params.d, dtype=np.uint8)
    noise[np.argsort(rng.u64(params.d))[:weight]] = 1
    t = run_session(params, key, RandomSource(seed + 1), RandomSource(seed + 2), noise=noise)
    a, b = t.a, t.b
    image = apply_f_batch(spec, mat_vec_mul(key.s1, a if b is None else b)[None, :])[0]
    if b is not None:
        image ^= apply_f_batch(spec, mat_vec_mul(key.s2, a)[None, :])[0]
    want = gf2core._bits_int(image)
    assert protocols._image(params, key, a, b) == want
    payloads = [None if m is None else np.frombuffer(m, dtype=np.uint8) for m in (t._a, t._b)]
    assert protocols._image(params, key, payloads[0], payloads[1], params.n) == want
    assert t._z == gf2core._pack_payload(image ^ noise)
    assert (t.accepted, t.distance) == (not over, weight)
    assert verify(params, key, a, t.z, b) == (not over, weight)
    assert np.array_equal(expected_response(params, key, a, b), image)


def test_record_constructor_checks_shape_and_bits():
    p = small_nlhb()
    plus = nlhb_params(8, 19, EPS, EPSP, DEFAULT_SPEC, blinded=True)
    a = np.zeros((8, 19), dtype=np.uint8)
    z = np.zeros(p.d, dtype=np.uint8)
    two = a.copy()
    two[3, 4] = 2
    bad = [
        (p, None, two, z),
        (p, None, a, np.full(p.d, 2, dtype=np.uint8)),
        (plus, two, a, z),
        (p, None, a[:, :18], z),
        (p, None, a[:7], z),
        (p, None, a.reshape(-1), z),
        (p, None, a, z[:-1]),
        (p, None, a, a),
        (plus, a[:, :18], a, z),
        (plus, None, a, z),
        (p, a, a, z),
    ]
    for params, b, m, v in bad:
        with pytest.raises((ParameterError, DimensionError)):
            SessionTranscript(params, b, m, v, True, 0)
    t = SessionTranscript(params=plus, b=a, a=a, z=z, accepted=True, distance=0)
    assert np.array_equal(t.b, a) and np.array_equal(t.z, z)


def _mixed_transcript_text():
    plus = hb_params(4, 15, EPS, EPSP, blinded=True)
    ts = transcript_sampler(plus, generate_key(plus, RandomSource(90)), RandomSource(91), 1)
    p = small_nlhb()
    return transcripts_to_text(ts + transcript_sampler(p, generate_key(p, RandomSource(92)), RandomSource(93), 1))


def test_transcript_crlf_parses_like_lf():
    text = _mixed_transcript_text()
    back = transcripts_from_text(text.replace("\n", "\r\n"))
    assert transcripts_to_text(back) == text


@pytest.mark.parametrize("sep", ["\r", "\x0b", "\x0c", "\x85", "\u2028"])
def test_transcript_lone_separator_is_not_a_line_break(sep):
    lines = _mixed_transcript_text().split("\n")
    assert lines[2].startswith("mat ")
    text = "\n".join(lines[:2] + [lines[2] + sep + lines[3]] + lines[4:])
    with pytest.raises(FormatError) as err:
        transcripts_from_text(text)
    assert err.value.line == 3


@settings(max_examples=300, deadline=None)
@given(edited_text(_mixed_transcript_text()))
def test_transcript_hostile_edits_give_records_or_format_error(text):
    try:
        records = transcripts_from_text(text)
    except FormatError:
        return
    assert all(isinstance(t, SessionTranscript) for t in records)


def test_transcript_params_field_repeated_is_format_error():
    p = small_nlhb()
    good = transcripts_to_text(transcript_sampler(p, generate_key(p, RandomSource(64)), RandomSource(65), 1))
    lines = good.split("\n")
    lines[1] += " k=2"
    with pytest.raises(FormatError, match="'k' repeated") as err:
        transcripts_from_text("\n".join(lines))
    assert err.value.line == 2


def _four_protocol_sessions(count):
    """``count`` sessions over hb 5x19, hb+ 6x15, nlhb 8x19 and nlhb+ 3x23 in turn."""
    plist = [
        hb_params(5, 19, EPS, EPSP),
        hb_params(6, 15, EPS, EPSP, blinded=True),
        small_nlhb(),
        nlhb_params(3, 23, EPS, EPSP, DEFAULT_SPEC, blinded=True),
    ]
    keys = [generate_key(p, RandomSource(100 + i)) for i, p in enumerate(plist)]
    rng = RandomSource(104)
    return [run_session(plist[i % 4], keys[i % 4], rng, rng) for i in range(count)]


def test_transcript_writer_has_one_grammar():
    ts = _four_protocol_sessions(9)
    text = transcripts_to_text(ts)
    assert text == "\n".join(map(format_transcript, ts))
    records = text.split("\n\n")
    assert len(records) == len(ts)
    for t, record in zip(ts, records):
        lines = record.rstrip("\n").split("\n")
        blocks = ["%s\n%s\n" % (lines[i], lines[i + 1]) for i in range(2, len(lines) - 1, 2)]
        shape = (t.params.k, t.params.n)
        payloads = [] if t._b is None else [("mat", shape, t._b)]
        payloads += [("mat", shape, t._a), ("bits", (t.params.d,), t._z)]
        assert blocks == [_block_text(*payload) for payload in payloads]
        assert blocks[-2:] == [dump_matrix(t.a), dump_bits(t.z)]


def test_params_lines_are_parsed_once_across_reads(monkeypatch):
    calls = []
    parse = protocols._parse_params
    monkeypatch.setattr(protocols, "_parse_params", lambda *args: calls.append(args) or parse(*args))
    protocols._cached_params.cache_clear()
    text = transcripts_to_text(_four_protocol_sessions(16))
    reads = [transcripts_from_text(text) for _ in range(3)]
    assert len(calls) == 4
    assert all(len(records) == 16 for records in reads)
    assert all(x.params is y.params for x, y in zip(reads[0], reads[1]))


def test_bad_params_line_names_its_line_on_every_read():
    lines = transcripts_to_text(_four_protocol_sessions(4)).split("\n")
    assert lines[1].startswith("k=5 n=19 ") and " u=6 " in lines[1]
    lines[1] = lines[1].replace(" u=6 ", " u=7 ")
    text = "\n".join(lines)
    for _ in range(2):
        with pytest.raises(FormatError, match="disagree") as err:
            transcripts_from_text(text)
        assert err.value.line == 2


def _hb_record_lines():
    """The lines of one hb 4x19 record at distance 2."""
    p = hb_params(4, 19, EPS, EPSP)
    noise = np.zeros(p.d, dtype=np.uint8)
    noise[:2] = 1
    t = run_session(p, generate_key(p, RandomSource(94)), RandomSource(95), RandomSource(96), noise=noise)
    return format_transcript(t).split("\n")


@pytest.mark.parametrize("index, old, new", [
    (2, "mat 4 19", "mat 4 1_9"),
    (4, "bits 19", "bits \u0661\u0669"),
    (1, "k=4 ", "k=\u0664 "),
    (1, "k=4 ", "k=04 "),
    (6, "distance=2", "distance=+2"),
    (6, "distance=2", "distance=0_2"),
])
def test_transcript_integers_are_ascii_decimal(index, old, new):
    lines = _hb_record_lines()
    assert transcripts_from_text("\n".join(lines))[0].distance == 2
    assert old in lines[index]
    lines[index] = lines[index].replace(old, new)
    with pytest.raises(FormatError) as err:
        transcripts_from_text("\n".join(lines))
    assert err.value.line == index + 1



def _nlhb_record_lines():
    """The lines of one nlhb 8x19 record."""
    p = small_nlhb()
    return transcripts_to_text(transcript_sampler(p, generate_key(p, RandomSource(97)), RandomSource(98), 1)).split("\n")


_NLHB_PARAMS_LINE = "k=8 n=19 p=3 d=16 u=5 eps=1/4 epsp=87/250 g=x1x2+x1x3+x2x3"


@pytest.mark.parametrize("line, written", [
    (_NLHB_PARAMS_LINE.replace("eps=1/4", "eps=0.25"), "'0.25'"),
    (_NLHB_PARAMS_LINE.replace("eps=1/4", "eps=2/8"), "eps=1/4"),
    (_NLHB_PARAMS_LINE.replace("eps=1/4", "eps=1e99999999"), "'1e99999999'"),
    (_NLHB_PARAMS_LINE.replace("k=8", "k=08"), "k=8"),
    (_NLHB_PARAMS_LINE.replace("k=8", "k=+8"), "k=8"),
    (_NLHB_PARAMS_LINE.replace("n=19", "n=1_9"), "n=19"),
    (_NLHB_PARAMS_LINE.replace("g=x1x2+x1x3+x2x3", "g=x2x3+x1x2+x1x3"), "g=x1x2+x1x3+x2x3"),
    (_NLHB_PARAMS_LINE + " zz=1", _NLHB_PARAMS_LINE),
    (" ".join(reversed(_NLHB_PARAMS_LINE.split())), _NLHB_PARAMS_LINE),
    (_NLHB_PARAMS_LINE.replace(" ", "  ", 1), _NLHB_PARAMS_LINE),
    (_NLHB_PARAMS_LINE.replace(" ", "\t", 1), _NLHB_PARAMS_LINE),
    (_NLHB_PARAMS_LINE.replace("d=16", "d=016"), _NLHB_PARAMS_LINE),
    # a value that fails to decode is named with its field
    (_NLHB_PARAMS_LINE.replace("eps=1/4", "eps=0.25"), "line 2: eps=0.25: invalid literal"),
    (_NLHB_PARAMS_LINE.replace("k=8", "k=x"), "line 2: k=x: invalid literal"),
    (_NLHB_PARAMS_LINE.replace("epsp=87/250", "epsp=87/0"), "line 2: epsp=87/0: "),
])
def test_params_line_must_be_the_written_one(line, written):
    lines = _nlhb_record_lines()
    assert lines[1] == _NLHB_PARAMS_LINE
    lines[1] = line
    with pytest.raises(FormatError) as err:
        transcripts_from_text("\n".join(lines))
    assert err.value.line == 2 and written in str(err.value)


@pytest.mark.parametrize("line", [
    "proto =nlhb", "proto=NLHB", "proto=nlhb x", "nlhb", "proto=nlhb=",
])
def test_proto_line_must_be_the_written_one(line):
    lines = _nlhb_record_lines()
    lines[0] = line
    with pytest.raises(FormatError) as err:
        transcripts_from_text("\n".join(lines))
    assert err.value.line == 1


@pytest.mark.parametrize("old, new", [
    ("decision=accept distance=2", "decision=accept  distance=2"),
    ("decision=accept distance=2", "decision=accept\tdistance=2"),
    ("decision=accept distance=2", "decision = accept distance=2"),
    ("decision=accept distance=2", "distance=2 decision=accept"),
    ("decision=accept distance=2", "decision=Accept distance=2"),
    ("decision=accept distance=2", "decision=accept distance=2 x=1"),
    ("decision=accept distance=2", "decision=accept dist=2"),
    ("decision=accept distance=2", "accept distance=2"),
])
def test_decision_line_must_be_the_written_one(old, new):
    lines = _hb_record_lines()
    assert lines[6] == old
    lines[6] = new
    with pytest.raises(FormatError) as err:
        transcripts_from_text("\n".join(lines))
    assert err.value.line == 7


_WRITTEN_FIELD_LINES = ("proto=", "k=", "decision=")


@settings(max_examples=300, deadline=None)
@given(edited_lines(_mixed_transcript_text(), lambda line: line.startswith(_WRITTEN_FIELD_LINES)))
def test_edited_field_line_is_refused_or_written_back_as_edited(text):
    try:
        records = transcripts_from_text(text)
    except FormatError:
        return
    assert list(LineReader(transcripts_to_text(records))) == list(LineReader(text))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(protocol_params(), st.integers(0, 2**32)), min_size=1, max_size=4))
def test_transcripts_round_trip_through_text(drawn):
    records = [
        run_session(p, generate_key(p, RandomSource(seed)), RandomSource(seed + 1), RandomSource(seed + 2))
        for p, seed in drawn
    ]
    text = transcripts_to_text(records)
    back = transcripts_from_text(text)
    assert transcripts_to_text(back) == text
    for t, u in zip(records, back, strict=True):
        assert u.params == t.params
        assert (u._b, u._a, u._z, u.accepted, u.distance) == (t._b, t._a, t._z, t.accepted, t.distance)

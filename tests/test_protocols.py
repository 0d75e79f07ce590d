import io
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from support import edited_text

from nlhb.gf2core import DimensionError, FormatError, ParameterError, RandomSource
from nlhb.nlfunc import DEFAULT_SPEC, IDENTITY_SPEC
from nlhb.protocols import (
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


def _bad_exchanges(p, key):
    """(description, key, a, z, b, expected error) for malformed inputs."""
    rng = RandomSource(9)
    a = rng.uniform_matrix(p.k, p.n)
    z = np.zeros(p.d, dtype=np.uint8)
    two = a.copy()
    two[0, 0] = 2
    short = SecretKey(s1=key.s1[:-1], s2=key.s2)
    nonbit = SecretKey(s1=np.full(p.k, 2, dtype=np.uint8), s2=key.s2)
    b = rng.uniform_matrix(p.k, p.n) if p.blinded else None
    cases = [
        ("challenge shape", key, a[:, :-1], z, b, DimensionError),
        ("challenge not 2-D", key, a.reshape(-1), z, b, DimensionError),
        ("challenge entry 2", key, two, z, b, ParameterError),
        ("key length", short, a, z, b, DimensionError),
        ("key entry 2", nonbit, a, z, b, ParameterError),
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
    cases = [
        ("\n".join(lines[:-1] + [lines[-1].split()[0] + " distance=abc"]), len(lines)),
        (good.replace("eps=1/4", "eps=1/0"), 2),
        (good.replace("p=3", "p=99"), 2),
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

"""Framed wire protocol, keystore, and loopback handshakes."""

import socket
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from support import edited_text

from nlhb.gf2core import (
    DimensionError,
    FormatError,
    ParameterError,
    RandomSource,
    _pack_hex,
    _unpack_hex,
)
from nlhb.nlfunc import DEFAULT_SPEC
from nlhb.protocols import (
    SecretKey,
    SessionTranscript,
    expected_response,
    format_transcript,
    generate_key,
    nlhb_params,
    read_transcripts,
)
from nlhb import authsvc as svc


def _params():
    return nlhb_params(16, 259, Fraction(1, 4), Fraction(87, 250), DEFAULT_SPEC)


def _blinded_params():
    return nlhb_params(8, 131, Fraction(1, 8), Fraction(1, 4), DEFAULT_SPEC, blinded=True)


@pytest.fixture()
def service(tmp_path):
    params = _params()
    key = generate_key(params, RandomSource(1))
    entry = svc.KeystoreEntry("tag-01", params, key)
    with svc.AuthService(
        ("127.0.0.1", 0), {"tag-01": entry}, seed=42, log_path=tmp_path / "sessions.log"
    ) as running:
        yield running, entry


def _logged(running):
    """The transcripts the service has appended to its log."""
    if not running.log_path.exists():
        return []
    return read_transcripts(str(running.log_path))


# ---------------------------------------------------------------------------
# frame codec
# ---------------------------------------------------------------------------

def test_frame_layout_and_limits():
    frame = svc.encode_frame(svc.HELLO, b"abc")
    assert frame == b"\x01\x00\x00\x00\x03abc"
    with pytest.raises(ParameterError):
        svc.encode_frame(9, b"")
    with pytest.raises(ParameterError):
        svc.encode_frame(svc.HELLO, b"x" * (svc.MAX_PAYLOAD + 1))


# ---------------------------------------------------------------------------
# keystore
# ---------------------------------------------------------------------------

def test_keystore_round_trip(tmp_path):
    plain = svc.KeystoreEntry("alpha", _params(), generate_key(_params(), RandomSource(2)))
    blinded = svc.KeystoreEntry(
        "beta", _blinded_params(), generate_key(_blinded_params(), RandomSource(3))
    )
    path = tmp_path / "keys.txt"
    svc.write_keystore(path, [plain, blinded])
    back = svc.read_keystore(path)
    assert set(back) == {"alpha", "beta"}
    assert back["alpha"].params == plain.params
    assert np.array_equal(back["alpha"].key.s1, plain.key.s1)
    assert back["alpha"].key.s2 is None
    assert np.array_equal(back["beta"].key.s2, blinded.key.s2)


def test_keystore_parse_errors():
    params = _params()
    key = generate_key(params, RandomSource(4))
    good = svc.format_keystore_entry(svc.KeystoreEntry("a", params, key))
    with pytest.raises(FormatError, match="missing"):
        svc.parse_keystore(good.replace("epsp=87/250\n", ""))
    with pytest.raises(FormatError, match="key=value"):
        svc.parse_keystore(good + "stray line\n")
    with pytest.raises(FormatError, match="hex"):
        svc.parse_keystore(good.replace("s1=", "s1=zz"))
    with pytest.raises(FormatError, match="duplicate"):
        svc.parse_keystore(good + "\n" + good)
    # k=16 keys occupy exactly two bytes; a longer value must fail
    line = [l for l in good.splitlines() if l.startswith("s1=")][0]
    with pytest.raises(FormatError, match="bytes"):
        svc.parse_keystore(good.replace(line, line + "ff"))
    blinded = _blinded_params()
    bkey = generate_key(blinded, RandomSource(5))
    btext = svc.format_keystore_entry(svc.KeystoreEntry("b", blinded, bkey))
    btext = "\n".join(l for l in btext.splitlines() if not l.startswith("s2=")) + "\n"
    with pytest.raises(FormatError, match="s2"):
        svc.parse_keystore(btext)


@pytest.mark.parametrize("gap", ["  ", "\t\t"])
def test_keystore_whitespace_inside_key_is_format_error(gap):
    params = _params()
    good = svc.format_keystore_entry(svc.KeystoreEntry("a", params, generate_key(params, RandomSource(4))))
    line = [l for l in good.splitlines() if l.startswith("s1=")][0]  # s1= and 4 hex digits
    with pytest.raises(FormatError, match="whitespace"):
        svc.parse_keystore(good.replace(line, line[:5] + gap + line[5:]))


@pytest.mark.parametrize(
    "old, new",
    [("k=16", "k=x"), ("eps=1/4", "eps=1/x"), ("eps=1/4", "eps=1/0"), ("proto=nlhb", "proto=hbx")],
)
def test_keystore_bad_values_are_format_errors(old, new):
    params = _params()
    good = svc.format_keystore_entry(
        svc.KeystoreEntry("a", params, generate_key(params, RandomSource(4)))
    )
    assert old + "\n" in good
    with pytest.raises(FormatError, match="keystore entry 'a'"):
        svc.parse_keystore(good.replace(old + "\n", new + "\n"))


def test_keystore_file_must_be_utf8(tmp_path):
    path = tmp_path / "keys.txt"
    path.write_bytes(b"identity=\xff\n")
    with pytest.raises(FormatError, match="UTF-8"):
        svc.read_keystore(path)


def test_keystore_bytes_unchanged():
    # the s1/s2 hex encoding of a fixed key, as written before the shared codec
    params = _blinded_params()
    key = SecretKey(s1=np.array([1, 0, 1, 1, 0, 0, 0, 1], dtype=np.uint8), s2=np.ones(8, dtype=np.uint8))
    text = svc.format_keystore_entry(svc.KeystoreEntry("b", params, key))
    assert text.endswith("s1=b1\ns2=ff\n")


def test_key_hex_padding_must_be_zero():
    with pytest.raises(FormatError, match="padding"):
        _unpack_hex("ff", 4)
    assert _unpack_hex("f0", 4).tolist() == [1, 1, 1, 1]


# ---------------------------------------------------------------------------
# loopback handshakes
# ---------------------------------------------------------------------------

def test_honest_client_accepts_and_wrong_key_rejects(service):
    running, entry = service
    params = entry.params
    accepted, distance = svc.authenticate(
        running.address, "tag-01", entry.key, params, rng=RandomSource(7)
    )
    assert accepted is True and distance <= params.u

    wrong = generate_key(params, RandomSource(8))
    accepted, distance = svc.authenticate(
        running.address, "tag-01", wrong, params, rng=RandomSource(9)
    )
    assert accepted is False
    # a mismatched key faces an effectively uniform image: distance ~ D/2
    assert abs(distance - params.d / 2) < 4 * (params.d ** 0.5)


def test_unknown_identity_is_a_distinct_failure(service):
    running, entry = service
    with pytest.raises(svc.RemoteError, match="unknown identity"):
        svc.authenticate(
            running.address, "nobody", entry.key, entry.params, rng=RandomSource(10)
        )


def test_server_absent_times_out():
    params = _params()
    key = generate_key(params, RandomSource(11))
    with pytest.raises(svc.ServiceError):
        svc.authenticate(("127.0.0.1", 1), "tag-01", key, params, rng=RandomSource(12), timeout=0.5)


def test_secrets_and_noise_never_on_the_wire(service):
    running, entry = service
    params = entry.params
    rng = RandomSource(13)
    frames = []
    svc.authenticate(
        running.address, "tag-01", entry.key, params, rng=rng, frame_log=frames
    )
    tags = [tag for tag, _ in frames]
    assert tags == [svc.HELLO, svc.CHALLENGE, svc.RESPONSE, svc.DECISION]
    replay = RandomSource(13)
    noise_hex = _pack_hex(replay.bernoulli_bits(params.d, params.eps))
    secret_hex = _pack_hex(entry.key.s1)
    blob = b"".join(payload for _, payload in frames)
    assert secret_hex.encode() not in blob
    assert noise_hex.encode() not in blob


def test_transcript_byte_identical_to_in_process_session(service):
    running, entry = service
    params = entry.params
    accepted, distance = svc.authenticate(
        running.address, "tag-01", entry.key, params, rng=RandomSource(14)
    )
    # rebuild the session from the injected seeds: the client drew only the
    # noise; the server drew A from its session-0 source
    client = RandomSource(14)
    a = RandomSource(42).derive("session-0").uniform_matrix(params.k, params.n)
    z = expected_response(params, entry.key, a) ^ client.bernoulli_bits(params.d, params.eps)
    local = SessionTranscript(params, None, a, z, accepted, distance)
    assert running.log_path.read_text(encoding="utf-8") == format_transcript(local)


def test_blinded_handshake_and_transcript(tmp_path):
    params = _blinded_params()
    key = generate_key(params, RandomSource(15))
    entry = svc.KeystoreEntry("plus-07", params, key)
    log_path = tmp_path / "sessions.log"
    with svc.AuthService(
        ("127.0.0.1", 0), {"plus-07": entry}, seed=5, log_path=log_path
    ) as running:
        accepted, distance = svc.authenticate(
            running.address, "plus-07", key, params, rng=RandomSource(16)
        )
        assert accepted is True
        client = RandomSource(16)
        b = client.uniform_matrix(params.k, params.n)
        a = RandomSource(5).derive("session-0").uniform_matrix(params.k, params.n)
        z = expected_response(params, key, a, b=b) ^ client.bernoulli_bits(params.d, params.eps)
        local = SessionTranscript(params, b, a, z, accepted, distance)
        assert log_path.read_text(encoding="utf-8") == format_transcript(local)
    with open(log_path, "r", encoding="utf-8") as fp:
        logged = read_transcripts(fp)
    assert len(logged) == 1 and logged[0].accepted


def test_muted_service_returns_no_decision(service_factory=None):
    params = _params()
    key = generate_key(params, RandomSource(17))
    entry = svc.KeystoreEntry("tag-01", params, key)
    with svc.AuthService(
        ("127.0.0.1", 0), {"tag-01": entry}, seed=6, mute_decisions=True
    ) as running:
        out = svc.authenticate(running.address, "tag-01", key, params, rng=RandomSource(18))
        assert out == (None, None)
        assert running.logged == 1  # still verified and logged


def test_truncated_frame_gets_error_and_no_log(service):
    running, entry = service
    with socket.create_connection(running.address, timeout=5) as sock:
        sock.sendall(svc.encode_frame(svc.HELLO, b"tag-01"))
        tag, _ = svc.read_frame(sock)
        assert tag == svc.CHALLENGE
        sock.sendall(b"\x04" + (100).to_bytes(4, "big") + b"short")
        sock.shutdown(socket.SHUT_WR)
        tag, payload = svc.read_frame(sock)
        assert tag == svc.ERROR
        assert b"mid-frame" in payload
    assert running.logged == 0 and _logged(running) == []


def test_oversize_declaration_drops_connection_silently(service):
    running, entry = service
    with socket.create_connection(running.address, timeout=5) as sock:
        sock.sendall(b"\x01" + (svc.MAX_PAYLOAD + 1).to_bytes(4, "big"))
        sock.shutdown(socket.SHUT_WR)
        with pytest.raises(svc.FramingError, match="closed"):
            svc.read_frame(sock)
    assert running.logged == 0 and _logged(running) == []


def test_unknown_leading_frame_rejected(service):
    running, entry = service
    with socket.create_connection(running.address, timeout=5) as sock:
        sock.sendall(svc.encode_frame(svc.RESPONSE, b""))
        tag, payload = svc.read_frame(sock)
        assert tag == svc.ERROR and b"HELLO" in payload


def test_shutdown_without_start_returns():
    service = svc.AuthService(("127.0.0.1", 0), {})
    outcome = []
    stopper = threading.Thread(target=lambda: outcome.append(service.shutdown()), daemon=True)
    stopper.start()
    stopper.join(timeout=5)
    assert outcome == [None]  # returned, and raised nothing


def test_wrong_response_length_rejected(service):
    running, entry = service
    params = entry.params
    from nlhb.gf2core import dump_bits

    with socket.create_connection(running.address, timeout=5) as sock:
        sock.sendall(svc.encode_frame(svc.HELLO, b"tag-01"))
        svc.read_frame(sock)  # challenge
        bad = dump_bits(np.zeros(params.d - 1, dtype=np.uint8))
        sock.sendall(svc.encode_frame(svc.RESPONSE, bad.encode()))
        tag, payload = svc.read_frame(sock)
        assert tag == svc.ERROR and b"expected bits %d" % params.d in payload
    assert running.logged == 0 and _logged(running) == []


@pytest.mark.parametrize("payload", [b"\xff\xfe", b"bits 243\n\xc3("])
def test_non_utf8_response_gets_error_frame(service, payload):
    running, entry = service
    with socket.create_connection(running.address, timeout=5) as sock:
        sock.sendall(svc.encode_frame(svc.HELLO, b"tag-01"))
        svc.read_frame(sock)  # challenge
        sock.sendall(svc.encode_frame(svc.RESPONSE, payload))
        tag, message = svc.read_frame(sock)
        assert tag == svc.ERROR and b"UTF-8" in message
    assert running.logged == 0 and _logged(running) == []


def test_non_utf8_blind_gets_error_frame(tmp_path):
    params = _blinded_params()
    entry = svc.KeystoreEntry("plus-07", params, generate_key(params, RandomSource(15)))
    with svc.AuthService(("127.0.0.1", 0), {"plus-07": entry}, seed=5) as running:
        with socket.create_connection(running.address, timeout=5) as sock:
            sock.sendall(svc.encode_frame(svc.HELLO, b"plus-07"))
            sock.sendall(svc.encode_frame(svc.BLIND, b"mat 8 131\n\x80"))
            tag, message = svc.read_frame(sock)
            assert tag == svc.ERROR and b"UTF-8" in message
        assert running.logged == 0


def test_concurrent_sessions(service):
    running, entry = service
    params = entry.params
    results = [None] * 8
    def run(i):
        results[i] = svc.authenticate(
            running.address, "tag-01", entry.key, params, rng=RandomSource(100 + i)
        )
    threads = [threading.Thread(target=run, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(acc is True for acc, _ in results)
    assert running.logged == 8
    # one blank line between records, none before the first or after the last
    logged = _logged(running)
    assert len(logged) == 8
    assert running.log_path.read_text(encoding="utf-8") == "\n".join(map(format_transcript, logged))


# ---------------------------------------------------------------------------
# keystore line rule: blank lines separate entries, lines end at \n only
# ---------------------------------------------------------------------------

def _two_entries():
    a = svc.KeystoreEntry("alpha", _params(), generate_key(_params(), RandomSource(20)))
    b = svc.KeystoreEntry("beta", _blinded_params(), generate_key(_blinded_params(), RandomSource(21)))
    return svc.format_keystore_entry(a), svc.format_keystore_entry(b)


def test_keystore_crlf_keeps_every_entry():
    first, second = _two_entries()
    back = svc.parse_keystore((first + "\n" + second).replace("\n", "\r\n"))
    assert set(back) == {"alpha", "beta"}
    assert back["beta"].key.s2 is not None


@pytest.mark.parametrize("blank", ["   ", "\t", " \t "])
def test_keystore_whitespace_only_separator_line(blank):
    first, second = _two_entries()
    assert set(svc.parse_keystore(first + blank + "\n" + second)) == {"alpha", "beta"}


def test_keystore_entries_without_blank_line_name_the_repeated_field():
    first, second = _two_entries()
    with pytest.raises(FormatError, match="'identity' repeated") as err:
        svc.parse_keystore(first + second)
    assert err.value.line == first.count("\n") + 1


@pytest.mark.parametrize("sep", ["\r", "\x0b", "\x0c", "\x85", "\u2028"])
def test_keystore_lone_separator_is_not_a_line_break(sep, tmp_path):
    first, _ = _two_entries()
    text = first.replace("\n", sep, 2)
    with pytest.raises(FormatError):
        svc.parse_keystore(text)
    path = tmp_path / "keys.txt"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(FormatError):
        svc.read_keystore(path)



# ---------------------------------------------------------------------------
# hostile input to the two parsers that read untrusted bytes
# ---------------------------------------------------------------------------

_KEYSTORE_TEXT = "\n".join(_two_entries())


@settings(max_examples=300, deadline=None)
@given(edited_text(_KEYSTORE_TEXT))
def test_edited_keystore_parses_or_raises_a_typed_error(text):
    try:
        entries = svc.parse_keystore(text)
    except (FormatError, ParameterError, DimensionError):
        return
    for identity, entry in entries.items():
        assert entry.identity == identity
        assert entry.key.s1.shape == (entry.params.k,)


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=64))
def test_arbitrary_bytes_read_as_one_frame_or_a_typed_error(raw):
    sender, receiver = socket.socketpair()
    with sender, receiver:
        receiver.settimeout(5)
        sender.sendall(raw)
        sender.shutdown(socket.SHUT_WR)
        try:
            tag, payload = svc.read_frame(receiver)
        except svc.ServiceError:  # FramingError and OversizeError included
            return
    length = int.from_bytes(raw[1:5], "big")
    assert (tag, payload) == (raw[0], raw[5 : 5 + length])

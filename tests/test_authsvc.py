"""Framed wire protocol, keystore, and loopback handshakes."""

import socket
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from support import counted_packs, edited_lines, edited_text, protocol_params

from nlhb.gf2core import (
    DimensionError,
    FormatError,
    ParameterError,
    RandomSource,
    _block_text,
    _pack_hex,
    _unpack_hex,
    dump_bits,
    dump_matrix,
    load_matrix,
    read_entries,
)
from nlhb.nlfunc import DEFAULT_SPEC
from nlhb.protocols import (
    SecretKey,
    SessionTranscript,
    expected_response,
    format_transcript,
    generate_key,
    hb_params,
    nlhb_params,
    read_transcripts,
    respond,
    verify,
)
from nlhb import authsvc as svc, gf2core, protocols


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


def test_keystore_entries_are_written_byte_for_byte():
    hb = svc.KeystoreEntry("tag-hb", hb_params(8, 19, Fraction(1, 4), Fraction(87, 250)),
                           SecretKey(s1=np.array([1, 0, 1, 1, 0, 0, 0, 1], dtype=np.uint8)))
    plus = svc.KeystoreEntry("tag-plus", nlhb_params(4, 11, Fraction(1, 8), Fraction(1, 4), DEFAULT_SPEC, blinded=True),
                             SecretKey(s1=np.array([1, 1, 0, 1], dtype=np.uint8), s2=np.array([0, 0, 1, 0], dtype=np.uint8)))
    assert svc.format_keystore_entry(hb) == (
        "identity=tag-hb\nproto=hb\nk=8\nn=19\neps=1/4\nepsp=87/250\nspec=p=0; g=0\ns1=b1\n"
    )
    assert svc.format_keystore_entry(plus) == (
        "identity=tag-plus\nproto=nlhb+\nk=4\nn=11\neps=1/8\nepsp=1/4\n"
        "spec=p=3; g=x1x2+x1x3+x2x3\ns1=d0\ns2=20\n"
    )


def _one_entry_text():
    """One nlhb 16x259 entry for identity 'a' whose s1 holds a hex letter."""
    key = SecretKey(s1=np.array([1, 1, 1, 1, 0, 0, 0, 1] * 2, dtype=np.uint8))
    return svc.format_keystore_entry(svc.KeystoreEntry("a", _params(), key))


@pytest.mark.parametrize("old, new, written", [
    ("k=16", "k=016", "k=16"),
    ("k=16", "k=\u0661\u0666", "k=16"),
    ("k=16", "k=+16", "k=16"),
    ("n=259", "n=2_59", "n=259"),
    ("eps=1/4", "eps=0.25", "'0.25'"),
    ("eps=1/4", "eps=2/8", "eps=1/4"),
    ("eps=1/4", "eps=1e99999999", "'1e99999999'"),
    ("spec=p=3; g=x1x2+x1x3+x2x3", "spec= p = 3 ;g=x2x3+x1x2+x1x3", "spec=p=3; g=x1x2+x1x3+x2x3"),
    ("spec=p=3; g=x1x2+x1x3+x2x3", "spec=p=\u0663; g=x1x2+x1x3+x2x3", "spec"),
    ("s1=f1f1", "s1=f1f1\nzz=1", "zz=1 is not written"),
    ("s1=f1f1", "s1=f1f1\ns2=ffff", "s2=ffff is not written"),
    ("s1=f1f1", "s1=F1f1", "s1=f1f1"),
    ("k=16", "k= 16", "k= 16 is written k=16"),
    ("k=16", "k =16", "missing 'k'"),
    ("eps=1/4", "eps= 1/4", "eps= 1/4 is written eps=1/4"),
    ("proto=nlhb", "proto =nlhb", "missing 'proto'"),
    # a value that fails to decode is named with its field
    ("eps=1/4", "eps=0.25", "'a': eps=0.25: invalid literal"),
    ("epsp=87/250", "epsp=87/0", "'a': epsp=87/0: "),
    ("k=16", "k=x", "'a': k=x: invalid literal"),
    ("n=259", "n=", "'a': n=: invalid literal"),
    ("spec=p=3; g=x1x2+x1x3+x2x3", "spec=p=x", "'a': spec=p=x: "),
])
def test_keystore_spellings_other_than_the_written_one_are_refused(old, new, written):
    good = _one_entry_text()
    assert old + "\n" in good
    with pytest.raises(FormatError, match="keystore entry 'a'") as err:
        svc.parse_keystore(good.replace(old + "\n", new + "\n"))
    assert written in str(err.value)


def test_keystore_identity_is_read_as_written():
    text = _one_entry_text().replace("identity=a\n", "identity= a\n")
    (entry,) = svc.parse_keystore(text).values()
    assert entry.identity == " a"
    assert svc.format_keystore_entry(entry) == text


_IDENTITIES = st.text("abcXYZ019-_.=#\u00e9", min_size=1, max_size=8)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_IDENTITIES, protocol_params(), st.integers(0, 2**32)),
                min_size=1, max_size=4, unique_by=lambda drawn: drawn[0]))
def test_keystore_round_trips_through_text(drawn):
    entries = [svc.KeystoreEntry(identity, p, generate_key(p, RandomSource(seed))) for identity, p, seed in drawn]
    text = "\n".join(map(svc.format_keystore_entry, entries))
    back = svc.parse_keystore(text)
    assert "\n".join(map(svc.format_keystore_entry, back.values())) == text
    for entry in entries:
        got = back[entry.identity]
        assert got.params == entry.params
        assert np.array_equal(got.key.s1, entry.key.s1)
        assert (got.key.s2 is None) == (entry.key.s2 is None)
        assert got.key.s2 is None or np.array_equal(got.key.s2, entry.key.s2)


@settings(max_examples=200, deadline=None)
@given(st.text(" \t\r\n\x85=ab", max_size=6))
def test_keystore_identity_is_refused_or_read_back_as_written(identity):
    params = hb_params(4, 16, Fraction(1, 8), Fraction(1, 4))
    entry = svc.KeystoreEntry(identity, params, generate_key(params, RandomSource(6)))
    try:
        text = svc.format_keystore_entry(entry)
    except ParameterError:
        assert "\n" in identity or identity != identity.rstrip()
        return
    (back,) = svc.parse_keystore(text).values()
    assert back.identity == identity


@pytest.mark.parametrize("identity", ["a ", "a\nb", "a\r", "a\x85"])
def test_write_keystore_refuses_an_identity_before_opening_the_file(tmp_path, identity):
    params = hb_params(4, 16, Fraction(1, 8), Fraction(1, 4))
    entry = svc.KeystoreEntry(identity, params, generate_key(params, RandomSource(7)))
    with pytest.raises(ParameterError, match="identity"):
        svc.write_keystore(tmp_path / "keys.txt", [entry])
    assert not (tmp_path / "keys.txt").exists()


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


def test_serve_starts_the_service_once_and_with_stops_it(tmp_path):
    params = _params()
    entry = svc.KeystoreEntry("tag-01", params, generate_key(params, RandomSource(1)))
    path = str(tmp_path / "keys.txt")
    svc.write_keystore(path, [entry])
    with svc.serve(("127.0.0.1", 0), path, seed=3) as running:  # serve() already started it
        accepted, _ = svc.authenticate(running.address, "tag-01", entry.key, params,
                                       rng=RandomSource(4))
    assert accepted is True
    with pytest.raises(OSError):  # the listening socket is closed
        socket.create_connection(running.address, timeout=1).close()


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


def test_decision_frame_is_the_logged_decision_line(service):
    running, entry = service
    frames = []
    for key in (entry.key, generate_key(entry.params, RandomSource(17))):  # accepted, then rejected
        svc.authenticate(running.address, "tag-01", key, entry.params, rng=RandomSource(16), frame_log=frames)
    sent = [payload.decode("utf-8") for tag, payload in frames if tag == svc.DECISION]
    log = running.log_path.read_text(encoding="utf-8").splitlines()
    assert sent == [line[len("decision="):] for line in log if line.startswith("decision=")]
    assert [text.split()[0] for text in sent] == ["accept", "reject"]


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


def _odd_size_entries():
    """An hb 5x19 and an nlhb+ 3x23 entry: k*n is 95 and 69 bits, so the
    challenge and blinding payloads end in a masked byte."""
    eps, epsp = Fraction(1, 4), Fraction(348, 1000)
    params = [hb_params(5, 19, eps, epsp), nlhb_params(3, 23, eps, epsp, DEFAULT_SPEC, blinded=True)]
    return {
        p.proto: svc.KeystoreEntry(p.proto, p, generate_key(p, RandomSource(20 + j)))
        for j, p in enumerate(params)
    }


def test_odd_size_log_parses_and_reverifies(tmp_path):
    entries = _odd_size_entries()
    log_path = tmp_path / "sessions.log"
    with svc.AuthService(("127.0.0.1", 0), entries, seed=7, log_path=log_path) as running:
        for j, entry in enumerate(entries.values()):
            svc.authenticate(running.address, entry.identity, entry.key, entry.params,
                             rng=RandomSource(30 + j))
    logged = read_transcripts(str(log_path))
    assert [t.proto for t in logged] == list(entries)
    for t, entry in zip(logged, entries.values()):
        assert verify(t.params, entry.key, t.a, t.z, b=t.b) == (t.accepted, t.distance)


def test_handshake_packs_z_at_the_client_and_the_verify_operands_at_the_server(monkeypatch):
    # the server sends and logs A, and the client sends B, from the payload
    # their draw produced: the client packs only its response, and the
    # server's verify packs A, B (when blinded) and z again
    entries = _odd_size_entries()
    packed = counted_packs(monkeypatch)
    with svc.AuthService(("127.0.0.1", 0), entries, seed=8) as running:
        for j, entry in enumerate(entries.values()):
            svc.authenticate(running.address, entry.identity, entry.key, entry.params,
                             rng=RandomSource(40 + j))
        assert running.logged == 2
    want = []
    for entry in entries.values():
        p = entry.params
        want += [(p.d,), (p.k, p.n)] + [(p.k, p.n)] * p.blinded + [(p.d,)]
    assert packed == want


def _four_entries():
    """One entry of each protocol, at k and n that are not multiples of 8."""
    eps, epsp = Fraction(1, 4), Fraction(348, 1000)
    params = [hb_params(5, 19, eps, epsp), hb_params(5, 19, eps, epsp, blinded=True),
              nlhb_params(3, 23, eps, epsp, DEFAULT_SPEC),
              nlhb_params(3, 23, eps, epsp, DEFAULT_SPEC, blinded=True)]
    return [svc.KeystoreEntry(p.proto, p, generate_key(p, RandomSource(60 + j))) for j, p in enumerate(params)]


def test_client_frames_are_the_bit_path():
    # The client answers from the challenge payload; on the same seed, the
    # bit-array path draws the same B, reads the same A and sends the same z.
    entries = _four_entries()
    with svc.AuthService(("127.0.0.1", 0), {e.identity: e for e in entries}, seed=9) as running:
        for seed in (70, 71, 72):
            for entry in entries:
                params, frames = entry.params, []
                svc.authenticate(running.address, entry.identity, entry.key, params,
                                 rng=RandomSource(seed), frame_log=frames)
                sent = {tag: payload.decode("utf-8") for tag, payload in frames}
                rng, b = RandomSource(seed), None
                if params.blinded:
                    payload = rng._payload(params.k, params.n)
                    b = gf2core._unpack_payload(payload, (params.k, params.n))
                    assert sent[svc.BLIND] == _block_text("mat", (params.k, params.n), payload)
                else:
                    assert svc.BLIND not in sent
                z = respond(params, entry.key, load_matrix(sent[svc.CHALLENGE]), b, rng=rng)
                assert sent[svc.RESPONSE] == dump_bits(z)


def test_client_unpacks_no_matrix(monkeypatch):
    # B is drawn and A read as payloads, and z answered from them; the
    # server's own thread, which draws A and unpacks B, A and z, shows the
    # counters work
    entries, client, calls = _four_entries(), threading.get_ident(), []

    def counted(name, fn):
        def call(*args):
            calls.append((threading.get_ident() == client, name))
            return fn(*args)
        return call

    monkeypatch.setattr(RandomSource, "_payload", counted("_payload", RandomSource._payload))
    for module in (gf2core, protocols, svc):
        monkeypatch.setattr(module, "_unpack_payload", counted("_unpack_payload", module._unpack_payload))
    with svc.AuthService(("127.0.0.1", 0), {e.identity: e for e in entries}, seed=10) as running:
        for entry in entries:
            svc.authenticate(running.address, entry.identity, entry.key, entry.params, rng=RandomSource(73))
    assert [name for mine, name in calls if mine] == ["_payload"] * sum(e.params.blinded for e in entries)
    assert {name for mine, name in calls if not mine} == {"_payload", "_unpack_payload"}


@pytest.mark.parametrize("params, key, error", [
    (_params(), SecretKey(s1=np.zeros(15, np.uint8)), DimensionError),  # k = 16
    (_blinded_params(), SecretKey(s1=np.zeros(8, np.uint8)), ParameterError),  # no s2
], ids=["short-key", "one-part-key"])
def test_client_refuses_a_bad_key_before_connecting(params, key, error):
    with socket.create_server(("127.0.0.1", 0)) as listener:
        listener.settimeout(0.2)
        with pytest.raises(error):
            svc.authenticate(listener.getsockname(), "tag-01", key, params, rng=RandomSource(24), timeout=5)
        with pytest.raises(socket.timeout):  # no connection was made
            listener.accept()


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


def test_upper_case_hex_response_gets_error_frame(service):
    running, entry = service
    header, hexline = dump_bits(np.ones(entry.params.d, dtype=np.uint8)).split("\n")[:2]
    with socket.create_connection(running.address, timeout=5) as sock:
        sock.sendall(svc.encode_frame(svc.HELLO, b"tag-01"))
        svc.read_frame(sock)  # challenge
        sock.sendall(svc.encode_frame(svc.RESPONSE, ("%s\n%s\n" % (header, hexline.upper())).encode()))
        tag, message = svc.read_frame(sock)
        assert tag == svc.ERROR and b"upper-case" in message
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


def test_blind_with_non_decimal_dims_gets_error_frame(tmp_path):
    params = _blinded_params()
    entry = svc.KeystoreEntry("plus-07", params, generate_key(params, RandomSource(15)))
    with svc.AuthService(("127.0.0.1", 0), {"plus-07": entry}, seed=5) as running:
        with socket.create_connection(running.address, timeout=5) as sock:
            sock.sendall(svc.encode_frame(svc.HELLO, b"plus-07"))
            sock.sendall(svc.encode_frame(svc.BLIND, ("mat %d 0%d\n00\n" % (params.k, params.n)).encode()))
            tag, message = svc.read_frame(sock)
            assert tag == svc.ERROR and b"bad mat header" in message
        assert running.logged == 0


@pytest.mark.parametrize("hello", [b"\xff", b"tag-01\xff", b"\xef\xbf\xbd"])
def test_non_utf8_hello_gets_error_frame(hello):
    # "\ufffd" is the text a lossy decode of b"\xff" gives; it is a keystore identity here
    params = _params()
    entry = svc.KeystoreEntry("\ufffd", params, generate_key(params, RandomSource(16)))
    with svc.AuthService(("127.0.0.1", 0), {"\ufffd": entry}, seed=5) as running:
        with socket.create_connection(running.address, timeout=5) as sock:
            sock.sendall(svc.encode_frame(svc.HELLO, hello))
            tag, message = svc.read_frame(sock)
        if hello == "\ufffd".encode("utf-8"):
            assert tag == svc.CHALLENGE
        else:
            assert tag == svc.ERROR and b"UTF-8" in message
        assert running.logged == 0


def _decision_from_fake_server(decision: bytes):
    """What :func:`authenticate` makes of a DECISION payload, sent by a
    one-shot server that answers an honest HELLO and RESPONSE."""
    params = _params()
    key = generate_key(params, RandomSource(22))
    listener = socket.create_server(("127.0.0.1", 0))

    def serve_once():
        conn, _ = listener.accept()
        with conn:
            svc.read_frame(conn)  # HELLO
            conn.sendall(svc.encode_frame(svc.CHALLENGE, dump_matrix(np.zeros((params.k, params.n), np.uint8)).encode()))
            svc.read_frame(conn)  # RESPONSE
            conn.sendall(svc.encode_frame(svc.DECISION, decision))

    server = threading.Thread(target=serve_once, daemon=True)
    server.start()
    try:
        with listener:
            return svc.authenticate(listener.getsockname(), "tag-01", key, params, rng=RandomSource(23), timeout=5)
    finally:
        server.join(timeout=5)


@pytest.mark.parametrize("decision, outcome", [
    (b"accept distance=2", (True, 2)),
    (b"reject distance=70", (False, 70)),
    (b"accept distance=0", (True, 0)),
    (b"muted", (None, None)),
])
def test_client_reads_the_written_decision(decision, outcome):
    assert _decision_from_fake_server(decision) == outcome


@pytest.mark.parametrize("decision", [
    "accept foo=+\u0662".encode(), b"accept distance=02", b"reject x=7", b"accept distance=+2",
    b"accept  distance=2", b"accept distance=2 ", b"Accept distance=2", b"accept distance=", b"accept",
    b"decision=accept distance=2", b"muted ", b"\xff",
])
def test_client_refuses_any_other_decision(decision):
    with pytest.raises(svc.ServiceError, match="undecodable decision"):
        _decision_from_fake_server(decision)


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
@given(edited_lines(_KEYSTORE_TEXT, lambda line: not line.startswith(("s1=", "s2="))))
def test_edited_keystore_field_is_refused_or_written_back_as_edited(text):
    try:
        entries = svc.parse_keystore(text)
    except FormatError:
        return
    written = "\n".join(map(svc.format_keystore_entry, entries.values()))
    assert list(read_entries(written)) == list(read_entries(text))


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

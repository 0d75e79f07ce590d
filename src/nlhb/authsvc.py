"""Networked demo authentication: framed verifier service and prover client.

One handshake per TCP connection:

    client HELLO(identity) -> [client BLIND(B) if the protocol is blinded]
    -> server CHALLENGE(A) -> client RESPONSE(z) -> server DECISION

Frames are a 1-byte type tag plus a 32-bit big-endian payload length.
Payloads reuse the text serializations from :mod:`gf2core`, so sessions log
in exactly the transcript file format.  The verifier never sends secrets or
noise; only the prover ever adds noise.
"""

from __future__ import annotations

import socket
import socketserver
import threading
from dataclasses import dataclass

from .gf2core import (
    DimensionError,
    FormatError,
    ParameterError,
    RandomSource,
    as_bits,
    read_entries,
    read_text,
    _block_text,
    _load,
    _pack_hex,
    _unpack_hex,
    _unpack_payload,
)
from .protocols import (
    ProtocolParams,
    SecretKey,
    SessionTranscript,
    format_transcript,
    verify,
    _answer,
    _check_key,
    _decision_text,
    _param_fields,
    _params_from_fields,
    _parse_decision,
    _record,
)

HELLO, BLIND, CHALLENGE, RESPONSE, DECISION, ERROR = 1, 2, 3, 4, 5, 6
_TAG_NAMES = {1: "HELLO", 2: "BLIND", 3: "CHALLENGE", 4: "RESPONSE", 5: "DECISION", 6: "ERROR"}
MAX_PAYLOAD = 16 * 1024 * 1024


class ServiceError(Exception):
    """Transport- or handshake-level failure on the client side."""


class FramingError(ServiceError):
    """Stream ended mid-frame or carried an undecodable frame."""


class OversizeError(FramingError):
    """Declared payload length beyond the 16 MiB cap; the connection drops."""


class RemoteError(ServiceError):
    """The peer reported a protocol problem in an ERROR frame."""


# ---------------------------------------------------------------------------
# frame codec
# ---------------------------------------------------------------------------

def encode_frame(tag: int, payload: bytes) -> bytes:
    if tag not in _TAG_NAMES:
        raise ParameterError("unknown frame tag %d" % tag)
    if len(payload) > MAX_PAYLOAD:
        raise ParameterError("payload exceeds the 16 MiB frame limit")
    return bytes([tag]) + len(payload).to_bytes(4, "big") + payload


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        piece = sock.recv(min(remaining, 65536))
        if not piece:
            raise FramingError("connection closed mid-frame (%d bytes short)" % remaining)
        chunks.append(piece)
        remaining -= len(piece)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> tuple[int, bytes]:
    """Read one frame; oversize length fields abort the connection."""
    header = _recv_exact(sock, 5)
    tag = header[0]
    length = int.from_bytes(header[1:5], "big")
    if tag not in _TAG_NAMES:
        raise FramingError("unknown frame tag %d" % tag)
    if length > MAX_PAYLOAD:
        raise OversizeError("declared payload of %d bytes exceeds the 16 MiB limit" % length)
    return tag, _recv_exact(sock, length)


def _text(payload: bytes) -> str:
    """The UTF-8 text of a frame payload; other bytes are malformed input."""
    try:
        return payload.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError("payload is not UTF-8 text: %s" % exc) from None


def _send(sock: socket.socket, tag: int, payload: bytes, log=None) -> None:
    sock.sendall(encode_frame(tag, payload))
    if log is not None:
        log.append((tag, payload))


def _expect(sock: socket.socket, tag: int, log=None) -> bytes:
    got, payload = read_frame(sock)
    if log is not None:
        log.append((got, payload))
    if got == ERROR:
        raise RemoteError(payload.decode("utf-8", "replace"))
    if got != tag:
        raise ServiceError(
            "expected %s frame, got %s" % (_TAG_NAMES[tag], _TAG_NAMES[got])
        )
    return payload


# ---------------------------------------------------------------------------
# keystore
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KeystoreEntry:
    identity: str
    params: ProtocolParams
    key: SecretKey


def _entry_fields(entry: KeystoreEntry) -> dict[str, str]:
    """The ``key=value`` fields of an entry, in the order they are written."""
    fields = {"identity": entry.identity, **_param_fields(entry.params), "s1": _pack_hex(as_bits(entry.key.s1))}
    if entry.params.blinded:
        fields["s2"] = _pack_hex(as_bits(entry.key.s2))
    return fields


def format_keystore_entry(entry: KeystoreEntry) -> str:
    """The entry's text; an identity that the line rule would not read back
    (a newline, or trailing whitespace that ``str.strip`` removes) is refused."""
    if "\n" in entry.identity or entry.identity != entry.identity.rstrip():
        raise ParameterError("identity %r cannot be written as a keystore line" % entry.identity)
    return "".join("%s=%s\n" % field for field in _entry_fields(entry).items())


def write_keystore(path, entries) -> None:
    text = "\n".join(format_keystore_entry(e) for e in entries)  # refuses before the file opens
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(text)


def parse_keystore(text: str) -> dict[str, KeystoreEntry]:
    """Keystore entries by identity: :func:`gf2core.read_entries` entries exactly as written."""
    entries: dict[str, KeystoreEntry] = {}
    for fields in read_entries(text):
        if "identity" not in fields:
            raise FormatError("keystore entry missing 'identity'")
        identity = fields["identity"]
        try:
            params = _params_from_fields(fields)
            # decoded case-blind, so that an upper-case digit is refused below by its written spelling
            s1 = _unpack_hex(fields["s1"].lower(), params.k)
            s2 = _unpack_hex(fields["s2"].lower(), params.k) if params.blinded else None
        except KeyError as exc:
            raise FormatError("keystore entry %r: missing %s" % (identity, exc)) from None
        except FormatError as exc:
            raise FormatError("keystore entry %r: %s" % (identity, exc)) from None
        entry = KeystoreEntry(identity, params, SecretKey(s1=s1, s2=s2))
        written = _entry_fields(entry)
        if fields != written:
            name = next(name for name in fields if fields[name] != written.get(name))
            spelling = "written %s=%s" % (name, written[name]) if name in written else "not written"
            raise FormatError("keystore entry %r: %s=%s is %s" % (identity, name, fields[name], spelling))
        if identity in entries:
            raise FormatError("duplicate identity %r" % identity)
        entries[identity] = entry
    return entries


def read_keystore(path) -> dict[str, KeystoreEntry]:
    return parse_keystore(read_text(path, "keystore"))


# ---------------------------------------------------------------------------
# verifier service
# ---------------------------------------------------------------------------

class AuthService(socketserver.ThreadingTCPServer):
    """Threaded verifier bound to ``bind_address`` with a parsed keystore.

    Each connection runs one handshake on its own RandomSource derived from
    the service seed and a session counter, so transcripts reproduce exactly
    under an injected seed.  Accepted and rejected sessions append to the
    transcript log at ``log_path``, if any, and count in ``logged``; aborted
    handshakes log nothing.  The service keeps no transcript in memory.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        bind_address,
        keystore: dict[str, KeystoreEntry],
        *,
        seed: int = 0,
        mute_decisions: bool = False,
        log_path=None,
    ):
        self.keystore = dict(keystore)
        self.mute_decisions = mute_decisions
        self.log_path = log_path
        self.logged = 0
        self._root = RandomSource(seed)
        self._counter = 0
        self._lock = threading.Lock()
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        super().__init__(bind_address, None)  # no handler class: see finish_request

    @property
    def address(self) -> tuple[str, int]:
        return self.server_address

    def finish_request(self, request, client_address) -> None:
        self._handle(request)

    def start(self) -> "AuthService":
        if self._thread.ident is None:  # serve() starts the service it returns
            self._thread.start()
        return self

    def shutdown(self) -> None:
        if self._thread.is_alive():  # BaseServer.shutdown waits for serve_forever
            super().shutdown()
            self._thread.join(timeout=5)
        self.server_close()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.shutdown()

    def _session_rng(self) -> RandomSource:
        with self._lock:
            label = "session-%d" % self._counter
            self._counter += 1
        return self._root.derive(label)

    def _log(self, transcript: SessionTranscript) -> None:
        with self._lock:
            if self.log_path is not None:
                with open(self.log_path, "a", encoding="utf-8") as fp:
                    if self.logged:
                        fp.write("\n")
                    fp.write(format_transcript(transcript))
            self.logged += 1

    def _handle(self, sock: socket.socket) -> None:
        try:
            identity = _text(_expect(sock, HELLO))
            entry = self.keystore.get(identity)
            if entry is None:
                _send(sock, ERROR, b"unknown identity %s" % identity.encode())
                return
            params, key = entry.params, entry.key
            rng = self._session_rng()
            shape = (params.k, params.n)

            b = b_payload = None
            if params.blinded:
                b_payload = _load(_text(_expect(sock, BLIND)), "mat", shape)[0]
                b = _unpack_payload(b_payload, shape)

            a_payload = rng._payload(*shape)
            _send(sock, CHALLENGE, _block_text("mat", shape, a_payload).encode("utf-8"))
            z_payload = _load(_text(_expect(sock, RESPONSE)), "bits", (params.d,))[0]

            a = _unpack_payload(a_payload, shape)
            accepted, distance = verify(params, key, a, _unpack_payload(z_payload, (params.d,)), b=b)
            self._log(_record(params, b_payload, a_payload, z_payload, accepted, distance))
            decision = b"muted" if self.mute_decisions else _decision_text(accepted, distance).encode()
            _send(sock, DECISION, decision)
        except OversizeError:
            pass  # drop the connection without a reply
        except (FormatError, ServiceError, DimensionError, ParameterError) as exc:
            try:
                _send(sock, ERROR, str(exc).encode("utf-8"))
            except OSError:
                pass
        except OSError:
            pass
        finally:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass


def serve(bind_address, keystore_path, **kwargs) -> AuthService:
    """Construct and start a service for the keystore file; caller shuts down."""
    return AuthService(bind_address, read_keystore(keystore_path), **kwargs).start()


# ---------------------------------------------------------------------------
# prover client
# ---------------------------------------------------------------------------

def authenticate(
    server_address,
    identity: str,
    key: SecretKey,
    params: ProtocolParams,
    *,
    rng: RandomSource,
    timeout: float = 10.0,
    frame_log: list | None = None,
):
    """Run the prover half of the handshake; returns (accepted, distance).

    The key is checked before connecting, and z is answered from the
    payloads of B and A by :func:`protocols._answer`, as in a session.
    A muted server yields (None, None).  ERROR frames surface as
    :class:`RemoteError`; unreachable or silent servers as
    :class:`ServiceError` mentioning the timeout.
    """
    key = _check_key(params, key)
    shape = (params.k, params.n)
    try:
        with socket.create_connection(server_address, timeout=timeout) as sock:
            _send(sock, HELLO, identity.encode("utf-8"), frame_log)
            b = None
            if params.blinded:
                b = rng._payload(*shape)
                _send(sock, BLIND, _block_text("mat", shape, b).encode("utf-8"), frame_log)
            a = _load(_text(_expect(sock, CHALLENGE, frame_log)), "mat", shape)[0]
            noise = rng.bernoulli_bits(params.d, params.eps)
            z = _answer(params, key, a, b, noise)[0]
            _send(sock, RESPONSE, _block_text("bits", (params.d,), z).encode("utf-8"), frame_log)
            payload = _expect(sock, DECISION, frame_log)
    except socket.timeout as exc:
        raise ServiceError("timeout waiting for the server: %s" % exc) from exc
    except ConnectionError as exc:
        raise ServiceError("connection failed: %s" % exc) from exc

    if payload == b"muted":
        return None, None
    try:
        return _parse_decision(payload.decode("utf-8"))
    except ValueError:  # UnicodeDecodeError included
        raise ServiceError("undecodable decision %r" % payload) from None

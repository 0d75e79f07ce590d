"""Parallelized single-exchange HB-family sessions.

All four variants share one response/verify core:

- ``hb``     z = s.A + v
- ``hb+``    z = s1.B + s2.A + v          (prover-chosen blinding matrix B)
- ``nlhb``   z = f(s.A) + v
- ``nlhb+``  z = f(s1.B) + f(s2.A) + v

with v an i.i.d. Bernoulli(eps) noise vector chosen by the prover, and the
verifier accepting iff the response is within Hamming distance
u = floor(eps' * D) of the expected image.  The linear variants are the
p = 0, g = 0 degenerate case of the nonlinear ones and share every code
path, which the tests pin down bit-for-bit.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .gf2core import (
    FormatError,
    LineReader,
    ParameterError,
    RandomSource,
    as_bit_matrix,
    as_bits,
    read_payload,
    read_text,
    _block_text,
    _mat_vec_mul,
    _pack_payload,
    _unpack_payload,
)
from .nlfunc import (
    IDENTITY_SPEC,
    NonlinearFunctionSpec,
    _apply_f,
    format_spec,
    parse_spec,
)
from .params import threshold_u

PROTOCOLS = ("hb", "hb+", "nlhb", "nlhb+")


@dataclass(frozen=True)
class ProtocolParams:
    """Public parameters of one protocol instance.

    D and u are derived: D = n - p output bits, u = floor(eps' * D).
    """

    proto: str
    k: int
    n: int
    eps: Fraction
    eps_prime: Fraction
    spec: NonlinearFunctionSpec

    def __post_init__(self):
        if self.proto not in PROTOCOLS:
            raise ParameterError("unknown protocol %r" % self.proto)
        if self.k < 1 or self.n < 1:
            raise ParameterError("k and n must be positive")
        object.__setattr__(self, "eps", Fraction(self.eps))
        object.__setattr__(self, "eps_prime", Fraction(self.eps_prime))
        if not Fraction(0) < self.eps < self.eps_prime < Fraction(1, 2):
            raise ParameterError("need 0 < eps < eps' < 1/2")
        if self.proto in ("hb", "hb+") and (self.spec.p != 0 or self.spec.monomials):
            raise ParameterError("linear protocols require the identity response map")
        self.spec.output_length(self.n)  # raises if the window leaves no output

    @cached_property
    def d(self) -> int:
        return self.n - self.spec.p

    @cached_property
    def u(self) -> int:
        return threshold_u(self.eps_prime, self.d)

    @property
    def blinded(self) -> bool:
        return self.proto.endswith("+")

    @cached_property
    def _params_line(self) -> str:
        """The params line of a transcript record, formatted once per instance."""
        return "k=%d n=%d p=%d d=%d u=%d eps=%s epsp=%s g=%s" % (
            self.k,
            self.n,
            self.spec.p,
            self.d,
            self.u,
            self.eps,
            self.eps_prime,
            format_spec(self.spec).split("g=", 1)[1],
        )


def hb_params(k: int, n: int, eps, eps_prime, blinded: bool = False) -> ProtocolParams:
    return ProtocolParams("hb+" if blinded else "hb", k, n, eps, eps_prime, IDENTITY_SPEC)


def nlhb_params(
    k: int,
    n: int,
    eps,
    eps_prime,
    spec: NonlinearFunctionSpec,
    blinded: bool = False,
) -> ProtocolParams:
    return ProtocolParams("nlhb+" if blinded else "nlhb", k, n, eps, eps_prime, spec)


@dataclass(frozen=True)
class SecretKey:
    """s1 is the only secret for hb/nlhb; the blinded variants add s2.

    In the blinded variants s1 acts on the prover's blinding matrix B and
    s2 on the verifier's challenge A.
    """

    s1: np.ndarray
    s2: np.ndarray | None = None


def generate_key(params: ProtocolParams, rng: RandomSource) -> SecretKey:
    s1 = rng.uniform_bits(params.k)
    s2 = rng.uniform_bits(params.k) if params.blinded else None
    return SecretKey(s1=s1, s2=s2)


class SessionTranscript:
    """One session's record: the parameters, the blinding matrix B (blinded
    variants only, else None), the challenge A, the response z and the
    verifier's decision.

    B, A and z are held as their packed payloads (:mod:`nlhb.gf2core`), eight
    bits to a byte, so a paper-size record keeps ~19 KB per matrix, not
    ~149 KB.  ``b``, ``a`` and ``z`` unpack a fresh read-only uint8 array on
    each access; nothing caches it.  The constructor takes bit arrays and
    checks their shape and their 0/1 entries."""

    __slots__ = ("params", "_b", "_a", "_z", "accepted", "distance")

    def __init__(self, params: ProtocolParams, b, a, z, accepted: bool, distance: int):
        a, b = _check_matrices(params, a, b)
        z = as_bits(z, params.d)
        self._fill(params, b if b is None else _pack_payload(b), _pack_payload(a),
                   _pack_payload(z), accepted, distance)

    def _fill(self, params, b, a, z, accepted, distance) -> "SessionTranscript":
        self.params, self._b, self._a, self._z = params, b, a, z
        self.accepted, self.distance = accepted, distance
        return self

    @property
    def proto(self) -> str:
        return self.params.proto

    @property
    def b(self) -> np.ndarray | None:
        return None if self._b is None else _read_only(self._b, (self.params.k, self.params.n))

    @property
    def a(self) -> np.ndarray:
        return _read_only(self._a, (self.params.k, self.params.n))

    @property
    def z(self) -> np.ndarray:
        return _read_only(self._z, (self.params.d,))


def _record(params, b, a, z, accepted, distance) -> SessionTranscript:
    """A record of checked payloads, built without the constructor's checks."""
    return SessionTranscript.__new__(SessionTranscript)._fill(params, b, a, z, accepted, distance)


def _read_only(payload: bytes, shape: tuple) -> np.ndarray:
    bits = _unpack_payload(payload, shape)
    bits.flags.writeable = False
    return bits


# ---------------------------------------------------------------------------
# respond / verify
# ---------------------------------------------------------------------------

def _check_key(params: ProtocolParams, key: SecretKey) -> SecretKey:
    if params.blinded and key.s2 is None:
        raise ParameterError("%s requires a two-part key" % params.proto)
    s1 = as_bits(key.s1, params.k)
    return SecretKey(s1=s1, s2=as_bits(key.s2, params.k) if params.blinded else None)


def _check_matrices(params: ProtocolParams, a, b):
    """Validated (a, b) of one exchange; b is None when unblinded."""
    shape = (params.k, params.n)
    a = as_bit_matrix(a, shape)
    if params.blinded:
        if b is None:
            raise ParameterError("%s requires a blinding matrix" % params.proto)
        b = as_bit_matrix(b, shape)
    elif b is not None:
        raise ParameterError("%s has no blinding matrix" % params.proto)
    return a, b


def _check_exchange(params: ProtocolParams, key: SecretKey, a, b):
    """Validated (key, a, b) for one exchange; b is None when unblinded."""
    return (_check_key(params, key), *_check_matrices(params, a, b))


def _image(params: ProtocolParams, key: SecretKey, a, b) -> np.ndarray:
    """Noise-free response image for checked operands."""
    image = _apply_f(params.spec, _mat_vec_mul(key.s1, a if b is None else b))
    if b is not None:
        image ^= _apply_f(params.spec, _mat_vec_mul(key.s2, a))
    return image


def _decide(params: ProtocolParams, key: SecretKey, a, z, b) -> tuple[bool, int]:
    """Verifier decision for checked operands."""
    dist = int(np.count_nonzero(z != _image(params, key, a, b)))
    return dist <= params.u, dist


def expected_response(params: ProtocolParams, key: SecretKey, a, b=None) -> np.ndarray:
    """The noise-free response image for a given challenge (and blinding)."""
    return _image(params, *_check_exchange(params, key, a, b))


def respond(
    params: ProtocolParams,
    key: SecretKey,
    a,
    b=None,
    rng: RandomSource | None = None,
    noise=None,
) -> np.ndarray:
    """Prover response: expected image plus Bernoulli(eps) noise.

    Pass ``noise`` explicitly (test hook) or an ``rng`` to draw it.
    """
    key, a, b = _check_exchange(params, key, a, b)
    if noise is None:
        if rng is None:
            raise ParameterError("respond needs either an rng or an explicit noise vector")
        noise = rng.bernoulli_bits(params.d, params.eps)
    else:
        noise = as_bits(noise, params.d)
    return _image(params, key, a, b) ^ noise


def verify(params: ProtocolParams, key: SecretKey, a, z, b=None) -> tuple[bool, int]:
    """Verifier decision: (accepted, Hamming distance to the expected image)."""
    z = as_bits(z, params.d)
    key, a, b = _check_exchange(params, key, a, b)
    return _decide(params, key, a, z, b)


# ---------------------------------------------------------------------------
# sessions
# ---------------------------------------------------------------------------

def run_session(
    params: ProtocolParams,
    key: SecretKey,
    rng_prover: RandomSource,
    rng_verifier: RandomSource,
    noise=None,
) -> SessionTranscript:
    """One honest exchange.  Draw order: prover B (blinded variants only),
    verifier A, prover noise.

    The image is computed once: z = image ^ noise differs from the image
    exactly where the noise is 1, so the verifier's distance is the weight
    of the prover's noise, the same (accepted, distance) that :func:`verify`
    returns for the transcript."""
    key = _check_key(params, key)
    if noise is not None:
        noise = as_bits(noise, params.d)
    b, a, z, dist = _exchange(params, key, rng_prover, rng_verifier, noise)
    return _record(
        params,
        b if b is None else _pack_payload(b),
        _pack_payload(a),
        _pack_payload(z),
        dist <= params.u,
        dist,
    )


def _exchange(params, key, rng_prover, rng_verifier, noise=None):
    """The bit arrays (b, a, z) and the distance of :func:`run_session`, for
    a checked key and noise."""
    b = rng_prover.uniform_matrix(params.k, params.n) if params.blinded else None
    a = rng_verifier.uniform_matrix(params.k, params.n)
    if noise is None:
        noise = rng_prover.bernoulli_bits(params.d, params.eps)
    return b, a, _image(params, key, a, b) ^ noise, int(np.count_nonzero(noise))


def transcript_sampler(params, key, rng: RandomSource, count: int):
    """``count`` honest sessions driven by one stream (prover and verifier
    roles interleaved deterministically: B, A, noise per session)."""
    return [run_session(params, key, rng, rng) for _ in range(count)]


# ---------------------------------------------------------------------------
# transcript files
# ---------------------------------------------------------------------------

def format_transcript(t: SessionTranscript) -> str:
    shape = (t.params.k, t.params.n)
    return "proto=%s\n%s\n%s%s%sdecision=%s distance=%d\n" % (
        t.proto,
        t.params._params_line,
        "" if t._b is None else _block_text("mat", shape, t._b),
        _block_text("mat", shape, t._a),
        _block_text("bits", (t.params.d,), t._z),
        "accept" if t.accepted else "reject",
        t.distance,
    )


def write_transcripts(fp, transcripts) -> None:
    """Write records separated by blank lines to a path or text file object."""
    if isinstance(fp, (str, bytes, os.PathLike)):
        with open(fp, "w", encoding="utf-8") as handle:
            write_transcripts(handle, transcripts)
            return
    fp.write("\n".join(format_transcript(t) for t in transcripts))


def _expect_kv(token: str, key: str, line: int) -> str:
    if "=" not in token:
        raise FormatError("expected %s=<value>, got %r" % (key, token), line)
    name, value = token.split("=", 1)
    if name != key:
        raise FormatError("expected key %r, got %r" % (key, name), line)
    return value


def _parse_params(proto: str, line_text: str, line: int) -> ProtocolParams:
    fields = {}
    for token in line_text.split():
        if "=" not in token:
            raise FormatError("bad params token %r" % token, line)
        name, value = token.split("=", 1)
        if name in fields:
            raise FormatError("params field %r repeated" % name, line)
        fields[name] = value
    try:
        k = int(fields["k"])
        n = int(fields["n"])
        p = int(fields["p"])
        d = int(fields["d"])
        u = int(fields["u"])
        eps = Fraction(fields["eps"])
        epsp = Fraction(fields["epsp"])
        g = fields["g"]
    except KeyError as exc:
        raise FormatError("params line missing %s" % exc, line) from None
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError("bad params value: %s" % exc, line) from None
    try:
        params = ProtocolParams(proto, k, n, eps, epsp, parse_spec("p=%d; g=%s" % (p, g)))
    except ValueError as exc:  # a bad spec, or params outside their domain
        raise FormatError(str(exc), line) from None
    if params.d != d or params.u != u:
        raise FormatError(
            "stated d=%d u=%d disagree with derived d=%d u=%d" % (d, u, params.d, params.u),
            line,
        )
    return params


def read_transcripts(fp) -> list[SessionTranscript]:
    """Parse a transcript file back into records (inverse of write_transcripts)."""
    if isinstance(fp, (str, bytes, os.PathLike)):
        return transcripts_from_text(read_text(fp, "transcript file"))
    try:
        text = fp.read()
    except UnicodeDecodeError as exc:
        raise FormatError("undecodable transcript text: %s" % exc) from None
    return transcripts_from_text(text)


def transcripts_from_text(text: str) -> list[SessionTranscript]:
    r"""Parse transcript text held in memory (see :func:`read_transcripts`).

    Lines follow the :mod:`nlhb.gf2core` line rule: they end at ``\n`` only."""
    reader = LineReader(text)
    records = []
    parsed = {}  # each distinct (proto, params line) is parsed once
    for first in reader:
        line = reader.number
        proto = _expect_kv(first, "proto", line)
        if proto not in PROTOCOLS:
            raise FormatError("unknown protocol %r" % proto, line)
        params_text = next(reader, None)
        pline = reader.number
        if params_text is None:
            raise FormatError("missing params line", pline)
        params = parsed.get((proto, params_text))
        if params is None:
            params = parsed[proto, params_text] = _parse_params(proto, params_text, pline)
        shape = (params.k, params.n)
        b = read_payload(reader, "mat", shape)[0] if params.blinded else None
        a = read_payload(reader, "mat", shape)[0]
        z = read_payload(reader, "bits", (params.d,))[0]
        decision_text = next(reader, None)
        dline = reader.number
        if decision_text is None:
            raise FormatError("missing decision line", dline)
        tokens = decision_text.split()
        if len(tokens) != 2:
            raise FormatError("bad decision line %r" % decision_text, dline)
        decision = _expect_kv(tokens[0], "decision", dline)
        if decision not in ("accept", "reject"):
            raise FormatError("decision must be accept or reject", dline)
        distance_text = _expect_kv(tokens[1], "distance", dline)
        try:
            distance = int(distance_text)
        except ValueError:
            raise FormatError("bad distance %r" % distance_text, dline) from None
        if not 0 <= distance <= params.d:
            raise FormatError("distance %d outside 0..D" % distance, dline)
        if (distance <= params.u) != (decision == "accept"):
            raise FormatError("decision disagrees with distance and threshold", dline)
        records.append(_record(params, b, a, z, decision == "accept", distance))
    return records


def transcripts_to_text(transcripts) -> str:
    buf = io.StringIO()
    write_transcripts(buf, transcripts)
    return buf.getvalue()

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

import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, partial

import numpy as np

from .gf2core import (
    DimensionError,
    FormatError,
    LineReader,
    ParameterError,
    RandomSource,
    as_bit_matrix,
    as_bits,
    read_payload,
    read_text,
    _block_pieces,
    _bits_int,
    _decimal,
    _int_bits,
    _int_payload,
    _mat_vec_mul,
    _pack_payload,
    _payload_mat_vec_mul,
    _selected_masks,
    _unpack_payload,
)
from .nlfunc import (
    IDENTITY_SPEC,
    NonlinearFunctionSpec,
    _apply_f_int,
    format_spec,
    parse_spec,
)
from .params import check_rates, threshold_u

PROTOCOLS = ("hb", "hb+", "nlhb", "nlhb+")


def response_map(proto: str, spec: NonlinearFunctionSpec | None) -> NonlinearFunctionSpec | None:
    """The map ``proto`` answers through, given ``spec`` or None: hb and hb+
    take only the identity map, their default; nlhb and nlhb+ take ``spec``."""
    if proto in ("hb", "hb+"):
        if spec is None:
            return IDENTITY_SPEC
        if spec.p != 0 or spec.monomials:
            raise ParameterError("linear protocols take only the identity response map")
    return spec


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
        eps, eps_prime = check_rates(self.eps, self.eps_prime)
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "eps_prime", eps_prime)
        response_map(self.proto, self.spec)
        self.spec.output_length(self.n)  # raises if the window leaves no output

    @cached_property
    def d(self) -> int:
        return self.n - self.spec.p

    @cached_property
    def u(self) -> int:
        return threshold_u(self.eps_prime, self.d)

    @cached_property
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

    A key checks its parts when built: each is a 1-D array of 0/1 entries,
    held as a read-only uint8 copy, so a later change to the caller's array
    leaves the key as it was.  It also keeps the payload masks of its parts
    (:meth:`_payload_masks`) for the last n it multiplied payloads at.
    """

    s1: np.ndarray
    s2: np.ndarray | None = None
    _masks: list = field(default_factory=lambda: [None], init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "s1", _held_bits(self.s1))
        if self.s2 is not None:
            object.__setattr__(self, "s2", _held_bits(self.s2))

    def _payload_masks(self, n: int) -> tuple[np.ndarray, np.ndarray | None]:
        """:func:`gf2core._selected_masks` of s1 and of s2 (None without s2)
        at width n, built on first use and kept until n changes.  The slot is
        replaced whole, so threads that share a key at worst build them twice."""
        held = self._masks[0]
        if held is None or held[0] != n:
            held = (n, _selected_masks(self.s1, n),
                    None if self.s2 is None else _selected_masks(self.s2, n))
            self._masks[0] = held
        return held[1:]


def _held_bits(values) -> np.ndarray:
    """A read-only copy of ``values`` as checked bits."""
    bits = as_bits(values).copy()
    bits.flags.writeable = False
    return bits


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
    """``key`` for ``params``.  The key checked its bits when it was built, so
    this checks the length of each part the protocol uses; an unblinded
    protocol never reads a stray s2."""
    if params.blinded and key.s2 is None:
        raise ParameterError("%s requires a two-part key" % params.proto)
    for part in (key.s1, key.s2) if params.blinded else (key.s1,):
        if part.shape[0] != params.k:
            raise DimensionError("expected a key part of length %d, got %d bits"
                                 % (params.k, part.shape[0]))
    return key


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


def _image(params: ProtocolParams, key: SecretKey, a, b, n: int | None = None) -> int:
    """Noise-free response image for checked operands, as the int of its d
    bits (:func:`gf2core._bits_int`).  The matrices are bit arrays, or with
    ``n`` the payloads of (k, n) matrices, which the key's payload masks
    multiply."""
    if n is None:
        parts, product = (key.s1, key.s2), _bits_product
    else:
        parts, product = key._payload_masks(n), partial(_payload_mat_vec_mul, n=n)
    spec, width = params.spec, params.n
    image = _apply_f_int(spec, product(parts[0], a if b is None else b), width)
    if b is not None:
        image ^= _apply_f_int(spec, product(parts[1], a), width)
    return image


def _bits_product(s: np.ndarray, a: np.ndarray) -> int:
    """s.A of checked bit operands, as an int."""
    return _bits_int(_mat_vec_mul(s, a))


def _decide(params: ProtocolParams, key: SecretKey, a, z, b) -> tuple[bool, int]:
    """Verifier decision for checked operands."""
    dist = (_image(params, key, a, b) ^ _bits_int(z)).bit_count()
    return dist <= params.u, dist


def _expected(params: ProtocolParams, key: SecretKey, a, b) -> np.ndarray:
    """The noise-free response image for checked bit operands, as d bits."""
    return _int_bits(_image(params, key, a, b), params.d)


def expected_response(params: ProtocolParams, key: SecretKey, a, b=None) -> np.ndarray:
    """The noise-free response image for a given challenge (and blinding)."""
    return _expected(params, *_check_exchange(params, key, a, b))


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
    if noise is not None:
        return _expected(params, key, a, b) ^ as_bits(noise, params.d)
    if rng is None:
        raise ParameterError("respond needs either an rng or an explicit noise vector")
    return _respond(params, key, a, b, rng)


def _respond(params: ProtocolParams, key: SecretKey, a, b, rng: RandomSource) -> np.ndarray:
    """The honest prover's answer for checked bit operands: the image plus
    Bernoulli(eps) noise drawn from ``rng``."""
    return _expected(params, key, a, b) ^ rng.bernoulli_bits(params.d, params.eps)


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
    returns for the transcript.  B and A are drawn as payloads
    (:meth:`RandomSource._payload`) and answered by :func:`_answer`, so no
    matrix is unpacked.  The demo client answers a challenge payload by the
    same step; callers that hold bits answer through :func:`_respond`."""
    key = _check_key(params, key)
    if noise is not None:
        noise = as_bits(noise, params.d)
    b = rng_prover._payload(params.k, params.n) if params.blinded else None
    a = rng_verifier._payload(params.k, params.n)
    if noise is None:
        noise = rng_prover.bernoulli_bits(params.d, params.eps)
    z, dist = _answer(params, key, a, b, noise)
    return _record(params, b if b is None else b.tobytes(), a.tobytes(), z, dist <= params.u, dist)


def _answer(params: ProtocolParams, key: SecretKey, a, b, noise: np.ndarray) -> tuple[bytes, int]:
    """z's payload and the noise weight, for a checked key, the uint8
    payloads of A and B (None when unblinded) and checked noise bits.  The
    image is an int of the payloads (:func:`_image`), and the noise is packed once."""
    noise = int.from_bytes(_pack_payload(noise), "big")  # the d bits, then the zero pad
    image = _image(params, key, a, b, params.n)
    return _int_payload(image ^ (noise >> (-params.d % 8)), params.d), noise.bit_count()


def transcript_sampler(params, key, rng: RandomSource, count: int):
    """``count`` honest sessions driven by one stream (prover and verifier
    roles interleaved deterministically: B, A, noise per session)."""
    return [run_session(params, key, rng, rng) for _ in range(count)]


# ---------------------------------------------------------------------------
# transcript files
# ---------------------------------------------------------------------------

def format_transcript(t: SessionTranscript) -> str:
    return transcripts_to_text((t,))


def write_transcripts(fp, transcripts) -> None:
    """Write records separated by blank lines to a path or text file object."""
    if isinstance(fp, (str, bytes, os.PathLike)):
        with open(fp, "w", encoding="utf-8") as handle:
            return write_transcripts(handle, transcripts)
    fp.write(transcripts_to_text(transcripts))


def _param_fields(params: ProtocolParams) -> dict[str, str]:
    """The written spelling of each field of ``params``, as a keystore entry holds it."""
    return {"proto": params.proto, "k": str(params.k), "n": str(params.n),
            "eps": str(params.eps), "epsp": str(params.eps_prime), "spec": format_spec(params.spec)}


def _params_from_fields(fields: dict[str, str]) -> ProtocolParams:
    """The params whose :func:`_param_fields` ``fields`` holds; a field
    missing, a bad value or any other spelling is a :class:`FormatError`."""
    try:
        params = ProtocolParams(
            fields["proto"], *(_decoded(fields, name) for name in ("k", "n", "eps", "epsp", "spec")))
    except KeyError as exc:
        raise FormatError("missing %s" % exc) from None
    except ValueError as exc:  # a field's own FormatError, or params outside their domain
        raise FormatError(str(exc)) from None
    for name, text in _param_fields(params).items():
        if fields[name] != text:
            raise FormatError("%s=%s is written %s=%s" % (name, fields[name], name, text))
    return params


def _ratio(text: str) -> Fraction:
    """An ``int/int`` or ``int`` field as a Fraction."""
    return Fraction(*map(int, text.split("/", 1)))


_DECODERS = {"k": int, "n": int, "eps": _ratio, "epsp": _ratio, "spec": parse_spec}


def _decoded(fields: dict[str, str], name: str):
    """The value of field ``name``; one its decoder refuses is a
    :class:`FormatError` that names the field as written."""
    text = fields[name]
    try:
        return _DECODERS[name](text)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError("%s=%s: %s" % (name, text, exc)) from None


@lru_cache(maxsize=64)
def _cached_params(proto: str, line_text: str) -> ProtocolParams:
    """:func:`_parse_params`, run once per cached line; errors are not cached."""
    return _parse_params(proto, line_text)


def _parse_params(proto: str, line_text: str) -> ProtocolParams:
    """The params of a params line, which must be their :attr:`ProtocolParams._params_line`."""
    fields = {"proto": proto}
    for token in line_text.split():
        name, _, value = token.partition("=")
        if name in fields:
            raise FormatError("params field %r repeated" % name)
        fields[name] = value
    if "p" not in fields or "g" not in fields:
        raise FormatError("params line missing p or g")
    fields["spec"] = "p=%s; g=%s" % (fields["p"], fields["g"])
    params = _params_from_fields(fields)
    if params._params_line != line_text:
        raise FormatError("params line disagrees with the written %r" % params._params_line)
    return params


def _decision_text(accepted: bool, distance: int) -> str:
    """A decision as the service sends it and a transcript records it after
    ``decision=``: ``accept|reject distance=N``, read by :func:`_parse_decision`."""
    return "%s distance=%d" % ("accept" if accepted else "reject", distance)


def _parse_decision(text: str, prefix: str = "") -> tuple[bool, int]:
    """The (accepted, distance) of a decision as the service sends it,
    ``accept|reject distance=N``, after ``prefix``; else a ValueError."""
    word, sep, number = text.partition(" distance=")
    if not sep or word not in (prefix + "accept", prefix + "reject"):
        raise ValueError("expected %saccept|reject distance=N, got %r" % (prefix, text))
    return word == prefix + "accept", _decimal(number)


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
    for first in reader:
        line = reader.number
        name, _, proto = first.partition("=")
        if name != "proto" or proto not in PROTOCOLS:
            raise FormatError("expected proto=%s, got %r" % ("|".join(PROTOCOLS), first), line)
        params_text = next(reader, None)
        pline = reader.number
        if params_text is None:
            raise FormatError("missing params line", pline)
        try:
            params = _cached_params(proto, params_text)
        except FormatError as exc:
            raise FormatError(str(exc), pline) from None
        shape = (params.k, params.n)
        b = read_payload(reader, "mat", shape)[0] if params.blinded else None
        a = read_payload(reader, "mat", shape)[0]
        z = read_payload(reader, "bits", (params.d,))[0]
        decision_text = next(reader, None)
        dline = reader.number
        if decision_text is None:
            raise FormatError("missing decision line", dline)
        try:
            accepted, distance = _parse_decision(decision_text, "decision=")
        except ValueError as exc:
            raise FormatError(str(exc), dline) from None
        if distance > params.d:
            raise FormatError("distance %d outside 0..D" % distance, dline)
        if (distance <= params.u) != accepted:
            raise FormatError("decision disagrees with distance and threshold", dline)
        records.append(_record(params, b, a, z, accepted, distance))
    return records


def transcripts_to_text(transcripts) -> str:
    """The records' text, blank-line separated; one join copies each hex once."""
    out: list[str] = []
    for t in transcripts:
        shape = (t.params.k, t.params.n)
        out.append("%sproto=%s\n%s\n" % ("\n" if out else "", t.proto, t.params._params_line))
        if t._b is not None:
            out += _block_pieces("mat", shape, t._b)
        out += _block_pieces("mat", shape, t._a)
        out += _block_pieces("bits", (t.params.d,), t._z)
        out.append("decision=%s\n" % _decision_text(t.accepted, t.distance))
    return "".join(out)

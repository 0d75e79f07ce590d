r"""Dense GF(2) vectors and matrices, seeded randomness, and hex serialization.

Bit vectors and matrices are plain numpy ``uint8`` arrays with entries in
{0, 1}; a length-n vector models the row vector (x_1, ..., x_n) and a k-by-n
matrix models k such rows.  Protocol-level notation is 1-based (x_1 is the
first bit); numpy indexing is 0-based, so x_j lives at index j-1.  Functions
here never mutate their inputs.

Serialized form is a header line ``bits <len>`` or ``mat <rows> <cols>``
followed by one line of lowercase hex that spells the array's *payload*.
The payload layout is defined here, by :func:`_pack_payload` and
:func:`_unpack_payload`, and nowhere else: the bits row-major, the most
significant bit of the first byte holding index 1, zero-padded at the end to
a whole byte.  Transcript records hold their matrices and responses as
payloads (:class:`nlhb.protocols.SessionTranscript`).

Line rule of these forms and of transcript, keystore and ``--config`` text
(:class:`LineReader`): a line ends at ``\n`` and nothing else, each line is
stripped of surrounding whitespace, and blank lines are skipped.  So ``\r\n``
endings parse, but a lone ``\r``, ``\x0b``, ``\x0c``, ``\x85`` or ``\u2028``
is not a line break.  A hex payload holds hex digits only: whitespace inside
it is an error.
"""

from __future__ import annotations

import binascii
import hashlib
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np


class ParameterError(ValueError):
    """A parameter is outside its documented domain."""


class DimensionError(ValueError):
    """Operand shapes do not satisfy an operation's contract."""


class FormatError(ValueError):
    """Malformed serialized input; carries a line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


class SingularSystemError(ValueError):
    """Linear solve failed; ``reason`` is 'rank_deficient' or 'inconsistent'."""

    def __init__(self, reason: str):
        if reason not in ("rank_deficient", "inconsistent"):
            raise ValueError("unknown singularity reason %r" % reason)
        self.reason = reason
        super().__init__("singular system: %s" % reason)


# ---------------------------------------------------------------------------
# array helpers
# ---------------------------------------------------------------------------

def as_bits(values, length: int | None = None) -> np.ndarray:
    """Coerce a sequence/array of 0-1 values to a 1-D uint8 bit vector, of
    ``length`` bits when a length is given."""
    v = np.asarray(values, dtype=np.uint8)
    if v.ndim != 1:
        raise DimensionError("expected a 1-D bit vector, got shape %r" % (v.shape,))
    if length is not None and v.shape[0] != length:
        raise DimensionError("expected a bit vector of length %d, got %d bits" % (length, v.shape[0]))
    if v.size and v.max() > 1:
        raise ParameterError("bit vector entries must be 0 or 1")
    return v


def as_bit_matrix(values, shape: tuple[int, int] | None = None) -> np.ndarray:
    """Coerce a nested sequence/array of 0-1 values to a 2-D uint8 matrix, of
    the (rows, cols) ``shape`` when a shape is given."""
    m = np.asarray(values, dtype=np.uint8)
    if m.ndim != 2:
        raise DimensionError("expected a 2-D bit matrix, got shape %r" % (m.shape,))
    if shape is not None and m.shape != shape:
        raise DimensionError("expected a bit matrix of shape %r, got %r" % (shape, m.shape))
    if m.size and m.max() > 1:
        raise ParameterError("bit matrix entries must be 0 or 1")
    return m


def mat_vec_mul(s, a) -> np.ndarray:
    """Row-vector times matrix over GF(2): returns s.A of length n.

    Args:
        s: bit vector of length k.
        a: bit matrix of shape (k, n).
    """
    a = as_bit_matrix(a)
    return _mat_vec_mul(as_bits(s, a.shape[0]), a)


def _mat_vec_mul(s: np.ndarray, a: np.ndarray) -> np.ndarray:
    """:func:`mat_vec_mul` for operands already checked: XOR of the rows of A
    that s selects."""
    return np.bitwise_xor.reduce(a[s.view(bool)], axis=0)


def key_table(a) -> np.ndarray:
    """s.A for every key s, in :func:`all_bit_vectors` row order.

    Equals the GF(2) product ``all_bit_vectors(k) . A`` without materializing
    the keys: the table doubles once per key bit,
    ``out[h:2h] = out[:h] ^ A[k-1-j]`` for h = 2**j (the 2**k-row table of the
    Method of Four Russians).  The (2**k, n) result is the only allocation.
    """
    a = as_bit_matrix(a)
    k = a.shape[0]
    check_enumerable(k)
    out = np.empty((1 << k, a.shape[1]), dtype=np.uint8)
    out[0] = 0
    for j in range(k):
        h = 1 << j
        np.bitwise_xor(out[:h], a[k - 1 - j], out=out[h : 2 * h])
    return out


def hamming(a, b) -> int:
    """Hamming distance between two equal-length bit vectors."""
    a = as_bits(a)
    b = as_bits(b, a.shape[0])
    return int(np.count_nonzero(a != b))


def _packed_rows(m: np.ndarray):
    """Each row of a bit matrix as a Python int, index 1 most significant,
    zero-padded at the low end to a whole byte.  Rows convert as they are
    consumed, so a scan that stops early converts no more."""
    return (int.from_bytes(row.tobytes(), "big") for row in np.packbits(m, axis=1))


def _xor_basis(vectors, floor: int = 0):
    """One incremental GF(2) elimination over packed rows.

    Reduces each int in turn against the basis built so far, one vector per
    leading bit, and yields (index, remainder).  A remainder with a bit at
    position ``floor`` or above joins the basis; the bits below ``floor`` are
    carried along but never pivoted on, so callers can tag rows with them.
    """
    basis: dict[int, int] = {}
    for j, v in enumerate(vectors):
        while v >> floor:
            lead = v.bit_length()
            pivot = basis.get(lead)
            if pivot is None:
                basis[lead] = v
                break
            v ^= pivot
        yield j, v


def gf2_rank(a) -> int:
    """Rank of a bit matrix over GF(2)."""
    return sum(1 for _, v in _xor_basis(_packed_rows(as_bit_matrix(a))) if v)


def gaussian_solve(a, z) -> np.ndarray:
    """Solve s.A = z for s over GF(2).

    Args:
        a: bit matrix of shape (k, m) with m >= k.
        z: bit vector of length m.

    Returns:
        The unique solution s of length k.

    Raises:
        SingularSystemError: with reason ``inconsistent`` when no s satisfies
            the system, or ``rank_deficient`` when solutions exist but are
            not unique (rank(A) < k).  The reason, like the solution, does
            not depend on the pivot order.
    """
    a = as_bit_matrix(a)
    k, m = a.shape
    z = as_bits(z, m)
    if m < k:
        raise DimensionError("need at least k=%d equations, got %d" % (k, m))

    # Row i of A carries the tag bit 1 << (k-1-i) below its coefficients, so
    # what is left of z after the elimination tags the rows that sum to it.
    rows = [v << k | 1 << (k - 1 - i) for i, v in enumerate(_packed_rows(a))]
    rows += [v << k for v in _packed_rows(z[None, :])]
    *reduced, (_, rest) = _xor_basis(rows, floor=k)
    if rest >> k:
        raise SingularSystemError("inconsistent")
    if sum(1 for _, v in reduced if v >> k) < k:
        raise SingularSystemError("rank_deficient")
    return np.array([rest >> (k - 1 - i) & 1 for i in range(k)], dtype=np.uint8)


def check_enumerable(k: int) -> None:
    """Raise unless a 2**k-row enumeration of keys is in the supported range."""
    if not 0 <= k <= 26:
        raise ParameterError("k=%d out of supported range 0..26 for exhaustive enumeration" % k)


def all_bit_vectors(k: int) -> np.ndarray:
    """All 2**k bit vectors of length k, one per row, in integer order.

    Row r spells the binary expansion of r with index 1 as the most
    significant bit, matching the serialization bit order.
    """
    check_enumerable(k)
    return code_rows(np.arange(1 << k), k)


def code_rows(codes, width: int) -> np.ndarray:
    """Bit rows of the given integer codes, inverse of :func:`row_codes`:
    row r spells codes[r] in ``width`` bits, index 1 most significant."""
    codes = np.asarray(codes, dtype=np.uint64)
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    return ((codes[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.uint8)


def row_codes(m) -> np.ndarray:
    """Pack each row of a bit matrix (cols <= 64) into a uint64 code.

    Index 1 is the most significant bit of the code, consistent with
    :func:`all_bit_vectors`.
    """
    m = as_bit_matrix(m)
    cols = m.shape[1]
    if cols > 64:
        raise ParameterError("row_codes supports at most 64 columns, got %d" % cols)
    pows = (np.uint64(1) << np.arange(cols - 1, -1, -1, dtype=np.uint64))
    return m.astype(np.uint64) @ pows


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _pack_payload(bits: np.ndarray) -> bytes:
    """The payload of a checked bit vector or matrix (see the module docstring)."""
    return np.packbits(bits).tobytes()


def _unpack_payload(payload: bytes, shape: tuple) -> np.ndarray:
    """The fresh bit array of the given ``shape`` that a checked payload encodes."""
    nbits = math.prod(shape)
    # Unpack every byte, then copy out the first nbits.  Unpacking with
    # ``count=nbits`` and no copy replayed ~3% faster, but it raised the
    # benchmark's ``drivers`` peak RSS from 55.6 to 61.5 MB (medians, higher
    # in 5 of 5 alternated pairs; numpy 2.4.6, 2 shared cores).
    return np.unpackbits(np.frombuffer(payload, dtype=np.uint8))[:nbits].copy().reshape(shape)


def _hex_payload(hexline: str, nbits: int, line: int | None = None) -> bytes:
    """The payload that a hex line of ``nbits`` bits spells, after checking its
    digits, its length and its zero padding."""
    try:
        raw = binascii.a2b_hex(hexline)
    except ValueError:  # binascii.Error, or a non-ASCII character
        if len(hexline.split()) > 1:
            raise FormatError("whitespace inside hex payload", line) from None
        if len(hexline) % 2 != 0:
            raise FormatError("odd-length hex payload", line) from None
        raise FormatError("junk characters in hex payload", line) from None
    expected = (nbits + 7) // 8
    if len(raw) != expected:
        raise FormatError(
            "hex payload is %d bytes, expected %d for %d bits" % (len(raw), expected, nbits),
            line,
        )
    if nbits % 8 and raw[-1] & (0xFF >> nbits % 8):
        raise FormatError("nonzero padding bits past the end of the payload", line)
    return raw


def _pack_hex(bits: np.ndarray) -> str:
    return _pack_payload(bits).hex()


def _unpack_hex(hexline: str, nbits: int, line: int | None = None) -> np.ndarray:
    return _unpack_payload(_hex_payload(hexline, nbits, line), (nbits,))


def _block_text(want: str, dims: tuple, payload: bytes) -> str:
    """The two-line ``bits``/``mat`` form of a payload of the given dims."""
    return "%s %s\n%s\n" % (want, " ".join(map(str, dims)), payload.hex())


def dump_bits(v) -> str:
    """Serialize a bit vector to the two-line ``bits <len>`` text form."""
    v = as_bits(v)
    return _block_text("bits", v.shape, _pack_payload(v))


def dump_matrix(m) -> str:
    """Serialize a bit matrix to the two-line ``mat <rows> <cols>`` text form."""
    m = as_bit_matrix(m)
    return _block_text("mat", m.shape, _pack_payload(m))


class LineReader:
    """The non-blank lines of a text, stripped, under the module's line rule.

    Iterating yields each line in turn; ``number`` is the 1-based number of
    the last line read, blank ones included, or of the last line of the
    text once it is exhausted.  Lines are sliced out one at a time, so no
    copy of the whole text is made.
    """

    __slots__ = ("text", "pos", "number")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.number = 0

    def __iter__(self):
        return self

    def __next__(self) -> str:
        text, pos = self.text, self.pos
        while pos < len(text):
            end = text.find("\n", pos)
            if end < 0:
                end = len(text)
            self.number += 1
            line = text[pos:end].strip()
            pos = end + 1
            if line:
                self.pos = pos
                return line
        self.pos = pos
        raise StopIteration


def read_payload(reader: LineReader, want: str, shape: tuple | None = None) -> tuple[bytes, tuple]:
    """The (payload, dims) of the next block in ``reader``: a ``bits <len>``
    or ``mat <rows> <cols>`` header as ``want`` names, of the given ``shape``
    if one is given, then its hex line.

    An absent hex line reads as empty, which only a 0-bit payload passes."""
    header = next(reader, None)
    line = reader.number
    if header is None:
        raise FormatError("unexpected end of text, expected a %s block" % want, line)
    name, *fields = header.split()
    try:
        dims = tuple(map(int, fields))
    except ValueError:
        dims = ()
    if name != want or len(dims) != (1 if want == "bits" else 2) or min(dims) < 0:
        raise FormatError("bad %s header %r" % (want, header), line)
    if shape is not None and dims != shape:
        expected = " ".join(map(str, (want,) + shape))
        raise FormatError("expected %s, got %r" % (expected, header), line)
    hexline = next(reader, "")
    return _hex_payload(hexline, math.prod(dims), reader.number), dims


def _load(text: str, want: str, shape: tuple | None) -> np.ndarray:
    """The one block of the two-line ``bits``/``mat`` form."""
    reader = LineReader(text)
    value = _unpack_payload(*read_payload(reader, want, shape))
    if next(reader, None) is not None:
        raise FormatError("expected header plus one hex line", reader.number)
    return value


def load_bits(text: str, length: int | None = None) -> np.ndarray:
    """Parse the two-line ``bits`` form back into a vector (round-trips dump_bits),
    of ``length`` bits when a length is given."""
    return _load(text, "bits", None if length is None else (length,))


def load_matrix(text: str, shape: tuple[int, int] | None = None) -> np.ndarray:
    """Parse the two-line ``mat`` form back into a matrix (round-trips dump_matrix),
    of the (rows, cols) ``shape`` when a shape is given."""
    return _load(text, "mat", shape)


def read_entries(text: str):
    """The ``key=value`` entries of keystore and ``--config`` text, as dicts of
    stripped keys and values.  A blank line ends an entry and ``#`` lines are
    comments; a line without ``=`` or a key repeated within one entry is a
    :class:`FormatError`."""
    reader = LineReader(text)
    entry: dict[str, str] = {}
    last = 0
    for raw in reader:
        if reader.number > last + 1 and entry:  # a blank line was skipped
            yield entry
            entry = {}
        last = reader.number
        if raw.startswith("#"):
            continue
        key, sep, value = raw.partition("=")
        if not sep:
            raise FormatError("expected key=value, got %r" % raw, last)
        key = key.strip()
        if key in entry:
            raise FormatError("field %r repeated within one entry" % key, last)
        entry[key] = value.strip()
    if entry:
        yield entry


def read_text(path, what: str) -> str:
    """The text of a UTF-8 file with its line endings as written, for the line
    rule to split; other bytes are a :class:`FormatError` naming ``what``."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fp:
            return fp.read()
    except UnicodeDecodeError as exc:
        raise FormatError("%s is not UTF-8 text: %s" % (what, exc)) from None


# ---------------------------------------------------------------------------
# randomness
# ---------------------------------------------------------------------------

class RandomSource:
    """Deterministic random stream for all protocol and attack sampling.

    A single PCG64 stream per source: uniform bits, Bernoulli bits and
    derived child sources are all functions of the 64-bit seed, so a run is
    reproducible bit-for-bit from its seed.  Every draw consumes raw PCG64
    output words (``random_raw``), the same words numpy's
    ``Generator.integers(0, 2**64, dtype=uint64)`` returns for that seed.

    Bernoulli sampling is exact for rational eps: each bit consumes one
    64-bit uniform word compared against floor(eps * 2**64), and the
    boundary case (probability 2**-64 per bit) is resolved by further
    draws on the residual fraction, never by float rounding.
    """

    def __init__(self, seed: int):
        seed = int(seed)
        if not 0 <= seed < (1 << 64):
            raise ParameterError("seed must be a 64-bit unsigned integer")
        self.seed = seed
        self._bits = np.random.PCG64(seed)

    def __repr__(self):
        return "RandomSource(seed=%d)" % self.seed

    def u64(self, count: int) -> np.ndarray:
        """Draw ``count`` uniform 64-bit words."""
        return self._bits.random_raw(count)

    def uniform_bits(self, length: int) -> np.ndarray:
        """Draw a uniform bit vector of the given length."""
        if length < 0:
            raise ParameterError("length must be nonnegative")
        if length == 0:
            return np.zeros(0, dtype=np.uint8)
        words = self.u64((length + 63) // 64)
        return np.unpackbits(words.astype(">u8").view(np.uint8), count=length)

    def uniform_matrix(self, rows: int, cols: int) -> np.ndarray:
        """Draw a uniform bit matrix of shape (rows, cols)."""
        if rows < 0 or cols < 0:
            raise ParameterError("matrix shape must be nonnegative, got (%d, %d)" % (rows, cols))
        return self.uniform_bits(rows * cols).reshape(rows, cols)

    def bernoulli_bits(self, length: int, eps) -> np.ndarray:
        """Draw ``length`` i.i.d. Bernoulli(eps) bits for rational 0 < eps < 1/2."""
        threshold, residual, den = _bernoulli_threshold(eps)
        if length < 0:
            raise ParameterError("length must be nonnegative")
        u = self.u64(length)
        bits = (u < threshold).astype(np.uint8)
        for idx in np.nonzero(u == threshold)[0]:
            bits[idx] = self._bernoulli_residual(residual, den)
        return bits

    def _bernoulli_residual(self, num: int, den: int) -> int:
        # Continue the base-2**64 expansion of the probability until a draw
        # falls strictly above or below the next digit.
        while num:
            threshold, num = divmod(num << 64, den)
            v = int(self.u64(1)[0])
            if v < threshold:
                return 1
            if v > threshold:
                return 0
        return 0

    def derive(self, label: str) -> "RandomSource":
        """Return an independent child source keyed by this seed and a label."""
        return RandomSource(derive_seed(self.seed, label))


@lru_cache(maxsize=64)
def _bernoulli_threshold(eps):
    """(floor(eps * 2**64) as a uint64, the remainder, eps's denominator)."""
    eps = Fraction(eps)
    if not 0 < eps < Fraction(1, 2):
        raise ParameterError("eps must satisfy 0 < eps < 1/2, got %s" % eps)
    threshold, residual = divmod(eps.numerator << 64, eps.denominator)
    return np.uint64(threshold), residual, eps.denominator


def derive_seed(seed: int, label: str | bytes) -> int:
    """The 64-bit child seed of ``seed`` for ``label`` (see :meth:`RandomSource.derive`);
    a str label stands for its UTF-8 bytes."""
    if isinstance(label, str):
        label = label.encode("utf-8")
    digest = hashlib.blake2b(int(seed).to_bytes(8, "big") + label, digest_size=8).digest()
    return int.from_bytes(digest, "big")

r"""Dense GF(2) vectors and matrices, seeded randomness, and hex serialization.

Bit vectors and matrices are plain numpy ``uint8`` arrays with entries in
{0, 1}; a length-n vector models the row vector (x_1, ..., x_n) and a k-by-n
matrix models k such rows.  Protocol-level notation is 1-based (x_1 is the
first bit); numpy indexing is 0-based, so x_j lives at index j-1.  Functions
here never mutate their inputs.

Serialized form is a header line ``bits <len>`` or ``mat <rows> <cols>``
followed by one line of lowercase hex that spells the array's *payload*.
The payload layout is defined here, by :func:`_pack_payload` and
:func:`_unpack_payload`: the bits row-major, the most significant bit of the
first byte holding index 1, zero-padded at the end to a whole byte.  Its one
other producer is :meth:`RandomSource._payload`, bound to them by
``test_draw_payload_is_the_packed_bits``; transcript records hold payloads.
A payload is also read as a big-endian int: a vector's payload less its pad
is the int whose most significant of len bits is index 1 (:func:`_bits_int`,
:func:`_int_bits` and :func:`_int_payload` convert), the form one exchange's
image takes.  A (k, n) payload holds eight whole rows in each n bytes, so
:func:`_payload_mat_vec_mul` computes s.A from it, as that int, without
unpacking A.
A block's text is three pieces, its header line, hex and newline
(:func:`_block_pieces`), so a writer joins each hex into its text once.
Integers there and in a decision are ASCII decimal (:func:`_decimal`).

Line rule of these forms and of transcript, keystore and ``--config`` text
(:class:`LineReader`): a line ends at ``\n`` and nothing else, each line is
stripped of surrounding whitespace, and blank lines are skipped.  So ``\r\n``
endings parse, but a lone ``\r``, ``\x0b``, ``\x0c``, ``\x85`` or ``\u2028``
is not a line break.  A hex payload holds lower-case hex digits only:
whitespace or an upper-case digit inside it is an error.
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
    v = _array(values, 1, "bit vector")
    if length is not None and v.shape[0] != length:
        raise DimensionError("expected a bit vector of length %d, got %d bits" % (length, v.shape[0]))
    return _bits_uint8(v, "bit vector")


def as_bit_matrix(values, shape: tuple[int, int] | None = None) -> np.ndarray:
    """Coerce a nested sequence/array of 0-1 values to a 2-D uint8 matrix, of
    the (rows, cols) ``shape`` when a shape is given."""
    m = _array(values, 2, "bit matrix")
    if shape is not None and m.shape != shape:
        raise DimensionError("expected a bit matrix of shape %r, got %r" % (shape, m.shape))
    return _bits_uint8(m, "bit matrix")


def _array(values, ndim: int, what: str) -> np.ndarray:
    """``values`` as an ``ndim``-D array; ragged nesting is a DimensionError."""
    try:
        v = np.asarray(values)
    except ValueError as exc:
        raise DimensionError("ragged %s: %s" % (what, exc)) from None
    if v.ndim != ndim:
        raise DimensionError("expected a %d-D %s, got shape %r" % (ndim, what, v.shape))
    return v


def _bits_uint8(v: np.ndarray, what: str) -> np.ndarray:
    """``v`` as uint8, refusing any entry that is not 0 or 1 rather than
    letting the cast wrap, truncate or fail on it.  A uint8 array takes one
    pass, for its maximum."""
    if v.dtype == np.uint8:
        if v.size and v.max() > 1:
            raise ParameterError("%s entries must be 0 or 1" % what)
        return v
    if v.dtype.kind not in "biuf" or not ((v == 0) | (v == 1)).all():
        raise ParameterError("%s entries must be 0 or 1" % what)
    return v.astype(np.uint8)


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


def _payload_mat_vec_mul(masks: np.ndarray, payload: np.ndarray, n: int) -> int:
    """:func:`_mat_vec_mul` of checked bits s and the (len(s), n) matrix whose
    payload is the uint8 array ``payload``, as the int of its n bits
    (:func:`_bits_int`), without unpacking the matrix; ``masks`` is
    :func:`_selected_masks` of s at width n.

    Byte block j of the payload (bytes j*n ... j*n+n-1) holds rows 8j ... 8j+7,
    row c of the block at its bits c*n ... c*n+n-1.  Each block is ANDed with
    mask row j, which keeps the rows that s selects in it, and the masked
    blocks are XORed into n bytes.  Read big-endian, those are an 8n-bit int
    with row 0 on top, and three halvings fold its eight n-bit rows into one.
    """
    if payload.size < masks.size:  # a partial last block reads as zero-extended
        payload = np.concatenate((payload, np.zeros(masks.size - payload.size, dtype=np.uint8)))
    blocks = np.bitwise_and(masks, payload.reshape(-1, n))
    v = int.from_bytes(np.bitwise_xor.reduce(blocks, axis=0).tobytes(), "big")
    half4, half2, half1 = _fold_masks(n)
    v = (v >> 4 * n) ^ (v & half4)
    v = (v >> 2 * n) ^ (v & half2)
    return (v >> n) ^ (v & half1)


@lru_cache(maxsize=8)
def _fold_masks(n: int) -> tuple[int, int, int]:
    """The masks of the low 4n, 2n and n bits, which keep the lower half at
    each halving of :func:`_payload_mat_vec_mul`."""
    return tuple((1 << w) - 1 for w in (4 * n, 2 * n, n))


def _selected_masks(s: np.ndarray, n: int) -> np.ndarray:
    """The (ceil(len(s)/8), n) masks of checked bits s at width n: row j
    keeps the rows of payload block j that s selects, as the packed bits
    s[8j], ..., s[8j+7] (zero past the end of s) each repeated n times.
    Read-only, as a key keeps them for every later product."""
    bits = np.zeros(-(-s.size // 8) * 8, dtype=np.uint8)
    bits[: s.size] = s
    masks = np.packbits(np.repeat(bits, n).reshape(bits.size // 8, 8 * n), axis=1)
    masks.flags.writeable = False
    return masks


def key_table(a) -> np.ndarray:
    """s.A for every key s, in :func:`all_bit_vectors` row order.

    Equals the GF(2) product ``all_bit_vectors(k) . A`` without materializing
    the keys: the table doubles once per key bit,
    ``out[h:2h] = out[:h] ^ A[k-1-j]`` for h = 2**j (the 2**k-row table of the
    Method of Four Russians).  The (2**k, n) result is the only allocation.
    """
    a = as_bit_matrix(a)
    k, n = a.shape
    check_enumerable(k, n)
    out = np.empty((1 << k, n), dtype=np.uint8)
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


# Bytes one enumeration, or the draws of one command, may hold: 2^28 (256 MiB) holds 450
# of the paper's 512 x 1164 challenges as uint8, and keeps numpy from being asked for gigabytes.
MAX_HELD_BYTES = 1 << 28


def check_held(rows: int, row_bytes: int) -> None:
    """Raise unless ``rows`` rows of ``row_bytes`` bytes each fit in :data:`MAX_HELD_BYTES`."""
    if rows * row_bytes > MAX_HELD_BYTES:
        raise ParameterError("%d rows of %d bytes exceeds the %d-byte limit" % (rows, row_bytes, MAX_HELD_BYTES))


def check_enumerable(width: int, row_bytes: int) -> None:
    """Raise unless 2**width rows, of the ``row_bytes`` bytes each that an
    enumeration holds at its peak, are in range and pass :func:`check_held`."""
    if not 0 <= width <= 26:  # first: it bounds the shift
        raise ParameterError("width=%d out of supported range 0..26 for enumeration" % width)
    check_held(1 << width, row_bytes)


def all_bit_vectors(k: int) -> np.ndarray:
    """All 2**k bit vectors of length k, one per row, in integer order.

    Row r spells the binary expansion of r with index 1 as the most
    significant bit, matching the serialization bit order.
    """
    check_enumerable(k, 8 + 8 * -(-k // 8))  # a uint64 code and its unpacked bytes
    return code_rows(np.arange(1 << k, dtype=np.uint64), k)


def code_rows(codes, width: int) -> np.ndarray:
    """Bit rows of the given integer codes, inverse of :func:`row_codes`:
    row r spells codes[r] in ``width`` (at most 64) bits, index 1 most significant.

    One byte per output bit: the last ceil(width/8) of each code's big-endian
    bytes (a reversed view of its little-endian ones) are unpacked, and the
    rows are a view that skips the leading pad bits."""
    nbytes = -(-width // 8)
    big_endian = np.ascontiguousarray(codes, dtype="<u8").view(np.uint8).reshape(-1, 8)[:, ::-1]
    return np.unpackbits(big_endian[:, 8 - nbytes :], axis=1)[:, 8 * nbytes - width :]


def row_codes(m) -> np.ndarray:
    """Pack each row of a bit matrix (cols <= 64) into a uint64 code.

    Index 1 is the most significant bit of the code, consistent with
    :func:`all_bit_vectors`.  Each row is packed into the low bytes of an
    8-byte big-endian word, and the pad bits are shifted off.
    """
    m = as_bit_matrix(m)
    rows, cols = m.shape
    if cols > 64:
        raise ParameterError("row_codes supports at most 64 columns, got %d" % cols)
    nbytes = -(-cols // 8)
    words = np.zeros((rows, 8), dtype=np.uint8)
    words[:, 8 - nbytes :] = np.packbits(m, axis=1)
    return words.view(">u8")[:, 0] >> np.uint64(8 * nbytes - cols)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _pack_payload(bits: np.ndarray) -> bytes:
    """The payload of a checked bit vector or matrix (see the module docstring)."""
    return np.packbits(bits).tobytes()


def _unpack_payload(payload: bytes, shape: tuple) -> np.ndarray:
    """The fresh bit array of the given ``shape`` that a checked payload encodes."""
    nbits = math.prod(shape)
    # Unpack every byte, then copy out the first nbits.  Over 6 alternated
    # ``sessions`` pairs (numpy 2.4.6, 2 shared cores), ``count=nbits`` with no
    # copy replayed at 6,516/s against 6,319 (higher in 5), a gap inside the
    # 6,144-6,490 IQR, with ``sessions_per_s`` 15,070 vs 14,920 (higher in 3)
    # and peak RSS 53.8 vs 54.1 MB; no gain is shown.  The copy also keeps the
    # heap warm: the freed full-length temporary is what keeps each 149 KB
    # matrix off a fresh mmap.  Counting ``ru_minflt`` per replay batch, this
    # form took no minor fault in 93% of 526 batches, best replay 1,955/s; the
    # ``count=`` form without the copy took ~2,150 minor faults in every batch,
    # best replay 1,354/s.  So the copy stays.
    return np.unpackbits(np.frombuffer(payload, dtype=np.uint8))[:nbits].copy().reshape(shape)


def _bits_int(bits: np.ndarray) -> int:
    """A checked bit vector as an int: its payload read big-endian, less the
    zero pad, so index 1 is the most significant of len(bits) bits."""
    return int.from_bytes(np.packbits(bits).tobytes(), "big") >> (-bits.shape[0] % 8)


def _int_payload(value: int, nbits: int) -> bytes:
    """The payload of the ``nbits``-bit vector whose :func:`_bits_int` is ``value``."""
    return (value << (-nbits % 8)).to_bytes((nbits + 7) // 8, "big")


def _int_bits(value: int, nbits: int) -> np.ndarray:
    """The fresh ``nbits``-bit vector whose :func:`_bits_int` is ``value``."""
    return np.unpackbits(np.frombuffer(_int_payload(value, nbits), dtype=np.uint8), count=nbits)


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
    # a2b_hex takes upper case.  On a paper-size 37,344-digit line these six searches took
    # 2.5 us, a2b_hex 24.5 us (best of 5 x 2,000, Python 3.11.7, 2 shared cores).
    if ("A" in hexline or "B" in hexline or "C" in hexline
            or "D" in hexline or "E" in hexline or "F" in hexline):
        raise FormatError("upper-case digit in hex payload", line)
    expected = (nbits + 7) // 8
    if len(raw) != expected:
        raise FormatError(
            "hex payload is %d bytes, expected %d for %d bits" % (len(raw), expected, nbits),
            line,
        )
    if nbits % 8 and raw[-1] & (0xFF >> nbits % 8):
        raise FormatError("nonzero padding bits past the end of the payload", line)
    return raw


def _decimal(text: str) -> int:
    """``text`` as an int if it spells ``0`` or ``[1-9][0-9]*``, else a ValueError."""
    if not (text.isascii() and text.isdigit()) or (text[0] == "0" and len(text) > 1):
        raise ValueError("not an ASCII decimal integer: %r" % text)
    return int(text)


def _pack_hex(bits: np.ndarray) -> str:
    return _pack_payload(bits).hex()


def _unpack_hex(hexline: str, nbits: int) -> np.ndarray:
    return _unpack_payload(_hex_payload(hexline, nbits), (nbits,))


def _block_pieces(want: str, dims: tuple, payload: bytes) -> tuple[str, str, str]:
    """The pieces of a block's text: its header line, its hex and a newline."""
    return "%s %s\n" % (want, " ".join(map(str, dims))), payload.hex(), "\n"


def _block_text(want: str, dims: tuple, payload: bytes) -> str:
    """The two-line ``bits``/``mat`` form of a payload of the given dims."""
    return "".join(_block_pieces(want, dims, payload))


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
        dims = tuple(map(_decimal, fields))
    except ValueError:
        dims = ()
    if name != want or len(dims) != (1 if want == "bits" else 2):
        raise FormatError("bad %s header %r" % (want, header), line)
    if shape is not None and dims != shape:
        expected = " ".join(map(str, (want,) + shape))
        raise FormatError("expected %s, got %r" % (expected, header), line)
    hexline = next(reader, "")
    return _hex_payload(hexline, math.prod(dims), reader.number), dims


def _load(text: str, want: str, shape: tuple | None) -> tuple[bytes, tuple]:
    """The (payload, dims) of the one block of the two-line ``bits``/``mat``
    form, as :func:`read_payload` checks it; nothing is unpacked."""
    reader = LineReader(text)
    block = read_payload(reader, want, shape)
    if next(reader, None) is not None:
        raise FormatError("expected header plus one hex line", reader.number)
    return block


def load_bits(text: str) -> np.ndarray:
    """Parse the two-line ``bits`` form back into a vector (round-trips dump_bits)."""
    return _unpack_payload(*_load(text, "bits", None))


def load_matrix(text: str) -> np.ndarray:
    """Parse the two-line ``mat`` form back into a matrix (round-trips dump_matrix);
    the service and its client read a frame's matrix as its payload (:func:`_load`)."""
    return _unpack_payload(*_load(text, "mat", None))


def read_entries(text: str):
    """The ``key=value`` entries of keystore and ``--config`` text, as dicts of
    keys and values as written, split at the first ``=``.  A blank line ends
    an entry and ``#`` lines are comments; a line without ``=`` or a key
    repeated within one entry is a :class:`FormatError`."""
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
        if key in entry:
            raise FormatError("field %r repeated within one entry" % key, last)
        entry[key] = value
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
    Uniform bits are the words' big-endian bits; :meth:`_payload` hands them
    out as a payload and :meth:`_bits_and_payload` unpacked as well, never
    repacked.

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
        return self._bits_and_payload(1, length)[0][0]

    def uniform_matrix(self, rows: int, cols: int) -> np.ndarray:
        """Draw a uniform bit matrix of shape (rows, cols)."""
        return self._bits_and_payload(rows, cols)[0]

    def _bits_and_payload(self, rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
        """A uniform (rows, cols) bit matrix and its payload, of one
        :meth:`_payload` draw."""
        payload = self._payload(rows, cols)
        return np.unpackbits(payload, count=rows * cols).reshape(rows, cols), payload

    def _payload(self, rows: int, cols: int) -> np.ndarray:
        """The payload of a uniform (rows, cols) bit matrix as a uint8 array:
        the big-endian bytes of ceil(rows*cols / 64) words, pad bits zero."""
        if rows < 0 or cols < 0:
            raise ParameterError("matrix shape must be nonnegative, got (%d, %d)" % (rows, cols))
        nbits = rows * cols
        raw = self.u64((nbits + 63) // 64).astype(">u8").view(np.uint8)
        if nbits % 8:
            raw[nbits // 8] &= (0xFF00 >> nbits % 8) & 0xFF
        return raw[: (nbits + 7) // 8]

    def bernoulli_bits(self, length: int, eps) -> np.ndarray:
        """Draw ``length`` i.i.d. Bernoulli(eps) bits for rational 0 < eps < 1/2."""
        if type(eps) is not Fraction:
            eps = Fraction(eps)
        threshold, residual = _bernoulli_threshold(eps.numerator, eps.denominator)
        if length < 0:
            raise ParameterError("length must be nonnegative")
        u = self.u64(length)
        bits = (u < threshold).view(np.uint8)
        if residual:  # else a tie is a 0, as u < threshold reads it
            for idx in np.flatnonzero(u == threshold):
                bits[idx] = self._bernoulli_residual(residual, eps.denominator)
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
def _bernoulli_threshold(numerator: int, denominator: int):
    """(floor(eps * 2**64) as a uint64, the remainder) for eps = numerator /
    denominator in lowest terms.  Keyed on the two ints: hashing a Fraction
    costs more than the rest of a draw's setup."""
    if not 0 < 2 * numerator < denominator:
        raise ParameterError("eps must satisfy 0 < eps < 1/2, got %s" % Fraction(numerator, denominator))
    threshold, residual = divmod(numerator << 64, denominator)
    return np.uint64(threshold), residual


def derive_seed(seed: int, label: str | bytes) -> int:
    """The 64-bit child seed of ``seed`` for ``label`` (see :meth:`RandomSource.derive`);
    a str label stands for its UTF-8 bytes."""
    if isinstance(label, str):
        label = label.encode("utf-8")
    digest = hashlib.blake2b(int(seed).to_bytes(8, "big") + label, digest_size=8).digest()
    return int.from_bytes(digest, "big")

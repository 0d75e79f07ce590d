"""Measurement, operand and reference helpers shared by the unit and
acceptance suites.

These deliberately sit outside the package: they peek at planted secrets to
strip noise, which no attack or protocol code is allowed to do, or they are
references that only tests compare against (``lf2_merge`` for the streamed
lf2 merge, ``finite_transcript_source`` for a source that runs dry).
"""

from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from nlhb import gf2core, protocols
from nlhb.attacks import _buckets
from nlhb.gf2core import ParameterError, as_bit_matrix, as_bits
from nlhb.nlfunc import DEFAULT_SPEC, IDENTITY_SPEC, NonlinearFunctionSpec, apply_f_batch


def operand(rng, rows, cols, layout):
    """A (rows, cols) bit matrix in the requested memory layout."""
    if layout == "transposed":
        return rng.uniform_matrix(cols, rows).T
    if layout == "strided":
        return rng.uniform_matrix(rows, 2 * cols)[:, ::2]
    return rng.uniform_matrix(rows, cols)


def counted_packs(monkeypatch) -> list:
    """The shapes of the arrays that ``_pack_payload`` packs from now on, as
    ``gf2core`` (``dump_bits``, ``dump_matrix``, ``_pack_hex``) and
    ``protocols`` call it."""
    shapes = []
    pack = gf2core._pack_payload

    def counted(bits):
        shapes.append(bits.shape)
        return pack(bits)

    monkeypatch.setattr(gf2core, "_pack_payload", counted)
    monkeypatch.setattr(protocols, "_pack_payload", counted)
    return shapes


layouts_st = st.sampled_from(["contiguous", "transposed", "strided"])

_NONLINEAR_SPECS = (DEFAULT_SPEC, NonlinearFunctionSpec(2, ((1, 2),)),
                    NonlinearFunctionSpec(4, ((1, 4), (2, 3, 4))))


@st.composite
def protocol_params(draw):
    """Params of any of the four protocols at k <= 12 and D <= 40, with
    eps < eps' drawn from the multiples of 1/2000 below 1/2."""
    proto = draw(st.sampled_from(protocols.PROTOCOLS))
    spec = IDENTITY_SPEC if proto.startswith("hb") else draw(st.sampled_from(_NONLINEAR_SPECS))
    eps = draw(st.integers(1, 998))
    epsp = draw(st.integers(eps + 1, 999))
    return protocols.ProtocolParams(proto, draw(st.integers(1, 12)), spec.p + draw(st.integers(1, 40)),
                                    Fraction(eps, 2000), Fraction(epsp, 2000), spec)

# Characters a hostile edit draws from: hex digits, ASCII and Unicode
# whitespace the line rule does not treat as a line break, a non-ASCII
# letter, and the one line break.
HOSTILE_CHARS = "0123456789abcdef \t\r\x0b\x0c\x85\u2028\u00e9\n"


@st.composite
def edited_text(draw, text, max_edits=4, alphabet=HOSTILE_CHARS):
    """``text`` after one to ``max_edits`` random edits: each inserts, replaces
    or deletes a character at a random position, drawing from ``alphabet``."""
    chars = list(text)
    for _ in range(draw(st.integers(1, max_edits))):
        pos = draw(st.integers(0, len(chars)))
        op = draw(st.sampled_from(["insert", "replace", "delete"]))
        if op == "insert":
            chars.insert(pos, draw(st.sampled_from(alphabet)))
        elif pos < len(chars):
            if op == "replace":
                chars[pos] = draw(st.sampled_from(alphabet))
            else:
                del chars[pos]
    return "".join(chars)


# What a field edit draws from besides HOSTILE_CHARS: the punctuation and
# letters that field values are spelled with, an upper-case hex digit and a
# non-ASCII digit.
FIELD_CHARS = HOSTILE_CHARS + "+-./;=_Fgpx\u0664"


@st.composite
def edited_lines(draw, text, chosen):
    """``text`` after one :func:`edited_text` edit, drawn from FIELD_CHARS, to
    one of the lines (split at ``\\n``) that the predicate ``chosen`` picks;
    every other line stays as it was."""
    lines = text.split("\n")
    index = draw(st.sampled_from([i for i, line in enumerate(lines) if chosen(line)]))
    lines[index] = draw(edited_text(lines[index], max_edits=1, alphabet=FIELD_CHARS))
    return "\n".join(lines)


def measured_merge_distribution(spec, rng, samples, k=6, n=None, j=None):
    """Empirical law of the p+1 response bits disturbed by one column merge.

    Plants a nonzero key, then for each sample XORs a fresh random source
    column into challenge column j and records which of the outputs
    j-p .. j changed (noise-free on both sides, so the difference is purely
    the merge effect).  Returns {outcome tuple: relative frequency}.
    """
    p = spec.p
    if n is None:
        n = 2 * p + 3
    if j is None:
        j = p + 1
    key = rng.uniform_bits(k)
    while not key.any():
        key = rng.uniform_bits(k)

    a = rng.uniform_matrix(samples * k, n).reshape(samples, k, n)
    src = rng.uniform_matrix(samples, k)
    x = ((key[None, :, None] * a).sum(axis=1) & 1).astype(np.uint8)
    flip = ((src * key[None, :]).sum(axis=1) & 1).astype(np.uint8)
    x2 = x.copy()
    x2[:, j - 1] ^= flip

    err = (apply_f_batch(spec, x) ^ apply_f_batch(spec, x2))[:, j - p - 1 : j]
    outcomes, counts = np.unique(err, axis=0, return_counts=True)
    return {
        tuple(int(b) for b in row): int(c) / samples
        for row, c in zip(outcomes, counts)
    }


def total_variation(measured: dict, exact: dict) -> float:
    keys = set(measured) | set(exact)
    return 0.5 * sum(
        abs(measured.get(e, 0.0) - float(exact.get(e, 0))) for e in keys
    )


def hybrid_tables(s, i, include_c):
    """Exact integer-weighted joint table of (A', z) at k=2, n=6, p=3, eps=1/4.

    Enumerates all 2^12 challenge matrices, all 2^3 noise vectors weighted by
    1^wt * 3^(3-wt) (numerators of (1/4)^wt (3/4)^(3-wt) over 4^3), and all
    2^6 perturbations c of row i.  Cell index packs A' (row-major, MSB-first)
    with z.  Without c the same weighting yields the honest table.
    """
    k, n, d = 2, 6, 3
    a_codes = np.arange(1 << (k * n), dtype=np.int64)
    bits = (a_codes[:, None] >> np.arange(k * n - 1, -1, -1)) & 1
    a_bits = bits.reshape(-1, k, n).astype(np.uint8)
    x = np.zeros((a_codes.size, n), dtype=np.uint8)
    for row in range(k):
        if s[row]:
            x ^= a_bits[:, row, :]
    base = apply_f_batch(DEFAULT_SPEC, x)
    base_code = base @ (1 << np.arange(d - 1, -1, -1)).astype(np.int64)
    shift = n * (k - i)
    table = np.zeros(1 << (k * n + d), dtype=np.int64)
    c_values = range(1 << n) if include_c else (0,)
    for v in range(1 << d):
        weight = 3 ** (d - bin(v).count("1"))
        z_code = base_code ^ v
        for c in c_values:
            cell = ((a_codes ^ (c << shift)) << d) | z_code
            np.add.at(table, cell, weight)
    return table


def _pairs(bucket):
    """All (left, right) column pairs of one bucket, left before right."""
    li, ri = np.triu_indices(bucket.shape[0], 1)
    return bucket[li], bucket[ri]


def lf2_merge(a_cols, z, b: int):
    """One merge level: XOR sample columns that collide on rows b..k-1.

    Returns (merged columns, merged response bits, merge log of (i, j)
    source index pairs).  Merged columns are zero below row b, so the
    merged samples depend on the first b key bits only.
    """
    a_cols = as_bit_matrix(a_cols)
    k, n_samples = a_cols.shape
    z = as_bits(z, n_samples)
    if not 0 < b < k:
        raise ParameterError("need 0 < b < k")
    pairs = [_pairs(bucket) for bucket in _buckets(a_cols, np.arange(b, k))]
    left, right = (np.concatenate(side) for side in zip(*pairs))
    merged = a_cols[:, left] ^ a_cols[:, right]
    merged_z = z[left] ^ z[right]
    return merged, merged_z, list(zip(left.tolist(), right.tolist()))


def finite_transcript_source(strings):
    """Source over a fixed pool; raises once the pool is exhausted."""
    pool = [np.asarray(s, dtype=np.uint8) for s in strings]
    cursor = [0]

    def draw(count: int) -> np.ndarray:
        if cursor[0] + count > len(pool):
            raise ParameterError(
                "transcript source exhausted: %d left, %d requested"
                % (len(pool) - cursor[0], count)
            )
        batch = np.stack(pool[cursor[0] : cursor[0] + count])
        cursor[0] += count
        return batch

    return draw

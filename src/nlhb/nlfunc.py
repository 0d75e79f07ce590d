"""Nonlinear sliding-window response maps and their merge-error analysis.

A response map turns an n-bit state x into D = n - p output bits

    y_i = x_i + g(x_{i+1}, ..., x_{i+p})      (indices 1-based, sums mod 2)

where g is a XOR of monomials of degree >= 2 over the p window bits.  The
monomial ``x_{i+a} x_{i+b}`` is stored as the offset tuple ``(a, b)``.  The
degenerate spec with no monomials (written ``g=0``) makes y a prefix copy of
x and turns the nonlinear protocols into their linear counterparts.

Text form: ``p=3; g=x1x2+x1x3+x2x3`` (offsets into the window, 1-based).
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernels
from .gf2core import (
    DimensionError,
    FormatError,
    ParameterError,
    as_bit_matrix,
    as_bits,
    check_enumerable,
    code_rows,
    key_table,
    _bits_int,
    _int_bits,
)


@dataclass(frozen=True)
class NonlinearFunctionSpec:
    """Window width plus the monomial set of g, in canonical sorted order."""

    p: int
    monomials: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not isinstance(self.p, int) or self.p < 0:
            raise ParameterError("window width p must be a nonnegative integer")
        canon = []
        for mono in self.monomials:
            offs = tuple(sorted(int(o) for o in mono))
            if len(set(offs)) != len(offs):
                raise ParameterError("monomial %r repeats an offset" % (mono,))
            if len(offs) < 2:
                raise ParameterError("monomial %r has degree < 2" % (mono,))
            if offs[0] < 1 or offs[-1] > self.p:
                raise ParameterError(
                    "monomial %r uses offsets outside 1..p=%d" % (mono, self.p)
                )
            canon.append(offs)
        if len(set(canon)) != len(canon):
            raise ParameterError("monomial set contains duplicates")
        object.__setattr__(self, "monomials", tuple(sorted(canon)))
        # the window offsets the map reads: 0 for x_i, then each one g reads;
        # held beside the fields, so it is neither compared nor passed in
        object.__setattr__(self, "_offsets", tuple(sorted({0, *itertools.chain(*canon)})))

    def output_length(self, n: int) -> int:
        d = n - self.p
        if d < 1:
            raise DimensionError("input length %d leaves no output bits for p=%d" % (n, self.p))
        return d

    def __str__(self):
        return format_spec(self)


# the p=3 function the nonlinear protocols default to:
# y_i = x_i + x_{i+1}x_{i+2} + x_{i+2}x_{i+3} + x_{i+3}x_{i+1}
DEFAULT_SPEC = NonlinearFunctionSpec(3, ((1, 2), (1, 3), (2, 3)))

# g = 0: y is the length-n prefix copy, i.e. the linear (HB) response map
IDENTITY_SPEC = NonlinearFunctionSpec(0, ())


def format_spec(spec: NonlinearFunctionSpec) -> str:
    if not spec.monomials:
        g = "0"
    else:
        g = "+".join("".join("x%d" % o for o in mono) for mono in spec.monomials)
    return "p=%d; g=%s" % (spec.p, g)


_SPEC_RE = re.compile(r"^\s*p\s*=\s*(\d+)\s*;\s*g\s*=\s*([0-9a-zA-Z+]+)\s*$", re.ASCII)
_MONO_RE = re.compile(r"^(?:x\d+)+$", re.ASCII)


def parse_spec(text: str) -> NonlinearFunctionSpec:
    """Parse the ``p=<int>; g=<monomials|0>`` text form (round-trips format_spec)."""
    m = _SPEC_RE.match(text)
    if not m:
        raise FormatError("cannot parse function spec %r" % text)
    parts = [] if m.group(2) == "0" else m.group(2).split("+")
    for part in parts:
        if not _MONO_RE.match(part):
            raise FormatError("bad monomial %r in function spec" % part)
    try:
        return NonlinearFunctionSpec(int(m.group(1)), tuple(
            tuple(map(int, re.findall(r"x(\d+)", part, re.ASCII))) for part in parts))
    except ValueError as exc:  # a ParameterError, or an integer past int()'s digit limit
        raise FormatError("invalid function spec %r: %s" % (text, exc)) from None


def apply_f_batch(spec: NonlinearFunctionSpec, x) -> np.ndarray:
    """Apply the response map to every row of a (batch, n) bit matrix."""
    x = as_bit_matrix(x)
    y = _window_map(spec, _aligned_rows(spec, x, spec.output_length(x.shape[1])))
    return y if spec.monomials else y.copy()  # never a view of x


def _aligned_rows(spec: NonlinearFunctionSpec, x: np.ndarray, d: int) -> dict:
    """:func:`_window_map`'s operands for the rows of a bit matrix: the
    column view ``x[:, o:o + d]`` holds x_{i+o} at column i."""
    return {o: x[:, o : o + d] for o in spec._offsets}


def _window_map(spec: NonlinearFunctionSpec, at: dict):
    """y = at[0] XOR, over the monomials of g, the AND of ``at[o]`` for each
    offset o the monomial reads, where ``at[o]`` holds x_{i+o} lined up with
    output i for each offset in ``spec._offsets``.  The operands are ints,
    uint64 code arrays or bit-row views, and every step is out of place, so
    none of them is written to; without monomials, y is ``at[0]`` itself."""
    y = at[0]
    for mono in spec.monomials:  # each of degree >= 2
        term = at[mono[0]] & at[mono[1]]
        for o in mono[2:]:
            term = term & at[o]
        y = y ^ term
    return y


# key bits enumerated inside one chunk of :func:`key_distances`: a chunk is
# 2**12 rows of s.A, ~1 MB per 256 columns, whatever k is
_CHUNK_BITS = 12


def key_distances(spec: NonlinearFunctionSpec, a, target) -> np.ndarray:
    """Distance from f(s.A) to ``target`` for every key s, in
    :func:`all_bit_vectors` row order.

    Streams the 2**k keys in chunks of 2**12 rows: chunk h is the table of
    the last 12 key rows XORed with row h of the table of the first k - 12,
    evaluated and scored in one reused buffer.  The int64 result is the only
    allocation with 2**k entries.
    """
    a = as_bit_matrix(a)
    k, n = a.shape
    check_enumerable(k, 8)  # the int64 distances
    d = spec.output_length(n)
    target = as_bits(target, d)
    low = min(k, _CHUNK_BITS)
    # bits, 4 d-byte rows (the last chunk's output, the output so far, a
    # term, the next output) and 2 int64
    check_enumerable(low, n + 4 * d + 16)
    inner = key_table(a[k - low :])
    chunk = np.empty_like(inner)
    out = np.empty(1 << k, dtype=np.int64)
    for h, row in enumerate(key_table(a[: k - low])):
        np.bitwise_xor(inner, row, out=chunk)
        y = _window_map(spec, _aligned_rows(spec, chunk, d))
        out[h << low : (h + 1) << low] = _kernels.hamming_rows(y, target)
    return out


def apply_f(spec: NonlinearFunctionSpec, x) -> np.ndarray:
    """Apply the response map to one n-bit vector, yielding n - p bits."""
    x = as_bits(x)
    n = x.shape[0]
    d = spec.output_length(n)
    return _int_bits(_apply_f_int(spec, _bits_int(x), n), d)


def _apply_f_int(spec: NonlinearFunctionSpec, x, n: int):
    """The response map of n-bit states held as codes (:func:`gf2core._bits_int`,
    x_1 most significant; one int, or a uint64 array when n <= 64), as the
    codes of their n - p output bits.

    ``x >> (p - o)`` holds x_{i+o} at the bit of output i, so each offset
    the map reads is shifted once for :func:`_window_map`, and its output is
    masked to n - p bits.
    """
    p = spec.p
    if not spec.monomials:
        return x >> p
    return _window_map(spec, {o: x >> (p - o) for o in spec._offsets}) & ((1 << (n - p)) - 1)


# ---------------------------------------------------------------------------
# balance (output uniformity)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UniformityReport:
    """Exhaustive output histogram of a response map over all 2**n inputs."""

    n: int
    p: int
    d: int
    expected_count: int
    counts: np.ndarray  # length 2**d, counts[c] = multiplicity of output code c
    is_uniform: bool


def _check_balance(spec: NonlinearFunctionSpec, n: int) -> None:
    """Size :func:`balance_check`'s 2**n inputs: each input's uint64 code,
    and at the peak of :func:`_apply_f_int` a shift per offset the spec
    reads, the output so far, a monomial's AND and the next output."""
    check_enumerable(n, 8 * (len(spec._offsets) + 4))


def balance_check(spec: NonlinearFunctionSpec, n: int) -> UniformityReport:
    """Exhaustively verify that every output value occurs exactly 2**p times.

    Refuses n when its 2**n inputs do not fit (n > 22 at p = 3).
    """
    d = spec.output_length(n)
    _check_balance(spec, n)
    codes = _apply_f_int(spec, np.arange(1 << n, dtype=np.uint64), n)
    counts = np.bincount(codes.view(np.int64), minlength=1 << d)
    expected = 1 << spec.p
    return UniformityReport(
        n=n,
        p=spec.p,
        d=d,
        expected_count=expected,
        counts=counts,
        is_uniform=bool(np.all(counts == expected)),
    )


# ---------------------------------------------------------------------------
# column-merge error analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MergeErrorDistribution:
    """Joint law of the p+1 output error bits caused by one column merge.

    Adding a source column into column j of the challenge matrix flips the
    state bit x_j by the source column's parity bit; outputs j-p .. j are the
    only ones affected.  ``probabilities`` maps each (E_{j-p}, ..., E_j)
    outcome to its exact probability under uniform state bits.
    """

    probabilities: dict[tuple[int, ...], Fraction]

    def entropy_exact(self) -> Fraction | None:
        """Shannon entropy in bits as an exact Fraction, when it is dyadic."""
        total = Fraction(0)
        for prob in self.probabilities.values():
            log = _dyadic_log2(prob)
            if log is None:
                return None
            total -= prob * log
        return total

    def entropy_bits(self) -> float:
        """Shannon entropy in bits (float; exact value preferred when dyadic)."""
        exact = self.entropy_exact()
        if exact is not None:
            return float(exact)
        return -sum(float(p) * math.log2(float(p)) for p in self.probabilities.values())


def _dyadic_log2(x: Fraction) -> Fraction | None:
    num, den = x.numerator, x.denominator
    if num & (num - 1) or den & (den - 1):
        return None
    return Fraction(num.bit_length() - den.bit_length())


def merge_state_bytes(spec: NonlinearFunctionSpec) -> int:
    """Bytes :func:`merge_error_distribution` holds per merge state (each of
    its 2^(2p+2) rows) when its use peaks, all uint64 codes: the assignment,
    x, xbar and f(x), and the arrays of :func:`_apply_f_int` on xbar, a
    shift per offset the spec reads and three more."""
    return 8 * (len(spec._offsets) + 7)


def merge_error_distribution(spec: NonlinearFunctionSpec) -> MergeErrorDistribution:
    """Exact joint distribution of the merge-induced output errors.

    Evaluates the response map on paired states (x, x with bit j flipped by
    the source parity) over all assignments to the 2p+2 free bits: the
    window x_{j-p} .. x_{j+p} and the source parity.  Outputs j-p .. j read
    only that window, so the map runs on it as a (2p+1)-bit state, and the
    law is the same for every (n, j) with p < j <= n - p.
    """
    p = spec.p
    free = 2 * p + 2
    check_enumerable(free, merge_state_bytes(spec))
    assign = np.arange(1 << free, dtype=np.uint64)
    x = assign >> 1
    xbar = x ^ ((assign & 1) << p)  # the window's middle bit is x_j
    err = _apply_f_int(spec, x, free - 1) ^ _apply_f_int(spec, xbar, free - 1)

    counts = np.bincount(err.view(np.int64), minlength=1 << (p + 1))
    seen = np.flatnonzero(counts)
    return MergeErrorDistribution({
        tuple(outcome.tolist()): Fraction(int(counts[code]), 1 << free)
        for code, outcome in zip(seen, code_rows(seen, p + 1))
    })


def enumerate_functions(p: int) -> list[NonlinearFunctionSpec]:
    """All response maps of window width p: nonempty sets of degree->=2 monomials.

    Only the desk-scale widths 2, 3, 4 are supported (1, 15 and 2047
    candidate maps respectively; the empty set is excluded as degenerate).
    """
    if p not in (2, 3, 4):
        raise ParameterError("enumerate_functions supports p in {2, 3, 4}, got %d" % p)
    monomials = []
    for size in range(2, p + 1):
        monomials.extend(itertools.combinations(range(1, p + 1), size))
    specs = []
    for r in range(1, len(monomials) + 1):
        for subset in itertools.combinations(monomials, r):
            specs.append(NonlinearFunctionSpec(p, subset))
    return specs


def max_entropy_functions(p: int) -> tuple[float, list[NonlinearFunctionSpec]]:
    """Maximum merge-error entropy over all width-p maps, with the maximizers."""
    best = -1.0
    winners: list[NonlinearFunctionSpec] = []
    for spec in enumerate_functions(p):
        h = merge_error_distribution(spec).entropy_bits()
        if h > best + 1e-12:
            best = h
            winners = [spec]
        elif abs(h - best) <= 1e-12:
            winners.append(spec)
    return best, winners

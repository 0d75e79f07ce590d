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
from functools import lru_cache

import numpy as np

from . import _kernels
from .gf2core import (
    DimensionError,
    FormatError,
    ParameterError,
    all_bit_vectors,
    as_bit_matrix,
    as_bits,
    check_enumerable,
    code_rows,
    key_table,
    row_codes,
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


_SPEC_RE = re.compile(r"^\s*p\s*=\s*(\d+)\s*;\s*g\s*=\s*([0-9a-zA-Z+]+)\s*$")
_MONO_RE = re.compile(r"^(?:x\d+)+$")


def parse_spec(text: str) -> NonlinearFunctionSpec:
    """Parse the ``p=<int>; g=<monomials|0>`` text form (round-trips format_spec)."""
    m = _SPEC_RE.match(text)
    if not m:
        raise FormatError("cannot parse function spec %r" % text)
    p = int(m.group(1))
    g = m.group(2)
    if g == "0":
        return NonlinearFunctionSpec(p, ())
    monomials = []
    for part in g.split("+"):
        if not _MONO_RE.match(part):
            raise FormatError("bad monomial %r in function spec" % part)
        monomials.append(tuple(int(tok) for tok in re.findall(r"x(\d+)", part)))
    try:
        return NonlinearFunctionSpec(p, tuple(monomials))
    except ParameterError as exc:
        raise FormatError("invalid function spec %r: %s" % (text, exc)) from None


@lru_cache(maxsize=None)
def _encoded(spec: NonlinearFunctionSpec):
    """Kernel encoding of the monomial set: (offsets matrix, degree vector)."""
    if not spec.monomials:
        return np.zeros((0, 1), dtype=np.int64), np.zeros(0, dtype=np.int64)
    md = max(len(m) for m in spec.monomials)
    offs = np.zeros((len(spec.monomials), md), dtype=np.int64)
    degs = np.zeros(len(spec.monomials), dtype=np.int64)
    for r, mono in enumerate(spec.monomials):
        degs[r] = len(mono)
        offs[r, : len(mono)] = mono
    return offs, degs


def apply_f_batch(spec: NonlinearFunctionSpec, x) -> np.ndarray:
    """Apply the response map to every row of a (batch, n) bit matrix."""
    x = as_bit_matrix(x)
    d = spec.output_length(x.shape[1])
    offs, degs = _encoded(spec)
    return _kernels.apply_window_batch(x, offs, degs, d)


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
    check_enumerable(k)
    target = as_bits(target, spec.output_length(n))
    low = min(k, _CHUNK_BITS)
    inner = key_table(a[k - low :])
    chunk = np.empty_like(inner)
    out = np.empty(1 << k, dtype=np.int64)
    for h, row in enumerate(key_table(a[: k - low])):
        np.bitwise_xor(inner, row, out=chunk)
        out[h << low : (h + 1) << low] = _kernels.hamming_rows(apply_f_batch(spec, chunk), target)
    return out


def apply_f(spec: NonlinearFunctionSpec, x) -> np.ndarray:
    """Apply the response map to one n-bit vector, yielding n - p bits."""
    x = as_bits(x)
    spec.output_length(x.shape[0])
    return _apply_f(spec, x)


def _apply_f(spec: NonlinearFunctionSpec, x: np.ndarray) -> np.ndarray:
    """:func:`apply_f` for a bit vector already checked against the spec's
    window."""
    offs, degs = _encoded(spec)
    return _kernels.apply_window_batch(x[None, :], offs, degs, x.shape[0] - spec.p)[0]


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


_BALANCE_LIMIT = 20


def balance_check(spec: NonlinearFunctionSpec, n: int) -> UniformityReport:
    """Exhaustively verify that every output value occurs exactly 2**p times.

    Refuses n > 20 (the enumeration is 2**n inputs).
    """
    if n > _BALANCE_LIMIT:
        raise ParameterError(
            "balance_check enumerates 2**n inputs; n=%d exceeds the limit %d"
            % (n, _BALANCE_LIMIT)
        )
    d = spec.output_length(n)
    inputs = all_bit_vectors(n)
    codes = row_codes(apply_f_batch(spec, inputs)).astype(np.int64)
    counts = np.bincount(codes, minlength=1 << d)
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

    p: int
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


def merge_error_distribution(
    spec: NonlinearFunctionSpec, n: int | None = None, j: int | None = None
) -> MergeErrorDistribution:
    """Exact joint distribution of the merge-induced output errors.

    Evaluates the response map on paired states (x, x with bit j flipped by
    the source parity) over all assignments to the 2p+2 free bits: the
    window x_{j-p} .. x_{j+p} and the source parity.  Defaults place the
    merge at the smallest position with full context (n = 2p+1, j = p+1);
    the law is independent of j whenever p < j <= n - p.
    """
    p = spec.p
    if n is None:
        n = 2 * p + 1
    if j is None:
        j = p + 1
    d = spec.output_length(n)
    if not p < j <= d:
        raise ParameterError("merge position j=%d must satisfy p < j <= n-p" % j)

    free = 2 * p + 2
    assign = all_bit_vectors(free)
    x = np.zeros((assign.shape[0], n), dtype=np.uint8)
    x[:, j - p - 1 : j + p] = assign[:, : free - 1]
    src = assign[:, free - 1]
    xbar = x.copy()
    xbar[:, j - 1] ^= src

    y = apply_f_batch(spec, x)
    ybar = apply_f_batch(spec, xbar)
    err = (y ^ ybar)[:, j - p - 1 : j]

    total = assign.shape[0]
    counts = np.bincount(row_codes(err).astype(np.int64), minlength=1 << (p + 1))
    seen = np.flatnonzero(counts)
    probabilities = {
        tuple(outcome.tolist()): Fraction(int(counts[code]), total)
        for code, outcome in zip(seen, code_rows(seen, p + 1))
    }
    return MergeErrorDistribution(p=p, probabilities=probabilities)


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

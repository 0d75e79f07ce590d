"""Hot inner-loop kernels, with a numba fast path and a pure-numpy fallback.

Backend selection: set ``NLHB_BACKEND=numpy`` in the environment to force the
pure-numpy implementations; anything else (or unset) uses numba when it is
importable.  Both implementations are kept importable under ``_numpy`` /
``_numba`` suffixes so the parity tests can compare them directly.

One measured exception: the window map always routes to the numpy form.  Its
sliced implementation ran on SIMD byte lanes ~5x faster than the compiled
scalar loop on every size measured, while the distance and transform kernels
went the other way (5-7x in numba's favor).
"""

from __future__ import annotations

import os

import numpy as np

_requested = os.environ.get("NLHB_BACKEND", "numba").strip().lower()

if _requested not in ("numba", "numpy"):
    raise RuntimeError(
        "NLHB_BACKEND must be 'numba' or 'numpy', got %r" % _requested
    )

_HAVE_NUMBA = False
if _requested == "numba":
    try:
        from numba import njit

        _HAVE_NUMBA = True
    except ImportError:  # pragma: no cover - depends on environment
        _HAVE_NUMBA = False

BACKEND = "numba" if _HAVE_NUMBA else "numpy"


# ---------------------------------------------------------------------------
# pure-numpy implementations (always available; the reference semantics)
# ---------------------------------------------------------------------------

def apply_window_batch_numpy(x, offsets, degrees, d):
    """Evaluate the sliding-window response map on a batch of inputs.

    Args:
        x: uint8 array of shape (batch, n) with entries in {0, 1}.
        offsets: int64 array (num_monomials, max_degree); row m holds the
            window offsets (1-based, i.e. 1..p) of monomial m, zero-padded.
        degrees: int64 array (num_monomials,); degree of each monomial.
        d: number of output bits per row (d <= n - p).

    Returns:
        uint8 array of shape (batch, d): out[b, i] = x[b, i] XOR the sum of
        monomial products over the window x[b, i+1 .. i+p].
    """
    out = x[:, :d].copy()
    for m in range(degrees.shape[0]):
        o = int(offsets[m, 0])
        term = x[:, o:o + d].copy()
        for j in range(1, int(degrees[m])):
            o = int(offsets[m, j])
            term &= x[:, o:o + d]
        out ^= term
    return out


def hamming_rows_numpy(z, target):
    """Per-row Hamming distance between rows of ``z`` and ``target``."""
    return np.count_nonzero(z != target[None, :], axis=1).astype(np.int64)


def fwht_numpy(a):
    """In-place Walsh-Hadamard transform of an int64 array of length 2**b."""
    n = a.shape[0]
    h = 1
    while h < n:
        b = a.reshape(-1, 2, h)
        x = b[:, 0, :].copy()
        y = b[:, 1, :].copy()
        b[:, 0, :] = x + y
        b[:, 1, :] = x - y
        h *= 2
    return a


# ---------------------------------------------------------------------------
# numba implementations
# ---------------------------------------------------------------------------

if _HAVE_NUMBA:

    @njit(cache=True)
    def apply_window_batch_numba(x, offsets, degrees, d):
        # monomial-outer order with fixed offsets in the inner loop, so LLVM
        # can vectorize the byte lanes; degree 2 (every max-entropy map of width <= 4)
        # gets the branch-free fused form
        batch = x.shape[0]
        num_mono = degrees.shape[0]
        out = np.empty((batch, d), dtype=np.uint8)
        for b in range(batch):
            row = x[b]
            acc = out[b]
            for i in range(d):
                acc[i] = row[i]
            for m in range(num_mono):
                deg = degrees[m]
                o0 = offsets[m, 0]
                if deg == 2:
                    o1 = offsets[m, 1]
                    for i in range(d):
                        acc[i] ^= row[i + o0] & row[i + o1]
                else:
                    for i in range(d):
                        prod = row[i + o0]
                        for j in range(1, deg):
                            prod &= row[i + offsets[m, j]]
                        acc[i] ^= prod
        return out

    @njit(cache=True)
    def hamming_rows_numba(z, target):
        rows = z.shape[0]
        cols = z.shape[1]
        out = np.empty(rows, dtype=np.int64)
        for r in range(rows):
            acc = 0
            for c in range(cols):
                if z[r, c] != target[c]:
                    acc += 1
            out[r] = acc
        return out

    @njit(cache=True)
    def fwht_numba(a):
        n = a.shape[0]
        h = 1
        while h < n:
            for i in range(0, n, h * 2):
                for j in range(i, i + h):
                    x = a[j]
                    y = a[j + h]
                    a[j] = x + y
                    a[j + h] = x - y
            h *= 2
        return a

    apply_window_batch = apply_window_batch_numpy  # see module docstring
    hamming_rows = hamming_rows_numba
    fwht = fwht_numba
else:  # pragma: no cover - exercised via NLHB_BACKEND=numpy runs
    apply_window_batch = apply_window_batch_numpy
    hamming_rows = hamming_rows_numpy
    fwht = fwht_numpy

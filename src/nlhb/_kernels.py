"""Hot inner-loop kernels over the ``uint8`` bit layout, in plain numpy.

There is one implementation of each kernel.  ``BACKEND`` names it so that
timings can say what they measured.  The window map here is the batch form,
on bit rows; states held as codes, one int or a uint64 array, go through
:func:`nlhb.nlfunc._apply_f_int`, which a test pins to :func:`apply_window_batch`.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


def apply_window_batch(x, monomials, d):
    """Evaluate the sliding-window response map on a batch of inputs.

    Args:
        x: uint8 array of shape (batch, n) with entries in {0, 1}.
        monomials: the monomials of g, each a tuple of its window offsets
            (1-based, i.e. 1..p), as ``NonlinearFunctionSpec.monomials``
            holds them.
        d: number of output bits per row (d <= n - p).

    Returns:
        uint8 array of shape (batch, d): out[b, i] = x[b, i] XOR the sum of
        monomial products over the window x[b, i+1 .. i+p].
    """
    out = x[:, :d].copy()
    for first, *rest in monomials:
        term = x[:, first:first + d].copy()
        for o in rest:
            term &= x[:, o:o + d]
        out ^= term
    return out


def hamming_rows(z, target):
    """Per-row Hamming distance between rows of ``z`` and ``target``."""
    return np.count_nonzero(z != target[None, :], axis=1).astype(np.int64)


def fwht(a):
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

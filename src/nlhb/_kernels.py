"""Hot inner-loop kernels over the ``uint8`` bit layout, in plain numpy.

There is one implementation of each kernel.  ``BACKEND`` names it so that
timings can say what they measured.  The window map is not here: it has one
formula, :func:`nlhb.nlfunc._window_map`, for ints, codes and bit rows.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


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

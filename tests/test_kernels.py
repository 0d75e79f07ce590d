"""The numpy kernels against bit-at-a-time oracles."""

import numpy as np
import pytest

from nlhb import _kernels as K
from nlhb.gf2core import RandomSource
from nlhb.nlfunc import NonlinearFunctionSpec, _encoded


def slow_window_eval(x, monomials, d):
    """Bit-at-a-time oracle for the sliding-window response map."""
    out = []
    for i in range(d):
        acc = int(x[i])
        for mono in monomials:
            prod = 1
            for off in mono:
                prod &= int(x[i + off])
            acc ^= prod
        out.append(acc)
    return out


MONOMIAL_SETS = [
    [],
    [(1, 2)],
    [(1, 2), (2, 3), (1, 3)],
    [(1, 4), (2, 3)],
    [(1, 2, 3)],
    [(1, 2), (1, 2, 4)],
]


@pytest.mark.parametrize("monomials", MONOMIAL_SETS)
def test_apply_window_batch_matches_oracle_and_backends(monomials):
    p = max((max(m) for m in monomials), default=0)
    n = p + 6
    d = n - p
    rng = RandomSource(17 + p)
    x = rng.uniform_matrix(9, n)
    offs, degs = _encoded(NonlinearFunctionSpec(p, tuple(monomials)))
    ref = np.array([slow_window_eval(row, monomials, d) for row in x], dtype=np.uint8)
    assert np.array_equal(K.apply_window_batch(x, offs, degs, d), ref)


def test_hamming_rows_matches_oracle():
    rng = RandomSource(5)
    z = rng.uniform_matrix(40, 33)
    t = rng.uniform_bits(33)
    ref = np.array([sum(int(a != b) for a, b in zip(row, t)) for row in z], dtype=np.int64)
    assert np.array_equal(K.hamming_rows(z, t), ref)


def slow_wht(a):
    n = len(a)
    out = np.zeros(n, dtype=np.int64)
    for u in range(n):
        acc = 0
        for v in range(n):
            sign = -1 if bin(u & v).count("1") % 2 else 1
            acc += sign * int(a[v])
        out[u] = acc
    return out


@pytest.mark.parametrize("b", [1, 2, 4, 6])
def test_fwht_matches_quadratic_oracle(b):
    rng = np.random.Generator(np.random.PCG64(b))
    a = rng.integers(-50, 50, size=1 << b).astype(np.int64)
    ref = slow_wht(a)
    assert np.array_equal(K.fwht(a.copy()), ref)


def test_backend_flag_is_reported():
    assert K.BACKEND == "numpy"

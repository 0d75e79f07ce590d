import gc
import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from support import layouts_st, operand

from nlhb import gf2core, nlfunc
from nlhb._kernels import hamming_rows
from nlhb.gf2core import DimensionError, FormatError, ParameterError, RandomSource, key_table
from nlhb.nlfunc import (
    DEFAULT_SPEC,
    IDENTITY_SPEC,
    NonlinearFunctionSpec,
    apply_f,
    apply_f_batch,
    balance_check,
    enumerate_functions,
    format_spec,
    key_distances,
    max_entropy_functions,
    merge_error_distribution,
    parse_spec,
)


# --- oracles -----------------------------------------------------------------

def slow_f(spec, x):
    """Bit-at-a-time evaluation straight off the defining equation."""
    n = len(x)
    out = []
    for i in range(n - spec.p):
        acc = int(x[i])
        for mono in spec.monomials:
            prod = 1
            for off in mono:
                prod &= int(x[i + off])
            acc ^= prod
        out.append(acc)
    return out


def slow_merge_distribution(spec, n, j):
    """Independent enumeration of the merge-error law using python ints."""
    p = spec.p
    counts = {}
    total = 1 << (2 * p + 2)
    for val in range(total):
        bits = [(val >> (2 * p + 1 - t)) & 1 for t in range(2 * p + 2)]
        window, src = bits[:-1], bits[-1]
        x = [0] * n
        x[j - p - 1 : j + p] = window
        xb = list(x)
        xb[j - 1] ^= src
        y = slow_f(spec, x)
        yb = slow_f(spec, xb)
        e = tuple(a ^ b for a, b in zip(y, yb))[j - p - 1 : j]
        counts[e] = counts.get(e, 0) + 1
    return {k: Fraction(v, total) for k, v in counts.items()}


# --- spec construction and text form ----------------------------------------

def test_default_spec_is_the_three_term_width3_map():
    assert DEFAULT_SPEC.p == 3
    assert DEFAULT_SPEC.monomials == ((1, 2), (1, 3), (2, 3))
    assert format_spec(DEFAULT_SPEC) == "p=3; g=x1x2+x1x3+x2x3"


def test_parse_format_round_trip_examples():
    for text in ("p=2; g=x1x2", "p=4; g=x1x4+x2x3", "p=0; g=0", "p=3; g=x1x2x3"):
        assert format_spec(parse_spec(text)) == text


def test_parse_canonicalizes_order():
    assert parse_spec("p=3; g=x2x3+x1x2") == parse_spec("p=3; g=x1x2+x2x3")


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 4), st.data())
def test_parse_format_round_trip_random(p, data):
    import itertools

    pool = [
        m
        for size in range(2, p + 1)
        for m in itertools.combinations(range(1, p + 1), size)
    ]
    subset = data.draw(st.sets(st.sampled_from(pool), min_size=1))
    spec = NonlinearFunctionSpec(p, tuple(subset))
    assert parse_spec(format_spec(spec)) == spec


def test_invalid_specs_rejected():
    with pytest.raises(ParameterError):
        NonlinearFunctionSpec(3, ((1,),))  # degree 1
    with pytest.raises(ParameterError):
        NonlinearFunctionSpec(3, ((1, 1),))  # repeated offset
    with pytest.raises(ParameterError):
        NonlinearFunctionSpec(3, ((1, 4),))  # offset beyond window
    with pytest.raises(ParameterError):
        NonlinearFunctionSpec(3, ((1, 2), (2, 1)))  # duplicate monomial
    with pytest.raises(ParameterError):
        NonlinearFunctionSpec(-1, ())
    for text in ("p=3 g=x1x2", "p=3; g=", "p=3; g=x1", "p=3; g=x1x2++x2x3", "nonsense",
                 "p=\u0662; g=x1x2", "p=2; g=x1x\u0662", "p=%s; g=0" % ("9" * 5000), "p=3; g=x1x%s" % ("9" * 5000)):
        with pytest.raises(FormatError):
            parse_spec(text)


# --- evaluation --------------------------------------------------------------

def test_apply_f_hand_example():
    # x = 111100 under the default width-3 map: y_1 = 1+1+1+1 = 0,
    # y_2 = 1+1+0+0 = 0, y_3 = 1+0+0+0 = 1.
    x = np.array([1, 1, 1, 1, 0, 0], dtype=np.uint8)
    expected = slow_f(DEFAULT_SPEC, x)
    assert expected == [0, 0, 1]
    assert list(apply_f(DEFAULT_SPEC, x)) == expected


def test_apply_f_identity_spec_is_prefix_copy():
    x = RandomSource(4).uniform_bits(12)
    assert np.array_equal(apply_f(IDENTITY_SPEC, x), x)
    trunc = NonlinearFunctionSpec(2, ())
    assert np.array_equal(apply_f(trunc, x), x[:10])


def test_apply_f_requires_room_for_window():
    with pytest.raises(DimensionError):
        apply_f(DEFAULT_SPEC, [1, 0, 1])  # n == p leaves no outputs


def test_apply_f_rejects_bad_input():
    with pytest.raises(DimensionError):
        apply_f(DEFAULT_SPEC, np.zeros((2, 8), dtype=np.uint8))  # not a vector
    with pytest.raises(ParameterError):
        apply_f(DEFAULT_SPEC, [1, 0, 2, 0, 1, 1])


def test_apply_f_strided_input_matches_contiguous():
    x = RandomSource(5).uniform_bits(40)
    assert np.array_equal(apply_f(DEFAULT_SPEC, x[::2]), apply_f(DEFAULT_SPEC, x[::2].copy()))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(4, 30))
def test_apply_f_batch_matches_slow_oracle(seed, n):
    rng = RandomSource(seed)
    x = rng.uniform_matrix(5, n)
    got = apply_f_batch(DEFAULT_SPEC, x)
    for row_in, row_out in zip(x, got):
        assert list(row_out) == slow_f(DEFAULT_SPEC, row_in)


@st.composite
def window_specs(draw):
    """A spec of width 0..6 with any set of monomials of degree >= 2, the
    empty set included."""
    p = draw(st.integers(0, 6))
    pool = [m for size in range(2, p + 1) for m in itertools.combinations(range(1, p + 1), size)]
    chosen = draw(st.lists(st.sampled_from(pool), unique=True, max_size=10)) if pool else []
    return NonlinearFunctionSpec(p, tuple(chosen))


@pytest.mark.parametrize("residue", range(8))
@settings(max_examples=30, deadline=None)
@given(window_specs(), st.integers(0, 37), st.integers(0, 2**32 - 1))
@example(DEFAULT_SPEC, 0, 0)
@example(NonlinearFunctionSpec(6, ((1, 6), (2, 3, 4, 5, 6))), 37, 1)
@example(IDENTITY_SPEC, 0, 2)
def test_window_map_forms_are_the_oracle(residue, spec, blocks, seed):
    # one n for every n mod 8, from p + 1 to ~300; the all-zero and all-one
    # states ride along with two random ones
    n = 8 * blocks + residue
    while n <= spec.p:
        n += 8
    x = RandomSource(seed).uniform_matrix(4, n)
    x[1], x[2] = 0, 1
    want = [slow_f(spec, row) for row in x]
    want_codes = [gf2core._bits_int(np.array(bits, dtype=np.uint8)) for bits in want]
    assert apply_f_batch(spec, x).tolist() == want  # bit rows
    codes = [gf2core._bits_int(row) for row in x]
    for row, code, bits, want_code in zip(x, codes, want, want_codes):
        assert nlfunc._apply_f_int(spec, code, n) == want_code  # one int
        assert apply_f(spec, row).tolist() == bits
    if n <= 64:  # the same formula on a uint64 array of the rows' codes
        got = nlfunc._apply_f_int(spec, np.array(codes, dtype=np.uint64), n)
        assert got.tolist() == want_codes


@pytest.mark.parametrize("spec", [IDENTITY_SPEC, NonlinearFunctionSpec(3, ())])
def test_identity_batch_map_is_a_copy(spec):
    x = RandomSource(3).uniform_matrix(4, 11)
    before = x.copy()
    y = apply_f_batch(spec, x)
    y[:] = 1 - y
    assert np.array_equal(x, before)


def test_apply_f_batch_keeps_nothing_per_spec():
    # nothing may stay alive per spec evaluated (a per-spec cache of the
    # kernel's encoding kept 1.2 MB here); any cache the module has starts
    # cold, whatever ran before this test
    for obj in vars(nlfunc).values():
        getattr(obj, "cache_clear", lambda: None)()
    specs = enumerate_functions(4)
    x = RandomSource(4).uniform_matrix(3, 9)
    gc.collect()
    tracemalloc.start()
    try:
        for spec in specs:
            apply_f_batch(spec, x)
        gc.collect()
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert current < 64 * 2**10


# --- exhaustive key distances ------------------------------------------------

# k from 0 to 15 lands below, at and above the 12 key bits of one chunk
@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 15),
    st.sampled_from([DEFAULT_SPEC, IDENTITY_SPEC, NonlinearFunctionSpec(4, ((1, 4), (2, 3, 4)))]),
    st.integers(1, 6),
    layouts_st,
    st.integers(0, 2**32 - 1),
)
@example(12, DEFAULT_SPEC, 1, "transposed", 0)
@example(13, IDENTITY_SPEC, 3, "strided", 1)
def test_key_distances_match_full_table(k, spec, d, layout, seed):
    rng = RandomSource(seed)
    a = operand(rng, k, spec.p + d, layout)
    target = rng.uniform_bits(d)
    got = key_distances(spec, a, target)
    assert got.dtype == np.int64 and got.shape == (1 << k,)
    assert np.array_equal(got, hamming_rows(apply_f_batch(spec, key_table(a)), target))


def test_key_distances_typed_errors():
    with pytest.raises(ParameterError, match="0..26"):
        key_distances(DEFAULT_SPEC, np.zeros((27, 8), dtype=np.uint8), np.zeros(5, dtype=np.uint8))
    for length in (4, 6):
        with pytest.raises(DimensionError, match="expected a bit vector of length 5, got %d bits" % length):
            key_distances(DEFAULT_SPEC, np.zeros((3, 8), dtype=np.uint8), np.zeros(length, dtype=np.uint8))
    with pytest.raises(DimensionError):
        key_distances(DEFAULT_SPEC, np.zeros((3, 3), dtype=np.uint8), np.zeros(0, dtype=np.uint8))
    with pytest.raises(ParameterError):
        key_distances(DEFAULT_SPEC, np.zeros((3, 8), dtype=np.uint8), np.full(5, 2, dtype=np.uint8))


def test_key_distances_memory_is_bounded():
    # the full k=18 table and its window-map temporaries peaked at 256.8 MB;
    # streamed, the 2 MB distance vector and one 4096-row chunk remain
    rng = RandomSource(3)
    a = rng.uniform_matrix(18, 259)
    target = rng.uniform_bits(256)
    tracemalloc.start()
    try:
        key_distances(DEFAULT_SPEC, a, target)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


# --- balance -----------------------------------------------------------------

def test_balance_default_spec_small():
    rep = balance_check(DEFAULT_SPEC, 10)
    assert rep.is_uniform
    assert rep.expected_count == 8
    assert int(rep.counts.sum()) == 1 << 10


def test_balance_width2_n12_each_output_four_times():
    rep = balance_check(NonlinearFunctionSpec(2, ((1, 2),)), 12)
    assert rep.is_uniform
    assert rep.expected_count == 4
    assert np.all(rep.counts == 4)


def test_balance_refuses_large_n():
    with pytest.raises(ParameterError):
        balance_check(DEFAULT_SPEC, 24)


@settings(max_examples=15, deadline=None)
@given(st.integers(2, 4), st.data())
def test_balance_holds_for_random_specs(p, data):
    # The response shape y_i = x_i + g(later bits) is a bijection of the
    # state for any g, so uniformity holds for every valid spec.
    import itertools

    pool = [
        m
        for size in range(2, p + 1)
        for m in itertools.combinations(range(1, p + 1), size)
    ]
    subset = data.draw(st.sets(st.sampled_from(pool), min_size=1))
    spec = NonlinearFunctionSpec(p, tuple(subset))
    assert balance_check(spec, p + 5).is_uniform


# --- merge-error analysis ------------------------------------------------------

def test_merge_distribution_default_spec_exact():
    dist = merge_error_distribution(DEFAULT_SPEC)
    expected = {(0, 0, 0, 0): Fraction(1, 2)}
    for a in (0, 1):
        for b in (0, 1):
            for c in (0, 1):
                expected[(a, b, c, 1)] = Fraction(1, 16)
    assert dist.probabilities == expected
    assert dist.entropy_exact() == Fraction(5, 2)
    assert dist.entropy_bits() == 2.5


def test_merge_distribution_width2_exact():
    dist = merge_error_distribution(NonlinearFunctionSpec(2, ((1, 2),)))
    expected = {
        (0, 0, 0): Fraction(1, 2),
        (0, 0, 1): Fraction(1, 8),
        (0, 1, 1): Fraction(1, 8),
        (1, 0, 1): Fraction(1, 8),
        (1, 1, 1): Fraction(1, 8),
    }
    assert dist.probabilities == expected
    assert dist.entropy_exact() == Fraction(2)


def test_merge_distribution_non_dyadic_entropy():
    dist = merge_error_distribution(parse_spec("p=3; g=x1x2+x1x2x3"))
    assert dist.probabilities[(0, 0, 0, 1)] == Fraction(7, 32)
    assert dist.entropy_exact() is None
    assert abs(dist.entropy_bits() - 2.112300876357) < 1e-9


@pytest.mark.parametrize(
    "text", ["p=2; g=x1x2", "p=3; g=x1x2+x1x3+x2x3", "p=3; g=x1x2x3", "p=4; g=x1x4+x2x3"]
)
def test_merge_distribution_matches_slow_oracle(text):
    spec = parse_spec(text)
    n, j = 2 * spec.p + 1, spec.p + 1
    assert merge_error_distribution(spec).probabilities == slow_merge_distribution(spec, n, j)


@pytest.mark.parametrize("text", ["p=3; g=x1x2+x1x3+x2x3", "p=4; g=x1x4+x2x3"])
def test_merge_distribution_position_invariant(text):
    spec = parse_spec(text)
    law = merge_error_distribution(spec).probabilities
    for n, j in ((12, 5), (12, 6), (12, 8), (100, 60)):
        assert law == slow_merge_distribution(spec, n, j)


def test_merge_last_error_bit_is_source_parity():
    # E_j equals the merged-in column's parity bit, so its marginal is 1/2.
    for text in ("p=2; g=x1x2", "p=3; g=x1x2+x1x3", "p=4; g=x1x4+x2x3+x3x4"):
        dist = merge_error_distribution(parse_spec(text))
        marginal = sum(p for e, p in dist.probabilities.items() if e[-1] == 1)
        assert marginal == Fraction(1, 2)


def test_merge_probabilities_sum_to_one():
    for spec in enumerate_functions(3):
        assert sum(merge_error_distribution(spec).probabilities.values()) == 1


# --- enumeration --------------------------------------------------------------

def test_enumerate_counts():
    assert len(enumerate_functions(2)) == 1
    assert len(enumerate_functions(3)) == 15
    assert len(enumerate_functions(4)) == 2047
    with pytest.raises(ParameterError):
        enumerate_functions(5)


def test_max_entropy_width2_and_3():
    best2, winners2 = max_entropy_functions(2)
    assert best2 == 2.0
    assert [format_spec(w) for w in winners2] == ["p=2; g=x1x2"]

    best3, winners3 = max_entropy_functions(3)
    assert best3 == 2.5
    assert sorted(format_spec(w) for w in winners3) == [
        "p=3; g=x1x2+x1x3",
        "p=3; g=x1x2+x1x3+x2x3",
        "p=3; g=x1x3+x2x3",
    ]

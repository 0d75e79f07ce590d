import tracemalloc
from functools import partial
from unittest import mock

import numpy as np
import pytest
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st
from support import edited_text, layouts_st, operand

from nlhb import gf2core
from nlhb.gf2core import (
    DimensionError,
    FormatError,
    ParameterError,
    RandomSource,
    SingularSystemError,
    all_bit_vectors,
    as_bit_matrix,
    as_bits,
    code_rows,
    dump_bits,
    dump_matrix,
    gaussian_solve,
    gf2_rank,
    hamming,
    key_table,
    load_bits,
    load_matrix,
    mat_vec_mul,
    row_codes,
)
from nlhb.attacks import lf2_attack
from nlhb.nlfunc import (
    DEFAULT_SPEC,
    IDENTITY_SPEC,
    NonlinearFunctionSpec,
    balance_check,
    enumerate_functions,
    key_distances,
    merge_error_distribution,
)
from nlhb.protocols import ProtocolParams, generate_key, transcript_sampler
from nlhb.reductions import brute_force_unld


# --- independent oracles -----------------------------------------------------

def naive_mat_vec(s, a):
    """Per-column dot product, no vectorization."""
    k, n = a.shape
    out = []
    for j in range(n):
        acc = 0
        for i in range(k):
            acc ^= int(s[i]) & int(a[i][j])
        out.append(acc)
    return np.array(out, dtype=np.uint8)


def naive_matmul(a, b):
    """One naive row-vector product per row of a."""
    return np.array([naive_mat_vec(row, b) for row in a], dtype=np.uint8).reshape(
        a.shape[0], b.shape[1]
    )


def naive_hamming(x, y):
    return sum(1 for a, b in zip(x, y) if int(a) != int(b))


bits_st = st.lists(st.integers(0, 1), min_size=1, max_size=48)


def test_mat_vec_mul_small_example():
    # s = 101 against columns (100, 010, 001, 111); the naive oracle gives
    # 1, 0, 1, and 1^0^1 = 0 for the all-ones column.
    s = as_bits([1, 0, 1])
    a = np.array([[1, 0, 0, 1],
                  [0, 1, 0, 1],
                  [0, 0, 1, 1]], dtype=np.uint8)
    expected = naive_mat_vec(s, a)
    assert list(expected) == [1, 0, 1, 0]
    assert np.array_equal(mat_vec_mul(s, a), expected)


def test_mat_vec_parity_safe_for_large_k():
    # k > 256 selects hundreds of rows; parity must survive any accumulator width.
    rng = RandomSource(7)
    s = rng.uniform_bits(700)
    a = rng.uniform_matrix(700, 40)
    assert np.array_equal(mat_vec_mul(s, a), naive_mat_vec(s, a))


fill_st = st.sampled_from(["random", "zeros", "ones"])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 12), st.integers(1, 20), layouts_st, fill_st, st.integers(0, 2**32 - 1))
def test_mat_vec_matches_naive_oracle(k, n, layout, fill, seed):
    rng = RandomSource(seed)
    a = operand(rng, k, n, layout)
    s = {"random": rng.uniform_bits(k), "zeros": np.zeros(k, dtype=np.uint8),
         "ones": np.ones(k, dtype=np.uint8)}[fill]
    before = a.copy()
    got = mat_vec_mul(s, a)
    assert got.dtype == np.uint8 and got.shape == (n,)
    assert np.array_equal(got, naive_mat_vec(s, a))
    assert np.array_equal(a, before)


@pytest.mark.parametrize("residue", range(8))
@settings(max_examples=25, deadline=None)
@given(st.one_of(st.integers(1, 20), st.just(128)), st.integers(0, 12), fill_st,
       st.integers(0, 2**64 - 1))
@example(5, 2, "random", 0)
@example(128, 145, "random", 1)
@example(128, 145, "ones", 2)
@example(13, 0, "zeros", 3)
def test_payload_product_is_mat_vec_mul(residue, k, blocks, fill, seed):
    # one n for every n mod 8; the payload may end short of its last whole
    # block of n bytes (k = 5, n = 19: 12 of 19 bytes), which reads as
    # zero-extended
    n = 8 * blocks + residue or 8
    drawn = RandomSource(seed)
    a, payload = drawn._bits_and_payload(k, n)
    assert np.array_equal(RandomSource(seed)._payload(k, n), payload)
    assert payload.size == (k * n + 7) // 8 <= (k + 7) // 8 * n
    s = {"random": drawn.uniform_bits(k), "zeros": np.zeros(k, dtype=np.uint8),
         "ones": np.ones(k, dtype=np.uint8)}[fill]
    before = payload.copy()
    got = gf2core._payload_mat_vec_mul(gf2core._selected_masks(s, n), payload, n)
    assert type(got) is int and got.bit_length() <= n
    assert got == gf2core._bits_int(gf2core._mat_vec_mul(s, a))
    assert np.array_equal(payload, before)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 7), st.integers(1, 12), layouts_st, st.integers(0, 2**32 - 1))
def test_key_table_matches_naive_products(k, n, layout, seed):
    rng = RandomSource(seed)
    a = operand(rng, k, n, layout)
    keys = all_bit_vectors(k)
    table = key_table(a)
    assert table.dtype == np.uint8 and table.shape == (1 << k, n)
    assert np.array_equal(table, naive_matmul(keys, a))


def test_key_table_edges():
    assert np.array_equal(key_table(np.zeros((0, 3), dtype=np.uint8)), np.zeros((1, 3)))
    ones = np.ones((3, 1), dtype=np.uint8)
    # with one column of ones the table is the parity of each key
    assert list(key_table(ones)[:, 0]) == [0, 1, 1, 0, 1, 0, 0, 1]
    with pytest.raises(ParameterError):
        key_table(np.zeros((27, 1), dtype=np.uint8))
    with pytest.raises(ParameterError):
        key_table([[0, 2]])
    with pytest.raises(DimensionError):
        key_table([0, 1])


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 20), st.lists(st.integers(0, 2**20 - 1), max_size=20))
def test_code_rows_inverts_row_codes(width, values):
    codes = np.array([v % (1 << width) for v in values], dtype=np.uint64)
    rows = code_rows(codes, width)
    assert rows.shape == (len(values), width)
    assert np.array_equal(row_codes(rows), codes)


def test_row_codes_holds_no_word_per_bit():
    m = RandomSource(7).uniform_matrix(18, 1 << 18).T  # lf2 packs transposed columns
    tracemalloc.start()
    try:
        codes = row_codes(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert codes[:3].tolist() == [gf2core._bits_int(row) for row in m[:3]]
    assert peak <= 1.5 * m.nbytes  # a uint64 per bit peaked at 8.4x


def test_one_bit_key_masks_hold_a_few_bytes_per_column():
    n = 200003
    tracemalloc.start()
    try:
        masks = gf2core._selected_masks(np.ones(1, dtype=np.uint8), n)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert masks.shape == (1, n) and masks[0, : n // 8].min() == 255 and not masks[0, n // 8 + 1 :].any()
    assert current <= 2 * n  # nothing kept beside the masks
    assert peak <= 16 * n  # a table of the masks of all 256 bytes held 256 n


@pytest.mark.parametrize("s, a, error", [
    ([[1, 0]], np.zeros((2, 3), dtype=np.uint8), DimensionError),
    ([1, 0], np.zeros(3, dtype=np.uint8), DimensionError),
    ([1, 2], np.zeros((2, 3), dtype=np.uint8), ParameterError),
    ([1, 0], np.full((2, 3), 3, dtype=np.uint8), ParameterError),
])
def test_mat_vec_rejects_bad_operands(s, a, error):
    with pytest.raises(error):
        mat_vec_mul(s, a)


def test_hamming_rejects_bad_operands():
    with pytest.raises(DimensionError):
        hamming([[1, 0]], [[1, 0]])
    with pytest.raises(ParameterError):
        hamming([1, 2], [1, 0])


# entries a uint8 cast would wrap (256, -255), truncate (0.5, 1.9) or cannot
# make at all ("a", None) are refused, not turned into bits
@pytest.mark.parametrize("values", [
    np.array([256, 1]),
    np.array([-255]),
    np.array([0.5, 1.9]),
    [0.5, 1.0],
    [256],
    ["a"],
    [None],
], ids=repr)
def test_non_bits_are_refused_not_cast(values):
    with pytest.raises(ParameterError, match="entries must be 0 or 1"):
        as_bits(values)
    with pytest.raises(ParameterError, match="entries must be 0 or 1"):
        as_bit_matrix([values])


def test_exact_bits_of_any_numeric_dtype_are_accepted():
    for values in ([1, 0], [True, False], [1.0, 0.0], np.array([1, 0], dtype=np.int8)):
        got = as_bits(values)
        assert got.dtype == np.uint8 and got.tolist() == [1, 0]
        assert as_bit_matrix([values]).tolist() == [[1, 0]]
    bits = np.array([1, 0], dtype=np.uint8)
    assert as_bits(bits) is bits


@pytest.mark.parametrize("values", [
    [[0, 1], [1]],
    [0, [1]],
    [[[0], [1]], [1]],
], ids=repr)
def test_ragged_input_is_a_dimension_error(values):
    for length in (None, 2):
        with pytest.raises(DimensionError, match="ragged bit vector"):
            as_bits(values, length)
    for shape in (None, (2, 2)):
        with pytest.raises(DimensionError, match="ragged bit matrix"):
            as_bit_matrix(values, shape)


@pytest.mark.parametrize("call, message", [
    (lambda: as_bits([[0, 1]]), "expected a 1-D bit vector, got shape (1, 2)"),
    (lambda: as_bits([0, 1], 3), "expected a bit vector of length 3, got 2 bits"),
    (lambda: as_bit_matrix([0, 1]), "expected a 2-D bit matrix, got shape (2,)"),
    (lambda: as_bit_matrix([[0, 1]], (2, 2)), "expected a bit matrix of shape (2, 2), got (1, 2)"),
])
def test_shape_errors_keep_their_messages(call, message):
    with pytest.raises(DimensionError) as err:
        call()
    assert str(err.value) == message


def test_mat_vec_shape_mismatch():
    with pytest.raises(DimensionError):
        mat_vec_mul([1, 0], np.zeros((3, 4), dtype=np.uint8))


@settings(max_examples=30, deadline=None)
@given(bits_st, bits_st)
def test_hamming_oracle_and_axioms(x, y):
    n = min(len(x), len(y))
    x, y = as_bits(x[:n]), as_bits(y[:n])
    d = hamming(x, y)
    assert d == naive_hamming(x, y)
    assert d == hamming(y, x)
    assert hamming(x, x) == 0
    assert d == int(np.count_nonzero(x ^ y))


def test_hamming_length_mismatch():
    with pytest.raises(DimensionError):
        hamming([1, 0], [1, 0, 1])


# --- gaussian solve ----------------------------------------------------------

def test_gaussian_solve_recovers_planted_secret():
    rng = RandomSource(101)
    for _ in range(20):
        k = 8
        a = rng.uniform_matrix(k, 14)
        if gf2_rank(a) < k:
            continue
        s = rng.uniform_bits(k)
        z = mat_vec_mul(s, a)
        assert np.array_equal(gaussian_solve(a, z), s)


def test_gaussian_solve_rank_deficient():
    # two equal columns and nothing else: rank 1 < k = 2
    a = np.array([[1, 1], [1, 1]], dtype=np.uint8)
    z = np.array([0, 0], dtype=np.uint8)
    with pytest.raises(SingularSystemError) as err:
        gaussian_solve(a, z)
    assert err.value.reason == "rank_deficient"


def test_gaussian_solve_inconsistent():
    # s * (1 1) = (s, s) can never equal (1, 0)
    a = np.array([[1, 1]], dtype=np.uint8)
    z = np.array([1, 0], dtype=np.uint8)
    with pytest.raises(SingularSystemError) as err:
        gaussian_solve(a, z)
    assert err.value.reason == "inconsistent"


def test_gaussian_solve_underdetermined_rejected():
    with pytest.raises(DimensionError):
        gaussian_solve(np.zeros((3, 2), dtype=np.uint8), np.zeros(2, dtype=np.uint8))


def solve_by_enumeration(a, z):
    """(rank, solution or None, failure reason or None) of s.A = z, read off
    the table of s.A over all 2^k keys: the row space has 2^rank distinct
    members, and the keys whose image is z are the solutions."""
    table = key_table(a)
    rank = len(np.unique(table, axis=0)).bit_length() - 1
    hits = np.flatnonzero((table == z).all(axis=1))
    if hits.size == 0:
        return rank, None, "inconsistent"
    if hits.size > 1:
        return rank, None, "rank_deficient"
    return rank, code_rows(hits, a.shape[0])[0], None


@st.composite
def linear_systems(draw):
    """(A, z) with k in 1..8, m in k..16, A in any memory layout, possibly
    with zero and repeated rows; z is in the row space or uniform."""
    k = draw(st.integers(1, 8))
    m = draw(st.integers(k, 16))
    rng = RandomSource(draw(st.integers(0, 2**32 - 1)))
    a = operand(rng, k, m, draw(layouts_st))
    rows = st.integers(0, k - 1)
    for i in draw(st.lists(rows, max_size=2)):
        a[i] = 0
    for i, j in draw(st.lists(st.tuples(rows, rows), max_size=3)):
        a[i] = a[j]
    if draw(st.booleans()):
        z = mat_vec_mul(rng.uniform_bits(k), a)
    else:
        z = rng.uniform_bits(m)
    return a, z


@settings(max_examples=300, deadline=None)
@given(linear_systems())
@example((np.array([[1, 0], [1, 0]], dtype=np.uint8), np.array([0, 1], dtype=np.uint8)))
@example((np.array([[1, 1, 0], [0, 0, 0]], dtype=np.uint8), np.array([1, 1, 0], dtype=np.uint8)))
@example((np.array([[0, 1, 1]], dtype=np.uint8), np.array([0, 1, 1], dtype=np.uint8)))
def test_rank_and_solve_match_enumeration(system):
    a, z = system
    before = a.copy()
    rank, solution, reason = solve_by_enumeration(a, z)
    assert gf2_rank(a) == rank
    assert gf2_rank(a.T) == rank
    if reason is None:
        assert np.array_equal(gaussian_solve(a, z), solution)
    else:
        with pytest.raises(SingularSystemError) as err:
            gaussian_solve(a, z)
        assert err.value.reason == reason
    assert np.array_equal(a, before)


def test_gf2_rank_known_values():
    assert gf2_rank(np.eye(5, dtype=np.uint8)) == 5
    assert gf2_rank(np.zeros((3, 4), dtype=np.uint8)) == 0
    a = np.array([[1, 0, 1], [0, 1, 1], [1, 1, 0]], dtype=np.uint8)  # row3 = row1+row2
    assert gf2_rank(a) == 2


# --- enumeration helpers -----------------------------------------------------

def test_all_bit_vectors_order_and_codes():
    vs = all_bit_vectors(4)
    assert vs.shape == (16, 4)
    assert list(vs[0]) == [0, 0, 0, 0]
    assert list(vs[1]) == [0, 0, 0, 1]
    assert list(vs[8]) == [1, 0, 0, 0]  # index 1 is the most significant bit
    assert np.array_equal(row_codes(vs), np.arange(16, dtype=np.uint64))


def test_all_bit_vectors_bounds():
    with pytest.raises(ParameterError):
        all_bit_vectors(27)


def test_all_bit_vectors_holds_one_byte_per_bit():
    tracemalloc.start()
    try:
        vs = all_bit_vectors(20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert vs.shape == (1 << 20, 20)
    assert peak <= 2 * vs.nbytes  # a uint64 per bit before the cast peaked at 9x


def _lf2_call(rng):
    # k = b: one directly scored block of 2^18 candidates, from 12 noisy records
    params = ProtocolParams(proto="hb", k=18, n=256, eps=Fraction(1, 8), eps_prime=Fraction(1, 4),
                            spec=IDENTITY_SPEC)
    return partial(lf2_attack, transcript_sampler(params, generate_key(params, rng), rng, 16), 18)


def _pair(rng, k, n):
    return rng.uniform_matrix(k, n), rng.uniform_bits(n - DEFAULT_SPEC.p)


# Each 2^w enumeration, at a width where its per-row arrays dominate, with
# the bytes it holds beside the rows it asks for: lf2's pooled samples and
# verification sessions.  Asks of fewer rows, such as key_distances' 2^12-row
# chunk and its two key tables, count as fixed bytes too; asks of 2^w rows
# made inside the site's call are in its own charge.
_SITES = {
    "key_table": (lambda rng: partial(key_table, rng.uniform_matrix(18, 40)), 0),
    "all_bit_vectors": (lambda rng: partial(all_bit_vectors, 18), 0),
    "key_distances": (lambda rng: partial(key_distances, DEFAULT_SPEC, *_pair(rng, 20, 40)), 0),
    "brute_force_unld": (lambda rng: partial(
        brute_force_unld, [_pair(rng, 20, 40) for _ in range(2)], 20, DEFAULT_SPEC), 0),
    "balance_check": (lambda rng: partial(balance_check, DEFAULT_SPEC, 16), 0),
    "balance_check at p = 4, all 11 monomials": (lambda rng: partial(
        balance_check, enumerate_functions(4)[-1], 16), 0),
    "merge_error_distribution": (lambda rng: partial(
        merge_error_distribution, NonlinearFunctionSpec(7, ((1, 7),))), 0),
    "lf2_attack": (_lf2_call, 2**18),
}


@pytest.mark.parametrize("site", sorted(_SITES))
def test_each_enumeration_charges_its_measured_peak(site):
    build, fixed = _SITES[site]
    call = build(RandomSource(5))
    asks = []
    check_held = gf2core.check_held

    def spy(rows, row_bytes):
        asks.append((rows, row_bytes))
        check_held(rows, row_bytes)

    with mock.patch.object(gf2core, "check_held", spy):
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    rows, charge = max(asks, key=lambda ask: ask[0] * ask[1])  # the site's own ask
    fixed += sum(r * b for r, b in asks if r < rows)
    assert peak <= rows * charge + fixed + 2**14  # 16 KB of fixed-size objects
    assert rows * charge <= 2 * peak


def test_enumerations_past_the_budget_are_refused_before_allocation():
    rng = RandomSource(6)
    a, target = rng.uniform_matrix(26, 40), rng.uniform_bits(37)
    for call in (lambda: all_bit_vectors(26),
                 lambda: key_distances(DEFAULT_SPEC, a, target),
                 lambda: merge_error_distribution(NonlinearFunctionSpec(11, ((1, 11),))),
                 lambda: balance_check(DEFAULT_SPEC, 23)):
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError, match="exceeds"):
                call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20


@pytest.mark.parametrize("width", [0, 1, 7, 8, 9, 33, 63, 64])
def test_code_rows_spells_each_code_msb_first(width):
    codes = RandomSource(width).u64(50) >> np.uint64(64 - width) if width else np.zeros(50, np.uint64)
    want = [[int(c) >> (width - 1 - i) & 1 for i in range(width)] for c in codes.tolist()]
    rows = code_rows(codes, width)
    assert rows.dtype == np.uint8 and rows.shape == (50, width)
    assert rows.tolist() == want


# --- serialization -----------------------------------------------------------

def test_dump_bits_exact_text():
    v = as_bits([1, 0, 1, 1, 0, 0, 1, 0, 1])
    # first byte 0b10110010 = b2, second byte 0b10000000 = 80 (pad zeros)
    assert dump_bits(v) == "bits 9\nb280\n"
    assert np.array_equal(load_bits(dump_bits(v)), v)


@settings(max_examples=40, deadline=None)
@given(bits_st)
def test_bits_round_trip(v):
    v = as_bits(v)
    assert np.array_equal(load_bits(dump_bits(v)), v)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 9), st.integers(1, 17), st.integers(0, 2**32 - 1))
def test_matrix_round_trip(rows, cols, seed):
    m = RandomSource(seed).uniform_matrix(rows, cols)
    assert np.array_equal(load_matrix(dump_matrix(m)), m)


def test_matrix_column_reinsertion_round_trip():
    m = RandomSource(3).uniform_matrix(6, 9)
    j = 4  # 1-based column index
    col = m[:, j - 1].copy()
    m2 = m.copy()
    m2[:, j - 1] = col
    assert np.array_equal(m2, m)


def test_load_rejects_malformed():
    with pytest.raises(FormatError):
        load_bits("bits 8\nabc\n")  # odd length
    with pytest.raises(FormatError):
        load_bits("bits 8\nzz\n")  # junk characters
    with pytest.raises(FormatError):
        load_bits("bits 4\nff\n")  # nonzero padding
    with pytest.raises(FormatError):
        load_bits("bats 4\n00\n")  # bad header
    with pytest.raises(FormatError):
        load_matrix("mat 2 2\nff\n".replace("ff", "ffff"))  # wrong byte count
    with pytest.raises(FormatError, match="upper-case"):
        load_matrix("mat 2 4\nAb\n")  # "ab" is the written spelling
    err = None
    try:
        load_bits("bits 8\nab\nextra\n")
    except FormatError as e:
        err = e
    assert err is not None


@pytest.mark.parametrize(
    "value, text",
    [
        (np.zeros(0, dtype=np.uint8), "bits 0\n\n"),
        (np.zeros((0, 5), dtype=np.uint8), "mat 0 5\n\n"),
        (np.zeros((3, 0), dtype=np.uint8), "mat 3 0\n\n"),
    ],
    ids=["bits 0", "mat 0 5", "mat 3 0"],
)
def test_empty_payload_round_trip(value, text):
    dump, load = (dump_bits, load_bits) if value.ndim == 1 else (dump_matrix, load_matrix)
    assert dump(value) == text
    for form in (text, text.rstrip("\n")):  # the empty hex line may be absent
        back = load(form)
        assert back.shape == value.shape and back.dtype == np.uint8


def test_load_missing_payload_is_format_error():
    with pytest.raises(FormatError):
        load_bits("bits 5\n")
    with pytest.raises(FormatError):
        load_matrix("mat 2 3\n")


@pytest.mark.parametrize("gap", ["  ", "\t\t"])
def test_load_rejects_whitespace_inside_payload(gap):
    assert load_bits("bits 16\nabcd\n").tolist() == [1, 0, 1, 0, 1, 0, 1, 1, 1, 1, 0, 0, 1, 1, 0, 1]
    with pytest.raises(FormatError, match="whitespace") as err:
        load_bits("bits 16\nab%scd\n" % gap)
    assert err.value.line == 2


@pytest.mark.parametrize(
    "load, text",
    [
        (load_bits, dump_bits(RandomSource(8).uniform_bits(13))),
        (load_matrix, dump_matrix(RandomSource(9).uniform_matrix(3, 5))),
    ],
    ids=["bits", "mat"],
)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_load_hostile_edits_give_array_or_format_error(load, text, data):
    try:
        value = load(data.draw(edited_text(text)))
    except FormatError:
        return
    assert value.dtype == np.uint8 and value.max(initial=0) <= 1


def test_load_splits_lines_at_newline_only():
    m = RandomSource(10).uniform_matrix(3, 5)
    assert np.array_equal(load_matrix(dump_matrix(m).replace("\n", "\r\n")), m)
    for sep in ("\r", "\x0b", "\x0c", "\x85", "\u2028"):
        with pytest.raises(FormatError) as err:
            load_bits("bits 16" + sep + "abcd\n")
        assert err.value.line == 1


@given(st.lists(st.integers(0, 1), max_size=200))
def test_unpack_hex_round_trips(bits):
    v = np.array(bits, dtype=np.uint8)
    back = gf2core._unpack_hex(gf2core._pack_hex(v), len(v))
    assert back.dtype == np.uint8 and np.array_equal(back, v)


@given(st.lists(st.integers(0, 1), max_size=200))
def test_int_form_is_the_payload_less_its_pad(bits):
    v = np.array(bits, dtype=np.uint8)
    value = gf2core._bits_int(v)
    assert value == int("".join(map(str, bits)) or "0", 2)
    assert gf2core._int_payload(value, len(v)) == gf2core._pack_payload(v)
    back = gf2core._int_bits(value, len(v))
    assert back.dtype == np.uint8 and np.array_equal(back, v)


@given(st.lists(st.integers(0, 1), min_size=1, max_size=200).filter(lambda b: len(b) % 8))
def test_unpack_hex_rejects_every_nonzero_padding(bits):
    raw = bytearray(np.packbits(np.array(bits, dtype=np.uint8)).tobytes())
    pad = 8 - len(bits) % 8
    for pattern in range(1, 1 << pad):
        raw[-1] = raw[-1] & ~((1 << pad) - 1) | pattern
        with pytest.raises(FormatError, match="nonzero padding"):
            gf2core._unpack_hex(raw.hex(), len(bits))


@given(
    st.lists(st.integers(0, 1), min_size=1, max_size=200),
    st.integers(0, 200),
    st.text(alphabet=" \t\r\x0b\x0c\x85\u2028", min_size=1, max_size=3),
    st.data(),
)
def test_unpack_hex_reports_inner_whitespace(bits, nbits, gap, data):
    payload = gf2core._pack_hex(np.array(bits, dtype=np.uint8))
    cut = data.draw(st.integers(1, len(payload) - 1))
    with pytest.raises(FormatError, match="whitespace inside hex payload"):
        gf2core._unpack_hex(payload[:cut] + gap + payload[cut:], nbits)


# --- randomness --------------------------------------------------------------

def _generator_words(gen, count):
    return gen.integers(0, 1 << 64, size=count, dtype=np.uint64)


@pytest.mark.parametrize("seed", [0, 1, 12345, 2**63 + 7, 2**64 - 1])
def test_u64_matches_generator_integers(seed):
    # u64 reads raw PCG64 words; they are the words Generator.integers over
    # the full uint64 range returns, so every seeded stream is unchanged
    rng = RandomSource(seed)
    gen = np.random.Generator(np.random.PCG64(seed))
    for count in (0, 1, 7, 2334):
        got = rng.u64(count)
        assert got.dtype == np.uint64 and got.shape == (count,)
        assert np.array_equal(got, _generator_words(gen, count))
    # interleaved draws consume the same words in the same order
    for length in (1, 64, 130):
        words = [int(w) for w in _generator_words(gen, (length + 63) // 64)]
        expect = [w >> (63 - j) & 1 for w in words for j in range(64)][:length]
        assert rng.uniform_bits(length).tolist() == expect
        # eps = 1/4: threshold 2**62 with no residual, so no extra draws
        words = [int(w) for w in _generator_words(gen, 7)]
        assert rng.bernoulli_bits(7, Fraction(1, 4)).tolist() == [int(w < 1 << 62) for w in words]
    assert np.array_equal(rng.u64(3), _generator_words(gen, 3))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 40), st.integers(0, 90), st.integers(0, 2**64 - 1))
@example(0, 7, 0)
@example(1, 1, 1)
@example(3, 5, 2)
@example(5, 19, 3)
@example(16, 67, 4)
@example(128, 1164, 5)
@example(128, 1167, 6)
def test_draw_payload_is_the_packed_bits(rows, cols, seed):
    # the draw's bits are uniform_matrix's, its payload is _pack_payload of
    # them (the words' leading big-endian bytes, pad bits zero), and the
    # stream advances as far as uniform_matrix takes it
    drawn, plain = RandomSource(seed), RandomSource(seed)
    bits, payload = drawn._bits_and_payload(rows, cols)
    want = plain.uniform_matrix(rows, cols)
    assert bits.dtype == np.uint8 and bits.shape == (rows, cols)
    assert np.array_equal(bits, want)
    nbits = rows * cols
    assert payload.dtype == np.uint8 and payload.shape == ((nbits + 7) // 8,)
    assert payload.tobytes() == gf2core._pack_payload(want)
    words = RandomSource(seed).u64((nbits + 63) // 64)
    leading = b"".join(int(w).to_bytes(8, "big") for w in words)[: len(payload)]
    if nbits % 8:
        assert payload[-1] & 0xFF >> nbits % 8 == 0
        leading = leading[:-1] + bytes([leading[-1] & 0xFF00 >> nbits % 8 & 0xFF])
    assert payload.tobytes() == leading
    assert drawn.u64(1) == plain.u64(1)


def test_random_source_deterministic():
    a = RandomSource(12345)
    b = RandomSource(12345)
    assert np.array_equal(a.uniform_bits(100), b.uniform_bits(100))
    assert np.array_equal(a.bernoulli_bits(100, Fraction(1, 4)), b.bernoulli_bits(100, Fraction(1, 4)))
    c = RandomSource(12346)
    assert not np.array_equal(RandomSource(12345).uniform_bits(100), c.uniform_bits(100))


def test_random_source_seed_domain():
    with pytest.raises(ParameterError):
        RandomSource(-1)
    with pytest.raises(ParameterError):
        RandomSource(1 << 64)


def test_uniform_bits_frozen_snapshot():
    # Regression pin on the PCG64-derived stream: computed once from this
    # implementation, must never drift.
    got = RandomSource(1).uniform_bits(16)
    assert list(got) == [1, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 1, 1, 0]


def test_bernoulli_empirical_rate_within_4_sigma():
    rng = RandomSource(2024)
    n, eps = 1164, Fraction(1, 4)
    total = 0
    draws = 200
    for _ in range(draws):
        total += int(np.count_nonzero(rng.bernoulli_bits(n, eps)))
    mean = draws * n * 0.25
    sigma = (draws * n * 0.25 * 0.75) ** 0.5
    assert abs(total - mean) < 4 * sigma


def test_bernoulli_rejects_out_of_range():
    rng = RandomSource(0)
    for bad in (Fraction(0), Fraction(1, 2), Fraction(3, 4), Fraction(-1, 4)):
        with pytest.raises(ParameterError):
            rng.bernoulli_bits(8, bad)


class _ScriptedWords(RandomSource):
    """A source whose u64 calls return the given word lists, one list per call."""

    def __init__(self, *draws):
        super().__init__(0)
        self.draws = [np.array(words, dtype=np.uint64) for words in draws]
        self.counts = []

    def u64(self, count):
        self.counts.append(count)
        words = self.draws.pop(0)
        assert words.shape == (count,)
        return words


@pytest.mark.parametrize("eps", [Fraction(1, 3), Fraction(2, 5), Fraction(5, 11)])
def test_bernoulli_ties_take_residual_draws_in_order(eps):
    # A word equal to floor(eps * 2**64) is a tie when a residual is left: it
    # is resolved by further draws against the next base-2**64 digits, one
    # tie after another in position order.  Every other word reads word < threshold.
    den = eps.denominator
    threshold, rest = divmod(eps.numerator << 64, den)
    digit, rest = divmod(rest << 64, den)
    second, _ = divmod(rest << 64, den)
    assert rest and 0 < digit < 2**64 - 1 and second > 0
    words = RandomSource(5).u64(12)
    words[0], words[1] = threshold - 1, threshold + 1
    ties = [2, 5, 9]
    words[ties] = threshold
    # tie 2: below the digit, a 1; tie 5: equal, then below the second, a 1;
    # tie 9: above the digit, a 0.  Walked in another order they would differ.
    rng = _ScriptedWords(words, [digit - 1], [digit], [second - 1], [digit + 1])
    bits = rng.bernoulli_bits(len(words), eps)
    assert rng.counts == [12, 1, 1, 1, 1] and rng.draws == []
    assert bits.dtype == np.uint8
    assert bits[ties].tolist() == [1, 1, 0]
    others = [j for j in range(len(words)) if j not in ties]
    assert bits[others].tolist() == [int(words[j] < threshold) for j in others]
    assert bits[:2].tolist() == [1, 0]


def test_bernoulli_residual_terminates():
    rng = RandomSource(99)
    for num, den in ((1, 3), (1, 2), (2, 5)):
        assert rng._bernoulli_residual(num, den) in (0, 1)
    assert rng._bernoulli_residual(0, 7) == 0


def test_derive_deterministic_and_distinct():
    a = RandomSource(42).derive("session-0")
    b = RandomSource(42).derive("session-0")
    c = RandomSource(42).derive("session-1")
    assert a.seed == b.seed != c.seed
    assert gf2core.derive_seed(42, "session-0") == a.seed


@pytest.mark.parametrize(
    "text",
    ["bits +\n", "bits -8\n00\n", "mat 2\n00\n", "bits 1 2\n00\n", "bits %s\n00\n" % ("9" * 5000),
     "mat 4 1_9\n", "bits \u0661\u0669\n", "bits 08\n00\n", "bits +8\n00\n", "mat 00 1\n"],
)
def test_load_rejects_bad_headers(text):
    with pytest.raises(FormatError, match="bad bits header|bad mat header") as err:
        (load_matrix if text.startswith("mat") else load_bits)(text)
    assert err.value.line == 1


def test_decimal_reads_only_canonical_ascii():
    assert [gf2core._decimal(text) for text in ("0", "7", "1164")] == [0, 7, 1164]
    for text in ("", "00", "012", "+1", "-1", "1_0", " 1", "\u0661", "\u00b2", "0x1"):
        with pytest.raises(ValueError):
            gf2core._decimal(text)

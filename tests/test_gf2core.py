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
    "text", ["bits +\n", "bits -8\n00\n", "mat 2\n00\n", "bits 1 2\n00\n", "bits %s\n00\n" % ("9" * 5000)]
)
def test_load_rejects_bad_headers(text):
    with pytest.raises(FormatError, match="bad bits header|bad mat header") as err:
        (load_matrix if text.startswith("mat") else load_bits)(text)
    assert err.value.line == 1

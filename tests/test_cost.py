import pytest
from hypothesis import given
from hypothesis import strategies as st

from nlhb.cost import count_ops
from nlhb.gf2core import ParameterError
from nlhb.nlfunc import DEFAULT_SPEC, IDENTITY_SPEC, NonlinearFunctionSpec, parse_spec


def test_reference_comparison_rows():
    hb = count_ops("hb", 512, 1164)
    assert (hb.scalar_multiplications, hb.scalar_additions) == (595968, 594804)

    nl128 = count_ops("nlhb", 128, 1164, DEFAULT_SPEC)
    assert (nl128.scalar_multiplications, nl128.scalar_additions) == (152868, 151701)

    nl512 = count_ops("nlhb", 512, 1164, DEFAULT_SPEC)
    assert (nl512.scalar_multiplications, nl512.scalar_additions) == (600996, 599829)


@given(k=st.integers(1, 4096), d=st.integers(1, 4096))
def test_linear_closed_form(k, d):
    ops = count_ops("hb", k, d)
    assert ops.scalar_multiplications == k * d
    assert ops.scalar_additions == (k - 1) * d


@given(k=st.integers(1, 512), d=st.integers(1, 2048))
def test_degenerate_window_matches_linear(k, d):
    nl = count_ops("nlhb", k, d, IDENTITY_SPEC)
    hb = count_ops("hb", k, d)
    assert nl.scalar_multiplications == hb.scalar_multiplications
    assert nl.scalar_additions == hb.scalar_additions


def test_totals_equal_breakdown_sum():
    for ops in (
        count_ops("hb", 512, 1164),
        count_ops("nlhb", 128, 1164, DEFAULT_SPEC),
        count_ops("hb+", 64, 256),
        count_ops("nlhb+", 64, 256, DEFAULT_SPEC),
    ):
        assert ops.scalar_multiplications == sum(m for _, m, _ in ops.breakdown)
        assert ops.scalar_additions == sum(a for _, _, a in ops.breakdown)


def _phase(ops, name):
    return next((m, a) for phase, m, a in ops.breakdown if phase == name)


def test_blinded_doubles_the_halves():
    plain = count_ops("nlhb", 64, 256, DEFAULT_SPEC)
    plus = count_ops("nlhb+", 64, 256, DEFAULT_SPEC)
    assert _phase(plus, "matrix_product")[0] == 2 * _phase(plain, "matrix_product")[0]
    assert _phase(plus, "f_evaluation") == (
        2 * _phase(plain, "f_evaluation")[0],
        2 * _phase(plain, "f_evaluation")[1],
    )
    assert _phase(plus, "image_combine") == (0, 256)


def test_higher_degree_monomials_charge_deg_minus_one():
    spec = parse_spec("p=3; g=x1x2x3")
    ops = count_ops("nlhb", 8, 10, spec)
    assert _phase(ops, "f_evaluation") == (10 * 2, 10 * 1)


def test_errors():
    with pytest.raises(ParameterError):
        count_ops("zzz", 8, 16)
    with pytest.raises(ParameterError):
        count_ops("nlhb", 8, 16)  # missing spec
    with pytest.raises(ParameterError):
        count_ops("hb", 8, 16, DEFAULT_SPEC)  # linear with a real window map
    with pytest.raises(ParameterError):
        count_ops("hb", 0, 16)

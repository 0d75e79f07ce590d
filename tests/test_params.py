import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nlhb.gf2core import ParameterError
from nlhb.params import (
    TailProbability,
    ThresholdSearch,
    exact_log2,
    false_accept,
    false_reject,
    find_min_D,
    threshold_u,
)


# --- independent oracle: direct Fraction sums over math.comb -------------------

def oracle_false_accept(d, u):
    return sum(Fraction(math.comb(d, i), 2**d) for i in range(u + 1))


def oracle_false_reject(d, eps, u):
    eps = Fraction(eps)
    return sum(
        math.comb(d, i) * eps**i * (1 - eps) ** (d - i) for i in range(u + 1, d + 1)
    )


def test_false_accept_small_example():
    got = false_accept(4, 1)
    assert got.exact == oracle_false_accept(4, 1) == Fraction(5, 16)


def test_false_reject_small_example():
    got = false_reject(2, Fraction(1, 4), 0)
    assert got.exact == oracle_false_reject(2, Fraction(1, 4), 0) == Fraction(7, 16)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 40), st.data())
def test_tails_match_oracle(d, data):
    u = data.draw(st.integers(0, d))
    eps = data.draw(st.sampled_from([Fraction(1, 4), Fraction(1, 8), Fraction(3, 10), Fraction(87, 250)]))
    assert false_accept(d, u).exact == oracle_false_accept(d, u)
    assert false_reject(d, eps, u).exact == oracle_false_reject(d, eps, u)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 50), st.data())
def test_monotone_in_u(d, data):
    u = data.draw(st.integers(1, d - 1))
    eps = Fraction(1, 4)
    # widening the acceptance band can only raise FA and lower FR
    assert false_accept(d, u - 1).exact <= false_accept(d, u).exact
    assert false_reject(d, eps, u).exact <= false_reject(d, eps, u - 1).exact


def test_edge_thresholds():
    assert false_accept(6, 6).exact == 1
    assert false_reject(6, Fraction(1, 4), 6).exact == 0
    assert false_reject(6, Fraction(1, 4), 6).log2 == float("-inf")
    assert false_accept(6, 0).exact == Fraction(1, 64)


def test_domain_errors():
    with pytest.raises(ParameterError):
        false_accept(0, 0)
    with pytest.raises(ParameterError):
        false_accept(4, 5)
    with pytest.raises(ParameterError):
        false_reject(4, Fraction(1, 2), 2)
    with pytest.raises(ParameterError):
        false_reject(4, Fraction(0), 2)


def test_exact_log2_precision():
    assert exact_log2(Fraction(1, 2**80)) == -80.0
    assert exact_log2(Fraction(1)) == 0.0
    x = Fraction(12345, 67891)
    assert abs(exact_log2(x) - math.log2(12345 / 67891)) < 1e-12
    # huge components
    big = Fraction(3**400, 2**700)
    expected = 400 * math.log2(3) - 700
    assert abs(exact_log2(big) - expected) < 1e-9


def test_tail_probability_log_agrees_with_exact():
    tp = false_reject(100, Fraction(1, 4), 40)
    assert abs(tp.log2 - exact_log2(tp.exact)) < 1e-9


# --- the deployed parameter set ------------------------------------------------

def test_deployed_parameters_certify():
    # D = 1164, eps = 1/4, eps' = 348/1000 -> u = 405; exact tails computed
    # with this module land at about 2^-83.16 and 2^-44.56, inside the
    # 2^-80 / 2^-40 targets.
    u = threshold_u(Fraction(348, 1000), 1164)
    assert u == 405
    fa = false_accept(1164, u)
    fr = false_reject(1164, Fraction(1, 4), u)
    assert fa.log2 <= -80.0
    assert fr.log2 <= -40.0
    assert abs(fa.log2 - -83.161176) < 1e-4
    assert abs(fr.log2 - -44.563199) < 1e-4


def test_find_min_d_for_deployed_targets():
    res = find_min_D(Fraction(1, 4), Fraction(348, 1000), -80.0, -40.0)
    assert isinstance(res, ThresholdSearch)
    assert res.d == 1109  # frozen from this module's own exhaustive scan
    assert res.d <= 1164
    assert res.u == threshold_u(Fraction(348, 1000), res.d)
    # minimality spot check: the few candidates below the answer all fail
    for d in range(res.d - 3, res.d):
        u = threshold_u(Fraction(348, 1000), d)
        ok = false_accept(d, u).log2 <= -80.0 and false_reject(d, Fraction(1, 4), u).log2 <= -40.0
        assert not ok


def test_find_min_d_when_false_reject_binds():
    # false accept alone is met from D = 100; false reject holds the answer to D = 1038
    eps, epsp = Fraction(1, 4), Fraction(348, 1000)
    res = find_min_D(eps, epsp, -10.0, -40.0)
    assert (res.d, res.u) == (1038, 361)
    fa_met = [false_accept(d, threshold_u(epsp, d)).log2 <= -10.0 for d in range(1, 1039)]
    both = [ok and false_reject(d, eps, threshold_u(epsp, d)).log2 <= -40.0
            for d, ok in enumerate(fa_met, 1)]
    assert fa_met.index(True) + 1 == 100
    assert both.index(True) + 1 == res.d


def test_find_min_d_cap():
    with pytest.raises(ParameterError):
        find_min_D(Fraction(1, 4), Fraction(348, 1000), -800.0, -400.0, cap=50)
    # targets above both floors: the scan runs to the cap and finds no D
    with pytest.raises(ParameterError, match="no D <= 200 meets"):
        find_min_D(Fraction(1, 4), Fraction(348, 1000), -80.0, -40.0, cap=200)


@pytest.mark.parametrize("fa, fr", [
    (math.nan, -40.0), (-80.0, math.nan), (math.inf, -40.0), (-80.0, math.inf),
    (-math.inf, -40.0), (-80.0, -math.inf),
    (-52.0, -40.0),  # below -cap - 1: FA(D, u) >= 2^-D
    (-80.0, -102.0),  # below cap * log2(1/4) - 1: FR(D, u) >= (1/4)^D
])
def test_find_min_d_refuses_targets_no_d_meets(fa, fr):
    with pytest.raises(ParameterError, match="finite log2 targets"):
        find_min_D(Fraction(1, 4), Fraction(348, 1000), fa, fr, cap=50)


@pytest.mark.parametrize("eps", [Fraction(1, 4), Fraction(1, 8), Fraction(2, 5)])
def test_tails_stay_above_the_find_min_d_floors(eps):
    # the floors find_min_D refuses below hold with the one bit to spare
    for d in range(1, 80):
        u = threshold_u((eps + Fraction(1, 2)) / 2, d)
        assert false_accept(d, u).log2 >= -d
        assert false_reject(d, eps, u).log2 >= d * math.log2(eps)


def test_find_min_d_rejects_bad_rates():
    with pytest.raises(ParameterError):
        find_min_D(Fraction(348, 1000), Fraction(1, 4), -10, -10)

"""Exact acceptance-threshold analysis for the noisy-response protocols.

The verifier accepts when the response differs from the expected image in at
most u = floor(eps' * D) positions.  Soundness and completeness are exact
binomial tails:

- false accept: a uniform random response lands within distance u,
  sum_{i<=u} C(D, i) / 2**D;
- false reject: honest Bernoulli(eps) noise exceeds u,
  sum_{i>u} C(D, i) eps**i (1-eps)**(D-i).

Everything here is big-integer / rational arithmetic; floats appear only in
the reported log2 values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .gf2core import ParameterError, _rate


def exact_log2(x: Fraction) -> float:
    """log2 of a positive rational, accurate to ~1e-15 even for huge terms."""
    if x < 0:
        raise ParameterError("log2 of a negative rational")
    n, d = x.numerator, x.denominator
    if n == 0:
        return float("-inf")
    sn = max(n.bit_length() - 53, 0)
    sd = max(d.bit_length() - 53, 0)
    return (math.log2(n >> sn) + sn) - (math.log2(d >> sd) + sd)


@dataclass(frozen=True)
class TailProbability:
    """A tail probability, exact, plus its float log2 for display."""

    exact: Fraction
    log2: float

    @classmethod
    def of(cls, exact: Fraction) -> "TailProbability":
        return cls(exact=exact, log2=exact_log2(exact))


def threshold_u(eps_prime, d: int) -> int:
    """Acceptance threshold u = floor(eps' * D)."""
    return int(_rate(eps_prime) * d)


def check_rates(eps, eps_prime) -> tuple[Fraction, Fraction]:
    """The noise rate eps and threshold rate eps' as Fractions, refused unless
    0 < eps < eps' < 1/2."""
    eps, eps_prime = _rate(eps), _rate(eps_prime)
    if not 0 < eps < eps_prime < Fraction(1, 2):
        raise ParameterError("need 0 < eps < eps' < 1/2")
    return eps, eps_prime


def _check_d_u(d: int, u: int):
    if d < 1:
        raise ParameterError("D must be positive")
    if not 0 <= u <= d:
        raise ParameterError("threshold u=%d outside 0..D=%d" % (u, d))


def _binomial_sum(d: int, lo: int, hi: int, num: int, comp: int) -> int:
    """sum_{lo <= i <= hi} C(d, i) num**i comp**(d-i), each term from the one
    before it; an empty range sums to 0."""
    acc = term = math.comb(d, lo) * num**lo * comp ** (d - lo) if lo <= hi else 0
    for i in range(lo + 1, hi + 1):
        term = term * ((d - i + 1) * num) // (i * comp)
        acc += term
    return acc


def false_accept(d: int, u: int) -> TailProbability:
    """Probability that a uniform response verifies: sum_{i<=u} C(D,i) / 2**D."""
    _check_d_u(d, u)
    return TailProbability.of(Fraction(_binomial_sum(d, 0, u, 1, 1), 1 << d))


def false_reject(d: int, eps, u: int) -> TailProbability:
    """Probability that honest Bernoulli(eps) noise exceeds the threshold."""
    _check_d_u(d, u)
    eps = _rate(eps)
    if not Fraction(0) < eps < Fraction(1, 2):
        raise ParameterError("eps must satisfy 0 < eps < 1/2")
    num, den = eps.numerator, eps.denominator  # 1 - eps is (den - num) / den
    return TailProbability.of(Fraction(_binomial_sum(d, u + 1, d, num, den - num), den**d))


@dataclass(frozen=True)
class ThresholdSearch:
    """Result of the smallest-D scan meeting both tail targets."""

    d: int
    u: int
    fa: TailProbability
    fr: TailProbability


# One pair of exact tails at D costs ~D^2 bit operations and takes seconds
# here.  find_min_D evaluates them from scratch for every D it scans, so a
# scan's cost adds up over every D below the one it stops at (~D^3 in all).
MAX_D = 100000


def find_min_D(
    eps,
    eps_prime,
    log2_fa_target: float,
    log2_fr_target: float,
    cap: int = MAX_D,
) -> ThresholdSearch:
    """Smallest D whose threshold u = floor(eps' D) meets both tail targets.

    Scans D = 1, 2, ... exhaustively rather than bisecting: with u tied to
    floor(eps' D) the tails are *not* monotone in D (they jump where u
    steps), so each candidate is evaluated exactly.  Raises when no D <= cap
    meets the targets; at once when a target is not finite or below its floor.
    """
    eps, eps_prime = check_rates(eps, eps_prime)
    # FA(D, u) >= 2^-D, FR(D, u) >= eps^D (its i = D term: u < D); 1 bit for rounding
    fa_floor, fr_floor = -cap - 1, cap * exact_log2(eps) - 1
    if not (fa_floor <= log2_fa_target < math.inf and fr_floor <= log2_fr_target < math.inf):
        raise ParameterError("need finite log2 targets of at least %g / %g" % (fa_floor, fr_floor))
    for d in range(1, cap + 1):
        u = threshold_u(eps_prime, d)
        fa = false_accept(d, u)
        if fa.log2 > log2_fa_target:
            continue
        fr = false_reject(d, eps, u)
        if fr.log2 > log2_fr_target:
            continue
        return ThresholdSearch(d=d, u=u, fa=fa, fr=fr)
    raise ParameterError(
        "no D <= %d meets the targets 2^%g / 2^%g" % (cap, log2_fa_target, log2_fr_target)
    )

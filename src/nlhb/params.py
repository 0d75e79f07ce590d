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

from .gf2core import ParameterError


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
    return int(Fraction(eps_prime) * d)


def _check_d_u(d: int, u: int):
    if d < 1:
        raise ParameterError("D must be positive")
    if not 0 <= u <= d:
        raise ParameterError("threshold u=%d outside 0..D=%d" % (u, d))


def false_accept(d: int, u: int) -> TailProbability:
    """Probability that a uniform response verifies: sum_{i<=u} C(D,i) / 2**D."""
    _check_d_u(d, u)
    acc = 0
    term = 1  # C(d, 0)
    for i in range(u + 1):
        if i:
            term = term * (d - i + 1) // i
        acc += term
    return TailProbability.of(Fraction(acc, 1 << d))


def false_reject(d: int, eps, u: int) -> TailProbability:
    """Probability that honest Bernoulli(eps) noise exceeds the threshold."""
    _check_d_u(d, u)
    eps = Fraction(eps)
    if not Fraction(0) < eps < Fraction(1, 2):
        raise ParameterError("eps must satisfy 0 < eps < 1/2")
    num = eps.numerator
    comp = eps.denominator - num  # (1 - eps) numerator over the same denominator
    if u == d:
        return TailProbability.of(Fraction(0))
    # term_i = C(d,i) * num**i * comp**(d-i); start at i = u+1 and walk up.
    i = u + 1
    term = math.comb(d, i) * num**i * comp ** (d - i)
    acc = term
    while i < d:
        term = term * ((d - i) * num) // ((i + 1) * comp)
        acc += term
        i += 1
    return TailProbability.of(Fraction(acc, eps.denominator**d))


@dataclass(frozen=True)
class ThresholdSearch:
    """Result of the smallest-D scan meeting both tail targets."""

    d: int
    u: int
    fa: TailProbability
    fr: TailProbability


MAX_D = 100000  # the exact tails take seconds here, and their cost grows as D^2


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
    steps), so each candidate is evaluated exactly.  Raises when the cap is
    exceeded.
    """
    eps = Fraction(eps)
    eps_prime = Fraction(eps_prime)
    if not eps < eps_prime < Fraction(1, 2):
        raise ParameterError("need eps < eps' < 1/2")
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

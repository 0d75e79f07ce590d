"""Operation counts for one authentication (prover side = verifier side).

All counts are over GF(2): a scalar multiplication is an AND gate, a scalar
addition an XOR gate.  Noise addition is excluded — both protocol families
pay the identical cost there, so it cancels out of any comparison.

The response map is charged deg−1 multiplications per monomial and one
addition per monomial (the join with x_i included), per output bit.  For the
default window function that is 3 ANDs and 3 XORs per bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf2core import ParameterError
from .nlfunc import IDENTITY_SPEC, NonlinearFunctionSpec
from .protocols import PROTOCOLS


@dataclass(frozen=True)
class OpCount:
    scalar_multiplications: int
    scalar_additions: int
    breakdown: tuple[tuple[str, int, int], ...]
    """Phases as (name, mults, adds); totals are their sums."""


def count_ops(proto: str, k: int, d: int, spec: NonlinearFunctionSpec | None = None) -> OpCount:
    """Exact gate counts for one exchange producing d response bits.

    The challenge has n = d + p columns, so the inner products cost k*n
    multiplications and (k-1)*n additions; the window map adds its per-bit
    cost d times.  Blinded variants run both halves and combine the images.
    """
    if proto not in PROTOCOLS:
        raise ParameterError("unknown protocol %r" % proto)
    if k < 1 or d < 1:
        raise ParameterError("k and d must be positive")
    if proto in ("hb", "hb+"):
        if spec is None:
            spec = IDENTITY_SPEC
        elif spec.p != 0 or spec.monomials:
            raise ParameterError("linear protocols take the identity response map")
    elif spec is None:
        raise ParameterError("%s requires a response-map spec" % proto)

    n = d + spec.p
    halves = 2 if proto.endswith("+") else 1
    f_mults = sum(len(mono) - 1 for mono in spec.monomials)
    f_adds = len(spec.monomials)

    phases = [("matrix_product", halves * k * n, halves * (k - 1) * n)]
    if spec.monomials:
        phases.append(("f_evaluation", halves * d * f_mults, halves * d * f_adds))
    if halves == 2:
        phases.append(("image_combine", 0, d))

    return OpCount(
        scalar_multiplications=sum(m for _, m, _ in phases),
        scalar_additions=sum(a for _, _, a in phases),
        breakdown=tuple(phases),
    )

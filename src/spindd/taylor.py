"""Per-channel suppression factors for Taylor dephasing terms.

A field expanded as B(t) = sum_k a_k t^k dephases through independent
channels; a pi-pulse train rescales each a_k by a dimensionless factor.  Two
evaluation paths are provided: a closed-form CPMG expression and an exact
piecewise-integration oracle for arbitrary pulse patterns.  Both are computed
in exact rational arithmetic (the alternating sums cancel catastrophically in
floating point once k*n gets large); float accessors reduce at the end.

Sign convention: factors are stored signed, with the oracle's leading segment
taken positive.  The closed-form n-pulse expression agrees with the oracle for
every n, which at n = 1 gives -(1 - 2^-k); the Hahn form 1 - 2^-k is the
magnitude convention, exposed as `hahn_factor`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


@dataclass(frozen=True)
class SuppressionFactor:
    k: int  # Taylor order
    n: int  # pulse count
    value: Fraction  # signed, exact

    @property
    def magnitude(self) -> Fraction:
        return abs(self.value)


def hahn_factor(k: int) -> Fraction:
    """Hahn-echo suppression magnitude 1 - 2^-k for the order-k channel."""
    if k < 0:
        raise ValueError("Taylor order k must be non-negative")
    return 1 - Fraction(1, 2**k)


def cpmg_factor(n: int, k: int) -> Fraction:
    """Signed CPMG(n) suppression factor for the order-k Taylor channel.

    (2n)^-(k+1) * [2 + (-1)^n (2n)^(k+1) + 2 * sum_{j=1}^{n-1} (-1)^j (2j+1)^(k+1)]
    evaluated exactly over the integers.
    """
    if n < 1:
        raise ValueError("pulse count n must be >= 1")
    if k < 0:
        raise ValueError("Taylor order k must be non-negative")
    p = k + 1
    return _cpmg_fraction(n, p, sum((-1) ** j * (2 * j + 1) ** p for j in range(1, n)))


def _cpmg_fraction(n: int, p: int, alt_sum: int) -> Fraction:
    """cpmg_factor(n, p - 1) from alt_sum = sum_{j=1}^{n-1} (-1)^j (2j+1)^p."""
    return Fraction(2 + (-1) ** n * (2 * n) ** p + 2 * alt_sum, (2 * n) ** p)


def oracle_factor(pulse_times: Sequence[Fraction], k: int) -> Fraction:
    """Exact signed suppression factor for an arbitrary pulse pattern.

    ``pulse_times`` are fractions of the unit interval, strictly increasing in
    (0, 1).  Returns the alternating-sign integral of t^k over the induced
    segments, normalized by the free-evolution integral 1/(k+1).
    """
    if k < 0:
        raise ValueError("Taylor order k must be non-negative")
    times = [Fraction(t) for t in pulse_times]
    bounds = [Fraction(0)] + times + [Fraction(1)]
    for a, b in zip(bounds, bounds[1:]):
        if not a < b:
            raise ValueError("pulse times must be strictly increasing in (0, 1)")
    p = k + 1
    total = Fraction(0)
    sign = 1
    for a, b in zip(bounds, bounds[1:]):
        total += sign * (b**p - a**p)
        sign = -sign
    return total  # division by 1/(k+1) then multiplication by 1/(k+1) cancels


def suppression_table(n_max: int, k_max: int):
    """All SuppressionFactor entries for n in [1, n_max], k in [0, k_max].

    Equal to cpmg_factor(n, k) entry by entry, but each order's alternating
    sum is carried forward in n instead of summed afresh: O(n_max * k_max)
    big-integer terms instead of O(n_max^2 * k_max).
    """
    alt_sums = [0] * (k_max + 1)  # sum_{j=1}^{n-1} (-1)^j (2j+1)^(k+1)
    table = []
    for n in range(1, n_max + 1):
        for k in range(0, k_max + 1):
            table.append(SuppressionFactor(k=k, n=n, value=_cpmg_fraction(n, k + 1, alt_sums[k])))
            alt_sums[k] += (-1) ** n * (2 * n + 1) ** (k + 1)
    return table

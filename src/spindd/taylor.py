"""Per-channel suppression factors for Taylor dephasing terms.

A field expanded as B(t) = sum_k a_k t^k dephases through independent
channels; a pi-pulse train rescales each a_k by a dimensionless factor.  Two
evaluation paths are provided: a closed-form CPMG expression and an exact
piecewise-integration oracle for arbitrary pulse patterns.  Both are computed
in exact rational arithmetic (the alternating sums cancel catastrophically in
floating point once k*n gets large); floats are taken only at the end.

Sign convention: factors are stored signed, with the oracle's leading segment
taken positive.  The closed-form n-pulse expression agrees with the oracle for
every n, which at n = 1 gives -(1 - 2^-k); the Hahn form 1 - 2^-k is the
magnitude convention, exposed as `hahn_factor`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence


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
    den = (2 * n) ** p
    alt_sum = sum((-1) ** j * (2 * j + 1) ** p for j in range(1, n))
    return Fraction(2 + (-1) ** n * den + 2 * alt_sum, den)


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


def suppression_table(n_max: int, k_max: int) -> list:
    """Rows (n, k, num, den) for n in [1, n_max], k in [0, k_max], n-major.

    num / den is cpmg_factor(n, k) in lowest terms with den > 0, so the pair
    is that Fraction's numerator and denominator.  Each order's alternating
    sum is carried forward in n instead of summed afresh: O(n_max * k_max)
    big-integer terms instead of O(n_max^2 * k_max).  Within an n the powers
    (2n)^p and (2n+1)^p, p = k + 1, are carried forward in p, one
    small-integer multiplication each, and the sign (-1)^n comes from the
    parity of n.
    """
    carried = [2] * (k_max + 1)  # 2 + 2 sum_{j=1}^{n-1} (-1)^j (2j+1)^(k+1)
    table = []
    for n in range(1, n_max + 1):
        even, odd, odd_n = 2 * n, 2 * n + 1, n % 2
        den, term = 1, -2 if odd_n else 2  # (2n)^(k+1); 2 (-1)^n (2n+1)^(k+1)
        for k, c in enumerate(carried):
            den *= even
            term *= odd
            num = c - den if odd_n else c + den
            g = math.gcd(num, den)
            table.append((n, k, num // g, den // g))
            carried[k] = c + term
    return table

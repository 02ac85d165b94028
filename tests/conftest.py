from decimal import Decimal, localcontext

import numpy as np
import pytest

from spindd.field import GAMMA_E
from spindd.sequence import TogglingFunction


def signs(tog: TogglingFunction) -> list:
    """The toggling function's value on each segment between its breakpoints:
    +1 on the first, flipping at every interior breakpoint."""
    return [(-1) ** i for i in range(len(tog.breakpoints) - 1)]


def _segments(tog: TogglingFunction):
    """(t_start, t_end, sign) triples."""
    return zip(tog.breakpoints[:-1], tog.breakpoints[1:], signs(tog))


def ou_chi_quadrature(tog: TogglingFunction, sigma_b: float, tau_c: float,
                      gamma_e: float = GAMMA_E) -> float:
    """Brute-force 2-D quadrature of the OU phase variance.

    chi = g^2 s^2 intint s(t) s(t') exp(-|t-t'|/tau_c) dt dt', integrated with
    scipy.dblquad over each (smooth) segment pair.  Independent of the
    closed-form segment sum and of the Monte Carlo sampler.
    """
    from scipy.integrate import dblquad

    total = 0.0
    segs = list(_segments(tog))
    for a1, b1, s1 in segs:
        for a2, b2, s2 in segs:
            if (a1, b1) == (a2, b2):
                # |t - u| kinks on the diagonal; integrate the ordered
                # triangle u < t and double it
                val, _ = dblquad(
                    lambda u, t: np.exp(-(t - u) / tau_c),
                    a1, b1, lambda t: a1, lambda t: t,
                    epsabs=1e-14, epsrel=1e-11,
                )
                val *= 2.0
            else:
                val, _ = dblquad(
                    lambda t, u: np.exp(-abs(t - u) / tau_c),
                    a1, b1, a2, b2, epsabs=1e-14, epsrel=1e-11,
                )
            total += s1 * s2 * val
    return gamma_e**2 * sigma_b**2 * total


def ou_chi_double_sum(tog: TogglingFunction, sigma_b: float, tau_c: float,
                      gamma_e: float = GAMMA_E) -> float:
    """The OU phase variance as a closed-form double sum over toggling
    segment pairs, evaluated to 50 digits.

    Segment i alone gives int_0^L int_0^L e^{-|u-v|/tc} = 2 tc L - 2 tc^2 f_i
    with f_i = 1 - e^{-L_i/tc}; a pair i < j with gap g between them gives
    tc^2 f_i f_j e^{-g/tc} twice.  The signed terms cancel to O(T/tau_c) of
    their size, which 50 digits hold; independent of the weights ou_chi sums.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        bp = [Decimal(float(t)) for t in tog.breakpoints]
        tc = Decimal(tau_c)
        f = [1 - (-(b - a) / tc).exp() for a, b in zip(bp[:-1], bp[1:])]
        s = signs(tog)
        total = Decimal(0)
        for i, si in enumerate(s):
            total += 2 * tc * (bp[i + 1] - bp[i]) - 2 * tc * tc * f[i]
            for j in range(i + 1, len(f)):
                total += 2 * si * s[j] * tc * tc * f[i] * f[j] * (
                    -(bp[j] - bp[i + 1]) / tc).exp()
        return float(total * (Decimal(gamma_e) * Decimal(sigma_b)) ** 2)


def toggled_sine_quadrature(tog: TogglingFunction, amplitude, frequency, phi0,
                            gamma_e: float = GAMMA_E) -> float:
    """Numeric quadrature of gamma int s(t) b sin(2 pi f t + phi0) dt."""
    from scipy.integrate import quad

    total = 0.0
    for a, b, s in _segments(tog):
        val, _ = quad(
            lambda t: amplitude * np.sin(2 * np.pi * frequency * t + phi0),
            a, b, epsabs=1e-15, epsrel=1e-13, limit=200,
        )
        total += s * val
    return gamma_e * total

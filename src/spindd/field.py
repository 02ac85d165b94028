"""Classical magnetic-field models B(t) and their signed time integrals.

The field seen by the spin is a sum of components: a static offset, a
quasi-static Gaussian draw, an Ornstein-Uhlenbeck process, a deterministic
polynomial, or a synchronized AC sinusoid.  The quantity that matters for
dephasing is the signed phase gamma_e * int s(t) B(t) dt against a toggling
function s(t); deterministic components integrate in closed form per segment
and the OU component is sampled with its running integral from their exact
joint Gaussian update, one matrix product per OU_BLOCK segments, so no
discretization bias enters.

Randomness is counter-based: trajectories are grouped in chunks of CHUNK,
and chunk c and component slot under ``master_seed`` map to a dedicated
Philox stream whose row r belongs to trajectory c * CHUNK + r: field normals
(``draw_normals``, RNG_SCHEME) or the decay's phase normals (DECAY_RNG_SCHEME).
A whole chunk is the unit drawn; a trajectory's normals depend on its index
alone, so results do not depend on execution order, shot count or worker count.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import astuple, dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .sequence import TogglingFunction

#: free-electron gyromagnetic ratio, rad s^-1 T^-1
GAMMA_E = 1.760859e11

#: trajectories per random stream (and per reduction chunk in ``evolve``);
#: part of the random-stream layout, so fixed
CHUNK = 4096
#: the random-stream layouts of the Bloch paths and the decay, in curve metadata
RNG_SCHEME, DECAY_RNG_SCHEME = f"philox-chunk{CHUNK}-v2", f"philox-chunk{CHUNK}-v3"
#: segments per block of the OU forward map, one matrix product each
OU_BLOCK = 64


@dataclass(frozen=True)
class NVParameters:
    """The NV constants that enter the rotating-frame simulation."""

    gamma_e: float = GAMMA_E  # rad s^-1 T^-1
    t1: float = 5.93e-3  # s

    def __post_init__(self):
        if not self.gamma_e > 0:
            raise ValueError("gamma_e must be positive")
        if not self.t1 > 0:
            raise ValueError("t1 must be positive")


@dataclass(frozen=True)
class RngSpec:
    """Deterministic substreams from a 64-bit master seed.

    ``generator(chunk, slot)`` keys Philox with (master_seed, chunk) and
    starts its counter at block ``slot``: one stream per chunk of CHUNK
    trajectories and component slot, which the chunk's trajectories read row
    by row.  ``draw_normals`` and ``evolve.coherence_curve`` call it.
    """

    master_seed: int

    def __post_init__(self):
        if not (0 <= int(self.master_seed) < 2**64):
            raise ValueError("master_seed must fit in 64 bits")

    def generator(self, chunk: int, slot: int) -> np.random.Generator:
        key = (int(self.master_seed) << 64) | int(chunk)
        return np.random.Generator(np.random.Philox(key=key, counter=int(slot) << 192))


# ---------------------------------------------------------------------------
# OU coefficients for segments short against tau_c
#
# The closed form of c2^2 in x = L/tau_c cancels O(1) terms down to O(x^3);
# below _SERIES_BELOW it is summed as a Taylor series instead (Higham,
# Accuracy and Stability of Numerical Algorithms, ch. 1).
# ---------------------------------------------------------------------------

_SERIES_BELOW = 0.1
_SERIES_TERMS = 12
# 2x (1 + e^-x) - 4 (1 - e^-x) = sum_{n>=3} (-1)^(n+1) (2n - 4) x^n / n!
_C2_COEFS = tuple(
    (-1) ** (n + 1) * (2 * n - 4) / math.factorial(n) for n in range(3, 3 + _SERIES_TERMS)
)


def _ou_c2_sq(x):
    """2x - 4 tanh(x/2) for x >= 0: the OU segment integral's variance left
    after its covariance with the end value, in units of (sigma tau_c)^2."""
    small, out = x < _SERIES_BELOW, np.empty_like(x)
    xs, xl = x[small], x[~small]  # each x in one form, NaN in the closed one
    series = np.zeros_like(xs)  # by Horner's rule
    for c in reversed(_C2_COEFS):
        series = series * xs + c
    out[small] = series * xs**3 / (1.0 + np.exp(-xs))
    out[~small] = 2.0 * xl - 4.0 * np.tanh(0.5 * xl)
    return out


# ---------------------------------------------------------------------------
# Field components
#
# Each component draws n_normals_base + n_normals_per_segment * n_seg standard
# normals per trajectory (none when n_normals_base is 0).  Its methods take a
# and b with leading axes ..., segments [a, b] along the last axis, and equal
# one call per set of segments bit for bit.  segment_integrals(a, b, draws) is
# the exact int_a^b B dt: (..., n_seg) without draws (None), (..., n_traj,
# n_seg) from (n_traj, count) draws.  A component that draws also has
# phase_weights(a, b, signs), the weights w of shape (..., count) with
# segment_integrals(a, b, draws) @ signs = draws @ w.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StaticOffset:
    b: float  # Tesla

    n_normals_per_segment = 0
    n_normals_base = 0

    def segment_integrals(self, a, b, draws):
        return self.b * (b - a)


@dataclass(frozen=True)
class QuasiStaticGaussian:
    """One zero-mean Gaussian draw per trajectory, constant in time."""

    sigma_b: float  # Tesla

    n_normals_per_segment = 0
    n_normals_base = 1

    def __post_init__(self):
        if not self.sigma_b >= 0:
            raise ValueError("sigma_b must be non-negative")

    def segment_integrals(self, a, b, draws):
        return self.sigma_b * draws[:, :1] * (b - a)[..., None, :]

    def phase_weights(self, a, b, signs):
        return (self.sigma_b * np.sum(signs * (b - a), axis=-1))[..., None]


@dataclass(frozen=True)
class OrnsteinUhlenbeck:
    """Stationary Gaussian Markov noise: std-dev sigma_b, correlation tau_c."""

    sigma_b: float  # Tesla
    tau_c: float  # s

    n_normals_per_segment = 2
    n_normals_base = 1

    def __post_init__(self):
        if not self.sigma_b >= 0:
            raise ValueError("sigma_b must be non-negative")
        if not self.tau_c > 0:
            raise ValueError("tau_c must be positive")

    def _coefficients(self, a, b):
        """(e, m, c1, c2, sx) of the exact joint (X, int X dt) update over each
        segment [a, b].

        Given X at the segment start, the end value and the segment integral
        are jointly Gaussian:
            X'           = e X      + sx * xi1
            int X dt     = m X      + c1 * xi1 + c2 * xi2
        with x = L/tau_c, e = exp(-x), m = tau_c (1 - e),
        Var[int] = s^2 tau_c^2 (2x - 3 + 4e - e^2),
        Cov[X', int] = s^2 tau_c (1 - e)^2, so that c1 = Cov/sx and
        c2^2 = Var[int] - c1^2 = s^2 tau_c^2 (2x - 4 tanh(x/2)).  1 - e and
        1 - e^2 come from expm1 and c2^2 from a series for small x, so a
        segment short against tau_c loses no precision to cancellation.
        """
        s, tc = self.sigma_b, self.tau_c
        x = (b - a) / tc
        one_m_e = -np.expm1(-x)
        one_m_e2 = -np.expm1(-2.0 * x)
        sx = s * np.sqrt(one_m_e2)
        with np.errstate(divide="ignore", invalid="ignore"):
            c1 = np.where(one_m_e2 > 0, s * tc * one_m_e**2 / np.sqrt(one_m_e2), 0.0)
        c2 = s * tc * np.sqrt(_ou_c2_sq(x))
        return np.exp(-x), tc * one_m_e, c1, c2, sx

    def _block_map(self, a, b):
        """M with (X, xi1_0, xi2_0, ..., xi2_{B-1}) @ M the integrals of the B
        segments [a, b] and X at their end, from X at their start: X entering
        segment i is sum_{k<=i} g_k e^(S_k - S_i), g = (X, sx_0 xi1_0, ...), S
        summing x from 0 at the block's start, so no error grows in S past it."""
        _, m, c1, c2, sx = self._coefficients(a, b)
        n, s = a.shape[-1], np.insert(np.cumsum((b - a) / self.tau_c, axis=-1), 0, 0.0, axis=-1)
        lag = np.where(np.tri(n + 1, dtype=bool).T, s[..., None, :] - s[..., :, None], np.inf)
        g, mx = np.insert(sx, 0, 1.0, axis=-1), np.insert(m, n, 1.0, axis=-1)
        mb = np.zeros(a.shape[:-1] + (1 + 2 * n, n + 1))
        # integral i is m_i X_i + c1_i xi1_i + c2_i xi2_i; column n = B is X_B
        mb[..., np.r_[0, 1:2 * n:2], :] = np.exp(-lag) * g[..., :, None] * mx[..., None, :]
        i = np.arange(n)  # xi1_i's row is 0 at column i before c1_i
        mb[..., 1 + 2 * i, i], mb[..., 2 + 2 * i, i] = c1, c2
        return mb

    def segment_integrals(self, a, b, draws):
        out = np.empty(a.shape[:-1] + (draws.shape[0], a.shape[-1]))
        field = self.sigma_b * draws[:, 0]  # stationary start
        for lo in range(0, a.shape[-1], OU_BLOCK):
            hi = lo + OU_BLOCK  # slices stop at the last segment
            mb = self._block_map(a[..., lo:hi], b[..., lo:hi])
            block = draws[:, 1 + 2 * lo:1 + 2 * hi] @ mb[..., 1:, :]
            block += field[..., None] @ mb[..., :1, :]  # a broadcast product takes larger buffers
            out[..., lo:hi] = block[..., :-1]
            field = block[..., -1].copy()  # a view would hold the block to the next
        return out

    def phase_weights(self, a, b, signs):
        """The adjoint of ``segment_integrals``: sum_i signs_i int_i X dt is
        xi0 s A_0 + sum_i xi1_i (signs_i c1_i + sx_i A_{i+1}) + xi2_i signs_i c2_i,
        where A_i = signs_i m_i + e_i A_{i+1} (A_n = 0) is that sum's
        derivative by the X entering segment i.  A is solved by doubling
        (Hillis & Steele, CACM 29, 1170 (1986)): after the pass of stride k,
        acc_i sums the first 2k terms of A_i and e_i is the product of their
        e, so ceil(log2 n) passes over the whole arrays, leading axes and
        all, give A.  The forward sampler keeps its block maps: a doubling
        pass there re-reads every trajectory's row each pass, where a block
        is one matrix product."""
        e, m, c1, c2, sx = self._coefficients(a, b)
        acc = signs * m
        k = 1
        while k < acc.shape[-1]:
            acc[..., :-k] += e[..., :-k] * acc[..., k:]
            e[..., :-k] *= e[..., k:]
            k *= 2
        w = np.empty(a.shape[:-1] + (1 + 2 * a.shape[-1],))
        w[..., 0] = self.sigma_b * acc[..., 0]
        w[..., 1::2] = signs * c1
        w[..., 1:-2:2] += sx[..., :-1] * acc[..., 1:]
        w[..., 2::2] = signs * c2
        return w


@dataclass(frozen=True)
class Polynomial:
    """Deterministic Taylor field sum_k a_k t^k, coefficients in T s^-k.

    Degree is capped at 12; beyond that the suppression factors underflow and
    the truncated expansion stops being physical.
    """

    coefficients: tuple  # (a_0, a_1, ..., a_K)

    n_normals_per_segment = 0
    n_normals_base = 0

    def __post_init__(self):
        if len(self.coefficients) == 0:
            raise ValueError("polynomial needs at least one coefficient")
        if len(self.coefficients) - 1 > 12:
            raise ValueError("polynomial degree capped at 12")

    def segment_integrals(self, a, b, draws):
        # antiderivative sum_k a_k t^(k+1)/(k+1)
        anti = [0.0] + [c / (k + 1) for k, c in enumerate(self.coefficients)]
        poly = np.polynomial.polynomial.Polynomial(anti)
        return poly(b) - poly(a)


@dataclass(frozen=True)
class SinusoidAC:
    """b * sin(2 pi f t + phi0)."""

    amplitude: float  # Tesla
    frequency: float  # Hz
    phi0: float = 0.0  # rad

    n_normals_per_segment = 0
    n_normals_base = 0

    def segment_integrals(self, a, b, draws):
        w = 2 * np.pi * self.frequency
        if w == 0.0:
            return self.amplitude * np.sin(self.phi0) * (b - a)
        return self.amplitude * (np.cos(w * a + self.phi0) - np.cos(w * b + self.phi0)) / w


Component = Union[StaticOffset, QuasiStaticGaussian, OrnsteinUhlenbeck, Polynomial, SinusoidAC]


@dataclass(frozen=True)
class FieldModel:
    """Pointwise sum of field components."""

    components: Tuple[Component, ...]

    def __post_init__(self):
        if len(self.components) == 0:
            raise ValueError("field model needs at least one component")

    @staticmethod
    def of(*components: Component) -> "FieldModel":
        return FieldModel(tuple(components))

    def digest(self) -> str:
        """SHA-256 prefix of each component's class name and field values as
        floats, in order, so that equal ints, floats and numpy scalars agree."""
        blob = json.dumps([(type(c).__name__, np.hstack(astuple(c)).astype(float).tolist())
                           for c in self.components])
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def is_stochastic(self) -> bool:
        return any(c.n_normals_base > 0 for c in self.components)

    def quasi_static_ratio(self) -> float:
        """Diagnostic gamma_e * sigma_b * tau_c for the slowest OU component.

        Large values indicate the slow-fluctuation regime; the exact inequality
        the regime requires is left to the caller (see module docs).
        """
        ratios = [
            GAMMA_E * c.sigma_b * c.tau_c
            for c in self.components
            if isinstance(c, OrnsteinUhlenbeck)
        ]
        return max(ratios) if ratios else math.inf


# ---------------------------------------------------------------------------
# Signed phase accumulation
# ---------------------------------------------------------------------------


def draw_normals(model: FieldModel, n_seg: int, rng: Optional[RngSpec], chunk: int,
                 rows: int) -> list:
    """Each component slot's standard normals for rows 0..rows-1 of chunk
    ``chunk`` over ``n_seg`` segments: shape (rows, count) per stochastic
    slot, None for a deterministic one.

    Row r of chunk c is trajectory c * CHUNK + r, and it is row r of the
    Philox stream (master_seed, c, slot) read as a row-major (rows, count)
    array.  A trajectory's normals therefore depend on (seed, index, slot,
    count) alone, not on how many rows are drawn, and draws made once serve
    every toggling function with ``n_seg`` segments.
    """
    out = []
    for slot, comp in enumerate(model.components):
        draws = None
        if comp.n_normals_base > 0:
            if rng is None:
                raise ValueError("stochastic field model requires an RngSpec")
            count = comp.n_normals_base + comp.n_normals_per_segment * n_seg
            draws = rng.generator(chunk, slot).standard_normal((rows, count))
        out.append(draws)
    return out


def segment_phases(model: FieldModel, tog: TogglingFunction, draws: list, rows: int,
                   gamma_e: float = GAMMA_E) -> np.ndarray:
    """Unsigned per-segment phases gamma_e * int_seg B dt, shape (..., rows,
    n_seg) for breakpoints (..., n_seg + 1), from the normals ``draws`` that
    ``draw_normals`` returns for ``rows`` trajectories and this segment count.

    Deterministic components contribute identically to every trajectory; the
    stochastic ones are sampled exactly from each trajectory's own normals.
    """
    bp = np.asarray(tog.breakpoints)
    a, b = bp[..., :-1], bp[..., 1:]
    shape = a.shape[:-1] + (rows, a.shape[-1])
    out = None
    for comp, comp_draws in zip(model.components, draws):
        # a deterministic component's integrals have one row, a stochastic
        # one's are a fresh full-shape array that the sum takes over
        part = comp.segment_integrals(a, b, comp_draws).reshape(shape[:-2] + (-1, shape[-1]))
        if out is None:
            out = part
        elif out.shape == shape:
            out += part
        else:  # the sum of two terms commutes exactly
            out = np.add(part, out, out=part if part.shape == shape else None)
        del part  # before the next component's integrals are computed
    if out.shape != shape:  # deterministic components only
        return np.broadcast_to(out, shape) * gamma_e
    out *= gamma_e
    return out


def phase_map(model: FieldModel, breakpoints, gamma_e: float = GAMMA_E):
    """A trajectory's signed phase gamma_e * int s(t) B(t) dt as a linear map
    of its normals ``draws`` (from ``draw_normals``): (c, weights) with phase
    c + sum_slot draws[slot] @ weights[slot], for the toggling function
    (``sequence.TogglingFunction``) of ``breakpoints``.  The deterministic
    components make up c; their weights, like their draws, are None.
    Leading axes of ``breakpoints`` (``sequence.on_grid``) carry over to c
    and every weight."""
    bp = np.asarray(breakpoints, dtype=float)
    a, b = bp[..., :-1], bp[..., 1:]
    signs = np.where(np.arange(a.shape[-1]) % 2, -1.0, 1.0)
    det = np.zeros(a.shape)
    weights = []
    for comp in model.components:
        if comp.n_normals_base > 0:
            weights.append(gamma_e * comp.phase_weights(a, b, signs))
        else:
            det += comp.segment_integrals(a, b, None)
            weights.append(None)
    return np.sum(gamma_e * det * signs, axis=-1), weights


# ---------------------------------------------------------------------------
# Analytic OU dephasing exponent against an arbitrary toggling function
# ---------------------------------------------------------------------------


def ou_chi(
    tog: TogglingFunction, sigma_b: float, tau_c: float, gamma_e: float = GAMMA_E
) -> float:
    """Variance of the signed OU phase: chi = g^2 s^2 intint s s' e^{-|t-t'|/tc}.

    The phase is linear in independent standard normals, so chi is the sum of
    its squared weights (``phase_map``), with nothing to cancel; the Gaussian
    coherence is exp(-chi/2) (``evolve.gaussian_coherence`` for any model).
    """
    _, (w,) = phase_map(FieldModel.of(OrnsteinUhlenbeck(sigma_b, tau_c)), tog.breakpoints,
                        gamma_e)
    return float(np.sum(w * w))

"""Classical magnetic-field models B(t) and their signed time integrals.

The field seen by the spin is a sum of components: a static offset, a
quasi-static Gaussian draw, an Ornstein-Uhlenbeck process, a deterministic
polynomial, or a synchronized AC sinusoid.  The quantity that matters for
dephasing is the signed phase gamma_e * int s(t) B(t) dt against a toggling
function s(t); deterministic components integrate in closed form per segment
and the OU component is sampled jointly with its running integral (the pair
is Gaussian with known covariance), so no discretization bias enters.

Randomness is counter-based: trajectories are grouped in chunks of CHUNK,
and chunk c and component slot under ``master_seed`` map to a dedicated
Philox stream whose row r belongs to trajectory c * CHUNK + r (layout
RNG_SCHEME).  A trajectory's normals therefore depend on its index alone,
and results are independent of execution order, shot count and worker count.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .sequence import TogglingFunction

#: free-electron gyromagnetic ratio, rad s^-1 T^-1
GAMMA_E = 1.760859e11

#: trajectories per random stream (and per reduction chunk in ``evolve``);
#: part of the random-stream layout, so fixed
CHUNK = 4096
#: the random-stream layout, recorded in every Monte Carlo curve's metadata
RNG_SCHEME = f"philox-chunk{CHUNK}-v2"


@dataclass(frozen=True)
class NVParameters:
    """Documentation-grade NV constants plus the two that enter dynamics.

    Only gamma_e and t1 ever appear in the rotating-frame simulation;
    zero_field_splitting and static_field_b0 are carried for provenance.
    """

    gamma_e: float = GAMMA_E  # rad s^-1 T^-1
    t1: float = 5.93e-3  # s
    zero_field_splitting: float = 2.88e9  # Hz
    static_field_b0: float = 15e-4  # T (15 G)

    def __post_init__(self):
        if self.gamma_e <= 0:
            raise ValueError("gamma_e must be positive")
        if self.t1 <= 0:
            raise ValueError("t1 must be positive")


@dataclass(frozen=True)
class RngSpec:
    """Deterministic substreams from a 64-bit master seed.

    ``generator(index, slot)`` keys Philox with (master_seed, index) and
    starts its counter at block ``slot``.  ``draw_normals`` passes the chunk
    ordinal as ``index``, so (master_seed, chunk, slot) is one stream that
    the chunk's trajectories read row by row.
    """

    master_seed: int

    def __post_init__(self):
        if not (0 <= int(self.master_seed) < 2**64):
            raise ValueError("master_seed must fit in 64 bits")

    def generator(self, index: int, slot: int = 0) -> np.random.Generator:
        key = (int(self.master_seed) << 64) | int(index)
        return np.random.Generator(np.random.Philox(key=key, counter=int(slot) << 192))


# ---------------------------------------------------------------------------
# OU coefficients for segments short against tau_c
#
# The closed forms in x = L/tau_c cancel O(1) terms down to O(x^2) or O(x^3);
# below _SERIES_BELOW they are summed as Taylor series instead (Higham,
# Accuracy and Stability of Numerical Algorithms, ch. 1).
# ---------------------------------------------------------------------------

_SERIES_BELOW = 0.1
_SERIES_TERMS = 12
# g(x) = x - 1 + e^-x = sum_{n>=2} (-1)^n x^n / n!
_G_COEFS = tuple((-1) ** n / math.factorial(n) for n in range(2, 2 + _SERIES_TERMS))
# 2x (1 + e^-x) - 4 (1 - e^-x) = sum_{n>=3} (-1)^(n+1) (2n - 4) x^n / n!
_C2_COEFS = tuple(
    (-1) ** (n + 1) * (2 * n - 4) / math.factorial(n) for n in range(3, 3 + _SERIES_TERMS)
)


def _power_series(x, coefs, first):
    """sum_i coefs[i] x^(first + i) by Horner's rule."""
    acc = np.zeros_like(x)
    for c in reversed(coefs):
        acc = acc * x + c
    return acc * x**first


def _ou_g(x):
    """g(x) = x - 1 + exp(-x) for x >= 0, to a few ulps."""
    xs = np.minimum(x, _SERIES_BELOW)
    return np.where(x < _SERIES_BELOW, _power_series(xs, _G_COEFS, 2), x + np.expm1(-x))


def _ou_c2_sq(x):
    """2x - 4 tanh(x/2) for x >= 0: the OU segment integral's variance left
    after its covariance with the end value, in units of (sigma tau_c)^2."""
    xs = np.minimum(x, _SERIES_BELOW)
    small = _power_series(xs, _C2_COEFS, 3) / (1.0 + np.exp(-xs))
    return np.where(x < _SERIES_BELOW, small, 2.0 * x - 4.0 * np.tanh(0.5 * x))


# ---------------------------------------------------------------------------
# Field components
#
# Each component draws n_normals_base + n_normals_per_segment * n_seg standard
# normals per trajectory (none when n_normals_base is 0), and
# segment_integrals(a, b, draws) returns its exact int_a^b B dt over the
# segments [a, b] from them: shape (n_seg,) when it draws nothing (draws is
# None), (n_traj, n_seg) otherwise.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StaticOffset:
    b: float  # Tesla

    n_normals_per_segment = 0
    n_normals_base = 0

    def segment_integrals(self, a, b, draws):
        return self.b * (b - a)

    def to_dict(self):
        return {"type": "static_offset", "b_T": self.b}


@dataclass(frozen=True)
class QuasiStaticGaussian:
    """One zero-mean Gaussian draw per trajectory, constant in time."""

    sigma_b: float  # Tesla

    n_normals_per_segment = 0
    n_normals_base = 1

    def __post_init__(self):
        if self.sigma_b < 0:
            raise ValueError("sigma_b must be non-negative")

    def segment_integrals(self, a, b, draws):
        return self.sigma_b * draws[:, :1] * (b - a)[None, :]

    def to_dict(self):
        return {"type": "quasi_static_gaussian", "sigma_b_T": self.sigma_b}


@dataclass(frozen=True)
class OrnsteinUhlenbeck:
    """Stationary Gaussian Markov noise: std-dev sigma_b, correlation tau_c."""

    sigma_b: float  # Tesla
    tau_c: float  # s

    n_normals_per_segment = 2
    n_normals_base = 1

    def __post_init__(self):
        if self.sigma_b < 0:
            raise ValueError("sigma_b must be non-negative")
        if self.tau_c <= 0:
            raise ValueError("tau_c must be positive")

    def segment_integrals(self, a, b, draws):
        """Exact joint (X, int X dt) update, segment by segment.

        Given X at the segment start, the end value and the segment integral
        are jointly Gaussian:
            X'           = e X      + sx * xi1
            int X dt     = m(X)     + c1 * xi1 + c2 * xi2
        with x = L/tau_c, e = exp(-x), m(X) = X tau_c (1 - e),
        Var[int] = s^2 tau_c^2 (2x - 3 + 4e - e^2),
        Cov[X', int] = s^2 tau_c (1 - e)^2, so that c1 = Cov/sx and
        c2^2 = Var[int] - c1^2 = s^2 tau_c^2 (2x - 4 tanh(x/2)).  1 - e and
        1 - e^2 come from expm1 and c2^2 from a series for small x, so a
        segment short against tau_c loses no precision to cancellation.
        """
        s, tc = self.sigma_b, self.tau_c
        x = (b - a) / tc
        e = np.exp(-x)
        one_m_e = -np.expm1(-x)
        one_m_e2 = -np.expm1(-2.0 * x)
        sx = s * np.sqrt(one_m_e2)
        with np.errstate(divide="ignore", invalid="ignore"):
            c1 = np.where(one_m_e2 > 0, s * tc * one_m_e**2 / np.sqrt(one_m_e2), 0.0)
        c2 = s * tc * np.sqrt(_ou_c2_sq(x))
        mean_coef = tc * one_m_e
        out = np.empty((draws.shape[0], x.size))
        field = s * draws[:, 0]  # stationary start
        for i in range(x.size):
            xi1 = draws[:, 1 + 2 * i]
            xi2 = draws[:, 2 + 2 * i]
            out[:, i] = field * mean_coef[i] + c1[i] * xi1 + c2[i] * xi2
            field = field * e[i] + sx[i] * xi1
        return out

    def to_dict(self):
        return {"type": "ornstein_uhlenbeck", "sigma_b_T": self.sigma_b, "tau_c_s": self.tau_c}


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

    def to_dict(self):
        return {"type": "polynomial", "coefficients": list(self.coefficients)}


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

    def to_dict(self):
        return {
            "type": "sinusoid_ac",
            "amplitude_T": self.amplitude,
            "frequency_Hz": self.frequency,
            "phi0_rad": self.phi0,
        }


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
        blob = json.dumps([c.to_dict() for c in self.components], sort_keys=True)
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


def draw_normals(model: FieldModel, n_seg: int, rng: Optional[RngSpec], indices) -> list:
    """Each component slot's standard normals for trajectories ``indices`` over
    ``n_seg`` segments: shape (n_traj, count) per stochastic slot, stored
    column-contiguous, None for a deterministic one.

    Trajectory idx = c * CHUNK + r takes row r of the Philox stream
    (master_seed, c, slot) read as a row-major (rows, count) array, so its
    normals depend on (seed, idx, slot, count) alone, not on which other
    indices share the call: draws made once serve every toggling function
    with ``n_seg`` segments.  Each chunk's stream is drawn once, up to the
    largest row asked of it.
    """
    indices = np.atleast_1d(np.asarray(indices, dtype=np.int64))
    chunks, rows = np.divmod(indices, CHUNK)
    # rows 0..n-1 of one chunk in order, as every curve asks: the chunk's
    # draw is the answer, with no gather copy.  Compared as bytes: an array
    # comparison or two lists raise the peak resident memory by about 0.1 MB
    whole = (0 < indices.size <= CHUNK and rows[0] == 0
             and indices.tobytes() == np.arange(indices[0], indices[0] + indices.size).tobytes())
    out = []
    for slot, comp in enumerate(model.components):
        draws = None
        if comp.n_normals_base > 0:
            if rng is None:
                raise ValueError("stochastic field model requires an RngSpec")
            count = comp.n_normals_base + comp.n_normals_per_segment * n_seg
            if whole:
                draws = rng.generator(int(chunks[0]), slot).standard_normal(
                    (indices.size, count))
            else:
                # gathered row by row, then transposed once: a fancy-indexed
                # write into a column-major array is several times slower
                draws = np.empty((indices.size, count))
                # the chunks present; np.unique would import numpy.ma, about
                # 0.9 MB of resident memory
                for c in sorted(set(chunks.tolist())):
                    mine = np.flatnonzero(chunks == c)
                    block = rng.generator(c, slot).standard_normal(
                        (int(rows[mine].max()) + 1, count))
                    draws[mine] = block[rows[mine]]
            draws = np.asfortranarray(draws)
        out.append(draws)
    return out


def segment_phases(
    model: FieldModel,
    tog: TogglingFunction,
    rng: Optional[RngSpec],
    indices,
    gamma_e: float = GAMMA_E,
    draws: Optional[list] = None,
) -> np.ndarray:
    """Unsigned per-segment phases gamma_e * int_seg B dt, shape (n_traj, n_seg).

    Deterministic components contribute identically to every trajectory; the
    stochastic ones are sampled exactly from each trajectory's own normals.
    ``indices`` may be a range/array of trajectory ordinals.  ``draws`` are
    the normals ``draw_normals`` returns for these indices and this segment
    count; they are drawn here when not given.
    """
    indices = np.atleast_1d(np.asarray(indices, dtype=np.int64))
    bp = np.asarray(tog.breakpoints)
    a, b = bp[:-1], bp[1:]
    if draws is None:
        draws = draw_normals(model, a.size, rng, indices)
    out = np.zeros((indices.size, a.size))
    for comp, comp_draws in zip(model.components, draws):
        out += comp.segment_integrals(a, b, comp_draws)
    return gamma_e * out


def signed_phase_batch(
    model: FieldModel,
    tog: TogglingFunction,
    rng: Optional[RngSpec],
    indices,
    gamma_e: float = GAMMA_E,
) -> np.ndarray:
    """Accumulated phases gamma_e * int s(t) B(t) dt for many trajectories."""
    phases = segment_phases(model, tog, rng, indices, gamma_e)
    signs = np.asarray(tog.signs, dtype=float)
    return phases @ signs


def signed_phase(
    model: FieldModel,
    tog: TogglingFunction,
    rng: Optional[RngSpec] = None,
    index: int = 0,
    gamma_e: float = GAMMA_E,
) -> float:
    """Accumulated phase of one trajectory against the toggling function."""
    return float(signed_phase_batch(model, tog, rng, [index], gamma_e)[0])


# ---------------------------------------------------------------------------
# Analytic OU dephasing exponent against an arbitrary toggling function
# ---------------------------------------------------------------------------


def ou_chi(
    tog: TogglingFunction, sigma_b: float, tau_c: float, gamma_e: float = GAMMA_E
) -> float:
    """Variance of the signed OU phase: chi = g^2 s^2 intint s s' e^{-|t-t'|/tc}.

    Closed-form double sum over toggling segment pairs; the Gaussian coherence
    is exp(-chi/2).  Serves as the deterministic counterpart of the Monte
    Carlo path (and of the brute-force quadrature oracle used in tests).
    """
    bp = np.asarray(tog.breakpoints)
    signs = np.asarray(tog.signs, dtype=float)
    starts, ends = bp[:-1], bp[1:]
    lengths = ends - starts
    tc = tau_c
    # diagonal: int_0^L int_0^L e^{-|u-v|/tc} = 2 tc L - 2 tc^2 (1 - e^{-L/tc})
    # = 2 tc^2 g(L/tc)
    diag = 2 * tc**2 * _ou_g(lengths / tc)
    total = float(np.sum(signs**2 * diag))
    # off-diagonal i<j with gap g = starts[j] - ends[i]:
    # tc^2 (1 - e^{-Li/tc})(1 - e^{-Lj/tc}) e^{-g/tc}
    f = -np.expm1(-lengths / tc)
    for i in range(lengths.size - 1):
        g = starts[i + 1:] - ends[i]
        total += 2.0 * signs[i] * float(
            np.sum(signs[i + 1:] * tc**2 * f[i] * f[i + 1:] * np.exp(-g / tc))
        )
    return gamma_e**2 * sigma_b**2 * total

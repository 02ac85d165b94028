"""Classical magnetic-field models B(t) and their signed time integrals.

The field seen by the spin is a sum of components: a static offset, a
quasi-static Gaussian draw, an Ornstein-Uhlenbeck process, a deterministic
polynomial, or a synchronized AC sinusoid.  The quantity that matters for
dephasing is the signed phase gamma_e * int s(t) B(t) dt against a toggling
function s(t); deterministic components integrate in closed form per segment
and the OU component is sampled jointly with its running integral (the pair
is Gaussian with known covariance), so no discretization bias enters.

Randomness is counter-based: trajectory ``index`` under ``master_seed`` maps
to a dedicated Philox stream, so results are independent of execution order
and worker count.
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
    """Deterministic per-trajectory substreams from a 64-bit master seed.

    Trajectory ``index`` and component slot select a Philox counter block, so
    (master_seed, index) pins the trajectory bit-exactly.
    """

    master_seed: int

    def __post_init__(self):
        if not (0 <= int(self.master_seed) < 2**64):
            raise ValueError("master_seed must fit in 64 bits")

    def generator(self, index: int, slot: int = 0) -> np.random.Generator:
        key = (int(self.master_seed) << 64) | int(index)
        return np.random.Generator(np.random.Philox(key=key, counter=int(slot) << 192))


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
        with e = exp(-L/tau_c), m(X) = X tau_c (1 - e),
        Var[int] = s^2 tau_c^2 (2 L/tau_c - 3 + 4 e - e^2),
        Cov[X', int] = s^2 tau_c (1 - e)^2.
        """
        s, tc = self.sigma_b, self.tau_c
        lengths = b - a
        e = np.exp(-lengths / tc)
        sx = s * np.sqrt(np.maximum(1.0 - e**2, 0.0))
        var_i = s**2 * tc**2 * (2 * lengths / tc - 3.0 + 4.0 * e - e**2)
        cov = s**2 * tc * (1.0 - e) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            c1 = np.where(sx > 0, cov / np.where(sx > 0, sx, 1.0), 0.0)
        c2 = np.sqrt(np.maximum(var_i - c1**2, 0.0))
        mean_coef = tc * (1.0 - e)
        out = np.empty((draws.shape[0], lengths.size))
        x = s * draws[:, 0]  # stationary start
        for i in range(lengths.size):
            xi1 = draws[:, 1 + 2 * i]
            xi2 = draws[:, 2 + 2 * i]
            out[:, i] = x * mean_coef[i] + c1[i] * xi1 + c2[i] * xi2
            x = x * e[i] + sx[i] * xi1
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
    ``n_seg`` segments: shape (n_traj, count) per stochastic slot, None for a
    deterministic one.

    Row ``idx`` of slot ``slot`` is the first ``count`` normals of the Philox
    stream (master_seed, idx, slot), so it depends on nothing else: draws made
    once serve every toggling function with ``n_seg`` segments.
    """
    indices = np.atleast_1d(np.asarray(indices, dtype=np.int64))
    out = []
    for slot, comp in enumerate(model.components):
        draws = None
        if comp.n_normals_base > 0:
            if rng is None:
                raise ValueError("stochastic field model requires an RngSpec")
            count = comp.n_normals_base + comp.n_normals_per_segment * n_seg
            draws = np.empty((indices.size, count))
            for row, idx in enumerate(indices):
                draws[row] = rng.generator(int(idx), slot).standard_normal(count)
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
    stochastic ones are sampled exactly per (master_seed, index, component).
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
    diag = 2 * tc * lengths - 2 * tc**2 * (1.0 - np.exp(-lengths / tc))
    total = float(np.sum(signs**2 * diag))
    # off-diagonal i<j with gap g = starts[j] - ends[i]:
    # tc^2 (1 - e^{-Li/tc})(1 - e^{-Lj/tc}) e^{-g/tc}
    f = 1.0 - np.exp(-lengths / tc)
    for i in range(lengths.size - 1):
        g = starts[i + 1:] - ends[i]
        total += 2.0 * signs[i] * float(
            np.sum(signs[i + 1:] * tc**2 * f[i] * f[i + 1:] * np.exp(-g / tc))
        )
    return gamma_e**2 * sigma_b**2 * total

"""Classical magnetic-field models B(t) and their signed time integrals.

The field seen by the spin is a sum of components: a static offset, a
quasi-static Gaussian draw, an Ornstein-Uhlenbeck process, a deterministic
polynomial, or a synchronized AC sinusoid.  The quantity that matters for
dephasing is the signed phase gamma_e * int s(t) B(t) dt against a toggling
function s(t); deterministic components integrate in closed form per segment
and the OU component is sampled with its running integral from their exact
joint Gaussian update, carried forward one segment at a time, so no
discretization bias enters.  ``phase_stream`` yields each segment's phases
in turn, so that a caller can use and drop them while they are in cache;
``segment_phases`` collects that stream.

Randomness is counter-based: trajectories are grouped in chunks of CHUNK,
and chunk c and component slot under ``master_seed`` map to a dedicated
SFC64 stream whose row r belongs to trajectory c * CHUNK + r: field normals
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
RNG_SCHEME, DECAY_RNG_SCHEME = f"sfc64-chunk{CHUNK}-v4", f"sfc64-chunk{CHUNK}-decay-v4"
#: values per temporary array of the OU terms that ``segment_phases`` takes for
#: a run of segments at once
STREAM_WORDS = 2**13


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

    ``generator(chunk, slot)`` seeds SFC64 from numpy's SeedSequence of
    ``master_seed`` spawned at key (chunk, slot), as ``SeedSequence.spawn``
    keys independent parallel streams: one stream per chunk of CHUNK
    trajectories and component slot, which the chunk's trajectories read row
    by row.  ``draw_normals`` and ``evolve.coherence_curve`` call it.  SFC64
    is Doty-Humphrey's Small Fast Chaotic generator, tested with his
    PractRand suite; a (200, 405) block of normals takes it 1.2-1.3 ms on
    one core of an AVX-512 Xeon, against 1.7-1.8 ms for numpy's Philox.
    """

    master_seed: int

    def __post_init__(self):
        if not (0 <= int(self.master_seed) < 2**64):
            raise ValueError("master_seed must fit in 64 bits")

    def generator(self, chunk: int, slot: int) -> np.random.Generator:
        seq = np.random.SeedSequence(int(self.master_seed), spawn_key=(int(chunk), int(slot)))
        return np.random.Generator(np.random.SFC64(seq))


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
    # each x in one form, NaN in the closed one; a form only where an x takes it
    small, out = x < _SERIES_BELOW, np.empty_like(x)
    if small.any():
        xs = x[small]
        series = np.zeros_like(xs)  # by Horner's rule
        for c in reversed(_C2_COEFS):
            series = series * xs + c
        out[small] = series * xs**3 / (1.0 + np.exp(-xs))
    if not small.all():
        xl = x[~small]
        out[~small] = 2.0 * xl - 4.0 * np.tanh(0.5 * xl)
    return out


# ---------------------------------------------------------------------------
# Field components
#
# Each component draws n_normals_base + n_normals_per_segment * n_seg standard
# normals per trajectory (none when n_normals_base is 0).  Its methods take a
# and b with leading axes ..., segments [a, b] along the last axis, and equal
# one call per set of segments bit for bit.  A deterministic component has
# segment_integrals(a, b), the exact int_a^b B dt of shape (..., n_seg).
# A component that draws has segment_stream(a, b, draws, scale, out), which
# yields scale * int_a^b B dt of each segment in turn, shape (..., n_traj),
# from (n_traj, count) draws, and phase_weights(a, b, signs), the weights w
# of shape (..., count) with sum_i signs_i int_i B dt = draws @ w.  With
# ``out`` of shape (n_seg, ..., n_traj), segment i's integrals are out[i],
# the same values bit for bit, their terms in the draws taken in bulk before
# the first.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StaticOffset:
    b: float  # Tesla

    n_normals_per_segment = 0
    n_normals_base = 0

    def segment_integrals(self, a, b):
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

    def segment_stream(self, a, b, draws, scale=1.0, out=None):
        w = np.moveaxis(scale * self.sigma_b * (b - a), -1, 0)[..., None]
        if out is None:
            return (wi * draws[:, 0] for wi in w)
        return iter(np.multiply(w, draws[:, 0], out=out))

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

    def segment_stream(self, a, b, draws, scale=1.0, out=None):
        """scale * int X dt over each segment [a, b] in turn: m_i X + c1_i xi1_i
        + c2_i xi2_i for segment i, after which X <- e_i X + sx_i xi1_i, from
        X = sigma_b xi0 at the start (stationary).  Trajectory r's xi0, xi1_i
        and xi2_i are draws[r, 0], draws[r, 1 + 2 i] and draws[r, 2 + 2 i].
        With ``out``, c1 xi1 + c2 xi2 is taken for every segment before the
        first, c2 xi2 in runs of at most STREAM_WORDS values: a temporary the
        size of the phases, beside them and the draws, took glibc malloc's
        heap past its trim threshold, so that each bloch spin lock faulted
        1.1 MB of pages in again (x86-64 Linux).  X is then carried through
        each run in a buffer, and m X added to the run's out at once."""
        e, m, c1, c2, sx = (np.moveaxis(c, -1, 0)[..., None] for c in self._coefficients(a, b))
        m, c1, c2 = scale * m, scale * c1, scale * c2
        lead = (slice(None),) + (None,) * (a.ndim - 1)  # segment, leading axes, trajectory
        xi1, xi2 = draws[:, 1::2].T[lead], draws[:, 2::2].T[lead]
        n, shape = a.shape[-1], a.shape[:-1] + draws.shape[:1]
        if out is None:
            field = np.empty(shape)
            field[...] = self.sigma_b * draws[:, 0]
            for i in range(n):
                part = c1[i] * xi1[i]
                part += c2[i] * xi2[i]
                part += m[i] * field
                yield part
                field *= e[i]
                field += sx[i] * xi1[i]
            return
        np.multiply(c1, xi1, out=out)
        run = stream_run(math.prod(shape))
        for lo in range(0, n, run):
            out[lo:lo + run] += c2[lo:lo + run] * xi2[lo:lo + run]
        # X entering each segment of a run and the next run, and the run's
        # kicks sx xi1: X <- e X + kick
        x = np.empty((min(run, n) + 1,) + shape)
        kick = np.empty((min(run, n),) + shape)
        x[0] = self.sigma_b * draws[:, 0]
        for lo in range(0, n, run):
            k = min(run, n - lo)
            np.multiply(sx[lo:lo + k], xi1[lo:lo + k], out=kick[:k])
            for j in range(k):
                np.multiply(x[j], e[lo + j], out=x[j + 1])
                x[j + 1] += kick[j]
            x[:k] *= m[lo:lo + k]
            out[lo:lo + k] += x[:k]
            x[0] = x[k]
            yield from out[lo:lo + k]

    def phase_weights(self, a, b, signs):
        """The adjoint of ``segment_stream``: sum_i signs_i int_i X dt is
        xi0 s A_0 + sum_i xi1_i (signs_i c1_i + sx_i A_{i+1}) + xi2_i signs_i c2_i,
        where A_i = signs_i m_i + e_i A_{i+1} (A_n = 0) is that sum's
        derivative by the X entering segment i.  A is solved by doubling
        (Hillis & Steele, CACM 29, 1170 (1986)): after the pass of stride k,
        acc_i sums the first 2k terms of A_i and e_i is the product of their
        e, so ceil(log2 n) passes over the whole arrays, leading axes and
        all, give A.  The forward sampler carries its recurrence one segment
        at a time instead: a doubling pass there would re-read every
        trajectory's row each pass."""
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

    def segment_integrals(self, a, b):
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

    def segment_integrals(self, a, b):
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

    def quasi_static_ratio(self, gamma_e: float) -> float:
        """Diagnostic gamma_e * sigma_b * tau_c for the slowest OU component.

        Large values indicate the slow-fluctuation regime; the exact inequality
        the regime requires is left to the caller (see module docs).
        """
        ratios = [
            gamma_e * c.sigma_b * c.tau_c
            for c in self.components
            if isinstance(c, OrnsteinUhlenbeck)
        ]
        return max(ratios) if ratios else math.inf


# ---------------------------------------------------------------------------
# Signed phase accumulation
# ---------------------------------------------------------------------------


def stream_run(size: int) -> int:
    """Segments of OU noise terms that ``segment_stream`` takes at once into
    ``out``, for ``size`` values a segment: STREAM_WORDS values, or one."""
    return max(1, STREAM_WORDS // size)


def normal_counts(model: FieldModel, n_seg) -> list:
    """The standard normals a trajectory draws in each component slot over
    ``n_seg`` segments, 0 in a deterministic one."""
    return [c.n_normals_base + c.n_normals_per_segment * n_seg for c in model.components]


def draw_normals(model: FieldModel, n_seg: int, rng: Optional[RngSpec], chunk: int,
                 rows: int) -> list:
    """Each component slot's standard normals for rows 0..rows-1 of chunk
    ``chunk`` over ``n_seg`` segments: shape (rows, count) per stochastic
    slot, None for a deterministic one.

    Row r of chunk c is trajectory c * CHUNK + r, and it is row r of the
    SFC64 stream (master_seed, c, slot) read as a row-major (rows, count)
    array.  A trajectory's normals therefore depend on (seed, index, slot,
    count) alone, not on how many rows are drawn, and draws made once serve
    every toggling function with ``n_seg`` segments.
    """
    if rng is None and model.is_stochastic():
        raise ValueError("stochastic field model requires an RngSpec")
    return [rng.generator(chunk, slot).standard_normal((rows, count)) if count else None
            for slot, count in enumerate(normal_counts(model, n_seg))]


def phase_stream(model: FieldModel, breakpoints, draws: list, rows: int,
                 gamma_e: float = GAMMA_E, out: Optional[np.ndarray] = None):
    """Each segment's phases gamma_e * int_seg B dt in turn, for breakpoints
    (..., n_seg + 1) and the normals ``draws`` that ``draw_normals`` returns
    for ``rows`` trajectories and this segment count: shape (..., rows), or
    (..., 1) for a deterministic model, which is the same in every row.

    The components' phases are summed in the model's order.  Deterministic
    ones are integrated over every segment at once; stochastic ones are
    streamed, the first into ``out``, of shape (n_seg, ..., rows), when it
    is given, so that segment i's phases are out[i].  A yielded array is the
    caller's to overwrite.
    """
    bp = np.asarray(breakpoints, dtype=float)
    a, b = bp[..., :-1], bp[..., 1:]
    # each segment's terms in the model's order, but that the deterministic
    # components before the first stochastic one are summed first (lead) and
    # taken in after it, which holds every row: two terms commute exactly
    parts, lead = [], None
    for comp, comp_draws in zip(model.components, draws):
        if comp_draws is None:
            ph = np.moveaxis(gamma_e * comp.segment_integrals(a, b), -1, 0)[..., None]
            if parts:
                parts.append(ph)
            else:
                lead = ph if lead is None else np.add(lead, ph, out=lead)
            continue
        parts.append(comp.segment_stream(a, b, comp_draws, gamma_e, out))
        out = None
        if lead is not None:
            parts.append(lead)
            lead = None
    if lead is not None:  # deterministic components only
        if out is not None:
            out[...] = lead
            lead = out
        parts.append(lead)
    for terms in zip(*parts):
        ph = terms[0]
        for term in terms[1:]:
            ph += term
        yield ph


def segment_phases(model: FieldModel, tog: TogglingFunction, draws: list, rows: int,
                   gamma_e: float = GAMMA_E) -> np.ndarray:
    """Unsigned per-segment phases gamma_e * int_seg B dt, shape (..., rows,
    n_seg) for breakpoints (..., n_seg + 1): ``phase_stream`` collected."""
    bp = np.asarray(tog.breakpoints, dtype=float)
    out = np.empty((bp.shape[-1] - 1,) + bp.shape[:-1] + (rows,))
    for _ in phase_stream(model, bp, draws, rows, gamma_e, out):
        pass  # each segment's phases land in out
    return np.moveaxis(out, 0, -1)


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
            det += comp.segment_integrals(a, b)
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

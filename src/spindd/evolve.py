"""Coherence decay curves by Monte Carlo phase averaging, plus rotating-frame
Bloch evolution for spin locking and finite-error pulses.

The free-evolution signal at total time T is mean_i cos(dphi_i) times the
spin-lattice envelope exp(-T/T1).  Trajectories are independent work units;
aggregation is chunked with the fixed chunk size of the random streams
(``field.CHUNK``) and reduced in index order, so results are bit-identical
for any worker count.

Spin locking propagates m with one exact rotation kernel: over an interval of
constant Omega, dm/dt = m x Omega is a rotation, so no integrator error
enters.  Finite-error pulse trains build no matrix per segment: free
precession only turns (m_x, m_y) by the segment phase, and the one pulse
matrix acts between segments, over blocks of a few time points.  Both take
their field phases from ``segment_phases``, the exact sampler of the decay
curves.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence

import numpy as np

from . import sequence as sq
from .field import (
    CHUNK,
    GAMMA_E,
    RNG_SCHEME,
    FieldModel,
    NVParameters,
    OrnsteinUhlenbeck,
    RngSpec,
    draw_normals,
    ou_chi,
    segment_phases,
)


@dataclass
class CoherenceCurve:
    """Sampled coherence signal versus total evolution time."""

    times: np.ndarray  # s
    signal: np.ndarray  # dimensionless in [-1, 1]
    std_error: np.ndarray
    n_pulses: np.ndarray
    metadata: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.signal = np.asarray(self.signal, dtype=float)
        self.std_error = np.asarray(self.std_error, dtype=float)
        self.n_pulses = np.asarray(self.n_pulses, dtype=int)
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("curve times must be strictly increasing")
        if np.any(self.std_error < 0):
            raise ValueError("std_error must be non-negative")

    def to_csv(self, path):
        header = "total_time_s,signal,std_error,n_pulses"
        rows = np.column_stack([self.times, self.signal, self.std_error, self.n_pulses])
        with open(path, "w") as fh:
            fh.write(header + "\n")
            for t, s, e, n in rows:
                fh.write(f"{float(t)!r},{float(s)!r},{float(e)!r},{int(n)}\n")


def t1_envelope(t, nv: NVParameters) -> np.ndarray:
    """Spin-lattice ceiling exp(-t/T1)."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("time must be non-negative")
    return np.exp(-t / nv.t1)


# ---------------------------------------------------------------------------
# Sequence families over a time grid
# ---------------------------------------------------------------------------


def fid_family():
    return ("fid", lambda T: sq.fid(T), 0)


def hahn_family():
    return ("hahn", lambda T: sq.hahn(T), 1)


def cpmg_family(n: int):
    return (f"cpmg-{n}", lambda T: sq.cpmg(n, T), n)


def custom_family(fractions: Sequence[float]):
    """Pulses at fixed fractions of the total time."""
    fr = tuple(fractions)
    return ("custom", lambda T: sq.custom([f * T for f in fr], T), len(fr))


def _chunked_indices(shots: int):
    for start in range(0, shots, CHUNK):
        yield np.arange(start, min(start + CHUNK, shots), dtype=np.int64)


def _mean_and_error(sizes, partials):
    """Mean and standard error of the mean from each chunk's size and its
    (sum, centred sum of squares), merged in chunk order.

    The mean is the 1-D sum of the chunk sums.  The centred sums of squares
    are merged by Chan, Golub and LeVeque's pairwise update, which unlike
    sum(c^2)/n - mean^2 does not cancel when every c is close to 1.
    """
    shots = sum(sizes)
    mean = float(np.sum(np.array([p[0] for p in partials]))) / shots
    n, run_mean, m2 = 0, 0.0, 0.0
    for nb, (s, m2b) in zip(sizes, partials):
        delta = s / nb - run_mean
        n += nb
        run_mean += delta * nb / n
        m2 += m2b + delta * delta * (n - nb) * nb / n
    return mean, math.sqrt(m2 / shots / shots)


def coherence_curve(
    model: FieldModel,
    family,
    total_times,
    shots: int,
    rng: RngSpec,
    nv: NVParameters = NVParameters(),
    apply_t1: bool = True,
    n_workers: int = 1,
) -> CoherenceCurve:
    """Monte Carlo coherence signal over a grid of total evolution times.

    ``family`` is one of fid_family(), hahn_family(), cpmg_family(n) or
    custom_family(...).  Deterministic given (model, seed, shots, grid).
    """
    if shots < 100:
        raise ValueError("need at least 100 shots")
    total_times = np.asarray(total_times, dtype=float)
    if total_times.size == 0:
        raise ValueError("empty time grid")
    kind, make, n_pulses = family
    togs = [sq.toggling(make(T)) for T in total_times]
    n_seg = len(togs[0].signs)
    if any(len(tog.signs) != n_seg for tog in togs):
        raise ValueError("sequence family must have the same segment count at every time")

    def work(idx):
        # a trajectory's normals depend on (seed, index, slot, count) alone
        # and count is the same at every time, so one draw serves the grid;
        # idx is one whole chunk, so one stream per slot
        draws = draw_normals(model, n_seg, rng, idx)
        partials = []
        for tog in togs:
            ph = segment_phases(model, tog, rng, idx, nv.gamma_e, draws=draws)
            c = np.cos(ph @ np.asarray(tog.signs, dtype=float))
            s = np.sum(c)
            partials.append((s, np.sum((c - s / c.size) ** 2)))
        return partials

    chunks = list(_chunked_indices(shots))
    if n_workers > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as ex:
            by_chunk = list(ex.map(work, chunks))
    else:
        by_chunk = [work(c) for c in chunks]
    sig = np.empty_like(total_times)
    err = np.empty_like(total_times)
    sizes = [idx.size for idx in chunks]
    for i, T in enumerate(total_times):
        # each time's chunk partials reduced in chunk order, whatever the
        # worker count
        mean, se = _mean_and_error(sizes, [p[i] for p in by_chunk])
        env = float(t1_envelope(T, nv)) if apply_t1 else 1.0
        sig[i] = mean * env
        err[i] = se * env
    return CoherenceCurve(
        times=total_times,
        signal=sig,
        std_error=err,
        n_pulses=np.full(total_times.shape, n_pulses),
        metadata={
            "model_digest": model.digest(),
            "sequence": kind,
            "shots": shots,
            "seed": rng.master_seed,
            "rng_scheme": RNG_SCHEME,
            "t1_envelope": apply_t1,
        },
    )


def ou_coherence_exponent(family, total_times, comp: OrnsteinUhlenbeck,
                          gamma_e: float = GAMMA_E) -> np.ndarray:
    """Analytic chi(T)/2 of an OU bath for a sequence family (no T1)."""
    kind, make, _ = family
    return np.array(
        [0.5 * ou_chi(sq.toggling(make(T)), comp.sigma_b, comp.tau_c, gamma_e)
         for T in np.atleast_1d(total_times)]
    )


# ---------------------------------------------------------------------------
# Rotating-frame Bloch evolution
# ---------------------------------------------------------------------------


def _rotations(v):
    """Rotation matrices R, shape (..., 3, 3), with m(dt) = R @ m(0) solving
    dm/dt = m x Omega exactly over a step of constant Omega; v = Omega * dt
    has shape (..., 3).  A zero v gives the identity.

    m x Omega turns m clockwise about Omega by theta = |v| (Rodrigues):
    R = cos(theta) I + (1 - cos theta)/theta^2 v v^T - sin(theta)/theta [v]_x.
    """
    theta = np.sqrt(np.sum(v * v, axis=-1))
    sin_c = np.sinc(theta / np.pi)  # sin(theta)/theta
    # (1 - cos theta)/theta^2 written without the cancellation near theta = 0
    cos_c = 0.5 * np.sinc(theta / (2 * np.pi)) ** 2
    # built in place, one (..., 3, 3) array: the batches hold many steps
    r = v[..., :, None] * v[..., None, :]
    r *= cos_c[..., None, None]
    diag = np.arange(3)
    r[..., diag, diag] += np.cos(theta)[..., None]
    # minus sin(theta)/theta times the cross-product matrix [v]_x
    w = sin_c[..., None] * v
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        r[..., j, k] += w[..., i]
        r[..., k, j] -= w[..., i]
    return r


def _rotate(r, m):
    """Apply rotations r (..., 3, 3) to magnetizations m (..., 3)."""
    return (r @ m[..., None])[..., 0]


def _bloch_run(model, omega1, sample_times, shots, rng, gamma_e, m0):
    """Evolve dm/dt = m x Omega(t), Omega = (omega1, 0, gamma_e B(t)), for all
    trajectories with the exact rotation of each step.

    Omega_z dt of a step is the exact phase gamma_e int_step B dt from
    ``segment_phases``, so the OU bath enters through its exact joint
    (X, int X) update.  Steps are no longer than t_max/200 and tau_c/20 of
    every OU component.  Returns m at each sample time, shape
    (n_samples, shots, 3).
    """
    sample_times = np.asarray(sample_times, dtype=float)
    h_cap = min(
        [sample_times[-1] / 200.0]
        + [c.tau_c / 20.0 for c in model.components if isinstance(c, OrnsteinUhlenbeck)]
    )

    # a step grid hitting every sample time exactly, nsub[k] steps before
    # sample k
    knots = np.concatenate([[0.0], sample_times])
    nsub = np.maximum(1, np.ceil(np.diff(knots) / h_cap).astype(int))
    grid = np.concatenate(
        [[0.0]] + [np.linspace(a, b, k + 1)[1:] for a, b, k in zip(knots[:-1], knots[1:], nsub)]
    )
    steps = np.diff(grid)
    tog = sq.TogglingFunction(tuple(grid), (1,) * steps.size)
    phases = segment_phases(model, tog, rng, range(shots), gamma_e)

    m = np.tile(np.asarray(m0, dtype=float), (shots, 1))
    out = np.empty((sample_times.size, shots, 3))
    # one sample interval at a time, so the matrices take shots x nsub[k] x 9
    cuts = np.cumsum(nsub)[:-1]
    for k, (dt, phase) in enumerate(zip(np.split(steps, cuts), np.split(phases, cuts, axis=1))):
        v = np.zeros(phase.shape + (3,))
        v[..., 0] = omega1 * dt
        v[..., 2] = phase
        for r in _rotations(v).swapaxes(0, 1):
            m = _rotate(r, m)
        out[k] = m
    return out


def spin_lock_curve(
    model: FieldModel,
    omega1: float,
    total_times,
    shots: int,
    rng: RngSpec,
    nv: NVParameters = NVParameters(),
    apply_t1: bool = True,
) -> CoherenceCurve:
    """Locked magnetization m_x(t) under continuous drive Omega = (w1, 0, g B(t)).

    The magnetization starts along x (after the initial pi/2); the drive holds
    it there and the residual decay rate is set by the noise spectral density
    at the Rabi frequency.
    """
    if omega1 < 0:
        raise ValueError("omega1 must be non-negative")
    total_times = np.asarray(total_times, dtype=float)
    if np.any(np.diff(total_times) <= 0) or total_times[0] <= 0:
        raise ValueError("total_times must be positive and strictly increasing")
    ms = _bloch_run(model, omega1, total_times, shots, rng, nv.gamma_e, (1.0, 0.0, 0.0))
    mx = ms[:, :, 0]
    mean = mx.mean(axis=1)
    se = mx.std(axis=1, ddof=0) / math.sqrt(shots)
    env = t1_envelope(total_times, nv) if apply_t1 else 1.0
    return CoherenceCurve(
        times=total_times,
        signal=mean * env,
        std_error=se * np.ones_like(mean) if np.isscalar(env) else se * env,
        n_pulses=np.zeros(total_times.shape, dtype=int),
        metadata={
            "model_digest": model.digest(),
            "sequence": "spinlock",
            "omega1": omega1,
            "shots": shots,
            "seed": rng.master_seed,
            "rng_scheme": RNG_SCHEME,
            "t1_envelope": apply_t1,
        },
    )


# ---------------------------------------------------------------------------
# Finite-error pulses (in-plane turns between fixed pulse rotations)
# ---------------------------------------------------------------------------

_BLOCK = 4  # time points per pulse-error block: vectorized, with bounded memory


def pulse_error_curve(
    model: Optional[FieldModel],
    n: int,
    flip_angle_error: float,
    phase_convention: str,
    total_times,
    shots: int,
    rng: Optional[RngSpec],
    nv: NVParameters = NVParameters(),
    apply_t1: bool = False,
) -> CoherenceCurve:
    """CPMG-timed echo train with pi pulses of angle pi(1 + flip_angle_error).

    phase_convention "cpmg" rotates about x (90 degrees from the initial pi/2
    about y, error-robust for the in-phase component); "cp" rotates about y.
    ``model=None`` runs the noiseless rotation composition. Signal is m_x.
    """
    if abs(flip_angle_error) >= 0.5:
        raise ValueError("|flip_angle_error| must be < 0.5")
    if phase_convention not in ("cp", "cpmg"):
        raise ValueError("phase_convention must be 'cp' or 'cpmg'")
    total_times = np.asarray(total_times, dtype=float)
    angle = math.pi * (1.0 + flip_angle_error)
    axis = (1.0, 0.0, 0.0) if phase_convention == "cpmg" else (0.0, 1.0, 0.0)
    # the pulse turns m counterclockwise about its axis: Omega dt = -angle axis
    pulse = _rotations(-angle * np.asarray(axis))
    noiseless = model is None or not model.is_stochastic()
    eff_shots = 1 if noiseless else shots
    # read out along the axis the ideal train refocuses to: pi pulses about
    # y send x -> (-1)^n x, pi pulses about x leave it fixed
    axis_sign = 1.0 if phase_convention == "cpmg" else (-1.0) ** n
    # every time point has n + 1 segments, so one draw serves the grid
    draws = None if model is None else draw_normals(model, n + 1, rng, range(eff_shots))
    rows = pulse.tolist()
    sig, err = np.empty((2,) + total_times.shape)
    for start in range(0, total_times.size, _BLOCK):
        ts = total_times[start:start + _BLOCK]
        # segment-major, so each segment's (block, shots) slice is contiguous
        ph = np.zeros((n + 1, ts.size, eff_shots))
        if model is not None:
            for j, T in enumerate(ts):
                tog = sq.toggling(sq.cpmg(n, T))
                ph[:, j] = segment_phases(model, tog, rng, range(eff_shots), nv.gamma_e,
                                          draws=draws).T
        c = np.cos(ph)
        s = np.sin(ph, out=ph)
        mx, my, mz = 1.0, 0.0, 0.0  # m starts along x
        for seg in range(n + 1):
            if seg:
                mx, my, mz = [r[0] * mx + r[1] * my + r[2] * mz for r in rows]
            mx, my = c[seg] * mx + s[seg] * my, c[seg] * my - s[seg] * mx
        del ph, c, s  # before the next block is allocated
        mx *= axis_sign
        env = t1_envelope(ts, nv) if apply_t1 else 1.0
        sig[start:start + ts.size] = mx.mean(axis=-1) * env
        err[start:start + ts.size] = mx.std(axis=-1, ddof=0) / math.sqrt(eff_shots) * env
    return CoherenceCurve(
        times=total_times,
        signal=sig,
        std_error=err,
        n_pulses=np.full(total_times.shape, n),
        metadata={
            "sequence": f"cpmg-{n}",
            "phase_convention": phase_convention,
            "flip_angle_error": flip_angle_error,
            "shots": eff_shots,
            "seed": None if rng is None else rng.master_seed,
            "rng_scheme": RNG_SCHEME,
            "model_digest": None if model is None else model.digest(),
            "t1_envelope": apply_t1,
        },
    )

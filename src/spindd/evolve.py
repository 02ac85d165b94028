"""Coherence decay curves by Monte Carlo phase averaging, plus rotating-frame
Bloch evolution for spin locking and finite-error pulses.

The free-evolution signal at total time T is mean_i cos(dphi_i) times the
spin-lattice envelope exp(-T/T1).  Every curve here is such a mean of a
per-trajectory observable, and one driver (``_monte_carlo``) computes it:
trajectories are drawn and reduced in chunks of the fixed chunk size of the
random streams (``field.CHUNK``), in index order, so results are
bit-identical for any worker count.  The driver hands each observer a chunk
ordinal and a row count, and the observer draws that whole chunk at once.

The decay takes a chunk's phases at every time of the grid from one matrix
product per stochastic slot, with the linear map of ``field.phase_map``.

Spin locking propagates m with one exact rotation kernel: over an interval of
constant Omega, dm/dt = m x Omega is a rotation, so no integrator error
enters.  Finite-error pulse trains build no matrix per segment: free
precession only turns (m_x, m_y) by the segment phase, and the one pulse
matrix acts between segments, over blocks of a few time points.  Both take
their per-segment field phases from ``segment_phases``, the exact forward
sampler.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field
from typing import Optional

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
    phase_map,
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
# Monte Carlo curves over a time grid
# ---------------------------------------------------------------------------


def _grid(total_times, shots):
    """``total_times`` as floats, after the checks every curve shares: a
    ValueError for fewer than 100 shots or a grid that is empty, not finite,
    not positive or not strictly increasing."""
    if shots < 100:
        raise ValueError("need at least 100 shots")
    total_times = np.asarray(total_times, dtype=float)
    if total_times.size == 0:
        raise ValueError("empty time grid")
    if not (np.all(np.isfinite(total_times)) and total_times[0] > 0
            and np.all(np.diff(total_times) > 0)):
        raise ValueError("total_times must be finite, positive and strictly increasing")
    return total_times


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


def _monte_carlo(model, times, shots, rng, nv, apply_t1, observe, n_pulses, metadata,
                 n_workers=1):
    """The curve of a per-trajectory observable: its mean and standard error at
    each of ``times``, times the T1 envelope when ``apply_t1``.

    ``observe(chunk, rows)`` draws what rows 0..rows-1 of chunk ``chunk``
    need (``field.draw_normals``) and yields one row of per-trajectory
    values per time point.  A row is reduced to its (sum, centred sum of
    squares) as it comes, so no chunk outlives its reduction.  A mean or
    standard error that is not finite raises FloatingPointError.
    ``metadata`` adds to what every Monte Carlo curve records.
    """

    # every chunk is whole but the last
    sizes = [min(CHUNK, shots - start) for start in range(0, shots, CHUNK)]

    def work(chunk):
        # an overflow ends as a value that is not finite, which the check
        # below reports; the error state is per thread, so it is set here
        with np.errstate(over="ignore", invalid="ignore"):
            partials = []
            for c in observe(chunk, sizes[chunk]):
                s = np.sum(c)
                partials.append((s, np.sum((c - s / c.size) ** 2)))
        return partials

    if n_workers > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as ex:
            by_chunk = list(ex.map(work, range(len(sizes))))
    else:
        by_chunk = [work(c) for c in range(len(sizes))]
    sig, err = np.empty((2,) + times.shape)
    for i, T in enumerate(times):
        # each time's chunk partials reduced in chunk order, whatever the
        # worker count
        mean, se = _mean_and_error(sizes, [p[i] for p in by_chunk])
        if not (math.isfinite(mean) and math.isfinite(se)):
            raise FloatingPointError(f"signal or std_error is not finite at t = {float(T)!r} s")
        env = float(t1_envelope(T, nv)) if apply_t1 else 1.0
        sig[i], err[i] = mean * env, se * env
    return CoherenceCurve(
        times=times,
        signal=sig,
        std_error=err,
        n_pulses=np.full(times.shape, n_pulses),
        metadata={
            "model_digest": model.digest(),
            "shots": shots,
            "seed": None if rng is None else rng.master_seed,
            "rng_scheme": RNG_SCHEME,
            "t1_envelope": apply_t1,
            **metadata,
        },
    )


def coherence_curve(
    model: FieldModel,
    sequence: sq.PulseSequence,
    total_times,
    shots: int,
    rng: RngSpec,
    nv: NVParameters = NVParameters(),
    apply_t1: bool = True,
    n_workers: int = 1,
) -> CoherenceCurve:
    """Monte Carlo coherence signal over a grid of total evolution times.

    ``sequence`` is a pulse pattern, rescaled to each total time of the grid.
    Deterministic given (model, seed, shots, grid).
    """
    total_times = _grid(total_times, shots)
    # an overflow ends as a curve that is not finite, which the driver reports
    with np.errstate(over="ignore", invalid="ignore"):
        consts, slot_weights = zip(*[phase_map(model, sq.toggling(sequence.scaled(T)),
                                               nv.gamma_e) for T in total_times])
    const = np.array(consts)[:, None]
    # per stochastic slot, one weight row per time of the grid
    weights = [None if w[0] is None else np.array(w) for w in zip(*slot_weights)]
    n = sequence.n_pulses

    def observe(chunk, rows):
        # a trajectory's normals depend on (seed, index, slot, count) alone
        # and count is the same at every time, so one draw serves the grid
        draws = draw_normals(model, n + 1, rng, chunk, rows)
        ph = np.repeat(const, rows, axis=1)
        for d, w in zip(draws, weights):
            if d is not None:
                ph += w @ d.T
        yield from np.cos(ph, out=ph)

    label = f"cpmg-{n}" if sequence.kind == "cpmg" else sequence.kind
    return _monte_carlo(model, total_times, shots, rng, nv, apply_t1, observe, n,
                        {"sequence": label}, n_workers)


def ou_coherence_exponent(sequence: sq.PulseSequence, total_times, comp: OrnsteinUhlenbeck,
                          gamma_e: float = GAMMA_E) -> np.ndarray:
    """Analytic chi(T)/2 of an OU bath for a pulse pattern rescaled to each
    total time (no T1)."""
    return np.array(
        [0.5 * ou_chi(sq.toggling(sequence.scaled(T)), comp.sigma_b, comp.tau_c, gamma_e)
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


def bloch_steps(model: FieldModel, sample_times) -> np.ndarray:
    """The number of spin-lock steps before each sample time, as floats: no
    step is longer than t_max/200 or tau_c/20 of any OU component."""
    sample_times = np.asarray(sample_times, dtype=float)
    h_cap = min(
        [sample_times[-1] / 200.0]
        + [c.tau_c / 20.0 for c in model.components if isinstance(c, OrnsteinUhlenbeck)]
    )
    return np.maximum(1.0, np.ceil(np.diff(sample_times, prepend=0.0) / h_cap))


def _bloch_run(omega1, steps, nsub, phases, m0):
    """Evolve dm/dt = m x Omega(t), Omega = (omega1, 0, Omega_z), with the
    exact rotation of each step.

    ``phases`` holds each trajectory's Omega_z dt over each of ``steps``,
    shape (n_traj, n_steps); ``nsub[k]`` steps make up sample interval k.
    Returns m at the end of each sample interval, shape
    (n_samples, n_traj, 3).
    """
    m = np.tile(np.asarray(m0, dtype=float), (phases.shape[0], 1))
    out = np.empty((nsub.size,) + m.shape)
    # one sample interval at a time, so the matrices take n_traj x nsub[k] x 9
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

    Omega_z dt of a step is the exact phase gamma_e int_step B dt from
    ``segment_phases``, so the OU bath enters through its exact joint
    (X, int X) update.  Steps are no longer than t_max/200 and tau_c/20 of
    every OU component (``bloch_steps``).
    """
    if omega1 < 0:
        raise ValueError("omega1 must be non-negative")
    total_times = _grid(total_times, shots)
    # a step grid hitting every sample time exactly, nsub[k] steps before
    # sample k
    knots = np.concatenate([[0.0], total_times])
    nsub = bloch_steps(model, total_times).astype(int)
    grid = np.concatenate(
        [[0.0]] + [np.linspace(a, b, k + 1)[1:] for a, b, k in zip(knots[:-1], knots[1:], nsub)]
    )
    steps = np.diff(grid)
    tog = sq.TogglingFunction(tuple(grid), (1,) * steps.size)

    def observe(chunk, rows):
        # mapped to phases as drawn, so the normals are freed before the
        # rotations run
        phases = segment_phases(model, tog, draw_normals(model, steps.size, rng, chunk, rows),
                                rows, nv.gamma_e)
        return _bloch_run(omega1, steps, nsub, phases, (1.0, 0.0, 0.0))[:, :, 0]

    return _monte_carlo(model, total_times, shots, rng, nv, apply_t1, observe, 0,
                        {"sequence": "spinlock", "omega1": omega1})


# ---------------------------------------------------------------------------
# Finite-error pulses (in-plane turns between fixed pulse rotations)
# ---------------------------------------------------------------------------

PULSE_BLOCK = 4  # time points per pulse-error block: vectorized, with bounded memory


def pulse_error_curve(
    model: FieldModel,
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
    A model without noise runs one trajectory. Signal is m_x.
    """
    if abs(flip_angle_error) >= 0.5:
        raise ValueError("|flip_angle_error| must be < 0.5")
    if phase_convention not in ("cp", "cpmg"):
        raise ValueError("phase_convention must be 'cp' or 'cpmg'")
    total_times = _grid(total_times, shots)
    angle = math.pi * (1.0 + flip_angle_error)
    axis = (1.0, 0.0, 0.0) if phase_convention == "cpmg" else (0.0, 1.0, 0.0)
    # the pulse turns m counterclockwise about its axis: Omega dt = -angle axis
    pulse = _rotations(-angle * np.asarray(axis)).tolist()
    # read out along the axis the ideal train refocuses to: pi pulses about
    # y send x -> (-1)^n x, pi pulses about x leave it fixed
    axis_sign = 1.0 if phase_convention == "cpmg" else (-1.0) ** n

    def observe(chunk, rows):
        draws = draw_normals(model, n + 1, rng, chunk, rows)
        for start in range(0, total_times.size, PULSE_BLOCK):
            ts = total_times[start:start + PULSE_BLOCK]
            # segment-major: each segment's (block, trajectories) slice is contiguous
            ph = np.empty((n + 1, ts.size, rows))
            for j, T in enumerate(ts):
                tog = sq.toggling(sq.cpmg(n, T))
                ph[:, j] = segment_phases(model, tog, draws, rows, nv.gamma_e).T
            c = np.cos(ph)
            s = np.sin(ph, out=ph)
            mx, my, mz = 1.0, 0.0, 0.0  # m starts along x
            for seg in range(n + 1):
                if seg:
                    mx, my, mz = [r[0] * mx + r[1] * my + r[2] * mz for r in pulse]
                mx, my = c[seg] * mx + s[seg] * my, c[seg] * my - s[seg] * mx
            del ph, c, s  # before the next block is allocated
            mx *= axis_sign
            yield from mx

    return _monte_carlo(model, total_times, shots if model.is_stochastic() else 1, rng, nv,
                        apply_t1, observe, n,
                        {"sequence": f"cpmg-{n}", "phase_convention": phase_convention,
                         "flip_angle_error": flip_angle_error})

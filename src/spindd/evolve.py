"""Coherence decay curves by Monte Carlo phase averaging, plus rotating-frame
Bloch evolution for spin locking and finite-error pulses.

The free-evolution signal at total time T is mean_i cos(dphi_i) times the
spin-lattice envelope exp(-T/T1).  Every curve here is such a mean of a
per-trajectory observable, and one driver (``_monte_carlo``) computes it:
trajectories are drawn and reduced in chunks of the fixed chunk size of the
random streams (``field.CHUNK``), in index order, so results are
bit-identical for any worker count.  The driver hands each observer a chunk
ordinal and a row count, and the observer draws that whole chunk at once.

The decay's phases over its grid are one Gaussian vector c + W xi
(``field.phase_map`` on ``sequence.on_grid``), drawn as c + R^T z from
min(normals, n_times) normals z per trajectory, W^T = Q R once per curve.

Over a step of constant Omega, dm/dt = m x Omega is a rotation, so the Bloch
paths are exact: spin locking composes a sample interval's steps as SU(2)
matrices, pairwise, and advances one spinor per interval, its step phases
from ``segment_phases``; a finite-error pulse train turns (m_x, m_y) by each
segment's phase and (m_y, m_z) at each pulse, for a block of times of
``sequence.on_grid`` at once, as ``phase_stream`` yields each segment's
phases.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from . import field as _field, sequence as sq
from .field import (
    CHUNK,
    DECAY_RNG_SCHEME,
    RNG_SCHEME,
    FieldModel,
    NVParameters,
    OrnsteinUhlenbeck,
    RngSpec,
    draw_normals,
    phase_map,
    phase_stream,
    segment_phases,
)

ou_chi = _field.ou_chi  # not called here: the benchmark's tracer patches it


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
    ValueError for shots that are not an integer of at least 100 or a grid
    that is empty, not finite, not positive or not strictly increasing."""
    if not (isinstance(shots, (int, np.integer)) and shots >= 100):
        raise ValueError(f"need an integer of at least 100 shots, got {shots!r}")
    total_times = sq.checked_times(total_times)
    if total_times.size == 0:
        raise ValueError("empty time grid")
    if not np.all(np.diff(total_times) > 0):
        raise ValueError("total_times must be strictly increasing")
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
    need (``RngSpec.generator``) and yields one row of per-trajectory
    values per time point.  A row is reduced to its (sum, centred sum of
    squares) as it comes, so no chunk outlives its reduction.  A mean or
    standard error that is not finite raises FloatingPointError.
    ``metadata`` adds to, or overrides, what every Monte Carlo curve records.
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

    # a pool for a single chunk only adds its start-up to the curve
    if n_workers > 1 and len(sizes) > 1:
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
    Deterministic given (model, seed, shots, grid); row r of chunk c's
    (rows, k) draw from slot 0 is trajectory c * CHUNK + r (DECAY_RNG_SCHEME).
    """
    total_times = _grid(total_times, shots)
    # an overflow ends as a curve that is not finite, which the driver reports
    with np.errstate(over="ignore", invalid="ignore"):
        const, weights = phase_map(model, sq.on_grid(sequence, total_times), nv.gamma_e)
        # c + R^T z, W^T = Q R, has the covariance W W^T = R^T R of c + W xi; QR,
        # as near times make W W^T nearly singular (Golub & Van Loan, ch. 5)
        w = [x for x in weights if x is not None]
        r = np.linalg.qr(np.hstack(w).T, mode="r") if w else np.empty((0, const.size))
    if w and rng is None:
        raise ValueError("stochastic field model requires an RngSpec")
    del weights, w  # the chunks need R alone

    def observe(chunk, rows):
        # k = 0 normals for a deterministic model, which draws nothing
        k = r.shape[0]
        z = rng.generator(chunk, 0).standard_normal((rows, k)) if k else np.empty((rows, 0))
        ph = r.T @ z.T
        ph += const[:, None]
        yield from np.cos(ph, out=ph)

    n = sequence.n_pulses
    label = f"cpmg-{n}" if sequence.kind == "cpmg" else sequence.kind
    return _monte_carlo(model, total_times, shots, rng, nv, apply_t1, observe, n,
                        {"sequence": label, "rng_scheme": DECAY_RNG_SCHEME}, n_workers)


def gaussian_coherence(model: FieldModel, sequence: sq.PulseSequence, total_times,
                       nv: NVParameters = NVParameters(), apply_t1: bool = True) -> np.ndarray:
    """The exact mean of ``coherence_curve``, cos c exp(-|w|^2 / 2) at each time
    for the Gaussian phase c + w xi (Cywinski et al., PRB 77, 174509 (2008)),
    times the T1 envelope when ``apply_t1``."""
    const, weights = phase_map(model, sq.on_grid(sequence, total_times), nv.gamma_e)
    chi = sum(np.sum(w * w, axis=1) for w in weights if w is not None)
    return np.cos(const) * np.exp(-0.5 * chi) * (t1_envelope(total_times, nv) if apply_t1 else 1)


# ---------------------------------------------------------------------------
# Rotating-frame Bloch evolution
# ---------------------------------------------------------------------------


def bloch_steps(model: FieldModel, sample_times) -> np.ndarray:
    """The number of spin-lock steps before each sample time, as floats: no
    step is longer than t_max/200 or tau_c/20 of any OU component."""
    sample_times = np.asarray(sample_times, dtype=float)
    h_cap = min(
        [sample_times[-1] / 200.0]
        + [c.tau_c / 20.0 for c in model.components if isinstance(c, OrnsteinUhlenbeck)]
    )
    return np.maximum(1.0, np.ceil(np.diff(sample_times, prepend=0.0) / h_cap))


def _su2_turn(vx, vz):
    """The SU(2) matrix [[a, b], [-b*, a*]], as (a, b), of steps v = Omega dt =
    (vx, 0, vz) taken in order along the last axis.  Each turns m clockwise
    about v by theta = |v|, as dm/dt = m x Omega does over a step of constant
    Omega: a = cos(theta/2) + i s vz, b = i s vx, s = sin(theta/2)/theta."""
    theta = np.sqrt(vx * vx + vz * vz)
    s = 0.5 * np.sinc(theta / (2 * np.pi))
    a, b = np.cos(0.5 * theta) + 1j * (s * vz), 1j * (s * vx)
    while a.shape[-1] > 1:
        # pairwise, the later step on the left; an odd one left over is carried
        h = a.shape[-1] // 2 * 2
        a1, a2, b1, b2 = a[..., :h:2], a[..., 1:h:2], b[..., :h:2], b[..., 1:h:2]
        a = np.concatenate([a2 * a1 - b2 * b1.conj(), a[..., h:]], axis=-1)
        b = np.concatenate([a2 * b1 + b2 * a1.conj(), b[..., h:]], axis=-1)
    return a[..., 0], b[..., 0]


def _bloch_run(omega1, steps, nsub, phases):
    """Evolve dm/dt = m x Omega(t), Omega = (omega1, 0, Omega_z), from m = x
    with the exact rotation of each step.

    ``phases`` holds each trajectory's Omega_z dt over each of ``steps``,
    shape (n_traj, n_steps); ``nsub[k]`` steps make up sample interval k.
    Returns m at the end of each sample interval, shape (n_samples, n_traj, 3),
    from a spinor (up, dn), (1, 1) at the start, that each interval's
    ``_su2_turn`` advances once: m = (Re up* dn, Im up* dn, (|up|^2 - |dn|^2) / 2).
    """
    up = dn = np.ones(phases.shape[0], dtype=complex)
    out = np.empty((nsub.size, up.size, 3))
    # one sample interval at a time, so the pairs take n_traj x nsub[k] x 4
    cuts = np.cumsum(nsub)[:-1]
    for k, (dt, vz) in enumerate(zip(np.split(steps, cuts), np.split(phases, cuts, axis=1))):
        a, b = _su2_turn(omega1 * dt, vz)
        up, dn = a * up + b * dn, a.conj() * dn - b.conj() * up
        cross = up.conj() * dn
        out[k] = np.column_stack([cross.real, cross.imag, 0.5 * (abs(up)**2 - abs(dn)**2)])
    return out


def spin_lock_curve(
    model: FieldModel,
    omega1: float,
    total_times,
    shots: int,
    rng: RngSpec,
    nv: NVParameters = NVParameters(),
    apply_t1: bool = True,
    n_workers: int = 1,
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
    if not (math.isfinite(omega1) and omega1 >= 0):
        raise ValueError("omega1 must be finite and non-negative")
    total_times = _grid(total_times, shots)
    # a step grid hitting every sample time exactly, nsub[k] steps before
    # sample k
    knots = np.concatenate([[0.0], total_times])
    nsub = bloch_steps(model, total_times).astype(int)
    grid = np.concatenate(
        [[0.0]] + [np.linspace(a, b, k + 1)[1:] for a, b, k in zip(knots[:-1], knots[1:], nsub)]
    )
    steps = np.diff(grid)
    tog = sq.TogglingFunction(grid)

    def observe(chunk, rows):
        # mapped to phases as drawn, so the normals are freed before the
        # rotations run
        phases = segment_phases(model, tog, draw_normals(model, steps.size, rng, chunk, rows),
                                rows, nv.gamma_e)
        return _bloch_run(omega1, steps, nsub, phases)[:, :, 0]

    return _monte_carlo(model, total_times, shots, rng, nv, apply_t1, observe, 0,
                        {"sequence": "spinlock", "omega1": omega1}, n_workers)


# ---------------------------------------------------------------------------
# Finite-error pulses (in-plane turns between fixed pulse rotations)
# ---------------------------------------------------------------------------

#: trajectory values per array of the pulse-error turn loop: a block of
#: max(1, TURN_WORDS // rows) times is turned at once
TURN_WORDS = 2**12


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
    n_workers: int = 1,
) -> CoherenceCurve:
    """CPMG-timed echo train with pi pulses of angle pi(1 + flip_angle_error).

    phase_convention "cpmg" rotates about x (90 degrees from the initial pi/2
    about y, error-robust for the in-phase component); "cp" rotates about y.
    A model without noise runs one trajectory. Signal is m_x.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError(f"need an integer of at least 1 pulse, got {n!r}")
    if not abs(flip_angle_error) < 0.5:
        raise ValueError("|flip_angle_error| must be < 0.5")
    if phase_convention not in ("cp", "cpmg"):
        raise ValueError("phase_convention must be 'cp' or 'cpmg'")
    total_times = _grid(total_times, shots)
    # free precession commutes with a 90-degree turn about z taking y to x:
    # a CP train is one of pulses about x started along y and read on m_y,
    # along which ideal pi pulses about x refocus it to (-1)^n y
    angle = math.pi * (1.0 + flip_angle_error)
    ca, sa = math.cos(angle), math.sin(angle)
    cp = phase_convention == "cp"
    axis_sign = (-1.0) ** n if cp else 1.0
    bp = sq.on_grid(sq.cpmg(n, 1.0), total_times)

    def observe(chunk, rows):
        draws = draw_normals(model, n + 1, rng, chunk, rows)
        block = max(1, TURN_WORDS // rows)
        for start in range(0, total_times.size, block):
            mx, my, mz = (0.0, 1.0, 0.0) if cp else (1.0, 0.0, 0.0)
            # each segment's (block, rows) phases turned as they are made
            for seg, ph in enumerate(phase_stream(model, bp[start:start + block], draws, rows,
                                                  nv.gamma_e)):
                if seg:
                    my, mz = ca * my - sa * mz, sa * my + ca * mz
                c = np.cos(ph)
                s = np.sin(ph, out=ph)
                mx, my = c * mx + s * my, c * my - s * mx
            yield from (my if cp else mx) * axis_sign

    return _monte_carlo(model, total_times, shots if model.is_stochastic() else 1, rng, nv,
                        apply_t1, observe, n,
                        {"sequence": f"cpmg-{n}", "phase_convention": phase_convention,
                         "flip_angle_error": flip_angle_error}, n_workers)

"""Coherence decay curves by Monte Carlo phase averaging, plus rotating-frame
Bloch evolution for spin locking and finite-error pulses.

The free-evolution signal at total time T is mean_i cos(dphi_i) times the
spin-lattice envelope exp(-T/T1).  Every curve here is such a mean of a
per-trajectory observable, and one driver (``_monte_carlo``) computes it:
trajectories are drawn and reduced in chunks of the fixed chunk size of the
random streams (``field.CHUNK``), in index order, so results are
bit-identical for any worker count.  The driver hands each observer a chunk
ordinal and a row count, and the observer draws that whole chunk at once and
yields its values as (times, rows) blocks.  The driver overwrites each block
as it reduces it in place to each time's sum and centred sum of squares, and
merges the chunks for the whole grid at once.

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

Every curve takes its cosines (the Bloch paths their sines too) from one
tangent of the half angle (``_cos_sin``), as numpy 2.4's float64 tan is
vectorised and its sin and cos are not: on one core of an AVX-512 Xeon, tan
takes 2.2 ns an element, sin 8.1 and cos 7.9, and the pair formed from tan
6.1, within 4.5e-16 of numpy's.
"""

from __future__ import annotations

import math
import os
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
    normal_counts,
    phase_map,
    phase_stream,
    segment_phases,
    stream_run,
)

ou_chi = _field.ou_chi  # not called here: the benchmark's tracer patches it

#: the most float64 values a run may hold at once (8 GiB), and the most a count may be
WORK_BUDGET = 2**30


@dataclass
class CoherenceCurve:
    """Sampled coherence signal versus total evolution time: a plain record,
    built by ``_monte_carlo`` from a checked grid and finite float arrays."""

    times: np.ndarray  # s
    signal: np.ndarray  # dimensionless in [-1, 1]
    std_error: np.ndarray
    n_pulses: np.ndarray
    metadata: dict = dc_field(default_factory=dict)


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
    ValueError for shots that are not an integer of at least 100, or from
    ``sequence.checked_times`` for the grid."""
    if not (isinstance(shots, (int, np.integer)) and shots >= 100):
        raise ValueError(f"need an integer of at least 100 shots, got {shots!r}")
    return sq.checked_times(total_times)


def _mean_and_error(sizes, partials):
    """Mean and standard error of the mean from each chunk's size and its
    (sum, centred sum of squares), merged in chunk order; a sum and its
    square sum are each a number or an array over the time grid.

    The mean is each time's 1-D sum of the chunk sums.  The centred sums of
    squares are merged by Chan, Golub and LeVeque's pairwise update, which
    unlike sum(c^2)/n - mean^2 does not cancel when every c is close to 1.
    """
    shots = sum(sizes)
    # one contiguous row of chunk sums a time, summed as np.sum sums a 1-D row
    mean = np.stack([p[0] for p in partials], axis=-1).sum(axis=-1) / shots
    n, run_mean, m2 = 0, 0.0, 0.0
    for nb, (s, m2b) in zip(sizes, partials):
        delta = s / nb - run_mean
        n += nb
        run_mean += delta * nb / n
        m2 += m2b + delta * delta * (n - nb) * nb / n
    return mean, np.sqrt(m2 / shots / shots)


def partial_words(shots, n_times):
    """Float64 words a Monte Carlo run keeps across its chunks: two per chunk and time."""
    return 2 * n_times * math.ceil(shots / CHUNK)


# Float64 words the curves hold besides their draws and phases, as traced
# (tracemalloc) on tests/test_config.py's configs and rounded up, for:
#: any size: numpy's ufunc buffers of 8192 values, headers and objects
_ANY_SIZE = 2**15
#: a segment of the pattern: the spec's floats and on_grid's pattern
_SEGMENT = 6
#: a time and segment of the decay's map: breakpoints and phase_map's arrays
#: (4.1 to 12.1, besides 3 a normal)
_ON_GRID = 8
#: a time and segment of a streamed component: its coefficients and their
#: scaled copies (6.1 for the OU)
_COEF = 8
#: a row and time of a pulse-error block: m, its cosines, a product and its
#: phases and OU state (3.9 to 9.1), besides 2 a component
_TURN = 10
#: a sample time of a spin lock: the array of its steps that builds the grid
_SAMPLE = 16
#: a row and step of a spin lock's sample interval: its SU(2) pairs (9.0)
_SU2 = 10


def _monte_carlo(model, times, shots, rng, nv, apply_t1, observe, words, n_pulses, metadata,
                 n_workers=1):
    """The curve of a per-trajectory observable: its mean and standard error at
    each of ``times``, times the T1 envelope when ``apply_t1``.

    ``observe(chunk, rows)`` draws what rows 0..rows-1 of chunk ``chunk``
    need (``RngSpec.generator``) and yields its per-trajectory values as
    blocks of shape (times, rows), the blocks' times in grid order.  The
    driver reduces each block in place to its (sum, centred sum of squares)
    per time as it comes, overwriting it, so no chunk outlives its
    reduction.  ``words`` is the curve's estimate, (the float64 words a chunk
    holds, the rest's), and a thread holds one chunk: chunks run on min
    (``n_workers``, chunks, cores, k) threads, where k chunks fit in
    ``WORK_BUDGET`` beside the rest and the partial sums, and on one for an
    estimate that is not finite.  ``times`` is a grid ``_grid`` has checked;
    a mean or standard error that is not finite raises FloatingPointError, so
    the curve holds finite floats and a non-negative error.  ``metadata`` adds
    to, or overrides, what every Monte Carlo curve records.
    """

    # every chunk is whole but the last
    sizes = [min(CHUNK, shots - start) for start in range(0, shots, CHUNK)]

    def work(chunk):
        # an overflow ends as a value that is not finite, which the check
        # below reports; the error state is per thread, so it is set here
        out, i = np.empty((2, times.size)), 0
        with np.errstate(over="ignore", invalid="ignore"):
            for c in observe(chunk, sizes[chunk]):
                j = i + c.shape[0]
                s = c.sum(axis=1, out=out[0, i:j])
                c -= s[:, None] / c.shape[1]
                c *= c
                c.sum(axis=1, out=out[1, i:j])
                i = j
        return out

    # a pool for a single chunk or core only adds its start-up to the curve
    room = (WORK_BUDGET - words[1] - partial_words(shots, times.size)) / words[0]
    workers = min(n_workers, len(sizes), os.cpu_count() or 1,
                  int(room) if math.isfinite(room) else 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            by_chunk = list(ex.map(work, range(len(sizes))))
    else:
        by_chunk = [work(c) for c in range(len(sizes))]
    # the chunks merged in chunk order, whatever the worker count
    with np.errstate(over="ignore", invalid="ignore"):
        sig, err = _mean_and_error(sizes, by_chunk)
    bad = ~(np.isfinite(sig) & np.isfinite(err))
    if bad.any():
        T = times[np.argmax(bad)]
        raise FloatingPointError(f"signal or std_error is not finite at t = {float(T)!r} s")
    if apply_t1:
        env = t1_envelope(times, nv)
        sig *= env
        err *= env
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
    c and R are halved once, exactly: a chunk's cosine comes in place from
    the tangent of its half phases (``_cos_sin``).
    """
    total_times = _grid(total_times, shots)
    # an overflow ends as a curve that is not finite, which the driver reports
    with np.errstate(over="ignore", invalid="ignore"):
        const, weights = phase_map(model, sq.on_grid(sequence, total_times), nv.gamma_e)
        # c + R^T z, W^T = Q R, has the covariance W W^T = R^T R of c + W xi; QR,
        # as near times make W W^T nearly singular (Golub & Van Loan, ch. 5)
        w = [x for x in weights if x is not None]
        r = np.linalg.qr(np.hstack(w).T, mode="r") if w else np.empty((0, const.size))
        const *= 0.5
        r *= 0.5
    if w and rng is None:
        raise ValueError("stochastic field model requires an RngSpec")
    del weights, w  # the chunks need R alone

    def observe(chunk, rows):
        # k = 0 normals for a deterministic model, which draws nothing
        k = r.shape[0]
        z = rng.generator(chunk, 0).standard_normal((rows, k)) if k else np.empty((rows, 0))
        half = r.T @ z.T
        half += const[:, None]
        yield _cos_sin(half, half)[0]

    n = sequence.n_pulses
    label = f"cpmg-{n}" if sequence.kind == "cpmg" else sequence.kind
    return _monte_carlo(model, total_times, shots, rng, nv, apply_t1, observe,
                        coherence_words(model, n, total_times.size, shots), n,
                        {"sequence": label, "rng_scheme": DECAY_RNG_SCHEME}, n_workers)


def coherence_words(model: FieldModel, n_pulses: int, n_times: int, shots: int):
    """Float64 words ``coherence_curve`` holds at once: (a chunk's normals z
    and phases, the map of the pattern on the grid)."""
    normals = sum(normal_counts(model, n_pulses + 1))
    # a time's weights and their scaled and stacked copies; the map; the pattern
    return (min(shots, CHUNK) * (min(normals, n_times) + n_times),
            3 * n_times * normals + (_ON_GRID * n_times + _SEGMENT) * (n_pulses + 1) + _ANY_SIZE)


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


def _cos_sin(half, out=None):
    """(cos x, sin x) of x = 2 ``half``, from t = tan(half) as 2/(1 + t^2) - 1
    and 2t/(1 + t^2): sin x overwrites ``half``, and cos x goes to ``out``
    (the Bloch turns), a new array when None; with ``out`` = ``half`` (the
    decay) cos x overwrites ``half`` and the sine is None.  Within 4.5e-16
    of np.cos and np.sin; a value that is not finite gives nan, as cos(inf)
    does.  t^2 cannot overflow, as no double lies within 1e-154 of an odd
    multiple of pi/2.
    """
    t = np.tan(half, out=half)
    w = np.multiply(t, t, out=out)
    w += 1.0
    np.divide(2.0, w, out=w)
    s = None if w is t else np.multiply(t, w, out=t)
    w -= 1.0
    return w, s


def _su2_turn(vx, vz):
    """The SU(2) matrix [[a, b], [-b*, a*]], as (a, b), of steps v = Omega dt =
    (vx, 0, vz) taken in order along the last axis.  Each turns m clockwise
    about v by theta = |v|, as dm/dt = m x Omega does over a step of constant
    Omega: a = cos(theta/2) + i s vz, b = i s vx, s = sin(theta/2)/theta.

    cos(theta/2) and sin(theta/2) come from one vectorised tan(theta/4)
    (``_cos_sin``, 6.1 ns an element; np.cos alone takes 7.9, and np.sinc
    calls np.sin); s is 1/2 at theta = 0, so a null step is exactly (1, 0)."""
    theta = np.sqrt(vx * vx + vz * vz)
    c, s = _cos_sin(0.25 * theta)
    s = np.divide(s, theta, out=np.full_like(theta, 0.5), where=theta != 0)
    a, b = c + 1j * (s * vz), 1j * (s * vx)
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
        yield _bloch_run(omega1, steps, nsub, phases)[:, :, 0]

    return _monte_carlo(model, total_times, shots, rng, nv, apply_t1, observe,
                        spin_lock_words(model, total_times, shots), 0,
                        {"sequence": "spinlock", "omega1": omega1}, n_workers)


def spin_lock_words(model: FieldModel, total_times, shots: int):
    """Float64 words ``spin_lock_curve`` holds at once, infinite past the
    largest float: (a chunk, the step grid and what builds it)."""
    with np.errstate(over="ignore"):
        steps = bloch_steps(model, total_times)
    n_steps = float(np.sum(steps))
    if not math.isfinite(n_steps):  # 0 normals a step times inf steps is nan
        return math.inf, math.inf
    rows = min(shots, CHUNK)
    # the normals, the phases and the OU terms (measured 1.6 a step) of each
    # row, and the chunk's OU run
    made = (rows * (sum(normal_counts(model, n_steps)) + 2 * n_steps)
            + min(n_steps, stream_run(rows)) * rows)
    # the phases, m and a sample interval's SU(2) pairs
    turned = rows * (n_steps + 3 * steps.size + _SU2 * float(np.max(steps)))
    return max(made, turned), 3 * n_steps + _SAMPLE * steps.size + _ANY_SIZE


# ---------------------------------------------------------------------------
# Finite-error pulses (in-plane turns between fixed pulse rotations)
# ---------------------------------------------------------------------------

#: trajectory values per array of the pulse-error turn loop (``_turn_block``)
TURN_WORDS = 2**12


def _turn_block(rows, n_times):
    """Times turned at once for ``rows`` trajectories, of ``n_times``."""
    return min(max(1, TURN_WORDS // rows), n_times)


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

    The stream yields each segment's phases halved, exactly, as it scales by
    gamma_e / 2, and ``_cos_sin`` makes them the turn's cosine and sine in
    place from one vectorised tan, at 6.1 ns an element against 16.0 for
    numpy's sin and cos.  The turn and the pulse then run in place on a
    block's buffers.
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
        block = _turn_block(rows, total_times.size)
        # a block's m, its cosines and a product, reused block by block
        buf = np.empty((5, block, rows))
        for start in range(0, total_times.size, block):
            m = buf[:, :min(block, total_times.size - start)]
            m[:3] = 0.0
            m[1 if cp else 0] = 1.0
            mx, my, mz, c, p = m
            # each segment's (block, rows) half phases, exact halves of the
            # phases, turned in place as they are made
            halves = phase_stream(model, bp[start:start + block], draws, rows, 0.5 * nv.gamma_e)
            for seg, h in enumerate(halves):
                if seg:  # my, mz = ca my - sa mz, sa my + ca mz
                    np.multiply(my, sa, out=p)
                    np.multiply(mz, sa, out=c)
                    my *= ca
                    my -= c
                    mz *= ca
                    mz += p
                c, s = _cos_sin(h, c)
                # mx, my = c mx + s my, c my - s mx
                np.multiply(s, my, out=p)
                s *= mx
                mx *= c
                mx += p
                my *= c
                my -= s
            signal = my if cp else mx
            signal *= axis_sign
            yield signal

    return _monte_carlo(model, total_times, shots if model.is_stochastic() else 1, rng, nv,
                        apply_t1, observe, pulse_error_words(model, n, total_times.size, shots), n,
                        {"sequence": f"cpmg-{n}", "phase_convention": phase_convention,
                         "flip_angle_error": flip_angle_error}, n_workers)


def pulse_error_words(model: FieldModel, n: int, n_times: int, shots: int):
    """Float64 words ``pulse_error_curve`` holds at once: (a chunk, the
    pattern on the grid)."""
    rows = min(shots if model.is_stochastic() else 1, CHUNK)
    parts, block = len(model.components), _turn_block(rows, n_times)
    # the normals and a block's turn state; each component's coefficients
    return (rows * (sum(normal_counts(model, n + 1)) + block * (_TURN + 2 * parts))
            + _COEF * block * parts * (n + 1),
            (3 * n_times + _SEGMENT) * (n + 1) + _ANY_SIZE)

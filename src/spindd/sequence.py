"""Pulse sequences (FID, Hahn, CPMG-n, custom) and the piecewise +/-1
toggling function they induce on the accumulated phase."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _increasing(bp):
    """Strictly increasing along the last axis, per row (NaN is not)."""
    return np.all(np.diff(bp, axis=-1) > 0, axis=-1)


@dataclass(frozen=True)
class TogglingFunction:
    """Piecewise-constant sign function s(t) on [0, T], one per leading index.

    ``breakpoints`` (..., n_seg + 1) include 0 and T; the sign is +1 on the
    first segment and flips at every interior breakpoint, each a pi pulse.
    """

    breakpoints: tuple

    def __post_init__(self):
        if np.shape(self.breakpoints)[-1] < 2 or not np.all(_increasing(self.breakpoints)):
            raise ValueError("breakpoints must be strictly increasing, length >= 2")


@dataclass(frozen=True)
class PulseSequence:
    """Ideal instantaneous pi-pulse train over [0, total_time].

    kind is one of {"fid", "hahn", "cpmg", "custom"}.  For CPMG(n)
    the pulses sit at t_j = (2j-1)/(2n) * total_time with the pulse phase 90
    degrees from the initial pi/2 (pi about x), which quadratically suppresses
    pulse-length errors; the "cp" in-phase variant is handled in evolve.
    """

    kind: str
    total_time: float
    pi_pulse_times: tuple = ()

    def __post_init__(self):
        if self.kind not in ("fid", "hahn", "cpmg", "custom"):
            raise ValueError(f"unknown sequence kind {self.kind!r}")
        if not _increasing((0.0, *self.pi_pulse_times, self.total_time)):
            raise ValueError("total_time must be positive and pi_pulse_times strictly "
                             "increasing inside (0, total_time)")

    @property
    def n_pulses(self) -> int:
        return len(self.pi_pulse_times)

    def scaled(self, total_time: float) -> "PulseSequence":
        """The same kind of sequence with each pulse moved to t / total_time * T.

        From a pattern built at total time 1 that is f * T, the product that
        ``cpmg`` and ``custom`` form at T, and 0.5 * T equals the T / 2 of
        ``hahn``: the rescaled sequence is the one built at T, bit for bit.
        """
        s, T = self.total_time, float(total_time)
        return PulseSequence(self.kind, T, tuple([t / s * T for t in self.pi_pulse_times]))


def fid(total_time: float) -> PulseSequence:
    return PulseSequence("fid", total_time)


def hahn(total_time: float) -> PulseSequence:
    """pi/2 - tau - pi - tau with tau = total_time / 2."""
    return PulseSequence("hahn", total_time, (total_time / 2.0,))


def cpmg_times(n: int, total_time: float) -> list:
    """Pulse instants t_j = (2j-1)/(2n) * total_time, j = 1..n.

    n = 1 reproduces the Hahn echo.
    """
    if n < 1:
        raise ValueError("CPMG needs at least one pulse")
    if total_time <= 0:
        raise ValueError("total_time must be positive")
    return [(2 * j - 1) / (2 * n) * total_time for j in range(1, n + 1)]


def cpmg(n: int, total_time: float) -> PulseSequence:
    return PulseSequence("cpmg", total_time, tuple(cpmg_times(n, total_time)))


def custom(pi_pulse_times, total_time: float) -> PulseSequence:
    return PulseSequence("custom", total_time, tuple(pi_pulse_times))


def toggling(sequence: PulseSequence) -> TogglingFunction:
    """Toggling sign function of an ideal pulse sequence."""
    return TogglingFunction((0.0, *sequence.pi_pulse_times, sequence.total_time))


def checked_times(total_times) -> np.ndarray:
    """``total_times`` as floats, the one check of a time grid: a ValueError
    names the first time that is not finite and positive, or refuses a grid
    that is not a non-empty, strictly increasing 1-D array."""
    t = np.asarray(total_times, dtype=float)
    bad = ~(np.isfinite(t) & (t > 0))
    if bad.any():
        raise ValueError(f"total_times must be finite and positive, got {float(t[bad][0])!r} s")
    if t.ndim != 1 or t.size == 0 or not _increasing(t):
        raise ValueError("total_times must be a non-empty, strictly increasing 1-D grid")
    return t


def on_grid(sequence: PulseSequence, times) -> np.ndarray:
    """The breakpoints (0, t / total_time * T, ..., T) of
    ``toggling(sequence.scaled(T))``, bit for bit, for each T of ``times``:
    shape (n_times, n_pulses + 2).  A ValueError names the first T at which
    the rescaled pulses collide or reach 0 or T."""
    T = np.asarray(times, dtype=float)[:, None]
    fractions = np.divide(sequence.pi_pulse_times, sequence.total_time)
    bp = np.hstack([np.zeros_like(T), fractions * T, T])
    ok = _increasing(bp)
    if not ok.all():
        raise ValueError(f"pulses collide or reach an end of the sequence at "
                         f"t = {float(T[np.argmin(ok), 0])!r} s")
    return bp

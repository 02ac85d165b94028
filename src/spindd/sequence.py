"""Pulse sequences (FID, Hahn, CPMG-n, custom) and the piecewise +/-1
toggling function they induce on the accumulated phase."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TogglingFunction:
    """Piecewise-constant sign function s(t) on [0, T].

    ``breakpoints`` includes 0 and T; ``signs[i]`` is the value on
    [breakpoints[i], breakpoints[i+1]).  The initial sign is +1 and it flips
    at every pi-pulse instant.
    """

    breakpoints: tuple
    signs: tuple

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        if bp.size < 2 or np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing, length >= 2")
        if len(self.signs) != bp.size - 1:
            raise ValueError("need one sign per segment")
        if any(s not in (-1, 1) for s in self.signs):
            raise ValueError("signs must be +1 or -1")

    @property
    def total_time(self) -> float:
        return self.breakpoints[-1]

    def segments(self):
        """Yield (t_start, t_end, sign) triples."""
        bp = self.breakpoints
        for i, s in enumerate(self.signs):
            yield bp[i], bp[i + 1], s

    def signed_area(self) -> float:
        bp = np.asarray(self.breakpoints)
        return float(np.dot(np.asarray(self.signs, dtype=float), np.diff(bp)))

    def __call__(self, t):
        idx = np.clip(
            np.searchsorted(self.breakpoints, t, side="right") - 1,
            0,
            len(self.signs) - 1,
        )
        return np.asarray(self.signs)[idx]


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
    n_pulses: int = 0

    def __post_init__(self):
        if self.kind not in ("fid", "hahn", "cpmg", "custom"):
            raise ValueError(f"unknown sequence kind {self.kind!r}")
        if self.total_time <= 0:
            raise ValueError("total_time must be positive")
        t = np.asarray(self.pi_pulse_times, dtype=float)
        if t.size:
            if np.any(np.diff(t) <= 0):
                raise ValueError("pi_pulse_times must be strictly increasing")
            if t[0] <= 0 or t[-1] >= self.total_time:
                raise ValueError("pi_pulse_times must lie strictly inside (0, total_time)")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "total_time": self.total_time,
            "pi_pulse_times": list(self.pi_pulse_times),
            "n_pulses": self.n_pulses,
        }

    @staticmethod
    def from_dict(d: dict) -> "PulseSequence":
        return PulseSequence(
            kind=d["kind"],
            total_time=d["total_time"],
            pi_pulse_times=tuple(d.get("pi_pulse_times", ())),
            n_pulses=d.get("n_pulses", 0),
        )


def fid(total_time: float) -> PulseSequence:
    return PulseSequence("fid", total_time)


def hahn(total_time: float) -> PulseSequence:
    """pi/2 - tau - pi - tau with tau = total_time / 2."""
    return PulseSequence("hahn", total_time, (total_time / 2.0,), n_pulses=1)


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
    return PulseSequence("cpmg", total_time, tuple(cpmg_times(n, total_time)), n_pulses=n)


def custom(pi_pulse_times, total_time: float) -> PulseSequence:
    return PulseSequence("custom", total_time, tuple(pi_pulse_times),
                         n_pulses=len(pi_pulse_times))


def toggling(sequence: PulseSequence) -> TogglingFunction:
    """Toggling sign function of an ideal pulse sequence."""
    bp = (0.0,) + tuple(sequence.pi_pulse_times) + (sequence.total_time,)
    signs = tuple((-1) ** i for i in range(len(bp) - 1))
    return TogglingFunction(bp, signs)


def echo_times(sequence: PulseSequence) -> list:
    """Echo instants 2*tau, 4*tau, ..., 2n*tau of a CPMG(n) sequence."""
    if sequence.kind == "cpmg" or (sequence.kind == "hahn" and sequence.n_pulses == 1):
        n = sequence.n_pulses
    else:
        raise ValueError("echo_times is defined for CPMG (and Hahn) sequences only")
    tau = sequence.total_time / (2 * n)
    return [2 * j * tau for j in range(1, n + 1)]

"""AC magnetometry: phase response to a synchronized AC field, photon
shot-noise readout, minimal detectable field and sensitivity-vs-time scans.

Everything here is analytic: a scan spends each point's time budget on a
fractional number of shots, so dB_min follows k/sqrt(t) exactly.

Conventions used throughout the pipeline:
  * the ideal signal is s = cos(dPhi + theta0), and the sensor operates at
    the quadrature point theta0 = pi/2 where |ds/dPhi| = 1;
  * sigma_sn is quoted on the contrast-weighted scale y = contrast * s, the
    same scale as the slope dS = contrast * |d dPhi / dB|, so that
    dB_min = sigma_sn / dS without extra factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import sequence as sq
from .field import FieldModel, NVParameters, SinusoidAC, phase_map
from .fit import DecayFit, FitError, fit_power_law

#: laser polarization/readout dead time added to every shot, seconds
DEFAULT_OVERHEAD = 2e-6


@dataclass(frozen=True)
class ReadoutModel:
    """Scalar photon-counting readout.

    photons_per_shot is the mean detected photon number for the bright
    (m_s = 0) state; contrast is the fractional fluorescence dip of the dark
    state.  Both are artifact assumptions, overridable in config.
    """

    photons_per_shot: float = 0.03
    contrast: float = 0.3
    overhead: float = DEFAULT_OVERHEAD  # s per shot on top of the sequence

    def __post_init__(self):
        if not (0 < self.contrast < 1):
            raise ValueError("contrast must be in (0, 1)")
        if not self.photons_per_shot > 0:
            raise ValueError("photons_per_shot must be positive")
        if not self.overhead >= 0:
            raise ValueError("overhead must be non-negative")

    def mean_photons(self, signal: float) -> float:
        """Expected photons per shot when the ideal signal is cos = signal."""
        return self.photons_per_shot * (1.0 - 0.5 * self.contrast * (1.0 - signal))

    def sigma_sn(self, signal: float, shots):
        """Shot-noise std-dev on the contrast-weighted scale at each shot count."""
        lam = self.mean_photons(signal)
        return (2.0 / self.photons_per_shot) * np.sqrt(lam / shots)


@dataclass
class SensitivityResult:
    times: np.ndarray  # total measurement time per point, s
    delta_b_min: np.ndarray  # Tesla
    sigma_sn: np.ndarray
    slope: float  # signal per Tesla
    fit: DecayFit  # coefficient k in T*sqrt(s)

    @property
    def k_nt_per_sqrt_hz(self) -> float:
        return self.fit.params["coefficient"] * 1e9


def matched_ac(sequence: sq.PulseSequence, amplitude: float) -> SinusoidAC:
    """The AC field a sequence is synchronized to.

    Hahn: f = 1/(2 tau), sine phase (zero field at t = 0).  CPMG with base
    interval tau: f = 1/(4 tau), cosine phase, so the zeros fall on the pulse
    instants and every inter-pulse window accumulates with the same sign.
    """
    if sequence.kind == "fid":
        return SinusoidAC(amplitude, 1.0 / (2.0 * sequence.total_time), 0.0)
    if sequence.kind == "hahn" or (sequence.kind == "cpmg" and sequence.n_pulses == 1):
        tau = sequence.total_time / 2.0
        return SinusoidAC(amplitude, 1.0 / (2.0 * tau), 0.0)
    if sequence.kind == "cpmg":
        tau = sequence.total_time / (2.0 * sequence.n_pulses)
        return SinusoidAC(amplitude, 1.0 / (4.0 * tau), math.pi / 2.0)
    raise ValueError(f"no matched AC field for sequence kind {sequence.kind!r}")


def phase_response(
    sequence: sq.PulseSequence, ac: SinusoidAC, nv: NVParameters = NVParameters()
) -> float:
    """Signed phase picked up from an AC field under the sequence's toggling.

    Closed form; for the matched field this is 4 gamma b tau / pi (Hahn) and
    4 n gamma b tau / pi (CPMG-n).
    """
    return float(phase_map(FieldModel.of(ac), sq.toggling(sequence).breakpoints, nv.gamma_e)[0])


def signal_slope(
    sequence: sq.PulseSequence,
    readout: ReadoutModel,
    nv: NVParameters = NVParameters(),
    envelope: float = 1.0,
) -> float:
    """Contrast-weighted signal slope |dS/dB| at the quadrature point, per Tesla.

    ``envelope`` multiplies in any coherence decay of the sequence at its
    duration (1.0 ignores decoherence).
    """
    dphi_db = abs(phase_response(sequence, matched_ac(sequence, 1.0), nv))
    return readout.contrast * envelope * dphi_db


def min_detectable_field(slope: float, sigma_sn: float) -> float:
    """dB_min = sigma_sn / dS."""
    if not slope > 0:  # NaN is not
        raise ValueError("signal slope must be positive")
    return sigma_sn / slope


def sensitivity_scan(
    sequence: sq.PulseSequence,
    readout: ReadoutModel,
    total_times,
    nv: NVParameters = NVParameters(),
    envelope: float = 1.0,
    ac_amplitude_jitter: float = 0.0,
) -> SensitivityResult:
    """dB_min versus total measurement time, with a k/sqrt(t) fit.

    Each point spends its whole budget on repeated shots of duration
    (sequence time + overhead), a fractional number of them, so the scan
    has an exact -1/2 exponent.  With the exponent pinned, k is the
    closed-form least-squares amplitude of t^(-1/2); no iteration runs.
    ``ac_amplitude_jitter`` (>= 0) inflates sigma_sn by a relative
    AC-amplitude fluctuation floor, mimicking an unstable test field.
    A slope not finite and positive or a dB_min not finite raises
    FloatingPointError, a k residual not finite FitError; numpy stays silent.
    """
    total_times = sq.checked_times(total_times)
    if total_times.size < 4:
        raise ValueError("need at least 4 scan points")
    if not ac_amplitude_jitter >= 0.0:
        raise ValueError(f"ac_amplitude_jitter must be >= 0, got {ac_amplitude_jitter!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        slope = signal_slope(sequence, readout, nv, envelope)
        if not (math.isfinite(slope) and slope > 0.0):
            raise FloatingPointError(f"signal slope {slope!r} per T is not finite and positive "
                                     f"(envelope {envelope!r})")
        shots = total_times / (sequence.total_time + readout.overhead)
        # hypot(s, 0) is s exactly
        sigmas = np.hypot(readout.sigma_sn(0.0, shots), ac_amplitude_jitter * readout.contrast)
        dbs = min_detectable_field(slope, sigmas)
        if not np.all(np.isfinite(dbs)):
            raise FloatingPointError(f"delta_b_min is not finite at t = "
                                     f"{float(total_times[~np.isfinite(dbs)][0])!r} s")
        fit = fit_power_law((total_times, dbs), fixed_exponent=-0.5)
    if not fit.converged:
        raise FitError("k/sqrt(t) fit did not converge")
    return SensitivityResult(total_times, dbs, sigmas, slope, fit)

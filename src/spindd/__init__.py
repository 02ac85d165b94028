"""Single-spin dephasing under classical field noise: dynamical decoupling
sequences, Taylor-channel suppression factors, Monte Carlo coherence curves,
decay fitting and AC-magnetometry sensitivity estimation."""

from .field import (
    GAMMA_E,
    NVParameters,
    FieldModel,
    StaticOffset,
    QuasiStaticGaussian,
    OrnsteinUhlenbeck,
    Polynomial,
    SinusoidAC,
    RngSpec,
    phase_map,
)
from .sequence import PulseSequence, TogglingFunction, cpmg_times, toggling
from .taylor import hahn_factor, cpmg_factor, oracle_factor, SuppressionFactor
from .evolve import (
    CoherenceCurve,
    coherence_curve,
    t1_envelope,
    spin_lock_curve,
    pulse_error_curve,
    ou_coherence_exponent,
)
from .fit import DecayFit, fit_decay, fit_power_law
from .sense import (
    ReadoutModel,
    SensitivityResult,
    phase_response,
    matched_ac,
    min_detectable_field,
    signal_slope,
    sensitivity_scan,
)

__version__ = "0.1.0"

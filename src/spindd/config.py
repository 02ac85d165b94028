"""Experiment configuration: JSON schema, unit-suffixed parsing, presets.

Configs are plain JSON.  Every physical quantity is a string with a unit
suffix ("59.22 nT", "25 us"); unknown keys are rejected with the offending
key named.  Presets expand to fully explicit configs before validation, so
an expanded config has no hidden state.
"""

from __future__ import annotations

import copy
import json
import math
from typing import Optional

import numpy as np

from . import units
from .field import (
    GAMMA_E,
    FieldModel,
    NVParameters,
    OrnsteinUhlenbeck,
    Polynomial,
    QuasiStaticGaussian,
    SinusoidAC,
    StaticOffset,
)
from .sense import ReadoutModel


class ConfigError(ValueError):
    """Schema violation; message names the offending field."""


# Bath parameters are tuned against the bulk-CVD reference values
# (Hahn T2 = 0.39 ms, CPMG-90 T2 ~ 2.4 ms under the T1 = 5.93 ms ceiling) and
# the nanodiamond ones against Hahn T2 = 2.1 us with T1 = 100 us.
# photons_per_shot is tuned so the Hahn sensitivity scan at tau = 115 us
# fits k = 19.4 nT/sqrt(Hz).
PRESETS = {
    "bulk_cvd": {
        "nv": {"t1": "5.93 ms"},
        "field": [{"type": "ornstein_uhlenbeck", "sigma_b": "59.22345 nT", "tau_c": "25 us"}],
        "rabi_frequency": "40 kHz",
    },
    "nanodiamond": {
        "nv": {"t1": "100 us"},
        "field": [{"type": "ornstein_uhlenbeck", "sigma_b": "27.41869 uT", "tau_c": "20 ns"}],
        "rabi_frequency": "10 MHz",
    },
}

SENSE_READOUT_DEFAULTS = {
    "photons_per_shot": 0.08841940036389989,
    "contrast": 0.3,
    "overhead": "2 us",
}

_FIELD_SCHEMAS = {
    "static_offset": {"b"},
    "quasi_static_gaussian": {"sigma_b"},
    "ornstein_uhlenbeck": {"sigma_b", "tau_c"},
    "polynomial": {"coefficients"},
    "sinusoid_ac": {"amplitude", "frequency", "phase"},
}

_EXPERIMENT_KEYS = {
    "decay": {"experiment", "preset", "seed", "shots", "threads", "nv", "field",
              "sequence", "times", "t1_envelope", "out"},
    "spinlock": {"experiment", "preset", "seed", "shots", "threads", "nv", "field",
                 "rabi_frequency", "times", "t1_envelope", "out"},
    "suppression_table": {"experiment", "n_max", "k_max", "out"},
    "pulse_error": {"experiment", "preset", "seed", "shots", "nv", "field",
                    "n_pulses", "flip_angle_error", "phase_convention", "times",
                    "t1_envelope", "out"},
    "sense": {"experiment", "preset", "seed", "nv", "field", "readout", "sequence",
              "sequence_tau", "times", "envelope", "ac_amplitude_jitter", "out"},
    "fit": {"experiment", "input_csv", "model", "fixed_params", "out"},
}

_SEQ_KEYS = {
    "fid": {"kind"},
    "hahn": {"kind"},
    "cpmg": {"kind", "n_pulses"},
    "custom": {"kind", "pulse_time_fractions"},
}


def _check_keys(d: dict, allowed: set, where: str):
    for key in d:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse failure at line {exc.lineno}, column {exc.colno}: {exc.msg}")


def expand_preset(raw: dict) -> dict:
    cfg = copy.deepcopy(raw)
    name = cfg.pop("preset", None)
    if name is None:
        return cfg
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r} (have {sorted(PRESETS)})")
    preset = PRESETS[name]
    for key, value in preset.items():
        if key == "rabi_frequency" and cfg.get("experiment") != "spinlock":
            continue
        cfg.setdefault(key, copy.deepcopy(value))
    return cfg


def parse_field(spec, where="field") -> FieldModel:
    if not isinstance(spec, list) or not spec:
        raise ConfigError(f"{where} must be a non-empty list of components")
    comps = []
    for i, item in enumerate(spec):
        w = f"{where}[{i}]"
        if "type" not in item:
            raise ConfigError(f"missing key 'type' in {w}")
        kind = item["type"]
        if kind not in _FIELD_SCHEMAS:
            raise ConfigError(f"unknown field component type {kind!r} in {w}")
        _check_keys(item, _FIELD_SCHEMAS[kind] | {"type"}, w)
        try:
            if kind == "static_offset":
                comps.append(StaticOffset(units.tesla(item["b"])))
            elif kind == "quasi_static_gaussian":
                comps.append(QuasiStaticGaussian(units.tesla(item["sigma_b"])))
            elif kind == "ornstein_uhlenbeck":
                comps.append(
                    OrnsteinUhlenbeck(units.tesla(item["sigma_b"]), units.seconds(item["tau_c"]))
                )
            elif kind == "polynomial":
                # coefficients are T s^-k; unit suffixes cannot express powers,
                # so these are the one bare-number exception, documented here
                comps.append(Polynomial(tuple(float(c) for c in item["coefficients"])))
            elif kind == "sinusoid_ac":
                comps.append(
                    SinusoidAC(
                        units.tesla(item["amplitude"]),
                        units.hertz(item["frequency"]),
                        units.radians(item.get("phase", "0 rad")),
                    )
                )
        except KeyError as exc:
            raise ConfigError(f"missing key {exc.args[0]!r} in {w}")
        except units.UnitError as exc:
            raise ConfigError(f"{w}: {exc}")
        except ValueError as exc:
            raise ConfigError(f"{w}: {exc}")
    return FieldModel(tuple(comps))


def parse_nv(spec: Optional[dict]) -> NVParameters:
    if spec is None:
        return NVParameters()
    _check_keys(spec, {"gamma_e_rad_per_s_per_T", "t1", "zero_field_splitting", "static_field"},
                "nv")
    try:
        return NVParameters(
            gamma_e=float(spec.get("gamma_e_rad_per_s_per_T", GAMMA_E)),
            t1=units.seconds(spec["t1"]) if "t1" in spec else NVParameters().t1,
            zero_field_splitting=(
                units.hertz(spec["zero_field_splitting"])
                if "zero_field_splitting" in spec
                else NVParameters().zero_field_splitting
            ),
            static_field_b0=(
                units.tesla(spec["static_field"])
                if "static_field" in spec
                else NVParameters().static_field_b0
            ),
        )
    except (units.UnitError, ValueError) as exc:
        raise ConfigError(f"nv: {exc}")


def parse_times(spec: dict, dimension="second") -> np.ndarray:
    if not isinstance(spec, dict):
        raise ConfigError("times must be an object with start/stop/count")
    _check_keys(spec, {"start", "stop", "count", "spacing"}, "times")
    try:
        start = units.parse_quantity(spec["start"], dimension)
        stop = units.parse_quantity(spec["stop"], dimension)
        count = int(spec["count"])
    except KeyError as exc:
        raise ConfigError(f"missing key {exc.args[0]!r} in times")
    except units.UnitError as exc:
        raise ConfigError(f"times: {exc}")
    if count < 2:
        raise ConfigError("times.count must be >= 2")
    if not (0 < start < stop):
        raise ConfigError("times must satisfy 0 < start < stop")
    spacing = spec.get("spacing", "linear")
    if spacing == "linear":
        return np.linspace(start, stop, count)
    if spacing == "geometric":
        return np.geomspace(start, stop, count)
    raise ConfigError(f"unknown times.spacing {spacing!r}")


def parse_sequence_spec(spec: dict):
    """Returns (kind, params dict); materialized per total time by the runner."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("sequence must be an object with a 'kind'")
    kind = spec["kind"]
    if kind not in _SEQ_KEYS:
        raise ConfigError(f"unknown sequence kind {kind!r}")
    _check_keys(spec, _SEQ_KEYS[kind], "sequence")
    if kind == "cpmg":
        n = int(spec.get("n_pulses", 0))
        if n < 1:
            raise ConfigError("sequence.n_pulses must be >= 1 for cpmg")
        return kind, {"n_pulses": n}
    if kind == "custom":
        fr = [float(x) for x in spec.get("pulse_time_fractions", [])]
        if not fr or any(not 0 < x < 1 for x in fr) or any(b <= a for a, b in zip(fr, fr[1:])):
            raise ConfigError(
                "sequence.pulse_time_fractions must be strictly increasing in (0, 1)"
            )
        return kind, {"pulse_time_fractions": fr}
    return kind, {}


def parse_readout(spec: Optional[dict]) -> ReadoutModel:
    merged = dict(SENSE_READOUT_DEFAULTS)
    if spec is not None:
        _check_keys(spec, {"photons_per_shot", "contrast", "overhead"}, "readout")
        merged.update(spec)
    try:
        return ReadoutModel(
            photons_per_shot=float(merged["photons_per_shot"]),
            contrast=float(merged["contrast"]),
            overhead=units.seconds(merged["overhead"]),
        )
    except (units.UnitError, ValueError) as exc:
        raise ConfigError(f"readout: {exc}")


def validate(raw: dict):
    """Full schema check plus physics sanity warnings; returns a report dict.

    Does not run anything.  Warnings flag regimes where the request is
    self-defeating (motional narrowing vs decoupling, degenerate grids).
    """
    cfg = expand_preset(raw)
    if "experiment" not in cfg:
        raise ConfigError("missing key 'experiment'")
    kind = cfg["experiment"]
    if kind not in _EXPERIMENT_KEYS:
        raise ConfigError(f"unknown experiment {kind!r}")
    _check_keys(cfg, _EXPERIMENT_KEYS[kind], "config")

    warnings = []
    if "shots" in cfg:
        if int(cfg["shots"]) < 100:
            raise ConfigError("shots must be >= 100")
    if "seed" in cfg:
        seed = int(cfg["seed"])
        if not (0 <= seed < 2**64):
            raise ConfigError("seed must fit in 64 bits")

    model = None
    if "field" in cfg:
        model = parse_field(cfg["field"])
    elif kind in ("decay", "spinlock", "pulse_error"):
        raise ConfigError("missing key 'field'")
    nv = parse_nv(cfg.get("nv"))
    times = parse_times(cfg["times"]) if "times" in cfg else None

    if kind in ("decay",):
        seq_kind, seq_params = parse_sequence_spec(cfg.get("sequence", {"kind": "hahn"}))
        if model is not None and times is not None and seq_kind == "cpmg":
            n = seq_params["n_pulses"]
            base_tau = float(times[-1]) / (2 * n)
            for comp in model.components:
                if isinstance(comp, OrnsteinUhlenbeck) and comp.tau_c < base_tau / 10:
                    warnings.append(
                        "motional-narrowing regime: OU tau_c "
                        f"{comp.tau_c:.3g} s << CPMG base tau {base_tau:.3g} s; "
                        "decoupling will be ineffective"
                    )
    if kind == "sense":
        parse_readout(cfg.get("readout"))
        parse_sequence_spec(cfg.get("sequence", {"kind": "hahn"}))
        if times is not None and times.size < 4:
            raise ConfigError("sense needs at least 4 time points")
    if kind == "suppression_table":
        if int(cfg.get("n_max", 0)) < 1 or int(cfg.get("k_max", -1)) < 0:
            raise ConfigError("suppression_table needs n_max >= 1 and k_max >= 0")
    if kind == "pulse_error":
        if "n_pulses" not in cfg:
            raise ConfigError("missing key 'n_pulses'")
        try:
            n_pulses = int(cfg["n_pulses"])
        except (TypeError, ValueError):
            raise ConfigError(f"n_pulses must be an integer, got {cfg['n_pulses']!r}")
        if n_pulses < 1:
            raise ConfigError("n_pulses must be >= 1")
        if abs(float(cfg.get("flip_angle_error", 0.0))) >= 0.5:
            raise ConfigError("flip_angle_error must satisfy |e| < 0.5")
        if cfg.get("phase_convention", "cpmg") not in ("cp", "cpmg"):
            raise ConfigError("phase_convention must be 'cp' or 'cpmg'")
    if kind == "spinlock":
        if "rabi_frequency" not in cfg:
            raise ConfigError("missing key 'rabi_frequency'")
        try:
            rabi = units.hertz(cfg["rabi_frequency"])
        except units.UnitError as exc:
            raise ConfigError(f"rabi_frequency: {exc}")
        if rabi < 0:
            raise ConfigError("rabi_frequency must be non-negative")

    if model is not None:
        ratio = model.quasi_static_ratio()
        if math.isfinite(ratio) and ratio < 1e-3:
            warnings.append(
                f"slow-fluctuation diagnostic gamma*sigma*tau_c = {ratio:.3g}; "
                "the bath is deep in the motional regime"
            )
    return {"experiment": kind, "valid": True, "warnings": warnings, "expanded": cfg}

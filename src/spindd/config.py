"""Experiment configuration: JSON schema, unit-suffixed parsing, presets.

Configs are plain JSON.  Every physical quantity is a string with a unit
suffix ("59.22 nT", "25 us"); unknown keys are rejected with the offending
key named.  Presets expand to fully explicit configs before validation, so
an expanded config has no hidden state.

``validate`` is the only reader of a config.  Each experiment's keys are the
fields of its frozen spec, each declared with the reader of its value, so a
key is accepted exactly when it is read; the runner consumes the spec, and a
Monte Carlo spec (decay, spin lock, pulse-error train) runs its own ``curve``.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import sys
from dataclasses import MISSING, dataclass
from functools import partial
from typing import Optional, Union

import numpy as np

from . import evolve, sequence as sq, units
from .field import (
    CHUNK,
    FieldModel,
    NVParameters,
    OrnsteinUhlenbeck,
    Polynomial,
    QuasiStaticGaussian,
    RngSpec,
    SinusoidAC,
    StaticOffset,
)
from .sense import ReadoutModel


class ConfigError(ValueError):
    """Schema violation; message names the offending field."""


# Bath parameters are tuned against the bulk-CVD reference values
# (Hahn T2 = 0.39 ms, CPMG-90 T2 ~ 2.4 ms under the T1 = 5.93 ms ceiling) and
# the nanodiamond ones against Hahn T2 = 2.1 us with T1 = 100 us.
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

# photons_per_shot is tuned so the Hahn sensitivity scan at tau = 115 us
# fits k = 19.4 nT/sqrt(Hz).
SENSE_READOUT = ReadoutModel(photons_per_shot=0.08841940036389989, contrast=0.3)


# Readers: read(value, path) returns the parsed value or raises a ConfigError
# naming path.


def _expect(ok, value, path, what):
    if not ok:
        raise ConfigError(f"{path} must be {what}, got {value!r}")
    return value


def _boolean(value, path):
    return _expect(isinstance(value, bool), value, path, "true or false")


def _path_string(value, path):
    # os calls raise ValueError, not OSError, on a NUL character
    return _expect(isinstance(value, str) and "\0" not in value, value, path, "a path string")


def _integer(lo, hi=math.inf):
    def read(value, path):
        # true/false are Python ints but not JSON integers
        ok = isinstance(value, int) and not isinstance(value, bool) and lo <= value < hi
        return _expect(ok, value, path, f"an integer in [{lo}, {hi})")

    return read


def _number(lo=-math.inf, hi=math.inf):
    def read(value, path):
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        # the float range check also keeps huge JSON integers out of float()
        ok = ok and abs(value) <= sys.float_info.max and lo < value < hi
        return float(_expect(ok, value, path, f"a finite number in ({lo}, {hi})"))

    return read


def _choice(*options):
    def read(value, path):
        return _expect(value in options, value, path, f"one of {list(options)}")

    return read


def _quantity(dimension, lo=-math.inf):
    def read(value, path):
        try:
            x = units.parse_quantity(value, dimension)
        except units.UnitError as exc:
            raise ConfigError(f"{path}: {exc}") from None
        _expect(x >= lo, value, path, f"at least {lo}")
        return x

    return read


_FINITE, _SHOTS, _SEED = _number(), _integer(100), _integer(0, 2**64)
_TESLA, _SECONDS, _HERTZ, _RADIANS = map(_quantity, ("tesla", "second", "hertz", "radian"))


def _non_negative(value, path):
    x = _FINITE(value, path)
    return _expect(x >= 0.0, x, path, "a finite number >= 0")


def _numbers(value, path):
    _expect(isinstance(value, list), value, path, "a list of numbers")
    return tuple(_FINITE(x, f"{path}[{i}]") for i, x in enumerate(value))


def _build(where, make, *args, **kwargs):
    """make(*args, **kwargs), a domain ValueError re-raised as a ConfigError."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _key(read, default=MISSING):
    """Declares a key: ``read`` parses its value; without a default it is
    required, and a default of None leaves it out when absent."""
    return dataclasses.field(default=default, metadata={"read": read})


def _kind(obj, tag, kinds, where):
    """The value of the ``tag`` key that picks a JSON object's keys."""
    if not isinstance(obj, dict) or tag not in obj:
        raise ConfigError(f"{where or 'config'} must be a JSON object with key {tag!r}")
    path = f"{where}.{tag}" if where else tag
    return _expect(isinstance(obj[tag], str) and obj[tag] in kinds, obj[tag], path,
                   f"one of {sorted(kinds)}")


def _read(keys, obj, where, tag=None):
    """Parsed values of a JSON object's keys, declared in ``keys``; ``tag``
    is the key that picked them."""
    name = where or "config"
    if not isinstance(obj, dict):
        raise ConfigError(f"{name} must be a JSON object, got {type(obj).__name__}")
    for key in obj:
        if key not in keys and key != tag:
            raise ConfigError(f"unknown key {key!r} in {name}")
    values = {}
    for key, decl in keys.items():
        if key in obj:
            values[key] = decl.metadata["read"](obj[key], f"{where}.{key}" if where else key)
        elif decl.default is MISSING:
            raise ConfigError(f"missing key {key!r} in {name}")
        elif decl.default is not None:
            values[key] = decl.default
    return values


# keys in the order of the constructor's arguments
_FIELD_SCHEMAS = {
    "static_offset": (StaticOffset, {"b": _key(_TESLA)}),
    "quasi_static_gaussian": (QuasiStaticGaussian, {"sigma_b": _key(_TESLA)}),
    "ornstein_uhlenbeck": (OrnsteinUhlenbeck, {"sigma_b": _key(_TESLA), "tau_c": _key(_SECONDS)}),
    # coefficients are T s^-k; unit suffixes cannot express powers, so these
    # are the one bare-number exception
    "polynomial": (Polynomial, {"coefficients": _key(_numbers)}),
    "sinusoid_ac": (
        SinusoidAC,
        {"amplitude": _key(_TESLA), "frequency": _key(_HERTZ), "phase": _key(_RADIANS, 0.0)},
    ),
}


def parse_field(spec, where="field") -> FieldModel:
    if not isinstance(spec, list) or not spec:
        raise ConfigError(f"{where} must be a non-empty list of components")
    comps = []
    for i, item in enumerate(spec):
        w = f"{where}[{i}]"
        make, keys = _FIELD_SCHEMAS[_kind(item, "type", _FIELD_SCHEMAS, w)]
        comps.append(_build(w, make, *_read(keys, item, w, tag="type").values()))
    return FieldModel(tuple(comps))


# keys in the order of NVParameters' fields
_NV_KEYS = {
    "gamma_e_rad_per_s_per_T": _key(_FINITE, NVParameters.gamma_e),
    "t1": _key(_SECONDS, NVParameters.t1),
}


def parse_nv(spec, where="nv") -> NVParameters:
    return _build(where, NVParameters, *_read(_NV_KEYS, spec, where).values())


#: the most float64 values a run may hold at once, 2^30 (8 GiB)
WORK_BUDGET = 2**30
# 8-byte words per segment that bound a CPMG pattern built as it is read (measured 7)
_PATTERN = 50
# words a decay holds per segment of its pattern: the spec's tuple of Python
# floats (4) and on_grid's array of the pattern and of its fractions
_HELD_PATTERN = 6
# words per time and segment of a decay's map on the whole grid, besides 3 per
# normal (measured 4.1 static, 7.0 polynomial and AC, 12.1 with 2 OU normals),
# the OU doubling pass's arrays among them; words at any size, numpy's ufunc
# buffer of 8192 values among them
_ON_GRID, _DECAY_FIXED = 8, 2**14


# words per trajectory and time of a pulse-error block: m_x, m_y, m_z, the
# products that turn them, and the phases and OU state they are turned by
# (measured 11.3 to 12.3 for one OU component, 16.5 for four components,
# three of them stochastic), charged _TURN plus 2 a component; and words per
# time and segment of a component while it is streamed: its coefficients,
# their scaled copies and what builds them (measured 6.1 for the OU)
_TURN, _COEF = 11, 8

_TIMES_KEYS = {
    "start": _key(_SECONDS),
    "stop": _key(_SECONDS),
    # the grid and its differences are built while it is read
    "count": _key(_integer(2, WORK_BUDGET // 2)),
    "spacing": _key(_choice("linear", "geometric"), "linear"),
}


def parse_times(spec, where="times") -> np.ndarray:
    t = _read(_TIMES_KEYS, spec, where)
    if not 0 < t["start"] < t["stop"]:
        raise ConfigError(f"{where} must satisfy 0 < start < stop")
    make = np.linspace if t["spacing"] == "linear" else np.geomspace
    grid = make(t["start"], t["stop"], t["count"])
    if np.any(np.diff(grid) <= 0):
        raise ConfigError(f"{where}: start and stop too close for {t['count']} distinct points")
    return grid


def _fractions(value, path):
    fr = _numbers(value, path)
    if not fr or any(not 0 < x < 1 for x in fr) or any(b <= a for a, b in zip(fr, fr[1:])):
        raise ConfigError(f"{path} must be strictly increasing in (0, 1)")
    return fr


# kind -> (sequence constructor, its keys in argument order before the total time)
_SEQ_KEYS = {
    "fid": (sq.fid, {}),
    "hahn": (sq.hahn, {}),
    # the pattern is built while it is read
    "cpmg": (sq.cpmg, {"n_pulses": _key(_integer(1, WORK_BUDGET // _PATTERN))}),
    "custom": (sq.custom, {"pulse_time_fractions": _key(_fractions)}),
}


def parse_sequence_spec(spec, where="sequence", kinds=tuple(_SEQ_KEYS)):
    """The sequence's pulse pattern, a PulseSequence of total time 1 that the
    runner rescales to each total time."""
    make, keys = _SEQ_KEYS[_kind(spec, "kind", kinds, where)]
    return make(*_read(keys, spec, where, tag="kind").values(), 1.0)


_READOUT_KEYS = {
    "photons_per_shot": _key(_FINITE, SENSE_READOUT.photons_per_shot),
    "contrast": _key(_FINITE, SENSE_READOUT.contrast),
    "overhead": _key(_SECONDS, SENSE_READOUT.overhead),
}


def parse_readout(spec, where="readout") -> ReadoutModel:
    return _build(where, ReadoutModel, **_read(_READOUT_KEYS, spec, where))


def _envelope(value, path):
    return value if value == "auto" else _number(0.0)(value, path)


_FIXED_PARAM_KEYS = {
    "amplitude": _key(_FINITE, None),
    "decay_time": _key(_number(0.0), None),
    "offset": _key(_FINITE, None),
    "stretch": _key(_FINITE, None),
}


def _normals(model, n_seg):
    """Standard normals one trajectory draws over ``n_seg`` segments."""
    return sum(c.n_normals_base + c.n_normals_per_segment * n_seg
               for c in model.components if c.n_normals_base > 0)


def _within_budget(terms, key=None):
    """A ConfigError if a run would hold more than WORK_BUDGET float64 values
    at once; ``terms`` maps each key to the values that grow with it, and the
    message names ``key``, or else the key of the largest.  Each term is
    estimated before anything of that size is built."""
    total = sum(terms.values())
    if total > WORK_BUDGET:
        key = key or max(terms, key=terms.get)
        raise ConfigError(f"{key}: this run would hold {total:.3g} float64 values at once, "
                          f"above the budget of 2^30 (8 GiB)")


def _run_terms(shots, times):
    """What a Monte Carlo run keeps across its chunks: two partial sums per
    chunk and time.  The ``shots`` term holds no array; it bounds the length
    of the run, so that more than 2^30 shots are refused whatever else the
    run holds."""
    return {"shots": shots, "times.count": 2 * times.size * math.ceil(shots / CHUNK)}


def _workers(spec, n_workers):
    """``n_workers``, or a ConfigError naming --threads if the whole chunks
    that many threads draw at once, min(shots, n_workers CHUNK) rows, would
    hold more than the budget; the spec's own check counts one thread."""
    if n_workers > 1:
        _within_budget(spec._terms(n_workers), f"--threads {n_workers}")
    return n_workers


@dataclass(frozen=True, kw_only=True)
class _Spec:
    out: str = _key(_path_string, ".")


@dataclass(frozen=True, kw_only=True)
class _GridSpec(_Spec):
    """An experiment on a field model over a grid of total times."""

    field: FieldModel = _key(parse_field)
    nv: NVParameters = _key(parse_nv, NVParameters())
    times: np.ndarray = _key(parse_times)  # s
    seed: int = _key(_SEED, 0)


@dataclass(frozen=True, kw_only=True)
class DecaySpec(_GridSpec):
    sequence: sq.PulseSequence = _key(parse_sequence_spec, sq.hahn(1.0))  # at total time 1
    shots: int = _key(_SHOTS, 10_000)
    t1_envelope: bool = _key(_boolean, True)

    def __post_init__(self):
        _within_budget(self._terms(1))
        _build("sequence", sq.on_grid, self.sequence, self.times)

    def _terms(self, workers):
        # the normals and phases of each chunk drawn at once, the map of the pattern on the
        # whole grid with the weights of every time and QR's copies, and the pattern with
        # on_grid's copies
        n_seg, n_times = self.sequence.n_pulses + 1, self.times.size
        rows, normals = min(self.shots, workers * CHUNK), _normals(self.field, n_seg)
        terms = _run_terms(self.shots, self.times)
        terms["times.count"] += rows * n_times
        key = "sequence.n_pulses" if self.sequence.kind == "cpmg" else "sequence"
        terms[key] = (rows * min(normals, n_times) + 3 * n_times * normals + _DECAY_FIXED
                      + (_ON_GRID * n_times + _HELD_PATTERN) * n_seg)
        return terms

    def curve(self, n_workers=1):
        return evolve.coherence_curve(self.field, self.sequence, self.times, self.shots,
                                      RngSpec(self.seed), self.nv, self.t1_envelope,
                                      _workers(self, n_workers))


@dataclass(frozen=True, kw_only=True)
class SpinlockSpec(_GridSpec):
    rabi_frequency: float = _key(_quantity("hertz", 0.0))  # Hz
    shots: int = _key(_SHOTS, 200)
    t1_envelope: bool = _key(_boolean, True)

    def __post_init__(self):
        if not math.isfinite(2 * math.pi * self.rabi_frequency):
            raise ConfigError(f"rabi_frequency: {self.rabi_frequency!r} Hz overflows the "
                              "angular frequency 2 pi f")
        _within_budget(self._terms(1))

    def _terms(self, workers):
        # for each chunk drawn at once, the normals, the phases of every step and the
        # OU's terms beside them (measured 1.6 words a step), then the phases, m and
        # one sample interval's SU(2) pairs (measured 9.0 a step)
        with np.errstate(over="ignore"):
            steps = evolve.bloch_steps(self.field, self.times)
        rows, n_steps = min(self.shots, workers * CHUNK), float(np.sum(steps))
        terms = _run_terms(self.shots, self.times)
        terms["times"] = rows * max(
            _normals(self.field, n_steps) + 2 * n_steps,
            n_steps + 3 * self.times.size + 10 * float(np.max(steps)))
        return terms

    def curve(self, n_workers=1):
        return evolve.spin_lock_curve(self.field, 2 * math.pi * self.rabi_frequency, self.times,
                                      self.shots, RngSpec(self.seed), self.nv, self.t1_envelope,
                                      _workers(self, n_workers))


@dataclass(frozen=True, kw_only=True)
class PulseErrorSpec(_GridSpec):
    n_pulses: int = _key(_integer(1))
    flip_angle_error: float = _key(_number(-0.5, 0.5), 0.0)
    phase_convention: str = _key(_choice("cp", "cpmg"), "cpmg")
    shots: int = _key(_SHOTS, 1000)
    t1_envelope: bool = _key(_boolean, False)

    def __post_init__(self):
        _within_budget(self._terms(1))
        _build("times", sq.on_grid, sq.cpmg(self.n_pulses, 1.0), self.times)

    def _terms(self, workers):
        # for each chunk drawn at once, its normals, a block of times' turn state
        # and each component's coefficients over the block; the pattern, as a
        # decay's, and on_grid's copies
        n_seg, n_times = self.n_pulses + 1, self.times.size
        shots = self.shots if self.field.is_stochastic() else 1
        rows, held = min(shots, CHUNK), min(shots, workers * CHUNK)
        block, parts = min(max(1, evolve.TURN_WORDS // rows), n_times), len(self.field.components)
        terms = _run_terms(self.shots, self.times)
        terms["n_pulses"] = (held * (_normals(self.field, n_seg) + block * (_TURN + 2 * parts))
                             + (_COEF * block * parts * -(-held // rows) + 3 * n_times
                                + _HELD_PATTERN) * n_seg)
        return terms

    def curve(self, n_workers=1):
        return evolve.pulse_error_curve(self.field, self.n_pulses, self.flip_angle_error,
                                        self.phase_convention, self.times, self.shots,
                                        RngSpec(self.seed), self.nv, self.t1_envelope,
                                        _workers(self, n_workers))


@dataclass(frozen=True, kw_only=True)
class SuppressionSpec(_Spec):
    n_max: int = _key(_integer(1, WORK_BUDGET))  # a row holds more than one value
    k_max: int = _key(_integer(0, WORK_BUDGET))

    def __post_init__(self):
        # every row at once: a 4-tuple, its list slot and three integer headers
        # (19 words), and a reduced numerator and denominator of up to
        # (k_max + 1) log2(2 n_max) bits each, 30 bits to a 4-byte digit; at
        # any size, the open file and its 8 KiB buffer (measured 5.7 kB)
        rows = self.n_max * (self.k_max + 1)
        bits = (self.k_max + 1) * math.log2(2 * self.n_max)
        _within_budget({"n_max": 19 * rows + 2**10, "k_max": rows * bits / 30})


@dataclass(frozen=True, kw_only=True)
class SenseSpec(_GridSpec):
    field: Optional[FieldModel] = _key(parse_field, None)  # needed by envelope "auto"
    readout: ReadoutModel = _key(parse_readout, SENSE_READOUT)
    # read at total time 1; __post_init__ rescales it to base interval
    # sequence_tau
    sequence: sq.PulseSequence = _key(partial(parse_sequence_spec, kinds=("hahn", "cpmg")))
    sequence_tau: Optional[float] = _key(_SECONDS, None)  # s; 115 us (hahn), 27 us (cpmg)
    envelope: Union[float, str] = _key(_envelope, 1.0)  # coherence factor or "auto"
    ac_amplitude_jitter: float = _key(_non_negative, 0.0)

    def __post_init__(self):
        tau = self.sequence_tau
        if tau is None:
            tau = 115e-6 if self.sequence.kind == "hahn" else 27e-6
        object.__setattr__(self, "sequence", _build(
            "sequence_tau", self.sequence.scaled, 2 * self.sequence.n_pulses * tau))
        if self.times.size < 4:
            raise ConfigError("sense needs at least 4 time points in times")
        if self.envelope == "auto" and self.field is None:
            raise ConfigError("envelope 'auto' needs a field model")
        with np.errstate(over="ignore"):
            shots = self.times / (self.sequence.total_time + self.readout.overhead)
        if not np.all(np.isfinite(shots)):
            raise ConfigError(
                f"times.stop: {self.times[-1]!r} s overflows the shot count "
                "t / (sequence time + readout.overhead)")


@dataclass(frozen=True, kw_only=True)
class FitSpec(_Spec):
    input_csv: str = _key(_path_string)
    model: str = _key(_choice("stretched_exp", "exponential"), "stretched_exp")
    fixed_params: Optional[dict] = _key(partial(_read, _FIXED_PARAM_KEYS), None)

    def __post_init__(self):
        free = {"amplitude", "decay_time"}
        if self.model == "stretched_exp":
            free.add("stretch")
        if self.fixed_params and free <= set(self.fixed_params):
            raise ConfigError(f"fixed_params pins every free parameter of {self.model!r}")


_EXPERIMENTS = {
    "decay": DecaySpec,
    "spinlock": SpinlockSpec,
    "pulse_error": PulseErrorSpec,
    "suppression_table": SuppressionSpec,
    "sense": SenseSpec,
    "fit": FitSpec,
}


def load_config(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except ValueError as exc:  # bad JSON or UTF-8, or an integer past the digit limit
        raise ConfigError(f"config parse failure: {exc}")


def expand_preset(raw: dict) -> dict:
    cfg = copy.deepcopy(raw)
    name = cfg.pop("preset", None)
    if name is None:
        return cfg
    if not isinstance(name, str) or name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r} (have {sorted(PRESETS)})")
    preset = PRESETS[name]
    for key, value in preset.items():
        if key == "rabi_frequency" and cfg.get("experiment") != "spinlock":
            continue
        cfg.setdefault(key, copy.deepcopy(value))
    return cfg


def validate(raw):
    """Full schema check plus physics sanity warnings; returns a report dict
    whose "spec" holds the parsed values for the experiment's runner.

    Does not run anything.  Warnings flag regimes where the request is
    self-defeating (motional narrowing vs decoupling, degenerate grids).
    """
    kind = _kind(raw, "experiment", _EXPERIMENTS, "")
    cfg = expand_preset(raw)
    cls = _EXPERIMENTS[kind]
    keys = {f.name: f for f in dataclasses.fields(cls)}
    spec = cls(**_read(keys, cfg, "", tag="experiment"))

    warnings = []
    if kind == "decay" and spec.sequence.kind == "cpmg":
        base_tau = float(spec.times[-1]) / (2 * spec.sequence.n_pulses)
        for comp in spec.field.components:
            if isinstance(comp, OrnsteinUhlenbeck) and comp.tau_c < base_tau / 10:
                warnings.append(
                    "motional-narrowing regime: OU tau_c "
                    f"{comp.tau_c:.3g} s << CPMG base tau {base_tau:.3g} s; "
                    "decoupling will be ineffective"
                )
    model = getattr(spec, "field", None)
    if model is not None:
        ratio = model.quasi_static_ratio()
        if math.isfinite(ratio) and ratio < 1e-3:
            warnings.append(
                f"slow-fluctuation diagnostic gamma*sigma*tau_c = {ratio:.3g}; "
                "the bath is deep in the motional regime"
            )
    return {"experiment": kind, "valid": True, "warnings": warnings, "expanded": cfg, "spec": spec}

"""Experiment configuration: JSON schema, unit-suffixed parsing, presets.

Configs are plain JSON.  Every physical quantity is a string with a unit
suffix ("59.22 nT", "25 us"); unknown keys are rejected with the offending
key named.  Presets expand to fully explicit configs before validation, so
an expanded config has no hidden state.

``validate`` is the only reader of a config.  Each experiment's keys are the
fields of its frozen spec, each declared with the reader of its value, so a
key is accepted exactly when it is read; the runner consumes the spec, and a
Monte Carlo spec (decay, spin lock, pulse-error train) runs its own ``curve``.
A reader bounds an integer only so that a float holds it (2^30; 2^64 for the
seed) and charges nothing: every array a config asks for is counted once
against the work budget (``evolve.WORK_BUDGET``) by its spec before it is
built, grid and pattern included.  A curve's chunk is counted in ``evolve``,
whose driver runs no more threads than the budget has chunks for.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import json
import math
import os
import sys
from dataclasses import MISSING, dataclass
from functools import partial
from typing import Any, Callable, NamedTuple, Optional, Union

import numpy as np

from . import evolve, sequence as sq, units
from .field import (
    FieldModel,
    NVParameters,
    OrnsteinUhlenbeck,
    Polynomial,
    QuasiStaticGaussian,
    RngSpec,
    SinusoidAC,
    StaticOffset,
    normal_counts,
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


def _integer(lo, hi=evolve.WORK_BUDGET + 1):
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
    """A list of finite numbers as floats: a list of JSON numbers (not bool) in
    one pass, any other element by element, up to the first refused."""
    _expect(isinstance(value, list), value, path, "a list of numbers")
    with contextlib.suppress(OverflowError):  # an integer past the largest float
        if set(map(type, value)) <= {int, float} and all(map(math.isfinite, map(float, value))):
            return tuple(map(float, value))
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


_TIMES_KEYS = {
    "start": _key(_SECONDS),
    "stop": _key(_SECONDS),
    "count": _key(_integer(2)),
    "spacing": _key(_choice("linear", "geometric"), "linear"),
}


# a list as read: its count, and build() of its values once the estimate
# passes (a grid's times, a custom pattern's fractions)
_Counted = NamedTuple("_Counted", [("count", int), ("build", Callable[[], Any])])


def _grid(spec, where="times") -> _Counted:
    t = _read(_TIMES_KEYS, spec, where)
    if not 0 < t["start"] < t["stop"]:
        raise ConfigError(f"{where} must satisfy 0 < start < stop")
    make = np.linspace if t["spacing"] == "linear" else np.geomspace
    return _Counted(t["count"], lambda: _build(where, sq.checked_times,
                                               make(t["start"], t["stop"], t["count"])))


def parse_times(spec, where="times") -> np.ndarray:
    return _grid(spec, where).build()


def _fractions(value, path):
    """A custom pattern's pulse-time fractions, read as their count."""
    _expect(isinstance(value, list), value, path, "a list of numbers")
    return _Counted(len(value), partial(_increasing_fractions, value, path))


def _increasing_fractions(value, path):
    fr = _numbers(value, path)
    # range and order in one array pass: 0 < fr[0] < ... < fr[-1] < 1
    if not fr or not sq._increasing((0.0, *fr, 1.0)):
        raise ConfigError(f"{path} must be strictly increasing in (0, 1)")
    return fr


# a sequence as read: its kind, pulse count and build(total_time), once the estimate passes
_Pattern = NamedTuple("_Pattern", [("kind", str), ("n_pulses", int), ("build", partial)])

# kind -> (sequence constructor, its keys in argument order before the total
# time, the pulse count of their values)
_SEQ_KEYS = {
    "fid": (sq.fid, {}, lambda: 0),
    "hahn": (sq.hahn, {}, lambda: 1),
    "cpmg": (sq.cpmg, {"n_pulses": _key(_integer(1))}, lambda n: n),
    "custom": (lambda fr, total_time: sq.custom(fr.build(), total_time),
               {"pulse_time_fractions": _key(_fractions)}, lambda fr: fr.count),
}


def parse_sequence_spec(spec, where="sequence", kinds=tuple(_SEQ_KEYS)) -> _Pattern:
    kind = _kind(spec, "kind", kinds, where)
    make, keys, count = _SEQ_KEYS[kind]
    values = _read(keys, spec, where, tag="kind").values()
    return _Pattern(kind, count(*values), partial(make, *values))


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


def _within_budget(terms):
    """A ConfigError if a run would hold more than ``evolve.WORK_BUDGET``
    float64 values at once; ``terms`` maps each key to the values that grow
    with it, and the message names the key of the largest.  Each term is
    estimated before anything of that size is built."""
    total, budget = sum(terms.values()), evolve.WORK_BUDGET
    if total > budget:
        key = max(terms, key=terms.get)
        raise ConfigError(f"{key}: this run would hold {total:.3g} float64 values at once, above "
                          f"the budget of 2^{math.log2(budget):.3g} ({8 * budget / 2**30:.3g} GiB)")


@dataclass(frozen=True, kw_only=True)
class _Spec:
    out: str = _key(_path_string, ".")


@dataclass(frozen=True, kw_only=True)
class _GridSpec(_Spec):
    """An experiment on a field model over a grid of total times, read as a
    _Counted, which __post_init__ builds once the spec's estimate passes."""

    field: FieldModel = _key(parse_field)
    nv: NVParameters = _key(parse_nv, NVParameters())
    times: np.ndarray = _key(_grid)  # s
    seed: int = _key(_SEED, 0)

    def __post_init__(self):
        _within_budget(self._terms())
        object.__setattr__(self, "times", self.times.build())


@dataclass(frozen=True, kw_only=True)
class DecaySpec(_GridSpec):
    # read as a _Pattern, which __post_init__ builds at total time 1
    sequence: sq.PulseSequence = _key(parse_sequence_spec, parse_sequence_spec({"kind": "hahn"}))
    shots: int = _key(_SHOTS, 10_000)
    t1_envelope: bool = _key(_boolean, True)

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "sequence", self.sequence.build(1.0))
        _build("sequence", sq.on_grid, self.sequence, self.times)

    def _terms(self):
        held, rest = evolve.coherence_words(self.field, self.sequence.n_pulses, self.times.count,
                                            self.shots)
        key = "sequence.n_pulses" if self.sequence.kind == "cpmg" else "sequence"
        return {"times.count": evolve.partial_words(self.shots, self.times.count) + held, key: rest}

    def curve(self, n_workers=1):
        return evolve.coherence_curve(self.field, self.sequence, self.times, self.shots,
                                      RngSpec(self.seed), self.nv, self.t1_envelope, n_workers)


@dataclass(frozen=True, kw_only=True)
class SpinlockSpec(_GridSpec):
    rabi_frequency: float = _key(_quantity("hertz", 0.0))  # Hz
    shots: int = _key(_SHOTS, 200)
    t1_envelope: bool = _key(_boolean, True)

    def __post_init__(self):
        super().__post_init__()
        if not math.isfinite(2 * math.pi * self.rabi_frequency):
            raise ConfigError(f"rabi_frequency: {self.rabi_frequency!r} Hz overflows the "
                              "angular frequency 2 pi f")
        # the steps are a sum over the built grid's intervals
        _within_budget({"times.count": evolve.partial_words(self.shots, self.times.size),
                        "times": sum(evolve.spin_lock_words(self.field, self.times, self.shots))})

    def _terms(self):
        # the grid, its differences and their mask, traced at 2.125 words a point
        return {"times.count": 2.125 * self.times.count}

    def curve(self, n_workers=1):
        return evolve.spin_lock_curve(self.field, 2 * math.pi * self.rabi_frequency, self.times,
                                      self.shots, RngSpec(self.seed), self.nv, self.t1_envelope,
                                      n_workers)


@dataclass(frozen=True, kw_only=True)
class PulseErrorSpec(_GridSpec):
    n_pulses: int = _key(_integer(1))
    flip_angle_error: float = _key(_number(-0.5, 0.5), 0.0)
    phase_convention: str = _key(_choice("cp", "cpmg"), "cpmg")
    shots: int = _key(_SHOTS, 1000)
    t1_envelope: bool = _key(_boolean, False)

    def __post_init__(self):
        super().__post_init__()
        _build("times", sq.on_grid, sq.cpmg(self.n_pulses, 1.0), self.times)

    def _terms(self):
        return {"times.count": evolve.partial_words(self.shots, self.times.count),
                "n_pulses": sum(evolve.pulse_error_words(self.field, self.n_pulses,
                                                         self.times.count, self.shots))}

    def curve(self, n_workers=1):
        return evolve.pulse_error_curve(self.field, self.n_pulses, self.flip_angle_error,
                                        self.phase_convention, self.times, self.shots,
                                        RngSpec(self.seed), self.nv, self.t1_envelope, n_workers)


@dataclass(frozen=True, kw_only=True)
class SuppressionSpec(_Spec):
    n_max: int = _key(_integer(1))
    k_max: int = _key(_integer(0))

    def __post_init__(self):
        # every row at once: a 4-tuple, its list slot and three integer headers
        # (19 words), and a reduced numerator and denominator of up to
        # (k_max + 1) log2(2 n_max) bits each, 30 bits to a 4-byte digit; at
        # any size, the open file and its 8 KiB buffer (measured 5.7 kB)
        rows = self.n_max * (self.k_max + 1)
        bits = (self.k_max + 1) * math.log2(2 * self.n_max)
        _within_budget({"n_max": 19 * rows + 2**10, "k_max": rows * bits / 30})
        limit = sys.get_int_max_str_digits()  # str() of a longer integer raises; 0: none
        if limit and bits * math.log10(2) > limit:
            raise ConfigError(f"k_max: the table's integers would exceed the {limit} decimal "
                              "digits that str() of an int may have")


# words a sense scan holds, as traced through validate and its run: a time point's
# grid, scan, fit and sensitivity.csv text (up to 45.2); a pulse's pattern and
# breakpoints (11) and envelope "auto"'s phase_map (7, besides 1 a normal)
_SENSE_POINT, _SENSE_PULSE = 48, 18


@dataclass(frozen=True, kw_only=True)
class SenseSpec(_GridSpec):
    field: Optional[FieldModel] = _key(parse_field, None)  # needed by envelope "auto"
    readout: ReadoutModel = _key(parse_readout, SENSE_READOUT)
    # read as a _Pattern, which __post_init__ builds at 2n sequence_tau
    sequence: sq.PulseSequence = _key(partial(parse_sequence_spec, kinds=("hahn", "cpmg")))
    sequence_tau: Optional[float] = _key(_SECONDS, None)  # s; 115 us (hahn), 27 us (cpmg)
    envelope: Union[float, str] = _key(_envelope, 1.0)  # coherence factor or "auto"
    ac_amplitude_jitter: float = _key(_non_negative, 0.0)

    def __post_init__(self):
        if self.times.count < 4:
            raise ConfigError("sense needs at least 4 time points in times")
        if self.envelope == "auto" and self.field is None:
            raise ConfigError("envelope 'auto' needs a field model")
        super().__post_init__()
        tau = self.sequence_tau
        if tau is None:
            tau = 115e-6 if self.sequence.kind == "hahn" else 27e-6
        object.__setattr__(self, "sequence", _build("sequence_tau", self.sequence.build,
                                                    2 * self.sequence.n_pulses * tau))
        stop = self.times[-1]  # the most shots of the increasing grid
        if not math.isfinite(float(stop) / (self.sequence.total_time + self.readout.overhead)):
            raise ConfigError(f"times.stop: {stop!r} s overflows the shot count "
                              "t / (sequence time + readout.overhead)")

    def _terms(self):
        n = self.sequence.n_pulses
        weights = sum(normal_counts(self.field, n + 1)) if self.envelope == "auto" else 0
        return {"times.count": _SENSE_POINT * self.times.count,
                "sequence.n_pulses": _SENSE_PULSE * n + weights}


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


def read_bounded(path, key, words_per_byte):
    """The bytes of the file at ``path``, charged to the budget under ``key``
    at ``words_per_byte``: by its size before it is opened, then by what is
    read, read no further than the budget (a device or pipe has size 0)."""
    size = os.path.getsize(path)
    _within_budget({key: words_per_byte * size})
    with open(path, "rb") as fh:
        data = fh.read(size + 1)
        if len(data) > size:  # not a regular file, or one that grew
            data += fh.read(evolve.WORK_BUDGET // words_per_byte - size)
    _within_budget({key: words_per_byte * len(data)})
    return data


def load_config(path):
    try:
        data = read_bounded(path, "config", 4)  # with its parse, 3.28 words a byte traced
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        return json.loads(data.decode())
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too deep, or past a limit
        raise ConfigError(f"config parse failure: {exc}")


def expand_preset(raw: dict) -> dict:
    cfg = dict(raw)  # one level deep: no nested value is changed
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


def validate(raw, kinds=tuple(_EXPERIMENTS)):
    """Full schema check plus physics sanity warnings; returns a report dict
    whose "spec" holds the parsed values for the experiment's runner.

    Does not run anything, and refuses an experiment not in ``kinds`` before
    it reads another key.  Warnings flag regimes where the request is
    self-defeating (motional narrowing vs decoupling, degenerate grids).
    """
    kind = _kind(raw, "experiment", kinds, "")
    cfg = expand_preset(raw)
    cls = _EXPERIMENTS[kind]
    keys = {f.name: f for f in dataclasses.fields(cls)}
    spec = cls(**_read(keys, cfg, "", tag="experiment"))

    warnings = []
    if kind == "decay" and spec.sequence.kind == "cpmg":
        base_tau = float(spec.times[-1]) / (2 * spec.sequence.n_pulses)
        for comp in spec.field.components:
            if isinstance(comp, OrnsteinUhlenbeck) and comp.tau_c < base_tau / 10:
                warnings.append(f"motional-narrowing regime: OU tau_c {comp.tau_c:.3g} s << CPMG "
                                f"base tau {base_tau:.3g} s; decoupling will be ineffective")
    model = getattr(spec, "field", None)
    if model is not None:
        ratio = model.quasi_static_ratio(spec.nv.gamma_e)
        if math.isfinite(ratio) and ratio < 1e-3:
            warnings.append(f"slow-fluctuation diagnostic gamma*sigma*tau_c = {ratio:.3g}; "
                            "the bath is deep in the motional regime")
    return {"experiment": kind, "warnings": warnings, "expanded": cfg, "spec": spec}

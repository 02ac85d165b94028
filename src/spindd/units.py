"""Parsing of unit-suffixed quantity strings into strict SI floats.

Config files carry every physical quantity as a string like ``"115 us"`` or
``"19.4 nT"`` so that units are never ambiguous.  Internally everything is
Tesla / seconds / Hz / radians.
"""

from __future__ import annotations

import math
import re

# suffix -> (dimension, scale to SI)
_UNITS = {
    "T": ("tesla", 1.0),
    "mT": ("tesla", 1e-3),
    "uT": ("tesla", 1e-6),
    "nT": ("tesla", 1e-9),
    "pT": ("tesla", 1e-12),
    "G": ("tesla", 1e-4),
    "s": ("second", 1.0),
    "ms": ("second", 1e-3),
    "us": ("second", 1e-6),
    "ns": ("second", 1e-9),
    "Hz": ("hertz", 1.0),
    "kHz": ("hertz", 1e3),
    "MHz": ("hertz", 1e6),
    "GHz": ("hertz", 1e9),
    "rad": ("radian", 1.0),
    "deg": ("radian", 3.141592653589793 / 180.0),
}

_QTY_RE = re.compile(r"^\s*([+-]?[0-9.eE+-]+)\s*([a-zA-Z]+)\s*$")


class UnitError(ValueError):
    """Raised for unparseable or dimensionally wrong quantity strings."""


def parse_quantity(text: str, dimension: str) -> float:
    """Parse e.g. ``"27 us"`` into SI units of the requested dimension."""
    if isinstance(text, (int, float)):
        raise UnitError(
            f"bare number {text!r}: physical quantities must carry a unit "
            f"suffix (expected {dimension})"
        )
    if not isinstance(text, str):
        raise UnitError(f"{text!r} is not a unit-suffixed string (expected {dimension})")
    m = _QTY_RE.match(text)
    if not m:
        raise UnitError(f"cannot parse quantity {text!r}")
    value_s, suffix = m.groups()
    if suffix not in _UNITS:
        raise UnitError(f"unknown unit {suffix!r} in {text!r}")
    dim, scale = _UNITS[suffix]
    if dim != dimension:
        raise UnitError(f"{text!r} has dimension {dim}, expected {dimension}")
    try:
        value = float(value_s) * scale
    except ValueError as exc:
        raise UnitError(f"bad numeric value in {text!r}") from exc
    if not math.isfinite(value):
        raise UnitError(f"non-finite value in {text!r}")
    return value


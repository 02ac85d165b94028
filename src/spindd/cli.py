"""Experiment runner.

Subcommands: decay, suppression, spinlock, pulse-error, sense, fit, validate.
The three that run a Monte Carlo curve (decay, spinlock, pulse-error) also
take --seed, --shots and --threads (worker threads, which never change a byte).
Every run writes its artifacts plus a manifest (config digest, seed,
versions, artifact digests) sufficient to re-create the outputs bit-exactly.
Exit codes: 0 success, 2 validation, 3 numerical failure, 4 I/O.

Each artifact, the manifest last, is written once, to a new file, and hashed
as it is written.  A stale manifest.json is unlinked before a run's first
artifact byte, so a manifest present in a directory hashes exactly to the
files beside it, and a run that fails before writing (validation, most
numerical failures) leaves the previous run's files as they were.  Files
are unlinked and created rather than truncated in place: on ext4
(auto_da_alloc) closing a truncated file forces its writeback, about four
times the cost of a new file, and a rename over a file flushes too.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import itertools
import json
import math
import os
import sys

import numpy as np

from . import __version__, config as cfgmod, field as _field, sense as sensemod
from . import sequence as sq
from .config import ConfigError
from .field import phase_map
from .fit import FitError, fit_decay
from .taylor import suppression_table

ou_chi = _field.ou_chi  # not called here: the benchmark's tracer patches it

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

MANIFEST = "manifest.json"


def _finite(obj):
    """``obj`` with each non-finite float, which strict JSON cannot hold, as None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return obj


def _json_text(obj):
    """The text ``json.dump(obj, fh, indent=2, sort_keys=True)`` writes, with
    a non-finite float as null rather than as NaN or Infinity."""
    return json.dumps(_finite(obj), indent=2, sort_keys=True)


def _write_artifact(path, chunks):
    """Write the strings ``chunks`` to a new file at ``path``; returns the
    SHA-256 of the bytes written.

    The ``manifest.json`` beside ``path`` and whatever was at ``path`` are
    unlinked first, so no byte lands beside a manifest that would no longer
    describe it, a symlink at ``path`` is replaced rather than written
    through, and no file is truncated in place (which on ext4 forces a
    writeback when the file is closed)."""
    # the manifest first, and once when it is ``path``
    for stale in dict.fromkeys((os.path.join(os.path.dirname(path), MANIFEST), path)):
        try:
            os.unlink(stale)
        except FileNotFoundError:
            pass
    digest = hashlib.sha256()
    with open(path, "xb") as fh:
        for chunk in chunks:
            data = chunk.encode()
            digest.update(data)
            fh.write(data)
    return digest.hexdigest()


def _write_manifest(out_dir, cfg, digests, extra):
    manifest = {
        "config_sha256": hashlib.sha256(
            json.dumps(cfg, sort_keys=True).encode()
        ).hexdigest(),
        "config": cfg,
        "spindd_version": __version__,
        "numpy_version": np.__version__,
        "artifacts": {os.path.basename(p): d for p, d in digests.items()},
        **extra,
    }
    path = os.path.join(out_dir, MANIFEST)
    _write_artifact(path, [_json_text(manifest)])
    return path


def _write_csv(path, header, *columns):
    """``header`` and a row per index of ``columns``, each value the repr of
    the Python number it equals; returns {path: digest}."""
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    text = "".join([header + "\n", *[",".join(map(repr, row)) + "\n" for row in rows]])
    return {path: _write_artifact(path, [text])}


def _run_curve(spec, out_dir, threads):
    """A Monte Carlo spec's curve on ``threads`` workers, as curve.csv."""
    curve = spec.curve(threads)
    digests = _write_csv(os.path.join(out_dir, "curve.csv"),
                         "total_time_s,signal,std_error,n_pulses",
                         curve.times, curve.signal, curve.std_error, curve.n_pulses)
    return digests, {"seed": spec.seed, "metadata": curve.metadata}


def _run_suppression(spec, out_dir, threads):
    path = os.path.join(out_dir, "suppression.csv")
    table, orders = suppression_table(spec.n_max, spec.k_max), spec.k_max + 1
    # one string per n: the text of the whole table would outweigh the table;
    # integer true division is correctly rounded, as float(Fraction) is
    rows = ("".join([f"{n},{k},{num},{den},{num / den!r}\n"
                     for n, k, num, den in table[i:i + orders]])
            for i in range(0, len(table), orders))
    header = "n,k,factor_exact_num,factor_exact_den,factor_float\n"
    return {path: _write_artifact(path, itertools.chain([header], rows))}, {}


def _sense_envelope(spec):
    """Coherence factor at the sequence duration; 'auto' uses the exact
    exponent of the configured field's Gaussian phase, chi = sum |w|^2 over
    its stochastic slots (``phase_map``), plus the T1 ceiling."""
    if spec.envelope != "auto":
        return spec.envelope
    _, weights = phase_map(spec.field, sq.toggling(spec.sequence).breakpoints, spec.nv.gamma_e)
    chi = sum(float(np.sum(w * w)) for w in weights if w is not None)
    return math.exp(-0.5 * chi - spec.sequence.total_time / spec.nv.t1)


def _run_sense(spec, out_dir, threads):
    envelope = _sense_envelope(spec)
    result = sensemod.sensitivity_scan(
        spec.sequence,
        spec.readout,
        spec.times,
        nv=spec.nv,
        envelope=envelope,
        ac_amplitude_jitter=spec.ac_amplitude_jitter,
    )
    digests = _write_csv(os.path.join(out_dir, "sensitivity.csv"),
                         "total_time_s,delta_b_min_T,sigma_sn,slope_per_T", result.times,
                         result.delta_b_min, result.sigma_sn, [result.slope] * result.times.size)
    report = {
        "k_nT_per_sqrt_Hz": result.k_nt_per_sqrt_hz,
        "fit": dataclasses.asdict(result.fit),
        "slope_per_T": result.slope,
        "envelope": envelope,
        "overhead_note": "total time per shot = sequence time + overhead "
                         "(wall-clock-equivalent budgets; overhead is an assumption)",
    }
    path = os.path.join(out_dir, "report.json")
    digests[path] = _write_artifact(path, [_json_text(report)])
    return digests, {}


def _read_columns(path):
    """A curve CSV's columns by header name in one pass, blank lines skipped;
    a column with a non-numeric cell reads as all nan."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if "".join(row).strip()]
    if not rows:
        raise ConfigError(f"input_csv {path!r} is empty")
    header = [name.strip() for name in rows[0]]
    if "total_time_s" not in header or "signal" not in header:
        raise ConfigError(f"input_csv {path!r} needs total_time_s and signal columns")
    if len(rows) == 1:
        raise ConfigError(f"input_csv {path!r} has no data rows")
    ragged = [i for i, row in enumerate(rows) if len(row) != len(header)]
    if ragged:
        raise ConfigError(f"input_csv {path!r}: data row {ragged[0]} does not have the "
                          f"header's {len(header)} cells")
    columns = {}
    for name, cells in zip(header, zip(*rows[1:])):
        try:
            columns[name] = np.array([float(cell) for cell in cells])
        except ValueError:
            columns[name] = np.full(len(cells), math.nan)
    return columns


def _run_fit(spec, out_dir, threads):
    data = _read_columns(spec.input_csv)
    times, signal, sigma = data["total_time_s"], data["signal"], data.get("std_error")
    if not (np.all(np.isfinite(times)) and np.all(np.isfinite(signal))):
        raise ConfigError(
            f"input_csv {spec.input_csv!r} has a non-finite or non-numeric "
            "total_time_s or signal")
    if sigma is not None and not np.all(sigma >= 0):
        raise ConfigError(f"input_csv {spec.input_csv!r} has a negative or missing std_error")
    fit = fit_decay((times, signal, sigma), spec.model, spec.fixed_params)
    path = os.path.join(out_dir, "fit.json")
    digest = _write_artifact(path, [_json_text(dataclasses.asdict(fit))])
    if not fit.converged:
        raise FitError(f"fit did not converge (best candidate written to {path})")
    return {path: digest}, {}


# subcommand -> (experiment, runner)
_SUBCOMMANDS = {
    "decay": ("decay", _run_curve),
    "suppression": ("suppression_table", _run_suppression),
    "spinlock": ("spinlock", _run_curve),
    "pulse-error": ("pulse_error", _run_curve),
    "sense": ("sense", _run_sense),
    "fit": ("fit", _run_fit),
}
_RUNNERS = dict(_SUBCOMMANDS.values())


def run(config_path, out_dir=None, overrides=None, threads=1, expected_experiment=None):
    """Load, validate and dispatch a config; returns (exit_code, artifacts)."""
    try:
        raw = cfgmod.load_config(config_path)
        if overrides and isinstance(raw, dict):
            raw.update(overrides)
        report = cfgmod.validate(raw)
        kind = report["experiment"]
        if expected_experiment and kind != expected_experiment:
            raise ConfigError(
                f"config is a {kind!r} experiment, expected {expected_experiment!r}"
            )
        for w in report["warnings"]:
            print(f"warning: {w}", file=sys.stderr)
        out = out_dir or report["spec"].out
        os.makedirs(out, exist_ok=True)
        if not os.access(out, os.W_OK):
            raise OSError(f"output directory {out!r} not writable")
        digests, extra = _RUNNERS[kind](report["spec"], out, threads)
        artifacts = [*digests, _write_manifest(out, report["expanded"], digests, extra)]
    except ConfigError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION, []
    except (FitError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL, []
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO, []
    for p in artifacts:
        print(p)
    return EXIT_OK, artifacts


def _parser():
    """Each subcommand takes --config and --out; one whose spec runs a curve
    also takes --seed and --shots, which override its config's keys, and
    --threads."""
    parser = argparse.ArgumentParser(prog="spindd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (kind, _) in _SUBCOMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        if hasattr(cfgmod._EXPERIMENTS[kind], "curve"):
            p.add_argument("--seed", type=int, default=None)
            p.add_argument("--shots", type=int, default=None)
            p.add_argument("--threads", type=int, default=1,
                           help="worker threads; must not affect results")
    sub.add_parser("validate").add_argument("--config", required=True)
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)

    if args.command == "validate":
        try:
            report = cfgmod.validate(cfgmod.load_config(args.config))
        except ConfigError as exc:
            print(f"validation error: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        print(json.dumps({"valid": True, "warnings": report["warnings"]}, indent=2))
        return EXIT_OK

    overrides = {k: v for k in ("seed", "shots") if (v := getattr(args, k, None)) is not None}
    code, _ = run(
        args.config,
        out_dir=args.out,
        overrides=overrides,
        threads=getattr(args, "threads", 1),
        expected_experiment=_SUBCOMMANDS[args.command][0],
    )
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

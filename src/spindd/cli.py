"""Experiment runner.

Subcommands: decay, suppression, spinlock, pulse-error, sense, fit, validate.
Every run writes its artifacts plus a manifest (config digest, seed,
versions, artifact digests) sufficient to re-create the outputs bit-exactly.
Exit codes: 0 success, 2 validation, 3 numerical failure, 4 I/O.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__, config as cfgmod, evolve, field as _field, sense as sensemod
from . import sequence as sq
from .config import ConfigError
from .field import RngSpec, phase_map
from .fit import FitError, fit_decay
from .taylor import suppression_table

ou_chi = _field.ou_chi  # not called here: the benchmark's tracer patches it

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _write_manifest(out_dir, cfg, artifacts, extra=None):
    manifest = {
        "config_sha256": hashlib.sha256(
            json.dumps(cfg, sort_keys=True).encode()
        ).hexdigest(),
        "config": cfg,
        "spindd_version": __version__,
        "numpy_version": np.__version__,
        "artifacts": {os.path.basename(p): _sha256_file(p) for p in artifacts},
    }
    if extra:
        manifest.update(extra)
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return path


def _write_csv(path, header, *columns):
    """``header`` and a row per index of ``columns``, each value the repr of
    the Python number it equals."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in zip(*(np.asarray(c).tolist() for c in columns)):
            fh.write(",".join(map(repr, row)) + "\n")
    return path


def _curve_artifacts(curve, seed, out_dir):
    path = _write_csv(os.path.join(out_dir, "curve.csv"), "total_time_s,signal,std_error,n_pulses",
                      curve.times, curve.signal, curve.std_error, curve.n_pulses)
    return [path], {"seed": seed, "metadata": curve.metadata}


def _run_decay(spec, out_dir, threads):
    curve = evolve.coherence_curve(
        spec.field,
        spec.sequence,
        spec.times,
        spec.shots,
        RngSpec(spec.seed),
        spec.nv,
        apply_t1=spec.t1_envelope,
        n_workers=threads,
    )
    return _curve_artifacts(curve, spec.seed, out_dir)


def _run_spinlock(spec, out_dir, threads):
    curve = evolve.spin_lock_curve(
        spec.field,
        2 * math.pi * spec.rabi_frequency,
        spec.times,
        spec.shots,
        RngSpec(spec.seed),
        spec.nv,
        apply_t1=spec.t1_envelope,
    )
    return _curve_artifacts(curve, spec.seed, out_dir)


def _run_suppression(spec, out_dir, threads):
    path = os.path.join(out_dir, "suppression.csv")
    table, orders = suppression_table(spec.n_max, spec.k_max), spec.k_max + 1
    with open(path, "w") as fh:
        fh.write("n,k,factor_exact_num,factor_exact_den,factor_float\n")
        # one write per n: the text of the whole table would outweigh the table
        for i in range(0, len(table), orders):
            # integer true division is correctly rounded, as float(Fraction) is
            fh.write("".join([f"{n},{k},{num},{den},{num / den!r}\n"
                              for n, k, num, den in table[i:i + orders]]))
    return [path], {}


def _run_pulse_error(spec, out_dir, threads):
    curve = evolve.pulse_error_curve(
        spec.field,
        spec.n_pulses,
        spec.flip_angle_error,
        spec.phase_convention,
        spec.times,
        spec.shots,
        RngSpec(spec.seed),
        spec.nv,
        apply_t1=spec.t1_envelope,
    )
    return _curve_artifacts(curve, spec.seed, out_dir)


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
    csv_path = _write_csv(os.path.join(out_dir, "sensitivity.csv"),
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
    json_path = os.path.join(out_dir, "report.json")
    with open(json_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    return [csv_path, json_path], {}


def _run_fit(spec, out_dir, threads):
    # genfromtxt only warns on a file with nothing but whitespace
    with open(spec.input_csv, "rb") as fh:
        if not fh.read().strip():
            raise ConfigError(f"input_csv {spec.input_csv!r} is empty")
    try:
        data = np.atleast_1d(np.genfromtxt(spec.input_csv, delimiter=",", names=True))
        times = data["total_time_s"]
        signal = data["signal"]
    except (IndexError, ValueError) as exc:  # a missing column
        raise ConfigError(
            f"input_csv {spec.input_csv!r} needs total_time_s and signal columns ({exc})"
        ) from None
    if data.size == 0:
        raise ConfigError(f"input_csv {spec.input_csv!r} has no data rows")
    # genfromtxt reads a non-numeric cell as nan
    if not (np.all(np.isfinite(times)) and np.all(np.isfinite(signal))):
        raise ConfigError(
            f"input_csv {spec.input_csv!r} has a non-finite or non-numeric "
            "total_time_s or signal")
    sigma = data["std_error"] if "std_error" in data.dtype.names else None
    if sigma is not None and not np.all(sigma >= 0):
        raise ConfigError(f"input_csv {spec.input_csv!r} has a negative or missing std_error")
    curve = (times, signal) if sigma is None else (times, signal, sigma)
    fit = fit_decay(curve, spec.model, spec.fixed_params)
    path = os.path.join(out_dir, "fit.json")
    with open(path, "w") as fh:
        json.dump(dataclasses.asdict(fit), fh, indent=2, sort_keys=True)
    if not fit.converged:
        raise FitError(f"fit did not converge (best candidate written to {path})")
    return [path], {}


# subcommand -> (experiment, runner)
_SUBCOMMANDS = {
    "decay": ("decay", _run_decay),
    "suppression": ("suppression_table", _run_suppression),
    "spinlock": ("spinlock", _run_spinlock),
    "pulse-error": ("pulse_error", _run_pulse_error),
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
        artifacts, extra = _RUNNERS[kind](report["spec"], out, threads)
        manifest = _write_manifest(out, report["expanded"], artifacts, extra)
        artifacts.append(manifest)
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


def main(argv=None):
    parser = argparse.ArgumentParser(prog="spindd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in list(_SUBCOMMANDS) + ["validate"]:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        if name != "validate":
            p.add_argument("--out", default=None)
            p.add_argument("--seed", type=int, default=None)
            p.add_argument("--shots", type=int, default=None)
            p.add_argument("--threads", type=int, default=1,
                           help="worker threads; must not affect results")
    args = parser.parse_args(argv)

    if args.command == "validate":
        try:
            report = cfgmod.validate(cfgmod.load_config(args.config))
        except ConfigError as exc:
            print(f"validation error: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        print(json.dumps({"valid": True, "warnings": report["warnings"]}, indent=2))
        return EXIT_OK

    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.shots is not None:
        overrides["shots"] = args.shots
    code, _ = run(
        args.config,
        out_dir=args.out,
        overrides=overrides,
        threads=args.threads,
        expected_experiment=_SUBCOMMANDS[args.command][0],
    )
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

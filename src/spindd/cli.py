"""Experiment runner.

Subcommands: decay, suppression, spinlock, pulse-error, sense, fit, validate.
Every run writes its artifacts plus a manifest (config digest, seed,
versions, artifact digests) sufficient to re-create the outputs bit-exactly.
Exit codes: 0 success, 2 validation, 3 numerical failure, 4 I/O.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__, config as cfgmod, evolve, sense as sensemod, sequence as sq, units
from .config import ConfigError
from .field import OrnsteinUhlenbeck, RngSpec, ou_chi
from .fit import FitError, fit_decay
from .taylor import suppression_table

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


def _family_from_spec(seq_kind, seq_params):
    if seq_kind == "fid":
        return evolve.fid_family()
    if seq_kind == "hahn":
        return evolve.hahn_family()
    if seq_kind == "cpmg":
        return evolve.cpmg_family(seq_params["n_pulses"])
    if seq_kind == "custom":
        return evolve.custom_family(seq_params["pulse_time_fractions"])
    raise ConfigError(f"cannot build family for {seq_kind!r}")


def _run_decay(cfg, out_dir, threads):
    model = cfgmod.parse_field(cfg["field"])
    nv = cfgmod.parse_nv(cfg.get("nv"))
    times = cfgmod.parse_times(cfg["times"])
    family = _family_from_spec(*cfgmod.parse_sequence_spec(cfg.get("sequence", {"kind": "hahn"})))
    curve = evolve.coherence_curve(
        model,
        family,
        times,
        int(cfg.get("shots", 10_000)),
        RngSpec(int(cfg.get("seed", 0))),
        nv,
        apply_t1=bool(cfg.get("t1_envelope", True)),
        n_workers=threads,
    )
    path = os.path.join(out_dir, "curve.csv")
    curve.to_csv(path)
    return [path], {"seed": int(cfg.get("seed", 0)), "metadata": curve.metadata}


def _run_spinlock(cfg, out_dir, threads):
    model = cfgmod.parse_field(cfg["field"])
    nv = cfgmod.parse_nv(cfg.get("nv"))
    times = cfgmod.parse_times(cfg["times"])
    omega1 = 2 * math.pi * units.hertz(cfg["rabi_frequency"])
    curve = evolve.spin_lock_curve(
        model,
        omega1,
        times,
        int(cfg.get("shots", 200)),
        RngSpec(int(cfg.get("seed", 0))),
        nv,
        apply_t1=bool(cfg.get("t1_envelope", True)),
    )
    path = os.path.join(out_dir, "curve.csv")
    curve.to_csv(path)
    return [path], {"seed": int(cfg.get("seed", 0)), "metadata": curve.metadata}


def _run_suppression(cfg, out_dir, threads):
    n_max, k_max = int(cfg["n_max"]), int(cfg["k_max"])
    path = os.path.join(out_dir, "suppression.csv")
    with open(path, "w") as fh:
        fh.write("n,k,factor_exact_num,factor_exact_den,factor_float\n")
        for entry in suppression_table(n_max, k_max):
            v = entry.value
            fh.write(f"{entry.n},{entry.k},{v.numerator},{v.denominator},{float(v)!r}\n")
    return [path], {}


def _run_pulse_error(cfg, out_dir, threads):
    model = cfgmod.parse_field(cfg["field"]) if "field" in cfg else None
    nv = cfgmod.parse_nv(cfg.get("nv"))
    times = cfgmod.parse_times(cfg["times"])
    curve = evolve.pulse_error_curve(
        model,
        int(cfg["n_pulses"]),
        float(cfg.get("flip_angle_error", 0.0)),
        cfg.get("phase_convention", "cpmg"),
        times,
        int(cfg.get("shots", 1000)),
        RngSpec(int(cfg.get("seed", 0))) if model is not None else None,
        nv,
        apply_t1=bool(cfg.get("t1_envelope", False)),
    )
    path = os.path.join(out_dir, "curve.csv")
    curve.to_csv(path)
    return [path], {"seed": int(cfg.get("seed", 0)), "metadata": curve.metadata}


def _sense_envelope(cfg, seq, nv):
    """Coherence factor at the sequence duration; 'auto' uses the configured
    OU bath's analytic exponent plus the T1 ceiling."""
    spec = cfg.get("envelope", 1.0)
    if spec == "auto":
        if "field" not in cfg:
            raise ConfigError("envelope 'auto' needs a field model")
        model = cfgmod.parse_field(cfg["field"])
        chi = 0.0
        for comp in model.components:
            if isinstance(comp, OrnsteinUhlenbeck):
                chi += ou_chi(sq.toggling(seq), comp.sigma_b, comp.tau_c, nv.gamma_e)
        return math.exp(-0.5 * chi - seq.total_time / nv.t1)
    return float(spec)


def _run_sense(cfg, out_dir, threads):
    nv = cfgmod.parse_nv(cfg.get("nv"))
    readout = cfgmod.parse_readout(cfg.get("readout"))
    seq_kind, seq_params = cfgmod.parse_sequence_spec(cfg["sequence"])
    if seq_kind == "hahn":
        tau = units.seconds(cfg["sequence_tau"]) if "sequence_tau" in cfg else 115e-6
        seq = sq.hahn(2 * tau)
    elif seq_kind == "cpmg":
        tau = units.seconds(cfg["sequence_tau"]) if "sequence_tau" in cfg else 27e-6
        seq = sq.cpmg(seq_params["n_pulses"], 2 * seq_params["n_pulses"] * tau)
    else:
        raise ConfigError("sense supports hahn and cpmg sequences")
    times = cfgmod.parse_times(cfg["times"])
    envelope = _sense_envelope(cfg, seq, nv)
    rng = RngSpec(int(cfg["seed"])) if "seed" in cfg else None
    result = sensemod.sensitivity_scan(
        seq,
        readout,
        times,
        rng=rng,
        nv=nv,
        envelope=envelope,
        ac_amplitude_jitter=float(cfg.get("ac_amplitude_jitter", 0.0)),
    )
    csv_path = os.path.join(out_dir, "sensitivity.csv")
    result.to_csv(csv_path)
    report = {
        "k_nT_per_sqrt_Hz": result.k_nt_per_sqrt_hz,
        "fit": result.fit.to_dict(),
        "slope_per_T": result.slope,
        "envelope": envelope,
        "overhead_note": "total time per shot = sequence time + overhead "
                         "(wall-clock-equivalent budgets; overhead is an assumption)",
    }
    json_path = os.path.join(out_dir, "report.json")
    with open(json_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    return [csv_path, json_path], {}


def _run_fit(cfg, out_dir, threads):
    data = np.genfromtxt(cfg["input_csv"], delimiter=",", names=True)
    times = data["total_time_s"]
    signal = data["signal"]
    sigma = data["std_error"] if "std_error" in (data.dtype.names or ()) else None
    curve = (times, signal) if sigma is None else (times, signal, sigma)
    fit = fit_decay(curve, cfg.get("model", "stretched_exp"), cfg.get("fixed_params"))
    path = os.path.join(out_dir, "fit.json")
    with open(path, "w") as fh:
        json.dump(fit.to_dict(), fh, indent=2, sort_keys=True)
    if not fit.converged:
        raise FitError(f"fit did not converge (best candidate written to {path})")
    return [path], {}


_RUNNERS = {
    "decay": _run_decay,
    "spinlock": _run_spinlock,
    "suppression_table": _run_suppression,
    "pulse_error": _run_pulse_error,
    "sense": _run_sense,
    "fit": _run_fit,
}

_SUBCOMMAND_TO_EXPERIMENT = {
    "decay": "decay",
    "suppression": "suppression_table",
    "spinlock": "spinlock",
    "pulse-error": "pulse_error",
    "sense": "sense",
    "fit": "fit",
}


def run(config_path, out_dir=None, overrides=None, threads=1, expected_experiment=None):
    """Load, validate and dispatch a config; returns (exit_code, artifacts)."""
    try:
        raw = cfgmod.load_config(config_path)
        if overrides:
            raw.update(overrides)
        report = cfgmod.validate(raw)
        cfg = report["expanded"]
        if expected_experiment and cfg["experiment"] != expected_experiment:
            raise ConfigError(
                f"config is a {cfg['experiment']!r} experiment, expected"
                f" {expected_experiment!r}"
            )
    except ConfigError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION, []
    for w in report["warnings"]:
        print(f"warning: {w}", file=sys.stderr)

    out = out_dir or cfg.get("out", ".")
    try:
        os.makedirs(out, exist_ok=True)
        if not os.access(out, os.W_OK):
            raise OSError(f"output directory {out!r} not writable")
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO, []

    try:
        artifacts, extra = _RUNNERS[cfg["experiment"]](cfg, out, threads)
        manifest = _write_manifest(out, cfg, artifacts, extra)
        artifacts.append(manifest)
    except (FitError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL, []
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO, []
    except ConfigError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION, []
    for p in artifacts:
        print(p)
    return EXIT_OK, artifacts


def main(argv=None):
    parser = argparse.ArgumentParser(prog="spindd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in list(_SUBCOMMAND_TO_EXPERIMENT) + ["validate"]:
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
        expected_experiment=_SUBCOMMAND_TO_EXPERIMENT[args.command],
    )
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

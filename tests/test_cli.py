import argparse
import copy
import dataclasses
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spindd import cli, config as cfgmod, evolve, taylor
from spindd.config import ConfigError
from spindd.field import DECAY_RNG_SCHEME, GAMMA_E, RNG_SCHEME


def _write(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _decay_cfg(**extra):
    cfg = {
        "experiment": "decay",
        "field": [{"type": "ornstein_uhlenbeck", "sigma_b": "59.22345 nT",
                   "tau_c": "25 us"}],
        "sequence": {"kind": "hahn"},
        "times": {"start": "50 us", "stop": "500 us", "count": 4},
        "shots": 300,
        "seed": 12,
    }
    cfg.update(extra)
    return cfg


def test_decay_run_is_reproducible(tmp_path):
    cfg_path = _write(tmp_path, "cfg.json", _decay_cfg())
    outs = []
    for tag in ("a", "b"):
        code, artifacts = cli.run(cfg_path, out_dir=str(tmp_path / tag))
        assert code == cli.EXIT_OK
        outs.append({p.split("/")[-1]: pathlib.Path(p).read_bytes() for p in artifacts})
    assert outs[0]["curve.csv"] == outs[1]["curve.csv"]
    # the manifest carries per-artifact digests
    man = json.loads(outs[0]["manifest.json"])
    assert "curve.csv" in man["artifacts"]
    assert man["config"]["seed"] == 12


def test_thread_count_does_not_change_results(tmp_path):
    cfg_path = _write(tmp_path, "cfg.json", _decay_cfg(shots=700))
    _, a1 = cli.run(cfg_path, out_dir=str(tmp_path / "t1"), threads=1)
    _, a8 = cli.run(cfg_path, out_dir=str(tmp_path / "t8"), threads=8)
    csv1 = pathlib.Path([p for p in a1 if p.endswith("curve.csv")][0]).read_bytes()
    csv8 = pathlib.Path([p for p in a8 if p.endswith("curve.csv")][0]).read_bytes()
    assert csv1 == csv8


def test_suppression_table_artifact(tmp_path):
    cfg_path = _write(tmp_path, "cfg.json",
                      {"experiment": "suppression_table", "n_max": 8, "k_max": 5})
    code, artifacts = cli.run(cfg_path, out_dir=str(tmp_path / "out"))
    assert code == cli.EXIT_OK
    csv_path = [p for p in artifacts if p.endswith("suppression.csv")][0]
    rows = pathlib.Path(csv_path).read_text().strip().splitlines()
    assert rows[0] == "n,k,factor_exact_num,factor_exact_den,factor_float"
    # k runs from 0 through k_max inclusive
    assert len(rows) == 1 + 8 * 6
    first = rows[1].split(",")
    assert (int(first[0]), int(first[1])) == (1, 0)
    assert float(first[4]) == 0.0
    n1k1 = rows[2].split(",")
    assert (int(n1k1[0]), int(n1k1[1])) == (1, 1)
    assert abs(float(n1k1[4])) == 0.5


def test_suppression_csv_matches_the_fraction_reference(tmp_path):
    # 256 x 12 is the benchmark's analysis table
    for n_max, k_max in ((200, 12), (256, 12)):
        cfg_path = _write(tmp_path, f"cfg_{n_max}.json",
                          {"experiment": "suppression_table", "n_max": n_max, "k_max": k_max})
        code, artifacts = cli.run(cfg_path, out_dir=str(tmp_path / f"out_{n_max}"))
        assert code == cli.EXIT_OK
        want = ["n,k,factor_exact_num,factor_exact_den,factor_float\n"]
        for n in range(1, n_max + 1):
            for k in range(k_max + 1):
                v = taylor.cpmg_factor(n, k)
                want.append(f"{n},{k},{v.numerator},{v.denominator},{float(v)!r}\n")
        csv_path = [p for p in artifacts if p.endswith("suppression.csv")][0]
        assert pathlib.Path(csv_path).read_bytes() == "".join(want).encode()


_BLOCH_BASE = {
    "field": [{"type": "ornstein_uhlenbeck", "sigma_b": "59.22345 nT",
               "tau_c": "25 us"}],
    "times": {"start": "20 us", "stop": "160 us", "count": 4},
}


@pytest.mark.parametrize("cfg, name", [
    ({"experiment": "pulse_error"}, "n_pulses"),
    ({"experiment": "pulse_error", "n_pulses": 0}, "n_pulses"),
    ({"experiment": "spinlock"}, "rabi_frequency"),
    ({"experiment": "spinlock", "rabi_frequency": "-5 kHz"}, "rabi_frequency"),
], ids=["pulse_error_no_n_pulses", "pulse_error_zero_pulses", "spinlock_no_rabi",
        "spinlock_negative_rabi"])
def test_bloch_config_errors_name_the_field(tmp_path, capsys, cfg, name):
    cfg_path = _write(tmp_path, "cfg.json", dict(_BLOCH_BASE, **cfg))
    code, artifacts = cli.run(cfg_path, out_dir=str(tmp_path / "out"))
    assert code == cli.EXIT_VALIDATION
    assert artifacts == []
    assert name in capsys.readouterr().err


def _sense_cfg(**extra):
    cfg = {
        "experiment": "sense",
        "preset": "bulk_cvd",
        "sequence": {"kind": "hahn"},
        "times": {"start": "0.5 s", "stop": "500 s", "count": 8, "spacing": "geometric"},
    }
    cfg.update(extra)
    return cfg


def _without(cfg, key):
    return {k: v for k, v in cfg.items() if k != key}


_SPINLOCK = dict(_BLOCH_BASE, experiment="spinlock", rabi_frequency="40 kHz", shots=100)
_PULSE_ERROR = dict(_BLOCH_BASE, experiment="pulse_error", n_pulses=4)
_FIT = {"experiment": "fit", "input_csv": "curve.csv"}

_HUGE_OFFSET = [{"type": "static_offset", "b": "1e300 T"}]
_MS_TIMES = {"start": "1 ms", "stop": "2 ms", "count": 2}


# each of these wrote nan rows to curve.csv and exited 0; numpy's overflow
# warnings, here errors, must not reach the user before the report
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cfg", [
    _decay_cfg(field=_HUGE_OFFSET, sequence={"kind": "fid"}, times=_MS_TIMES),
    dict(_SPINLOCK, field=_HUGE_OFFSET),
    dict(_SPINLOCK, rabi_frequency="1e300 Hz"),
    dict(_PULSE_ERROR, field=[{"type": "quasi_static_gaussian", "sigma_b": "1e300 T"}],
         times=_MS_TIMES),
], ids=["decay_offset", "spinlock_offset", "spinlock_rabi", "pulse_error_sigma_b"])
def test_curve_that_is_not_finite_exits_3(tmp_path, capsys, cfg):
    out = tmp_path / "out"
    code, artifacts = cli.run(_write(tmp_path, "cfg.json", cfg), out_dir=str(out))
    assert code == cli.EXIT_NUMERICAL
    assert artifacts == []
    assert not (out / "curve.csv").exists() and not (out / "manifest.json").exists()
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and "not finite" in err
    assert err.count("\n") == 1 and err.endswith("\n")


# the first raised a traceback out of cli.run; the rest exited 0 with an
# infinite, NaN or unconverged k in report.json
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cfg, cause", [
    ({"experiment": "sense", "sequence": {"kind": "hahn"}, "envelope": "auto",
      "field": [{"type": "ornstein_uhlenbeck", "sigma_b": "10 uT", "tau_c": "25 us"}],
      "times": {"start": "1 s", "stop": "10 s", "count": 4}},
     "signal slope 0.0 per T is not finite and positive"),
    (_sense_cfg(envelope=1e-320), "delta_b_min is not finite"),
    (_sense_cfg(envelope=1e-300), "fit did not converge"),
    (_sense_cfg(sequence={"kind": "cpmg", "n_pulses": 3}, sequence_tau="1e-320 s",
                envelope="auto"),
     "signal slope nan per T is not finite and positive"),
], ids=["auto_envelope_underflows", "envelope_denormal", "envelope_tiny", "cpmg_tau_denormal"])
def test_sense_that_fails_numerically_exits_3(tmp_path, capsys, cfg, cause):
    out = tmp_path / "out"
    code, artifacts = cli.run(_write(tmp_path, "cfg.json", cfg), out_dir=str(out))
    assert code == cli.EXIT_NUMERICAL
    assert artifacts == []
    for name in ("report.json", "sensitivity.csv", "manifest.json"):
        assert not (out / name).exists()
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and cause in err
    assert err.count("\n") == 1 and err.endswith("\n")


# each of these raised a traceback, or ran with the value misread, ignored or
# out of its range
_MALFORMED = {
    "shots_not_int": (_decay_cfg(shots="x"), "shots"),
    "seed_not_int": (_decay_cfg(seed="x"), "seed"),
    "seed_fractional": (_decay_cfg(seed=1.5), "seed"),
    "n_max_not_int": ({"experiment": "suppression_table", "n_max": "x", "k_max": 3}, "n_max"),
    "spinlock_shots_not_int": (dict(_SPINLOCK, shots="x"), "shots"),
    "times_count_not_int": (
        _decay_cfg(times={"start": "50 us", "stop": "500 us", "count": "x"}), "count"),
    "times_stop_overflows": (
        _decay_cfg(times={"start": "50 us", "stop": "1e999 s", "count": 4}), "stop"),
    "sense_times_stop_overflows_shots": (
        _sense_cfg(times={"start": "0.5 s", "stop": "1e308 s", "count": 8,
                          "spacing": "geometric"}), "times.stop"),
    "times_not_distinct": (
        _decay_cfg(times={"start": "1 s", "stop": "1.0000000000000002 s", "count": 3}), "times"),
    "cpmg_n_pulses_not_int": (_decay_cfg(sequence={"kind": "cpmg", "n_pulses": "x"}), "n_pulses"),
    "custom_fractions_not_list": (
        _decay_cfg(sequence={"kind": "custom", "pulse_time_fractions": "x"}),
        "pulse_time_fractions"),
    "custom_pulse_vanishes_at_a_time": (
        _decay_cfg(sequence={"kind": "custom", "pulse_time_fractions": [5e-324, 0.5]}),
        "sequence at t = "),
    "pulse_error_pulses_collide_at_a_time": (
        dict(_PULSE_ERROR, times={"start": "1e-323 s", "stop": "1 us", "count": 2}),
        "times: pulses collide or reach an end of the sequence at t = 1e-323 s"),
    "decay_no_times": (_without(_decay_cfg(), "times"), "times"),
    "field_item_not_object": (_decay_cfg(field=[1]), "field"),
    "tau_c_bad_number": (
        _decay_cfg(field=[{"type": "ornstein_uhlenbeck", "sigma_b": "59.22345 nT",
                           "tau_c": "1.2.3 us"}]),
        "field[0].tau_c: bad numeric value in '1.2.3 us'"),
    "nv_gamma_zero": (_decay_cfg(nv={"gamma_e_rad_per_s_per_T": 0}),
                      "nv: gamma_e must be positive"),
    "polynomial_no_coefficients": (
        _decay_cfg(field=[{"type": "polynomial", "coefficients": []}]),
        "field[0]: polynomial needs at least one coefficient"),
    "t1_envelope_string": (_decay_cfg(t1_envelope="false"), "t1_envelope"),
    "decay_threads": (_decay_cfg(threads=2), "threads"),
    "spinlock_threads": (dict(_SPINLOCK, threads=2), "threads"),
    "config_is_a_list": ([_decay_cfg()], "config"),
    "out_with_nul": ({"experiment": "suppression_table", "n_max": 4, "k_max": 3, "out": "a\0b"},
                     "out"),
    "flip_angle_error_not_number": (dict(_PULSE_ERROR, flip_angle_error="x"), "flip_angle_error"),
    "sense_no_times": (_without(_sense_cfg(), "times"), "times"),
    "sense_no_sequence": (_without(_sense_cfg(), "sequence"), "sequence"),
    "sense_envelope_bogus": (_sense_cfg(envelope="bogus"), "envelope"),
    "sense_envelope_zero": (_sense_cfg(envelope=0), "envelope"),
    "sense_auto_envelope_without_field": (_without(_sense_cfg(envelope="auto"), "preset"),
                                          "envelope 'auto' needs a field model"),
    "sense_jitter_not_number": (_sense_cfg(ac_amplitude_jitter="x"), "ac_amplitude_jitter"),
    "sense_jitter_negative": (_sense_cfg(ac_amplitude_jitter=-1e308), "ac_amplitude_jitter"),
    "sense_tau_wrong_unit": (_sense_cfg(sequence_tau="5 nT"), "sequence_tau"),
    "sense_tau_negative": (_sense_cfg(sequence_tau="-5 us"), "sequence_tau"),
    "sense_overhead_negative": (_sense_cfg(readout={"overhead": "-1 us"}), "overhead"),
    "fit_no_input_csv": ({"experiment": "fit"}, "input_csv"),
    "fit_model_bogus": (dict(_FIT, model="bogus"), "model"),
    "fit_fixed_unknown": (dict(_FIT, fixed_params={"nope": 1}), "nope"),
    "fit_fixed_not_object": (dict(_FIT, fixed_params=[1]), "fixed_params"),
    "fit_fixed_negative_time": (dict(_FIT, fixed_params={"decay_time": -1}), "decay_time"),
    # 2 pi f is inf: spin_lock_curve raised a ValueError out of cli.run
    "spinlock_rabi_overflows": (dict(_SPINLOCK, rabi_frequency="1e308 Hz"), "rabi_frequency"),
    "fit_fixed_pins_every_free": (dict(_FIT, model="exponential",
                                       fixed_params={"amplitude": 1.0, "decay_time": 1e-3}),
                                  "fixed_params pins every free parameter"),
    "times_start_not_below_stop": (
        _decay_cfg(times={"start": "500 us", "stop": "50 us", "count": 4}),
        "times must satisfy 0 < start < stop"),
    "sense_three_times": (_sense_cfg(times={"start": "0.5 s", "stop": "50 s", "count": 3}),
                          "at least 4 time points in times"),
}


@pytest.mark.parametrize("cfg, name", list(_MALFORMED.values()), ids=list(_MALFORMED))
def test_malformed_config_exits_2_naming_the_field(tmp_path, capsys, cfg, name):
    cfg_path = _write(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    code, artifacts = cli.run(cfg_path, out_dir=str(out))
    assert code == cli.EXIT_VALIDATION
    assert artifacts == [] and not out.exists()
    assert name in capsys.readouterr().err


_HUGE = 10**400

# 10^400 as a JSON integer in each integer key; every shots and the
# pulse-error n_pulses raised an OverflowError traceback and exited 1
_HUGE_INTEGERS = {
    "decay_shots": (_decay_cfg(shots=_HUGE), "shots"),
    "decay_seed": (_decay_cfg(seed=_HUGE), "seed"),
    "decay_times_count": (
        _decay_cfg(times={"start": "50 us", "stop": "500 us", "count": _HUGE}), "times.count"),
    "decay_n_pulses": (_decay_cfg(sequence={"kind": "cpmg", "n_pulses": _HUGE}),
                       "sequence.n_pulses"),
    "spinlock_shots": (dict(_SPINLOCK, shots=_HUGE), "shots"),
    "pulse_error_shots": (dict(_PULSE_ERROR, shots=_HUGE), "shots"),
    "pulse_error_n_pulses": (dict(_PULSE_ERROR, n_pulses=_HUGE), "n_pulses"),
    "n_max": ({"experiment": "suppression_table", "n_max": _HUGE, "k_max": 3}, "n_max"),
    "k_max": ({"experiment": "suppression_table", "n_max": 4, "k_max": _HUGE}, "k_max"),
    "sense_n_pulses": (_sense_cfg(sequence={"kind": "cpmg", "n_pulses": _HUGE}),
                       "sequence.n_pulses"),
    "sense_times_count": (
        _sense_cfg(times={"start": "0.5 s", "stop": "500 s", "count": _HUGE}), "times.count"),
}


@pytest.mark.parametrize("cfg, key", list(_HUGE_INTEGERS.values()), ids=list(_HUGE_INTEGERS))
def test_a_huge_integer_exits_2_naming_its_key(tmp_path, capsys, cfg, key):
    cfg_path, out = _write(tmp_path, "cfg.json", cfg), tmp_path / "out"
    assert str(_HUGE) in pathlib.Path(cfg_path).read_text()
    code, artifacts = cli.run(cfg_path, out_dir=str(out))
    assert code == cli.EXIT_VALIDATION and artifacts == []
    assert capsys.readouterr().err.startswith(f"validation error: {key} must be an integer")
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_a_huge_shots_flag_exits_2_naming_it(tmp_path, capsys):
    cfg_path, out = _write(tmp_path, "cfg.json", _decay_cfg()), tmp_path / "out"
    assert cli.main(["decay", "--config", cfg_path, "--out", str(out),
                     "--shots", str(_HUGE)]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("validation error: shots must be an integer")
    assert not out.exists()


def test_a_table_past_the_int_string_limit_exits_2_leaving_the_directory(tmp_path, capsys):
    # integers of up to 7226 digits: str() raised a ValueError out of cli.run
    # midway through suppression.csv, which was left without a manifest
    out, limit = tmp_path / "out", sys.get_int_max_str_digits()
    table = {"experiment": "suppression_table", "n_max": 4}
    good = _write(tmp_path, "good.json", dict(table, k_max=3))
    bad = _write(tmp_path, "bad.json", dict(table, k_max=8000))
    sys.set_int_max_str_digits(4300)
    try:
        assert cli.main(["suppression", "--config", good, "--out", str(out)]) == cli.EXIT_OK
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert cli.main(["suppression", "--config", bad, "--out", str(out)]) == cli.EXIT_VALIDATION
    finally:
        sys.set_int_max_str_digits(limit)
    assert capsys.readouterr().err.startswith("validation error: k_max: ")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_unreadable_config_exits_2(tmp_path, capsys):
    for path in (tmp_path / "missing.json", tmp_path):
        code, artifacts = cli.run(str(path), out_dir=str(tmp_path / "out"))
        assert (code, artifacts) == (cli.EXIT_VALIDATION, [])
        assert capsys.readouterr().err.startswith("validation error: cannot read config: ")
    assert not (tmp_path / "out").exists()


def test_a_deeply_nested_config_exits_2(tmp_path, capsys):
    # 2 KB of nested lists: json's RecursionError ended in a traceback
    path = tmp_path / "nested.json"
    path.write_text("[" * 1000 + "]" * 1000)
    out = tmp_path / "out"
    assert cli.main(["validate", "--config", str(path)]) == cli.EXIT_VALIDATION
    assert cli.main(["decay", "--config", str(path), "--out", str(out)]) == cli.EXIT_VALIDATION
    for line in capsys.readouterr().err.splitlines():
        assert line.startswith("validation error: config parse failure: ")
    assert not out.exists()


@pytest.mark.parametrize("key", ["config", "input_csv"])
def test_an_input_of_no_size_is_read_no_further_than_the_budget(tmp_path, capsys, monkeypatch,
                                                               key):
    # /dev/zero's size reads 0, and its read ran until memory ran out
    monkeypatch.setattr(evolve, "WORK_BUDGET", 2**20)
    cfg_path = "/dev/zero" if key == "config" else _write(
        tmp_path, "fit.json", dict(_FIT, input_csv="/dev/zero"))
    code, artifacts = cli.run(cfg_path, out_dir=str(tmp_path / "out"))
    assert (code, artifacts) == (cli.EXIT_VALIDATION, [])
    err = capsys.readouterr().err
    assert err.startswith(f"validation error: {key}: this run would hold")
    # the budget the refusal states is the one it applied
    assert err.rstrip().endswith("above the budget of 2^20 (0.00781 GiB)")


def test_a_config_past_the_budget_is_refused_before_it_is_read(tmp_path, capsys):
    # 64 GiB of holes, which take no disk: the read was bounded by nothing
    path = tmp_path / "cfg.json"
    path.write_bytes(b"")
    os.truncate(path, 64 * 2**30)
    start = time.perf_counter()
    code, artifacts = cli.run(str(path), out_dir=str(tmp_path / "out"))
    assert time.perf_counter() - start < 0.1
    assert (code, artifacts) == (cli.EXIT_VALIDATION, [])
    assert capsys.readouterr().err.startswith("validation error: config: this run would hold")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", [
    "",
    " \n\n",
    "a,b\n1,2\n",
    "total_time_s,signal\n",
    "total_time_s,signal,std_error\n" + "".join(f"{t}e-4,0.5,-0.01\n" for t in range(1, 7)),
    "total_time_s,signal,std_error\n" + "".join(f"{t}e-4,0.5,x\n" for t in range(1, 7)),
    "total_time_s,signal\n" + "".join(f"{t}e-4,{0.9 ** t}\n" for t in range(1, 7)) + "7e-4,x\n",
    "total_time_s,signal\n" + "".join(f"{t}e-4,{0.9 ** t}\n" for t in range(1, 7)) + "nan,0.4\n",
    # csv's field limit is 131072 characters; both ended in a traceback
    "total_time_s,signal\n1e-4," + "9" * 200_000 + "\n",
    b"total_time_s,signal\n" + b"".join(b"%de-4,0.5\n" % t for t in range(1, 7)) + b"7e-4,\xe9\n",
], ids=["empty", "blank", "no_columns", "no_rows", "negative_std_error",
        "missing_std_error", "non_numeric_signal", "nan_time", "past_field_limit", "not_utf8"])
def test_malformed_fit_input_exits_2(tmp_path, capsys, text):
    csv = tmp_path / "curve.csv"
    csv.write_bytes(text if isinstance(text, bytes) else text.encode())
    cfg_path = _write(tmp_path, "fit.json", dict(_FIT, input_csv=str(csv)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's warning is not the report
        code, artifacts = cli.run(cfg_path, out_dir=str(tmp_path / "out"))
    assert code == cli.EXIT_VALIDATION
    assert artifacts == []
    assert "input_csv" in capsys.readouterr().err


def test_a_subcommand_refuses_another_experiment_before_building_its_spec(tmp_path, capsys):
    # a valid 10^6-time Hahn decay: its grid and pattern were built (0.06 s,
    # 50 MB traced) before the experiment was compared
    cfg = _decay_cfg(times={"start": "50 us", "stop": "500 us", "count": 10**6}, shots=100)
    cfg_path = _write(tmp_path, "decay.json", cfg)
    argv = ["fit", "--config", cfg_path, "--out", str(tmp_path / "out")]
    cli.main(argv)  # the parser's and numpy's first-call allocations
    capsys.readouterr()
    start = time.perf_counter()
    code = cli.main(argv)
    seconds = time.perf_counter() - start
    tracemalloc.start()
    try:
        cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == 2 * ("validation error: experiment must be one of "
                                           "['fit'], got 'decay'\n")
    assert seconds < 0.01 and peak < 1e6, (seconds, peak)
    assert not (tmp_path / "out").exists()
    # a config that its own experiment refuses reports the mismatch, not its error
    bad = _write(tmp_path, "bad.json", _decay_cfg(shots=1, colour="blue"))
    assert cli.main(["spinlock", "--config", bad]) == cli.EXIT_VALIDATION
    assert "experiment must be one of ['spinlock'], got 'decay'" in capsys.readouterr().err
    assert cfgmod.validate(cfg)["experiment"] == "decay"


def test_a_fit_input_past_the_budget_is_refused_before_it_is_read(tmp_path, capsys):
    # 64 GiB of holes, which take no disk: the read was bounded by nothing
    csv = tmp_path / "curve.csv"
    csv.write_bytes(b"")
    os.truncate(csv, 64 * 2**30)
    cfg_path = _write(tmp_path, "fit.json", dict(_FIT, input_csv=str(csv)))
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code, artifacts = cli.run(cfg_path, out_dir=str(tmp_path / "out"))
        seconds, peak = time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, artifacts) == (cli.EXIT_VALIDATION, [])
    assert capsys.readouterr().err.startswith("validation error: input_csv: this run would hold")
    assert seconds < 0.1 and peak < 1e6, (seconds, peak)


def test_a_fit_holds_no_more_than_its_input_is_charged(tmp_path):
    # 10^5 rows of 4 bytes, the fewest a row can take: the read is charged 9
    # words a byte, 36 a row, and the fit's per-point arrays (17 words a point)
    # fit within it (measured 20.0 MB against 28.8 MB charged)
    decay = [round(9 * math.exp(-t / 4)) for t in range(1, 10)]
    text = "total_time_s,signal\n" + "".join(f"{1 + i % 9},{decay[i % 9]}\n"
                                             for i in range(10**5))
    csv = tmp_path / "curve.csv"
    csv.write_text(text)
    cfg_path = _write(tmp_path, "fit.json", dict(_FIT, input_csv=str(csv)))
    tracemalloc.start()
    try:
        code, _ = cli.run(cfg_path, out_dir=str(tmp_path / "out"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == cli.EXIT_OK
    assert peak <= 8 * 9 * len(text), (peak, 8 * 9 * len(text))


def test_a_column_the_fit_does_not_read_may_hold_text(tmp_path):
    csv = tmp_path / "curve.csv"
    csv.write_text("total_time_s,signal,note\n"
                   + "".join(f"{t}e-4,{0.9 ** t},run {t}\n" for t in range(1, 8)))
    code, _ = cli.run(_write(tmp_path, "fit.json", dict(_FIT, input_csv=str(csv))),
                      out_dir=str(tmp_path / "out"))
    assert code == cli.EXIT_OK


def test_ragged_fit_input_exits_2_naming_the_row(tmp_path, capsys):
    csv = tmp_path / "curve.csv"
    csv.write_text("total_time_s,signal\n"
                   + "".join(f"{t}e-4,{0.9 ** t}\n" for t in range(1, 4)) + "4e-4,0.6,0.1\n"
                   + "".join(f"{t}e-4,{0.9 ** t}\n" for t in range(5, 8)))
    code, _ = cli.run(_write(tmp_path, "fit.json", dict(_FIT, input_csv=str(csv))),
                      out_dir=str(tmp_path / "out"))
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "input_csv" in err and "data row 4 " in err


def test_fit_input_reads_as_genfromtxt_reads_it(tmp_path):
    # a decay's curve.csv, with blank lines put in, against numpy's own reader
    code, artifacts = cli.run(_write(tmp_path, "cfg.json", _decay_cfg()),
                              out_dir=str(tmp_path / "decay"))
    assert code == cli.EXIT_OK
    lines = pathlib.Path(artifacts[0]).read_text().splitlines(keepends=True)
    padded = tmp_path / "padded.csv"
    padded.write_text("\n" + "".join(line + "\n" for line in lines) + " \n")
    ref = np.genfromtxt(artifacts[0], delimiter=",", names=True)
    columns = cli._read_columns(str(padded))
    assert list(columns) == list(ref.dtype.names)
    for name in ref.dtype.names:
        assert columns[name].tobytes() == ref[name].tobytes(), name


# numpy's overflow warnings in the fit reached stderr before the report
@pytest.mark.filterwarnings("error")
def test_fit_that_overflows_exits_3_with_one_line(tmp_path, capsys):
    csv = tmp_path / "curve.csv"
    csv.write_text("total_time_s,signal,std_error\n"
                   + "".join(f"{t}e-4,{(-1) ** t * 1e300!r},1e-300\n" for t in range(1, 8)))
    code, artifacts = cli.run(_write(tmp_path, "fit.json", dict(_FIT, input_csv=str(csv))),
                              out_dir=str(tmp_path / "out"))
    assert code == cli.EXIT_NUMERICAL and artifacts == []
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and "fit did not converge" in err
    assert err.count("\n") == 1 and err.endswith("\n")


# a pinned amplitude of 0 fitted nothing: it exited 0, "converged", with the
# start value as decay_time, after numpy's divide-by-zero warning
@pytest.mark.filterwarnings("error")
def test_fit_of_a_pinned_zero_amplitude_exits_3_with_one_line(tmp_path, capsys, fit_csv):
    cfg = dict(_FIT, input_csv=fit_csv, fixed_params={"amplitude": 0})
    code, _ = cli.run(_write(tmp_path, "fit.json", cfg), out_dir=str(tmp_path / "out"))
    assert code == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: fit did not converge") and err.count("\n") == 1


# --- the output directory: new files, a manifest that describes it ------------

_OVERFLOWING_FIT = ("total_time_s,signal,std_error\n"
                    + "".join(f"{t}e-4,{(-1) ** t * 1e300!r},1e-300\n" for t in range(1, 8)))


def _files(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}


def _assert_manifest_describes(out):
    """A manifest present hashes exactly to the files beside it."""
    if (out / "manifest.json").exists():
        digests = json.loads((out / "manifest.json").read_text())["artifacts"]
        assert digests and digests == {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in digests}


# a failed run left the previous run's manifest beside its own artifacts: after
# an unconverged fit, manifest.json named the good fit's input_csv and a
# fit.json digest the file no longer had
@pytest.mark.filterwarnings("error")
def test_failed_runs_leave_no_manifest_that_misdescribes_the_directory(tmp_path, fit_csv):
    out = tmp_path / "out"
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text(_OVERFLOWING_FIT)

    def run(name, cfg, code):
        assert cli.run(_write(tmp_path, f"{name}.json", cfg), out_dir=str(out))[0] == code, name
        _assert_manifest_describes(out)

    run("fit", dict(_FIT, input_csv=fit_csv), cli.EXIT_OK)
    run("fit_unconverged", dict(_FIT, input_csv=str(bad_csv)), cli.EXIT_NUMERICAL)
    assert not (out / "manifest.json").exists() and (out / "fit.json").exists()
    # each of these fails before its first byte: the good run stays as it was
    for name, cfg, code in [
        ("sense", _sense_cfg(), cli.EXIT_OK),
        ("sense_tiny_envelope", _sense_cfg(envelope=1e-300), cli.EXIT_NUMERICAL),
        ("decay", _decay_cfg(), cli.EXIT_OK),
        ("decay_huge_field", _decay_cfg(field=[{"type": "static_offset", "b": "1e305 T"}],
                                        sequence={"kind": "fid"}, times=_MS_TIMES),
         cli.EXIT_NUMERICAL),
        ("decay_invalid", _decay_cfg(shots="x"), cli.EXIT_VALIDATION),
    ]:
        before = _files(out)
        run(name, cfg, code)
        if code != cli.EXIT_OK:
            assert _files(out) == before, name
    # an artifact path that cannot be written, the first and then the second
    for blocked, cfg in (("curve.csv", _decay_cfg()), ("report.json", _sense_cfg())):
        run("good", cfg, cli.EXIT_OK)
        (out / blocked).unlink()
        (out / blocked).mkdir()
        run("blocked", cfg, cli.EXIT_IO)
        assert not (out / "manifest.json").exists()
        (out / blocked).rmdir()


def test_an_artifact_is_a_new_file_not_the_old_one_rewritten(tmp_path):
    out = tmp_path / "out"
    assert cli.run(_write(tmp_path, "a.json", _decay_cfg()), out_dir=str(out))[0] == cli.EXIT_OK
    old = (out / "curve.csv").read_bytes()
    # a reader that opened the old curve keeps reading it
    with open(out / "curve.csv", "rb") as fh:
        cfg = _write(tmp_path, "b.json", _decay_cfg(seed=13))
        assert cli.run(cfg, out_dir=str(out))[0] == cli.EXIT_OK
        assert fh.read() == old
    assert (out / "curve.csv").read_bytes() != old
    # a symlink at an artifact path is replaced, not written through
    target = tmp_path / "elsewhere.csv"
    target.write_bytes(b"kept\n")
    (out / "curve.csv").unlink()
    (out / "curve.csv").symlink_to(target)
    assert cli.run(cfg, out_dir=str(out))[0] == cli.EXIT_OK
    assert target.read_bytes() == b"kept\n"
    assert not (out / "curve.csv").is_symlink()
    _assert_manifest_describes(out)


def _strict(constant):
    raise ValueError(f"{constant} is not JSON")


# the candidate fit.json of an overflowing fit held NaN, which strict parsers reject
@pytest.mark.filterwarnings("error")
def test_json_artifacts_are_strict_json(tmp_path):
    csv = tmp_path / "bad.csv"
    csv.write_text(_OVERFLOWING_FIT)
    out = tmp_path / "out"
    code, _ = cli.run(_write(tmp_path, "fit.json", dict(_FIT, input_csv=str(csv))),
                      out_dir=str(out))
    assert code == cli.EXIT_NUMERICAL
    fit = json.loads((out / "fit.json").read_text(), parse_constant=_strict)
    assert fit["converged"] is False and None in fit["uncertainties"].values()
    # finite values are written as json.dump writes them
    assert cli._json_text({"a": [1.5, math.nan], "b": math.inf}) == json.dumps(
        {"a": [1.5, None], "b": None}, indent=2, sort_keys=True)
    report = {"k": 19.4, "fit": {"params": [1e-300, -0.5]}}
    assert cli._json_text(report) == json.dumps(report, indent=2, sort_keys=True)


@pytest.mark.parametrize("obj", [
    {}, [], (), {"a": {}, "b": [], "c": [{}, [[]]]}, {"z": {"y": [1, [2.5, ["x"]]]}, "a": 0},
    "na\u00efve \u2603 \U0001f600", "\x00\x1f\t\n\r\"\\/\x7f",
    -0.0, 5e-324, 1e300, 2**70, -(2**70), True, False, 1, None,
    (1, "two", (3.0,)), np.float64(0.1), {"k": [np.float64(-1e-7), False, None]},
], ids=lambda obj: type(obj).__name__)
def test_json_text_writes_the_bytes_json_dumps_writes(obj):
    assert cli._json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_json_text_writes_a_non_finite_float_as_null_at_any_depth(bad):
    for obj, finite in [(bad, None), ([bad], [None]), ({"a": (1.0, {"b": [bad]})},
                                                      {"a": [1.0, {"b": [None]}]})]:
        assert cli._json_text(obj) == json.dumps(finite, indent=2, sort_keys=True)


@pytest.mark.parametrize("obj", [np.int64(1), {1, 2}, b"x", {1: "a"}, {"a": [{2: 0}]},
                                 {"a": 0, 2: 0}, {(1,): 0}],
                         ids=["int64", "set", "bytes", "int_key", "nested_int_key",
                              "mixed_keys", "tuple_key"])
def test_json_text_refuses_what_json_cannot_write(obj):
    # json would write an int key as a string; the writer writes no other text
    with pytest.raises(TypeError):
        cli._json_text(obj)


def test_unknown_key_is_rejected_by_name(tmp_path, capsys):
    cfg_path = _write(tmp_path, "cfg.json", _decay_cfg(tua_us=5))
    code, artifacts = cli.run(cfg_path, out_dir=str(tmp_path / "out"))
    assert code == cli.EXIT_VALIDATION
    assert artifacts == []
    assert "tua_us" in capsys.readouterr().err


def test_too_few_shots_rejected(tmp_path):
    cfg_path = _write(tmp_path, "cfg.json", _decay_cfg(shots=50))
    code, _ = cli.run(cfg_path, out_dir=str(tmp_path / "out"))
    assert code == cli.EXIT_VALIDATION


def test_malformed_json_reports_position(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"experiment": "decay",}')
    code, _ = cli.run(str(path))
    assert code == cli.EXIT_VALIDATION
    assert "line" in capsys.readouterr().err
    # bytes that are not UTF-8 raised UnicodeDecodeError out of cli.run
    path.write_bytes(b'\xff\xfe{"experiment": "decay"}')
    code, _ = cli.run(str(path))
    assert code == cli.EXIT_VALIDATION


def test_unwritable_output_is_io_error(tmp_path):
    cfg_path = _write(tmp_path, "cfg.json", _decay_cfg())
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    code, _ = cli.run(cfg_path, out_dir=str(blocker))
    assert code == cli.EXIT_IO


def test_output_directory_without_write_access_is_io_error(tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    assert cli.run(_write(tmp_path, "a.json", _decay_cfg()), out_dir=str(out))[0] == cli.EXIT_OK
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    # write access denied as a read-only mount denies it (root passes every
    # permission check)
    access = os.access
    monkeypatch.setattr(os, "access", lambda path, mode, **kw: not mode & os.W_OK
                        and access(path, mode, **kw))
    code, artifacts = cli.run(_write(tmp_path, "b.json", _decay_cfg(seed=13)), out_dir=str(out))
    assert code == cli.EXIT_IO and artifacts == []
    assert capsys.readouterr().err == f"i/o error: output directory {str(out)!r} not writable\n"
    # nothing written: the previous run's curve and manifest are as they were
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert "manifest.json" in before


def test_motional_narrowing_warning():
    report = cfgmod.validate(_decay_cfg(
        field=[{"type": "ornstein_uhlenbeck", "sigma_b": "1 uT",
                "tau_c": "1 ns"}],
        sequence={"kind": "cpmg", "n_pulses": 1},
        times={"start": "10 us", "stop": "200 us", "count": 4},
    ))
    assert any("motional-narrowing" in w for w in report["warnings"])


@pytest.mark.parametrize("sigma_b, gamma_scale, warned", [
    ("1 nT", 1.0, True), ("1 nT", 2.0, False), ("2 nT", 1.0, False), ("2 nT", 0.5, True)])
def test_slow_fluctuation_warning_reads_the_configured_gamma(sigma_b, gamma_scale, warned):
    # gamma sigma_b tau_c at tau_c = 5 us and the free-electron gamma: 8.8e-4
    # at 1 nT and 1.76e-3 at 2 nT, either side of the warning's 1e-3
    cfg = _decay_cfg(field=[{"type": "ornstein_uhlenbeck", "sigma_b": sigma_b, "tau_c": "5 us"}],
                     nv={"gamma_e_rad_per_s_per_T": gamma_scale * GAMMA_E})
    said = cfgmod.validate(cfg)["warnings"]
    assert any("slow-fluctuation diagnostic" in w for w in said) is warned, said


def test_bulk_preset_expands_clean():
    report = cfgmod.validate({
        "experiment": "decay",
        "preset": "bulk_cvd",
        "sequence": {"kind": "cpmg", "n_pulses": 90},
        "times": {"start": "0.3 ms", "stop": "6 ms", "count": 6},
        "shots": 300,
    })
    assert report["warnings"] == []
    cfg = report["expanded"]
    assert cfg["nv"]["t1"] == "5.93 ms"
    assert cfg["field"][0]["tau_c"] == "25 us"
    with pytest.raises(ConfigError):
        cfgmod.expand_preset({"preset": "who_knows"})


def test_fit_subcommand_round_trip(tmp_path):
    ts = np.linspace(0.05e-3, 1.2e-3, 20)
    vals = np.exp(-((ts / 0.39e-3) ** 3))
    csv = tmp_path / "curve.csv"
    with open(csv, "w") as fh:
        fh.write("total_time_s,signal,std_error\n")
        for t, v in zip(ts, vals):
            fh.write(f"{float(t)!r},{float(v)!r},0.01\n")
    cfg_path = _write(tmp_path, "fit.json",
                      {"experiment": "fit", "input_csv": str(csv)})
    code, artifacts = cli.run(cfg_path, out_dir=str(tmp_path / "out"))
    assert code == cli.EXIT_OK
    fit = json.loads(pathlib.Path([p for p in artifacts if p.endswith("fit.json")][0]).read_text())
    assert fit["params"]["decay_time"] == pytest.approx(0.39e-3, rel=1e-6)
    assert fit["params"]["stretch"] == pytest.approx(3.0, rel=1e-6)


def test_sense_subcommand_writes_report(tmp_path):
    cfg = {
        "experiment": "sense",
        "preset": "bulk_cvd",
        "sequence": {"kind": "hahn"},
        "envelope": "auto",
        "times": {"start": "0.5 s", "stop": "500 s", "count": 8,
                  "spacing": "geometric"},
    }
    cfg_path = _write(tmp_path, "cfg.json", cfg)
    code, artifacts = cli.run(cfg_path, out_dir=str(tmp_path / "out"))
    assert code == cli.EXIT_OK
    report = json.loads(
        pathlib.Path([p for p in artifacts if p.endswith("report.json")][0]).read_text())
    assert report["k_nT_per_sqrt_Hz"] == pytest.approx(19.4, abs=0.1)
    assert 0 < report["envelope"] < 1


@pytest.mark.parametrize("seed", [{}, {"seed": 1}], ids=["unseeded", "seeded"])
@pytest.mark.parametrize("stop, code", [("1e300 s", cli.EXIT_OK),
                                        ("1e308 s", cli.EXIT_VALIDATION)])
def test_sense_scan_to_extreme_times(tmp_path, seed, stop, code):
    # at 1e308 s the shot count overflows to inf: validation rejects the
    # grid, seeded or not
    times = {"start": "0.5 s", "stop": stop, "count": 8, "spacing": "geometric"}
    cfg_path = _write(tmp_path, "cfg.json", _sense_cfg(times=times, **seed))
    assert cli.run(cfg_path, out_dir=str(tmp_path / "out"))[0] == code


def test_validate_command_exit_codes(tmp_path, capsys):
    good = _write(tmp_path, "good.json", _decay_cfg())
    assert cli.main(["validate", "--config", good]) == cli.EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is True
    bad = _write(tmp_path, "bad.json", _decay_cfg(experiment="nope"))
    assert cli.main(["validate", "--config", bad]) == cli.EXIT_VALIDATION
    # sense runs only Hahn and CPMG; validate rejects the rest before a run
    fid = _write(tmp_path, "fid.json", _sense_cfg(sequence={"kind": "fid"}))
    assert cli.main(["validate", "--config", fid]) == cli.EXIT_VALIDATION


def test_main_dispatch_with_overrides(tmp_path):
    cfg_path = _write(tmp_path, "cfg.json", _decay_cfg())
    out = tmp_path / "out"
    code = cli.main(["decay", "--config", cfg_path, "--out", str(out),
                     "--seed", "99", "--shots", "200"])
    assert code == cli.EXIT_OK
    man = json.loads((out / "manifest.json").read_text())
    assert man["config"]["seed"] == 99
    assert man["config"]["shots"] == 200
    # subcommand and config experiment must agree
    assert cli.main(["spinlock", "--config", cfg_path]) == cli.EXIT_VALIDATION


def test_override_flags_are_the_spec_keys_they_set():
    """--seed, --shots and --threads are offered exactly where the spec runs
    a curve, which reads all three: a flag is never ignored, as --seed would
    be by the analytic sense scan, and never only refused as an unknown
    config key."""
    (subparsers,) = [a for a in cli._parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    offered = {}
    for name, (kind, _) in cli._SUBCOMMANDS.items():
        spec = cfgmod._EXPERIMENTS[kind]
        flags = {a.dest for a in subparsers.choices[name]._actions} - {"help", "config", "out"}
        assert flags - {"threads"} <= {f.name for f in dataclasses.fields(spec)}, name
        assert ("threads" in flags) == hasattr(spec, "curve"), name
        offered[name] = flags
    curve = {"seed", "shots", "threads"}
    assert offered == {"decay": curve, "spinlock": curve, "pulse-error": curve,
                       "sense": set(), "suppression": set(), "fit": set()}


@pytest.mark.parametrize("command, cfg", [("spinlock", _SPINLOCK), ("pulse-error", _PULSE_ERROR)],
                         ids=["spinlock", "pulse_error"])
def test_override_flags_set_their_keys(tmp_path, command, cfg):
    cfg_path, out = _write(tmp_path, "cfg.json", cfg), tmp_path / "out"
    flags = ["--seed", "99", "--shots", "300"]
    assert cli.main([command, "--config", cfg_path, "--out", str(out), *flags]) == cli.EXIT_OK
    man = json.loads((out / "manifest.json").read_text())
    assert (man["config"]["seed"], man["config"]["shots"]) == (99, 300)


@pytest.mark.parametrize("command, cfg", [
    ("suppression", {"experiment": "suppression_table", "n_max": 4, "k_max": 3}),
    ("sense", _sense_cfg()),
], ids=["suppression", "sense"])
def test_a_flag_the_spec_does_not_read_is_a_usage_error(tmp_path, capsys, command, cfg):
    cfg_path = _write(tmp_path, "cfg.json", cfg)
    for flag in ("--seed", "--shots", "--threads"):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", cfg_path, flag, "2"])
        assert exc.value.code == cli.EXIT_VALIDATION
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err


# (--threads, the chunks the budget holds beside the rest of the run, cores,
# the pool started)
@pytest.mark.parametrize("threads, chunks, cores, pools", [
    (2, 1.5, 2, []), (3, 2.5, 2, [2]), (3, 2.5, 3, [2]), (64, 2.5, 64, [2]),
], ids=["one_chunk_fits", "two_cores", "two_chunks_fit", "64_threads"])
def test_the_driver_fits_its_threads_to_the_work_budget(tmp_path, monkeypatch, threads, chunks,
                                                        cores, pools):
    # a spin lock of three chunks that validates never exits 2 for --threads:
    # the run starts no more threads than the budget has chunks for, where it
    # exited 2 once two chunks were past the budget
    cfg = dict(_SPINLOCK, shots=2 * evolve.CHUNK + 1)
    spec = cfgmod.validate(cfg)["spec"]
    held, rest = evolve.spin_lock_words(spec.field, spec.times, spec.shots)
    monkeypatch.setattr(evolve, "WORK_BUDGET", chunks * held + rest
                        + evolve.partial_words(spec.shots, spec.times.size))
    monkeypatch.setattr(evolve.os, "cpu_count", lambda: cores)
    started = []

    class Pool(evolve.ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(evolve, "ThreadPoolExecutor", Pool)
    cfg_path = _write(tmp_path, "cfg.json", cfg)
    assert cli.main(["validate", "--config", cfg_path]) == cli.EXIT_OK
    curves = set()
    for workers in (1, threads):
        out = tmp_path / f"threads{workers}"
        assert cli.main(["spinlock", "--config", cfg_path, "--out", str(out),
                         "--threads", str(workers)]) == cli.EXIT_OK
        curves.add((out / "curve.csv").read_bytes())
    assert started == pools
    assert len(curves) == 1


@pytest.mark.parametrize("threads", ["0", "-3"])
@pytest.mark.parametrize("command, cfg", [("decay", _decay_cfg()), ("spinlock", _SPINLOCK),
                                          ("pulse-error", _PULSE_ERROR)],
                         ids=["decay", "spinlock", "pulse_error"])
def test_threads_below_one_exit_2_naming_the_flag(tmp_path, capsys, command, cfg, threads):
    # they ran on one thread, without a word
    cfg_path, out = _write(tmp_path, "cfg.json", cfg), tmp_path / "out"
    assert cli.main([command, "--config", cfg_path, "--out", str(out),
                     "--threads", threads]) == cli.EXIT_VALIDATION
    assert f"--threads must be at least 1, got {threads}" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


# the decay draws its phases' own normals; the Bloch paths draw the field's
@pytest.mark.parametrize("cfg, scheme", [(_decay_cfg(), DECAY_RNG_SCHEME),
                                         (_SPINLOCK, RNG_SCHEME), (_PULSE_ERROR, RNG_SCHEME)],
                         ids=["decay", "spinlock", "pulse_error"])
def test_manifest_records_rng_scheme(tmp_path, cfg, scheme):
    code, _ = cli.run(_write(tmp_path, "cfg.json", cfg), out_dir=str(tmp_path / "out"))
    assert code == cli.EXIT_OK
    man = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert man["metadata"]["rng_scheme"] == scheme
    assert (RNG_SCHEME, DECAY_RNG_SCHEME) == ("philox-chunk4096-v2", "philox-chunk4096-v3")


# one small valid config per experiment for the property test below; the fit
# reads the CSV written next to it
_SMALL_TIMES = {"start": "20 us", "stop": "60 us", "count": 2}
_SMALL_BASES = [
    _decay_cfg(shots=100, times=_SMALL_TIMES, t1_envelope=True,
               sequence={"kind": "custom", "pulse_time_fractions": [0.25, 0.75]}),
    dict(_SPINLOCK, times=_SMALL_TIMES),
    dict(_PULSE_ERROR, n_pulses=2, times=_SMALL_TIMES, shots=100),
    {"experiment": "suppression_table", "n_max": 4, "k_max": 3},
    _sense_cfg(times={"start": "0.5 s", "stop": "50 s", "count": 4}, sequence_tau="27 us",
               sequence={"kind": "cpmg", "n_pulses": 2}, envelope="auto"),
    dict(_FIT, model="exponential", fixed_params={"offset": 0.0}),
]

# integers stay at most 300 so that a mutation which still validates asks
# for a small run; from 2**64 up they are past every reader's bound
_PROPERTY_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-300, 300)
    | st.integers(2**64, 10**400)
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(["1 us", "-5 us", "0 s", "5 nT", "1e300 T", "1e999 s", "40 kHz",
                       "auto", "hahn", "cpmg", "fid", "custom", "cp", "geometric",
                       "static_offset", "ornstein_uhlenbeck", "exponential"])
)
_PROPERTY_JSON = st.recursive(
    _PROPERTY_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6) | st.sampled_from(["kind", "type", "n_pulses"]),
                      inner, max_size=3),
    max_leaves=6,
)


def _containers(node):
    """Every object and list in a config, the config first."""
    if isinstance(node, (dict, list)):
        yield node
        for child in (node.values() if isinstance(node, dict) else node):
            yield from _containers(child)


@pytest.fixture(scope="module")
def fit_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("fit_input") / "curve.csv"
    path.write_text("total_time_s,signal,std_error\n"
                    + "".join(f"{t}e-4,{0.9 ** t!r},0.01\n" for t in range(1, 7)))
    return str(path)


@pytest.mark.parametrize("base", _SMALL_BASES, ids=lambda b: b["experiment"])
def test_small_bases_run(fit_csv, tmp_path, base):
    cfg = dict(base, input_csv=fit_csv) if base["experiment"] == "fit" else base
    assert cli.run(_write(tmp_path, "cfg.json", cfg), out_dir=str(tmp_path / "out"))[0] == 0


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_run_of_a_mutated_config_exits_with_a_code(fit_csv, tmp_path_factory, data):
    base = copy.deepcopy(data.draw(st.sampled_from(_SMALL_BASES)))
    if base["experiment"] == "fit":
        base["input_csv"] = fit_csv
    node = data.draw(st.sampled_from(list(_containers(base))))
    key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
    mutation = data.draw(st.sampled_from(
        ["drop", "replace", "add"] if isinstance(node, dict) else ["drop", "replace"]))
    if mutation == "drop":
        del node[key]
    elif mutation == "replace":
        node[key] = data.draw(_PROPERTY_JSON)
    else:
        new_key = data.draw(st.text(min_size=1, max_size=6).filter(lambda k: k not in node))
        node[new_key] = data.draw(_PROPERTY_JSON)
    work = tmp_path_factory.mktemp("mutated")
    code, _ = cli.run(_write(work, "cfg.json", base), out_dir=str(work / "out"))
    assert code in (cli.EXIT_OK, cli.EXIT_VALIDATION, cli.EXIT_NUMERICAL, cli.EXIT_IO)


def test_decay_bytes_do_not_depend_on_worker_or_blas_threads(tmp_path):
    # the decay maps each chunk's normals to its phases with one matrix
    # product per slot; neither the worker count nor BLAS's own threads may
    # change a byte.  BLAS reads its thread count once, so each run is a
    # process of its own
    cfg = _decay_cfg(field=[{"type": "ornstein_uhlenbeck", "sigma_b": "59.22345 nT",
                             "tau_c": "25 us"},
                            {"type": "quasi_static_gaussian", "sigma_b": "5 nT"},
                            {"type": "static_offset", "b": "1 nT"}],
                     sequence={"kind": "cpmg", "n_pulses": 90},
                     times={"start": "0.3 ms", "stop": "6 ms", "count": 12},
                     shots=2 * 4096 + 1)
    cfg_path = _write(tmp_path, "cfg.json", cfg)
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    curves = {}
    for blas in (1, 2):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas),
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        for workers in (1, 2):
            out = tmp_path / f"blas{blas}_workers{workers}"
            subprocess.run([sys.executable, "-m", "spindd.cli", "decay", "--config", cfg_path,
                            "--out", str(out), "--threads", str(workers)],
                           env=env, check=True, capture_output=True)
            curves[blas, workers] = (out / "curve.csv").read_bytes()
    assert len(set(curves.values())) == 1


@pytest.mark.parametrize("command, cfg", [
    ("spinlock", dict(_SPINLOCK, shots=2 * evolve.CHUNK + 1)),
    ("pulse-error", dict(_PULSE_ERROR, shots=2 * evolve.CHUNK + 1)),
], ids=["spinlock", "pulse_error"])
def test_bloch_bytes_do_not_depend_on_the_worker_count(tmp_path, monkeypatch, command, cfg):
    # three chunks: --threads reaches the Monte Carlo driver, whose pool
    # reduces the chunks in chunk order whatever the worker count; three
    # cores, so that the pool is not capped below three workers on any host
    pools = []

    class Pool(evolve.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(evolve, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(evolve.os, "cpu_count", lambda: 3)
    cfg_path = _write(tmp_path, "cfg.json", cfg)
    curves = set()
    for workers in (1, 2, 3):
        out = tmp_path / f"workers{workers}"
        assert cli.main([command, "--config", cfg_path, "--out", str(out),
                         "--threads", str(workers)]) == cli.EXIT_OK
        curves.add((out / "curve.csv").read_bytes())
    assert pools == [2, 3]
    assert len(curves) == 1

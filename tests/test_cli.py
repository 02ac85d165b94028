import json
import math

import numpy as np
import pytest

from spindd import cli, config as cfgmod
from spindd.config import ConfigError


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
        outs.append({p.split("/")[-1]: open(p, "rb").read() for p in artifacts})
    assert outs[0]["curve.csv"] == outs[1]["curve.csv"]
    # the manifest carries per-artifact digests
    man = json.loads(outs[0]["manifest.json"])
    assert "curve.csv" in man["artifacts"]
    assert man["config"]["seed"] == 12


def test_thread_count_does_not_change_results(tmp_path):
    cfg_path = _write(tmp_path, "cfg.json", _decay_cfg(shots=700))
    _, a1 = cli.run(cfg_path, out_dir=str(tmp_path / "t1"), threads=1)
    _, a8 = cli.run(cfg_path, out_dir=str(tmp_path / "t8"), threads=8)
    csv1 = open([p for p in a1 if p.endswith("curve.csv")][0], "rb").read()
    csv8 = open([p for p in a8 if p.endswith("curve.csv")][0], "rb").read()
    assert csv1 == csv8


def test_suppression_table_artifact(tmp_path):
    cfg_path = _write(tmp_path, "cfg.json",
                      {"experiment": "suppression_table", "n_max": 8, "k_max": 5})
    code, artifacts = cli.run(cfg_path, out_dir=str(tmp_path / "out"))
    assert code == cli.EXIT_OK
    csv_path = [p for p in artifacts if p.endswith("suppression.csv")][0]
    rows = open(csv_path).read().strip().splitlines()
    assert rows[0] == "n,k,factor_exact_num,factor_exact_den,factor_float"
    # k runs from 0 through k_max inclusive
    assert len(rows) == 1 + 8 * 6
    first = rows[1].split(",")
    assert (int(first[0]), int(first[1])) == (1, 0)
    assert float(first[4]) == 0.0
    n1k1 = rows[2].split(",")
    assert (int(n1k1[0]), int(n1k1[1])) == (1, 1)
    assert abs(float(n1k1[4])) == 0.5


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


def test_unwritable_output_is_io_error(tmp_path):
    cfg_path = _write(tmp_path, "cfg.json", _decay_cfg())
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    code, _ = cli.run(cfg_path, out_dir=str(blocker))
    assert code == cli.EXIT_IO


def test_motional_narrowing_warning():
    report = cfgmod.validate(_decay_cfg(
        field=[{"type": "ornstein_uhlenbeck", "sigma_b": "1 uT",
                "tau_c": "1 ns"}],
        sequence={"kind": "cpmg", "n_pulses": 1},
        times={"start": "10 us", "stop": "200 us", "count": 4},
    ))
    assert any("motional-narrowing" in w for w in report["warnings"])


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
    fit = json.loads(open([p for p in artifacts if p.endswith("fit.json")][0]).read())
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
        open([p for p in artifacts if p.endswith("report.json")][0]).read())
    assert report["k_nT_per_sqrt_Hz"] == pytest.approx(19.4, abs=0.1)
    assert 0 < report["envelope"] < 1


def test_validate_command_exit_codes(tmp_path, capsys):
    good = _write(tmp_path, "good.json", _decay_cfg())
    assert cli.main(["validate", "--config", good]) == cli.EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is True
    bad = _write(tmp_path, "bad.json", _decay_cfg(experiment="nope"))
    assert cli.main(["validate", "--config", bad]) == cli.EXIT_VALIDATION


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

"""The benchmark's correctness gate on every workload, run against the
package: its analytic decay calls ``config.parse_times``,
``sequence.toggling`` and ``field.ou_chi`` by name, its spin-lock and
pulse-error curves must stay within their reference values, and its
suppression table and sensitivities must match the exact oracle and their
windows, so a change that breaks them fails here as well as in the benchmark.
The benchmark's files are read, never written."""

import importlib.util
import io
import pathlib
import sys
from contextlib import redirect_stdout

import pytest

from spindd import cli, config as cfgmod, evolve

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


@pytest.mark.parametrize("name", ["decay_cpmg", "decay_hahn"])
def test_benchmark_gate_passes_the_decay_workloads(tmp_path, workloads, name):
    workload = workloads.build(name, 3, str(tmp_path), 1)
    (step,) = [s for s in workload.steps if s.experiment == "decay"]
    times, expected = workloads.expected_decay(step)
    spec = cfgmod.validate(step.config)["spec"]
    assert times == spec.times.tolist()
    # the gate restates the bath; it must still be the preset's exact decay
    exact = evolve.gaussian_coherence(spec.field, spec.sequence, spec.times, spec.nv)
    assert expected == pytest.approx(exact.tolist(), rel=1e-12)
    with redirect_stdout(io.StringIO()):
        code, _ = cli.run(step.config_path, out_dir=step.out_dir,
                          expected_experiment=step.experiment)
    assert code == cli.EXIT_OK
    assert workloads.Gate(workload).check(step) == []


def test_benchmark_gate_passes_the_bloch_workload(tmp_path, workloads):
    workload = workloads.build("bloch", 3, str(tmp_path), 1)
    assert [s.experiment for s in workload.steps] == ["spinlock", "pulse_error", "pulse_error"]
    gate = workloads.Gate(workload)  # reads the reference curves
    for step in workload.steps:
        with redirect_stdout(io.StringIO()):
            code, _ = cli.run(step.config_path, out_dir=step.out_dir,
                              expected_experiment=step.experiment)
        assert code == cli.EXIT_OK
        assert gate.check(step) == [], step.name


def test_benchmark_gate_passes_the_analysis_workload(tmp_path, workloads):
    workload = workloads.build("analysis", 3, str(tmp_path), 1)
    assert [s.experiment for s in workload.steps] == ["suppression_table", "sense", "sense"]
    gate = workloads.Gate(workload)
    for step in workload.steps:
        with redirect_stdout(io.StringIO()):
            code, _ = cli.run(step.config_path, out_dir=step.out_dir,
                              expected_experiment=step.experiment)
        assert code == cli.EXIT_OK
        assert gate.check(step) == [], step.name

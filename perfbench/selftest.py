"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/selftest.py

Run from the repository root.  The file name keeps these tests out of the
package's own test collection; they take about a minute.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spindd import evolve  # noqa: E402

TINY = {
    "decay_cpmg": {"shots": 200},
    "decay_hahn": {"shots": 500},
    "bloch": {"spinlock_shots": 100, "pulse_shots": 100},
    "analysis": {"n_max": 24, "k_max": 12},
}


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return bench


def _runner(tmp_path, name, seed=5):
    wl = workloads.build(name, seed, str(tmp_path), 2, TINY)
    return run.Runner(wl)


@pytest.fixture
def tiny(monkeypatch):
    for name, size in TINY.items():
        monkeypatch.setitem(workloads.DEFAULT_SIZES, name, size)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "RSS_REPEATS", 1)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_schema_and_metric_names(name, trace, tiny):
    result, info = run.run_benchmark(name, 7, 0.05, trace, ROOT)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, info["errors"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    bench = _declared()
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0
    assert info["env"]["seed"] == 7 and info["env"]["nproc"] >= 1
    assert name in [w["name"] for w in bench["workloads"]]


def test_perturbed_curve_fails_the_gate(tmp_path):
    runner = _runner(tmp_path, "decay_cpmg")
    runner.run_gate()
    assert runner.failed == 0, runner.errors
    decay = runner.workload.steps[0]
    path = runner.gate.artifact(decay)
    lines = open(path).read().splitlines()
    t, s, e, n = lines[3].split(",")
    lines[3] = ",".join([t, repr(float(s) + 0.2), e, n])
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert runner.gate.check(decay)
    # a timed pipeline that cannot reproduce the gated artifact is a failure too
    runner.golden["decay"] = open(path, "rb").read()
    runner.run_timed()
    assert runner.failed == 1


def test_mismatched_thread_count_artifact_fails_the_gate(tmp_path, monkeypatch):
    real = run.run_step

    def perturbed_single_thread(step, threads=None, out_dir=None):
        elapsed, err = real(step, threads, out_dir)
        if threads == 1 and out_dir:
            with open(os.path.join(out_dir, "curve.csv"), "a") as fh:
                fh.write("\n")
        return elapsed, err

    monkeypatch.setattr(run, "run_step", perturbed_single_thread)
    runner = _runner(tmp_path, "decay_cpmg")
    runner.run_gate()
    assert runner.failed == 1
    assert any("differ" in e for e in runner.errors)


def test_completion_order_reduction_fails_the_gate(tmp_path, monkeypatch):
    # a pool that sums the chunk partials as they finish: the short last
    # chunk of the thread-check decay finishes first
    def completion_order_mean_cos(model, tog, shots, rng, gamma_e, n_workers):
        chunks = list(evolve._chunked_indices(shots))
        if n_workers > 1:
            chunks.sort(key=len)
        partials = []
        for idx in chunks:
            c = np.cos(evolve.signed_phase_batch(model, tog, rng, idx, gamma_e))
            partials.append((np.sum(c), np.sum(c * c)))
        s1 = float(np.sum(np.array([p[0] for p in partials])))
        s2 = float(np.sum(np.array([p[1] for p in partials])))
        mean = s1 / shots
        return mean, np.sqrt(max(s2 / shots - mean * mean, 0.0) / shots)

    monkeypatch.setattr(evolve, "_mean_cos", completion_order_mean_cos)
    runner = _runner(tmp_path, "decay_cpmg")
    runner.run_gate()
    assert runner.failed == 1
    assert any("differ" in e for e in runner.errors)


def test_missing_trace_target_fails_the_run(tiny, monkeypatch):
    bogus = ("spindd.field", "no_such_function", "field.no_such_function", {})
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (bogus,))
    result, info = run.run_benchmark("analysis", 7, 0.05, 1, ROOT)
    assert result["correct"] is False and result["failed"] == 1
    assert any("no_such_function" in e for e in info["errors"])


def test_threaded_child_spans_overlap_and_self_time_stays_positive(tmp_path):
    step = workloads.thread_check_step(str(tmp_path), 5)
    tracer = spans.Tracer()
    with tracer.patched(1):
        _, err = run.run_step(step, threads=2)
    assert err is None
    (curve,) = [s for s in tracer.spans if s[1] == "evolve.coherence_curve"]
    kids = sorted(s[2:4] for s in tracer.spans
                  if s[4] == curve[0] and s[1] == "field.segment_phases")
    assert len(kids) == 3 * workloads.THREAD_CHECK_TIMES["count"]  # three chunks per point
    assert any(b[0] < a[1] for a, b in zip(kids, kids[1:]))
    assert 0.0 <= spans.self_times(tracer.spans)[curve[0]] < curve[3] - curve[2]


def test_peak_rss_is_the_child_process_own(tmp_path, tiny):
    ballast = np.ones(25_000_000)  # 200 MB resident in this process
    workload = workloads.build("analysis", 5, str(tmp_path), 1)
    rss_mb, err = run.measure_peak_rss(ROOT, workload)
    assert err is None and 0 < rss_mb < ballast.nbytes / 2**20 / 2


def test_seed_changes_configs_and_still_passes(tmp_path):
    configs = []
    for seed in (3, 4):
        runner = _runner(tmp_path / str(seed), "bloch", seed)
        runner.run_gate()
        assert runner.failed == 0, runner.errors
        configs.append([s.config for s in runner.workload.steps])
    assert configs[0] != configs[1]


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans_ = [
        (1, "parent", 0.0, 10.0, None, 1, 1),
        (2, "child", 1.0, 4.0, 1, 2, 1),
        (3, "child", 3.0, 6.0, 1, 3, 1),
        (4, "child", 8.0, 12.0, 1, 2, 1),
    ]
    assert spans.self_times(spans_)[1] == pytest.approx(10.0 - 5.0 - 2.0)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analysis", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

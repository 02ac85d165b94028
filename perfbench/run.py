"""spindd benchmark: one workload per invocation, run in-process through
``spindd.cli.run`` from the package sources under ``src/``.

    python3 perfbench/run.py --workload decay_hahn --seed 1 --seconds 10 --trace 0

Run it from the repository root.  It is a closed loop: one caller runs the
workload's CLI pipeline, waits for it, checks its outputs and starts the next.
The correctness gate runs one untimed, untraced pipeline first (it also warms
caches), then every timed pipeline must reproduce the gate's artifacts byte
for byte.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates untraced
and traced pipelines and prints the per-layer metrics plus the tracing
overhead.  Run as a script, the process, its threads and its children run on
one core, and end-to-end times are corrected to a reference host speed (see
hostspeed.py); raw times are kept in the info record.  The last line of
standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; lines before it starting
with ``#`` carry the environment, sample counts and the self-time breakdown.
Results and spans are also written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

# nproc is counted before pinning.  Run as a script, the benchmark then pins
# itself to one core before numpy is imported, so that numpy's BLAS threads,
# the pool threads and the child processes inherit the one-core mask: the cores
# of a shared host are not equally fast at the same moment, and the host-speed
# kernel must time the core the work runs on.  decay_cpmg keeps nproc threads.
NPROC = len(os.sched_getaffinity(0))
if __name__ == "__main__":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9
RSS_REPEATS = 3
OUT_ROOT = ".perfbench"

# a fresh interpreter imports spindd and validates the workload's first config
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from spindd import cli, config; "
    "config.validate(config.load_config(sys.argv[2]))"
)

# a fresh interpreter runs the workload's pipeline once (see peak_rss_child)
RSS_CODE = (
    "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
    "import run; sys.exit(run.peak_rss_child(*sys.argv[3:]))"
)

# per-layer metrics and units, in report order
LAYER_METRICS = (
    ("field.rng_generator.calls", "count"),
    ("field.rng_generator.s", "s"),
    ("field.rng_generator.us_per_call", "us"),
    ("field.segment_phases.calls", "count"),
    ("field.segment_phases.s", "s"),
    ("field.segment_phases.self_s", "s"),
    ("field.normals_drawn", "count.computed"),
    ("field.ou_chi.calls", "count"),
    ("field.ou_chi.s", "s"),
    ("sequence.toggling.calls", "count"),
    ("sequence.toggling.s", "s"),
    ("evolve.coherence_curve.s", "s"),
    ("evolve.coherence_curve.self_s", "s"),
    ("evolve.spin_lock_curve.s", "s"),
    ("evolve.spin_lock_curve.self_s", "s"),
    ("evolve.pulse_error_curve.s", "s"),
    ("evolve.pulse_error_curve.self_s", "s"),
    ("fit.fit_decay.calls", "count"),
    ("fit.fit_decay.s", "s"),
    ("fit.converged_frac", "fraction"),
    ("fit.fit_power_law.s", "s"),
    ("taylor.suppression_table.s", "s"),
    ("taylor.cpmg_factor.calls", "count"),
    ("sense.sensitivity_scan.s", "s"),
    ("config.validate.s", "s"),
    ("cli.run.s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
)


def environment(root, workload, seed, trace):
    import numpy
    import spindd

    digest = hashlib.sha256()
    src = os.path.join(root, "src", "spindd")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": NPROC,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "spindd": spindd.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def measure_setup(root, config_path, speed):
    """Median wall time of fresh interpreters importing spindd and validating:
    (host-speed corrected, raw, error message or None)."""
    samples, raw = [], []
    src = os.path.join(root, "src")
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, src, config_path],
            capture_output=True, text=True, timeout=120,
        )
        raw.append(time.perf_counter() - start)
        samples.append(raw[-1] * speed.factor())
        if proc.returncode != 0:
            return None, None, f"setup interpreter failed: {proc.stderr.strip()[-500:]}"
    return statistics.median(samples), statistics.median(raw), None


def peak_rss_child(work_dir, name, seed, threads, sizes_json):
    """Run the pipeline once in this process; print its peak RSS in KiB.

    The peak is VmHWM, the high-water mark of this process's own memory map.
    ``ru_maxrss`` would not do: Linux carries the parent's peak over into a
    child started by vfork and exec, so the benchmark's own peak would hide
    the workload's."""
    workload = workloads.build(name, int(seed), work_dir, int(threads), json.loads(sizes_json))
    errors = [err for _, err in (run_step(step) for step in workload.steps) if err]
    with open("/proc/self/status") as fh:
        print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
    for err in errors:
        print(err, file=sys.stderr)
    return 1 if errors else 0


def measure_peak_rss(root, workload):
    """Median peak RSS (MB) of fresh processes that each run the pipeline once."""
    samples = []
    for i in range(RSS_REPEATS):
        work = os.path.join(os.path.dirname(workload.steps[0].config_path), f"rss{i}")
        os.makedirs(work, exist_ok=True)
        proc = subprocess.run(
            [sys.executable, "-c", RSS_CODE, HERE, os.path.join(root, "src"), work,
             workload.name, str(workload.seed), str(max(s.threads for s in workload.steps)),
             json.dumps({workload.name: workload.sizes})],
            capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            return None, f"peak-RSS process failed: {proc.stderr.strip()[-500:]}"
        samples.append(int(proc.stdout.strip().splitlines()[-1]) / 1024.0)
    return statistics.median(samples), None


def run_step(step, threads=None, out_dir=None):
    """One CLI call; returns (elapsed seconds, error message or None)."""
    from spindd import cli

    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code, _ = cli.run(
                step.config_path,
                out_dir=out_dir or step.out_dir,
                threads=step.threads if threads is None else threads,
                expected_experiment=step.experiment,
            )
    except Exception as exc:  # a traceback is a failed operation, not a crash
        return time.perf_counter() - start, f"{step.name}: raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if code != 0:
        return elapsed, f"{step.name}: exit code {code}: {sink.getvalue().strip()[-500:]}"
    return elapsed, None


class Runner:
    """Runs pipelines of one workload and counts attempted and failed operations."""

    def __init__(self, workload):
        self.workload = workload
        self.gate = workloads.Gate(workload)
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.golden = {}

    def record(self, messages):
        self.attempted += 1
        if messages:
            self.failed += 1
            self.errors.extend(messages)

    def run_gate(self):
        """Untimed, untraced pipeline: full checks, then keeps its artifacts."""
        for step in self.workload.steps:
            _, err = run_step(step)
            messages = [err] if err else self.gate.check(step)
            self.record(messages)
            if not messages:
                with open(self.gate.artifact(step), "rb") as fh:
                    self.golden[step.name] = fh.read()
        if self.workload.name == "decay_cpmg":
            self._check_thread_count()

    def _check_thread_count(self):
        """A gate-only CPMG decay over several reduction chunks must match the
        analytic decay and be byte-identical at 1 and at nproc (>= 2) threads."""
        decay = self.workload.steps[0]
        step = workloads.thread_check_step(os.path.dirname(decay.config_path), self.workload.seed)
        curves = []
        for threads in (1, max(decay.threads, 2)):
            out = f"{step.out_dir}_threads{threads}"
            _, err = run_step(step, threads=threads, out_dir=out)
            if err:
                self.record([err])
                return
            curves.append(os.path.join(out, "curve.csv"))
        self.record(
            workloads.check_decay_curve(curves[0], workloads.expected_decay(step))
            + workloads.check_same_bytes(*curves)
        )

    def run_timed(self):
        """One pipeline; returns (wall seconds, {step: seconds})."""
        times, errors = {}, {}
        start = time.perf_counter()
        for step in self.workload.steps:
            times[step.name], errors[step.name] = run_step(step)
        wall = time.perf_counter() - start
        for step in self.workload.steps:
            if errors[step.name]:
                self.record([errors[step.name]])
                continue
            with open(self.gate.artifact(step), "rb") as fh:
                same = fh.read() == self.golden.get(step.name)
            self.record([] if same else [f"{step.name}: output differs from the gated run"])
        return wall, times


def percentile(samples, pct):
    """Linearly interpolated ``pct``-th percentile of the samples."""
    ordered = sorted(samples)
    pos = pct / 100.0 * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(runner, seconds, root):
    """Timed pipelines for ``seconds``, then set-up time and peak memory.

    Times are corrected to the reference host speed (see hostspeed); the raw
    values go to the info record."""
    workload = runner.workload
    speed = hostspeed.HostSpeed()
    raw, walls, rates = [], [], []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        wall, times = runner.run_timed()
        factor = speed.factor()
        raw.append(wall)
        walls.append(wall * factor)
        busy = sum(times[s] for s in workload.throughput_steps)
        rates.append(workload.items / (busy * factor))
    setup, raw_setup, err = measure_setup(root, workload.steps[0].config_path, speed)
    runner.record([err] if err else [])
    rss_mb, err = measure_peak_rss(root, workload)
    runner.record([err] if err else [])
    tail_pct = workloads.TAIL_PERCENTILE[workload.name]
    n = len(walls)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "wall_s_tail": (percentile(walls, tail_pct), "s"),
        "items_per_s": (statistics.median(rates), "1/s"),
        "setup_s": (setup or 0.0, "s"),
        "peak_rss_mb": (rss_mb or 0.0, "MB"),
    }
    info = {
        "samples": n,
        "wall_s_tail_percentile": tail_pct,
        # the highest percentile with at least ten samples beyond it
        "max_tail_percentile": round(100.0 * (n - 10) / n, 1) if n > 10 else None,
        "items_per_pipeline": workload.items,
        "raw_wall_s": statistics.median(raw),
        "raw_wall_s_tail": percentile(raw, tail_pct),
        "raw_setup_s": raw_setup,
        "kernel_s": statistics.median(speed.kernel_s),
        "wall_s_samples": walls,
        "raw_wall_s_samples": raw,
    }
    return metrics, info


def per_layer(runner, seconds, trace_path):
    """Alternate untraced and traced pipelines; per-layer medians over traced ones."""
    tracer = spans.Tracer()
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    run_id = 0
    while not traced or time.perf_counter() < deadline:
        plain.append(runner.run_timed()[0])
        run_id += 1
        with tracer.patched(run_id):
            traced.append(runner.run_timed()[0])
    totals = [t for _, t in sorted(spans.per_run_totals(tracer).items())]
    tracer.write(trace_path)
    # an untraced target would read 0 and look like a gain on its layer
    for module_name, attr in tracer.missing:
        runner.record([f"trace: {module_name}.{attr} not found; its layer is not measured"])

    def med(key):
        return statistics.median(t.get(key, 0) for t in totals)

    def per_call_us(t):
        calls = t.get("field.rng_generator.calls", 0)
        return 1e6 * t.get("field.rng_generator.s", 0.0) / calls if calls else 0.0

    fits = sum(t.get("fit.fit_decay.calls", 0) for t in totals)
    derived = {
        "field.rng_generator.us_per_call": statistics.median(per_call_us(t) for t in totals),
        "field.normals_drawn": med("field.segment_phases.normals"),
        # no fit attempted counts as nothing failing to converge
        "fit.converged_frac": (
            sum(t.get("fit.fit_decay.converged", 0) for t in totals) / fits if fits else 1.0
        ),
        "cli.self_s": med("cli.run.self_s"),
        "trace.overhead_s": statistics.median(traced) - statistics.median(plain),
    }
    metrics = {
        name: (derived[name] if name in derived else med(name), unit)
        for name, unit in LAYER_METRICS
    }
    names = sorted({k[: -len(".self_s")] for t in totals for k in t if k.endswith(".self_s")})
    self_s = {n: med(f"{n}.self_s") for n in names}
    layers = {}
    for n, v in self_s.items():
        layers[n.split(".")[0]] = layers.get(n.split(".")[0], 0.0) + v

    def shares(d):
        total = sum(d.values()) or 1.0
        return {n: round(v / total, 4) for n, v in sorted(d.items(), key=lambda kv: -kv[1])}

    info = {
        "traced_pipelines": len(traced),
        "untraced_pipelines": len(plain),
        "largest_layer": max(layers, key=layers.get) if layers else None,
        "layer_self_s_share": shares(layers),
        "span_self_s_share": shares(self_s),
        "untraced_wall_s": statistics.median(plain),
        "traced_wall_s": statistics.median(traced),
        "not_traced": [f"{m}.{a}" for m, a in tracer.missing],
        "spans_file": trace_path,
    }
    return metrics, info


def run_benchmark(workload_name, seed, seconds, trace, root="."):
    """Run one workload; returns (result dict, info dict)."""
    root = os.path.abspath(root)
    out_root = os.path.join(root, OUT_ROOT)
    tag = f"{workload_name}-seed{seed}-trace{trace}-{os.getpid()}"
    work_dir = os.path.join(out_root, "work", tag)
    os.makedirs(work_dir, exist_ok=True)
    try:
        workload = workloads.build(workload_name, seed, work_dir, NPROC)
        runner = Runner(workload)
        runner.run_gate()
        if trace:
            os.makedirs(os.path.join(out_root, "traces"), exist_ok=True)
            metrics, info = per_layer(
                runner, seconds, os.path.join(out_root, "traces", f"{tag}.jsonl.gz"))
        else:
            metrics, info = end_to_end(runner, seconds, root)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    info = dict(info, fail_frac=runner.failed / runner.attempted, errors=runner.errors[:20],
                env=environment(root, workload_name, seed, trace))
    os.makedirs(os.path.join(out_root, "results"), exist_ok=True)
    with open(os.path.join(out_root, "results", f"{tag}.json"), "w") as fh:
        json.dump({"result": result, "info": info}, fh, indent=2)
    return result, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64 or args.seconds <= 0:
        parser.error("--seed must fit in 64 unsigned bits and --seconds must be > 0")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "spindd", "__init__.py")):
        print("perfbench: no src/spindd here; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    result, info = run_benchmark(args.workload, args.seed, args.seconds, args.trace, root)
    for key in ("env", "errors"):
        print(f"# {key} {json.dumps(info[key])}")
    shown = {k: v for k, v in info.items()
             if k not in ("env", "errors") and not k.endswith("_samples")}
    print("# info " + json.dumps(shown))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

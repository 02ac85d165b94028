"""Workload definitions and the correctness gate of the spindd benchmark.

A workload is a fixed pipeline of CLI steps (``spindd.cli.run`` calls).  Its
configs are generated from the benchmark seed: the seed becomes the Monte
Carlo ``seed`` of every stochastic step and picks the suppression-table
entries that the gate samples.  Sizes never depend on the seed, so timings of
different seeds are comparable.

Why each workload exists:

* ``decay_cpmg``: 91 toggling segments per trajectory make the per-segment OU
  loop in ``segment_phases`` a large share next to RNG construction; it is
  the one workload on the threaded ``coherence_curve`` path (``nproc``
  threads).
* ``decay_hahn``: 2 segments and many trajectories, so per-trajectory
  ``RngSpec.generator`` construction dominates.
* ``bloch``: the adaptive-RK4 spin-lock integrator, plus the rotation
  composition of ``pulse_error_curve``; almost no RNG time.  The spin lock
  runs at 60 kHz Rabi, not the preset's 40 kHz: the step cap makes the RK4
  error of a step about the same at any Rabi frequency, and at 40 kHz it sits
  so close to the tolerance that a seed drawing one large field makes the
  integrator halve steps, so the work of a pipeline varied by up to 37 %
  between seeds.  At 60 kHz none of 20 seeds tried halved a step.
* ``analysis``: no Monte Carlo.  Exact ``Fraction`` suppression tables,
  ``ou_chi`` and the power-law fit do the work; RNG and Bloch changes must
  leave it unchanged.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# bulk_cvd preset bath (spindd.config.PRESETS), restated so that the gate's
# expectations do not come from the code under test
BULK_SIGMA_B = 59.22345e-9  # T
BULK_TAU_C = 25e-6  # s
BULK_T1 = 5.93e-3  # s

# acceptance-6 windows for the fitted T2 and acceptance-8 sensitivity values
HAHN_T2, HAHN_T2_REL_TOL = 0.39e-3, 0.15
CPMG_T2_WINDOW = (1.5e-3, 3.5e-3)
HAHN_K, HAHN_K_TOL = 19.4, 0.1  # nT/sqrt(Hz)
HAHN_OVER_CPMG_K = (1.5, 2.2)

#: allowed |measured - expected| in combined standard errors
Z_TOL = 5.0
#: suppression-table entries checked against the exact oracle per run
SUPPRESSION_SAMPLES = 24

DEFAULT_SIZES = {
    "decay_cpmg": {"shots": 1500},
    "decay_hahn": {"shots": 2000},
    "bloch": {"spinlock_shots": 200, "pulse_shots": 200},
    "analysis": {"n_max": 256, "k_max": 12},
}

WORKLOADS = tuple(DEFAULT_SIZES)

#: percentile reported as wall_s_tail: the highest one with ten samples beyond
#: it at the seed commit's sample count in a 20 s run, fixed so that a faster
#: or slower program is compared at the same percentile
TAIL_PERCENTILE = {"decay_cpmg": 70, "decay_hahn": 65, "bloch": 65, "analysis": 85}

# Untimed, gate-only CPMG-90 decay for the 1-vs-nproc-thread byte check.  The
# timed decay_cpmg fits in one reduction chunk (spindd.evolve.CHUNK = 4096
# shots); this one spans three, so the order of the cross-chunk reduction and
# the pool's worker count both reach the output.  A reordered sum changes the
# last bits of a given point only for some seeds; six points make every seed
# tried catch each order other than swapping the two full chunks.
THREAD_CHECK_SHOTS = 2 * 4096 + 1
THREAD_CHECK_TIMES = {"start": "0.5 ms", "stop": "3 ms", "count": 6}

# time grids are part of each workload's identity; spin-lock and pulse-error
# grids must match reference.json
CPMG_TIMES = {"start": "0.3 ms", "stop": "6 ms", "count": 12}
HAHN_TIMES = {"start": "0.06 ms", "stop": "0.86 ms", "count": 10}
SPINLOCK_TIMES = {"start": "0.02 ms", "stop": "0.16 ms", "count": 8}
SPINLOCK_RABI = "60 kHz"
PULSE_TIMES = {"start": "0.1 ms", "stop": "1 ms", "count": 8}
SENSE_TIMES = {"start": "0.5 s", "stop": "500 s", "count": 12, "spacing": "geometric"}


@dataclass
class Step:
    """One CLI invocation: ``spindd <command> --config <config>``."""

    name: str
    experiment: str  # the experiment the subcommand expects
    config: dict
    threads: int = 1
    items: int = 0  # trajectories x time points (or table entries) produced
    config_path: str = ""
    out_dir: str = ""


@dataclass
class Workload:
    name: str
    seed: int
    steps: list
    # step names whose summed time is the denominator of items_per_s
    throughput_steps: tuple
    sizes: dict = field(default_factory=dict)

    @property
    def items(self) -> int:
        return sum(s.items for s in self.steps if s.name in self.throughput_steps)


def _grid_count(times: dict) -> int:
    return int(times["count"])


def build(name: str, seed: int, work_dir: str, threads: int, sizes=None) -> Workload:
    """Generate the workload's configs under ``work_dir`` and return its steps."""
    if name not in DEFAULT_SIZES:
        raise ValueError(f"unknown workload {name!r}")
    size = dict(DEFAULT_SIZES[name], **((sizes or {}).get(name, {})))
    if name in ("decay_cpmg", "decay_hahn"):
        cpmg = name == "decay_cpmg"
        times = CPMG_TIMES if cpmg else HAHN_TIMES
        decay = Step(
            "decay",
            "decay",
            {
                "experiment": "decay",
                "preset": "bulk_cvd",
                "sequence": {"kind": "cpmg", "n_pulses": 90} if cpmg else {"kind": "hahn"},
                "times": times,
                "shots": size["shots"],
                "seed": seed,
            },
            threads=threads if cpmg else 1,
            items=size["shots"] * _grid_count(times),
        )
        fit = Step("fit", "fit", {"experiment": "fit", "model": "stretched_exp"})
        steps, throughput = [decay, fit], ("decay",)
    elif name == "bloch":
        spin = Step(
            "spinlock",
            "spinlock",
            {
                "experiment": "spinlock",
                "preset": "bulk_cvd",
                "rabi_frequency": SPINLOCK_RABI,
                "times": SPINLOCK_TIMES,
                "shots": size["spinlock_shots"],
                "seed": seed,
            },
            items=size["spinlock_shots"] * _grid_count(SPINLOCK_TIMES),
        )
        steps = [spin]
        for conv in ("cpmg", "cp"):
            steps.append(
                Step(
                    f"pulse_error_{conv}",
                    "pulse_error",
                    {
                        "experiment": "pulse_error",
                        "preset": "bulk_cvd",
                        "n_pulses": 50,
                        "flip_angle_error": 0.05,
                        "phase_convention": conv,
                        "times": PULSE_TIMES,
                        "shots": size["pulse_shots"],
                        "seed": seed,
                    },
                    items=size["pulse_shots"] * _grid_count(PULSE_TIMES),
                )
            )
        throughput = tuple(s.name for s in steps)
    else:
        n_max, k_max = size["n_max"], size["k_max"]
        steps = [
            Step(
                "suppression",
                "suppression_table",
                {"experiment": "suppression_table", "n_max": n_max, "k_max": k_max},
                items=n_max * (k_max + 1),
            )
        ]
        for label, seq, tau in (("hahn", {"kind": "hahn"}, "115 us"),
                                ("cpmg", {"kind": "cpmg", "n_pulses": 10}, "27 us")):
            steps.append(
                Step(
                    f"sense_{label}",
                    "sense",
                    {
                        "experiment": "sense",
                        "preset": "bulk_cvd",
                        "sequence": seq,
                        "sequence_tau": tau,
                        "times": SENSE_TIMES,
                        "envelope": "auto",
                        "seed": seed,
                    },
                    items=_grid_count(SENSE_TIMES),
                )
            )
        throughput = tuple(s.name for s in steps)

    for step in steps:
        step.out_dir = os.path.join(work_dir, step.name)
        step.config_path = os.path.join(work_dir, f"{step.name}.json")
        if step.experiment == "fit":
            step.config["input_csv"] = os.path.join(work_dir, "decay", "curve.csv")
    os.makedirs(work_dir, exist_ok=True)
    for step in steps:
        with open(step.config_path, "w") as fh:
            json.dump(step.config, fh, indent=2, sort_keys=True)
    return Workload(name, seed, steps, throughput, size)


def thread_check_step(work_dir: str, seed: int) -> Step:
    """The gate-only CPMG decay of the thread-count check, its config written."""
    step = Step(
        "thread_check",
        "decay",
        {
            "experiment": "decay",
            "preset": "bulk_cvd",
            "sequence": {"kind": "cpmg", "n_pulses": 90},
            "times": THREAD_CHECK_TIMES,
            "shots": THREAD_CHECK_SHOTS,
            "seed": seed,
        },
        config_path=os.path.join(work_dir, "thread_check.json"),
        out_dir=os.path.join(work_dir, "thread_check"),
    )
    with open(step.config_path, "w") as fh:
        json.dump(step.config, fh, indent=2, sort_keys=True)
    return step


# ---------------------------------------------------------------------------
# Correctness gate.  Each check returns a list of failure messages; an empty
# list means the output is correct.
# ---------------------------------------------------------------------------


def read_curve(path):
    """(times, signal, std_error) columns of a curve.csv."""
    times, signal, err = [], [], []
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        idx = [header.index(c) for c in ("total_time_s", "signal", "std_error")]
        for line in fh:
            cols = line.strip().split(",")
            times.append(float(cols[idx[0]]))
            signal.append(float(cols[idx[1]]))
            err.append(float(cols[idx[2]]))
    return times, signal, err


def expected_decay(step: Step):
    """Analytic exp(-ou_chi/2 - T/T1) on the step's time grid."""
    from spindd import config as cfgmod, sequence as sq
    from spindd.field import ou_chi

    seq = step.config["sequence"]
    times = cfgmod.parse_times(step.config["times"])
    out = []
    for T in times:
        s = sq.cpmg(seq["n_pulses"], T) if seq["kind"] == "cpmg" else sq.hahn(T)
        chi = ou_chi(sq.toggling(s), BULK_SIGMA_B, BULK_TAU_C)
        out.append(math.exp(-0.5 * chi - T / BULK_T1))
    return [float(t) for t in times], out


def check_decay_curve(path, expected) -> list:
    """Every point within Z_TOL standard errors of the analytic decay."""
    exp_times, exp_signal = expected
    try:
        times, signal, err = read_curve(path)
    except (OSError, ValueError) as exc:
        return [f"unreadable curve {path}: {exc}"]
    if len(times) != len(exp_times) or any(
        abs(a - b) > 1e-15 * max(abs(b), 1.0) for a, b in zip(times, exp_times)
    ):
        return [f"{path}: time grid differs from the config"]
    bad = []
    for t, s, e, want in zip(times, signal, err, exp_signal):
        if not abs(s - want) <= Z_TOL * e + 1e-12:
            bad.append(f"{path}: T={t:.4g} s signal {s:.5f} vs analytic {want:.5f} (se {e:.2g})")
    return bad


def check_same_bytes(path_a, path_b) -> list:
    try:
        with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
            same = fa.read() == fb.read()
    except OSError as exc:
        return [f"cannot compare {path_a} and {path_b}: {exc}"]
    return [] if same else [f"{path_a} and {path_b} differ"]


def check_fit(path, workload_name) -> list:
    try:
        with open(path) as fh:
            fit = json.load(fh)
        t2 = float(fit["params"]["decay_time"])
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable fit {path}: {exc}"]
    if not fit.get("converged", False):
        return [f"{path}: fit did not converge"]
    if workload_name == "decay_hahn":
        ok = abs(t2 - HAHN_T2) <= HAHN_T2_REL_TOL * HAHN_T2
    else:
        ok = CPMG_T2_WINDOW[0] <= t2 <= CPMG_T2_WINDOW[1]
    return [] if ok else [f"{path}: fitted T2 {t2 * 1e3:.3f} ms outside the acceptance window"]


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)["curves"]


def check_against_reference(path, ref) -> list:
    """Curve agrees with the stored seed-commit curve within combined errors."""
    try:
        times, signal, err = read_curve(path)
    except (OSError, ValueError) as exc:
        return [f"unreadable curve {path}: {exc}"]
    if len(times) != len(ref["times"]) or any(
        abs(a - b) > 1e-15 * max(abs(b), 1.0) for a, b in zip(times, ref["times"])
    ):
        return [f"{path}: time grid differs from the reference"]
    bad = []
    for t, s, e, rs, re_ in zip(times, signal, err, ref["signal"], ref["std_error"]):
        if not abs(s - rs) <= Z_TOL * math.hypot(e, re_) + 1e-9:
            bad.append(f"{path}: T={t:.4g} s signal {s:.5f} vs reference {rs:.5f}")
    return bad


def check_suppression(path, n_max, k_max, seed) -> list:
    """Row count, plus seed-chosen entries equal to the brute-force oracle."""
    from spindd.taylor import oracle_factor

    try:
        with open(path) as fh:
            rows = fh.read().strip().splitlines()[1:]
    except OSError as exc:
        return [f"unreadable table {path}: {exc}"]
    if len(rows) != n_max * (k_max + 1):
        return [f"{path}: {len(rows)} rows, expected {n_max * (k_max + 1)}"]
    pick = random.Random(seed)
    chosen = {len(rows) - 1} | {pick.randrange(len(rows)) for _ in range(SUPPRESSION_SAMPLES)}
    bad = []
    for i in sorted(chosen):
        n, k, num, den, flt = rows[i].split(",")
        n, k = int(n), int(k)
        pattern = [Fraction(2 * j - 1, 2 * n) for j in range(1, n + 1)]
        want = oracle_factor(pattern, k)
        got = Fraction(int(num), int(den))
        if got != want or float(flt) != float(want):
            bad.append(f"{path}: entry n={n} k={k} is {got}, oracle {want}")
    return bad


def check_sense(path, label) -> list:
    try:
        with open(path) as fh:
            k = float(json.load(fh)["k_nT_per_sqrt_Hz"])
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable report {path}: {exc}"]
    if label == "sense_hahn":
        lo, hi = HAHN_K - HAHN_K_TOL, HAHN_K + HAHN_K_TOL
    else:
        lo, hi = HAHN_K / HAHN_OVER_CPMG_K[1], HAHN_K / HAHN_OVER_CPMG_K[0]
    return [] if lo <= k <= hi else [f"{path}: k = {k:.3f} nT/sqrt(Hz) outside [{lo:.2f}, {hi:.2f}]"]


class Gate:
    """Checks a workload's step outputs; built once per run, untraced."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self._expected = {}
        self._reference = None
        for step in workload.steps:
            if step.experiment == "decay":
                self._expected[step.name] = expected_decay(step)
            elif step.experiment in ("spinlock", "pulse_error") and self._reference is None:
                self._reference = load_reference()

    def artifact(self, step: Step) -> str:
        name = {
            "decay": "curve.csv",
            "spinlock": "curve.csv",
            "pulse_error": "curve.csv",
            "fit": "fit.json",
            "suppression_table": "suppression.csv",
            "sense": "report.json",
        }[step.experiment]
        return os.path.join(step.out_dir, name)

    def check(self, step: Step) -> list:
        path = self.artifact(step)
        if step.experiment == "decay":
            return check_decay_curve(path, self._expected[step.name])
        if step.experiment == "fit":
            return check_fit(path, self.workload.name)
        if step.experiment in ("spinlock", "pulse_error"):
            return check_against_reference(path, self._reference[step.name])
        if step.experiment == "suppression_table":
            size = self.workload.sizes
            return check_suppression(path, size["n_max"], size["k_max"], self.workload.seed)
        return check_sense(path, step.name)

"""Regenerate reference.json: the spin-lock and pulse-error curves the gate
compares against, from the package sources under ``src/``.

    python3 perfbench/make_reference.py

Run from the repository root.  The curves use the benchmark's own grids with
a fixed seed and ten times the benchmark's shots, so that the combined
standard error is dominated by the benchmark run.  Regenerate only from a
commit whose Bloch and pulse-error results are trusted.
"""

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

REFERENCE_SEED = 1008_1953
SHOT_FACTOR = 10


def main():
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    size = workloads.DEFAULT_SIZES["bloch"]
    sizes = {"bloch": {k: v * SHOT_FACTOR for k, v in size.items()}}
    work = tempfile.mkdtemp(prefix="perfbench-ref-", dir=root)
    try:
        wl = workloads.build("bloch", REFERENCE_SEED, work, 1, sizes)
        curves = {}
        for step in wl.steps:
            _, err = run.run_step(step)
            if err:
                raise SystemExit(err)
            times, signal, std_error = workloads.read_curve(os.path.join(step.out_dir, "curve.csv"))
            curves[step.name] = {"config": step.config, "times": times,
                                 "signal": signal, "std_error": std_error}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env = run.environment(root, "bloch", REFERENCE_SEED, 0)
    out = {"generated_by": {k: env[k] for k in ("spindd", "numpy", "python", "src_sha256")},
           "curves": curves}
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

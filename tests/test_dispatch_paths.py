"""Byte identity holds within one numpy dispatch path: numpy picks SIMD kernels
at run time, and with its AVX-512 targets off its tan, exp, log, expm1 and
power give other bits.  Across paths the curves and fits agree to rounding,
which this checks in child interpreters."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
from numpy._core import _multiarray_umath

import spindd

# a small decay with its fit at seeds 1-20, a spin lock and a pulse-error
# train, printed as JSON
_RUNS = """
import json
from numpy._core import _multiarray_umath as umath
from spindd import config, fit

def spec(seed=5, **cfg):
    return config.validate(dict(cfg, preset="bulk_cvd", seed=seed))["spec"]

lock = spec(experiment="spinlock", rabi_frequency="60 kHz", shots=100,
            times={"start": "0.02 ms", "stop": "0.16 ms", "count": 4})
train = spec(experiment="pulse_error", n_pulses=8, flip_angle_error=0.05, shots=100,
             times={"start": "0.1 ms", "stop": "1 ms", "count": 4})
runs = [(f"decay_{seed}", spec(seed, experiment="decay", sequence={"kind": "hahn"}, shots=400,
                               times={"start": "50 us", "stop": "800 us", "count": 8}))
        for seed in range(1, 21)]
out = {"active": [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__[t]]}
for name, run in runs + [("spinlock", lock), ("pulse_error", train)]:
    c = run.curve()
    out[name] = {"signal": c.signal.tolist(), "std_error": c.std_error.tolist()}
    if name.startswith("decay"):
        out[name]["fit"] = fit.fit_decay((c.times, c.signal, c.std_error)).params
print(json.dumps(out))
"""


def _avx512_targets():
    """numpy's AVX-512 dispatch targets that this host enables."""
    enabled = {k for k, on in _multiarray_umath.__cpu_features__.items() if on}
    return [t for t in _multiarray_umath.__cpu_dispatch__
            if t in enabled and (t.startswith("AVX512") or t == "X86_V4")]


def _run(disabled):
    src = str(pathlib.Path(spindd.__file__).resolve().parents[1])
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(disabled),
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _RUNS], env=env, check=True,
                          capture_output=True, text=True)
    return json.loads(proc.stdout)


def test_runs_agree_to_rounding_without_avx512():
    """The same runs at default dispatch and with the host's AVX-512 targets
    off agree within 1e-13 in signal and std_error and 1e-12 relative in the
    decay's fit at every seed (the benchmark's workloads moved by at most
    4.4e-16 and their fits by at most 9.2e-16).  The fit must stop at the
    optimum's rounding floor: a fit stopped about 1e-9 relative short of it,
    at a point numpy's exp and power set, moved by 2.7e-9 at seed 15.  On a
    host without AVX-512 targets both children take the same path, so this
    compares a path with itself."""
    targets = _avx512_targets()
    default, other = _run([]), _run(targets)
    assert set(targets) <= set(default["active"]) and not set(targets) & set(other["active"])
    names = [f"decay_{seed}" for seed in range(1, 21)] + ["spinlock", "pulse_error"]
    for name in names:
        for column in ("signal", "std_error"):
            a, b = np.array(default[name][column]), np.array(other[name][column])
            assert a.shape == b.shape and np.all(np.isfinite(a))
            assert np.max(np.abs(a - b)) <= 1e-13, (name, column)
        if name.startswith("decay"):
            fits = default[name]["fit"], other[name]["fit"]
            assert fits[0].keys() == fits[1].keys()
            for key, value in fits[0].items():
                assert abs(fits[1][key] - value) <= 1e-12 * abs(value), (name, key)

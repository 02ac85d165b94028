"""Acceptance gate: one test per shipped criterion, each printing a PASS/FAIL
line that survives output capture.

These are end-to-end checks with pinned tolerances; the narrower dual-route
unit tests live in the per-module files.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import brentq

import spindd.sequence as sq
from spindd import cli, evolve, fit, sense, taylor
from spindd.config import SENSE_READOUT
from spindd.field import (
    GAMMA_E,
    FieldModel,
    NVParameters,
    OrnsteinUhlenbeck,
    QuasiStaticGaussian,
    RngSpec,
    ou_chi,
)
from conftest import ou_chi_quadrature, toggled_sine_quadrature

BULK_SIGMA, BULK_TAU_C, BULK_T1 = 59.22345e-9, 25e-6, 5.93e-3
ND_SIGMA, ND_TAU_C, ND_T1 = 27.41869e-6, 20e-9, 100e-6


def _report(capsys, num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    with capsys.disabled():
        print(line)
    assert ok, line


def _chi_exponent(family, sigma_b, tau_c, t1=math.inf):
    _, make, _ = family
    return lambda T: 0.5 * ou_chi(sq.toggling(make(T)), sigma_b, tau_c) + T / t1


def _decay_grid(exponent, npts=10):
    """Time grid bracketing the 1/e point of a monotone decay exponent."""
    hi = 1e-9
    while exponent(hi) < 1.0:
        hi *= 2.0
    te = brentq(lambda T: exponent(T) - 1.0, hi / 2.0, hi, xtol=1e-18)
    return np.linspace(0.15 * te, 2.2 * te, npts)


def test_criterion_01_suppression_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 33):
        pattern = [Fraction(2 * j - 1, 2 * n) for j in range(1, n + 1)]
        for k in range(0, 9):
            exact = taylor.cpmg_factor(n, k)
            oracle = taylor.oracle_factor(pattern, k)
            ok &= isinstance(exact, Fraction) and exact == oracle
            if oracle != 0:
                ok &= abs(float(exact) - float(oracle)) <= 1e-12 * abs(float(oracle))
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _report(capsys, 1, "suppression-factor oracle equivalence", ok,
            f"{elapsed:.2f} s")


def test_criterion_02_static_refocusing(capsys):
    ok = all(taylor.cpmg_factor(n, 0) == 0 for n in range(1, 33))
    ok &= all(
        abs(taylor.cpmg_factor(1, k)) == 1 - Fraction(1, 2**k)
        for k in range(0, 13)
    )
    _report(capsys, 2, "static refocusing and Hahn magnitude identity", ok)


def test_criterion_03_quasi_static_gaussian_law(capsys):
    t0 = time.perf_counter()
    sigma_b = 1e-7
    model = FieldModel.of(QuasiStaticGaussian(sigma_b=sigma_b))
    nv = NVParameters(t1=math.inf)
    ts = np.linspace(1e-5, 1.4e-4, 10)
    fid = evolve.coherence_curve(model, evolve.fid_family(), ts, shots=100_000,
                                 rng=RngSpec(100), nv=nv, apply_t1=False)
    expected = np.exp(-0.5 * (GAMMA_E * sigma_b * ts) ** 2)
    ok = bool(np.all(np.abs(fid.signal - expected) <= 3 * fid.std_error + 1e-12))
    hahn = evolve.coherence_curve(model, evolve.hahn_family(), ts, shots=100,
                                  rng=RngSpec(100), nv=nv, apply_t1=False)
    ok &= bool(np.all(hahn.signal == 1.0))
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    _report(capsys, 3, "quasi-static FID Gaussian law + exact Hahn refocusing",
            ok, f"{elapsed:.1f} s")


def test_criterion_04_ou_hahn_vs_double_integral(capsys):
    t0 = time.perf_counter()
    tau_c = 1e-3
    sigma_b = 1.0 / (GAMMA_E * tau_c)
    model = FieldModel.of(OrnsteinUhlenbeck(sigma_b=sigma_b, tau_c=tau_c))
    nv = NVParameters(t1=math.inf)
    taus = np.array([0.1, 0.3, 0.7, 1.3, 2.0, 3.0]) * tau_c
    curve = evolve.coherence_curve(model, evolve.hahn_family(), 2 * taus,
                                   shots=100_000, rng=RngSpec(200), nv=nv,
                                   apply_t1=False)
    worst = 0.0
    for tau, got in zip(taus, curve.signal):
        chi = ou_chi_quadrature(sq.toggling(sq.hahn(2 * tau)), sigma_b, tau_c)
        worst = max(worst, abs(got - math.exp(-0.5 * chi)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.02 and elapsed < 120.0
    _report(capsys, 4, "OU Hahn decay vs brute-force double integral", ok,
            f"max |err| {worst:.4f}, {elapsed:.1f} s")


def test_criterion_05_cpmg_scaling_exponent(capsys):
    tau_c = 1.0
    sigma_b = 1e4 / GAMMA_E
    comp = OrnsteinUhlenbeck(sigma_b=sigma_b, tau_c=tau_c)
    model = FieldModel.of(comp)
    nv = NVParameters(t1=math.inf)
    ns = [1, 2, 4, 8, 16, 32]
    t2s = []
    for n in ns:
        fam = evolve.cpmg_family(n)
        grid = _decay_grid(_chi_exponent(fam, sigma_b, tau_c))
        curve = evolve.coherence_curve(model, fam, grid, shots=3000,
                                       rng=RngSpec(2024), nv=nv, apply_t1=False)
        t2s.append(fit.fit_decay(curve).params["decay_time"])
    slope = float(np.polyfit(np.log(ns), np.log(t2s), 1)[0])
    ok = abs(slope - 0.67) <= 0.10
    _report(capsys, 5, "CPMG T2(n) scaling exponent ~ n^(2/3)", ok,
            f"slope {slope:.3f}")


def test_criterion_06_t1_ceiling_ordering(capsys):
    comp = OrnsteinUhlenbeck(sigma_b=BULK_SIGMA, tau_c=BULK_TAU_C)
    model = FieldModel.of(comp)
    nv = NVParameters(t1=BULK_T1)

    hahn_fam = evolve.hahn_family()
    grid = _decay_grid(_chi_exponent(hahn_fam, BULK_SIGMA, BULK_TAU_C, BULK_T1))
    hahn = evolve.coherence_curve(model, hahn_fam, grid, shots=20_000,
                                  rng=RngSpec(6), nv=nv)
    t2_hahn = fit.fit_decay(hahn).params["decay_time"]

    cpmg_fam = evolve.cpmg_family(90)
    grid = _decay_grid(_chi_exponent(cpmg_fam, BULK_SIGMA, BULK_TAU_C, BULK_T1))
    cpmg = evolve.coherence_curve(model, cpmg_fam, grid, shots=3000,
                                  rng=RngSpec(6), nv=nv)
    t2_cpmg = fit.fit_decay(cpmg).params["decay_time"]

    lock = evolve.spin_lock_curve(model, 2 * math.pi * 40e3,
                                  np.linspace(0.5e-3, 9e-3, 8), shots=200,
                                  rng=RngSpec(5), nv=nv)
    t1rho = fit.fit_decay(lock, model="exponential").params["decay_time"]

    ok = abs(t2_hahn - 0.39e-3) <= 0.15 * 0.39e-3
    ok &= 1.5e-3 <= t2_cpmg <= 3.5e-3
    ok &= 4 * t2_hahn <= t2_cpmg <= BULK_T1
    ok &= t2_cpmg <= 1.3 * t1rho
    _report(capsys, 6, "T1-ceiling ordering (Hahn / CPMG-90 / spin lock)", ok,
            f"T2 {t2_hahn*1e3:.3f} ms, T2_cpmg {t2_cpmg*1e3:.2f} ms, "
            f"T1rho {t1rho*1e3:.2f} ms")


def test_criterion_07_nanodiamond_improvement_cap(capsys):
    # short-correlated bath: decoupling barely helps before the T1 ceiling,
    # so the best CPMG T2 stays within 3x of the Hahn T2
    def t2_of(fam):
        exponent = _chi_exponent(fam, ND_SIGMA, ND_TAU_C, ND_T1)
        grid = _decay_grid(exponent, npts=14)
        vals = np.exp([-exponent(T) for T in grid])
        return fit.fit_decay((grid, vals)).params["decay_time"]

    t2_hahn = t2_of(evolve.hahn_family())
    improvements = [t2_of(evolve.cpmg_family(n)) / t2_hahn
                    for n in (2, 5, 10, 30, 90)]
    best = max(improvements)
    ok = abs(t2_hahn - 2.1e-6) <= 0.2 * 2.1e-6
    ok &= 1.0 < best <= 3.0
    _report(capsys, 7, "nanodiamond CPMG improvement saturates <= 3x", ok,
            f"T2_hahn {t2_hahn*1e6:.2f} us, best {best:.2f}x")


def test_criterion_08_magnetometry_sensitivity(capsys):
    t0 = time.perf_counter()
    readout = sense.ReadoutModel(
        photons_per_shot=SENSE_READOUT.photons_per_shot,
        contrast=SENSE_READOUT.contrast,
        overhead=2e-6,
    )
    nv = NVParameters(t1=BULK_T1)
    ts = np.geomspace(0.5, 500, 12)

    def envelope(seq):
        chi = ou_chi(sq.toggling(seq), BULK_SIGMA, BULK_TAU_C)
        return math.exp(-0.5 * chi - seq.total_time / BULK_T1)

    hahn = sq.hahn(2 * 115e-6)
    res_h = sense.sensitivity_scan(hahn, readout, ts, nv=nv,
                                   envelope=envelope(hahn))
    cpmg = sq.cpmg(10, 2 * 10 * 27e-6)
    res_c = sense.sensitivity_scan(cpmg, readout, ts, nv=nv,
                                   envelope=envelope(cpmg))

    free = fit.fit_power_law((res_h.times, res_h.delta_b_min))
    k_h, k_c = res_h.k_nt_per_sqrt_hz, res_c.k_nt_per_sqrt_hz
    elapsed = time.perf_counter() - t0
    ok = abs(free.params["exponent"] + 0.5) <= 1e-9
    ok &= abs(k_h - 19.4) <= 0.1
    ok &= 1.5 <= k_h / k_c <= 2.2
    ok &= elapsed < 120.0
    _report(capsys, 8, "shot-noise sensitivity k/sqrt(t)", ok,
            f"k_hahn {k_h:.3f} nT/sqrt(Hz), ratio {k_h/k_c:.2f}, {elapsed:.1f} s")


def test_criterion_09_phase_response_closed_forms(capsys):
    b = 1e-7
    ok = True
    tau = 115e-6
    seq = sq.hahn(2 * tau)
    phi = sense.phase_response(seq, sense.matched_ac(seq, b))
    ok &= abs(phi - 4 * GAMMA_E * b * tau / math.pi) <= 1e-10 * abs(phi)
    for n in (1, 2, 7, 16, 64):
        seq = sq.cpmg(n, 2 * n * 27e-6)
        got = sense.phase_response(seq, sense.matched_ac(seq, b))
        want = 4 * n * GAMMA_E * b * 27e-6 / math.pi
        ok &= abs(abs(got) - want) <= 1e-10 * want
        quad = toggled_sine_quadrature(
            sq.toggling(seq), b, sense.matched_ac(seq, b).frequency,
            sense.matched_ac(seq, b).phi0)
        ok &= abs(got - quad) <= 1e-10 * max(abs(quad), 1e-30)
    _report(capsys, 9, "AC phase-response closed forms vs quadrature", ok)


def test_criterion_10_pulse_error_robustness(capsys):
    kw = dict(total_times=[1e-3], shots=100, rng=None,
              nv=NVParameters(t1=math.inf))
    s_cpmg = evolve.pulse_error_curve(None, 50, 0.05, "cpmg", **kw).signal[0]
    s_cp = evolve.pulse_error_curve(None, 50, 0.05, "cp", **kw).signal[0]
    ok = s_cpmg >= 0.9 and (s_cpmg - s_cp) >= 0.2
    _report(capsys, 10, "flip-angle-error robustness of the CPMG phase", ok,
            f"cpmg {s_cpmg:.3f}, cp {s_cp:.3f}")


def test_criterion_11_determinism_across_workers(capsys, tmp_path):
    cfg = {
        "experiment": "decay",
        "preset": "bulk_cvd",
        "sequence": {"kind": "cpmg", "n_pulses": 4},
        "times": {"start": "0.2 ms", "stop": "2 ms", "count": 4},
        "shots": 700,
        "seed": 31,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    blobs = []
    for tag, threads in (("a", 1), ("b", 8), ("c", 1)):
        code, artifacts = cli.run(str(cfg_path), out_dir=str(tmp_path / tag),
                                  threads=threads)
        assert code == cli.EXIT_OK
        csv = [p for p in artifacts if p.endswith("curve.csv")][0]
        blobs.append(open(csv, "rb").read())
    ok = blobs[0] == blobs[1] == blobs[2]
    _report(capsys, 11, "byte-identical artifacts across reruns and workers", ok)

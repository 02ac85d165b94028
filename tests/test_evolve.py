import math
import os
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import spindd.sequence as sq
from spindd import evolve, taylor
from spindd.field import (
    GAMMA_E,
    FieldModel,
    NVParameters,
    OrnsteinUhlenbeck,
    Polynomial,
    QuasiStaticGaussian,
    RngSpec,
    SinusoidAC,
    StaticOffset,
    draw_normals,
    ou_chi,
    phase_map,
    segment_phases,
)
from conftest import signs

NV_NO_T1 = NVParameters(t1=math.inf)


def test_t1_envelope_values():
    nv = NVParameters(t1=5.93e-3)
    assert evolve.t1_envelope(0.0, nv) == 1.0
    assert evolve.t1_envelope(5.93e-3, nv) == pytest.approx(math.exp(-1.0))
    assert evolve.t1_envelope(np.array([0.0, 5.93e-3]), nv)[1] == pytest.approx(
        math.exp(-1.0)
    )
    with pytest.raises(ValueError):
        evolve.t1_envelope(-1e-9, nv)


def test_quasi_static_hahn_is_exact():
    # a field constant over each shot accumulates zero signed phase under a
    # balanced toggling function, so the echo is exactly 1 without T1
    model = FieldModel.of(QuasiStaticGaussian(sigma_b=1e-6))
    curve = evolve.coherence_curve(
        model, sq.hahn(1.0), [1e-4, 3e-4, 1e-3], shots=200,
        rng=RngSpec(7), nv=NV_NO_T1, apply_t1=False,
    )
    assert np.all(curve.signal == 1.0)
    assert np.all(curve.std_error == 0.0)
    assert np.all(evolve.gaussian_coherence(model, sq.hahn(1.0), [1e-4, 3e-4, 1e-3],
                                            apply_t1=False) == 1.0)


def test_quasi_static_fid_gaussian_law():
    sigma_b = 1e-7
    model = FieldModel.of(QuasiStaticGaussian(sigma_b=sigma_b))
    ts = np.array([2e-5, 5e-5, 1e-4])
    curve = evolve.coherence_curve(
        model, sq.fid(1.0), ts, shots=20000, rng=RngSpec(11),
        nv=NV_NO_T1, apply_t1=False,
    )
    expected = np.exp(-0.5 * (GAMMA_E * sigma_b * ts) ** 2)
    assert curve.signal == pytest.approx(expected, abs=0.015)


def test_ou_hahn_monte_carlo_matches_analytic():
    # dual route: the Monte Carlo sampler against the closed-form OU variance
    comp = OrnsteinUhlenbeck(sigma_b=59.22345e-9, tau_c=25e-6)
    model = FieldModel.of(comp)
    T = 2e-4
    curve = evolve.coherence_curve(
        model, sq.hahn(1.0), [T], shots=40000, rng=RngSpec(3),
        nv=NV_NO_T1, apply_t1=False,
    )
    chi = ou_chi(sq.toggling(sq.hahn(T)), comp.sigma_b, comp.tau_c)
    assert curve.signal[0] == pytest.approx(
        math.exp(-0.5 * chi), abs=5 * curve.std_error[0] + 1e-4
    )


def test_gaussian_coherence_matches_ou_chi():
    comp = OrnsteinUhlenbeck(sigma_b=1e-7, tau_c=5e-5)
    ts = [1e-4, 4e-4, 1e-3]
    got = evolve.gaussian_coherence(FieldModel.of(comp), sq.cpmg(4, 1.0), ts, apply_t1=False)
    want = [math.exp(-0.5 * ou_chi(sq.toggling(sq.cpmg(4, T)), comp.sigma_b, comp.tau_c))
            for T in ts]
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_coherence_curve_is_within_4_sigma_of_its_gaussian_mean(seed):
    # every slot and a mean phase of up to 2.4 rad at once: 10 normals on 12
    # times, and a pattern whose signed area leaves the quasi-static draw a weight
    model = FieldModel.of(OrnsteinUhlenbeck(sigma_b=5e-8, tau_c=2e-5),
                          QuasiStaticGaussian(sigma_b=3e-8), StaticOffset(5e-8),
                          Polynomial((0.0, 1e-5)))
    pattern, times = sq.custom([0.2, 0.5, 0.9], 1.0), np.linspace(1e-4, 1.2e-3, 12)
    curve = evolve.coherence_curve(model, pattern, times, 2000, RngSpec(seed))
    exact = evolve.gaussian_coherence(model, pattern, times)
    assert np.all(np.abs(curve.signal - exact) <= 4 * curve.std_error), \
        (curve.signal - exact) / curve.std_error


def test_polynomial_refocusing_matches_exact_factors():
    # deterministic drift: the accumulated phase ratio CPMG(n)/free evolution
    # must equal the exact rational suppression factor channel by channel
    T = 1e-4
    for k in (1, 2, 3, 4):
        comp = Polynomial(coefficients=[0.0] * k + [1e-3 / T**k])
        model = FieldModel.of(comp)
        free = phase_map(model, sq.toggling(sq.fid(T)).breakpoints)[0]
        for n in (1, 2, 3, 8):
            phi = phase_map(model, sq.toggling(sq.cpmg(n, T)).breakpoints)[0]
            factor = float(taylor.cpmg_factor(n, k))
            assert phi / free == pytest.approx(factor, abs=1e-10)


def test_signal_bounds_and_metadata():
    model = FieldModel.of(OrnsteinUhlenbeck(sigma_b=5e-7, tau_c=1e-5))
    curve = evolve.coherence_curve(
        model, sq.cpmg(2, 1.0), np.linspace(1e-5, 2e-3, 6), shots=300,
        rng=RngSpec(1),
    )
    assert np.all(np.abs(curve.signal) <= 1.0)
    assert curve.metadata["sequence"].startswith("cpmg")
    assert np.all(curve.n_pulses == 2)


def test_determinism_across_worker_counts():
    model = FieldModel.of(OrnsteinUhlenbeck(sigma_b=2e-7, tau_c=2e-5))
    # 700 shots fit in one chunk; 2 CHUNK + 1 shots make three, the last one
    # short, so a reduction in chunk-completion order would show
    for shots, times, workers in ((700, [1e-4, 5e-4], 8),
                                  (2 * evolve.CHUNK + 1, [1e-4, 3e-4, 5e-4], 2)):
        kw = dict(total_times=times, shots=shots, nv=NV_NO_T1, apply_t1=False)
        a = evolve.coherence_curve(model, sq.hahn(1.0), rng=RngSpec(42),
                                   n_workers=1, **kw)
        b = evolve.coherence_curve(model, sq.hahn(1.0), rng=RngSpec(42),
                                   n_workers=workers, **kw)
        assert np.array_equal(a.signal, b.signal)
        assert np.array_equal(a.std_error, b.std_error)


def test_std_error_is_centred_when_signal_is_near_one():
    # cos(phi) = 1 - O(1e-8) here: sum(c^2)/n - mean^2 cancelled to a
    # std_error 20 % low
    model = FieldModel.of(QuasiStaticGaussian(sigma_b=1e-9))
    shots, T = 5000, 1e-6
    curve = evolve.coherence_curve(model, sq.fid(1.0), [T], shots, RngSpec(1),
                                   nv=NV_NO_T1, apply_t1=False)
    c = np.cos(_signed_phases(model, sq.toggling(sq.fid(T)), RngSpec(1), shots))
    assert curve.signal[0] == pytest.approx(np.mean(c), rel=1e-12)
    assert curve.std_error[0] == pytest.approx(np.std(c) / math.sqrt(shots), rel=1e-6)


def _segment_phases(model, tog, rng, shots, gamma_e=GAMMA_E):
    """The forward sampler's segment phases of trajectories 0..shots-1,
    drawn chunk by chunk: row i is trajectory i."""
    n_seg = len(tog.breakpoints) - 1
    return np.concatenate([
        segment_phases(model, tog, draw_normals(model, n_seg, rng, chunk, rows), rows, gamma_e)
        for chunk, rows in enumerate(min(evolve.CHUNK, shots - start)
                                     for start in range(0, shots, evolve.CHUNK))])


def _signed_phases(model, tog, rng, shots, gamma_e=GAMMA_E):
    """Signed phases summed from the forward sampler's segment phases."""
    return _segment_phases(model, tog, rng, shots, gamma_e) @ np.asarray(signs(tog), dtype=float)


def _per_time_reference(model, make, times, shots, rng, gamma_e):
    """coherence_curve's (signal, std_error) without T1, in plain loops: each
    time's phase map for the sequence that ``make`` builds at that total
    time, its weights stacked over the slots into a row of W, R of
    W^T = Q R, and trajectory i's phase at time j c_j + z_i . R[:, j], z_i
    row i of its chunk's (rows, k) draw from slot 0."""
    maps = [phase_map(model, sq.toggling(make(T)).breakpoints, gamma_e) for T in times]
    w = np.array([np.concatenate([x for x in weights if x is not None]) for _, weights in maps])
    r = np.linalg.qr(w.T, mode="r")
    sizes = [min(evolve.CHUNK, shots - start) for start in range(0, shots, evolve.CHUNK)]
    z = [rng.generator(chunk, 0).standard_normal((rows, r.shape[0]))
         for chunk, rows in enumerate(sizes)]
    sig, err = [], []
    for j, (c, _) in enumerate(maps):
        partials = []
        for zc in z:
            cos = np.array([math.cos(c + zi @ r[:, j]) for zi in zc])
            partials.append((np.sum(cos), np.sum((cos - np.sum(cos) / cos.size) ** 2)))
        mean, se = evolve._mean_and_error(sizes, partials)
        sig.append(mean)
        err.append(se)
    return np.array(sig), np.array(err)


def test_one_chunk_runs_without_a_thread_pool(monkeypatch):
    model = FieldModel.of(OrnsteinUhlenbeck(sigma_b=2e-7, tau_c=2e-5))
    kw = dict(total_times=[1e-4, 5e-4], shots=700, rng=RngSpec(42), nv=NV_NO_T1,
              apply_t1=False)
    inline = evolve.coherence_curve(model, sq.cpmg(4, 1.0), n_workers=1, **kw)

    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool started for a single chunk")

    monkeypatch.setattr(evolve, "ThreadPoolExecutor", no_pool)
    curve = evolve.coherence_curve(model, sq.cpmg(4, 1.0), n_workers=2, **kw)
    assert curve.signal.tobytes() == inline.signal.tobytes()
    assert curve.std_error.tobytes() == inline.std_error.tobytes()


def test_coherence_curve_matches_per_time_draws():
    model = FieldModel.of(OrnsteinUhlenbeck(sigma_b=2e-7, tau_c=2e-5),
                          QuasiStaticGaussian(sigma_b=3e-8), StaticOffset(1e-8))
    times = [1e-4, 3e-4, 6e-4]
    shots = 2 * evolve.CHUNK + 1
    curve = evolve.coherence_curve(model, sq.cpmg(3, 1.0), times, shots, RngSpec(9),
                                   nv=NV_NO_T1, apply_t1=False)
    sig, err = _per_time_reference(model, lambda T: sq.cpmg(3, T), times, shots,
                                   RngSpec(9), GAMMA_E)
    # the one product over the grid rounds each phase differently from the
    # per-time dot products
    assert np.max(np.abs(curve.signal - sig)) <= 1e-15
    assert np.max(np.abs(curve.std_error / err - 1.0)) <= 1e-12


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("b", [1e-6, -1e-6], ids=["positive", "negative"])
def test_decay_cosine_is_numpys_to_rounding(b):
    # a deterministic model draws nothing, so every trajectory's phase is the
    # FID's gamma_e b T: here about +-pi/2, +-pi and +-1e3 rad
    model = FieldModel.of(StaticOffset(b))
    times = np.array([np.pi / 2, np.pi, 1e3]) / (GAMMA_E * abs(b))
    kw = dict(total_times=times, shots=100, rng=None, nv=NV_NO_T1, apply_t1=False)
    curve = evolve.coherence_curve(model, sq.fid(1.0), **kw)
    const, _ = phase_map(model, sq.on_grid(sq.fid(1.0), times), GAMMA_E)
    assert np.allclose(np.abs(const), [np.pi / 2, np.pi, 1e3], rtol=1e-12)
    assert np.max(np.abs(curve.signal - np.cos(const))) <= 1e-15
    # the echo of a static offset is a phase of exactly 0 at every time: the
    # signal is exactly 1 and its error exactly 0
    echo = evolve.coherence_curve(model, sq.hahn(1.0), **kw)
    assert np.all(echo.signal == 1.0) and np.all(echo.std_error == 0.0)
    # a phase that is not finite ends as the driver's FloatingPointError,
    # which the CLI reports with exit 3 (tests/test_cli.py)
    with pytest.raises(FloatingPointError, match="not finite at t = "):
        evolve.coherence_curve(FieldModel.of(StaticOffset(1e300 * np.sign(b))), sq.fid(1.0),
                               **dict(kw, total_times=[1e-3, 2e-3]))


def test_generator_built_once_per_chunk_and_slot(monkeypatch):
    calls = []
    make = RngSpec.generator

    def counted(self, index, slot=0):
        calls.append((index, slot))
        return make(self, index, slot)

    monkeypatch.setattr(RngSpec, "generator", counted)
    # one stochastic slot next to a deterministic one
    model = FieldModel.of(StaticOffset(1e-8), OrnsteinUhlenbeck(sigma_b=2e-7, tau_c=2e-5))
    # the decay draws its phases' normals from slot 0, whatever its slots
    evolve.coherence_curve(model, sq.hahn(1.0), [1e-4, 2e-4, 3e-4, 4e-4],
                           shots=300, rng=RngSpec(3))
    assert calls == [(0, 0)]
    calls.clear()
    evolve.coherence_curve(model, sq.hahn(1.0), [1e-4], shots=2 * evolve.CHUNK + 1,
                           rng=RngSpec(3), n_workers=2)
    assert sorted(calls) == [(0, 0), (1, 0), (2, 0)]
    calls.clear()
    evolve.pulse_error_curve(model, 4, 0.05, "cpmg", [1e-4, 2e-4, 3e-4], shots=200,
                             rng=RngSpec(3))
    assert calls == [(0, 1)]
    calls.clear()
    evolve.pulse_error_curve(FieldModel.of(StaticOffset(1e-8)), 4, 0.05, "cpmg",
                             [1e-4, 2e-4], shots=200, rng=RngSpec(3))
    assert calls == []
    evolve.spin_lock_curve(model, 2 * math.pi * 1e5, [1e-5, 2e-5], shots=200, rng=RngSpec(3))
    assert calls == [(0, 1)]
    calls.clear()
    evolve.pulse_error_curve(model, 4, 0.05, "cpmg", [1e-4, 2e-4], shots=2 * evolve.CHUNK + 1,
                             rng=RngSpec(3))
    assert calls == [(0, 1), (1, 1), (2, 1)]


def test_decay_draws_one_block_of_min_normals_and_times_per_chunk(monkeypatch):
    sizes = []
    make = RngSpec.generator

    class Recorded:
        def __init__(self, generator):
            self.generator = generator

        def standard_normal(self, size):
            sizes.append(size)
            return self.generator.standard_normal(size)

    monkeypatch.setattr(RngSpec, "generator",
                        lambda self, chunk, slot: Recorded(make(self, chunk, slot)))
    bulk = FieldModel.of(OrnsteinUhlenbeck(sigma_b=59.22345e-9, tau_c=25e-6))
    # 183 normals on 12 times
    evolve.coherence_curve(bulk, sq.cpmg(90, 1.0), np.linspace(3e-4, 6e-3, 12), 1500,
                           RngSpec(1))
    assert sizes == [(1500, 12)]
    sizes.clear()
    # 5 normals on 10 times
    evolve.coherence_curve(bulk, sq.hahn(1.0), np.linspace(6e-5, 8.6e-4, 10), 2000, RngSpec(1))
    assert sizes == [(2000, 5)]
    sizes.clear()
    evolve.coherence_curve(bulk, sq.hahn(1.0), [1e-4, 2e-4], 2 * evolve.CHUNK + 1, RngSpec(1),
                           n_workers=2)
    assert sorted(sizes) == [(1, 2), (evolve.CHUNK, 2), (evolve.CHUNK, 2)]
    sizes.clear()
    # a deterministic model draws nothing; a stochastic one needs an RngSpec
    evolve.coherence_curve(FieldModel.of(StaticOffset(1e-8)), sq.hahn(1.0), [1e-4], 100, None)
    assert sizes == []
    with pytest.raises(ValueError, match="RngSpec"):
        evolve.coherence_curve(bulk, sq.hahn(1.0), [1e-4], 100, None)


def test_shots_floor_enforced():
    # every curve refuses too few shots and a grid that is empty, not finite
    # or not strictly increasing alike
    model = FieldModel.of(OrnsteinUhlenbeck(sigma_b=1e-7, tau_c=1e-5))
    curves = (
        lambda ts, shots: evolve.coherence_curve(model, sq.hahn(1.0), ts, shots, RngSpec(0)),
        lambda ts, shots: evolve.spin_lock_curve(model, 2 * math.pi * 1e5, ts, shots,
                                                 RngSpec(0)),
        lambda ts, shots: evolve.pulse_error_curve(model, 2, 0.05, "cpmg", ts, shots,
                                                   RngSpec(0)),
    )
    for curve in curves:
        for shots in (50, 100.5, math.nan):
            with pytest.raises(ValueError, match="100 shots"):
                curve([1e-4], shots)
        for ts in ([], [math.inf], [1e-4, math.nan], [2e-4, 1e-4], [1e-4, 1e-4], [-1e-4, 1e-4]):
            with pytest.raises(ValueError, match="time grid|total_times"):
                curve(ts, 100)
    # a pattern whose first pulse rescales to 0 at every time of the grid
    with pytest.raises(ValueError, match=r"at t = 5e-05 s"):
        evolve.coherence_curve(model, sq.custom([5e-324, 0.5], 1.0),
                               np.linspace(50e-6, 500e-6, 4), 100, RngSpec(0))


def test_curve_peak_memory_is_flat_in_shots():
    # the driver holds no per-shot array across its chunks: 32 chunks of
    # int64 shot indices alone would take 1 MB (measured peak 0.17 MB)
    model = FieldModel.of(QuasiStaticGaussian(sigma_b=1e-9))
    evolve.coherence_curve(model, sq.hahn(1.0), [1e-4, 2e-4], 100, RngSpec(2))
    tracemalloc.start()
    try:
        evolve.coherence_curve(model, sq.hahn(1.0), [1e-4, 2e-4], 32 * evolve.CHUNK, RngSpec(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**19, peak


# ---------------------------------------------------------------------------
# Bloch integrator / spin locking
# ---------------------------------------------------------------------------


def _so3(a, b):
    """The rotation R with U (m . sigma) U^H = (R m) . sigma for the SU(2)
    matrix U = [[a, b], [-b*, a*]]."""
    u = np.array([[a, b], [-np.conj(b), np.conj(a)]])
    paulis = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
              np.array([[1, 0], [0, -1]])]
    return np.array([[0.5 * np.trace(si @ u @ sj @ u.conj().T).real for sj in paulis]
                     for si in paulis])


def test_cos_sin_from_the_half_angle_tangent():
    # both Bloch paths take cos x and sin x, and the decay cos x alone, from
    # tan(x/2): within 4.5e-16 of numpy's over the magnitudes they meet, both
    # signs, and at the points where tan(x/2) is 0, near 1 and near its largest
    mag = np.logspace(-12, 9, 4001)
    x = np.concatenate([mag, -mag, [0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi]])
    half = 0.5 * x
    out = np.empty_like(half)
    c, s = evolve._cos_sin(half, out)
    assert c is out and s is half  # in place, as the pulse-error loop needs
    assert np.max(np.abs(c - np.cos(x))) <= 4.5e-16
    assert np.max(np.abs(s - np.sin(x))) <= 4.5e-16
    assert (c[-5], s[-5]) == (1.0, 0.0)
    # the decay's cosine alone, in place: the pair's cosine, bit for bit
    alone = 0.5 * x
    c_alone, s_alone = evolve._cos_sin(alone, alone)
    assert c_alone is alone and s_alone is None
    assert np.array_equal(c_alone, c)
    # a phase that is not finite gives nan, as cos(inf) does, so such a curve
    # is reported as not finite
    with np.errstate(invalid="ignore"):
        c, s = evolve._cos_sin(np.array([np.nan, np.inf, -np.inf]))
    assert np.all(np.isnan(c)) and np.all(np.isnan(s))


def test_rotation_kernel_solves_bloch_equation():
    # dm/dt = m x Omega = -[Omega]_x m, so one step is m -> expm(-[v]_x) m.
    # m_x read out from m = x cannot tell the sense of rotation; R can
    from scipy.linalg import expm

    def step(vi):
        cross = np.array([[0, -vi[2], vi[1]], [vi[2], 0, -vi[0]], [-vi[1], vi[0], 0]])
        return expm(-cross)

    v = np.concatenate([np.random.default_rng(0).normal(scale=3.0, size=(20, 3)),
                        [[1e-9, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 2e-9]]])
    v[:, 1] = 0.0  # the drive is along x
    a, b = evolve._su2_turn(v[:, :1], v[:, 2:])
    for vi, ai, bi in zip(v, a, b):
        assert np.max(np.abs(_so3(ai, bi) - step(vi))) <= 1e-12
    # null steps are exactly the identity, with no 0/0 warned on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for shape in ((1,), (3, 4)):
            a, b = evolve._su2_turn(np.zeros(shape), np.zeros(shape))
            assert np.all(a == 1.0) and np.all(b == 0.0)
    # consecutive steps compose in order, an odd count included
    for n in (2, 5, 8):
        a, b = evolve._su2_turn(v[:n, 0], v[:n, 2])
        want = np.eye(3)
        for vi in v[:n]:
            want = step(vi) @ want
        assert np.max(np.abs(_so3(a, b) - want)) <= 1e-12


def test_bloch_norm_conservation():
    # the run's one turn is in SU(2), |a|^2 + |b|^2 = 1, so it keeps |m| = 1
    model = FieldModel.of(OrnsteinUhlenbeck(sigma_b=5e-7, tau_c=1e-6))
    n = int(evolve.bloch_steps(model, [1e-3])[0])
    tog = sq.TogglingFunction(tuple(np.linspace(0.0, 1e-3, n + 1)))
    steps, phases = np.diff(tog.breakpoints), _segment_phases(model, tog, RngSpec(9), 4)
    a, b = evolve._su2_turn(2 * math.pi * 1e5 * steps, phases)
    assert a.shape == (4,)
    assert np.all(np.abs(abs(a)**2 + abs(b)**2 - 1.0) < 1e-12)
    mx = evolve._bloch_run(2 * math.pi * 1e5, steps, np.array([n]), phases)
    assert mx.shape == (1, 4) and np.all(np.abs(mx) <= 1.0 + 1e-12)


def _bloch_run_xyz(omega1, steps, nsub, phases):
    """The Bloch run as it returned all of m, (n_samples, n_traj, 3)."""
    up = dn = np.ones(phases.shape[0], dtype=complex)
    out = np.empty((nsub.size, up.size, 3))
    cuts = np.cumsum(nsub)[:-1]
    for k, (dt, vz) in enumerate(zip(np.split(steps, cuts), np.split(phases, cuts, axis=1))):
        a, b = evolve._su2_turn(omega1 * dt, vz)
        up, dn = a * up + b * dn, a.conj() * dn - b.conj() * up
        cross = up.conj() * dn
        out[k] = np.column_stack([cross.real, cross.imag, 0.5 * (abs(up)**2 - abs(dn)**2)])
    return out


def test_bloch_run_returns_the_locked_component_of_m():
    # m_x alone, as one contiguous block, bit for bit the x column of all of m
    model = FieldModel.of(OrnsteinUhlenbeck(sigma_b=5e-7, tau_c=1e-6),
                          StaticOffset(b=2e-8))
    times = np.array([5e-5, 1.2e-4, 2e-4, 3.5e-4, 5e-4])
    nsub = evolve.bloch_steps(model, times).astype(int)
    knots = np.concatenate([[0.0], times])
    grid = np.concatenate([[0.0]] + [np.linspace(a, b, k + 1)[1:]
                                     for a, b, k in zip(knots[:-1], knots[1:], nsub)])
    steps = np.diff(grid)
    phases = _segment_phases(model, sq.TogglingFunction(grid), RngSpec(3), 300)
    mx = evolve._bloch_run(2 * math.pi * 6e4, steps, nsub, phases)
    assert mx.shape == (times.size, 300) and mx.flags.c_contiguous
    want = _bloch_run_xyz(2 * math.pi * 6e4, steps, nsub, phases)[:, :, 0]
    assert np.all(np.isfinite(mx)) and mx.tobytes() == np.ascontiguousarray(want).tobytes()


def test_spin_lock_rejects_bad_omega1():
    # NaN fails every comparison, so it must be refused, not let through
    model = FieldModel.of(OrnsteinUhlenbeck(sigma_b=1e-7, tau_c=1e-5))
    for omega1 in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="omega1"):
            evolve.spin_lock_curve(model, omega1, [1e-5], 100, RngSpec(0))


def test_spin_lock_noiseless_stays_locked():
    model = FieldModel.of(Polynomial(coefficients=[0.0]))
    curve = evolve.spin_lock_curve(
        model, 2 * math.pi * 1e5, [1e-4, 5e-4], shots=100, rng=RngSpec(1),
        nv=NV_NO_T1, apply_t1=False,
    )
    assert curve.signal == pytest.approx(np.ones(2), abs=1e-7)
    # with no drive either, every step is null and m stays exactly at x
    curve = evolve.spin_lock_curve(model, 0.0, [1e-4, 5e-4], shots=100, rng=None,
                                   nv=NV_NO_T1, apply_t1=False)
    assert np.all(curve.signal == 1.0)


def test_spin_lock_static_detuning_precesses():
    # with no drive, a static offset turns the locked state into free
    # precession of m_x at the detuning frequency
    b0 = 1e-6
    w = GAMMA_E * b0
    T = 2 * math.pi / w * 3.25
    model = FieldModel.of(StaticOffset(b=b0))
    curve = evolve.spin_lock_curve(
        model, 0.0, [T], shots=100, rng=RngSpec(1), nv=NV_NO_T1, apply_t1=False,
    )
    assert curve.signal[0] == pytest.approx(math.cos(w * T), abs=1e-6)


def test_spin_lock_static_detuning_nutation():
    # drive plus static detuning: m precesses about the tilted field
    # (w1, 0, delta), so m_x(T) = (w1^2 + delta^2 cos(W T)) / W^2
    b0 = 1e-6
    delta = GAMMA_E * b0
    omega1 = 2 * math.pi * 30e3
    big = math.hypot(omega1, delta)
    ts = np.array([1e-5, 3.3e-5, 7e-5, 1.2e-4])
    model = FieldModel.of(StaticOffset(b=b0))
    curve = evolve.spin_lock_curve(
        model, omega1, ts, shots=100, rng=RngSpec(1), nv=NV_NO_T1, apply_t1=False,
    )
    want = (omega1**2 + delta**2 * np.cos(big * ts)) / big**2
    assert np.max(np.abs(curve.signal - want)) <= 1e-12


def test_spin_lock_redfield_rate():
    # fast OU noise: decay rate gamma^2 sigma^2 tau_c / (1 + w1^2 tau_c^2),
    # summed over independent components; each bath lists
    # (gamma sigma_b tau_c, tau_c) per OU component
    omega1 = 1e6
    for bath in ([(0.1, 1e-6)], [(0.1, 1e-6), (0.05, 0.5e-6)]):
        comps = [OrnsteinUhlenbeck(sigma_b=x / (GAMMA_E * tau_c), tau_c=tau_c)
                 for x, tau_c in bath]
        rate = sum((GAMMA_E * c.sigma_b) ** 2 * c.tau_c / (1 + (omega1 * c.tau_c) ** 2)
                   for c in comps)
        ts = np.array([0.4, 0.8, 1.3]) / rate
        curve = evolve.spin_lock_curve(
            FieldModel.of(*comps), omega1, ts, shots=300, rng=RngSpec(5),
            nv=NV_NO_T1, apply_t1=False,
        )
        got = -np.log(curve.signal) / ts
        assert np.mean(got) == pytest.approx(rate, rel=0.2), bath


# ---------------------------------------------------------------------------
# Finite pulse errors
# ---------------------------------------------------------------------------


def _rx(a):
    c, s = math.cos(a), math.sin(a)
    return np.array([[1, 0, 0], [0, c, -s], [0, s, c]])


def _ry(a):
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]])


def _rz_batch(m, theta):
    # per-row rotation about z by theta, the sense of dm/dt = m x (0, 0, w)
    c, s = np.cos(theta), np.sin(theta)
    return np.stack([c * m[:, 0] + s * m[:, 1], -s * m[:, 0] + c * m[:, 1], m[:, 2]],
                    axis=1)


def _oracle_single_echo(eps, convention):
    # explicit 3x3 rotation product for one noiseless echo
    pulse = _rx(math.pi * (1 + eps)) if convention == "cpmg" else _ry(math.pi * (1 + eps))
    m = pulse @ np.array([1.0, 0.0, 0.0])
    sign = -1.0 if convention == "cp" else 1.0
    return sign * m[0]


def _reference_pulse_error(model, n, eps, convention, ts, shots, rng, nv=NV_NO_T1,
                           apply_t1=False):
    # explicit x/y pulse matrices and per-row z rotations, composed one
    # trajectory block at a time: the reference for the rotation kernel
    pulse = _rx(math.pi * (1 + eps)) if convention == "cpmg" else _ry(math.pi * (1 + eps))
    sign = 1.0 if convention == "cpmg" else (-1.0) ** n
    sig, err = [], []
    for T in ts:
        phases = _segment_phases(model, sq.toggling(sq.cpmg(n, T)), rng, shots, nv.gamma_e)
        m = np.tile([1.0, 0.0, 0.0], (shots, 1))
        for seg in range(n + 1):
            m = _rz_batch(m, phases[:, seg])
            if seg < n:
                m = m @ pulse.T
        env = math.exp(-T / nv.t1) if apply_t1 else 1.0
        sig.append(np.mean(m[:, 0] * sign) * env)
        err.append(np.std(m[:, 0] * sign) / math.sqrt(shots) * env)
    return np.array(sig), np.array(err)


@pytest.mark.parametrize("convention", ["cp", "cpmg"])
def test_pulse_error_single_echo_oracle(convention):
    for eps in (0.0, 0.03, -0.08):
        curve = evolve.pulse_error_curve(
            FieldModel.of(StaticOffset(0.0)), 1, eps, convention, [1e-4], shots=100, rng=None,
            nv=NV_NO_T1,
        )
        assert curve.signal[0] == pytest.approx(
            _oracle_single_echo(eps, convention), abs=1e-12
        )


_OU_BATH = OrnsteinUhlenbeck(sigma_b=1e-7, tau_c=2e-5)
_PULSE_TIMES = [1e-4, 4e-4, 1e-3]

# (model, n, times, nv, apply_t1, shots): an OU bath; OU + quasi-static +
# static offset; odd n, which flips the cp readout sign; the T1 envelope; 9
# points, so the last block of the time grid is partial; a static offset
# alone, which runs one effective shot; three chunks, the last one short
_PULSE_REFERENCE_CASES = {
    "ou": (FieldModel.of(_OU_BATH), 6, _PULSE_TIMES, NV_NO_T1, False, 300),
    "mixed": (FieldModel.of(_OU_BATH, QuasiStaticGaussian(sigma_b=5e-8), StaticOffset(3e-8)),
              6, _PULSE_TIMES, NV_NO_T1, False, 300),
    "odd_n": (FieldModel.of(_OU_BATH), 7, _PULSE_TIMES, NV_NO_T1, False, 300),
    "t1": (FieldModel.of(_OU_BATH), 6, _PULSE_TIMES, NVParameters(t1=8e-4), True, 300),
    "grid_9": (FieldModel.of(_OU_BATH), 6, np.linspace(1e-4, 1e-3, 9), NV_NO_T1, False, 300),
    "static": (FieldModel.of(StaticOffset(3e-8)), 6, _PULSE_TIMES, NV_NO_T1, False, 300),
    "chunks_3": (FieldModel.of(_OU_BATH), 6, _PULSE_TIMES, NV_NO_T1, False,
                 2 * evolve.CHUNK + 1),
}


@pytest.mark.parametrize("convention", ["cp", "cpmg"])
def test_pulse_error_matches_reference_composition(convention):
    for case, (model, n, ts, nv, apply_t1, shots) in _PULSE_REFERENCE_CASES.items():
        curve = evolve.pulse_error_curve(model, n, 0.07, convention, ts, shots=shots,
                                         rng=RngSpec(21), nv=nv, apply_t1=apply_t1)
        sig, err = _reference_pulse_error(model, n, 0.07, convention, ts, shots, RngSpec(21),
                                          nv, apply_t1)
        # the reference turns by np.cos and np.sin, the train by tan(phase/2)
        assert np.max(np.abs(curve.signal - sig)) <= 1e-14, case
        assert np.max(np.abs(curve.std_error - err)) <= 1e-14, case
        assert curve.metadata["shots"] == (1 if case == "static" else shots), case


def test_a_two_chunk_train_has_the_same_bytes_at_either_turn_block(monkeypatch):
    # a whole chunk turns its 5 times one a block at 2^12 words and all at
    # once at 2^15, on one thread and on two
    ts = np.linspace(1e-4, 1e-3, 5)
    curves = []
    for words in (2**12, 2**15):
        monkeypatch.setattr(evolve, "TURN_WORDS", words)
        assert evolve._turn_block(evolve.CHUNK, ts.size) == (1 if words == 2**12 else 5)
        for workers in (1, 2):
            curve = evolve.pulse_error_curve(FieldModel.of(_OU_BATH), 6, 0.05, "cp", ts,
                                             evolve.CHUNK + 300, RngSpec(8), n_workers=workers)
            curves.append((curve.signal.tobytes(), curve.std_error.tobytes()))
    assert curves == [curves[0]] * 4


def test_pulse_error_peak_memory_does_not_grow_with_the_grid():
    # the grid is composed in blocks, each freed before the next: stacking
    # the whole grid, or keeping the blocks, raises the peak with the grid
    model = FieldModel.of(OrnsteinUhlenbeck(sigma_b=6e-8, tau_c=2.5e-5))

    def curve(count):
        ts = np.linspace(1e-4, 1e-3, count)
        evolve.pulse_error_curve(model, 50, 0.05, "cpmg", ts, shots=500, rng=RngSpec(6))

    def peak(count):
        tracemalloc.start()
        try:
            curve(count)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # one block of times at 500 rows against four
    block = evolve._turn_block(500, 10**6)
    # untraced, for numpy's and the interpreter's first-call allocations
    curve(block)
    assert peak(4 * block) <= 1.1 * peak(block)


def test_pulse_error_peak_memory_is_flat_past_one_chunk():
    # chunks are drawn, composed and reduced one at a time, so the peak is
    # that of one chunk whatever the shot count
    model = FieldModel.of(_OU_BATH)

    def peak(shots):
        tracemalloc.start()
        try:
            evolve.pulse_error_curve(model, 10, 0.05, "cpmg", [1e-4, 5e-4], shots,
                                     RngSpec(6))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(100)  # one-time allocations of a first call stay out of the comparison
    assert peak(3 * evolve.CHUNK) <= 1.1 * peak(evolve.CHUNK)


def test_pulse_error_cpmg_robust_cp_fragile():
    eps, n = 0.05, 10
    noiseless = FieldModel.of(StaticOffset(0.0))
    cpmg = evolve.pulse_error_curve(noiseless, n, eps, "cpmg", [1e-3], shots=100,
                                    rng=None, nv=NV_NO_T1)
    cp = evolve.pulse_error_curve(noiseless, n, eps, "cp", [1e-3], shots=100,
                                  rng=None, nv=NV_NO_T1)
    assert cpmg.signal[0] > 0.99
    # for y-phase pulses the flip-angle errors add coherently: m_x = cos(n pi eps)
    assert cp.signal[0] == pytest.approx(math.cos(n * math.pi * eps), abs=1e-10)
    assert cp.signal[0] < 0.5


def test_pulse_error_perfect_pulses_match_cpmg():
    # with perfect pulses the train is the CPMG echo: the mean cosine of each
    # trajectory's signed phase, over the train's own draws
    model = FieldModel.of(OrnsteinUhlenbeck(sigma_b=1e-7, tau_c=2e-5))
    ts = [2e-4, 8e-4]
    a = evolve.pulse_error_curve(model, 4, 0.0, "cpmg", ts, shots=500,
                                 rng=RngSpec(13), nv=NV_NO_T1)
    echo = [np.mean(np.cos(_signed_phases(model, sq.toggling(sq.cpmg(4, T)), RngSpec(13), 500)))
            for T in ts]
    assert a.signal == pytest.approx(echo, abs=1e-12)


def test_pulse_error_rejects_bad_arguments():
    # NaN fails every comparison, so it must be refused, not let through
    for eps in (0.6, -0.5, math.nan):
        with pytest.raises(ValueError, match="flip_angle_error"):
            evolve.pulse_error_curve(FieldModel.of(StaticOffset(0.0)), 1, eps, "cpmg", [1e-4],
                                     100, None)
    with pytest.raises(ValueError):
        evolve.pulse_error_curve(FieldModel.of(StaticOffset(0.0)), 1, 0.1, "xy8", [1e-4],
                                 100, None)
    for n in (0, 2.5):
        with pytest.raises(ValueError, match="1 pulse"):
            evolve.pulse_error_curve(FieldModel.of(StaticOffset(0.0)), n, 0.1, "cpmg", [1e-4],
                                     100, None)
    # a deterministic train runs one trajectory, but refuses what the other
    # curves refuse
    for ts, shots in (([1e-4], 99), ([], 100), ([math.inf], 100), ([2e-4, 1e-4], 100)):
        with pytest.raises(ValueError):
            evolve.pulse_error_curve(FieldModel.of(StaticOffset(0.0)), 1, 0.1, "cpmg", ts,
                                     shots, None)


# --- the driver: blocks reduced in place, chunks merged over the grid ---------


def _recording_driver(monkeypatch):
    """Wrap the Monte Carlo driver of every curve: a copy of each block an
    observer yields, by chunk, taken before the driver overwrites it; the
    threads the observers ran on; and the chunk partials the driver merges."""
    blocks, threads, merged = {}, set(), []
    drive, merge = evolve._monte_carlo, evolve._mean_and_error

    def driver(model, times, shots, rng, nv, apply_t1, observe, *args):
        def observed(chunk, rows):
            threads.add(threading.get_ident())
            for block in observe(chunk, rows):
                blocks.setdefault(chunk, []).append(block.copy())
                yield block
        return drive(model, times, shots, rng, nv, apply_t1, observed, *args)

    def merging(sizes, partials):
        merged.append(partials)
        return merge(sizes, partials)

    monkeypatch.setattr(evolve, "_monte_carlo", driver)
    monkeypatch.setattr(evolve, "_mean_and_error", merging)
    return blocks, threads, merged


def _merged_per_time(sizes, partials):
    """One time's (mean, standard error) from its scalar chunk partials, in
    plain floats: the 1-D sum of the chunk sums and Chan, Golub and
    LeVeque's update in chunk order."""
    shots = sum(sizes)
    mean = float(np.sum(np.array([s for s, _ in partials]))) / shots
    n, run_mean, m2 = 0, 0.0, 0.0
    for nb, (s, m2b) in zip(sizes, partials):
        delta = float(s) / nb - run_mean
        n += nb
        run_mean += delta * nb / n
        m2 += float(m2b) + delta * delta * (n - nb) * nb / n
    return mean, math.sqrt(m2 / shots / shots)


_THREE_CHUNKS = 2 * evolve.CHUNK + 1
_NV_T1 = NVParameters(t1=5.93e-3)

# three chunks of each curve; a whole chunk of the pulse-error train yields
# its three times in blocks of _turn_block(CHUNK, 3)
_DRIVER_CURVES = {
    "decay": (lambda: evolve.coherence_curve(
        FieldModel.of(OrnsteinUhlenbeck(sigma_b=2e-7, tau_c=2e-5), QuasiStaticGaussian(3e-8)),
        sq.cpmg(2, 1.0), [1e-4, 3e-4, 6e-4], _THREE_CHUNKS, RngSpec(5), nv=_NV_T1), True, 1),
    "spinlock": (lambda: evolve.spin_lock_curve(
        FieldModel.of(OrnsteinUhlenbeck(sigma_b=5.9e-8, tau_c=2.5e-5)), 2 * math.pi * 6e4,
        [2e-5, 6e-5], _THREE_CHUNKS, RngSpec(5), nv=_NV_T1), True, 1),
    "pulse_error": (lambda: evolve.pulse_error_curve(
        FieldModel.of(OrnsteinUhlenbeck(sigma_b=1e-7, tau_c=2e-5)), 4, 0.05, "cp",
        [1e-4, 4e-4, 1e-3], _THREE_CHUNKS, RngSpec(5)), False,
        math.ceil(3 / evolve._turn_block(evolve.CHUNK, 3))),
}


@pytest.mark.parametrize("name", list(_DRIVER_CURVES))
def test_the_driver_reduces_each_block_as_its_rows_would_be(monkeypatch, name):
    make, apply_t1, blocks_per_chunk = _DRIVER_CURVES[name]
    blocks, _, merged = _recording_driver(monkeypatch)
    curve = make()
    sizes = [evolve.CHUNK, evolve.CHUNK, 1]
    (partials,) = merged
    assert sorted(blocks) == [0, 1, 2] and len(partials) == 3
    assert [len(blocks[c]) for c in (0, 1, 2)] == [blocks_per_chunk, blocks_per_chunk, 1]
    reference = []
    for chunk, rows in enumerate(sizes):
        values = np.concatenate(blocks[chunk])
        assert values.shape == (curve.times.size, rows)
        # each time's row summed on its own, then its centred squares
        rowwise = [(np.sum(row), np.sum((row - np.sum(row) / row.size) ** 2))
                   for row in values]
        assert partials[chunk].tobytes() == np.array(rowwise).T.tobytes()
        reference.append(rowwise)
    # the merge over the grid is each time's scalar merge, then its envelope
    for i, T in enumerate(curve.times):
        mean, se = _merged_per_time(sizes, [r[i] for r in reference])
        env = float(evolve.t1_envelope(T, _NV_T1)) if apply_t1 else 1.0
        assert (curve.signal[i], curve.std_error[i]) == (mean * env, se * env)


def test_a_curve_of_one_chunk_does_not_count_the_cores(monkeypatch):
    # it starts no pool at any worker count, so it pays no sysconf read
    def cpu_count():
        raise AssertionError("the cores of a one-chunk curve were counted")

    monkeypatch.setattr(evolve.os, "cpu_count", cpu_count)
    evolve.pulse_error_curve(FieldModel.of(_OU_BATH), 2, 0.05, "cpmg", [1e-4, 5e-4],
                             evolve.CHUNK, RngSpec(3), n_workers=64)


@pytest.mark.parametrize("cores", [None, 2], ids=["host", "two_cores"])
def test_the_pool_is_capped_at_the_chunks_and_the_cores(monkeypatch, cores):
    # 64 requested workers for 3 chunks start no more threads than the host
    # has cores, and no byte changes
    if cores:
        monkeypatch.setattr(evolve.os, "cpu_count", lambda: cores)
    cap = min(3, cores or os.cpu_count() or 1)
    pools = []

    class Pool(evolve.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(evolve, "ThreadPoolExecutor", Pool)
    _, threads, _ = _recording_driver(monkeypatch)

    def curve(n_workers):
        return evolve.pulse_error_curve(FieldModel.of(_OU_BATH), 2, 0.05, "cpmg", [1e-4, 5e-4],
                                        _THREE_CHUNKS, RngSpec(3), n_workers=n_workers)

    inline = curve(1)
    threads.clear()
    pooled = curve(64)
    assert 1 <= len(threads) <= cap
    assert pools == ([cap] if cap > 1 else [])
    assert pooled.signal.tobytes() == inline.signal.tobytes()
    assert pooled.std_error.tobytes() == inline.std_error.tobytes()

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spindd.sequence as sq
from spindd import sense
from spindd.field import GAMMA_E, NVParameters, SinusoidAC
from conftest import toggled_sine_quadrature

NV = NVParameters(t1=math.inf)


# ---------------------------------------------------------------------------
# Phase response
# ---------------------------------------------------------------------------


def test_hahn_matched_phase_closed_form():
    for T in (1e-4, 2.3e-4):
        seq = sq.hahn(T)
        tau = T / 2
        b = 1e-7
        phi = sense.phase_response(seq, sense.matched_ac(seq, b), NV)
        assert phi == pytest.approx(4 * GAMMA_E * b * tau / math.pi, rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 4, 10, 33, 64])
def test_cpmg_matched_phase_closed_form(n):
    T = 5.4e-4
    seq = sq.cpmg(n, T)
    tau = T / (2 * n)
    b = 2e-7
    phi = sense.phase_response(seq, sense.matched_ac(seq, b), NV)
    assert abs(phi) == pytest.approx(4 * n * GAMMA_E * b * tau / math.pi, rel=1e-10)


@pytest.mark.parametrize("n", [1, 3, 8, 16])
def test_phase_response_matches_quadrature(n):
    # dual route: closed-form segment sums against scipy.quad per segment
    seq = sq.cpmg(n, 3.3e-4)
    ac = SinusoidAC(1.5e-7, 1.7e4, 0.6)
    got = sense.phase_response(seq, ac, NV)
    want = toggled_sine_quadrature(sq.toggling(seq), ac.amplitude, ac.frequency,
                                   ac.phi0)
    assert got == pytest.approx(want, abs=1e-10 * max(1.0, abs(want)))


@settings(max_examples=30, deadline=None)
@given(b=st.floats(1e-10, 1e-5), n=st.integers(1, 12))
def test_phase_response_linear_in_amplitude(b, n):
    seq = sq.cpmg(n, 2e-4)
    unit = sense.phase_response(seq, sense.matched_ac(seq, 1.0), NV)
    phi = sense.phase_response(seq, sense.matched_ac(seq, b), NV)
    assert phi == pytest.approx(b * unit, rel=1e-9)


def test_cpmg_sync_is_locally_optimal():
    # scanning the AC frequency around the matched point must not beat it
    n, T = 8, 4e-4
    seq = sq.cpmg(n, T)
    tau = T / (2 * n)
    f0 = 1.0 / (4.0 * tau)
    best = abs(sense.phase_response(seq, sense.matched_ac(seq, 1e-7), NV))
    for f in np.linspace(0.8 * f0, 1.2 * f0, 41):
        phi = abs(sense.phase_response(seq, SinusoidAC(1e-7, f, math.pi / 2), NV))
        assert phi <= best * (1 + 1e-9)


# ---------------------------------------------------------------------------
# Readout statistics
# ---------------------------------------------------------------------------


def test_sigma_sn_closed_form():
    ro = sense.ReadoutModel(photons_per_shot=0.03, contrast=0.3)
    lam = 0.03 * (1 - 0.5 * 0.3)
    assert ro.mean_photons(0.0) == pytest.approx(lam, rel=1e-15)
    assert ro.sigma_sn(0.0, 1e6) == pytest.approx((2 / 0.03) * math.sqrt(lam / 1e6), rel=1e-12)


def _poisson_estimates(ro, shots, reps, rng):
    """Estimates of the ideal signal 0 from Poisson photon counts of ``shots``
    shots, ``reps`` times: the fluorescence rate inverted through the
    contrast."""
    counts = rng.poisson(ro.mean_photons(0.0) * shots, size=reps)
    rate = counts / (shots * ro.photons_per_shot)
    return 1.0 - 2.0 * (1.0 - rate) / ro.contrast


def test_sigma_sn_matches_poisson_spread():
    # the empirical spread of Poisson-sampled estimates should match sigma_sn,
    # and quadrupling the shots should halve it
    ro = sense.ReadoutModel(photons_per_shot=0.03, contrast=0.3)
    rng = np.random.default_rng(1)
    reps = 100
    e1 = _poisson_estimates(ro, 100_000, reps, rng)
    e4 = _poisson_estimates(ro, 400_000, reps, rng)
    s1, s4 = np.std(e1, ddof=1), np.std(e4, ddof=1)
    # sigma_sn is quoted on the contrast-weighted scale; the estimate lives on
    # the ideal-signal scale, so its spread is sigma_sn / contrast
    assert s1 * 0.3 == pytest.approx(ro.sigma_sn(0.0, 100_000), rel=0.2)
    assert s4 / s1 == pytest.approx(0.5, rel=0.25)
    assert np.mean(e1) == pytest.approx(0.0, abs=5 * s1 / math.sqrt(reps))


def test_readout_rejects_bad_parameters():
    with pytest.raises(ValueError):
        sense.ReadoutModel(contrast=1.2)
    with pytest.raises(ValueError):
        sense.ReadoutModel(photons_per_shot=0.0)
    with pytest.raises(ValueError):
        sense.ReadoutModel(overhead=-1e-6)


# ---------------------------------------------------------------------------
# Sensitivity
# ---------------------------------------------------------------------------


def test_min_detectable_field_arithmetic():
    # CPMG-10 with base half-period tau = 27 us: slope = c * envelope * 4 n g tau / pi
    n, tau = 10, 27e-6
    seq = sq.cpmg(n, 2 * n * tau)
    ro = sense.ReadoutModel(photons_per_shot=0.03, contrast=0.3)
    slope = sense.signal_slope(seq, ro, NV, envelope=1.0)
    assert slope == pytest.approx(0.3 * 4 * n * GAMMA_E * tau / math.pi, rel=1e-12)
    sigma = ro.sigma_sn(0.0, 100_000)
    db = sense.min_detectable_field(slope, sigma)
    assert db == pytest.approx(sigma / slope, rel=1e-15)
    # doubling sigma doubles dB_min
    assert sense.min_detectable_field(slope, 2 * sigma) == pytest.approx(2 * db)


def test_slope_ratio_hahn_vs_cpmg():
    # per unit total time the CPMG-n slope beats Hahn by n*tau_cpmg/tau_hahn
    hahn = sq.hahn(2 * 115e-6)
    cpmg = sq.cpmg(10, 2 * 10 * 27e-6)
    ro = sense.ReadoutModel()
    ratio = sense.signal_slope(cpmg, ro, NV) / sense.signal_slope(hahn, ro, NV)
    assert ratio == pytest.approx(10 * 27e-6 / 115e-6, rel=1e-12)


def test_sensitivity_scan_analytic_scaling():
    seq = sq.hahn(2 * 115e-6)
    ro = sense.ReadoutModel(photons_per_shot=0.03, contrast=0.3,
                            overhead=2e-6)
    ts = np.geomspace(0.5, 500, 12)
    res = sense.sensitivity_scan(seq, ro, ts, envelope=0.6)
    # exact k / sqrt(t): the free-exponent fit recovers -1/2
    from spindd.fit import fit_power_law

    free = fit_power_law((res.times, res.delta_b_min))
    assert free.params["exponent"] == pytest.approx(-0.5, abs=1e-9)
    assert res.delta_b_min == pytest.approx(
        res.fit.params["coefficient"] / np.sqrt(ts), rel=1e-9
    )
    # halving the photon yield inflates k by sqrt(2)
    ro_half = sense.ReadoutModel(photons_per_shot=0.015, contrast=0.3,
                                 overhead=2e-6)
    res_half = sense.sensitivity_scan(seq, ro_half, ts, envelope=0.6)
    assert res_half.fit.params["coefficient"] / res.fit.params["coefficient"] \
        == pytest.approx(math.sqrt(2.0), rel=0.1)


def test_amplitude_jitter_floors_sensitivity():
    seq = sq.hahn(2e-4)
    ro = sense.ReadoutModel()
    ts = np.geomspace(1, 100, 6)
    clean = sense.sensitivity_scan(seq, ro, ts)
    noisy = sense.sensitivity_scan(seq, ro, ts, ac_amplitude_jitter=0.05)
    assert np.all(noisy.delta_b_min > clean.delta_b_min)


@pytest.mark.parametrize("jitter", [0.0, 0.05])
def test_sensitivity_scan_equals_the_per_point_loop(jitter):
    seq, ro = sq.cpmg(10, 2 * 10 * 27e-6), sense.ReadoutModel()
    ts = np.geomspace(0.5, 500, 12)
    res = sense.sensitivity_scan(seq, ro, ts, envelope=0.7, ac_amplitude_jitter=jitter)
    slope = sense.signal_slope(seq, ro, envelope=0.7)
    for t, sigma, db in zip(ts, res.sigma_sn, res.delta_b_min):
        lam = ro.mean_photons(0.0)
        want = (2.0 / ro.photons_per_shot) * math.sqrt(lam / (t / (seq.total_time + ro.overhead)))
        if jitter > 0.0:
            want = math.hypot(want, jitter * ro.contrast)
        assert (sigma, db) == (want, want / slope)


@pytest.mark.parametrize("slope", [0.0, -1.0, math.nan])
def test_min_detectable_field_refuses_a_slope_not_positive(slope):
    # NaN passed the slope <= 0 check and gave dB_min = nan
    with pytest.raises(ValueError, match="slope"):
        sense.min_detectable_field(slope, 1e-3)


@pytest.mark.parametrize("ts, message", [
    ([1.0, 2.0, 4.0], "at least 4 scan points"),
    ([], "non-empty, strictly increasing"),
    ([1.0, 4.0, 2.0, 8.0], "non-empty, strictly increasing"),
    ([1.0, 2.0, 2.0, 8.0], "non-empty, strictly increasing"),
    (5.0, "1-D grid"),
], ids=["three_points", "empty", "not_increasing", "repeated", "scalar"])
def test_sensitivity_scan_refuses_a_grid_it_cannot_fit(ts, message):
    with pytest.raises(ValueError, match=message):
        sense.sensitivity_scan(sq.hahn(2e-4), sense.ReadoutModel(), ts)


@pytest.mark.parametrize("seq", [sq.fid(1e-4), sq.custom([2e-5, 5e-5], 1e-4)],
                         ids=["fid", "custom"])
def test_only_hahn_and_cpmg_have_a_matched_field(seq):
    with pytest.raises(ValueError, match=f"no matched AC field for sequence kind '{seq.kind}'"):
        sense.matched_ac(seq, 1e-7)


def test_sensitivity_scan_refuses_a_negative_jitter():
    # it was read as no jitter at all
    with pytest.raises(ValueError, match="ac_amplitude_jitter"):
        sense.sensitivity_scan(sq.hahn(2e-4), sense.ReadoutModel(), [1.0, 2.0, 4.0, 8.0],
                               ac_amplitude_jitter=-1e308)


@pytest.mark.parametrize("bad", [math.nan, -2.0, 0.0])
def test_sensitivity_scan_refuses_a_time_not_finite_and_positive(bad):
    # a NaN time gave k = nan, a negative one a math domain error and zero a
    # division warning before a fit failure
    ts = [1.0, 2.0, bad, 8.0]
    with pytest.raises(ValueError, match=rf"total_times .* got {bad!r} s"):
        sense.sensitivity_scan(sq.hahn(2e-4), sense.ReadoutModel(), ts)

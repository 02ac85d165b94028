import math

import numpy as np
import pytest

from spindd import sequence as sq
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
    ou_chi,
    segment_phases,
    signed_phase,
    signed_phase_batch,
)

RNG = RngSpec(20240817)


def test_trajectory_deterministic_per_index():
    """A trajectory's segment phases depend on its index alone, not on which
    other indices share the call or in what order."""
    mixed = FieldModel.of(
        StaticOffset(1e-8), QuasiStaticGaussian(1e-8), OrnsteinUhlenbeck(2e-7, 2e-5),
        Polynomial((1e-9, 2e-6)), SinusoidAC(3e-9, 1234.0, 0.3),
    )
    tog = sq.toggling(sq.cpmg(3, 1e-4))
    block = segment_phases(mixed, tog, RNG, range(50))
    reverse = segment_phases(mixed, tog, RNG, np.arange(50)[::-1])
    for i in range(50):
        alone = segment_phases(mixed, tog, RNG, i)[0]
        assert np.array_equal(alone, block[i])
        assert np.array_equal(alone, reverse[49 - i])
    assert len({row.tobytes() for row in block}) == 50


# --- signed phase ----------------------------------------------------------


def test_static_term_fully_refocused_by_hahn():
    m = FieldModel.of(Polynomial((3.7e-9,)))
    assert signed_phase(m, sq.toggling(sq.hahn(2.0))) == 0.0


def test_linear_term_hahn_matches_closed_form_and_eq3_ratio():
    a1 = 1e-9
    tau = 0.37
    tog = sq.toggling(sq.hahn(2 * tau))
    m = FieldModel.of(Polynomial((0.0, a1)))
    got = signed_phase(m, tog)
    assert got == pytest.approx(-GAMMA_E * a1 * tau**2, rel=1e-12)
    fid_phase = signed_phase(m, sq.toggling(sq.fid(2 * tau)))
    assert abs(got / fid_phase) == pytest.approx(0.5, rel=1e-12)


def test_resonant_ac_hahn_phase():
    tau = 1e-3
    b = 1e-9
    m = FieldModel.of(SinusoidAC(b, 1 / (2 * tau), 0.0))
    got = signed_phase(m, sq.toggling(sq.hahn(2 * tau)))
    assert got == pytest.approx(4 * GAMMA_E * b * tau / math.pi, rel=1e-12)


def test_quasistatic_is_draw_times_signed_lengths():
    sigma = 2e-9
    m = FieldModel.of(QuasiStaticGaussian(sigma))
    tog = sq.toggling(sq.fid(1e-3))
    ph = signed_phase(m, tog, RNG, 11)
    draw = RNG.generator(11, 0).standard_normal()
    assert ph == pytest.approx(GAMMA_E * sigma * draw * 1e-3, rel=1e-12)


def test_zero_area_toggling_annihilates_static_offset():
    m = FieldModel.of(StaticOffset(5e-8))
    for times in ([0.5], [0.25, 0.75], [0.2, 0.5, 0.7, 1.0 - 1e-9]):
        tog = sq.toggling(sq.custom(list(times), 1.0))
        if abs(tog.signed_area()) < 1e-15:
            assert signed_phase(m, tog) == pytest.approx(0.0, abs=1e-20)
    # Hahn is exactly zero, not just approximately
    assert signed_phase(m, sq.toggling(sq.hahn(1.0))) == 0.0


def test_phase_linearity_over_components():
    tog = sq.toggling(sq.cpmg(3, 1e-3))
    det1 = FieldModel.of(Polynomial((1e-9, 2e-6)))
    det2 = FieldModel.of(SinusoidAC(3e-9, 1234.0, 0.3))
    # stochastic component occupies slot 0 in both the composite and the
    # single-component model, so it sees the same substream
    ou = OrnsteinUhlenbeck(1e-7, 1e-4)
    combo = FieldModel.of(ou, det1.components[0], det2.components[0])
    got = signed_phase(combo, tog, RNG, 3)
    parts = (
        signed_phase(FieldModel.of(ou), tog, RNG, 3)
        + signed_phase(det1, tog)
        + signed_phase(det2, tog)
    )
    assert got == pytest.approx(parts, rel=1e-12)


def test_ou_exact_sampler_vs_dense_trapezoid():
    """Exact joint sampling agrees with brute-force trapezoid integration of
    a finely stepped OU path, in mean and variance, for a toggled integral."""
    sigma, tau_c = 1e-7, 1e-4
    tau = tau_c
    tog = sq.toggling(sq.hahn(2 * tau))
    m = FieldModel.of(OrnsteinUhlenbeck(sigma, tau_c))
    n = 10_000
    exact = signed_phase_batch(m, tog, RNG, range(n))

    # independent trapezoid path at step tau_c / 1000
    rng = np.random.default_rng(99)
    steps_per_seg = 1000
    grid = np.linspace(0, 2 * tau, 2 * steps_per_seg + 1)
    dt = grid[1] - grid[0]
    decay = math.exp(-dt / tau_c)
    kick = sigma * math.sqrt(1 - decay**2)
    x = sigma * rng.standard_normal(n)
    s_of_t = np.where(grid[:-1] + dt / 2 < tau, 1.0, -1.0)
    acc = np.zeros(n)
    for j in range(grid.size - 1):
        x_next = x * decay + kick * rng.standard_normal(n)
        acc += s_of_t[j] * 0.5 * (x + x_next) * dt
        x = x_next
    trap = GAMMA_E * acc

    se_mean = np.std(exact, ddof=1) / math.sqrt(n) + np.std(trap, ddof=1) / math.sqrt(n)
    assert abs(exact.mean() - trap.mean()) < 3 * se_mean
    v1, v2 = exact.var(ddof=1), trap.var(ddof=1)
    se_var = math.sqrt(2 / (n - 1)) * (v1 + v2)
    assert abs(v1 - v2) < 3 * se_var


def test_ou_chi_matches_quadrature():
    from conftest import ou_chi_quadrature

    sigma, tau_c = 1e-7, 1e-4
    for tog in (sq.toggling(sq.hahn(3e-4)), sq.toggling(sq.cpmg(4, 8e-4))):
        assert ou_chi(tog, sigma, tau_c) == pytest.approx(
            ou_chi_quadrature(tog, sigma, tau_c), rel=1e-8
        )


def test_model_validation():
    with pytest.raises(ValueError):
        FieldModel(())
    with pytest.raises(ValueError):
        OrnsteinUhlenbeck(1e-9, 0.0)
    with pytest.raises(ValueError):
        QuasiStaticGaussian(-1e-9)
    with pytest.raises(ValueError):
        Polynomial(tuple([0.0] * 14))
    with pytest.raises(ValueError):
        NVParameters(t1=-1.0)


def test_quasi_static_ratio_diagnostic():
    m = FieldModel.of(OrnsteinUhlenbeck(1e-7, 1e-4))
    assert m.quasi_static_ratio() == pytest.approx(GAMMA_E * 1e-7 * 1e-4)
    assert math.isinf(FieldModel.of(StaticOffset(0.0)).quasi_static_ratio())

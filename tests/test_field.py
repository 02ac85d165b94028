import itertools
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from spindd import sequence as sq
from spindd.field import (
    CHUNK,
    GAMMA_E,
    FieldModel,
    NVParameters,
    OrnsteinUhlenbeck,
    Polynomial,
    QuasiStaticGaussian,
    RngSpec,
    SinusoidAC,
    StaticOffset,
    _ou_g,
    draw_normals,
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


# two stochastic slots around a deterministic one
_TWO_SLOTS = FieldModel.of(OrnsteinUhlenbeck(2e-7, 2e-5), StaticOffset(1e-8),
                          QuasiStaticGaussian(1e-8))


def test_trajectory_rows_do_not_depend_on_shot_count():
    # 300 shots draw 300 rows of chunk 0's stream; 2 CHUNK + 1 shots draw all
    # of chunk 0 and reach into chunks 1 and 2
    tog = sq.toggling(sq.cpmg(3, 1e-4))
    few = segment_phases(_TWO_SLOTS, tog, RNG, range(300))
    many = segment_phases(_TWO_SLOTS, tog, RNG, range(2 * CHUNK + 1))
    assert np.array_equal(few, many[:300])
    assert len({row.tobytes() for row in many}) == many.shape[0]


def test_rows_across_chunk_boundaries_in_any_order():
    tog = sq.toggling(sq.hahn(1e-4))
    indices = [CHUNK + 3, CHUNK - 1, 0, 2 * CHUNK]
    alone = {i: segment_phases(_TWO_SLOTS, tog, RNG, i)[0] for i in indices}
    for order in itertools.permutations(indices):
        rows = segment_phases(_TWO_SLOTS, tog, RNG, list(order))
        for i, row in zip(order, rows):
            assert np.array_equal(row, alone[i])
    # index CHUNK + 3 is row 3 of chunk 1's stream: the OU slot draws
    # 1 + 2 * 2 normals per row for Hahn's two segments
    ou_rows = draw_normals(_TWO_SLOTS, 2, RNG, [CHUNK + 3])[0]
    assert np.array_equal(ou_rows[0], RNG.generator(1, 0).standard_normal((4, 5))[3])


@pytest.mark.parametrize("first, n", [(0, 300), (CHUNK, CHUNK)])
def test_whole_chunk_draw_matches_the_row_gather(first, n):
    # rows 0..n-1 of one chunk in order take the chunk's draw as it is; the
    # same indices reversed go through the row gather
    idx = np.arange(first, first + n)
    whole = draw_normals(_TWO_SLOTS, 5, RNG, idx)
    gathered = draw_normals(_TWO_SLOTS, 5, RNG, idx[::-1])
    assert [a is None for a in whole] == [False, True, False]
    for a, b in zip(whole, gathered):
        if a is not None:
            assert a.flags.f_contiguous
            assert a.tobytes() == b[::-1].tobytes()


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
    # trajectory 11 is row 11 of chunk 0's stream, one normal per row
    draw = RNG.generator(0, 0).standard_normal((12, 1))[11, 0]
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


def _ou_reference(x):
    """(1 - e, c1, c2, sx (1 - e), e (1 - e), g) at x = L/tau_c, unit sigma and
    tau_c, from the textbook closed forms evaluated to 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        x = Decimal(float(x))
        e = (-x).exp()
        var = 2 * x - 3 + 4 * e - e * e
        sx = (1 - e * e).sqrt()
        c1 = (1 - e) ** 2 / sx
        return [float(v) for v in (1 - e, c1, (var - c1 * c1).sqrt(), sx * (1 - e),
                                   e * (1 - e), x - 1 + e)]


def test_ou_coefficients_match_50_digit_closed_forms():
    """The sampler's coefficients and g(x) = x - 1 + e^-x stay accurate when a
    segment is short against tau_c, where the closed forms cancel O(1) terms."""
    ou = OrnsteinUhlenbeck(1.0, 1.0)
    worst = np.zeros(6)
    for x in np.concatenate([np.logspace(-9, 1, 101), [0.0999, 0.1, 0.1001]]):
        # two segments of length x; the rows of the identity pick out each
        # coefficient: [m, e m], [c1, sx m], [c2, 0], ...
        out = ou.segment_integrals(np.array([0.0, x]), np.array([x, 2 * x]), np.eye(5))
        got = [out[0, 0], out[1, 0], out[2, 0], out[1, 1], out[0, 1], float(_ou_g(x))]
        worst = np.maximum(worst, np.abs(np.array(got) / _ou_reference(x) - 1.0))
    # measured: c2 6.4e-14 just above x = 0.1 (2x - 4 tanh(x/2) there), the
    # rest within 1.3e-15
    assert worst[2] < 2e-13
    assert np.all(np.delete(worst, 2) < 4e-15)


def _ou_chi_reference(tog, tau_c):
    with localcontext() as ctx:
        ctx.prec = 50
        bp = [Decimal(float(t)) for t in tog.breakpoints]
        tc = Decimal(tau_c)
        f = [1 - (-(b - a) / tc).exp() for a, b in zip(bp[:-1], bp[1:])]
        total = Decimal(0)
        for i, si in enumerate(tog.signs):
            total += 2 * tc * (bp[i + 1] - bp[i]) - 2 * tc * tc * f[i]
            for j in range(i + 1, len(f)):
                total += 2 * si * tog.signs[j] * tc * tc * f[i] * f[j] * (
                    -(bp[j] - bp[i + 1]) / tc).exp()
        return float(total)


def test_ou_chi_matches_50_digit_double_sum():
    for make in (sq.hahn, lambda T: sq.cpmg(8, T)):
        for ratio in np.logspace(-9, 1, 21):
            tog = sq.toggling(make(ratio))
            rel = abs(ou_chi(tog, 1.0, 1.0, 1.0) / _ou_chi_reference(tog, 1.0) - 1.0)
            # the signed double sum itself cancels to O(T/tau_c) of its terms
            # (measured 2.1e-6 at 3e-9, 1.2e-8 at 1e-6, 2e-14 at 1)
            assert rel < max(1e-13, 3e-14 / ratio), (ratio, rel)


def test_hahn_phase_variance_matches_ou_chi_for_slow_bath():
    # T/tau_c = 1e-6: each segment's conditional variance is ~1e-19 of the
    # O(1) terms its closed form cancels
    sigma, tau_c, T = 1e-6, 1.0, 1e-6
    tog = sq.toggling(sq.hahn(T))
    n = 20_000
    phases = signed_phase_batch(FieldModel.of(OrnsteinUhlenbeck(sigma, tau_c)), tog, RNG,
                                range(n))
    chi = ou_chi(tog, sigma, tau_c)
    # the sample variance has a relative standard error of sqrt(2/n) = 1 %
    assert np.var(phases) == pytest.approx(chi, rel=5 * math.sqrt(2 / n))


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

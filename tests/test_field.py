import dataclasses
import itertools
import math
import time
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest

from spindd import evolve, field as field_module, sequence as sq
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
    _C2_COEFS,
    _SERIES_BELOW,
    _ou_c2_sq,
    draw_normals,
    ou_chi,
    phase_map,
    phase_stream,
    segment_phases,
)
from spindd.sense import ReadoutModel
from conftest import signs

RNG = RngSpec(20240817)


def _draws(model, n_seg, shots):
    """The normals of trajectories 0..shots-1 over ``n_seg`` segments, drawn
    chunk by chunk: row i is trajectory i."""
    chunks = [draw_normals(model, n_seg, RNG, c, min(CHUNK, shots - c * CHUNK))
              for c in range(-(-shots // CHUNK))]
    return [None if d[0] is None else np.concatenate(d) for d in zip(*chunks)]


def _forward(model, tog, shots):
    """Signed phases of trajectories 0..shots-1 summed from the forward
    sampler's segment phases."""
    draws = _draws(model, len(tog.breakpoints) - 1, shots)
    return segment_phases(model, tog, draws, shots) @ np.asarray(signs(tog), dtype=float)


def _mapped(model, tog, shots):
    """Signed phases of trajectories 0..shots-1 through ``phase_map``."""
    c, weights = phase_map(model, tog.breakpoints)
    draws = _draws(model, len(tog.breakpoints) - 1, shots)
    return c + sum(d @ w for d, w in zip(draws, weights) if d is not None)


def _trajectory(model, tog, i):
    """Segment phases of trajectory ``i`` on its own: the last row of its
    chunk drawn up to it."""
    c, r = divmod(i, CHUNK)
    draws = draw_normals(model, len(tog.breakpoints) - 1, RNG, c, r + 1)
    return segment_phases(model, tog, draws, r + 1)[r]


def _row_gather(model, n_seg, indices):
    """Reference draw: each trajectory's normals read one at a time from row
    i % CHUNK of the stream (seed, i // CHUNK, slot)."""
    out = []
    for slot, comp in enumerate(model.components):
        if comp.n_normals_base == 0:
            out.append(None)
            continue
        count = comp.n_normals_base + comp.n_normals_per_segment * n_seg
        streams = {}
        rows = []
        for i in indices:
            c, r = divmod(int(i), CHUNK)
            if c not in streams:
                streams[c] = RNG.generator(c, slot).standard_normal((CHUNK, count))
            rows.append(streams[c][r])
        out.append(np.array(rows))
    return out


def test_trajectory_deterministic_per_index():
    """A trajectory's segment phases depend on its index alone, not on how
    many other trajectories share the draw."""
    mixed = FieldModel.of(
        StaticOffset(1e-8), QuasiStaticGaussian(1e-8), OrnsteinUhlenbeck(2e-7, 2e-5),
        Polynomial((1e-9, 2e-6)), SinusoidAC(3e-9, 1234.0, 0.3),
    )
    tog = sq.toggling(sq.cpmg(3, 1e-4))
    block = segment_phases(mixed, tog, _draws(mixed, len(tog.breakpoints) - 1, 50), 50)
    for i in range(50):
        assert np.array_equal(_trajectory(mixed, tog, i), block[i])
    assert len({row.tobytes() for row in block}) == 50


# two stochastic slots around a deterministic one
_TWO_SLOTS = FieldModel.of(OrnsteinUhlenbeck(2e-7, 2e-5), StaticOffset(1e-8),
                          QuasiStaticGaussian(1e-8))


def test_trajectory_rows_do_not_depend_on_shot_count():
    """A chunk drawn with 300 rows is the first 300 rows of the same chunk
    drawn whole, in every stochastic slot, and row r of chunk c is row r of
    the Philox stream (seed, c, slot)."""
    few = draw_normals(_TWO_SLOTS, 2, RNG, 1, 300)
    whole = draw_normals(_TWO_SLOTS, 2, RNG, 1, CHUNK)
    assert [d is None for d in whole] == [False, True, False]
    for slot, (a, b) in enumerate(zip(few, whole)):
        if b is None:
            continue
        assert a.flags.c_contiguous
        assert np.array_equal(a, b[:300])
        assert len({row.tobytes() for row in b}) == CHUNK
        # trajectory CHUNK + 3: the OU slot draws 1 + 2 * 2 normals a row for
        # Hahn's two segments, the quasi-static slot one
        assert np.array_equal(b[3], RNG.generator(1, slot).standard_normal((4, b.shape[1]))[3])
    # another chunk reads another stream
    assert not np.array_equal(draw_normals(_TWO_SLOTS, 2, RNG, 0, 300)[0], few[0])



def test_rows_across_chunk_boundaries_in_any_order():
    """Chunks drawn in any order give each trajectory the same row: a
    chunk's draw reads its own stream and no state another draw left."""
    tog = sq.toggling(sq.hahn(1e-4))
    indices = [CHUNK + 3, CHUNK - 1, 0, 2 * CHUNK]
    alone = {i: _trajectory(_TWO_SLOTS, tog, i) for i in indices}
    for order in itertools.permutations(range(3)):
        rows = {}
        for c in order:
            draws = draw_normals(_TWO_SLOTS, 2, RNG, c, CHUNK)
            phases = segment_phases(_TWO_SLOTS, tog, draws, CHUNK)
            rows.update((i, phases[i - c * CHUNK]) for i in indices if i // CHUNK == c)
        for i in indices:
            assert np.array_equal(rows[i], alone[i])
    # index CHUNK + 3 is row 3 of chunk 1's stream: the OU slot draws
    # 1 + 2 * 2 normals per row for Hahn's two segments
    ou_rows = draw_normals(_TWO_SLOTS, 2, RNG, 1, 4)[0]
    assert np.array_equal(ou_rows[3], RNG.generator(1, 0).standard_normal((4, 5))[3])


@pytest.mark.parametrize("first, n", [(0, 300), (CHUNK, CHUNK)])
def test_whole_chunk_draw_matches_the_row_gather(first, n):
    # the first n rows of the chunk holding trajectory ``first`` are those
    # trajectories' rows read one at a time, in reverse, from the chunk's
    # stream
    idx = np.arange(first, first + n)
    whole = draw_normals(_TWO_SLOTS, 5, RNG, first // CHUNK, n)
    gathered = _row_gather(_TWO_SLOTS, 5, idx[::-1])
    assert [a is None for a in whole] == [False, True, False]
    for a, b in zip(whole, gathered):
        if a is not None:
            assert a.flags.c_contiguous
            assert a.tobytes() == b[::-1].tobytes()


# --- signed phase ----------------------------------------------------------


def test_static_term_fully_refocused_by_hahn():
    m = FieldModel.of(Polynomial((3.7e-9,)))
    assert phase_map(m, sq.toggling(sq.hahn(2.0)).breakpoints) == (0.0, [None])


def test_linear_term_hahn_matches_closed_form_and_eq3_ratio():
    a1 = 1e-9
    tau = 0.37
    tog = sq.toggling(sq.hahn(2 * tau))
    m = FieldModel.of(Polynomial((0.0, a1)))
    got = phase_map(m, tog.breakpoints)[0]
    assert got == pytest.approx(-GAMMA_E * a1 * tau**2, rel=1e-12)
    fid_phase = phase_map(m, sq.toggling(sq.fid(2 * tau)).breakpoints)[0]
    assert abs(got / fid_phase) == pytest.approx(0.5, rel=1e-12)


def test_resonant_ac_hahn_phase():
    tau = 1e-3
    b = 1e-9
    m = FieldModel.of(SinusoidAC(b, 1 / (2 * tau), 0.0))
    got = phase_map(m, sq.toggling(sq.hahn(2 * tau)).breakpoints)[0]
    assert got == pytest.approx(4 * GAMMA_E * b * tau / math.pi, rel=1e-12)


def test_quasistatic_is_draw_times_signed_lengths():
    sigma = 2e-9
    m = FieldModel.of(QuasiStaticGaussian(sigma))
    tog = sq.toggling(sq.fid(1e-3))
    # trajectory 11 is row 11 of chunk 0's stream, one normal per row
    draw = RNG.generator(0, 0).standard_normal((12, 1))[11, 0]
    for phase in (_forward, _mapped):
        ph = phase(m, tog, 12)[11]
        assert ph == pytest.approx(GAMMA_E * sigma * draw * 1e-3, rel=1e-12)


def test_zero_area_toggling_annihilates_static_offset():
    m = FieldModel.of(StaticOffset(5e-8))
    for times in ([0.5], [0.25, 0.75], [0.2, 0.5, 0.7, 1.0 - 1e-9]):
        tog = sq.toggling(sq.custom(list(times), 1.0))
        if abs(np.dot(signs(tog), np.diff(tog.breakpoints))) < 1e-15:
            assert phase_map(m, tog.breakpoints)[0] == pytest.approx(0.0, abs=1e-20)
    # Hahn is exactly zero, not just approximately
    assert phase_map(m, sq.toggling(sq.hahn(1.0)).breakpoints)[0] == 0.0


def test_phase_linearity_over_components():
    tog = sq.toggling(sq.cpmg(3, 1e-3))
    det1 = FieldModel.of(Polynomial((1e-9, 2e-6)))
    det2 = FieldModel.of(SinusoidAC(3e-9, 1234.0, 0.3))
    # stochastic component occupies slot 0 in both the composite and the
    # single-component model, so it sees the same substream
    ou = OrnsteinUhlenbeck(1e-7, 1e-4)
    combo = FieldModel.of(ou, det1.components[0], det2.components[0])
    for phase in (_forward, _mapped):
        got = phase(combo, tog, 4)[3]
        parts = (phase(FieldModel.of(ou), tog, 4)[3]
                 + phase_map(det1, tog.breakpoints)[0] + phase_map(det2, tog.breakpoints)[0])
        assert got == pytest.approx(parts, rel=1e-12)


def test_phase_map_matches_forward_sampler():
    """The linear map gives each trajectory the phase the forward sampler
    sums, for segments short and long against tau_c, in every chunk of a
    run of three."""
    # every component type, with two OU baths
    model = FieldModel.of(
        StaticOffset(1e-8), QuasiStaticGaussian(1e-8), OrnsteinUhlenbeck(2e-7, 2e-5),
        Polynomial((1e-9, 2e-6, -3e-3)), SinusoidAC(3e-9, 1234.0, 0.3),
        OrnsteinUhlenbeck(5e-8, 3e-3))
    shots = 2 * CHUNK + 8
    for seq in (sq.fid(1e-4), sq.hahn(3e-4), sq.cpmg(8, 8e-4), sq.cpmg(90, 6e-3),
                sq.custom([0.1, 0.35, 0.4, 0.9], 1.0).scaled(2e-9),
                sq.custom([0.1, 0.35, 0.4, 0.9], 1.0).scaled(2.0)):
        tog = sq.toggling(seq)
        ref = _forward(model, tog, shots)
        got = _mapped(model, tog, shots)
        rms = math.sqrt(np.mean(ref**2))
        # measured 1.2e-15 of the RMS phase at most
        assert np.max(np.abs(got - ref)) <= 1e-14 * rms, seq


def test_phase_map_over_a_grid_equals_each_row():
    """A pattern mapped on a whole grid at once gives every time the constant
    and weights of its own one-row map, bit for bit."""
    model = FieldModel.of(
        StaticOffset(1e-8), QuasiStaticGaussian(1e-8), OrnsteinUhlenbeck(2e-7, 2e-5),
        Polynomial((1e-9, 2e-6, -3e-3)), SinusoidAC(3e-9, 1234.0, 0.3),
        OrnsteinUhlenbeck(5e-8, 3e-3))
    times = np.geomspace(1e-9, 2.0, 13)
    for pattern in (sq.hahn(1.0), sq.cpmg(90, 1.0), sq.custom([0.1, 0.35, 0.4, 0.9], 1.0)):
        c, weights = phase_map(model, sq.on_grid(pattern, times))
        assert c.shape == times.shape
        for i, T in enumerate(times):
            c_row, weights_row = phase_map(model, sq.toggling(pattern.scaled(T)).breakpoints)
            assert np.array_equal(c[i], c_row), (pattern.kind, T)
            for w, w_row in zip(weights, weights_row):
                assert (w is None) == (w_row is None)
                if w is not None:
                    assert np.array_equal(w[i], w_row), (pattern.kind, T)


def test_segment_phases_over_a_grid_equals_each_row():
    """A pattern's segment phases on a whole grid at once give every time
    the phases of its own one-row call, bit for bit: the OU's state is
    carried per time, and a deterministic model draws nothing."""
    every_kind = FieldModel.of(
        StaticOffset(1e-8), QuasiStaticGaussian(1e-8), OrnsteinUhlenbeck(2e-7, 2e-5),
        Polynomial((1e-9, 2e-6, -3e-3)), SinusoidAC(3e-9, 1234.0, 0.3),
        OrnsteinUhlenbeck(5e-8, 3e-3))
    deterministic = FieldModel.of(StaticOffset(1e-8), Polynomial((1e-9, 2e-6)),
                                  SinusoidAC(3e-9, 1234.0, 0.3))
    times = np.geomspace(1e-9, 2.0, 12)
    rows = 50
    for model in (every_kind, deterministic):
        for pattern in (sq.hahn(1.0), sq.cpmg(133, 1.0),
                        sq.custom([0.1, 0.35, 0.4, 0.9], 1.0)):
            n_seg = pattern.n_pulses + 1
            draws = draw_normals(model, n_seg, RNG, 0, rows)
            assert model.is_stochastic() or draws == [None] * 3
            bp = sq.on_grid(pattern, times)
            grid = segment_phases(model, sq.TogglingFunction(bp), draws, rows)
            assert grid.shape == (times.size, rows, n_seg)
            for i, T in enumerate(times):
                row = segment_phases(model, sq.toggling(pattern.scaled(T)), draws, rows)
                assert np.array_equal(grid[i], row), (pattern.kind, T)
            # any leading axes
            lead = segment_phases(model, sq.TogglingFunction(bp.reshape(3, 4, -1)), draws, rows)
            assert np.array_equal(lead, grid.reshape(3, 4, rows, n_seg))


def test_segment_phases_sum_the_components_in_their_order():
    """The sum starts from a component's own phases, not from zeros, and
    adds the components in the model's order, deterministic ones between
    stochastic ones too: bit for bit the zero-filled sum of each
    component's phases alone."""
    det, qs, ou = StaticOffset(-3e-8), QuasiStaticGaussian(1e-8), OrnsteinUhlenbeck(2e-7, 2e-5)
    poly = Polynomial((1e-9, 2e-6, -3e-3))
    bp = sq.on_grid(sq.cpmg(9, 1.0), np.geomspace(1e-6, 1e-3, 4))
    rows = 30
    for comps in ((det, ou, poly), (det, poly, qs, ou), (ou, det, qs, poly), (det, poly),
                  (qs, det, poly), (ou, poly, det, qs)):
        model = FieldModel(comps)
        draws = draw_normals(model, 10, RNG, 0, rows)
        want = np.zeros(bp.shape[:-1] + (rows, 10))
        for comp, d in zip(comps, draws):
            want += segment_phases(FieldModel.of(comp), sq.TogglingFunction(bp), [d], rows)
        got = segment_phases(model, sq.TogglingFunction(bp), draws, rows)
        assert got.tobytes() == want.tobytes(), comps


def test_phase_stream_yields_the_collected_phases(monkeypatch):
    """Each segment's phases as the stream yields them, with no array for
    every segment, are segment_phases' columns bit for bit, for each kind of
    component in any order and with leading axes; a deterministic model's
    are one row for all.  segment_phases carries the OU state through runs
    of one segment, of 4 with a shorter last, and of all 10."""
    det, qs, ou = StaticOffset(-3e-8), QuasiStaticGaussian(1e-8), OrnsteinUhlenbeck(2e-7, 2e-5)
    poly, ac = Polynomial((1e-9, 2e-6, -3e-3)), SinusoidAC(3e-9, 1234.0, 0.3)
    bp = sq.on_grid(sq.cpmg(9, 1.0), np.geomspace(1e-6, 1e-3, 4))
    rows = 30
    for stream_words, comps in itertools.product(
            [2**7, 2**9, 2**13],
            [(ou,), (det, ou, poly), (det, poly, qs, ou, ac), (ou, det, qs, poly),
             (qs, ou, OrnsteinUhlenbeck(5e-8, 3e-3)), (det, poly, ac)]):
        monkeypatch.setattr(field_module, "STREAM_WORDS", stream_words)
        model = FieldModel(comps)
        draws = draw_normals(model, 10, RNG, 0, rows)
        stream = list(phase_stream(model, bp, draws, rows))
        assert all(ph.shape == (4, rows if model.is_stochastic() else 1) for ph in stream)
        collected = segment_phases(model, sq.TogglingFunction(bp), draws, rows)
        assert np.array_equal(np.broadcast_to(np.stack(stream, axis=-1), collected.shape),
                              collected), (stream_words, comps)


def test_ou_c2_sq_takes_each_form_where_the_select_took_it():
    """Each x is summed in the one form it takes, bit for bit the select of
    both forms over every x, on both sides of _SERIES_BELOW and with leading
    axes."""

    def select(x):
        xs = np.minimum(x, _SERIES_BELOW)
        small = np.zeros_like(xs)
        for c in reversed(_C2_COEFS):
            small = small * xs + c
        small = small * xs**3 / (1.0 + np.exp(-xs))
        return np.where(x < _SERIES_BELOW, small, 2.0 * x - 4.0 * np.tanh(0.5 * x))

    edge = np.nextafter(_SERIES_BELOW, [0.0, 1.0])
    x = np.concatenate([np.logspace(-12, 3, 400), edge, [0.0, _SERIES_BELOW, np.inf]])
    for shaped in (x, x.reshape(3, 5, 27), x[:1].reshape(())):
        got, want = _ou_c2_sq(shaped), select(shaped)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert np.isnan(_ou_c2_sq(np.array([np.nan, 0.05])))[0]


@pytest.mark.parametrize("x", [np.logspace(-12, -1.5, 50), np.logspace(-0.9, 3, 50),
                               np.logspace(-12, 3, 50), np.array([]),
                               np.logspace(-12, 3, 50).reshape(5, 10)],
                         ids=["all_small", "all_large", "mixed", "empty", "leading_axes"])
def test_ou_c2_sq_takes_only_the_forms_its_x_need(x):
    # each form was taken on an empty array where no x needed it: the series
    # on every decay_hahn segment, the closed form on every spin-lock step
    def both_forms(x):
        small, out = x < _SERIES_BELOW, np.empty_like(x)
        xs, xl = x[small], x[~small]
        series = np.zeros_like(xs)
        for c in reversed(_C2_COEFS):
            series = series * xs + c
        out[small] = series * xs**3 / (1.0 + np.exp(-xs))
        out[~small] = 2.0 * xl - 4.0 * np.tanh(0.5 * xl)
        return out

    got, want = _ou_c2_sq(x), both_forms(x)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _ou_block_map(ou, a, b):
    """M with (X, xi1_0, xi2_0, ..., xi2_{B-1}) @ M the integrals of the B
    segments [a, b] and X at their end, from X at their start: X entering
    segment i is sum_{k<=i} g_k e^(S_k - S_i), g = (X, sx_0 xi1_0, ...), S
    summing x from 0 at the block's start, so no error grows in S past it."""
    _, m, c1, c2, sx = ou._coefficients(a, b)
    n, s = a.shape[-1], np.insert(np.cumsum((b - a) / ou.tau_c, axis=-1), 0, 0.0, axis=-1)
    lag = np.where(np.tri(n + 1, dtype=bool).T, s[..., None, :] - s[..., :, None], np.inf)
    g, mx = np.insert(sx, 0, 1.0, axis=-1), np.insert(m, n, 1.0, axis=-1)
    mb = np.zeros(a.shape[:-1] + (1 + 2 * n, n + 1))
    # integral i is m_i X_i + c1_i xi1_i + c2_i xi2_i; column n = B is X_B
    mb[..., np.r_[0, 1:2 * n:2], :] = np.exp(-lag) * g[..., :, None] * mx[..., None, :]
    i = np.arange(n)  # xi1_i's row is 0 at column i before c1_i
    mb[..., 1 + 2 * i, i], mb[..., 2 + 2 * i, i] = c1, c2
    return mb


def _ou_block_integrals(ou, a, b, draws, block=64):
    """The OU segment integrals by one matrix product per block of
    ``block`` segments, each block's end value chained into the next: a
    reference for the forward recurrence that shares only its
    coefficients."""
    out = np.empty((draws.shape[0], a.size))
    field = ou.sigma_b * draws[:, 0]  # stationary start
    for lo in range(0, a.size, block):
        hi = lo + block
        mb = _ou_block_map(ou, a[lo:hi], b[lo:hi])
        part = draws[:, 1 + 2 * lo:1 + 2 * hi] @ mb[1:] + field[:, None] * mb[0]
        out[:, lo:hi], field = part[:, :-1], part[:, -1]
    return out


@pytest.mark.parametrize("n", [63, 64, 65, 129])
def test_ou_block_map_matches_the_forward_loop(n):
    """Segment phases from the forward recurrence, one segment at a time,
    equal those of one matrix product per block of 64 segments, for
    segments from 1e-9 to 1e3 tau_c (where e^-x underflows), on either side
    of a block boundary."""
    ou = OrnsteinUhlenbeck(2e-7, 2e-5)
    draws = np.random.default_rng(n).standard_normal((200, 1 + 2 * n))
    for ratio in np.logspace(-9, 3, 25):
        # CPMG-like: half-length segments at both ends
        lengths = np.full(n, ratio * ou.tau_c)
        lengths[[0, -1]] *= 0.5
        bp = np.concatenate([[0.0], np.cumsum(lengths)])
        ref = GAMMA_E * _ou_block_integrals(ou, bp[:-1], bp[1:], draws)
        got = segment_phases(FieldModel.of(ou), sq.TogglingFunction(bp), [draws], 200)
        rms = math.sqrt(np.mean(ref**2))
        # measured 3.2e-14 of the RMS phase at most, at 129 segments of
        # 1e-7 tau_c: the rounding of either side, which grows with the
        # number of segments the recurrence chains
        assert np.max(np.abs(got - ref)) <= 1e-13 * rms, ratio


def _ou_adjoint_loop(ou, a, b, signs):
    """The OU phase weights of ``phase_weights`` by the backward recurrence
    A_i = signs_i m_i + e_i A_{i+1}, one segment at a time over the leading
    axes: the reference for the doubling pass."""
    e, m, c1, c2, sx = ou._coefficients(a, b)
    w = np.empty(a.shape[:-1] + (1 + 2 * a.shape[-1],))
    w[..., 2::2] = signs * c2
    acc = 0.0
    for i in reversed(range(a.shape[-1])):
        w[..., 1 + 2 * i] = signs[i] * c1[..., i] + sx[..., i] * acc
        acc = signs[i] * m[..., i] + e[..., i] * acc
    w[..., 0] = ou.sigma_b * acc
    return w


@pytest.mark.parametrize("tau_c", [20e-9, 25e-6, 1e-3])
def test_ou_phase_weights_match_the_backward_loop(tau_c):
    """The doubling pass gives every time of a CPMG-2e4 grid the variance
    chi and the covariances w_T . w_T' of the backward loop, for segments of
    7.5e-6 to 15 tau_c."""
    ou = OrnsteinUhlenbeck(59.22345e-9, tau_c)
    bp = sq.on_grid(sq.cpmg(20_000, 1.0), [0.3e-3, 2e-3, 6e-3])
    a, b = bp[:, :-1], bp[:, 1:]
    alternating = np.where(np.arange(a.shape[-1]) % 2, -1.0, 1.0)
    got = phase_map(FieldModel.of(ou), bp)[1][0]
    ref = GAMMA_E * _ou_adjoint_loop(ou, a, b, alternating)
    # measured 2.2e-16 on chi and 0 on the Gram entries at most; a weight
    # that cancels, such as w_0 = sigma A_0 at tau_c = 1 ms, moves by more of
    # itself, far below chi's rounding
    chi, chi_ref = np.sum(got * got, axis=1), np.sum(ref * ref, axis=1)
    assert np.all(np.abs(chi - chi_ref) <= 1e-14 * chi_ref), chi / chi_ref - 1
    gram, gram_ref = got @ got.T, ref @ ref.T
    assert np.all(np.abs(gram - gram_ref) <= 1e-14 * np.abs(gram_ref)), gram / gram_ref - 1


def test_ou_phase_weights_of_many_segments_take_one_pass():
    """A CPMG-1e5 map on 2 times takes one vectorized pass, not a Python
    step per segment (measured 0.057 s; the per-segment loop took 0.90 to
    1.10 s on the same 2 vCPU host)."""
    model = FieldModel.of(OrnsteinUhlenbeck(59.22345e-9, 25e-6))
    bp = sq.on_grid(sq.cpmg(100_000, 1.0), [1e-3, 6e-3])
    walls = []
    for _ in range(3):
        t0 = time.perf_counter()
        phase_map(model, bp)
        walls.append(time.perf_counter() - t0)
    assert min(walls) < 0.25, walls


def test_ou_exact_sampler_vs_dense_trapezoid():
    """Exact joint sampling agrees with brute-force trapezoid integration of
    a finely stepped OU path, in mean and variance, for a toggled integral."""
    sigma, tau_c = 1e-7, 1e-4
    tau = tau_c
    tog = sq.toggling(sq.hahn(2 * tau))
    m = FieldModel.of(OrnsteinUhlenbeck(sigma, tau_c))
    n = 10_000
    exact = _forward(m, tog, n)

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
    """The sampler's coefficients and a single segment's ou_chi stay accurate
    when a segment is short against tau_c, where the closed forms cancel O(1)
    terms."""
    ou = OrnsteinUhlenbeck(1.0, 1.0)
    worst = np.zeros(6)
    for x in np.concatenate([np.logspace(-9, 1, 101), [0.0999, 0.1, 0.1001]]):
        # two segments of length x; the rows of the identity pick out each
        # coefficient: [m, e m], [c1, sx m], [c2, 0], ...
        out = segment_phases(FieldModel.of(ou), sq.TogglingFunction([0.0, x, 2 * x]),
                             [np.eye(5)], 5, 1.0)
        # a single segment's ou_chi is 2 g(x), g(x) = x - 1 + e^-x
        got = [out[0, 0], out[1, 0], out[2, 0], out[1, 1], out[0, 1],
               ou_chi(sq.toggling(sq.fid(x)), 1.0, 1.0, 1.0) / 2]
        worst = np.maximum(worst, np.abs(np.array(got) / _ou_reference(x) - 1.0))
    # measured: c2 6.4e-14 just above x = 0.1 (2x - 4 tanh(x/2) there),
    # ou_chi 2.3e-15, the rest within 4.5e-16
    assert worst[2] < 2e-13
    assert np.all(np.delete(worst, 2) < 4e-15)


def test_ou_chi_matches_50_digit_double_sum():
    from conftest import ou_chi_double_sum

    custom = sq.custom([0.1, 0.35, 0.4, 0.9], 1.0)
    for pattern in (sq.hahn(1.0), sq.cpmg(8, 1.0), sq.cpmg(90, 1.0), custom):
        for ratio in np.logspace(-9, 1, 21):
            tog = sq.toggling(pattern.scaled(ratio))
            rel = abs(ou_chi(tog, 1.0, 1.0, 1.0) / ou_chi_double_sum(tog, 1.0, 1.0, 1.0) - 1.0)
            # a sum of squares, with nothing to cancel (measured 6.2e-14 at
            # most, for CPMG-90 segments just above c2's series range)
            assert rel < 2e-13, (pattern.kind, pattern.n_pulses, ratio, rel)


def test_hahn_phase_variance_matches_ou_chi_for_slow_bath():
    # T/tau_c = 1e-6: each segment's conditional variance is ~1e-19 of the
    # O(1) terms its closed form cancels
    sigma, tau_c, T = 1e-6, 1.0, 1e-6
    tog = sq.toggling(sq.hahn(T))
    n = 20_000
    phases = _forward(FieldModel.of(OrnsteinUhlenbeck(sigma, tau_c)), tog, n)
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
    with pytest.raises(ValueError, match="64 bits"):
        RngSpec(2**64)
    with pytest.raises(ValueError, match="requires an RngSpec"):
        draw_normals(FieldModel.of(QuasiStaticGaussian(1e-9)), 1, None, 0, 10)


def test_a_zero_frequency_sinusoid_is_the_static_field_b_sin_phi0():
    b, phi0 = 3e-9, 0.7
    ac = SinusoidAC(b, 0.0, phi0)
    a, t = np.array([0.0, 0.3, 0.5]), np.array([0.3, 0.5, 1.0])
    assert ac.segment_integrals(a, t).tolist() == (b * math.sin(phi0) * (t - a)).tolist()
    # a decay under it runs, deterministic, as under the equal static offset
    times = np.linspace(1e-4, 1e-3, 5)
    got = evolve.coherence_curve(FieldModel.of(ac), sq.fid(1.0), times, 100, None,
                                 apply_t1=False)
    want = evolve.coherence_curve(FieldModel.of(StaticOffset(b * math.sin(phi0))), sq.fid(1.0),
                                  times, 100, None, apply_t1=False)
    assert got.signal == pytest.approx(want.signal, rel=1e-12, abs=1e-15)


def test_segment_phases_scales_in_place():
    # a deterministic field adds one (n_seg,) row per component, so the
    # phases are the one (rows, n_seg) array the call holds
    model = FieldModel.of(StaticOffset(1e-6))
    tog = sq.toggling(sq.cpmg(199, 1e-3))
    draws = draw_normals(model, 200, None, 0, 500)
    tracemalloc.start()
    try:
        ph = segment_phases(model, tog, draws, 500)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * ph.nbytes, (peak, ph.nbytes)


_EVERY_KIND = (StaticOffset(1e-9), QuasiStaticGaussian(2e-9), OrnsteinUhlenbeck(3e-9, 4e-5),
               Polynomial((5e-9, 6e-6)), SinusoidAC(7e-9, 8e3, 0.9))


def test_digest_changes_with_every_field_of_every_component():
    base = FieldModel(_EVERY_KIND).digest()
    seen = {base}
    for i, comp in enumerate(_EVERY_KIND):
        for f in dataclasses.fields(comp):
            value = getattr(comp, f.name)
            new = value[:-1] + (2 * value[-1],) if isinstance(value, tuple) else 2 * value
            comps = list(_EVERY_KIND)
            comps[i] = dataclasses.replace(comp, **{f.name: new})
            seen.add(FieldModel(tuple(comps)).digest())
    # one digest per changed field, none equal to the base
    assert len(seen) == 1 + sum(len(dataclasses.fields(c)) for c in _EVERY_KIND)
    # a component's class is part of it: equal field values, another kind
    assert (FieldModel.of(StaticOffset(1e-9)).digest()
            != FieldModel.of(QuasiStaticGaussian(1e-9)).digest())


def test_digest_of_equal_models_is_equal_and_ordered():
    f = np.float64
    as_numpy = (StaticOffset(f(1e-9)), QuasiStaticGaussian(f(2e-9)),
                OrnsteinUhlenbeck(f(3e-9), f(4e-5)), Polynomial((f(5e-9), f(6e-6))),
                SinusoidAC(f(7e-9), f(8e3), f(0.9)))
    assert FieldModel(as_numpy) == FieldModel(_EVERY_KIND)
    assert FieldModel(as_numpy).digest() == FieldModel(_EVERY_KIND).digest()
    # an np.int64 raised a TypeError, and an int hashed apart from its float
    ints = {FieldModel.of(StaticOffset(b)).digest() for b in (1, 1.0, np.int64(1))}
    assert len(ints) == 1
    assert FieldModel(_EVERY_KIND[::-1]).digest() != FieldModel(_EVERY_KIND).digest()


@pytest.mark.parametrize("make", [
    lambda: OrnsteinUhlenbeck(math.nan, 1e-5),
    lambda: OrnsteinUhlenbeck(1e-7, math.nan),
    lambda: QuasiStaticGaussian(math.nan),
    lambda: NVParameters(t1=math.nan),
    lambda: ReadoutModel(photons_per_shot=math.nan, contrast=0.3),
    lambda: ReadoutModel(0.1, 0.3, overhead=math.nan),
    lambda: sq.hahn(math.nan),
    lambda: sq.cpmg(3, math.nan),
    lambda: sq.fid(math.nan),
    lambda: sq.custom([math.nan], 1.0),
], ids=["ou_sigma_b", "ou_tau_c", "quasi_static_sigma_b", "nv_t1", "readout_photons_per_shot",
        "readout_overhead", "hahn_total_time", "cpmg_total_time", "fid_total_time",
        "custom_pulse_time"])
def test_nan_parameters_are_refused(make):
    # NaN fails every comparison, so a check must refuse what is not in range
    with pytest.raises(ValueError):
        make()


def test_quasi_static_ratio_diagnostic():
    m = FieldModel.of(OrnsteinUhlenbeck(1e-7, 1e-4))
    assert m.quasi_static_ratio(GAMMA_E) == pytest.approx(GAMMA_E * 1e-7 * 1e-4)
    assert math.isinf(FieldModel.of(StaticOffset(0.0)).quasi_static_ratio(GAMMA_E))

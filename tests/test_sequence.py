import numpy as np
import pytest

from spindd import sequence as sq
from spindd.config import parse_times


def test_cpmg_times_examples():
    assert sq.cpmg_times(1, 2.0) == [1.0]
    assert sq.cpmg_times(4, 1.0) == [0.125, 0.375, 0.625, 0.875]
    assert sq.cpmg_times(2, 8.0) == [2.0, 6.0]


def test_cpmg_times_rejects_zero_pulses():
    with pytest.raises(ValueError):
        sq.cpmg_times(0, 1.0)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 33])
def test_cpmg_times_symmetric_about_midpoint(n):
    T = 1.7
    t = sq.cpmg_times(n, T)
    for j in range(n):
        assert t[j] + t[n - 1 - j] == pytest.approx(T, rel=1e-15)


def test_toggling_hahn():
    tog = sq.toggling(sq.hahn(2.0))
    assert tog.breakpoints == (0.0, 1.0, 2.0)
    assert tog.signs == (1, -1)
    assert tog.signed_area() == 0.0


def test_toggling_cpmg2():
    tog = sq.toggling(sq.cpmg(2, 1.0))
    assert tog.breakpoints == (0.0, 0.25, 0.75, 1.0)
    assert tog.signs == (1, -1, 1)
    assert tog.signed_area() == 0.0


def test_toggling_fid():
    tog = sq.toggling(sq.fid(3.0))
    assert tog.signs == (1,)
    assert tog.signed_area() == 3.0


@pytest.mark.parametrize("n", range(1, 20))
def test_cpmg_toggling_has_n_flips_and_zero_area(n):
    tog = sq.toggling(sq.cpmg(n, 1.0))
    flips = sum(a != b for a, b in zip(tog.signs, tog.signs[1:]))
    assert flips == n
    assert abs(tog.signed_area()) < 1e-15


# the decay, pulse-error and thread-check grids of the benchmark workloads
_BENCH_GRIDS = [
    {"start": "0.3 ms", "stop": "6 ms", "count": 12},
    {"start": "0.06 ms", "stop": "0.86 ms", "count": 10},
    {"start": "0.1 ms", "stop": "1 ms", "count": 8},
    {"start": "0.5 ms", "stop": "3 ms", "count": 6},
]
# the sense totals 2 n tau: Hahn at tau = 115 us, CPMG-10 at 27 us
_SENSE_TOTALS = [2 * 1 * 115e-6, 2 * 10 * 27e-6]


def test_scaled_pattern_is_the_sequence_built_at_that_time():
    # config reads a pattern at total time 1 and the runners rescale it; the
    # rescaled pulses must be the ones each constructor places, bit for bit
    times = np.concatenate([parse_times(g) for g in _BENCH_GRIDS])
    times = np.concatenate([times, _SENSE_TOTALS, np.geomspace(1e-9, 10, 11)])
    fractions = (0.1, 0.25, 1 / 3, 0.7, 0.999)
    cpmg = {n: sq.cpmg(n, 1.0) for n in list(range(1, 120)) + [256]}
    for T in times:
        assert sq.fid(1.0).scaled(T) == sq.fid(T)
        assert sq.hahn(1.0).scaled(T) == sq.hahn(T)
        assert sq.custom(fractions, 1.0).scaled(T) == sq.custom([f * T for f in fractions], T)
        for n, pattern in cpmg.items():
            assert pattern.scaled(T) == sq.cpmg(n, T), (n, T)


def test_scaled_keeps_kind_and_pulse_count():
    for seq in (sq.fid(2.0), sq.hahn(2.0), sq.cpmg(5, 2.0), sq.custom([0.5, 1.5], 2.0)):
        again = seq.scaled(3e-4)
        assert (again.kind, again.n_pulses, again.total_time) == (seq.kind, seq.n_pulses, 3e-4)
    assert sq.custom([0.5, 1.5], 2.0).scaled(4.0).pi_pulse_times == (1.0, 3.0)
    with pytest.raises(ValueError):
        sq.hahn(1.0).scaled(0.0)


def test_custom_sequence_validation():
    with pytest.raises(ValueError):
        sq.custom([0.5, 0.2], 1.0)
    with pytest.raises(ValueError):
        sq.custom([1.5], 1.0)

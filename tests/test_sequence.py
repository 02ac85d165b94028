import numpy as np
import pytest

from spindd import sequence as sq


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


def test_echo_times():
    tau = 1.0
    assert sq.echo_times(sq.cpmg(3, 6 * tau)) == pytest.approx([2.0, 4.0, 6.0])
    assert sq.echo_times(sq.cpmg(1, 2 * tau)) == pytest.approx([2.0])
    assert sq.echo_times(sq.cpmg(2, 4e-3)) == pytest.approx([2e-3, 4e-3])
    with pytest.raises(ValueError):
        sq.echo_times(sq.fid(1.0))


def test_sequence_roundtrip_bit_exact():
    seq = sq.cpmg(7, 3.1e-3)
    again = sq.PulseSequence.from_dict(seq.to_dict())
    assert again.pi_pulse_times == seq.pi_pulse_times
    assert again == seq
    tog1, tog2 = sq.toggling(seq), sq.toggling(again)
    assert tog1.breakpoints == tog2.breakpoints


def test_custom_sequence_validation():
    with pytest.raises(ValueError):
        sq.custom([0.5, 0.2], 1.0)
    with pytest.raises(ValueError):
        sq.custom([1.5], 1.0)

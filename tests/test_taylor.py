from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from spindd import taylor
from spindd.sequence import cpmg_times


def test_hahn_factor_values():
    assert taylor.hahn_factor(0) == 0
    assert taylor.hahn_factor(1) == Fraction(1, 2)
    assert taylor.hahn_factor(3) == Fraction(7, 8)
    with pytest.raises(ValueError):
        taylor.hahn_factor(-1)


def test_cpmg_factor_values():
    assert taylor.cpmg_factor(2, 0) == 0
    assert taylor.cpmg_factor(3, 1) == Fraction(-1, 18)
    assert taylor.cpmg_factor(2, 2) == Fraction(3, 16)
    with pytest.raises(ValueError):
        taylor.cpmg_factor(0, 1)
    with pytest.raises(ValueError, match="order k"):
        taylor.cpmg_factor(2, -1)


def test_oracle_factor_values():
    assert taylor.oracle_factor([Fraction(1, 2)], 0) == 0
    assert taylor.oracle_factor([Fraction(1, 6), Fraction(1, 2), Fraction(5, 6)], 1) == Fraction(-1, 18)
    # signed convention: general formula at n=1 is the negative of the
    # magnitude form 1 - 2^-k
    assert taylor.oracle_factor([Fraction(1, 2)], 2) == Fraction(-3, 4)
    assert abs(taylor.oracle_factor([Fraction(1, 2)], 2)) == taylor.hahn_factor(2)


def test_oracle_rejects_bad_times():
    with pytest.raises(ValueError):
        taylor.oracle_factor([Fraction(1, 2), Fraction(1, 3)], 1)
    with pytest.raises(ValueError):
        taylor.oracle_factor([Fraction(3, 2)], 1)
    with pytest.raises(ValueError, match="order k"):
        taylor.oracle_factor([Fraction(1, 2)], -1)


def test_oracle_equivalence_grid():
    for n in range(1, 33):
        times = [Fraction(2 * j - 1, 2 * n) for j in range(1, n + 1)]
        for k in range(0, 9):
            exact = taylor.cpmg_factor(n, k)
            assert exact == taylor.oracle_factor(times, k)
            # float path
            assert float(exact) == pytest.approx(
                float(taylor.oracle_factor(times, k)), rel=1e-12, abs=1e-15
            )


def test_hahn_magnitude_identity():
    for k in range(0, 13):
        assert abs(taylor.cpmg_factor(1, k)) == taylor.hahn_factor(k)


def test_monotone_suppression_in_n():
    # k = 1 is special: even pulse counts cancel the linear channel exactly,
    # so the magnitude alternates 0 / nonzero; monotonicity holds along the
    # odd subsequence (and the even one is identically zero)
    odd = [abs(taylor.cpmg_factor(n, 1)) for n in range(1, 33, 2)]
    assert all(a >= b for a, b in zip(odd, odd[1:]))
    assert all(taylor.cpmg_factor(n, 1) == 0 for n in range(2, 33, 2))
    for k in range(2, 9):
        mags = [abs(taylor.cpmg_factor(n, k)) for n in range(1, 33)]
        assert all(a >= b for a, b in zip(mags, mags[1:]))


@given(
    st.lists(st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(999, 1000)),
             min_size=1, max_size=9, unique=True)
)
def test_static_annihilation_for_zero_area_patterns(times):
    times = sorted(times)
    # zero signed area <=> oracle at k = 0 vanishes; check the implication
    bounds = [Fraction(0)] + times + [Fraction(1)]
    area = sum(
        (-1) ** i * (b - a) for i, (a, b) in enumerate(zip(bounds, bounds[1:]))
    )
    factor = taylor.oracle_factor(times, 0)
    assert factor == area  # k = 0 factor IS the signed area on the unit interval
    if area == 0:
        assert factor == 0


def test_suppression_table_shape():
    table = taylor.suppression_table(8, 4)
    assert isinstance(table, list) and len(table) == 40
    assert [row[:2] for row in table] == [(n, k) for n in range(1, 9) for k in range(5)]
    assert table[1] == (1, 1, -1, 2)


def test_suppression_table_equals_cpmg_factor_entry_by_entry():
    table = taylor.suppression_table(64, 12)
    assert [(n, k) for n, k, _, _ in table] == [(n, k) for n in range(1, 65) for k in range(13)]
    for n, k, num, den in table:
        assert Fraction(num, den) == taylor.cpmg_factor(n, k)
        assert gcd(num, den) == 1 and den > 0

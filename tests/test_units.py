import pytest

from spindd import units


def test_parses_common_suffixes():
    assert units.tesla("2 nT") == pytest.approx(2e-9)
    assert units.tesla("15 G") == pytest.approx(15e-4)
    assert units.seconds("115 us") == pytest.approx(115e-6)
    assert units.seconds("5.93 ms") == pytest.approx(5.93e-3)
    assert units.hertz("2.88 GHz") == pytest.approx(2.88e9)
    assert units.radians("90 deg") == pytest.approx(1.5707963267948966)


def test_rejects_bare_numbers_and_wrong_dimension():
    with pytest.raises(units.UnitError):
        units.tesla(5)
    with pytest.raises(units.UnitError, match="dimension"):
        units.tesla("3 us")
    with pytest.raises(units.UnitError):
        units.seconds("3 parsec")
    with pytest.raises(units.UnitError):
        units.seconds("abc ms")
    # non-strings and values that overflow to infinity
    for bad in (None, ["3 ms"], {"value": 3}, "1e999 s", "1e309 us"):
        with pytest.raises(units.UnitError):
            units.seconds(bad)
    with pytest.raises(units.UnitError, match="non-finite"):
        units.hertz("1e308 GHz")

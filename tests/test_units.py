import pytest

from spindd import units


def test_parses_common_suffixes():
    assert units.parse_quantity("2 nT", "tesla") == pytest.approx(2e-9)
    assert units.parse_quantity("15 G", "tesla") == pytest.approx(15e-4)
    assert units.parse_quantity("115 us", "second") == pytest.approx(115e-6)
    assert units.parse_quantity("5.93 ms", "second") == pytest.approx(5.93e-3)
    assert units.parse_quantity("2.88 GHz", "hertz") == pytest.approx(2.88e9)
    assert units.parse_quantity("90 deg", "radian") == pytest.approx(1.5707963267948966)


def test_rejects_bare_numbers_and_wrong_dimension():
    with pytest.raises(units.UnitError):
        units.parse_quantity(5, "tesla")
    with pytest.raises(units.UnitError, match="dimension"):
        units.parse_quantity("3 us", "tesla")
    with pytest.raises(units.UnitError):
        units.parse_quantity("3 parsec", "second")
    with pytest.raises(units.UnitError):
        units.parse_quantity("abc ms", "second")
    # non-strings and values that overflow to infinity
    for bad in (None, ["3 ms"], {"value": 3}, "1e999 s", "1e309 us"):
        with pytest.raises(units.UnitError):
            units.parse_quantity(bad, "second")
    with pytest.raises(units.UnitError, match="non-finite"):
        units.parse_quantity("1e308 GHz", "hertz")

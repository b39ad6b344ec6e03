import pytest

from remitsim.months import month_index, month_label, year_of


def test_round_trip():
    assert month_index("2010-01") == 0
    assert month_index("2015-01") == 60
    assert month_index("2019-12") == 119
    assert month_label(0) == "2010-01"
    assert month_label(119) == "2019-12"
    for idx in range(0, 120, 7):
        assert month_index(month_label(idx)) == idx


def test_year_of():
    assert year_of(0) == 2010
    assert year_of(11) == 2010
    assert year_of(12) == 2011
    assert year_of(119) == 2019


@pytest.mark.parametrize("bad", ["2010-13", "2010-00", "201-01", "2010/01", "2010-1", "x",
                                 "2010-01\n", " 2010-01", "\u0662\u0660\u0661\u0660-\u0660\u0661"])
def test_invalid_labels(bad):
    with pytest.raises(ValueError):
        month_index(bad)

"""Unit tests for the integer date encoding."""

import pytest

from repro import dates


class TestDates:
    def test_round_trip(self):
        assert dates.date_to_int("1998-09-02") == 19980902
        assert dates.int_to_date(19980902).isoformat() == "1998-09-02"

    def test_year_extraction(self):
        assert dates.year_of(19950704) == 1995

    @pytest.mark.parametrize("start, days, end", [
        (19981230, 5, 19990104),        # crosses a month and a year
        (19960228, 1, 19960229),        # a leap day
        (19960228, 2, 19960301),
        (19970228, 1, 19970301),        # no leap day
    ])
    def test_add_days(self, start, days, end):
        assert dates.add_days(start, days) == end

    def test_ordering_matches_chronology(self):
        assert dates.date_to_int("1995-03-15") < dates.date_to_int("1995-03-16")
        assert dates.date_to_int("1994-12-31") < dates.date_to_int("1995-01-01")

    def test_int_passthrough(self):
        assert dates.date_to_int(19940101) == 19940101

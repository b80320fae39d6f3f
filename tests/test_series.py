import numpy as np
import pytest

from trendsig import MonthIndex, MonthlySeries, difference, fit, truncate
from trendsig.errors import (
    BadWindow,
    DuplicateMonth,
    InputError,
    MonthOutOfRange,
)

from conftest import make_line


class TestMonthIndex:
    def test_ordering_follows_calendar(self):
        assert MonthIndex(1999, 12) < MonthIndex(2000, 1)
        assert MonthIndex(1979, 1) < MonthIndex(1979, 2)
        assert MonthIndex(2009, 6) == MonthIndex(2009, 6)

    def test_ordinal_round_trip(self):
        for idx in (MonthIndex(1979, 1), MonthIndex(2009, 6), MonthIndex(0, 12)):
            assert MonthIndex.from_ordinal(idx.ordinal) == idx
        assert MonthIndex(1979, 1).ordinal == 12 * 1979 + 1

    @pytest.mark.parametrize("month", [0, 13, -1])
    def test_rejects_bad_month(self, month):
        with pytest.raises(MonthOutOfRange):
            MonthIndex(1979, month)

    def test_parse_colon_and_dash(self):
        assert MonthIndex.parse("1979:01") == MonthIndex(1979, 1)
        assert MonthIndex.parse("2009-06") == MonthIndex(2009, 6)
        assert MonthIndex.parse(" 1999:12 ") == MonthIndex(1999, 12)

    @pytest.mark.parametrize("text", ["1979", "1979:1:2", "abc", "1979:00", ""])
    def test_parse_rejects_garbage(self, text):
        with pytest.raises(InputError):
            MonthIndex.parse(text)

    def test_plus_crosses_year_boundaries(self):
        assert MonthIndex(1999, 12).plus(1) == MonthIndex(2000, 1)
        assert MonthIndex(2000, 1).plus(-1) == MonthIndex(1999, 12)
        assert MonthIndex(1979, 1).plus(365) == MonthIndex(2009, 6)

    def test_str_zero_pads(self):
        assert str(MonthIndex(1979, 1)) == "1979:01"
        assert str(MonthIndex(2009, 11)) == "2009:11"


class TestMonthlySeries:
    def test_duplicate_month_named_in_error(self):
        months = [MonthIndex(1990, 5).ordinal] * 2
        with pytest.raises(DuplicateMonth, match="1990:05"):
            MonthlySeries("x", months, [0.1, 0.2])

    def test_decreasing_months_rejected(self):
        with pytest.raises(InputError, match="increasing"):
            MonthlySeries("x", [24000, 23999], [0.1, 0.2])

    def test_order_check_does_not_wrap_on_far_apart_months(self):
        # The int64 difference of these ordinals overflows.
        far = 8_400_000_000_000_000_000
        assert MonthlySeries("x", [-far, far], [0.1, 0.2]).months.tolist() == [-far, far]
        with pytest.raises(InputError, match="increasing"):
            MonthlySeries("x", [far, -far], [0.1, 0.2])

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError):
            MonthlySeries("x", [24000, 24001], [0.1])

    def test_arrays_copied_and_read_only(self):
        months = np.array([24000, 24001], dtype=np.int64)
        values = np.array([0.1, 0.2])
        s = MonthlySeries("x", months, values)
        values[0] = 99.0
        assert s.values[0] == 0.1
        with pytest.raises(ValueError):
            s.values[0] = 1.0
        with pytest.raises(ValueError):
            s.months[0] = 1

    def test_from_start_is_gap_free(self):
        s = MonthlySeries.from_start("x", MonthIndex(1999, 11), [1.0, 2.0, 3.0])
        assert [str(MonthIndex.from_ordinal(m)) for m in s.months] == [
            "1999:11", "1999:12", "2000:01"
        ]
        assert s.values.tolist() == [1.0, 2.0, 3.0]

    def test_equality_is_by_content(self):
        a = MonthlySeries.from_start("x", MonthIndex(1979, 1), [1.0, 2.0])
        b = MonthlySeries.from_start("x", MonthIndex(1979, 1), [1.0, 2.0])
        c = MonthlySeries.from_start("y", MonthIndex(1979, 1), [1.0, 2.0])
        assert a == b
        assert a != c

    def test_first_last_and_empty(self):
        s = MonthlySeries.from_start("x", MonthIndex(1979, 1), [1.0, 2.0])
        assert s.first == MonthIndex(1979, 1)
        assert s.last == MonthIndex(1979, 2)
        empty = MonthlySeries("e", [], [])
        assert len(empty) == 0
        with pytest.raises(IndexError):
            empty.first


def test_truncate_month_counts():
    s = make_line("full", 0.12)  # 1979:01 .. 2009:06, 366 points
    assert len(s) == 366
    kept = truncate(s, MonthIndex(1979, 1), MonthIndex(1999, 12))
    assert len(kept) == 252
    assert kept.name == "full"
    assert kept.last == MonthIndex(1999, 12)


def test_truncate_identity_and_idempotence():
    s = make_line("full", 0.12)
    assert truncate(s, s.first, s.last) == s
    once = truncate(s, MonthIndex(1990, 1), MonthIndex(1995, 6))
    twice = truncate(once, MonthIndex(1990, 1), MonthIndex(1995, 6))
    assert once == twice


def test_truncate_empty_result_is_fine():
    s = make_line("full", 0.12)
    out = truncate(s, MonthIndex(2050, 1), MonthIndex(2051, 1))
    assert len(out) == 0


def test_truncate_rejects_inverted_window():
    s = make_line("full", 0.12)
    with pytest.raises(BadWindow):
        truncate(s, MonthIndex(2000, 1), MonthIndex(1999, 1))


# difference aligns its inputs itself: it keeps the months both series share.


def test_align_identical_sets_unchanged():
    a = make_line("a", 0.1, n=24)
    b = make_line("b", 0.3, n=24)
    d = difference(a, b)
    assert np.array_equal(d.months, a.months)
    assert np.array_equal(d.values, a.values - b.values)


def test_align_drops_months_missing_from_either():
    april = MonthIndex(1990, 4).ordinal
    a = MonthlySeries("a", [april, april + 2, april + 3], [1.0, 2.0, 3.0])
    b = MonthlySeries.from_start("b", MonthIndex(1990, 4), [10.0, 20.0, 30.0, 40.0])
    # 1990:05 absent from a, so the difference lacks it
    kept = ["1990:04", "1990:06", "1990:07"]
    for d, values in [(difference(a, b), [-9.0, -28.0, -37.0]),
                      (difference(b, a), [9.0, 28.0, 37.0])]:
        assert [str(MonthIndex.from_ordinal(m)) for m in d.months] == kept
        assert d.values.tolist() == values


def test_align_disjoint_ranges_gives_empty_pair():
    a = make_line("a", 0.1, n=12, start=MonthIndex(1980, 1))
    b = make_line("b", 0.1, n=12, start=MonthIndex(1990, 1))
    assert len(difference(a, b)) == 0
    assert len(difference(b, a)) == 0


def test_difference_of_series_with_itself_is_zero():
    a = make_line("a", 0.1, n=36)
    d = difference(a, a)
    assert d.name == "a-minus-a"
    assert np.all(d.values == 0.0)


def test_difference_of_shifted_series_is_constant():
    a = make_line("a", 0.1, intercept=0.7, n=36)
    b = make_line("b", 0.1, intercept=0.2, n=36)
    d = difference(a, b)
    assert np.allclose(d.values, 0.5, atol=1e-12)


def test_difference_slope_subtracts():
    surface = make_line("surface", 0.10, n=120)
    troposphere = make_line("troposphere", 0.15, n=120)
    d = difference(surface, troposphere)
    assert abs(fit(d).slope_per_decade - (-0.05)) < 1e-12


def test_difference_antisymmetry():
    rng = np.random.default_rng(7)
    a = MonthlySeries.from_start("a", MonthIndex(1979, 1), rng.standard_normal(48))
    b = MonthlySeries.from_start("b", MonthIndex(1979, 1), rng.standard_normal(48))
    assert np.array_equal(difference(a, b).values, -difference(b, a).values)


def test_fit_distributes_over_difference_on_common_axis():
    """On a shared gap-free axis the difference trend is the trend difference."""
    rng = np.random.default_rng(11)
    a = MonthlySeries.from_start("a", MonthIndex(1979, 1), rng.standard_normal(240))
    b = MonthlySeries.from_start("b", MonthIndex(1979, 1), rng.standard_normal(240))
    lhs = fit(difference(a, b)).slope_per_decade
    rhs = fit(a).slope_per_decade - fit(b).slope_per_decade
    assert abs(lhs - rhs) < 1e-10

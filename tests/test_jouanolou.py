"""Quotient volumes of the plane family and their accumulation at 1."""

from fractions import Fraction

import pytest

from folcalc import accumulation_report, jouanolou, jouanolou_entry
from folcalc.errors import ValidationError


class TestEntry:
    def test_smallest_member(self):
        entry = jouanolou_entry(2)
        assert entry.volume == Fraction(1, 7)
        assert entry.aut_order == 21

    def test_degree_three(self):
        assert jouanolou_entry(3).volume == Fraction(4, 13)

    def test_degree_ten(self):
        assert jouanolou_entry(10).volume == Fraction(27, 37)
        assert jouanolou_entry(10).volume < 1

    def test_degree_below_two_rejected(self):
        with pytest.raises(ValidationError):
            jouanolou_entry(1)


class TestAccumulationReport:
    def test_single_row(self):
        report = accumulation_report(2)
        assert len(report.entries) == 1
        assert report.minimum == Fraction(1, 7)

    def test_up_to_five(self):
        report = accumulation_report(5)
        assert [e.volume for e in report.entries] == [
            Fraction(1, 7),
            Fraction(4, 13),
            Fraction(9, 21),
            Fraction(16, 31),
        ]
        assert report.strictly_increasing
        assert report.all_below_one

    def test_gap_identity(self):
        report = accumulation_report(40)
        assert report.gap_identity_holds
        assert report.gap_at_dmax == Fraction(3 * 40, 40 * 40 + 40 + 1)
        assert report.converges  # gap < 3/d_max

    def test_aut_orders_divisible_by_three(self):
        report = accumulation_report(30)
        assert all(e.aut_order % 3 == 0 for e in report.entries)

    def test_dmax_above_cap_rejected(self):
        with pytest.raises(ValidationError):
            accumulation_report(jouanolou.MAX_DMAX + 1)

    def test_dmax_at_cap_accepted(self):
        report = accumulation_report(jouanolou.MAX_DMAX)
        assert len(report.entries) == jouanolou.MAX_DMAX - 1
        assert report.converges

"""Parsing exact rationals: accepted forms and the digit cap on expansions."""

import json
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from folcalc import CyclicType, HilbertSamples, a_cyclic_sheaf, extract_invariants, hj_expansion, wunram_degrees
from folcalc.cli import main
from folcalc.errors import ValidationError
from folcalc.rationals import MAX_DIGITS, format_ratio, format_rational, parse_integer_keys, parse_rational


@pytest.mark.parametrize(
    "text, expected",
    [
        ("3/7", Fraction(3, 7)),
        (" -4 ", Fraction(-4)),
        ("0.25", Fraction(1, 4)),
        ("6.106226635438361e-16", Fraction(6106226635438361, 10**31)),
        ("1e4299", Fraction(10**4299)),
        ("-2E-4299", Fraction(-2, 10**4299)),
        ("1e+0004299", Fraction(10**4299)),
        ("9.9e4297", Fraction(99 * 10**4296)),
    ],
)
def test_accepted_strings(text, expected):
    assert parse_rational(text) == expected


def test_strings_at_the_cap_print_again():
    # every numerator and denominator stays within Python's integer-string limit
    for text in ["1e4299", "-1E-4299", "+9.9e4297", ".1e-4298", "12e-4298", "." + "9" * 4299, "9" * 4299 + "."]:
        value = parse_rational(text)
        assert parse_rational(format_rational(value)) == value


@pytest.mark.parametrize(
    "text",
    ["1e4300", "1E-4300", "12e4299", "9.9e4298", "-3.5e+99999", "1e0000099999", "1e999999999"],
)
def test_expansion_past_cap_refused(text):
    start = time.perf_counter()
    with pytest.raises(ValidationError, match=f"expands past {MAX_DIGITS} digits"):
        parse_rational(text)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("value", [True, "abc"])
def test_not_a_rational_refused(value):
    with pytest.raises(ValidationError, match="not an exact rational"):
        parse_rational(value)


def test_value_too_long_to_print_refused():
    assert format_rational(Fraction(1, 10**4299)) == "1/1" + "0" * 4299
    with pytest.raises(ValidationError, match=f"more than {MAX_DIGITS} digits"):
        format_rational(Fraction(1, 10**4300))
    with pytest.raises(ValidationError, match=f"more than {MAX_DIGITS} digits"):
        format_rational(-(10**4300))
    # format_rational prints through format_ratio: ints past the cap get the same message
    assert format_ratio(3 * 10**4299, -3) == "-1" + "0" * 4299
    message = f"value has more than {MAX_DIGITS} digits, too many to print"
    for num, den in [(10**4300, 7), (-(10**4300), 1), (7, 10**4300)]:
        with pytest.raises(ValidationError) as refused:
            format_ratio(num, den)
        assert str(refused.value) == message


def test_messages_with_ints_too_long_to_print_refused(capsys, tmp_path):
    # each message prints an int that comes from the input: a range end, a string's n, a needed multiple
    huge = 10**4300
    message = f"value has more than {MAX_DIGITS} digits, too many to print"
    for call in [
        lambda: CyclicType(huge + 1, huge + 5),
        lambda: wunram_degrees(CyclicType(huge + 1, 1), -1),
        lambda: a_cyclic_sheaf(CyclicType(huge + 1, 1), -1),
        lambda: hj_expansion(CyclicType(huge, huge - 1)),
        lambda: extract_invariants(HilbertSamples({0: 1, 1: 2}, huge - 1), "canonical"),
    ]:
        with pytest.raises(ValidationError) as refused:
            call()
        assert str(refused.value) == message
    path = tmp_path / "samples.json"
    path.write_text(json.dumps({"values": {"0": 1, "1": 2, "2": 5, "3": 10}, "period_hint": "4" + "0" * 4299}))
    code = main(["bounds", "--mode", "weak-nef", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert json.loads(captured.err) == {"code": "invalid-input", "location": None, "message": message}
    # ints of normal size print as before
    for call, text in [
        (lambda: CyclicType(10, 11), "q out of range: must be an integer in [1, 9]"),
        (lambda: CyclicType(1, 1), "n out of range: must be an integer >= 2"),
        (lambda: wunram_degrees(CyclicType(5, 2), 1.0), "i must be an integer in [0, 4], not float"),
        (
            lambda: hj_expansion(CyclicType(10**6, 10**6 - 1)),
            "(1/1000000)(1,999999) resolves into more than 100000 curves",
        ),
        (
            lambda: extract_invariants(HilbertSamples({0: 1, 1: 2, 2: 5, 3: 10}, 4), "weak-nef"),
            "samples must include m = [0, 1, 4, 8, 12]; missing [4, 8, 12]",
        ),
    ]:
        with pytest.raises(ValidationError) as refused:
            call()
        assert str(refused.value) == text


@given(st.integers(), st.integers().filter(bool))
def test_format_ratio_prints_the_fraction(num, den):
    assert format_ratio(num, den) == format_rational(Fraction(num, den))


def test_long_decimal_refused():
    assert parse_rational("." + "0" * 4298 + "1") == Fraction(1, 10**4299)
    with pytest.raises(ValidationError, match=f"expands past {MAX_DIGITS} digits"):
        parse_rational("." + "0" * 4299 + "1")


def test_exponent_cap_reaches_sample_tables():
    with pytest.raises(ValidationError, match="digits"):
        HilbertSamples({0: 1, 1: "1e999999999"})


def test_cli_refuses_huge_exponent_quickly(capsys, tmp_path):
    path = tmp_path / "samples.json"
    path.write_text(json.dumps({"values": {"0": "1", "1": "1e999999999", "2": "5"}}))
    start = time.perf_counter()
    code = main(["bounds", "--mode", "weak-nef", str(path)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert json.loads(captured.err)["code"] == "invalid-input"
    assert elapsed < 1.0


@pytest.mark.parametrize("chi_o, code", [("1e4299", 0), ("1e4300", 2)])
def test_cli_chi_o_at_the_cap(capsys, tmp_path, chi_o, code):
    # chi(O) = 10^4299 is read, carried through and printed; one more digit is invalid input
    values = {str(m): str(10**4299 + m * m - m) for m in range(1, 8)}
    values["0"] = chi_o
    path = tmp_path / "samples.json"
    path.write_text(json.dumps({"values": values}))
    assert main(["bounds", "--mode", "weak-nef", str(path)]) == code


def test_integer_keys_read_and_kept_in_order():
    assert parse_integer_keys({"0": "a", " 2 ": "b", 1: "c"}, "table") == {0: "a", 2: "b", 1: "c"}


@pytest.mark.parametrize(
    "table, m", [({"3": 10, "03": 999}, 3), ({"1": 2, " 1": 3}, 1), ({3: 10, "3": 10}, 3), ({"-0": 1, 0: 1}, 0)]
)
def test_two_keys_naming_one_multiple_refused(table, m):
    with pytest.raises(ValidationError, match=f"^chi table: two keys name the multiple {m}$"):
        parse_integer_keys(table, "chi table")

import contextlib
import re
import sys
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benford_radix import digits
from benford_radix.digits import INFINITE, _leading_digit, check_base
from benford_radix.ingest import NUMERAL, _numeral_digit

from oracles import expansion_by_division, leading_digit_by_fraction_scaling

# 2**100, frozen from the repeated-doubling oracle (pow2_decimal_by_doubling(100))
POW2_100_DECIMAL = "1267650600228229401496703205376"

# Digit bodies past int()'s default 4300-digit limit, whose exponents
# reach thousands in every base.
LONG_BODIES = tuple(
    "".join(str(i * i % 10) for i in range(start, start + size))
    for start, size in ((1, 5000), (7, 20000))
)


@contextlib.contextmanager
def int_str_digits(limit):
    """Run with sys.set_int_max_str_digits(limit), where Python has the limit."""
    if limit is None or not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


@st.composite
def numerals(draw):
    """(numeral, its digits with the point removed, k) for the value digits/10**k."""
    sign = draw(st.sampled_from(["", "+", "-"]))
    body = draw(st.text("0123456789", max_size=25) | st.sampled_from(LONG_BODIES))
    cut = draw(st.integers(0, len(body)))
    whole = "0" * draw(st.integers(0, 3)) + body[:cut]
    frac = body[cut:]
    if not whole and not frac:
        whole = "0"
    point = "." if frac or draw(st.booleans()) else ""  # "3." and ".5" forms
    text = f"{sign}{whole}{point}{frac}"
    exponent = draw(st.none() | st.integers(-9999, 9999))
    if exponent is not None:
        plus = "+" if exponent >= 0 and draw(st.booleans()) else ""
        zeros = "0" * draw(st.integers(0, 2))
        mark = draw(st.sampled_from("eE"))
        text += f"{mark}{'-' if exponent < 0 else plus}{zeros}{abs(exponent)}"
    return text, whole + frac, len(frac) - (exponent or 0)


def fraction_digit(digits: str, k: int, base: int) -> int:
    """The digit `_leading_digit` gives for digits/10**k, or 0 for zero."""
    p = int(Decimal(digits))  # Decimal reads any length
    if p == 0:
        return 0
    if k < 0:
        return _leading_digit(p * 10**-k, 1, base)
    return _leading_digit(p, 10**k, base)


def numeral_digit(text: str, base: int) -> int | None:
    """The digit `ingest._numeral_digit` gives for the stripped ``text``, 0
    for zero, or None when `NUMERAL` refuses it: how `scan` reads a record."""
    m = re.fullmatch(NUMERAL, text.strip())
    return None if m is None else _numeral_digit(base, *m.groups(""))


class TestCheckBase:
    def test_accepts_range(self):
        assert check_base(2) == 2
        assert check_base(64) == 64

    @pytest.mark.parametrize("bad", [1, 65, 0, -3])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            check_base(bad)

    def test_infinite_needs_finite(self):
        with pytest.raises(ValueError, match="exact integer, got inf"):
            check_base(INFINITE)

    def test_float_bases_rejected(self):
        with pytest.raises(ValueError, match="exact integer"):
            check_base(10.0)


class TestLeadingDigitInt:
    def test_power_of_two_entry(self):
        assert _leading_digit(256, 1, 10) == 2
        assert type(_leading_digit(256, 1, 10)) is int
        assert type(_leading_digit(3, 8, 10)) is int

    @pytest.mark.parametrize("base", range(2, 65))
    def test_one_is_always_digit_one(self, base):
        assert _leading_digit(1, 1, base) == 1

    def test_big_power_matches_doubling_oracle(self):
        n = int(POW2_100_DECIMAL)
        assert n == 2 ** 100
        assert _leading_digit(n, 1, 10) == 1
        assert _leading_digit(n, 1, 10) == int(POW2_100_DECIMAL[0])


class TestLeadingDigitDecimalString:
    def test_leading_zeros_skipped(self):
        assert numeral_digit("0.00312", 10) == 3

    def test_plain_integer(self):
        assert numeral_digit("342", 10) == 3

    def test_half_in_ternary(self):
        # 3**-1 <= 0.5 < 2 * 3**-1, cross-checked against the Fraction oracle
        assert numeral_digit("0.5", 3) == 1
        assert leading_digit_by_fraction_scaling(5, 10, 3) == 1

    def test_negative_sign_ignored(self):
        assert numeral_digit("-0.00312", 10) == 3

    @pytest.mark.parametrize("base", [10, 7])
    def test_returns_a_plain_int(self, base):
        assert type(numeral_digit("-0.00312", base)) is int

    @pytest.mark.parametrize("s", ["0", "0.000", "-0.0", "+.0", "0e5", "0.000E-3"])
    def test_zero_values_rejected(self, s):
        # zero has no significant digit: digit 0, which `scan` counts as a zero
        assert numeral_digit(s, 10) == numeral_digit(s, 7) == 0

    @pytest.mark.parametrize("s", ["", "n/a", "1e", "1e10000", "1,5", "--3", "3.1.4", "."])
    def test_non_numerals_rejected(self, s):
        assert numeral_digit(s, 10) is None

    @pytest.mark.parametrize(
        "s,base",
        [("3.14", 7), ("0.0625", 2), ("255.99", 16), ("0.2", 3), ("123456.789", 13)],
    )
    def test_matches_fraction_oracle(self, s, base):
        digits = s.replace(".", "")
        frac_len = len(s.split(".")[1]) if "." in s else 0
        expected = leading_digit_by_fraction_scaling(int(digits), 10 ** frac_len, base)
        assert numeral_digit(s, base) == expected


class TestNumeralDigits:
    """Numerals of the grammar, each read by `ingest._numeral_digit`."""

    @pytest.mark.parametrize("limit", [None, 640])
    @settings(max_examples=40, deadline=None)
    @given(
        cases=st.lists(numerals(), min_size=1, max_size=4),
        base=st.integers(min_value=2, max_value=64),
    )
    def test_stream_equals_the_fraction_digit(self, limit, cases, base):
        # 640 digits sends numerals of more digits through the Decimal route
        expected = [fraction_digit(digits, k, base) for _, digits, k in cases]
        with int_str_digits(limit):
            for (text, _, _), want in zip(cases, expected):
                got = numeral_digit(text, base)
                assert got == want and type(got) is int


class TestPowerTable:
    """`_leading_digit` at the powers of the base, where its float estimate
    of the power below n must be clamped at b**0 or stepped exactly."""

    @pytest.mark.parametrize("base", range(2, 65))
    def test_edges_match_the_fraction_oracle(self, base):
        # n = b**e - 1, b**e, b**e + 1 from e = 0 (n < b) to two powers past
        # the first power >= 2**256, as p // q (p >= q) and as (q - 1) // p
        # (p < q) in `_leading_digit`
        top = next(e for e in range(257) if base**e >= 2**256)
        for e in range(top + 3):
            for n in {base**e - 1, base**e, base**e + 1} - {0}:
                q = 10 ** (2 * len(str(n)) + 2)
                p = (q - 1) // n  # (q - 1) // p is n, and n - 1 for p + 1
                for num, den in ((n, 1), (n * 1000 + 999, 1000), (p, q), (p + 1, q)):
                    assert digits._leading_digit(num, den, base) == (
                        leading_digit_by_fraction_scaling(num, den, base)), (num, den)


class TestLeadingDigitFraction:
    def test_value_above_one(self):
        assert _leading_digit(22, 7, 10) == 3

    def test_value_below_one(self):
        assert _leading_digit(1, 2, 3) == 1

    @given(
        num=st.integers(min_value=1, max_value=10 ** 12),
        den=st.integers(min_value=1, max_value=10 ** 12),
        base=st.integers(min_value=2, max_value=64),
    )
    def test_agrees_with_fraction_oracle(self, num, den, base):
        assert _leading_digit(num, den, base) == (
            leading_digit_by_fraction_scaling(num, den, base)
        )


class TestProperties:
    @given(
        n=st.integers(min_value=1, max_value=10 ** 60),
        base=st.integers(min_value=2, max_value=64),
    )
    def test_leading_digit_heads_the_expansion(self, n, base):
        assert _leading_digit(n, 1, base) == expansion_by_division(n, base)[0]

    @given(
        d=st.integers(min_value=1, max_value=63),
        e=st.integers(min_value=0, max_value=600),
        rest=st.floats(min_value=0, max_value=1, exclude_max=True),
        base=st.integers(min_value=2, max_value=64),
    )
    def test_digit_by_construction_at_any_size(self, d, e, rest, base):
        # n = d * b**e + r with 0 <= r < b**e has leading digit d, for any e
        d = d % (base - 1) + 1
        r = int(rest * 2**53) * base**e >> 53
        assert _leading_digit(d * base**e + r, 1, base) == d
        assert _leading_digit(d * base**e + r, base ** (2 * e), base) == d

    @given(
        n=st.integers(min_value=1, max_value=10 ** 40),
        zeros=st.integers(min_value=0, max_value=3),
        base=st.integers(min_value=2, max_value=64),
    )
    def test_string_scan_agrees_with_integer_path(self, n, zeros, base):
        # past 10**32 the numeral leaves the text table for `_leading_digit`
        s = "0" * zeros + str(n)
        assert numeral_digit(s, base) == _leading_digit(n, 1, base)

    @given(
        n=st.integers(min_value=1, max_value=10 ** 20),
        frac=st.integers(min_value=0, max_value=10 ** 6),
        base=st.integers(min_value=2, max_value=64),
    )
    def test_sign_invariance(self, n, frac, base):
        s = f"{n}.{frac}"
        assert numeral_digit("-" + s, base) == numeral_digit(s, base)

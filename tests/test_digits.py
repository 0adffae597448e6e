import pytest
from hypothesis import given
from hypothesis import strategies as st

from benford_radix.digits import (
    INFINITE,
    Digit,
    FiniteBaseRequired,
    NoSignificantDigit,
    NumeralParseError,
    check_base,
    leading_digit_decimal_string,
    leading_digit_fraction,
    leading_digit_int,
)

from oracles import expansion_by_division, leading_digit_by_fraction_scaling

# 2**100, frozen from the repeated-doubling oracle (pow2_decimal_by_doubling(100))
POW2_100_DECIMAL = "1267650600228229401496703205376"


class TestDigitType:
    def test_behaves_like_int(self):
        d = Digit(3, base=10)
        assert d == 3
        assert d + 1 == 4
        assert d.base == 10

    def test_rejects_zero_and_out_of_range(self):
        with pytest.raises(ValueError):
            Digit(0, base=10)
        with pytest.raises(ValueError):
            Digit(10, base=10)

    def test_repr(self):
        assert repr(Digit(5, base=8)) == "Digit(5, base=8)"


class TestCheckBase:
    def test_accepts_range(self):
        assert check_base(2) == 2
        assert check_base(64) == 64

    @pytest.mark.parametrize("bad", [1, 65, 0, -3])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            check_base(bad)

    def test_infinite_needs_finite(self):
        with pytest.raises(FiniteBaseRequired, match="finite base required"):
            check_base(INFINITE)

    def test_float_bases_rejected(self):
        with pytest.raises(ValueError, match="exact integer"):
            check_base(10.0)


class TestLeadingDigitInt:
    def test_power_of_two_entry(self):
        assert leading_digit_int(256, 10) == 2

    @pytest.mark.parametrize("base", range(2, 65))
    def test_one_is_always_digit_one(self, base):
        assert leading_digit_int(1, base) == 1

    def test_big_power_matches_doubling_oracle(self):
        n = int(POW2_100_DECIMAL)
        assert n == 2 ** 100
        assert leading_digit_int(n, 10) == 1
        assert leading_digit_int(n, 10) == int(POW2_100_DECIMAL[0])

    def test_zero_has_no_significant_digit(self):
        with pytest.raises(NoSignificantDigit, match="no significant digit"):
            leading_digit_int(0, 10)

    def test_infinite_base_rejected(self):
        with pytest.raises(FiniteBaseRequired):
            leading_digit_int(256, INFINITE)

    def test_sign_is_ignored(self):
        assert leading_digit_int(-256, 10) == 2

    def test_floats_never_sneak_in(self):
        # floats can silently misrepresent large integers, so they are refused
        with pytest.raises(ValueError, match="exact integer"):
            leading_digit_int(1e23, 10)


class TestLeadingDigitDecimalString:
    def test_leading_zeros_skipped(self):
        assert leading_digit_decimal_string("0.00312", 10) == 3

    def test_plain_integer(self):
        assert leading_digit_decimal_string("342", 10) == 3

    def test_half_in_ternary(self):
        # 3**-1 <= 0.5 < 2 * 3**-1, cross-checked against the Fraction oracle
        assert leading_digit_decimal_string("0.5", 3) == 1
        assert leading_digit_by_fraction_scaling(5, 10, 3) == 1

    def test_negative_sign_ignored(self):
        assert leading_digit_decimal_string("-0.00312", 10) == 3

    @pytest.mark.parametrize("base", [10, 7])
    def test_returns_a_plain_int(self, base):
        assert type(leading_digit_decimal_string("-0.00312", base)) is int

    @pytest.mark.parametrize("s", ["0", "0.000", "-0.0", "+.0"])
    def test_zero_values_rejected(self, s):
        with pytest.raises(NoSignificantDigit):
            leading_digit_decimal_string(s, 10)

    @pytest.mark.parametrize("s", ["", "n/a", "1e5", "1,5", "--3", "3.1.4", "."])
    def test_non_numerals_rejected(self, s):
        with pytest.raises(NumeralParseError):
            leading_digit_decimal_string(s, 10)

    def test_infinite_base_rejected(self):
        with pytest.raises(FiniteBaseRequired):
            leading_digit_decimal_string("3.14", INFINITE)

    @pytest.mark.parametrize(
        "s,base",
        [("3.14", 7), ("0.0625", 2), ("255.99", 16), ("0.2", 3), ("123456.789", 13)],
    )
    def test_matches_fraction_oracle(self, s, base):
        digits = s.replace(".", "")
        frac_len = len(s.split(".")[1]) if "." in s else 0
        expected = leading_digit_by_fraction_scaling(int(digits), 10 ** frac_len, base)
        assert leading_digit_decimal_string(s, base) == expected


class TestLeadingDigitFraction:
    def test_value_above_one(self):
        assert leading_digit_fraction(22, 7, 10) == 3

    def test_value_below_one(self):
        assert leading_digit_fraction(1, 2, 3) == 1

    def test_digit_carries_its_base(self):
        assert leading_digit_fraction(-1, 2, 3).base == 3
        assert leading_digit_int(-256, 7).base == 7

    def test_zero_numerator_rejected(self):
        with pytest.raises(NoSignificantDigit):
            leading_digit_fraction(0, 7, 10)

    def test_bad_denominator_rejected(self):
        with pytest.raises(ValueError):
            leading_digit_fraction(1, 0, 10)

    @given(
        num=st.integers(min_value=1, max_value=10 ** 12),
        den=st.integers(min_value=1, max_value=10 ** 12),
        base=st.integers(min_value=2, max_value=64),
    )
    def test_agrees_with_fraction_oracle(self, num, den, base):
        assert leading_digit_fraction(num, den, base) == (
            leading_digit_by_fraction_scaling(num, den, base)
        )


class TestProperties:
    @given(
        n=st.integers(min_value=1, max_value=10 ** 60),
        base=st.integers(min_value=2, max_value=64),
    )
    def test_leading_digit_heads_the_expansion(self, n, base):
        assert leading_digit_int(n, base) == expansion_by_division(n, base)[0]

    @given(
        n=st.integers(min_value=1, max_value=10 ** 30),
        zeros=st.integers(min_value=0, max_value=3),
    )
    def test_string_scan_agrees_with_integer_path(self, n, zeros):
        s = "0" * zeros + str(n)
        assert leading_digit_decimal_string(s, 10) == leading_digit_int(n, 10)

    @given(
        n=st.integers(min_value=1, max_value=10 ** 20),
        frac=st.integers(min_value=0, max_value=10 ** 6),
        base=st.integers(min_value=2, max_value=64),
    )
    def test_sign_invariance(self, n, frac, base):
        s = f"{n}.{frac}"
        assert leading_digit_decimal_string("-" + s, base) == (
            leading_digit_decimal_string(s, base)
        )

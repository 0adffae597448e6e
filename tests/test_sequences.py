import math
import time
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benford_radix import logdigits
from benford_radix.digits import FiniteBaseRequired, INFINITE, leading_digit_int
from benford_radix.sequences import (
    FastDigit,
    SequenceSpec,
    generate,
    iter_leading_digits,
    iter_leading_digits_exact,
    leading_digit_power,
    leading_digit_power_fast,
)

from oracles import (
    expansion_by_division,
    leading_digit_of_power_by_mpmath,
    powers_leading_digits_by_expansion,
)

# Frozen leading digits of 2**0..2**12, computed with expansion_by_division.
POW2_FIRST13_BASE10 = [1, 2, 4, 8, 1, 3, 6, 1, 2, 5, 1, 2, 4]
POW2_FIRST13_BASE3 = [1, 2, 1, 2, 1, 1, 2, 1, 1, 2, 1, 2, 1]
# Leading digit of 2**9999 in base 10, frozen from the big-integer oracle.
POW2_9999_BASE10 = 9


class TestSequenceSpec:
    def test_powers_constructor(self):
        spec = SequenceSpec.powers(2, 13)
        assert spec.kind == "powers" and spec.power_base == 2 and spec.length == 13

    @pytest.mark.parametrize(
        "build",
        [
            lambda: SequenceSpec.powers(1, 5),
            lambda: SequenceSpec.powers(2, 0),
            lambda: SequenceSpec.powers(2.5, 5),
            lambda: SequenceSpec.fibonacci(0),
            lambda: SequenceSpec.factorial(-1),
            lambda: SequenceSpec.fibonacci(2.0),
            lambda: SequenceSpec(kind="primes", length=5),
            lambda: SequenceSpec(kind="factorial", length=5, power_base=2),
            lambda: SequenceSpec(kind="explicit", length=1),
        ],
    )
    def test_invalid_specs_rejected(self, build):
        with pytest.raises(ValueError):
            build()


class TestGenerate:
    def test_powers_of_two(self):
        assert list(generate(SequenceSpec.powers(2, 5))) == [1, 2, 4, 8, 16]

    def test_fibonacci_matches_recurrence(self):
        assert list(generate(SequenceSpec.fibonacci(7))) == [1, 1, 2, 3, 5, 8, 13]

    def test_factorial_matches_recurrence(self):
        got = list(generate(SequenceSpec.factorial(6)))
        expect, acc = [], 1
        for i in range(1, 7):
            acc *= i
            expect.append(acc)
        assert got == expect

    def test_streaming_does_not_materialize(self):
        # a billion-term spec is fine as long as only a prefix is consumed
        gen = generate(SequenceSpec.powers(2, 10 ** 9))
        assert list(islice(gen, 4)) == [1, 2, 4, 8]


class TestLeadingDigitSequence:
    def test_doubling_sequence_base10(self):
        digits = iter_leading_digits(SequenceSpec.powers(2, 13), 10)
        assert list(digits) == POW2_FIRST13_BASE10

    def test_binary_degenerates_to_ones(self):
        digits = iter_leading_digits(SequenceSpec.powers(2, 7), 2)
        assert list(digits) == [1] * 7

    def test_ternary_frozen_from_expansion_oracle(self):
        digits = iter_leading_digits(SequenceSpec.powers(2, 13), 3)
        assert list(digits) == POW2_FIRST13_BASE3
        assert powers_leading_digits_by_expansion(2, 3, 13) == POW2_FIRST13_BASE3

    def test_infinite_base_rejected(self):
        with pytest.raises(FiniteBaseRequired):
            list(iter_leading_digits(SequenceSpec.powers(2, 3), INFINITE))

    @pytest.mark.parametrize("base", [2, 3, 7, 10, 16, 64])
    def test_matches_per_term_extraction(self, base):
        spec = SequenceSpec.factorial(40)
        direct = [leading_digit_int(x, base) for x in generate(spec)]
        assert list(iter_leading_digits(spec, base)) == direct


class TestRationalLogCycles:
    def test_base4_two_cycle(self):
        digits = list(iter_leading_digits(SequenceSpec.powers(2, 1001), 4))
        assert digits == [1, 2] * 500 + [1]

    def test_base8_three_cycle(self):
        digits = list(iter_leading_digits(SequenceSpec.powers(2, 1001), 8))
        assert digits == ([1, 2, 4] * 334)[:1001]


class TestFastPath:
    def test_power_ten_entries(self):
        got = leading_digit_power_fast(2, 10, 10)
        assert got == FastDigit(digit=1, certain=True) or (
            got.digit == 1 and got.certain
        )

    @pytest.mark.parametrize("base", [2, 3, 10, 16, 64])
    def test_exponent_zero_is_certain_one(self, base):
        got = leading_digit_power_fast(2, 0, base)
        assert got.digit == 1 and got.certain

    def test_big_exponent_matches_frozen_oracle(self):
        got = leading_digit_power_fast(2, 9999, 10)
        assert got.certain and got.digit == POW2_9999_BASE10
        assert expansion_by_division(2 ** 9999, 10)[0] == POW2_9999_BASE10

    def test_boundary_powers_flag_ambiguous_and_resolve(self):
        # 2**1 = 2 sits exactly on the log boundary between digits 1 and 2
        got = leading_digit_power_fast(2, 1, 10)
        assert not got.certain
        assert leading_digit_power(2, 1, 10) == 2

    def test_multiplicative_dependence_is_exact(self):
        for k in range(50):
            assert leading_digit_power_fast(2, k, 4).certain
            fast = leading_digit_power_fast(4, k, 2)
            assert fast.certain and fast.digit == 1
        assert [int(leading_digit_power_fast(2, k, 8).digit) for k in range(6)] == [
            1, 2, 4, 1, 2, 4,
        ]
        assert [int(leading_digit_power_fast(3, k, 9).digit) for k in range(4)] == [
            1, 3, 1, 3,
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            leading_digit_power_fast(1, 3, 10)
        with pytest.raises(ValueError):
            leading_digit_power_fast(2, -1, 10)
        with pytest.raises(FiniteBaseRequired):
            leading_digit_power_fast(2, 3, INFINITE)

    @pytest.mark.parametrize("a", [3, 10])
    def test_oracle_equivalence_sweep(self, a):
        # every certain answer must match the exact path; ambiguity stays rare
        k_max = 10 ** 4
        ambiguous = 0
        total = 0
        for base in range(2, 17):
            exact_iter = iter_leading_digits_exact(SequenceSpec.powers(a, k_max + 1), base)
            for k, exact in enumerate(exact_iter):
                fast = leading_digit_power_fast(a, k, base)
                total += 1
                if fast.certain:
                    assert fast.digit == exact, (a, k, base)
                else:
                    ambiguous += 1
                    assert leading_digit_int(a ** k, base) == exact
        assert ambiguous / total <= 0.001

    def test_fallback_wrapper_always_exact(self):
        for k in (0, 1, 2, 3, 17, 100):
            for base in (3, 5, 10, 12):
                assert leading_digit_power(2, k, base) == leading_digit_int(
                    2 ** k, base
                )


def _same_digits(spec, base):
    got = list(iter_leading_digits(spec, base))
    assert got == list(iter_leading_digits_exact(spec, base))
    assert all(type(d) is int for d in got)


BASES = st.integers(min_value=2, max_value=64)
# perfect powers and powers sharing a root with some base 2..64
ROOTED = st.sampled_from([4, 6, 8, 9, 16, 25, 27, 32, 36, 49, 64, 81, 100, 125, 128, 144, 196])


class TestCertifiedStreams:
    @settings(max_examples=300, deadline=None)
    @given(a=st.one_of(st.integers(2, 200), ROOTED), n=st.integers(1, 600), base=BASES)
    def test_powers_match_exact(self, a, n, base):
        _same_digits(SequenceSpec.powers(a, n), base)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(150, 450), base=BASES)
    def test_fibonacci_across_the_exact_prefix(self, n, base):
        _same_digits(SequenceSpec.fibonacci(n), base)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 400), base=BASES)
    def test_factorials_match_exact(self, n, base):
        _same_digits(SequenceSpec.factorial(n), base)

    @pytest.mark.parametrize("a, base", [(4, 8), (8, 4), (6, 36), (36, 6), (2, 64), (27, 9)])
    def test_common_root_pairs(self, a, base):
        _same_digits(SequenceSpec.powers(a, 500), base)

    @pytest.mark.parametrize("base", range(2, 65))
    def test_every_base(self, base):
        for spec in (
            SequenceSpec.powers(3, 2000),
            SequenceSpec.powers(200, 300),
            SequenceSpec.fibonacci(700),
            SequenceSpec.factorial(300),
        ):
            _same_digits(spec, base)


class TestResolver:
    @pytest.mark.parametrize("k", [10 ** 40, 10 ** 40 + 1, 3 * 10 ** 40 + 7, 2 ** 133 - 1])
    def test_huge_exponent_matches_mpmath(self, k):
        assert not leading_digit_power_fast(2, k, 10).certain
        start = time.perf_counter()
        got = leading_digit_power(2, k, 10)
        elapsed = time.perf_counter() - start
        assert got == leading_digit_of_power_by_mpmath(2, k, 10)
        assert elapsed < 1.0

    def test_boundary_hit_beyond_the_exact_cap_is_refused(self, monkeypatch):
        # 2 = 2 * 10**0 sits on a digit boundary, so no precision certifies it
        monkeypatch.setattr(logdigits, "_EXACT_BITS", 0)
        with pytest.raises(ValueError, match="not certified"):
            leading_digit_power(2, 1, 10)

    def test_escalation_for_fibonacci_and_factorial_terms(self, monkeypatch):
        monkeypatch.setattr(logdigits, "_EXACT_BITS", 0)
        for m in range(1500, 1505):
            fib = list(generate(SequenceSpec.fibonacci(m)))[-1]
            assert logdigits._resolve_fibonacci(m, 10) == leading_digit_int(fib, 10)
        for m in (10, 57, 300):
            assert logdigits._resolve_factorial(m, 7) == leading_digit_int(
                math.factorial(m), 7
            )

import math
import time
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from benford_radix import logdigits
from benford_radix.digits import INFINITE, _leading_digit
from benford_radix.sequences import (
    FastDigit,
    SequenceSpec,
    generate,
    iter_leading_digits,
    iter_leading_digits_exact,
    leading_digit_counts,
    leading_digit_power_fast,
)
from benford_radix.stats import leading_one_by_base

from oracles import (
    digit_counts,
    atanh_scaled_by_mpmath,
    expansion_by_division,
    leading_digit_of_power_by_mpmath,
    log_fixed_by_mpmath,
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
        # at call time, before any digit is asked for
        with pytest.raises(ValueError, match="exact integer"):
            iter_leading_digits(SequenceSpec.powers(2, 3), INFINITE)

    @pytest.mark.parametrize("base", [2, 3, 7, 10, 16, 64])
    def test_matches_per_term_extraction(self, base):
        spec = SequenceSpec.factorial(40)
        direct = [_leading_digit(x, 1, base) for x in generate(spec)]
        assert list(iter_leading_digits(spec, base)) == direct


class TestRationalLogCycles:
    def test_base4_two_cycle(self):
        digits = list(iter_leading_digits(SequenceSpec.powers(2, 1001), 4))
        assert digits == [1, 2] * 500 + [1]

    def test_base8_three_cycle(self):
        digits = list(iter_leading_digits(SequenceSpec.powers(2, 1001), 8))
        assert digits == ([1, 2, 4] * 334)[:1001]

    def test_huge_rooted_power_is_fast(self):
        # 2**100000 = 8**33333 * 2: a**k has the digit 2**(k mod 3) in base 8
        start = time.perf_counter()
        fast = leading_digit_power_fast(2 ** 100000, 3, 2)
        digits = list(logdigits.power_digits(2 ** 100000, 5, 8))
        assert time.perf_counter() - start < 0.5  # about 1 ms
        assert fast == (1, True)
        assert digits == [1, 2, 4, 1, 2]

    @pytest.mark.parametrize("g", [2, 3, 6, 10, 63])
    @pytest.mark.parametrize("u", [1, 2, 7, 300, 5000])
    def test_exponent_is_exact(self, g, u):
        n = g ** u
        assert logdigits._exponent(n, g) == u
        assert logdigits._exponent(n + 1, g) == 0
        assert logdigits._exponent(n * (g + 1), g) == 0
        if n > 2:
            assert logdigits._exponent(n - 1, g) == 0


class TestFastPath:
    def test_power_ten_entries(self):
        got = leading_digit_power_fast(2, 10, 10)
        assert got == FastDigit(digit=1, certain=True) and type(got.digit) is int

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
        assert logdigits._resolve_power(2, 1, 10) == 2

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
                    assert _leading_digit(a ** k, 1, base) == exact
        assert ambiguous / total <= 0.001

    def test_fallback_wrapper_always_exact(self):
        for k in (0, 1, 2, 3, 17, 100):
            for base in (3, 5, 10, 12):
                assert logdigits._resolve_power(2, k, base) == _leading_digit(
                    2 ** k, 1, base
                )


def _same_digits(spec, base):
    got = list(iter_leading_digits(spec, base))
    exact = list(iter_leading_digits_exact(spec, base))
    assert got == exact
    assert all(type(d) is int for d in got)
    assert leading_digit_counts(spec, base) == digit_counts(exact, base)


def _exact_counts(spec, base):
    return digit_counts(iter_leading_digits_exact(spec, base), base)


BASES = st.integers(min_value=2, max_value=64)
# perfect powers and powers sharing a root with some base 2..64
ROOTED = st.sampled_from([4, 6, 8, 9, 16, 25, 27, 32, 36, 49, 64, 81, 100, 125, 128, 144, 196])


def _examples(cases):
    """Add each dict of ``cases`` to a hypothesis test as an explicit example."""
    def add(test):
        for case in cases:
            test = example(**case)(test)
        return test
    return add


# Lengths on both sides of 2**12 and past 2**13 terms.
SEAM_POWERS = [
    {"a": a, "n": n, "base": base}
    for a in (2, 3, 7) for n in (4096, 4097, 8193) for base in (3, 10, 61)
]


class TestCertifiedStreams:
    @settings(max_examples=300, deadline=None)
    @given(a=st.one_of(st.integers(2, 200), ROOTED), n=st.integers(1, 600), base=BASES)
    @_examples(SEAM_POWERS)
    def test_powers_match_exact(self, a, n, base):
        _same_digits(SequenceSpec.powers(a, n), base)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(150, 450), base=BASES)
    @_examples([{"n": 200 + 4097, "base": 7}, {"n": 200 + 4097, "base": 10}])
    def test_fibonacci_across_the_exact_prefix(self, n, base):
        _same_digits(SequenceSpec.fibonacci(n), base)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 3000), base=BASES)
    @_examples([{"n": 4097, "base": 7}, {"n": 4097, "base": 10}])
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


# Bases whose power table for the factorial mantissas has few and many rows
MANTISSA_BASES = (2, 3, 7, 10, 16, 60, 64)


class TestFactorialMantissa:
    @pytest.mark.parametrize("bits", [16, 20])
    @pytest.mark.parametrize("base", MANTISSA_BASES)
    def test_low_precision_certifies_only_true_digits(self, bits, base):
        # at 16 and 20 bits the floored mantissas put some digits of the
        # first 3000 factorials off by one; their certificates must fail
        exact = list(iter_leading_digits_exact(SequenceSpec.factorial(3000), base))
        got = list(logdigits._mantissa_digits(3000, base, bits, lambda m: 0))
        certified = [(d, e) for d, e in zip(got, exact) if d]
        assert all(d == e for d, e in certified)
        assert 0 < len(certified) < len(exact)

    @pytest.mark.parametrize("base", MANTISSA_BASES)
    def test_top_of_the_power_table(self, base):
        # a step of the walk can first divide by b**(k+1) past m = b**k, so
        # n on both sides of b**k reaches the top of the power table
        exact = list(iter_leading_digits_exact(SequenceSpec.factorial(4097), base))
        for k in range(1, 13):
            for n in (base ** k - 1, base ** k, base ** k + 1):
                if n > 4097:
                    break
                assert list(logdigits.factorial_digits(n, base)) == exact[:n], n
                low = logdigits._mantissa_digits(n, base, 16, lambda m: 0)
                assert all(d in (0, e) for d, e in zip(low, exact)), n

    def test_counts_of_20000_factorials(self):
        counts = leading_digit_counts(SequenceSpec.factorial(20000), 10)
        assert counts == (5934, 3572, 2552, 1944, 1563, 1422, 1112, 1042, 859)


class TestHistogramCounts:
    @settings(max_examples=200, deadline=None)
    @given(
        a=st.one_of(st.integers(2, 200), ROOTED),
        n=st.one_of(st.integers(1, 64), st.integers(65, 3000)),
        base=BASES,
    )
    @_examples([{"a": 2, "n": 3000, "base": 16}, {"a": 9, "n": 3000, "base": 27},
                {"a": 27, "n": 65, "base": 9}, {"a": 2, "n": 3000, "base": 10}])
    def test_powers_match_exact(self, a, n, base):
        spec = SequenceSpec.powers(a, n)
        want = _exact_counts(spec, base)
        assert leading_digit_counts(spec, base) == want
        assert leading_digit_counts(spec, base, top=1) == want[:1]

    @pytest.mark.parametrize("n", [199, 200, 201, 202, 1482, 1483])
    def test_fibonacci_around_the_exact_prefix(self, n):
        # 200 terms are resolved exactly, and histograms below n = 2**500
        # stream 1482 terms
        spec = SequenceSpec.fibonacci(n)
        for base in range(2, 65):
            assert leading_digit_counts(spec, base) == _exact_counts(spec, base), base

    @pytest.mark.parametrize(
        "spec, base",
        [(SequenceSpec.powers(2, 10 ** 6), 10), (SequenceSpec.powers(3, 10 ** 6), 7),
         (SequenceSpec.fibonacci(10 ** 6), 10)],
        ids=["pow2-10", "pow3-7", "fib-10"],
    )
    def test_million_terms_match_the_stream(self, spec, base):
        want = digit_counts(iter_leading_digits(spec, base), base)
        assert leading_digit_counts(spec, base) == want

    @pytest.mark.parametrize("a, base", [(2, 10), (3, 7)])
    def test_one_more_power_past_2048_bits(self, a, base):
        # the bound of 10**400 terms needs 4096 bits; one more term adds
        # exactly its own digit, which the resolver certifies on its own
        n = 10 ** 400
        before = leading_digit_counts(SequenceSpec.powers(a, n), base)
        after = leading_digit_counts(SequenceSpec.powers(a, n + 1), base)
        d = logdigits._resolve_power(a, n, base)
        assert [y - x for x, y in zip(before, after)] == [int(i == d) for i in range(1, base)]

    @pytest.mark.parametrize("n", [2 ** 275, 2 ** 300], ids=["2**275", "2**300"])
    @pytest.mark.parametrize("base", [10, 7])
    def test_one_more_fibonacci_past_the_binet_wall(self, n, base):
        # the streamed prefix keeps the Binet part of the bound under one
        # unit up to 2048 bits, which certify these counts
        before = leading_digit_counts(SequenceSpec.fibonacci(n), base)
        after = leading_digit_counts(SequenceSpec.fibonacci(n + 1), base)
        d = logdigits._resolve_fibonacci(n + 1, base)
        assert sum(before) == n
        assert [y - x for x, y in zip(before, after)] == [int(i == d) for i in range(1, base)]

    def test_one_boundary_table_per_base(self):
        # the floor sums and the stream prefix share each base's 128-bit table;
        # powers of 2 in the 6 bases that are powers of 2 use the digit cycle
        n = 10000
        logdigits._digit_boundaries.cache_clear()
        rows = leading_one_by_base(range(2, 65), n)
        assert logdigits._digit_boundaries.cache_info().currsize == 57
        for row in rows[:-1]:
            ones = digit_counts(iter_leading_digits(SequenceSpec.powers(2, n), row.base), row.base)
            assert row.empirical_p1 == ones[0] / n, row.base

    def test_top_is_a_digit(self):
        spec = SequenceSpec.powers(2, 10)
        for top in (0, 10):
            with pytest.raises(ValueError, match="top digit"):
                leading_digit_counts(spec, 10, top)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(0, 60), m=st.integers(1, 100), a=st.integers(0, 300),
           c=st.integers(0, 300))
    def test_floor_sum_matches_the_sum(self, n, m, a, c):
        assert logdigits._floor_sum(n, m, a, c) == sum((a * k + c) // m for k in range(n))


def _spy_on_counts(monkeypatch):
    """Record (bits, certified) for each floor-sum count `logdigits` attempts."""
    calls, linear_counts = [], logdigits._linear_counts

    def spy(*args):
        counts = linear_counts(*args)
        calls.append((args[-1], counts is not None))
        return counts

    monkeypatch.setattr(logdigits, "_linear_counts", spy)
    return calls


# Fibonacci histograms stream a prefix of 1482 terms below n = 2**500, so
# 3000 terms leave 1518 to the floor sums
BAND_SPECS = pytest.mark.parametrize(
    "spec", [SequenceSpec.powers(3, 1000), SequenceSpec.fibonacci(3000)], ids=["pow3", "fib"]
)


class TestCountCertificate:
    @BAND_SPECS
    def test_band_hit_escalates(self, spec, monkeypatch):
        # a bound of 2**120 units or more makes each band at least 1/128 of
        # the circle at 128 bits, which some of the ~900 or ~1500 counted terms
        # fall in; at 256 bits the bands are 2**-128 times as wide
        calls = _spy_on_counts(monkeypatch)
        monkeypatch.setattr(logdigits, "_FP_CONST_ERR", 1 << 110)
        assert leading_digit_counts(spec, 10) == _exact_counts(spec, 10)
        assert calls == [(128, False), (256, True)]

    @BAND_SPECS
    def test_band_hit_at_every_precision_is_refused(self, spec, monkeypatch):
        calls = _spy_on_counts(monkeypatch)
        monkeypatch.setattr(logdigits, "_FP_CONST_ERR", 1 << logdigits._MAX_LOG_BITS)
        with pytest.raises(ValueError, match="not certified"):
            leading_digit_counts(spec, 10)
        assert calls == [(bits, False) for bits in (128, 256, 512, 1024, 2048)]

    def test_huge_n_escalates_past_2048_bits(self, monkeypatch):
        # a 1329-bit n: the bound is about n units and n terms are counted,
        # so 2048 bits leave bands hit and the ladder goes on to 4096
        calls = _spy_on_counts(monkeypatch)
        n = 10 ** 400
        assert sum(leading_digit_counts(SequenceSpec.powers(2, n), 10)) == n
        assert calls == [(bits, False) for bits in (128, 256, 512, 1024, 2048)] + [(4096, True)]


class TestLogKernel:
    @pytest.mark.parametrize("p", [1, 8, 128, 2048])
    def test_atanh_within_one_unit(self, p):
        for num, den in [(0, 1), (1, 2), (1, 3), (3, 11), (1, 40001), (10 ** 40, 3 * 10 ** 40 + 1)]:
            got = logdigits._atanh(num, den, p)
            assert abs(got - atanh_scaled_by_mpmath(num, den, p)) < 1, (num, den)

    @pytest.mark.parametrize("bits", [128, 256, 2048])
    def test_digit_boundaries_match_mpmath(self, bits):
        for base in range(2, 65):
            got = logdigits._digit_boundaries(base, bits)
            assert got[-1] == 1 << bits
            for d in range(1, base):
                want = log_fixed_by_mpmath(d, base, bits)
                assert abs(got[d - 1] - want) <= logdigits._FP_CONST_ERR, (base, d)

    @pytest.mark.parametrize(
        "a", [2, 3, 10 ** 40 + 7, 7 ** 10330 + 1], ids=["2", "3", "1e40+7", "29000-bit"]
    )
    @pytest.mark.parametrize("bits", [128, 256])
    def test_log_fixed_point_matches_mpmath(self, a, bits):
        for base in range(2, 65):
            got = logdigits._log_fixed_point(a, base, bits)
            assert abs(got - log_fixed_by_mpmath(a, base, bits)) <= logdigits._FP_CONST_ERR, base


class TestResolver:
    @pytest.mark.parametrize("k", [10 ** 40, 10 ** 40 + 1, 3 * 10 ** 40 + 7, 2 ** 133 - 1,
                                   pytest.param(10 ** 700, id="10**700")])
    def test_huge_exponent_matches_mpmath(self, k):
        assert not leading_digit_power_fast(2, k, 10).certain
        start = time.perf_counter()
        got = logdigits._resolve_power(2, k, 10)
        elapsed = time.perf_counter() - start
        # k * log10(2) has about k.bit_length() * 0.3 integer digits
        dps = max(200, k.bit_length() * 3 // 10 + 100)
        assert got == leading_digit_of_power_by_mpmath(2, k, 10, dps=dps)
        assert elapsed < 1.0

    def test_boundary_hit_beyond_the_exact_cap_is_refused(self, monkeypatch):
        # 2 = 2 * 10**0 sits on a digit boundary, so no precision certifies it
        monkeypatch.setattr(logdigits, "_EXACT_BITS", 0)
        with pytest.raises(ValueError, match="not certified"):
            logdigits._resolve_power(2, 1, 10)

    def test_escalation_for_fibonacci_and_factorial_terms(self, monkeypatch):
        monkeypatch.setattr(logdigits, "_EXACT_BITS", 0)
        for m in range(1500, 1505):
            fib = list(generate(SequenceSpec.fibonacci(m)))[-1]
            assert logdigits._resolve_fibonacci(m, 10) == _leading_digit(fib, 1, 10)
        for m in (10, 57, 300):
            assert logdigits._resolve_factorial(m, 7) == _leading_digit(
                math.factorial(m), 1, 7
            )
        for base in (7, 10, 64):
            assert logdigits._resolve_factorial(5000, base) == _leading_digit(
                math.factorial(5000), 1, base
            )

    def test_factorial_walk_is_bounded(self, monkeypatch):
        # the mantissas of 200000 terms at 256 bits, with no exact term
        want = _leading_digit(math.factorial(200_000), 1, 10)
        monkeypatch.setattr(logdigits, "_EXACT_BITS", 0)
        start = time.perf_counter()
        got = logdigits._resolve_factorial(200_000, 10)
        assert time.perf_counter() - start < 1.0
        assert got == want

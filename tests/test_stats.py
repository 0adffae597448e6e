import pytest
from hypothesis import given
from hypothesis import strategies as st

from benford_radix.digits import Digit
from benford_radix.model import BenfordPmf, benford_pmf
from benford_radix.sequences import (
    SequenceSpec,
    iter_leading_digits,
    iter_leading_digits_exact,
)
from benford_radix.stats import (
    DigitHistogram,
    EmptyHistogram,
    MadThresholds,
    RadixMismatch,
    _chi_square_statistic,
    chi_square_fit,
    chi_square_p_value,
    chunked_tally,
    leading_one_by_base,
    merge,
    tally,
)

from oracles import gamma_q_by_mpmath

POW2_FIRST13_DIGITS = [1, 2, 4, 8, 1, 3, 6, 1, 2, 5, 1, 2, 4]
# counts = round(1000 * the 1938 reference column); sums to exactly 1000
TABLE1_COUNTS = (306, 185, 124, 94, 80, 64, 51, 49, 47)
# frozen from direct evaluation of the MAD / chi-square sums over TABLE1_COUNTS
TABLE1_MAD = 0.0035422241493417
TABLE1_CHI2 = 1.7326925658072116
# frozen from mpmath.gammainc(4, chi2/2, inf, regularized=True)
TABLE1_P_VALUE = 0.9881390007044948


def histogram_strategy(base):
    return st.lists(
        st.integers(min_value=0, max_value=50), min_size=base - 1, max_size=base - 1
    ).map(lambda cs: DigitHistogram(base=base, counts=tuple(cs)))


class TestTally:
    def test_doubling_sequence_counts(self):
        hist = tally(POW2_FIRST13_DIGITS, 10)
        assert hist.counts == (4, 3, 1, 2, 1, 1, 0, 1, 0)
        assert hist.total == 13
        assert hist.count(1) / hist.total == pytest.approx(0.308, abs=0.001)

    def test_empty_stream(self):
        hist = tally([], 10)
        assert hist.counts == (0,) * 9 and hist.total == 0

    def test_binary_ones(self):
        hist = tally([1] * 7, 2)
        assert hist.counts == (7,) and hist.total == 7

    def test_mixed_radix_rejected(self):
        with pytest.raises(RadixMismatch):
            tally([Digit(1, base=2), Digit(1, base=10)], 2)

    def test_out_of_range_int_rejected(self):
        with pytest.raises(ValueError):
            tally([0], 10)
        with pytest.raises(ValueError):
            tally([10], 10)

    def test_float_digits_rejected(self):
        with pytest.raises(ValueError, match="exact integer"):
            tally([3.7], 10)

    def test_accepts_digit_instances_of_matching_base(self):
        hist = tally([Digit(3, base=10), Digit(3, base=10)], 10)
        assert hist.count(3) == 2


class TestMerge:
    def test_identity(self):
        h = tally(POW2_FIRST13_DIGITS, 10)
        assert merge(h, DigitHistogram.zero(10)) == h

    def test_componentwise_example(self):
        h1 = DigitHistogram(base=3, counts=(2, 1))
        h2 = DigitHistogram(base=3, counts=(1, 3))
        assert merge(h1, h2).counts == (3, 4)

    def test_chunked_equals_whole(self):
        whole = tally(POW2_FIRST13_DIGITS, 10)
        split = chunked_tally([POW2_FIRST13_DIGITS[:6], POW2_FIRST13_DIGITS[6:]], 10)
        assert split == whole

    def test_radix_mismatch_rejected(self):
        with pytest.raises(RadixMismatch):
            merge(DigitHistogram.zero(3), DigitHistogram.zero(4))

    @given(base=st.integers(2, 16), data=st.data())
    def test_commutative_and_associative(self, base, data):
        h1 = data.draw(histogram_strategy(base))
        h2 = data.draw(histogram_strategy(base))
        h3 = data.draw(histogram_strategy(base))
        assert merge(h1, h2) == merge(h2, h1)
        assert merge(merge(h1, h2), h3) == merge(h1, merge(h2, h3))
        assert merge(h1, DigitHistogram.zero(base)) == h1

    def test_add_operator(self):
        h = tally(POW2_FIRST13_DIGITS, 10)
        assert (h + DigitHistogram.zero(10)) == h


class TestRegularizedGamma:
    @pytest.mark.parametrize(
        "s,x",
        [
            (0.5, 0.1), (0.5, 2.0), (1.0, 1.0), (1.5, 0.25), (2.0, 5.0),
            (4.0, 0.8663462829036058), (4.0, 3.0), (4.0, 20.0), (7.5, 6.0),
            (7.5, 30.0), (10.0, 1.0), (10.0, 9.5), (10.0, 40.0), (31.5, 20.0),
        ],
    )
    def test_matches_mpmath(self, s, x):
        # the chi-square tail with df = 2s at statistic 2x is Q(s, x)
        assert chi_square_p_value(2 * x, int(2 * s)) == pytest.approx(
            gamma_q_by_mpmath(s, x), abs=1e-12
        )

    def test_edges(self):
        assert chi_square_p_value(0.0, 6) == 1.0
        with pytest.raises(ValueError):
            chi_square_p_value(2.0, 0)
        with pytest.raises(ValueError):
            chi_square_p_value(-2.0, 2)

    def test_every_df_over_six_decades(self):
        # every df a fit can have (bases 3..64), statistics 1e-3..2e3
        statistics = [10 ** (k / 4) for k in range(-12, 14)]
        for df in range(1, 63):
            for x in statistics:
                assert chi_square_p_value(x, df) == pytest.approx(
                    gamma_q_by_mpmath(df / 2, x / 2), rel=1e-10, abs=1e-300
                ), (df, x)

    def test_negative_statistic_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            chi_square_p_value(-1e-9, 8)

    def test_p_value_monotone_in_statistic(self):
        for df in (1, 4, 8, 15):
            grid = [chi_square_p_value(x / 2, df) for x in range(0, 121)]
            assert all(a >= b for a, b in zip(grid, grid[1:]))

    def test_p_value_needs_positive_df(self):
        with pytest.raises(ValueError):
            chi_square_p_value(1.0, 0)


class TestChiSquareFit:
    def test_exactly_proportional_counts(self):
        # expected cell probabilities chosen to be exact binary fractions so
        # the expected counts are integral and the statistic is exactly zero
        expected = BenfordPmf(base=5, probs=(0.5, 0.25, 0.125, 0.125))
        observed = DigitHistogram(base=5, counts=(40, 20, 10, 10))
        report = chi_square_fit(observed, expected)
        assert report.statistic_chi2 == 0.0
        assert report.p_value == 1.0
        assert report.verdict == "close"
        assert report.degrees_of_freedom == 3

    def test_reference_column_fit(self):
        observed = DigitHistogram(base=10, counts=TABLE1_COUNTS)
        report = chi_square_fit(observed, benford_pmf(10))
        assert report.statistic_chi2 == pytest.approx(TABLE1_CHI2, abs=1e-9)
        assert report.mad == pytest.approx(TABLE1_MAD, abs=1e-9)
        assert report.max_deviation == pytest.approx(0.0089087409, abs=1e-9)
        assert report.p_value == pytest.approx(TABLE1_P_VALUE, abs=1e-8)
        assert report.verdict == "close"
        assert report.degrees_of_freedom == 8
        assert report.mad <= report.max_deviation
        assert not report.warnings

    def test_powers_of_two_conform(self):
        digits = iter_leading_digits(SequenceSpec.powers(2, 10 ** 4), 10)
        report = chi_square_fit(tally(digits, 10), benford_pmf(10))
        assert report.mad < 0.01
        assert report.verdict == "close"

    def test_small_cells_warn_but_compute(self):
        observed = tally(POW2_FIRST13_DIGITS, 10)
        report = chi_square_fit(observed, benford_pmf(10))
        assert report.warnings and "below 5" in report.warnings[0]

    def test_radix_mismatch(self):
        with pytest.raises(RadixMismatch):
            chi_square_fit(DigitHistogram.zero(8), benford_pmf(10))

    def test_empty_histogram(self):
        with pytest.raises(EmptyHistogram):
            chi_square_fit(DigitHistogram.zero(10), benford_pmf(10))

    def test_base2_has_no_degrees_of_freedom(self):
        with pytest.raises(ValueError, match="degrees of freedom"):
            chi_square_fit(tally([1, 1], 2), benford_pmf(2))

    def test_statistic_invariant_under_relabeling(self):
        counts = (40, 25, 20, 10, 5)
        probs = (0.4, 0.25, 0.2, 0.1, 0.05)
        perm = [3, 0, 4, 2, 1]
        assert _chi_square_statistic(
            [counts[i] for i in perm], [probs[i] for i in perm]
        ) == pytest.approx(_chi_square_statistic(counts, probs), rel=1e-12)

    def test_custom_thresholds_are_configuration(self):
        observed = DigitHistogram(base=10, counts=TABLE1_COUNTS)
        strict = MadThresholds(close=1e-6, acceptable=2e-6, marginal=3e-6)
        assert chi_square_fit(observed, benford_pmf(10), strict).verdict == (
            "nonconforming"
        )


class TestMadConvergence:
    def test_mad_nonincreasing_within_noise(self):
        digits = list(iter_leading_digits(SequenceSpec.powers(2, 10 ** 4), 10))
        pmf = benford_pmf(10)
        mads = []
        for n in (10 ** 2, 10 ** 3, 10 ** 4):
            report = chi_square_fit(tally(digits[:n], 10), pmf)
            mads.append(report.mad)
        assert mads[1] < mads[0] + 0.005
        assert mads[2] < mads[1] + 0.005


class TestLeadingOneByBase:
    def test_binary_row_is_always_one(self):
        for n in (1, 7, 64):
            row = leading_one_by_base([2], n)[0]
            assert row.empirical_p1 == 1.0

    def test_base10_thirteen_terms(self):
        row = [r for r in leading_one_by_base(range(2, 13), 13) if r.base == 10][0]
        assert row.empirical_p1 == pytest.approx(4 / 13)
        assert row.reference_p1 == 0.31

    def test_base3_row_reports_reference_without_asserting_it(self):
        row = [r for r in leading_one_by_base([3], 13) if r.base == 3][0]
        assert row.empirical_p1 == pytest.approx(8 / 13)
        assert row.asymptotic_p1 == pytest.approx(0.63093, abs=1e-5)
        assert row.reference_p1 == 0.70

    def test_infinite_row(self):
        rows = leading_one_by_base([2, 10], 13)
        inf_row = rows[-1]
        assert inf_row.base == float("inf")
        assert inf_row.empirical_p1 == pytest.approx(1 / 13)
        assert inf_row.reference_p1 == 0.0

    def test_weakly_decreasing_for_large_samples(self):
        rows = leading_one_by_base(range(2, 17), 10 ** 3)
        finite = [r.empirical_p1 for r in rows if r.base != float("inf")]
        assert all(a >= b for a, b in zip(finite, finite[1:]))

    def test_other_sequence_base_has_no_reference_column(self):
        rows = leading_one_by_base([10], 13, sequence_base=3)
        assert all(r.reference_p1 is None for r in rows)

    def test_rejects_bad_sample_size(self):
        with pytest.raises(ValueError):
            leading_one_by_base([10], 0)

    @pytest.mark.parametrize("sequence_base", [2, 3, 10])
    def test_empirical_column_is_the_exact_count(self, sequence_base):
        n = 1500
        rows = leading_one_by_base(range(2, 65), n, sequence_base=sequence_base)
        for row in rows[:-1]:
            exact = iter_leading_digits_exact(SequenceSpec.powers(sequence_base, n), row.base)
            assert row.empirical_p1 == list(exact).count(1) / n, row.base

import math

import pytest

from benford_radix.model import benford_pmf
from benford_radix.sequences import (
    SequenceSpec,
    iter_leading_digits,
    iter_leading_digits_exact,
    leading_digit_counts,
)
from benford_radix.stats import (
    _chi_square_statistic,
    _verdict,
    chi_square_fit,
    chi_square_p_value,
    leading_one_by_base,
)

from oracles import digit_counts, gamma_q_by_mpmath

POW2_P1_AT_2_1024 = [
    1.0, 0.6309297535714574, 0.5, 0.43067655807339306, 0.3868528072345416,
    0.3562071871080222, 0.3333333333333333, 0.3154648767857287, 0.3010299956639812,
    0.2890648263178879, 0.27894294565112987, 0.27023815442731974, 0.26264953503719357,
    0.2559580248098155, 0.25, 0.24465054211822604, 0.23981246656813143,
    0.23540891336663824, 0.23137821315975918, 0.227670248696953, 0.22424382421757544,
    0.22106472945750374, 0.21810429198553155, 0.21533827903669653, 0.21274605355336315,
    0.21030991785715247, 0.20801459767650946, 0.20584683246043445, 0.2037950470905062,
    0.20184908658209985, 0.2, 0.19823986317056053, 0.1965616322328226,
    0.1949590218937863, 0.1934264036172708, 0.19195872000656014, 0.1905514124267734,
    0.18920035951687003, 0.18790182470910757, 0.18665241123894338, 0.1854490234153689,
    0.18428883314870617, 0.18316925091363362, 0.18208790046993825, 0.18104259678004023,
    0.18003132665669264, 0.17905223175104137, 0.1781035935540111, 0.17718382013555792,
    0.1762914343888821, 0.17542506358195453, 0.17458343004804494, 0.17376534287144,
    0.1729696904450771, 0.17219543379409813, 0.17144160057391344, 0.17070727966372012,
    0.16999161628691403, 0.16929380759878143, 0.1686130986895011, 0.16794877895704194,
    0.16730017881017414, 0.16666666666666666,
]

POW2_FIRST13_DIGITS = [1, 2, 4, 8, 1, 3, 6, 1, 2, 5, 1, 2, 4]
# counts = round(1000 * the 1938 reference column); sums to exactly 1000
TABLE1_COUNTS = (306, 185, 124, 94, 80, 64, 51, 49, 47)
# frozen from direct evaluation of the MAD / chi-square sums over TABLE1_COUNTS
TABLE1_MAD = 0.0035422241493417
TABLE1_CHI2 = 1.7326925658072116
# frozen from mpmath.gammainc(4, chi2/2, inf, regularized=True)
TABLE1_P_VALUE = 0.9881390007044948


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
        # a tiny statistic: the rounded sum passes 1 by an ulp here, unclamped
        assert chi_square_p_value(0.005, 12) == 1.0
        assert chi_square_p_value(0.05, 15) == 1.0
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
        fit, warnings = chi_square_fit((40, 20, 10, 10), (0.5, 0.25, 0.125, 0.125))
        assert fit == {"chi2": 0.0, "df": 3, "p_value": 1.0, "mad": 0.0,
                       "max_deviation": 0.0, "verdict": "close"}
        assert warnings == []

    def test_reference_column_fit(self):
        fit, warnings = chi_square_fit(TABLE1_COUNTS, benford_pmf(10))
        # the keys of an analyze document's fit, in its order
        assert list(fit) == ["chi2", "df", "p_value", "mad", "max_deviation", "verdict"]
        assert fit["chi2"] == pytest.approx(TABLE1_CHI2, abs=1e-9)
        assert fit["mad"] == pytest.approx(TABLE1_MAD, abs=1e-9)
        assert fit["max_deviation"] == pytest.approx(0.0089087409, abs=1e-9)
        assert fit["p_value"] == pytest.approx(TABLE1_P_VALUE, abs=1e-8)
        assert fit["verdict"] == "close"
        assert fit["df"] == 8
        assert fit["mad"] <= fit["max_deviation"]
        assert not warnings

    def test_powers_of_two_conform(self):
        digits = iter_leading_digits(SequenceSpec.powers(2, 10 ** 4), 10)
        fit, _ = chi_square_fit(digit_counts(digits, 10), benford_pmf(10))
        assert fit["mad"] < 0.01
        assert fit["verdict"] == "close"

    def test_small_cells_warn_but_compute(self):
        _, warnings = chi_square_fit(digit_counts(POW2_FIRST13_DIGITS, 10), benford_pmf(10))
        assert warnings and "below 5" in warnings[0]

    def test_base2_has_no_degrees_of_freedom(self):
        with pytest.raises(ValueError, match="degrees of freedom"):
            chi_square_fit((2,), benford_pmf(2))

    def test_statistic_invariant_under_relabeling(self):
        counts = (40, 25, 20, 10, 5)
        probs = (0.4, 0.25, 0.2, 0.1, 0.05)
        perm = [3, 0, 4, 2, 1]
        assert _chi_square_statistic(
            [counts[i] for i in perm], [probs[i] for i in perm]
        ) == pytest.approx(_chi_square_statistic(counts, probs), rel=1e-12)

    @pytest.mark.parametrize("cutoff, at, above", [
        (0.006, "close", "acceptable"),
        (0.012, "acceptable", "marginal"),
        (0.015, "marginal", "nonconforming"),
    ])
    def test_verdict_cutoffs(self, cutoff, at, above):
        assert _verdict(cutoff) == at
        assert _verdict(math.nextafter(cutoff, 1.0)) == above


class TestMadConvergence:
    def test_mad_nonincreasing_within_noise(self):
        digits = list(iter_leading_digits(SequenceSpec.powers(2, 10 ** 4), 10))
        pmf = benford_pmf(10)
        mads = []
        for n in (10 ** 2, 10 ** 3, 10 ** 4):
            fit, _ = chi_square_fit(digit_counts(digits[:n], 10), pmf)
            mads.append(fit["mad"])
        assert mads[1] < mads[0] + 0.005
        assert mads[2] < mads[1] + 0.005


class TestLeadingOneByBase:
    def test_binary_row_is_always_one(self):
        for n in (1, 7, 64):
            row = leading_one_by_base([2], n)[0]
            assert row["empirical_p1"] == 1.0

    def test_base10_thirteen_terms(self):
        row = [r for r in leading_one_by_base(range(2, 13), 13) if r["base"] == 10][0]
        assert row["empirical_p1"] == pytest.approx(4 / 13)
        assert row["reference_p1"] == 0.31

    def test_base3_row_reports_reference_without_asserting_it(self):
        row = [r for r in leading_one_by_base([3], 13) if r["base"] == 3][0]
        assert row["empirical_p1"] == pytest.approx(8 / 13)
        assert row["asymptotic_p1"] == pytest.approx(0.63093, abs=1e-5)
        assert row["reference_p1"] == 0.70

    def test_infinite_row(self):
        rows = leading_one_by_base([2, 10], 13)
        # the rows of a table2 document: keys in its column order, the
        # infinite row last under the base "inf" that the documents print
        assert [list(r) for r in rows] == [["base", "n", "empirical_p1", "asymptotic_p1",
                                            "reference_p1"]] * 3
        assert [r["base"] for r in rows] == [2, 10, "inf"]
        inf_row = rows[-1]
        assert inf_row["n"] == 13 and inf_row["asymptotic_p1"] == 0.0
        assert inf_row["empirical_p1"] == pytest.approx(1 / 13)
        assert inf_row["reference_p1"] == 0.0

    @pytest.mark.parametrize(
        "n, p1",
        [(1, 1.0), (13, 1 / 13), (10**6, 1e-6), (2**1024, 2.0**-1024), (10**400, 0.0)],
        ids=["1", "13", "10**6", "2**1024", "10**400"],
    )
    def test_infinite_row_is_one_over_n(self, n, p1):
        # one symbol per number: of 2**0 .. 2**(n-1) only 2**0 = 1 reads "1";
        # past the float range 1/n is subnormal, then 0.0
        assert leading_one_by_base([], n)[-1]["empirical_p1"] == p1

    def test_infinite_row_rejects_zero_terms(self):
        # the infinite row alone still refuses an empty sample rather than
        # dividing by zero
        with pytest.raises(ValueError, match="sample size must be >= 1"):
            leading_one_by_base([], 0)

    def test_weakly_decreasing_for_large_samples(self):
        rows = leading_one_by_base(range(2, 17), 10 ** 3)
        finite = [r["empirical_p1"] for r in rows[:-1]]
        assert all(a >= b for a, b in zip(finite, finite[1:]))

    def test_other_sequence_base_has_no_reference_column(self):
        rows = leading_one_by_base([10], 13, sequence_base=3)
        assert all(r["reference_p1"] is None for r in rows)

    def test_rejects_bad_sample_size(self):
        with pytest.raises(ValueError):
            leading_one_by_base([10], 0)

    @pytest.mark.parametrize("sequence_base", [1, 0])
    def test_rejects_bad_sequence_base(self, sequence_base):
        with pytest.raises(ValueError, match="integer base >= 2"):
            leading_one_by_base([10], 5, sequence_base=sequence_base)

    @pytest.mark.parametrize("sequence_base", [2, 3, 10])
    def test_empirical_column_is_the_exact_count(self, sequence_base):
        n = 1500
        rows = leading_one_by_base(range(2, 65), n, sequence_base=sequence_base)
        for row in rows[:-1]:
            exact = iter_leading_digits_exact(SequenceSpec.powers(sequence_base, n), row["base"])
            assert row["empirical_p1"] == list(exact).count(1) / n, row["base"]

    def test_counts_past_2048_bits_are_unchanged(self):
        # the floor-sum count of 2**1024 powers runs at 4096 bits, where only
        # the top + 1 = 2 boundaries are taken; empirical P(1) in bases
        # 2..64 as the table computed from every boundary gave it
        rows = leading_one_by_base(range(2, 65), 2**1024)
        assert [r["empirical_p1"] for r in rows[:-1]] == POW2_P1_AT_2_1024
        for base in (3, 10, 64):
            spec = SequenceSpec.powers(2, 2**1024)
            assert leading_digit_counts(spec, base, 1) == leading_digit_counts(spec, base)[:1]

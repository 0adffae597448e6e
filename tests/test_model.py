import pytest

from benford_radix.model import benford_pmf
from benford_radix.reference import BENFORD_1938_FIRST_DIGIT

from oracles import log_ratio_by_mpmath

# log10(2) and log10(10/9), frozen from the 50-digit mpmath evaluation.
LOG10_2 = 0.3010299956639812
LOG10_10_OVER_9 = 0.04575749056067514
# log3(2) and log3(3/2), same source.
LOG3_2 = 0.6309297535714575
LOG3_3_OVER_2 = 0.3690702464285425


class TestBenfordPmf:
    def test_base10_endpoints(self):
        pmf = benford_pmf(10)
        assert pmf[0] == pytest.approx(LOG10_2, abs=1e-12)
        assert pmf[8] == pytest.approx(LOG10_10_OVER_9, abs=1e-12)

    def test_base2_is_point_mass(self):
        assert benford_pmf(2) == (1.0,)

    def test_base3_matches_log_oracle(self):
        pmf = benford_pmf(3)
        assert pmf == pytest.approx((LOG3_2, LOG3_3_OVER_2), abs=1e-12)
        assert pmf[0] == pytest.approx(log_ratio_by_mpmath(2, 3), abs=1e-12)

    @pytest.mark.parametrize("base", range(2, 65))
    def test_normalization_and_monotonicity(self, base):
        pmf = benford_pmf(base)
        assert len(pmf) == base - 1
        assert abs(sum(pmf) - 1.0) <= 1e-12
        assert all(a > b for a, b in zip(pmf, pmf[1:]))

    def test_close_to_1938_reference(self):
        pmf = benford_pmf(10)
        gaps = [abs(p - BENFORD_1938_FIRST_DIGIT[d]) for d, p in enumerate(pmf, 1)]
        assert max(gaps) <= 0.01
        # the worst digit is 2, at just under 0.009
        assert max(gaps) == gaps[1]

    def test_sixfold_gap_between_one_and_nine(self):
        pmf = benford_pmf(10)
        assert pmf[0] / pmf[8] > 6

    def test_infinite_base_rejected(self):
        with pytest.raises(ValueError, match="exact integer"):
            benford_pmf(float("inf"))


class TestLeadingOneProbability:
    # P(1) is the head of the law: log_base(2)
    def test_base2_is_certainty(self):
        assert benford_pmf(2)[0] == 1.0

    def test_base4_is_exactly_half(self):
        assert benford_pmf(4)[0] == 0.5

    def test_base10(self):
        assert benford_pmf(10)[0] == pytest.approx(LOG10_2, abs=1e-12)

    @pytest.mark.parametrize("base", range(2, 65))
    def test_equals_pmf_head(self, base):
        # log_base(2) by the 50-digit oracle, not the law's ratio of log2s
        assert benford_pmf(base)[0] == pytest.approx(log_ratio_by_mpmath(2, base), rel=1e-15)

    def test_strictly_decreasing_in_base(self):
        values = [benford_pmf(b)[0] for b in range(2, 65)]
        assert all(a > b for a, b in zip(values, values[1:]))

"""Acceptance suite: one test per shipped criterion, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion in addition to pytest's own pass/fail report.
"""

import random
import re
import time

import pytest

from benford_radix.cli import main
from benford_radix.digits import _leading_digit
from benford_radix.ingest import NUMERAL, _numeral_digit
from benford_radix.model import benford_pmf, leading_one_probability
from benford_radix.reference import BENFORD_1938_FIRST_DIGIT
from benford_radix.sequences import (
    SequenceSpec,
    iter_leading_digits,
    iter_leading_digits_exact,
    leading_digit_counts,
    leading_digit_power_fast,
)
from benford_radix.stats import chi_square_fit, chi_square_p_value, leading_one_by_base

from oracles import gamma_q_by_mpmath


def _report(num: int, text: str) -> None:
    print(f"\nACCEPTANCE {num:02d} PASS: {text}")


def test_criterion_01_sequence_of_first_digits_exact(capsys):
    start = time.perf_counter()
    code = main(["sequence", "--kind", "pow2", "--base", "10", "-n", "13"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert out == "1 2 4 8 1 3 6 1 2 5 1 2 4\n"
    assert elapsed < 1.0
    _report(1, f"13-term doubling sequence emitted exactly in {elapsed * 1e3:.1f} ms")


def test_criterion_02_thirty_percent_of_ones():
    digits = list(iter_leading_digits(SequenceSpec.powers(2, 13), 10))
    freq = digits.count(1) / len(digits)
    assert freq == pytest.approx(4 / 13)
    assert abs(freq - 0.31) <= 0.01
    _report(2, f"leading-1 frequency {freq:.4f} is within 0.01 of 0.31")


def test_criterion_03_reference_column_closeness():
    pmf = benford_pmf(10)
    gap = max(abs(p - BENFORD_1938_FIRST_DIGIT[d]) for d, p in enumerate(pmf, 1))
    ratio = pmf[0] / pmf[8]
    assert gap <= 0.01
    assert ratio > 6
    _report(3, f"max theory gap {gap:.4f} <= 0.01; P(1)/P(9) = {ratio:.2f} > 6")


def test_criterion_04_cross_base_table_endpoints():
    for n in (1, 2, 13, 100, 1000):
        row = leading_one_by_base([2], n)[0]
        assert row["empirical_p1"] == 1.0
    row10 = [r for r in leading_one_by_base([10], 13) if r["base"] == 10][0]
    assert abs(row10["empirical_p1"] - 0.308) <= 0.005
    assert abs(row10["empirical_p1"] - 0.31) <= 0.03
    for n in (13, 100, 101, 1000):
        inf_row = leading_one_by_base([2], n)[-1]
        assert inf_row["base"] == "inf"
        assert inf_row["empirical_p1"] == 1.0 / n
        if n >= 100:
            assert inf_row["empirical_p1"] <= 0.01
        if n > 100:
            assert inf_row["empirical_p1"] < 0.01
    _report(4, "base-2 row is 1.00 for all N; base-10 row at N=13 is 0.3077; "
               "infinite row equals 1/N and vanishes")


def test_criterion_05_fast_path_oracle_equivalence():
    start = time.perf_counter()
    k_max = 10 ** 4
    total = ambiguous = 0
    for base in range(2, 17):
        exact_iter = iter_leading_digits_exact(SequenceSpec.powers(2, k_max + 1), base)
        for k, exact in enumerate(exact_iter):
            fast = leading_digit_power_fast(2, k, base)
            total += 1
            if fast.certain:
                assert fast.digit == exact, (k, base)
            else:
                ambiguous += 1
                # ambiguity must resolve through the exact fallback
                assert _leading_digit(2 ** k, 1, base) == exact
    elapsed = time.perf_counter() - start
    assert ambiguous / total <= 0.001
    assert elapsed < 60.0
    _report(5, f"{total} (k, base) pairs agree; {ambiguous} ambiguous "
               f"({100 * ambiguous / total:.3f}% <= 0.1%) in {elapsed:.1f} s")


def test_criterion_06_rational_log_cycles():
    base4 = list(iter_leading_digits(SequenceSpec.powers(2, 1001), 4))
    assert base4 == ([1, 2] * 501)[:1001]
    base8 = list(iter_leading_digits(SequenceSpec.powers(2, 1001), 8))
    assert base8 == ([1, 2, 4] * 334)[:1001]
    p4 = base4[:1000].count(1) / 1000
    assert p4 == 0.5
    p8 = base8[:999].count(1) / 999
    assert p8 == 1 / 3
    _report(6, "base-4 digits cycle 1,2 and base-8 digits cycle 1,2,4 for "
               "k <= 1000; P(1) hits exactly 1/2 and 1/3 on full cycles")


def test_criterion_07_normalization_and_monotonicity():
    for base in range(2, 65):
        pmf = benford_pmf(base)
        assert abs(sum(pmf) - 1.0) <= 1e-12
        assert all(a > b for a, b in zip(pmf, pmf[1:]))
    heads = [leading_one_probability(b) for b in range(2, 65)]
    assert all(a > b for a, b in zip(heads, heads[1:]))
    _report(7, "all 63 PMFs normalize within 1e-12, decrease strictly in d, "
               "and P(1) decreases strictly in base")


def test_criterion_08_benford_convergence_and_gamma():
    counts = leading_digit_counts(SequenceSpec.powers(2, 10 ** 4), 10)
    fit, _ = chi_square_fit(counts, benford_pmf(10))
    assert fit["mad"] < 0.01
    worst = 0.0
    for df in (1, 2, 4, 8, 15):
        for statistic in (0.5, 3.0, 10.0, 30.0):
            mine = chi_square_p_value(statistic, df)
            oracle = gamma_q_by_mpmath(df / 2.0, statistic / 2.0)
            worst = max(worst, abs(mine - oracle))
    assert worst <= 1e-8
    _report(8, f"MAD at N=10^4 is {fit['mad']:.5f} < 0.01; p-values match the "
               f"independent gamma oracle within {worst:.2e} on a 20-point grid")


def test_criterion_10_ingestion_exactness():
    rng = random.Random(20260809)
    checked = 0
    while checked < 1000:
        sign = rng.choice(["", "-", "+"])
        int_digits = "".join(
            rng.choice("0123456789") for _ in range(rng.randint(0, 8))
        )
        int_part = "0" * rng.randint(0, 2) + int_digits
        frac_part = "".join(
            rng.choice("0123456789") for _ in range(rng.randint(0, 8))
        )
        if rng.random() < 0.5 and frac_part:
            numeral = f"{sign}{int_part}.{frac_part}"
            digits_all, k = int_part + frac_part, len(frac_part)
        else:
            numeral = f"{sign}{int_part}"
            digits_all, k = int_part, 0
        if not digits_all or int(digits_all) == 0:
            continue
        scan = _numeral_digit(10, *re.fullmatch(NUMERAL, numeral).groups(""))
        rational = _leading_digit(int(digits_all), 10 ** k, 10)
        assert scan == rational, numeral
        checked += 1
    _report(10, "string-scan and exact-rational first digits agree on all "
                "1000 random numerals")

"""Leading-digit histograms, goodness-of-fit, and the multi-base summary table.

A histogram is a plain tuple of the counts of digits 1..base-1, as
`sequences.leading_digit_counts` and `ingest.scan` return it. The fit and
the table come back as the documents print them: the ``fit`` dict of
`analyze` and the ``rows`` dicts of `table2`. The chi-square p-value is
the closed form of the regularized upper incomplete gamma function at
integer degrees of freedom: a finite Poisson sum for even df, erfc plus a
finite sum for odd df.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

from .digits import as_exact_int, check_base
from .model import benford_pmf
from .reference import POW2_LEADING_ONE_REFERENCE


# --- chi-square machinery ---------------------------------------------------


def chi_square_p_value(statistic: float, df: int) -> float:
    """Upper-tail probability Q(df/2, statistic/2) of a chi-square statistic.

    For an integer df >= 1 the regularized upper incomplete gamma function
    has a closed form in y = statistic/2: the Poisson sum
    e**-y * sum(y**i / i!, i < df/2) for even df, and
    erfc(sqrt(y)) + e**-y * sum(y**(i+1/2) / Gamma(i+3/2), i < (df-1)/2)
    for odd df. Each term is taken through its logarithm, so no factor
    underflows on its own.
    """
    k = as_exact_int(df, "degrees of freedom")
    if k < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    if statistic < 0:
        raise ValueError(f"chi-square statistic must be nonnegative, got {statistic}")
    if statistic == 0:
        return 1.0
    y = statistic / 2.0
    log_y = math.log(y)
    shift = 0.5 if k % 2 else 0.0
    q = math.erfc(math.sqrt(y)) if k % 2 else 0.0
    for i in range(k // 2):
        a = i + shift
        q += math.exp(a * log_y - y - math.lgamma(a + 1.0))
    return min(q, 1.0)  # for a tiny statistic the rounded sum can pass 1


#: Verdict cutoffs on the mean absolute deviation: at most each of them
#: reads as the verdict beside it, past the last as "nonconforming".
_MAD_VERDICTS = ((0.006, "close"), (0.012, "acceptable"), (0.015, "marginal"))


def _verdict(mad: float) -> str:
    return next((v for cutoff, v in _MAD_VERDICTS if mad <= cutoff), "nonconforming")


#: Expected counts below this trip the classic small-cell warning.
SMALL_CELL_EXPECTED = 5.0


def _chi_square_statistic(counts: Sequence[int], probs: Sequence[float]) -> float:
    n = sum(counts)
    return sum((o - n * p) ** 2 / (n * p) for o, p in zip(counts, probs))


def chi_square_fit(counts: Sequence[int], probs: Sequence[float]) -> tuple[dict, list[str]]:
    """Chi-square and MAD conformity of the digit counts of a nonempty
    histogram to the first-digit law ``probs`` of its base.

    Returns the ``fit`` dict of an `analyze` document (chi2, df, p_value,
    mad, max_deviation, verdict) and the fit's warnings. The base is
    len(probs) + 1, so degrees of freedom are len(probs) - 1, and base 2 (a
    single cell) has no testable fit: `chi_square_p_value` raises. Expected
    counts below SMALL_CELL_EXPECTED are reported as a warning, not an
    error, so small samples still compute.
    """
    n = sum(counts)
    cells = len(probs)
    statistic = _chi_square_statistic(counts, probs)
    deviations = [abs(c / n - p) for c, p in zip(counts, probs)]
    mad = sum(deviations) / cells
    fit = {
        "chi2": statistic,
        "df": cells - 1,
        "p_value": chi_square_p_value(statistic, cells - 1),
        "mad": mad,
        "max_deviation": max(deviations),
        "verdict": _verdict(mad),
    }
    warnings = []
    small = sum(1 for p in probs if n * p < SMALL_CELL_EXPECTED)
    if small:
        warnings.append(
            f"{small} of {cells} expected counts are below "
            f"{SMALL_CELL_EXPECTED:g}; chi-square p-value is approximate"
        )
    return fit, warnings


# --- multi-base leading-one table -------------------------------------------


def leading_one_by_base(
    bases: Iterable[int], sample_size: int, sequence_base: int = 2
) -> list[dict]:
    """Frequency of leading digit 1 for the first N powers of ``sequence_base``,
    one row per requested base, plus the infinite-system row.

    The rows are the ``rows`` dicts of a `table2` document (base, n,
    empirical_p1, asymptotic_p1, reference_p1), in ascending base, with the
    infinite-system row last under base ``"inf"``. The empirical column is
    an exact count of the powers with leading digit 1, from
    `leading_digit_counts` in O(log N) steps per base; the asymptotic column
    is the equidistribution limit log_base(2); the reference column carries
    the bundled two-decimal values where available (sequence base 2 only).
    """
    n = as_exact_int(sample_size, "sample size")
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {sample_size}")
    from .sequences import SequenceSpec, leading_digit_counts  # loaded for this table only

    spec = SequenceSpec.powers(sequence_base, n)
    reference = POW2_LEADING_ONE_REFERENCE if sequence_base == 2 else {}
    rows = []
    for b in sorted({check_base(base) for base in bases}):
        (ones,) = leading_digit_counts(spec, b, top=1)
        rows.append({
            "base": b,
            "n": n,
            "empirical_p1": ones / n,
            "asymptotic_p1": benford_pmf(b)[0],
            "reference_p1": reference.get(b),
        })
    rows.append({
        "base": "inf",
        "n": n,
        # one symbol per number: only the first term, 1, reads "1" (0.0 past
        # the float range, by exact integer division)
        "empirical_p1": 1 / n,
        "asymptotic_p1": 0.0,
        "reference_p1": reference.get("inf"),
    })
    return rows

"""Leading-digit histograms, goodness-of-fit, and the multi-base summary table.

Histograms are immutable value objects with an associative, commutative
merge, so tallying can be chunked and combined in any order. The chi-square
p-value is the closed form of the regularized upper incomplete gamma
function at integer degrees of freedom: a finite Poisson sum for even df,
erfc plus a finite sum for odd df.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .digits import INFINITE, Digit, as_exact_int, check_base
from .model import BenfordPmf, leading_one_probability, limit_leading_one_probability
from .reference import (
    POW2_LEADING_ONE_REFERENCE,
    POW2_LEADING_ONE_REFERENCE_INFINITE,
)
from .sequences import SequenceSpec, iter_leading_digits


class RadixMismatch(ValueError):
    """Digits or histograms from different bases were combined."""


class EmptyHistogram(ValueError):
    """The operation needs at least one observation."""


@dataclass(frozen=True)
class DigitHistogram:
    """Occurrence counts of leading digits 1..base-1.

    ``counts[i]`` is the count for digit i+1; ``count(d)`` indexes by value.
    """

    base: int
    counts: tuple[int, ...]

    def __post_init__(self):
        check_base(self.base)
        if len(self.counts) != self.base - 1:
            raise ValueError(
                f"need {self.base - 1} counts for base {self.base}, "
                f"got {len(self.counts)}"
            )
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be nonnegative")

    @classmethod
    def zero(cls, base) -> "DigitHistogram":
        b = check_base(base)
        return cls(base=b, counts=(0,) * (b - 1))

    @property
    def total(self) -> int:
        return sum(self.counts)

    def count(self, d: int) -> int:
        if not 1 <= d <= self.base - 1:
            raise ValueError(f"digit must be in 1..{self.base - 1}, got {d}")
        return self.counts[d - 1]

    def __add__(self, other: "DigitHistogram") -> "DigitHistogram":
        return merge(self, other)


def tally(digits: Iterable[int], base) -> DigitHistogram:
    """Count leading-digit occurrences from a stream of digits.

    Accepts Digit instances (whose base must match; a mismatch raises
    RadixMismatch) or plain ints in 1..base-1.
    """
    b = check_base(base)
    counts = [0] * (b - 1)
    for d in digits:
        if isinstance(d, Digit) and d.base != b:
            raise RadixMismatch(
                f"digit read in base {d.base} cannot be tallied in base {b}"
            )
        v = as_exact_int(d, "digit")
        if not 1 <= v <= b - 1:
            raise ValueError(f"digit {v} out of range 1..{b - 1} for base {b}")
        counts[v - 1] += 1
    return DigitHistogram(base=b, counts=tuple(counts))


def merge(h1: DigitHistogram, h2: DigitHistogram) -> DigitHistogram:
    """Elementwise sum of two histograms over the same base."""
    if h1.base != h2.base:
        raise RadixMismatch(f"cannot merge base {h1.base} with base {h2.base}")
    return DigitHistogram(
        base=h1.base, counts=tuple(a + b for a, b in zip(h1.counts, h2.counts))
    )


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


@dataclass(frozen=True)
class MadThresholds:
    """Verdict cutoffs on the mean absolute deviation (configuration, not math)."""

    close: float = 0.006
    acceptable: float = 0.012
    marginal: float = 0.015

    def verdict(self, mad: float) -> str:
        if mad <= self.close:
            return "close"
        if mad <= self.acceptable:
            return "acceptable"
        if mad <= self.marginal:
            return "marginal"
        return "nonconforming"


DEFAULT_MAD_THRESHOLDS = MadThresholds()

#: Expected counts below this trip the classic small-cell warning.
SMALL_CELL_EXPECTED = 5.0


@dataclass(frozen=True)
class FitReport:
    """Goodness-of-fit summary of an observed histogram against a PMF."""

    statistic_chi2: float
    degrees_of_freedom: int
    p_value: float
    mad: float
    max_deviation: float
    verdict: str
    warnings: tuple[str, ...] = ()


def _chi_square_statistic(counts: Sequence[int], probs: Sequence[float]) -> float:
    n = sum(counts)
    return sum((o - n * p) ** 2 / (n * p) for o, p in zip(counts, probs))


def chi_square_fit(
    observed: DigitHistogram,
    expected: BenfordPmf,
    thresholds: MadThresholds = DEFAULT_MAD_THRESHOLDS,
) -> FitReport:
    """Chi-square and MAD conformity of observed digit counts to a PMF.

    Degrees of freedom are (base-1) - 1, so base 2 (a single cell) has no
    testable fit and raises. Expected counts below SMALL_CELL_EXPECTED are
    reported as a warning, not an error, so small samples still compute.
    """
    if observed.base != expected.base:
        raise RadixMismatch(
            f"histogram base {observed.base} does not match pmf base {expected.base}"
        )
    n = observed.total
    if n == 0:
        raise EmptyHistogram("cannot fit an empty histogram")
    df = (observed.base - 1) - 1
    if df < 1:
        raise ValueError(
            f"base {observed.base} leaves no degrees of freedom for a chi-square fit"
        )
    statistic = _chi_square_statistic(observed.counts, expected.probs)
    p_value = chi_square_p_value(statistic, df)
    deviations = [
        abs(c / n - p) for c, p in zip(observed.counts, expected.probs)
    ]
    mad = sum(deviations) / len(deviations)
    max_deviation = max(deviations)
    warnings = []
    small = sum(1 for p in expected.probs if n * p < SMALL_CELL_EXPECTED)
    if small:
        warnings.append(
            f"{small} of {observed.base - 1} expected counts are below "
            f"{SMALL_CELL_EXPECTED:g}; chi-square p-value is approximate"
        )
    return FitReport(
        statistic_chi2=statistic,
        degrees_of_freedom=df,
        p_value=p_value,
        mad=mad,
        max_deviation=max_deviation,
        verdict=thresholds.verdict(mad),
        warnings=tuple(warnings),
    )


# --- multi-base leading-one table -------------------------------------------


@dataclass(frozen=True)
class LeadingOneRow:
    """One row of the cross-base table: empirical vs asymptotic vs reference P(1)."""

    base: int | float  # INFINITE marks the "own symbol per number" row
    sample_size: int
    empirical_p1: float
    asymptotic_p1: float
    reference_p1: float | None = None


def leading_one_by_base(
    bases: Iterable[int], sample_size: int, sequence_base: int = 2
) -> list[LeadingOneRow]:
    """Frequency of leading digit 1 for the first N powers of ``sequence_base``,
    one row per requested base, plus the infinite-system row.

    The empirical column is an exact tally; the asymptotic column is the
    equidistribution limit log_base(2); the reference column carries the
    bundled two-decimal values where available (sequence base 2 only).
    """
    n = as_exact_int(sample_size, "sample size")
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {sample_size}")
    has_reference = sequence_base == 2
    rows = []
    for b in sorted({check_base(base) for base in bases}):
        spec = SequenceSpec.powers(sequence_base, n)
        ones = sum(1 for d in iter_leading_digits(spec, b) if d == 1)
        rows.append(
            LeadingOneRow(
                base=b,
                sample_size=n,
                empirical_p1=ones / n,
                asymptotic_p1=leading_one_probability(b),
                reference_p1=(
                    POW2_LEADING_ONE_REFERENCE.get(b) if has_reference else None
                ),
            )
        )
    rows.append(
        LeadingOneRow(
            base=INFINITE,
            sample_size=n,
            empirical_p1=limit_leading_one_probability(n),
            asymptotic_p1=0.0,
            reference_p1=(
                POW2_LEADING_ONE_REFERENCE_INFINITE if has_reference else None
            ),
        )
    )
    return rows


def chunked_tally(
    digit_chunks: Iterable[Iterable[int]], base
) -> DigitHistogram:
    """Tally chunks independently and merge; equals one tally of the whole stream."""
    result = DigitHistogram.zero(base)
    for chunk in digit_chunks:
        result = merge(result, tally(chunk, base))
    return result

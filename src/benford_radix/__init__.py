"""First-significant-digit statistics in arbitrary number bases.

Exact big-integer digit extraction, generated test sequences with a
certified fast logarithmic path, the generalized first-digit law, histogram
statistics with chi-square/MAD conformity, and dataset ingestion.
"""

from .digits import (
    INFINITE,
    MAX_BASE,
    MIN_BASE,
    Digit,
    FiniteBaseRequired,
    NoSignificantDigit,
    NumeralParseError,
    check_base,
    leading_digit_decimal_string,
    leading_digit_fraction,
    leading_digit_int,
)
from .ingest import DatasetSource, IngestError, IngestStats, ingest
from .model import (
    BenfordPmf,
    benford_pmf,
    leading_one_probability,
    limit_leading_one_probability,
)
from .sequences import (
    LOG_FRACTIONAL_BITS,
    FastDigit,
    SequenceSpec,
    generate,
    iter_leading_digits,
    iter_leading_digits_exact,
    leading_digit_counts,
    leading_digit_power,
    leading_digit_power_fast,
)
from .stats import (
    DEFAULT_MAD_THRESHOLDS,
    DigitHistogram,
    EmptyHistogram,
    FitReport,
    LeadingOneRow,
    MadThresholds,
    RadixMismatch,
    chi_square_fit,
    chi_square_p_value,
    chunked_tally,
    leading_one_by_base,
    merge,
    tally,
)

__version__ = "0.1.0"

__all__ = [
    "INFINITE",
    "MAX_BASE",
    "MIN_BASE",
    "Digit",
    "FiniteBaseRequired",
    "NoSignificantDigit",
    "NumeralParseError",
    "check_base",
    "leading_digit_decimal_string",
    "leading_digit_fraction",
    "leading_digit_int",
    "DatasetSource",
    "IngestError",
    "IngestStats",
    "ingest",
    "BenfordPmf",
    "benford_pmf",
    "leading_one_probability",
    "limit_leading_one_probability",
    "LOG_FRACTIONAL_BITS",
    "FastDigit",
    "SequenceSpec",
    "generate",
    "iter_leading_digits",
    "iter_leading_digits_exact",
    "leading_digit_counts",
    "leading_digit_power",
    "leading_digit_power_fast",
    "DEFAULT_MAD_THRESHOLDS",
    "DigitHistogram",
    "EmptyHistogram",
    "FitReport",
    "LeadingOneRow",
    "MadThresholds",
    "RadixMismatch",
    "chi_square_fit",
    "chi_square_p_value",
    "chunked_tally",
    "leading_one_by_base",
    "merge",
    "tally",
]

"""First-significant-digit statistics in arbitrary number bases.

Exact big-integer digit extraction, generated test sequences with a
certified fast logarithmic path, the generalized first-digit law, histogram
statistics with chi-square/MAD conformity, and dataset ingestion.

Importing the package loads none of its modules: each public name below is
imported from its module on first access (PEP 562), so a command pays only
for the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "digits": (
        "INFINITE",
        "MAX_BASE",
        "MIN_BASE",
        "FiniteBaseRequired",
        "NoSignificantDigit",
        "NumeralParseError",
        "check_base",
        "leading_digit_decimal_string",
        "leading_digit_fraction",
        "leading_digit_int",
    ),
    "ingest": ("DatasetSource", "IngestError", "IngestStats", "scan"),
    "model": (
        "BenfordPmf",
        "benford_pmf",
        "leading_one_probability",
        "limit_leading_one_probability",
    ),
    "sequences": (
        "FastDigit",
        "SequenceSpec",
        "generate",
        "iter_leading_digits",
        "iter_leading_digits_exact",
        "leading_digit_counts",
        "leading_digit_power_fast",
    ),
    "stats": (
        "DigitHistogram",
        "EmptyHistogram",
        "FitReport",
        "LeadingOneRow",
        "RadixMismatch",
        "chi_square_fit",
        "chi_square_p_value",
        "leading_one_by_base",
        "tally",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


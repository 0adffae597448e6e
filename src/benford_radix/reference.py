"""Bundled reference columns the report commands compare against."""

from __future__ import annotations

#: First-digit frequencies from Benford's 1938 survey of ~20,000 tabulated
#: numbers (Proc. Amer. Phil. Soc. 78). The classic empirical column.
BENFORD_1938_FIRST_DIGIT = {
    1: 0.306,
    2: 0.185,
    3: 0.124,
    4: 0.094,
    5: 0.080,
    6: 0.064,
    7: 0.051,
    8: 0.049,
    9: 0.047,
}

#: Two-decimal reference values for the frequency of leading digit 1 in the
#: doubling sequence 1, 2, 4, 8, ... written in bases 2 through 12, and in
#: the infinite "own symbol per number" system, keyed as `table2` prints
#: its base. Reported alongside computed values; only the endpoints are
#: reproducible from the stated information, so intermediate rows are
#: displayed, not asserted.
POW2_LEADING_ONE_REFERENCE = {
    2: 1.00,
    3: 0.70,
    4: 0.65,
    5: 0.62,
    6: 0.55,
    7: 0.50,
    8: 0.44,
    9: 0.38,
    10: 0.31,
    11: 0.25,
    12: 0.20,
    "inf": 0.00,
}

"""Exact extraction of first significant digits in arbitrary finite bases.

Everything in this module is integer arithmetic; there is deliberately no
floating point in any reported digit, because these functions serve as the
correctness reference for the faster logarithmic paths elsewhere in the
package. (A float only guesses where to start an exact search.)

Decimal numerals are read by `ingest`, which holds their grammar and their
digit engine; `leading_digit_decimal_string` loads it on first use.
"""

from __future__ import annotations

import math
import operator
import re

MIN_BASE = 2
MAX_BASE = 64

#: Symbolic marker for the degenerate "every number is its own symbol" system.
#: Only table rendering accepts it; every digit-extraction routine rejects it.
INFINITE = float("inf")

class NoSignificantDigit(ValueError):
    """The value is zero and therefore has no significant digit."""


class FiniteBaseRequired(ValueError):
    """An operation that needs a finite base received the infinite one."""


class NumeralParseError(ValueError):
    """The input string is not a decimal numeral."""


def as_exact_int(value, what: str) -> int:
    """Coerce to int without ever truncating; floats and the like are refused."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an exact integer, got {value!r}") from None


def check_base(base) -> int:
    """Validate a radix and return it as a plain int.

    Raises FiniteBaseRequired for the INFINITE marker and ValueError for
    anything outside 2..64.
    """
    if isinstance(base, float) and math.isinf(base):
        raise FiniteBaseRequired("finite base required")
    b = as_exact_int(base, "base")
    if not MIN_BASE <= b <= MAX_BASE:
        raise ValueError(f"base must be between {MIN_BASE} and {MAX_BASE}, got {b}")
    return b


def _checked_magnitude(n) -> int:
    """Return |n| as an int >= 1, raising for zero or non-integers."""
    m = abs(as_exact_int(n, "value"))
    if m == 0:
        raise NoSignificantDigit("no significant digit: value is zero")
    return m


def _leading_digit(p: int, q: int, b: int) -> int:
    """First significant digit of p/q in base b, for checked ints p, q >= 1.

    Finds the unique d and integer e with d * b**e <= p/q < (d+1) * b**e
    by exact integer comparisons.
    """
    # If p >= q the digit is that of the integer part n = p // q. Otherwise
    # n = (q-1) // p = ceil(q/p) - 1 >= 1, and the value times w * b, the
    # smallest power of b >= ceil(q/p), lies in [1, b). Either way w is the
    # largest power of b <= n. As b**e <= 2**(bits-1) <= n for
    # e <= (bits-1) / log2(b), that less one (for the float's rounding), but
    # at least 0, is a lower bound on e, and at most three exact steps remain.
    n = p // q if p >= q else (q - 1) // p
    w = b ** max(int((n.bit_length() - 1) / math.log2(b)) - 1, 0)
    while w * b <= n:
        w *= b
    return n // w if p >= q else p * w * b // q


def leading_digit_int(n, base) -> int:
    """First significant digit of the integer n in ``base``.

    Sign is ignored; zero has no significant digit and raises.
    """
    b = check_base(base)
    return _leading_digit(_checked_magnitude(n), 1, b)


def leading_digit_fraction(numerator, denominator, base) -> int:
    """First significant digit of the positive rational |numerator|/denominator."""
    b = check_base(base)
    q = as_exact_int(denominator, "denominator")
    if q <= 0:
        raise ValueError(f"denominator must be positive, got {denominator!r}")
    return _leading_digit(_checked_magnitude(numerator), q, b)


def leading_digit_decimal_string(s: str, base=10) -> int:
    """First significant digit of a decimal numeral string, read in ``base``.

    The stripped string must match `ingest.NUMERAL`; the digit comes from
    `ingest._numeral_digit`, and zero raises NoSignificantDigit.
    """
    from .ingest import NUMERAL, _numeral_digit  # the numeral reader, loaded on first use

    m = re.fullmatch(NUMERAL, s.strip())
    if m is None:
        raise NumeralParseError(f"not a decimal numeral: {s!r}")
    if d := _numeral_digit(check_base(base), *m.groups("")):
        return d
    raise NoSignificantDigit(f"no significant digit: {s!r} is zero")

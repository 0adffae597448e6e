"""Exact extraction of first significant digits in arbitrary finite bases.

Everything in this module is integer arithmetic; there is deliberately no
floating point anywhere, because these functions serve as the correctness
reference for the faster logarithmic paths elsewhere in the package.
"""

from __future__ import annotations

import math
import operator
import re
from decimal import Decimal

MIN_BASE = 2
MAX_BASE = 64

#: Symbolic marker for the degenerate "every number is its own symbol" system.
#: Only table rendering accepts it; every digit-extraction routine rejects it.
INFINITE = float("inf")

_NUMERAL_RE = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)")


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


class Digit(int):
    """A first significant digit together with the base it was read in.

    Behaves like the plain int it wraps (comparisons, indexing, arithmetic),
    with the originating base available as ``.base``.
    """

    base: int

    def __new__(cls, value: int, base: int) -> "Digit":
        b = check_base(base)
        v = as_exact_int(value, "digit")
        if not 1 <= v <= b - 1:
            raise ValueError(f"digit must be in 1..{b - 1} for base {b}, got {v}")
        self = super().__new__(cls, v)
        self.base = b
        return self

    def __repr__(self) -> str:
        return f"Digit({int(self)}, base={self.base})"


def _checked_magnitude(n) -> int:
    """Return |n| as an int >= 1, raising for zero or non-integers."""
    m = abs(as_exact_int(n, "value"))
    if m == 0:
        raise NoSignificantDigit("no significant digit: value is zero")
    return m


def _floor_power(n: int, base: int) -> int:
    """The largest power base**e <= n, for n >= 1.

    Uses repeated squaring plus a binary descent, so it stays exact and
    needs only O(log e) big-integer multiplications.
    """
    squares = []
    p = base
    while p <= n:
        squares.append(p)
        p = p * p
    acc = 1
    for square in reversed(squares):
        cand = acc * square
        if cand <= n:
            acc = cand
    return acc


def _leading_digit(p: int, q: int, b: int) -> int:
    """First significant digit of p/q in base b, for checked ints p, q >= 1.

    Finds the unique d and integer e with d * b**e <= p/q < (d+1) * b**e
    by exact integer comparisons.
    """
    if p >= q:
        # Leading digit of the value equals that of its integer part: with
        # m = p // q and L its digit count, b**(L-1) <= m <= value < m+1 <= b**L.
        m = p // q
        return m // _floor_power(m, b)
    # value < 1: scale up by the smallest power of b that reaches 1.
    c = (q + p - 1) // p  # ceil(q / p) >= 2
    w = _floor_power(c - 1, b) * b  # smallest b**j >= c, so value * w in [1, b)
    return p * w // q


def leading_digit_int(n, base) -> Digit:
    """First significant digit of the integer n in ``base``.

    Sign is ignored; zero has no significant digit and raises.
    """
    b = check_base(base)
    return Digit(_leading_digit(_checked_magnitude(n), 1, b), b)


def leading_digit_fraction(numerator, denominator, base) -> Digit:
    """First significant digit of the positive rational |numerator|/denominator."""
    b = check_base(base)
    q = as_exact_int(denominator, "denominator")
    if q <= 0:
        raise ValueError(f"denominator must be positive, got {denominator!r}")
    return Digit(_leading_digit(_checked_magnitude(numerator), q, b), b)


def is_decimal_numeral(text: str) -> bool:
    """The package's numeral grammar: an optional sign, then digits with at
    most one point (``-12``, ``0.5``, ``.5``, ``3.``), and nothing else."""
    return _NUMERAL_RE.fullmatch(text) is not None


def leading_digit_decimal_string(s: str, base=10) -> int:
    """First significant digit of a decimal numeral string, read in ``base``.

    Returns a plain int, since `analyze` calls this once per record. The
    stripped string must pass `is_decimal_numeral`. For base 10 this is
    a pure character scan (skip sign, zeros and the point), which is exact
    by the definition of significant digit and builds no integer. For any
    other base the string is read as the exact rational p/10**k, of any
    length, and the digit is located by integer comparisons.
    """
    b = check_base(base)
    text = s.strip()
    if not is_decimal_numeral(text):
        raise NumeralParseError(f"not a decimal numeral: {s!r}")
    if b == 10:
        significant = text.lstrip("+-0.")
        if not significant:
            raise NoSignificantDigit(f"no significant digit: {s!r} is zero")
        return int(significant[0])
    # unlike int(), Decimal has no limit on the number of digits it reads
    p, q = Decimal(text).as_integer_ratio()
    if p == 0:
        raise NoSignificantDigit(f"no significant digit: {s!r} is zero")
    return _leading_digit(abs(p), q, b)

"""Exact extraction of first significant digits in arbitrary finite bases.

Everything in this module is integer arithmetic; there is deliberately no
floating point in any reported digit, because these functions serve as the
correctness reference for the faster logarithmic paths elsewhere in the
package. (A float only guesses where to start an exact search.)

Decimal numerals (the grammar of `is_decimal_numeral`, exponents included)
have one digit engine, `numeral_digits`: in base 10 it reads the first
significant character, and in any other base it reads the numeral as the
exact rational p/10**k and places its exponent by integer comparisons.
"""

from __future__ import annotations

import math
import operator
import re
from typing import Iterable, Iterator

MIN_BASE = 2
MAX_BASE = 64

#: Symbolic marker for the degenerate "every number is its own symbol" system.
#: Only table rendering accepts it; every digit-extraction routine rejects it.
INFINITE = float("inf")

#: Significant digits an exponent may have (|e| <= 9999): that is past any
#: measured quantity, while 10**(10**6) would cost seconds per record.
MAX_EXPONENT_DIGITS = 4

_MANTISSA = r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)"
_NUMERAL_RE = re.compile(_MANTISSA + rf"(?:[eE][+-]?0*[0-9]{{1,{MAX_EXPONENT_DIGITS}}})?")
_ANY_EXPONENT_RE = re.compile(_MANTISSA + r"[eE][+-]?[0-9]+")

_FIRST_DIGIT = {str(d): d for d in range(1, 10)}
_TENS = tuple(10**k for k in range(32))


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


def _leading_digit(p: int, q: int, b: int) -> int:
    """First significant digit of p/q in base b, for checked ints p, q >= 1.

    Finds the unique d and integer e with d * b**e <= p/q < (d+1) * b**e
    by exact integer comparisons.
    """
    # If p >= q the digit is that of the integer part n = p // q. Otherwise
    # n = (q-1) // p = ceil(q/p) - 1 >= 1, and the value times w * b, the
    # smallest power of b >= ceil(q/p), lies in [1, b). Either way w is the
    # largest power of b <= n. As b**e <= 2**(bits-1) <= n for
    # e <= (bits-1) / log2(b), that less one (for the float's rounding) is a
    # lower bound on e, and at most three exact steps remain.
    n = p // q if p >= q else (q - 1) // p
    e = int((n.bit_length() - 1) / math.log2(b)) - 1
    w = b**e if e > 0 else 1
    while w * b <= n:
        w *= b
    return n // w if p >= q else p * w * b // q


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
    most one point (``-12``, ``0.5``, ``.5``, ``3.``), then optionally an
    exponent of at most MAX_EXPONENT_DIGITS significant digits (``1.5e3``,
    ``2E-4``), and nothing else."""
    return _NUMERAL_RE.fullmatch(text) is not None


def exponent_out_of_range(text: str) -> bool:
    """Whether ``text`` is a numeral but for an exponent past the grammar's bound."""
    return _NUMERAL_RE.fullmatch(text) is None and _ANY_EXPONENT_RE.fullmatch(text) is not None


def numeral_digits(numerals: Iterable[str], base) -> Iterator[int]:
    """First significant digits of decimal numerals read in ``base``, as plain ints.

    Every numeral must already pass `is_decimal_numeral`, as `ingest` yields
    them; nothing here checks it again. Zeros, which have no significant
    digit, are dropped. In base 10 the digit is the first character left
    after the sign, zeros and point. In any other base the numeral is the
    exact rational p/10**k, with k the fraction digits less the exponent;
    a numeral too long for int() is read through `Decimal` instead.
    """
    b = check_base(base)
    if b == 10:
        first = _FIRST_DIGIT.get
        for text in numerals:
            d = first(text.lstrip("+-0.")[:1])  # None for "" or an exponent mark
            if d:
                yield d
        return
    for text in numerals:
        mantissa, _, exponent = text.replace("E", "e").partition("e")
        whole, _, frac = mantissa.partition(".")
        try:
            p = abs(int(whole + frac))
            k = len(frac) - int(exponent) if exponent else len(frac)
        except ValueError:  # past sys.get_int_max_str_digits(); Decimal has no limit
            from decimal import Decimal
            p, q = Decimal(text).as_integer_ratio()
            p = abs(p)
        else:
            if k >= 0:
                q = _TENS[k] if k < len(_TENS) else 10**k
            else:
                p, q = p * 10**-k, 1
        if p:
            yield _leading_digit(p, q, b)


def leading_digit_decimal_string(s: str, base=10) -> int:
    """First significant digit of a decimal numeral string, read in ``base``.

    Returns a plain int. The stripped string must pass `is_decimal_numeral`;
    the digit comes from `numeral_digits`, and zero raises NoSignificantDigit.
    """
    text = s.strip()
    if not is_decimal_numeral(text):
        raise NumeralParseError(f"not a decimal numeral: {s!r}")
    for d in numeral_digits((text,), base):
        return d
    raise NoSignificantDigit(f"no significant digit: {s!r} is zero")

"""Exact extraction of first significant digits in arbitrary finite bases.

Everything in this module is integer arithmetic; there is deliberately no
floating point in any reported digit, because `_leading_digit` is the
correctness reference for the faster logarithmic paths elsewhere in the
package. (A float only guesses where to start an exact search.) It is also
their one exact engine: `ingest` reads decimal numerals with it, and
`logdigits` resolves the terms its streams cannot certify.
"""

from __future__ import annotations

import math
import operator

MIN_BASE = 2
MAX_BASE = 64


def as_exact_int(value, what: str) -> int:
    """Coerce to int without ever truncating; floats and the like are refused."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an exact integer, got {value!r}") from None


def check_base(base) -> int:
    """Validate a radix and return it as a plain int.

    Raises ValueError for anything but an exact integer in 2..64, the
    infinite system's float("inf") included.
    """
    b = as_exact_int(base, "base")
    if not MIN_BASE <= b <= MAX_BASE:
        raise ValueError(f"base must be between {MIN_BASE} and {MAX_BASE}, got {b}")
    return b


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

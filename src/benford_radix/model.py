"""The generalized first-digit law P_b(d) = log_b(1 + 1/d).

The law of a base b is a plain tuple of b - 1 probabilities: item d - 1
belongs to digit d.
"""

from __future__ import annotations

import math

from .digits import check_base


def benford_pmf(base) -> tuple[float, ...]:
    """Theoretical PMF log_base(1 + 1/d) for d = 1..base-1, as a tuple.

    Computed as a ratio of log2 values so that power-of-two bases come out
    exact where floats allow (base 2 gives (1.0,), base 4 gives P(1) = 0.5).
    """
    b = check_base(base)
    scale = math.log2(b)
    return tuple((math.log2(d + 1) - math.log2(d)) / scale for d in range(1, b))


def leading_one_probability(base) -> float:
    """P(first digit = 1) = log_base(2); the head of benford_pmf(base)."""
    b = check_base(base)
    return 1.0 / math.log2(b)

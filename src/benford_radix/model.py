"""The generalized first-digit law P_b(d) = log_b(1 + 1/d)."""

from __future__ import annotations

import math
from typing import NamedTuple

from .digits import check_base


class BenfordPmf(NamedTuple):
    """Theoretical first-digit probabilities for one base.

    ``probs[i]`` is the probability of digit i+1; use ``prob(d)`` to index
    by digit value.
    """

    base: int
    probs: tuple[float, ...]

    def prob(self, d: int) -> float:
        if not 1 <= d <= self.base - 1:
            raise ValueError(f"digit must be in 1..{self.base - 1}, got {d}")
        return self.probs[d - 1]

    @property
    def digits(self) -> range:
        return range(1, self.base)


def benford_pmf(base) -> BenfordPmf:
    """Theoretical PMF log_base(1 + 1/d) for d = 1..base-1.

    Computed as a ratio of log2 values so that power-of-two bases come out
    exact where floats allow (base 2 gives [1.0], base 4 gives P(1) = 0.5).
    """
    b = check_base(base)
    scale = math.log2(b)
    probs = tuple(
        (math.log2(d + 1) - math.log2(d)) / scale for d in range(1, b)
    )
    return BenfordPmf(base=b, probs=probs)


def leading_one_probability(base) -> float:
    """P(first digit = 1) = log_base(2); the head of benford_pmf(base)."""
    b = check_base(base)
    return 1.0 / math.log2(b)

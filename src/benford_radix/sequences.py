"""Integer sequence generators and their leading-digit streams.

`iter_leading_digits` answers powers, Fibonacci numbers and factorials from
the certified fixed-point log streams of `logdigits`, which never build the
terms: a digit is emitted only when the term's fractional logarithm is
farther from every digit boundary than its running error bound, and the
rare term that is not is resolved exactly or at doubled precision.

`iter_leading_digits_exact` walks the big-integer terms of `generate`. It
is the independent reference the streams are tested against. Every kind
is generated, nondecreasing and starts at 1; there are no literal value
lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .digits import check_base
from .logdigits import (  # the single-power API is re-exported from here
    LOG_FRACTIONAL_BITS,
    FastDigit,
    factorial_digits,
    fibonacci_digits,
    leading_digit_power,
    leading_digit_power_fast,
    power_digits,
)


@dataclass(frozen=True)
class SequenceSpec:
    """What to generate: powers of a, factorials, or Fibonacci numbers."""

    kind: str
    length: int
    power_base: int | None = None

    def __post_init__(self):
        if self.kind not in ("powers", "factorial", "fibonacci"):
            raise ValueError(f"unknown sequence kind {self.kind!r}")
        if not isinstance(self.length, int) or self.length < 1:
            raise ValueError(f"length must be an integer >= 1, got {self.length!r}")
        if self.kind == "powers":
            if not isinstance(self.power_base, int) or self.power_base < 2:
                raise ValueError("powers sequence needs an integer base >= 2")
        elif self.power_base is not None:
            raise ValueError(f"power_base is only valid for powers, not {self.kind}")

    @classmethod
    def powers(cls, a: int, length: int) -> "SequenceSpec":
        return cls(kind="powers", length=length, power_base=a)

    @classmethod
    def factorial(cls, length: int) -> "SequenceSpec":
        return cls(kind="factorial", length=length)

    @classmethod
    def fibonacci(cls, length: int) -> "SequenceSpec":
        return cls(kind="fibonacci", length=length)


def generate(spec: SequenceSpec) -> Iterator[int]:
    """Yield the spec's terms one at a time (exactly ``spec.length`` of them)."""
    n = spec.length
    if spec.kind == "powers":
        x = 1
        for _ in range(n):
            yield x
            x *= spec.power_base
    elif spec.kind == "factorial":
        x = 1
        for i in range(1, n + 1):
            x *= i
            yield x
    else:
        a, b = 1, 1
        for _ in range(n):
            yield a
            a, b = b, a + b


def iter_leading_digits(spec: SequenceSpec, base) -> Iterator[int]:
    """Certified leading digits of the spec's terms, as plain ints.

    Powers, Fibonacci numbers and factorials come from the fixed-point log
    streams of `logdigits`. Every digit equals the one
    `iter_leading_digits_exact` gives.
    """
    b = check_base(base)
    n = spec.length
    if spec.kind == "powers":
        yield from power_digits(spec.power_base, n, b)
    elif spec.kind == "fibonacci":
        yield from fibonacci_digits(n, b)
    else:
        yield from factorial_digits(n, b)


def iter_leading_digits_exact(spec: SequenceSpec, base) -> Iterator[int]:
    """Exact leading digits of the spec's terms, as plain ints.

    Keeps the bracketing power base**(L-1) from term to term. Every kind is
    nondecreasing and starts at 1, so the bracket only ever grows, and the
    whole walk costs an amortized constant number of big-integer
    ops per term instead of a fresh logarithm search.
    """
    b = check_base(base)
    pw = 1
    for x in generate(spec):
        while x >= pw * b:
            pw *= b
        yield x // pw


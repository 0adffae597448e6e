"""Integer sequence generators and their leading-digit streams.

`iter_leading_digits` answers powers, Fibonacci numbers and factorials from
the certified logarithm and mantissa streams of `logdigits`, which never
build the terms: a digit is emitted only when the term's reading is farther
from every digit boundary than its running error bound, and the rare term
that is not is resolved exactly or at doubled precision.
`leading_digit_counts` gives the histogram of powers and Fibonacci numbers
in O(base * log n) steps, without walking the terms past an exact prefix.

`iter_leading_digits_exact` walks the big-integer terms of `generate`. It
is the independent reference the streams are tested against. Every kind
is generated, nondecreasing and starts at 1; there are no literal value
lists.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator

from .digits import check_base
from .logdigits import (  # the single-power probe is re-exported from here
    FastDigit,
    factorial_digits,
    fibonacci_counts,
    fibonacci_digits,
    leading_digit_power_fast,
    power_counts,
    power_digits,
    stream_counts,
)


class SequenceSpec(namedtuple("SequenceSpec", "kind length power_base")):
    """What to generate: powers of a, factorials, or Fibonacci numbers."""

    __slots__ = ()

    def __new__(cls, kind: str, length: int, power_base: int | None = None):
        if kind not in ("powers", "factorial", "fibonacci"):
            raise ValueError(f"unknown sequence kind {kind!r}")
        if not isinstance(length, int) or length < 1:
            raise ValueError(f"length must be an integer >= 1, got {length!r}")
        if kind == "powers":
            if not isinstance(power_base, int) or power_base < 2:
                raise ValueError("powers sequence needs an integer base >= 2")
        elif power_base is not None:
            raise ValueError(f"power_base is only valid for powers, not {kind}")
        return super().__new__(cls, kind, length, power_base)

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

    The base is checked when this is called, and the iterator returned is
    the `logdigits` stream of the spec's kind itself: powers, Fibonacci
    numbers or factorials. Every digit equals the one
    `iter_leading_digits_exact` gives.
    """
    b = check_base(base)
    n = spec.length
    if spec.kind == "powers":
        return power_digits(spec.power_base, n, b)
    if spec.kind == "fibonacci":
        return fibonacci_digits(n, b)
    return factorial_digits(n, b)


def leading_digit_counts(spec: SequenceSpec, base, top: int | None = None) -> tuple[int, ...]:
    """Counts of the leading digits 1..top (by default 1..base-1) of the
    spec's terms, as a tally of `iter_leading_digits_exact` would give.

    Powers and Fibonacci numbers are counted by `logdigits.power_counts` and
    `logdigits.fibonacci_counts` in O(base * log n) steps, with the stream's
    error bound as certificate, or refused with a ValueError when no
    precision certifies them; factorials are counted from their stream.
    """
    b = check_base(base)
    top = b - 1 if top is None else top
    if not 1 <= top < b:
        raise ValueError(f"top digit must be in 1..{b - 1}, got {top}")
    n = spec.length
    if spec.kind == "powers":
        return power_counts(spec.power_base, n, b, top)
    if spec.kind == "fibonacci":
        return fibonacci_counts(n, b, top)
    return stream_counts(iter_leading_digits(spec, b), top)


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


"""Seeded, stdlib-only generator of dirty numeric datasets.

Every numeric value is drawn as an exact pair (m, q) meaning m * 10**q, with
m an integer of 1..12 decimal digits, and only then written out as a decimal
numeral. The pair is the ground truth the oracle reads digits from, so the
expected histogram never goes through the numeral string or the program.

Category counts (blank, non-numeric, zero, negative) are exact shares of the
line count placed at seeded positions, so the record, skip and zero counters
repeat exactly across seeds; the magnitudes, digit lengths and tokens vary.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field

BLANK_SHARE = 0.01
NON_NUMERIC_SHARE = 0.01
ZERO_SHARE = 0.005
NEGATIVE_SHARE = 0.10

# log10 of a magnitude is normal around 0 (values below 1 are about half)
# and kept inside [-10, 10): about 20 decades.
LOG10_SIGMA = 4.0
LOG10_RANGE = (-10, 10)
MAX_SIG_DIGITS = 12

# Tokens no numeral grammar reads as a number (no exponents, inf or nan, and
# no commas, so they stay one CSV field).
NON_NUMERIC_TOKENS = ("n/a", "NA", "-", "?", "abc", "#VALUE!", "null", "--", "x1", "1-2")
ZERO_TOKENS = ("0", "0.0", "-0", "0.000", "00", "+0.00")

_BLANK, _JUNK, _ZERO, _NEG, _POS = range(5)
_CHUNK = 1 << 16


@dataclass
class Dataset:
    """Counts and exact histograms of one generated dataset."""

    lines: int
    bases: tuple[int, ...]
    blank: int = 0
    non_numeric: int = 0
    zeros: int = 0
    negative: int = 0
    below_one: int = 0
    sig_digits: list[int] = field(default_factory=lambda: [0] * (MAX_SIG_DIGITS + 1))
    counts: dict[int, list[int]] = field(default_factory=dict)

    def shares(self) -> dict:
        """Measured share of each input property, over all lines."""
        n = self.lines
        numeric = sum(self.sig_digits)
        return {
            "lines": n,
            "blank": self.blank / n,
            "non_numeric": self.non_numeric / n,
            "zero": self.zeros / n,
            "negative": self.negative / n,
            "below_1": self.below_one / n,
            "sig_digits": {
                str(k): round(c / numeric, 4)
                for k, c in enumerate(self.sig_digits)
                if c
            },
        }


class _DigitOracle:
    """Leading digit of m * 10**q in one base, by exact integer arithmetic.

    Scales every value by base**shift so that the smallest generated value is
    at least 1, floors to an integer N, and reads the leading digit of N from
    a table of powers of the base. Flooring keeps the leading digit because
    N >= 1 and base**j <= x implies base**j <= floor(x).
    """

    def __init__(self, base: int, min_q: int, max_q: int):
        self.base = base
        self.scale = 1
        while self.scale < 10 ** (-min_q):
            self.scale *= base
        top = (10 ** MAX_SIG_DIGITS) * 10 ** max(max_q, 0) * self.scale
        self.powers = [1]
        while self.powers[-1] <= top:
            self.powers.append(self.powers[-1] * base)

    def digit(self, m: int, q: int) -> int:
        if q >= 0:
            n = m * 10**q * self.scale
        else:
            n = (m * self.scale) // 10 ** (-q)
        return n // self.powers[bisect_right(self.powers, n) - 1]


def _numeral(m: int, q: int) -> str:
    s = str(m)
    if q >= 0:
        return s + "0" * q
    f = -q
    s = s.rjust(f + 1, "0")
    return f"{s[:-f]}.{s[-f:]}"


def generate(seed: int, lines: int, bases, lines_path, csv_path) -> Dataset:
    """Write ``lines`` seeded records to ``lines_path`` (one token per line) and
    the same records as column ``value`` of a CSV at ``csv_path``.

    Returns the counts and, per base in ``bases``, the exact histogram of the
    leading digits of the nonzero numeric records.
    """
    rng = random.Random(seed)
    ds = Dataset(lines=lines, bases=tuple(bases))
    lo, hi = LOG10_RANGE
    oracles = [_DigitOracle(b, lo - MAX_SIG_DIGITS, hi) for b in ds.bases]
    for b in ds.bases:
        ds.counts[b] = [0] * (b - 1)

    cats = bytearray([_POS]) * lines
    special = [
        (_BLANK, round(lines * BLANK_SHARE)),
        (_JUNK, round(lines * NON_NUMERIC_SHARE)),
        (_ZERO, round(lines * ZERO_SHARE)),
        (_NEG, round(lines * NEGATIVE_SHARE)),
    ]
    positions = rng.sample(range(lines), sum(k for _, k in special))
    start = 0
    for cat, k in special:
        for i in positions[start:start + k]:
            cats[i] = cat
        start += k

    gauss, random_ = rng.gauss, rng.random
    with open(lines_path, "w", encoding="utf-8", newline="\n") as out_lines, \
            open(csv_path, "w", encoding="utf-8", newline="\n") as out_csv:
        out_csv.write("id,value,flag\n")
        for start in range(0, lines, _CHUNK):
            tokens = []
            for cat in cats[start:start + _CHUNK]:
                if cat == _BLANK:
                    ds.blank += 1
                    token = ""
                elif cat == _JUNK:
                    ds.non_numeric += 1
                    token = NON_NUMERIC_TOKENS[int(random_() * len(NON_NUMERIC_TOKENS))]
                elif cat == _ZERO:
                    ds.zeros += 1
                    token = ZERO_TOKENS[int(random_() * len(ZERO_TOKENS))]
                else:
                    while True:
                        x = gauss(0.0, LOG10_SIGMA)
                        if lo <= x < hi:
                            break
                    e = math.floor(x)
                    k = int(random_() * MAX_SIG_DIGITS) + 1
                    m = int(10 ** (k - 1 + (x - e)))
                    m = min(max(m, 10 ** (k - 1)), 10**k - 1)
                    q = e - (k - 1)
                    ds.sig_digits[k] += 1
                    if e < 0:
                        ds.below_one += 1
                    token = _numeral(m, q)
                    if cat == _NEG:
                        ds.negative += 1
                        token = "-" + token
                    for oracle in oracles:
                        ds.counts[oracle.base][oracle.digit(m, q) - 1] += 1
                tokens.append(token)
            out_lines.write("".join(f"{t}\n" for t in tokens))
            out_csv.write("".join(
                f"{start + i},{t},{cats[start + i]}\n" for i, t in enumerate(tokens)
            ))
    return ds

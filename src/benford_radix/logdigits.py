"""Certified leading digits from fixed-point logarithms and mantissas.

The leading digit of a term x in base b is fixed by frac(log_b x): digit d
owns [log_b d, log_b(d+1)). The streams here never build the terms. They
carry that fractional part in 128-bit fixed point, with logarithms from one
plain-int kernel, the atanh series `_atanh` (Brent and Zimmermann, Modern
Computer Arithmetic, ch. 4), together with an error bound. Powers and
Fibonacci numbers lie on a line (the equidistribution view of Diaconis
1977), given by one function per kind, at(bits, lo, hi) -> (s, step, err):
term j of lo..hi-1 is read at s + (j - lo)*step mod 2**bits within err units.

- powers a**k, `_power_line`: k*log_b(a). When a and b are powers of one
  integer the digit cycle `_power_cycle` is exact instead;
- Fibonacci F_m, `_fibonacci_line`: m*log_b(phi) - log_b(sqrt 5) after an
  exact prefix;
- factorials m!, `_mantissa_digits`: a floored integer mantissa of m! / b**e.

A digit is emitted only when s or the mantissa is farther from every digit
boundary than the bound of the stream's last term. A term that fails goes to
its kind's resolver, `_resolve_power`, `_resolve_fibonacci` or
`_resolve_factorial`, each a `_resolve`: exact up to `_EXACT_BITS` bits, else
read from 256 bits on at at(bits, j, j + 1) or from the mantissas of 1..m.
Histograms of powers and Fibonacci numbers, `power_counts` and
`fibonacci_counts`, walk no terms past an exact prefix: the count of line
terms below a boundary is a difference of floor sums, `_floor_sum`, of
O(log n) steps each (Graham, Knuth and Patashnik, Concrete Mathematics,
3.5), certified when no term lies within the bound of a boundary.

Both double the bits until certified (Ziv's strategy) in one `_escalate`,
which stops at 2048 bits below index 2**512 and raises a ValueError instead
of building a term or walking n terms. Digits are plain ints.
`leading_digit_power_fast` reads one power at 128 bits and says whether its
digit is certified.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter, namedtuple
from collections.abc import Callable, Iterable, Iterator
from functools import lru_cache, partial
from itertools import cycle, islice

from .digits import _leading_digit, as_exact_int, check_base

#: Fractional bits used for all fixed-point logarithms. 128 bits leave the
#: propagated error (a few units times the exponent k) negligible against
#: digit-boundary gaps for any k up to ~10**30.
LOG_FRACTIONAL_BITS = 128

_FP_ONE = 1 << LOG_FRACTIONAL_BITS
# Per-constant fixed-point error in units of 2**-bits. Each constant is a
# ratio of kernel logs carried with 32 or more guard bits and rounded once,
# so it is off by under a half unit plus 2**-25 units (`_log_fixed_point`,
# `_fibonacci_logs`); 2 is a comfortable ceiling.
_FP_CONST_ERR = 2

#: Largest term, in bits, that the resolver builds exactly (0.3 s to read
#: the leading digit of a 2**20-bit integer on a 2-vCPU Xeon VM).
_EXACT_BITS = 1 << 20
#: Precision ceiling of `_escalate` below index 2**512: it stops at the first
#: of 128 (256 for one term), 256, .. bits of at least 2 * L + _MAX_LOG_BITS/2
#: for an L-bit last index, so 2048 bits up to there and more past it.
_MAX_LOG_BITS = 1 << 11
#: Powers a**k below this k are counted from the stream, which builds an
#: uncertified one exactly: no precision certifies an exact boundary hit,
#: and one needs k <= 35.
#:
#: Suppose a**k = d * b**e with 1 <= d < b <= 64, e >= 0, k >= 1, and a and
#: b not powers of one integer (`_power_cycle` answers that case). Write v_p
#: for the exponent of the prime p.
#:
#: - A prime q divides a but not b: v_q(d) = k*v_q(a) >= k, so
#:   2**k <= d < 64 and k <= 5.
#: - A prime p divides b but not a: 0 = v_p(d) + e*v_p(b) forces e = 0, so
#:   a**k = d < 64 and k <= 5.
#: - Otherwise a and b have the same primes, and their exponent vectors are
#:   not proportional (if they were, a and b would be powers of one
#:   integer), so some primes p, q have D = v_p(a)*v_q(b) - v_q(a)*v_p(b)
#:   != 0. Eliminating e from k*v_p(a) = v_p(d) + e*v_p(b) and the same
#:   line for q gives k*D = v_p(d)*v_q(b) - v_q(d)*v_p(b), and each product
#:   is below log2(b)**2 <= 36 because p**v_p(d) <= d < b, so k <= 35.
#:
#: So `_resolve_power` builds every possible hit exactly whenever
#: 35 * a.bit_length() <= _EXACT_BITS, which covers every a below 2**29000,
#: and its escalation cannot stall on one: any other uncertain power lies
#: strictly inside a digit interval, at a positive distance that enough bits
#: certify.
_POWER_EXACT_PREFIX = 64
#: Fibonacci terms up to this index are resolved exactly. Past it the Binet
#: part of the bound (see `_fibonacci_line`), 2**(bits - 276) units at F_201,
#: is below one unit only up to 256 bits, so a histogram streams a longer
#: prefix (`fibonacci_counts`).
_FIB_EXACT_PREFIX = 200

#: at(bits, lo, hi) -> (s, step, err): terms lo..hi-1 of a kind, term j read
#: at s + (j - lo) * step mod 2**bits within err units (`_power_line`,
#: `_fibonacci_line`).
_Line = Callable[[int, int, int], tuple[int, int, int]]


def _exponent(n: int, g: int) -> int:
    """u >= 1 with n = g**u, or 0 when n >= 2 is not a power of g >= 2: the
    float estimate is off by far less than 1/2, and one exact power decides."""
    u = round(math.log(n, g))
    return u if g**u == n else 0


@lru_cache(maxsize=None)
def _least_root(base: int) -> tuple[int, int]:
    """(g, v) with base = g**v for the least such g, which is no perfect power."""
    return next((g, v) for g in range(2, base + 1) if (v := _exponent(base, g)))


def _power_cycle(a: int, base: int) -> list[int] | None:
    """Leading digits of a**0 .. a**(v-1) in ``base``, which repeat with
    period v, when a and base are powers of one integer; else None.

    As g is the least root of base, a shares a root with base exactly when
    a is a power of g. With a = g**u and base = g**v, a**k = base**q * g**r
    for r = uk mod v, and g**r < base, so the digit of a**k is exactly g**r.
    """
    g, v = _least_root(base)
    u = _exponent(a, g)
    return [g ** (u * k % v) for k in range(v)] if u else None


def _atanh(num: int, den: int, p: int) -> int:
    """atanh(x) * 2**p within one unit, x = num/den in [0, 1/2], p >= 1.

    The sum of x**(2i+1)/(2i+1) runs at w = p + g bits. Each power t_i,
    floored from the last, is low by under 1/(1 - x*x) <= 4/3 units of
    2**-w, so a summed t_i // (2i+1) is low by under 7/3 and the tail past
    the first t_J = 0 is under (4/3)**2. As t_i >= 1 needs 2i + 1 <= w,
    J <= (w + 1)/2 and the sum is low by under 3(J + 1) <= 3(p + g + 3)/2
    < 2**(g-1); rounding off the g guard bits adds half a unit.
    """
    n2, d2 = num * num, den * den
    g = p.bit_length() + 4
    t = (num << (p + g)) // den
    s, i = 0, 1
    while t:
        s += t // i
        t = t * n2 // d2
        i += 2
    return (s + (1 << (g - 1))) >> g


@lru_cache(maxsize=1024)
def _ln_fixed(x: int, w: int) -> int:
    """ln(x) * 2**w for an integer x >= 1, off by under 2 * x.bit_length() units:
    ln x = k ln 2 + 2 atanh((x - 2**k)/(x + 2**k)) for 2**k <= x < 2**(k+1), the
    argument in [0, 1/3), and ln 2 = 2 atanh(1/3), 2 units per ln 2 and 2 more."""
    k = x.bit_length() - 1
    return 2 * (k * _atanh(1, 3, w) + _atanh(x - (1 << k), x + (1 << k), w))


def _ratio(ln_x: int, ln_base: int, bits: int) -> int:
    """round(ln_x / ln_base * 2**bits). If ln_x, ln_base are off from xi * 2**w,
    lam * 2**w (lam >= ln 2) by at most e_x, e_b < 2**(w-3) units, it is off
    from xi/lam * 2**bits by at most 1/2 + 2**(bits-w+1) * (e_x + e_b*xi/lam),
    as ln_base > 2**(w-1)."""
    return ((ln_x << bits) + (ln_base >> 1)) // ln_base


def _log_fixed_point(x: int, base: int, bits: int = LOG_FRACTIONAL_BITS) -> int:
    """round(log_base(x) * 2**bits), off by at most _FP_CONST_ERR units.

    With L = x.bit_length(), ln x is off by under 2L units of 2**-w, ln base
    by under 14, and log_base(x) < L. So at w = bits + 32 + L.bit_length(),
    `_ratio` is off by under 1/2 + 2**(bits-w+1) * 16L < 1/2 + 2**-27 units.
    """
    w = bits + 32 + x.bit_length().bit_length()
    return _ratio(_ln_fixed(x, w), _ln_fixed(base, w), bits)


@lru_cache(maxsize=None)
def _digit_boundaries(base: int, bits: int, top: int = 0) -> tuple[int, ...]:
    """Fixed-point t_d = log_base(d) for d = 1..base-1, then t_base = 2**bits
    (only t_1 .. t_(top+1) for a top > 0). Digit d owns [t_d, t_{d+1}).
    """
    return tuple(_log_fixed_point(d, base, bits) if d < base else 1 << bits
                 for d in range(1, (top or base - 1) + 2))


def _certified(s: int, err: int, bounds: tuple[int, ...]) -> int:
    """Digit d with s - err > t_d and s + err < t_{d+1}, or 0 if there is none."""
    d = bisect_right(bounds, s - err - 1)
    return d if d == bisect_right(bounds, s + err) else 0


def _ceiling(bits: int, last: int) -> int:
    """The last precision `_escalate` tries from ``bits`` for the ``last``
    index read: the first of bits, 2 * bits, .. of at least
    2 * last.bit_length() + _MAX_LOG_BITS // 2."""
    while bits < 2 * last.bit_length() + _MAX_LOG_BITS // 2:
        bits *= 2
    return bits


def _escalate(bits: int, last: int, certify: Callable[[int], object], what: str) -> object:
    """certify(bits) at ``bits``, then at twice the bits until it is truthy
    (Ziv's strategy), up to `_ceiling`, past which a ValueError is raised.
    A term's bound grows like its index n and a histogram holds n terms, so
    band hits fall like n**2 * 2**-bits.
    """
    ceiling = _ceiling(bits, last)
    while not (got := certify(bits)):
        if bits >= ceiling:
            raise ValueError(f"{what} is not certified at {bits} bits")
        bits *= 2
    return got


def _resolve(
    base: int, j: int, exact_bits: int, exact: Callable[[], int],
    certify: Callable[[int], int], what: str,
) -> int:
    """Leading digit of term j, whose 128-bit certificate failed: exact()
    builds the term when ``exact_bits``, an upper bound on its size, is at
    most _EXACT_BITS; else certify(bits), the digit if ``bits`` certify it
    and 0 if not, runs from 256 bits on under `_escalate`."""
    if exact_bits <= _EXACT_BITS:
        return _leading_digit(exact(), 1, base)
    return _escalate(2 * LOG_FRACTIONAL_BITS, j, certify,
                     f"leading digit of {what} in base {base}")


def _line_term(at: _Line, j: int, base: int, bits: int) -> int:
    """Digit of term j of the line ``at`` if ``bits`` certify it, else 0."""
    s, _, err = at(bits, j, j + 1)
    return _certified(s, err, _digit_boundaries(base, bits))


def _line_digits(
    at: _Line, lo: int, hi: int, base: int, resolve: Callable[[int], int]
) -> Iterator[int]:
    """Digits of terms j = lo..hi-1 read at s + (j - lo) * step within err
    units for (s, step, err) = at(128, lo, hi), or resolve(j) if uncertified.
    digit_at[bisect_right(edges, s)] is `_certified`: the edges t_d + err + 1,
    t_{d+1} - err of the certified intervals alternate, s certifies digit d
    exactly at odd index 2d - 1, and an err past an interval leaves no edges.
    """
    s, step, err = at(LOG_FRACTIONAL_BITS, lo, hi)
    bounds = _digit_boundaries(base, LOG_FRACTIONAL_BITS)
    edges = [x for d in range(1, base) for x in (bounds[d - 1] + err + 1, bounds[d] - err)]
    if edges != sorted(edges):
        edges = []
    digit_at = [0] + [x for d in range(1, base) for x in (d, 0)]
    mask = _FP_ONE - 1
    for j in range(lo, hi):
        yield digit_at[bisect_right(edges, s)] or resolve(j)
        s = (s + step) & mask


def _floor_sum(n: int, m: int, a: int, c: int) -> int:
    """Sum of (a*k + c) // m over k = 0..n-1, for n, a, c >= 0 and m >= 1.

    Once a, c < m, the sum counts the lattice points (k, j) with k < n and
    1 <= j <= (a*k + c)/m. Row j holds the k >= (j*m - c)/a, so with
    y = a*n + c it holds (y - j*m) // a of them, and i = y//m - j turns the
    rows into the sum of (m*i + y % m) // a over i < y // m: the same sum
    with a and m swapped, so the loop takes the steps of Euclid's algorithm.
    """
    total = 0
    while n:
        total += (a // m) * (n * (n - 1) // 2) + (c // m) * n
        a, c = a % m, c % m
        n, c = divmod(a * n + c, m)
        m, a = a, m
    return total


def _arc_count(n: int, s: int, step: int, width: int, m: int) -> int:
    """Number of j < n with (s + j*step) mod m < width, for 0 <= width <= m:
    x mod m >= width exactly when (x + m - width) // m is x // m + 1."""
    return n - _floor_sum(n, m, step, s + m - width) + _floor_sum(n, m, step, s)


def _linear_counts(
    n: int, s: int, step: int, err: int, bounds: tuple[int, ...], bits: int
) -> list[int] | None:
    """For terms j < n read at s + j*step mod 2**bits, the number in each
    interval [t, u) of consecutive ``bounds``, or None if a term lies within
    ``err`` of a bound mod 2**bits. As a term and a bound are within err
    units of their true values together, a term outside every band
    [t - err, t + err] lies in the interval its true logarithm does."""
    m = 1 << bits
    band = 2 * err + 1
    if (n and band >= m) or any(
        _arc_count(n, (s - t + err) % m, step, band, m) for t in {t % m for t in bounds}
    ):
        return None
    return [_arc_count(n, (s - t) % m, step, u - t, m) for t, u in zip(bounds, bounds[1:])]


def stream_counts(digits: Iterable[int], top: int) -> tuple[int, ...]:
    """Counts of the digits 1..top in a stream of plain-int digits."""
    seen = Counter(digits)
    return tuple(seen[d] for d in range(1, top + 1))


def _line_counts(
    at: _Line, prefix: Callable[[int], Iterable[int]], head: Callable[[int], int],
    first: int, n: int, base: int, top: int, what: str,
) -> tuple[int, ...]:
    """Counts of the digits 1..top in ``base`` of the n terms first ..
    first+n-1 on the line ``at``. At the first precision from 128 bits on
    that certifies them (`_escalate`), the terms past the first h =
    min(n, head(bits)) are counted by `_linear_counts`; the digits of those
    h come from the stream prefix(h), read once, for the h that is used."""
    def count(bits):
        h = min(n, head(bits))
        lo, hi = first + h, first + n
        s, step, err = at(bits, lo, hi)
        if hi > lo and 2 * err + 1 >= 1 << bits:  # refused before a boundary is read
            return _linear_counts(hi - lo, s, step, err, (), bits)
        # one 128-bit table per base, shared with the streams; past it t_1 .. t_(top+1)
        bounds = (_digit_boundaries(base, bits) if bits == LOG_FRACTIONAL_BITS
                  else _digit_boundaries(base, bits, top))
        rest = _linear_counts(hi - lo, s, step, err, bounds[:top + 1], bits)
        return rest and (h, rest)

    h, rest = _escalate(LOG_FRACTIONAL_BITS, first + n - 1, count,
                        f"leading digit histogram of {what} in base {base}")
    return tuple(c + r for c, r in zip(stream_counts(prefix(h), top), rest))


def _power_line(a: int, b: int) -> _Line:
    """Line of a**lo .. a**(hi-1) in base b: s_k = k * alpha exactly, and
    alpha and t_d are each off by at most _FP_CONST_ERR, so
    hi * _FP_CONST_ERR + 1 bounds every term k < hi."""
    def at(bits, lo, hi):
        alpha = _log_fixed_point(a, b, bits)
        return lo * alpha % (1 << bits), alpha, hi * _FP_CONST_ERR + 1

    return at


def _resolve_power(a: int, k: int, b: int) -> int:
    return _resolve(b, k, k * a.bit_length(), lambda: a ** k,
                    partial(_line_term, _power_line(a, b), k, b),
                    f"a**k for a {a.bit_length()}-bit a and a {k.bit_length()}-bit k")


def power_digits(a: int, n: int, b: int) -> Iterator[int]:
    """Leading digits of a**0 .. a**(n-1) in base b."""
    digits = _power_cycle(a, b)
    if digits:
        return islice(cycle(digits), n)
    return _line_digits(_power_line(a, b), 0, n, b, lambda k: _resolve_power(a, k, b))


def power_counts(a: int, n: int, b: int, top: int) -> tuple[int, ...]:
    """Counts of the leading digits 1..top of a**0 .. a**(n-1) in base b:
    over the exact digit cycle in closed form, else the first
    _POWER_EXACT_PREFIX from the stream and the rest by floor sums."""
    digits = _power_cycle(a, b)
    if digits:
        q, r = divmod(n, len(digits))
        return tuple(q * digits.count(d) + digits[:r].count(d) for d in range(1, top + 1))
    return _line_counts(
        _power_line(a, b), lambda h: power_digits(a, h, b), lambda bits: _POWER_EXACT_PREFIX,
        0, n, b, top,
        f"a**0 .. a**(n-1) for a {a.bit_length()}-bit a and a {n.bit_length()}-bit n",
    )


def _fibonacci(m: int) -> int:
    """F_m (F_1 = F_2 = 1) by fast doubling."""
    f, g = 0, 1  # F_j, F_{j+1}, starting at j = 0
    for bit in bin(m)[2:]:
        f, g = f * (2 * g - f), f * f + g * g  # j -> 2j
        if bit == "1":
            f, g = g, f + g  # 2j -> 2j + 1
    return f


def _fibonacci_logs(base: int, bits: int) -> tuple[int, int]:
    """Fixed-point (log_base(phi), log_base(sqrt 5)) at ``bits``, each off by
    at most _FP_CONST_ERR units: ln phi = atanh(1/sqrt 5) is off by under 3/2
    units of 2**-w (isqrt puts the argument high by about 2**-w/5, at slope
    5/4), ln 5 by 6 and 2 ln base by 28, so by `_ratio` both are off by under
    1/2 + 2**-25 units."""
    w = bits + 32
    ln_base = _ln_fixed(base, w)
    ln_phi = _atanh(1 << w, math.isqrt(5 << 2 * w), w)
    return _ratio(ln_phi, ln_base, bits), _ratio(_ln_fixed(5, w), 2 * ln_base, bits)


def _fibonacci_line(b: int) -> _Line:
    """Line of F_lo .. F_(hi-1) in base b, read at m*step - offset.

    Binet's formula F_m = (phi**m - psi**m) / sqrt 5 with psi = -1/phi gives

        log_base F_m = m*log_base(phi) - log_base(sqrt 5) + c_m,
        c_m = log_base(1 - (-1)**m * x),  x = phi**(-2m).

    For m >= 1, x <= 1/phi**2 < 1/2, where |ln(1 +- x)| <= 2x; with
    ln(base) >= ln 2 > 1/2 that gives |c_m| < 4x < 2**(2 - 1.388m), or
    2**(bits + 2 - 1.388m) units. That Binet part falls with m and is taken
    at lo; the linear part, _FP_CONST_ERR for each of m*step, offset and the
    boundary, grows with m and is taken at hi - 1.
    """
    def at(bits, lo, hi):
        step, offset = _fibonacci_logs(b, bits)
        err = (hi + 1) * _FP_CONST_ERR + (1 << max(0, bits + 2 - 1388 * lo // 1000))
        return (lo * step - offset) % (1 << bits), step, err

    return at


def _resolve_fibonacci(m: int, b: int) -> int:
    # F_m < phi**m < 2**(0.7m)
    return _resolve(b, m, m * 7 // 10 + 1, lambda: _fibonacci(m),
                    partial(_line_term, _fibonacci_line(b), m, b), f"Fibonacci term {m}")


def fibonacci_digits(n: int, b: int) -> Iterator[int]:
    """Leading digits of F_1 .. F_n in base b."""
    resolve = partial(_resolve_fibonacci, b=b)
    prefix = min(n, _FIB_EXACT_PREFIX)
    yield from map(resolve, range(1, prefix + 1))
    yield from _line_digits(_fibonacci_line(b), prefix + 1, n + 1, b, resolve)


def fibonacci_counts(n: int, b: int, top: int) -> tuple[int, ...]:
    """Counts of the leading digits 1..top of F_1 .. F_n in base b: a prefix
    from the stream and the rest by floor sums. At each precision the prefix
    is long enough that the Binet part of the bound, 2**(bits + 2 - 1.388m)
    units at its first counted term m, is one unit."""
    return _line_counts(
        _fibonacci_line(b), lambda h: fibonacci_digits(h, b),
        lambda bits: max(_FIB_EXACT_PREFIX, (bits + 8) * 1000 // 1388 + 1),
        1, n, b, top, f"F_1 .. F_n for a {n.bit_length()}-bit n",
    )


def _mantissa_digits(n: int, b: int, bits: int, resolve: Callable[[int], int]) -> Iterator[int]:
    """Digits of 1!, 2!, .., n! in base b from ``bits``-bit mantissas, or
    resolve(m) for each m! they do not certify.

    y_0 = 2**bits and y_m = (y_(m-1) * m) // b**k, the k putting y_m in
    [2**bits, b * 2**bits), floor Y_m = m! * 2**bits / b**e for e the sum of
    the k. Each floor is low by under one unit and Y_m >= y_m >= 2**bits, so
    (Y_m - y_m) / Y_m <= (m - 1) * 2**-bits and Y_m <= y_m * 2**bits /
    (2**bits - m + 1). So d = y_m >> bits, with d * 2**bits <= Y_m, is the digit of m!
    when y_m < (d + 1) * (2**bits - n + 1).
    """
    # b**k <= y_(m-1) * m / 2**bits < b * n < b**(len(pw)), as b**bitlen(n) > n
    pw = [b ** k for k in range(n.bit_length() + 1)]
    thresholds = [p << bits for p in pw]
    tops = [(d + 1) * ((1 << bits) - n + 1) for d in range(b)]
    y = 1 << bits
    for m in range(1, n + 1):
        z = y * m
        y = z // pw[bisect_right(thresholds, z) - 1]
        d = y >> bits
        yield d if y < tops[d] else resolve(m)


def _resolve_factorial(m: int, b: int) -> int:
    def walk(bits):  # the digit of m!, the last one walked, or 0
        for d in _mantissa_digits(m, b, bits, lambda j: 0):
            pass
        return d

    # m! < m**m < 2**(m * m.bit_length())
    return _resolve(b, m, m * m.bit_length(), lambda: math.factorial(m), walk, f"factorial {m}!")


def factorial_digits(n: int, b: int) -> Iterator[int]:
    """Leading digits of 1!, 2!, .., n! in base b."""
    return _mantissa_digits(n, b, LOG_FRACTIONAL_BITS, lambda m: _resolve_factorial(m, b))


#: Result of the logarithmic path: a digit plus whether it is certified.
FastDigit = namedtuple("FastDigit", "digit certain")


def leading_digit_power_fast(a: int, k: int, base) -> FastDigit:
    """Leading digit of a**k in ``base`` from the fractional part of k*log_base(a).

    When a and base are powers of a common integer the digit cycle is
    computed exactly and is always certain. Otherwise the fractional part is
    evaluated in 128-bit fixed point; the result is flagged certain only when
    it sits farther from every digit boundary than the propagated error
    bound, which in particular flags powers that fall exactly on a boundary.
    """
    b = check_base(base)
    a = as_exact_int(a, "sequence base")
    k = as_exact_int(k, "exponent")
    if a < 2:
        raise ValueError(f"sequence base must be >= 2, got {a}")
    if k < 0:
        raise ValueError(f"exponent must be >= 0, got {k}")
    if k == 0:
        return FastDigit(1, certain=True)

    digits = _power_cycle(a, b)
    if digits:
        return FastDigit(digits[k % len(digits)], certain=True)

    s, _, err = _power_line(a, b)(LOG_FRACTIONAL_BITS, k, k + 1)
    bounds = _digit_boundaries(b, LOG_FRACTIONAL_BITS)
    d = _certified(s, err, bounds)
    return FastDigit(d or bisect_right(bounds, s), certain=d > 0)

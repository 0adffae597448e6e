"""Independent brute-force oracles the tests check the library against.

Each oracle deliberately takes a different route than the code under test:
plain repeated division instead of squaring-based logarithm searches,
Fraction scaling instead of integer ceiling tricks, schoolbook doubling
instead of pow().
"""

from collections import Counter
from fractions import Fraction


def digit_counts(digits, base: int) -> tuple[int, ...]:
    """Counts of the digits 1..base-1 in a stream of digits, by a Counter."""
    seen = Counter(digits)
    return tuple(seen[d] for d in range(1, base))


def expansion_by_division(n: int, base: int) -> list[int]:
    """Digits of n in `base` via naive repeated division, most significant first."""
    assert n >= 1
    digits = []
    while n:
        n, r = divmod(n, base)
        digits.append(r)
    return digits[::-1]


def pow2_decimal_by_doubling(k: int) -> str:
    """Decimal numeral of 2**k built by doubling a digit list k times."""
    digits = [1]
    for _ in range(k):
        carry = 0
        for i in range(len(digits) - 1, -1, -1):
            v = digits[i] * 2 + carry
            digits[i] = v % 10
            carry = v // 10
        while carry:
            digits.insert(0, carry % 10)
            carry //= 10
    return "".join(str(d) for d in digits)


def leading_digit_by_fraction_scaling(num: int, den: int, base: int) -> int:
    """First significant digit of num/den by scaling into [1, base) with Fractions."""
    value = abs(Fraction(num, den))
    assert value > 0
    while value >= base:
        value /= base
    while value < 1:
        value *= base
    return int(value)  # floor of the significand


def powers_leading_digits_by_expansion(a: int, base: int, n: int) -> list[int]:
    """Leading digits of a**0 .. a**(n-1), each from a full naive expansion."""
    return [expansion_by_division(a ** k, base)[0] for k in range(n)]


def gamma_q_by_mpmath(s: float, x: float) -> float:
    """Upper regularized incomplete gamma via mpmath at 50 digits."""
    import mpmath as mp

    with mp.workdps(50):
        return float(mp.gammainc(s, x, mp.inf, regularized=True))


def log_ratio_by_mpmath(num: int, base: int) -> float:
    """log_base(num) via mpmath at 50 digits, rounded once to a double."""
    import mpmath as mp

    with mp.workdps(50):
        return float(mp.log(num) / mp.log(base))


def atanh_scaled_by_mpmath(num: int, den: int, bits: int):
    """atanh(num/den) * 2**bits as an mpmath number, with 30 digits to spare."""
    import mpmath as mp

    with mp.workdps(bits * 3 // 10 + 30):
        return +(mp.atanh(mp.mpf(num) / den) * mp.mpf(2) ** bits)


def log_fixed_by_mpmath(x: int, base: int, bits: int) -> int:
    """round(log_base(x) * 2**bits) via mpmath, with 60 digits to spare."""
    import mpmath as mp

    with mp.workdps(bits * 3 // 10 + x.bit_length().bit_length() + 60):
        return int(mp.nint(mp.log(x) / mp.log(base) * mp.mpf(2) ** bits))


def leading_digit_of_power_by_mpmath(a: int, k: int, base: int, dps: int = 200) -> int:
    """Leading digit of a**k in `base` from base**frac(k*log_base(a)) at `dps` digits."""
    import mpmath as mp

    with mp.workdps(dps):
        return int(mp.floor(mp.power(base, mp.frac(k * mp.log(a) / mp.log(base)))))

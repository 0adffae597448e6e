#!/usr/bin/env python3
"""How fast do powers of two settle onto the first-digit law?

Counts leading digits of 2^0 .. 2^(N-1) in a chosen base for a grid of
sample sizes and reports MAD, max deviation, chi-square and verdict at each.
Each histogram takes O(base * log N) steps, so N may run to 10^18 and more.
"""

import argparse

from benford_radix.model import benford_pmf
from benford_radix.sequences import SequenceSpec, leading_digit_counts
from benford_radix.stats import chi_square_fit


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--base", type=int, default=10)
    parser.add_argument(
        "--sizes", default="100,1000,10000,100000",
        help="comma-separated sample sizes",
    )
    args = parser.parse_args()
    try:  # a bad base or size is refused before any row is printed
        sizes = sorted(int(s) for s in args.sizes.split(","))
        pmf = benford_pmf(args.base)
        fits = [
            (n, chi_square_fit(leading_digit_counts(SequenceSpec.powers(2, n), args.base), pmf)[0])
            for n in sizes
        ]
    except ValueError as exc:
        parser.error(str(exc))

    print(f"{'N':>8}  {'MAD':>10}  {'max dev':>10}  {'chi2':>10}  "
          f"{'p-value':>9}  verdict")
    for n, fit in fits:
        print(f"{n:>8}  {fit['mad']:>10.6f}  {fit['max_deviation']:>10.6f}  "
              f"{fit['chi2']:>10.4f}  {fit['p_value']:>9.4f}  {fit['verdict']}")


if __name__ == "__main__":
    main()

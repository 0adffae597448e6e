"""Command-line surface: pmf, sequence, table1, table2, analyze.

Exit codes: 0 success, 1 validation or usage error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import io
import os
import re
import sys
from typing import Iterator

from .digits import NoSignificantDigit, check_base, leading_digit_decimal_string
from .ingest import DatasetSource, IngestStats, ingest
from .model import benford_pmf
from .reference import BENFORD_1938_FIRST_DIGIT
from .report import ReportDocument, json_base, render_csv, render_json, render_text
from .sequences import SequenceSpec, generate, iter_leading_digits
from .stats import DigitHistogram, FitReport, chi_square_fit, leading_one_by_base, tally

_BASES_RANGE_RE = re.compile(r"^(\d+)\.\.(\d+)$")


class _Parser(argparse.ArgumentParser):
    # usage problems are validation errors: exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_kind(kind: str, length: int) -> SequenceSpec:
    if kind == "pow2":
        return SequenceSpec.powers(2, length)
    if kind.startswith("powa:"):
        try:
            a = int(kind.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad sequence kind {kind!r}: expected powa:<integer>")
        return SequenceSpec.powers(a, length)
    if kind == "fact":
        return SequenceSpec.factorial(length)
    if kind == "fib":
        return SequenceSpec.fibonacci(length)
    raise ValueError(f"unknown sequence kind {kind!r} (use pow2, powa:<a>, fact, fib)")


def _parse_bases(text: str) -> list[int]:
    m = _BASES_RANGE_RE.match(text)
    if m:
        lo, hi = int(m.group(1)), int(m.group(2))
        if lo > hi:
            raise ValueError(f"bad base range {text!r}: {lo} > {hi}")
        bases = list(range(lo, hi + 1))
    elif text.isdigit():
        bases = [int(text)]
    else:
        raise ValueError(f"bad --bases value {text!r}: expected <lo>..<hi>")
    for b in bases:
        check_base(b)
    return bases


def _histogram_payload(h: DigitHistogram) -> dict:
    return {"base": h.base, "total": h.total, "counts": list(h.counts)}


def _fit_payload(fit: FitReport | None) -> dict | None:
    if fit is None:
        return None
    return {
        "chi2": fit.statistic_chi2,
        "df": fit.degrees_of_freedom,
        "p_value": fit.p_value,
        "mad": fit.mad,
        "max_deviation": fit.max_deviation,
        "verdict": fit.verdict,
    }


def _law_doc(mode: str, base: int, p_key: str) -> ReportDocument:
    """The first-digit law of ``base``; base 10 adds the 1938 reference column."""
    pmf = benford_pmf(base)
    rows = []
    for d in pmf.digits:
        row = {"digit": d, p_key: pmf.prob(d)}
        if base == 10:
            row["reference"] = BENFORD_1938_FIRST_DIGIT[d]
            row["delta"] = pmf.prob(d) - BENFORD_1938_FIRST_DIGIT[d]
        rows.append(row)
    return ReportDocument(mode=mode, base=base, payload={"rows": rows})


def _cmd_pmf(args) -> ReportDocument:
    return _law_doc("pmf", check_base(args.base), "p")


def _cmd_table1(args) -> ReportDocument:
    return _law_doc("table1", 10, "theory")


def _cmd_sequence(args) -> ReportDocument | None:
    base = check_base(args.base)
    spec = _parse_kind(args.kind, args.n)
    if args.emit_values:
        for value in generate(spec):
            print(value)
        return None
    if args.tally:
        hist = tally(iter_leading_digits(spec, base), base)
        return ReportDocument(
            mode="sequence", base=base, payload={"histogram": _histogram_payload(hist)}
        )
    digits = list(iter_leading_digits(spec, base))
    return ReportDocument(mode="sequence", base=base, payload={"digits": digits})


def _cmd_table2(args) -> ReportDocument:
    bases = _parse_bases(args.bases)
    rows = leading_one_by_base(bases, args.n, sequence_base=args.seq_base)
    payload_rows = [
        {
            "base": json_base(r.base),
            "n": r.sample_size,
            "empirical_p1": r.empirical_p1,
            "asymptotic_p1": r.asymptotic_p1,
            "reference_p1": r.reference_p1,
        }
        for r in rows
    ]
    return ReportDocument(
        mode="table2",
        bases=[r.base for r in rows],
        payload={"rows": payload_rows},
    )


def _nonzero_digits(numerals, base: int) -> Iterator[int]:
    """Leading digits of the numerals; zeros, which have none, are dropped."""
    for numeral in numerals:
        try:
            yield leading_digit_decimal_string(numeral, base)
        except NoSignificantDigit:
            pass


def _cmd_analyze(args) -> ReportDocument:
    base = check_base(args.base)
    source = DatasetSource(
        format=args.format, column=args.column, skip_header=args.skip_header
    )
    stats = IngestStats()
    # newline="" leaves line ends to csv; stdin's bytes are borrowed, not closed
    if args.path == "-":
        fh = io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8-sig", newline="")
        release = fh.detach
    else:
        fh = open(args.path, encoding="utf-8-sig", newline="")
        release = fh.close
    try:
        hist = tally(_nonzero_digits(ingest(source, fh, stats), base), base)
    finally:
        release()
    zeros = stats.records - hist.total
    warnings = stats.warnings()
    if zeros:
        warnings.append(f"skipped {zeros} zero value(s)")
    fit = None
    if hist.total == 0:
        warnings.append("no usable records; nothing to fit")
    elif base == 2:
        warnings.append("base 2 has a single digit cell; chi-square fit undefined")
    else:
        fit = chi_square_fit(hist, benford_pmf(base))
        warnings.extend(fit.warnings)
    return ReportDocument(
        mode="analyze",
        base=base,
        payload={"histogram": _histogram_payload(hist), "fit": _fit_payload(fit)},
        warnings=warnings,
    )


def _add_format_flags(sub) -> None:
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true", help="emit the JSON document")
    group.add_argument("--csv", action="store_true", help="emit CSV rows")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="benford-radix",
        description="First-significant-digit statistics in arbitrary number bases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pmf", help="theoretical first-digit law for one base")
    p.add_argument("--base", type=int, default=10)
    _add_format_flags(p)
    p.set_defaults(handler=_cmd_pmf)

    p = sub.add_parser(
        "sequence", help="leading digits of a generated integer sequence"
    )
    p.add_argument(
        "--kind", required=True, help="pow2, powa:<a>, fact, or fib"
    )
    p.add_argument("--base", type=int, default=10)
    p.add_argument("-n", type=int, required=True, help="number of terms")
    emit = p.add_mutually_exclusive_group()
    emit.add_argument(
        "--tally", action="store_true", help="report the digit histogram instead"
    )
    emit.add_argument(
        "--emit-values",
        action="store_true",
        help="print the raw sequence values, one per line",
    )
    _add_format_flags(p)
    p.set_defaults(handler=_cmd_sequence)

    p = sub.add_parser(
        "table1", help="theoretical law vs the 1938 reference column (base 10)"
    )
    _add_format_flags(p)
    p.set_defaults(handler=_cmd_table1)

    p = sub.add_parser(
        "table2", help="leading-1 frequency of a power sequence across bases"
    )
    p.add_argument("-n", type=int, required=True, help="number of sequence terms")
    p.add_argument("--bases", default="2..12", help="<lo>..<hi> range of bases")
    p.add_argument("--seq-base", type=int, default=2, help="power sequence base a")
    _add_format_flags(p)
    p.set_defaults(handler=_cmd_table2)

    p = sub.add_parser("analyze", help="first-digit audit of a numeric dataset")
    p.add_argument("path", help="input file, or - for stdin")
    p.add_argument("--format", choices=("csv", "lines"), default="lines")
    p.add_argument("--column", help="CSV column: 0-based index or header name")
    p.add_argument(
        "--skip-header",
        action="store_true",
        help="skip the first CSV row (implied when --column is a name)",
    )
    p.add_argument("--base", type=int, default=10)
    _add_format_flags(p)
    p.set_defaults(handler=_cmd_analyze)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        doc = args.handler(args)
        if doc is not None:
            if args.json:
                print(render_json(doc))
            elif args.csv:
                sys.stdout.write(render_csv(doc))
            else:
                sys.stdout.write(render_text(doc))
        sys.stdout.flush()
    except (UnicodeDecodeError, OSError) as exc:
        print(f"benford-radix: error: {exc}", file=sys.stderr)
        if isinstance(exc, BrokenPipeError):
            # the reader is gone: send the unflushed rest, at exit, nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except ValueError as exc:
        print(f"benford-radix: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

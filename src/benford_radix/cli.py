"""Command-line surface: pmf, sequence, table1, table2, analyze.

Exit codes: 0 success, 1 validation or usage error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from itertools import islice

from .digits import check_base
from .report import render_csv, render_json, render_text


def _parse_kind(kind: str, length: int) -> SequenceSpec:
    from .sequences import SequenceSpec  # loaded only by the commands that use it

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
    m = re.fullmatch(r"([0-9]+)(?:\.\.([0-9]+))?", text)
    if m is None:
        raise ValueError(f"bad --bases value {text!r}: expected <lo>..<hi>")
    lo, hi = int(m[1]), int(m[2] or m[1])
    if lo > hi:
        raise ValueError(f"bad base range {text!r}: {lo} > {hi}")
    # both ends first, so that a range past 64 is refused before it is built
    return list(range(check_base(lo), check_base(hi) + 1))


def _histogram_payload(base: int, counts: tuple[int, ...]) -> dict:
    return {"base": base, "total": sum(counts), "counts": list(counts)}


def _law_doc(mode: str, base: int, p_key: str) -> dict:
    """The first-digit law of ``base``; base 10 adds the 1938 reference column."""
    from .model import benford_pmf  # loaded only by the commands that use it
    from .reference import BENFORD_1938_FIRST_DIGIT

    rows = []
    for d, p in enumerate(benford_pmf(base), 1):
        row = {"digit": d, p_key: p}
        if base == 10:
            row["reference"] = BENFORD_1938_FIRST_DIGIT[d]
            row["delta"] = p - BENFORD_1938_FIRST_DIGIT[d]
        rows.append(row)
    return {"mode": mode, "base": base, "rows": rows, "warnings": []}


def _cmd_pmf(args) -> dict:
    return _law_doc("pmf", check_base(args.base), "p")


def _cmd_table1(args) -> dict:
    return _law_doc("table1", 10, "theory")


def _cmd_sequence(args) -> dict | None:
    from .sequences import generate, iter_leading_digits, leading_digit_counts

    base = check_base(args.base)
    spec = _parse_kind(args.kind, args.n)
    if args.emit_values:
        if args.json or args.csv:
            raise ValueError("--emit-values prints raw values; it takes no --json or --csv")
        # terms outgrow the int-to-str digit limit (0: none): lift it meanwhile
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        try:
            if limit:
                sys.set_int_max_str_digits(0)
            lines = map(str, generate(spec))
            while chunk := list(islice(lines, 256)):
                _write_stdout("\n".join(chunk) + "\n")
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)
        return None
    if args.tally:
        counts = leading_digit_counts(spec, base)
        return {"mode": "sequence", "base": base,
                "histogram": _histogram_payload(base, counts), "warnings": []}
    digits = list(iter_leading_digits(spec, base))
    return {"mode": "sequence", "base": base, "digits": digits, "warnings": []}


def _cmd_table2(args) -> dict:
    from .stats import leading_one_by_base

    bases = _parse_bases(args.bases)
    rows = leading_one_by_base(bases, args.n, sequence_base=args.seq_base)
    return {"mode": "table2", "bases": [r["base"] for r in rows], "rows": rows, "warnings": []}


def _cmd_analyze(args) -> dict:
    from .ingest import DatasetSource, scan  # only analyze reads datasets
    from .model import benford_pmf
    from .stats import chi_square_fit

    base = check_base(args.base)
    source = DatasetSource(args.format, args.column, args.skip_header)
    if args.path == "-":  # stdin is borrowed, not closed
        counts, warnings = scan(source, sys.stdin.buffer, base)
    else:
        with open(args.path, "rb") as fh:
            counts, warnings = scan(source, fh, base)
    fit = None
    if sum(counts) == 0:
        warnings.append("no usable records; nothing to fit")
    elif base == 2:
        warnings.append("base 2 has a single digit cell; chi-square fit undefined")
    else:
        fit, fit_warnings = chi_square_fit(counts, benford_pmf(base))
        warnings.extend(fit_warnings)
    return {"mode": "analyze", "base": base, "histogram": _histogram_payload(base, counts),
            "fit": fit, "warnings": warnings}


def _add_format_flags(sub) -> None:
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true", help="emit the JSON document")
    group.add_argument("--csv", action="store_true", help="emit CSV rows")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("--bases", default="2..12", help="<lo>..<hi> range of bases, within 2..64")
    p.add_argument("--seq-base", type=int, default=2, help="power sequence base a")
    _add_format_flags(p)
    p.set_defaults(handler=_cmd_table2)

    p = sub.add_parser("analyze", help="first-digit audit of a numeric dataset")
    p.add_argument("path", help="input file, or - for stdin")
    p.add_argument("--format", choices=("csv", "lines"), default="lines")
    p.add_argument("--column", help="CSV column: 0-based index or header name (all digits: "
                   "a name only if the first row, not skipped, is too short for that index)")
    p.add_argument(
        "--skip-header",
        action="store_true",
        help="skip the first CSV row (implied when --column is a name)",
    )
    p.add_argument("--base", type=int, default=10)
    _add_format_flags(p)
    p.set_defaults(handler=_cmd_analyze)

    return parser


def _write_stdout(text: str) -> None:
    """Write ``text`` to stdout whole, or raise OSError.

    Unbuffered (``PYTHONUNBUFFERED=1``), the text layer ignores the short
    count of a raw write that a closing pipe cuts off, so the bytes go to
    the binary layer in a loop; the next write then fails with EPIPE.
    """
    out = getattr(sys.stdout, "buffer", None)
    if out is None:  # a text-only stream, such as io.StringIO
        sys.stdout.write(text)
        return
    sys.stdout.flush()
    data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
    while data:
        data = data[out.write(data):]
    out.flush()


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # a usage error is a validation error: 1, not argparse's 2
        return 1 if exc.code == 2 else int(exc.code or 0)
    try:
        doc = args.handler(args)
        if doc is not None:
            if args.json:
                _write_stdout(render_json(doc) + "\n")
            elif args.csv:
                _write_stdout(render_csv(doc))
            else:
                _write_stdout(render_text(doc))
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

"""Command-line surface: pmf, sequence, table1, table2, analyze.

Exit codes: 0 success, 1 validation or usage error, 2 I/O error.
"""

from __future__ import annotations

import os
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
    lo, hi = text.split("..", 1) if ".." in text else (text, text)
    if not (text.isascii() and lo.isdigit() and hi.isdigit()):  # isdigit() takes "²" and "５"
        raise ValueError(f"bad --bases value {text!r}: expected <lo>..<hi>")
    lo, hi = int(lo), int(hi)
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


def _cmd_sequence(args) -> dict | None:
    from .sequences import generate, iter_leading_digits, leading_digit_counts

    base = check_base(args["--base"])
    spec = _parse_kind(args["--kind"], args["-n"])
    if args["--emit-values"]:
        if args["--json"] or args["--csv"]:
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
    if args["--tally"]:
        counts = leading_digit_counts(spec, base)
        return {"mode": "sequence", "base": base,
                "histogram": _histogram_payload(base, counts), "warnings": []}
    digits = list(iter_leading_digits(spec, base))
    return {"mode": "sequence", "base": base, "digits": digits, "warnings": []}


def _cmd_table2(args) -> dict:
    from .stats import leading_one_by_base

    bases = _parse_bases(args["--bases"])
    rows = leading_one_by_base(bases, args["-n"], sequence_base=args["--seq-base"])
    return {"mode": "table2", "bases": [r["base"] for r in rows], "rows": rows, "warnings": []}


def _cmd_analyze(args) -> dict:
    from .ingest import DatasetSource, scan  # only analyze reads datasets
    from .model import benford_pmf
    from .stats import chi_square_fit

    base = check_base(args["--base"])
    source = DatasetSource(args["--format"], args["--column"], args["--skip-header"])
    if args["path"] == "-":  # stdin is borrowed, not closed
        if (stdin := getattr(sys.stdin, "buffer", None)) is None:  # None: fd 0 was closed
            raise OSError("stdin is closed or not a byte stream")
        counts, warnings = scan(source, stdin, base)
    else:
        with open(args["path"], "rb") as fh:
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


# Each command's handler, help, positionals and options. An option's entry is its default, and
# its type is the option's: False a flag, an int or a str (or None) a value, a tuple the choices,
# the first one the default. The type int or str itself makes the option required.
_FORMATS = {"--json": False, "--csv": False}
_COMMANDS = {
    "pmf": (lambda args: _law_doc("pmf", check_base(args["--base"]), "p"),
            "theoretical first-digit law for one base", (), {"--base": 10, **_FORMATS}),
    "sequence": (_cmd_sequence, "leading digits of a generated integer sequence", (), {
        "--kind": str, "--base": 10, "-n": int, "--tally": False, "--emit-values": False,
        **_FORMATS}),
    "table1": (lambda args: _law_doc("table1", 10, "theory"),
               "theoretical law vs the 1938 reference column (base 10)", (), _FORMATS),
    "table2": (_cmd_table2, "leading-1 frequency of a power sequence across bases", (),
               {"-n": int, "--bases": "2..12", "--seq-base": 2, **_FORMATS}),
    "analyze": (_cmd_analyze, "first-digit audit of a numeric dataset", ("path",), {
        "--format": ("lines", "csv"), "--column": None, "--skip-header": False, "--base": 10,
        **_FORMATS}),
}
_EXCLUSIVE = {"--json": "--csv", "--csv": "--json",
              "--tally": "--emit-values", "--emit-values": "--tally"}


def _usage(command: str | None = None) -> str:
    if command not in _COMMANDS:
        return f"benford-radix [-h] {{{','.join(_COMMANDS)}}} ..."
    words = ["benford-radix", command, "[-h]"]
    for name, spec in _COMMANDS[command][3].items():
        value = "{%s}" % ",".join(spec) if type(spec) is tuple else name.lstrip("-").upper()
        word = name if spec is False else f"{name} {value}"
        words.append(word if spec in (int, str) else f"[{word}]")
    return " ".join(words + list(_COMMANDS[command][2]))


def _help(command: str | None) -> str:
    """The usage line, then the help of ``command`` or the list of commands."""
    about = "".join(f"\n  {name:<10}{spec[1]}" for name, spec in _COMMANDS.items())
    about = _COMMANDS[command][1] if command else "First-digit statistics in any base:" + about
    return f"usage: {_usage(command)}\n\n{about}\n"


def _read_argv(argv) -> tuple:
    """(handler, args) read from ``argv`` by ``_COMMANDS``, or a ValueError. ``args`` maps each
    option, as it is spelt, and each positional to its value; for ``-h`` it is the help text."""
    command = argv[0] if argv else None
    if {"-h", "--help"} & set(argv):
        return _write_stdout, _help(command if command in _COMMANDS else None)
    def choices(name: str, value: str, spec) -> ValueError:
        return ValueError(f"argument {name}: invalid choice: {value!r} "
                          f"(choose from {', '.join(map(repr, spec))})")
    if command not in _COMMANDS:
        raise choices("command", command, _COMMANDS) if command else ValueError(
            "the following arguments are required: command")
    handler, _, positionals, options = _COMMANDS[command]
    args = {name: spec[0] if type(spec) is tuple else spec for name, spec in options.items()}
    free, extra = [], []
    rest = iter(argv[1:])
    for token in rest:
        name, eq, value = token.partition("=")
        if name not in options:  # a positional, or an unknown option
            positional = token == "-" or not token.startswith("-")
            (free if positional and len(free) < len(positionals) else extra).append(token)
            continue
        spec = options[name]
        if spec is False:
            if eq:
                raise ValueError(f"argument {name}: ignored explicit argument {value!r}")
            if args.get(_EXCLUSIVE.get(name)):
                raise ValueError(f"argument {name}: not allowed with argument {_EXCLUSIVE[name]}")
            value = True
        elif not eq and (value := next(rest, None)) is None:
            raise ValueError(f"argument {name}: expected one argument")
        elif int in (spec, type(spec)):
            try:
                value = int(value)
            except ValueError:
                raise ValueError(f"argument {name}: invalid int value: {value!r}") from None
        elif type(spec) is tuple and value not in spec:
            raise choices(name, value, spec)
        args[name] = value
    # a required option still holds its type
    missing = [name for name in options if args[name] in (int, str)] + list(positionals[len(free):])
    if missing:
        raise ValueError("the following arguments are required: " + ", ".join(missing))
    if extra:
        raise ValueError("unrecognized arguments: " + " ".join(extra))
    args.update(zip(positionals, free))
    return handler, args


def _write_stdout(text: str) -> None:
    """Write ``text`` to stdout whole, or raise OSError.

    Unbuffered (``PYTHONUNBUFFERED=1``), the text layer ignores the short
    count of a raw write that a closing pipe cuts off, so the bytes go to
    the binary layer in a loop; the next write then fails with EPIPE.
    """
    if sys.stdout is None:  # fd 1 was closed
        raise OSError("stdout is closed")
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
    argv = sys.argv[1:] if argv is None else argv
    try:
        handler, args = _read_argv(argv)
    except ValueError as exc:  # a usage error: the usage line, then the message
        print(f"usage: {_usage(*argv[:1])}\nbenford-radix: error: {exc}", file=sys.stderr)
        return 1
    try:
        doc = handler(args)
        if doc is not None:
            if args["--json"]:
                _write_stdout(render_json(doc) + "\n")
            elif args["--csv"]:
                _write_stdout(render_csv(doc))
            else:
                _write_stdout(render_text(doc))
        _write_stdout("")  # a flush, which also refuses a closed stdout
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

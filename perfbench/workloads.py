"""The three workloads: argv lists, expected stdout and item counts, from a seed.

An item is one input line (dataset), one term in one base (sequence) or one
command (short). Sizes are fixed, so every count repeats exactly across
seeds; the seed draws the dataset contents and the order of the commands.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, replace

import gen
import oracle

DATASET_LINES = 200_000
SHORT_LINES = 2_000

# (kind, base, n, format) of the sequence workload; the base-16 pow2 case
# shares its root with the base, so a digit engine can answer it by its
# exact cycle.
SEQUENCE_TALLIES = (
    ("pow2", 10, 100_000, "text"),
    ("powa:3", 7, 50_000, "json"),
    ("fib", 10, 100_000, "csv"),
    ("fact", 10, 20_000, "text"),
    ("pow2", 16, 50_000, "json"),
)
TABLE2 = (10_000, range(2, 65))


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    expected: str
    items: int


def _fmt_flag(fmt: str) -> tuple[str, ...]:
    return () if fmt == "text" else (f"--{fmt}",)


def _dataset_files(work: str, name: str, seed: int, lines: int, bases):
    lines_path = os.path.join(work, f"{name}.txt")
    csv_path = os.path.join(work, f"{name}.csv")
    ds = gen.generate(seed, lines, bases, lines_path, csv_path)
    return ds, lines_path, csv_path


def _analyze(ds: gen.Dataset, path: str, base: int, fmt: str, csv_column=None,
             skip_header=False) -> Command:
    argv = ["analyze", path]
    if csv_column is not None:
        argv += ["--format", "csv", "--column", csv_column]
        if skip_header:
            argv.append("--skip-header")
    if base != 10:
        argv += ["--base", str(base)]
    argv += _fmt_flag(fmt)
    doc = oracle.analyze_doc(base, ds.counts[base], ds.blank, ds.non_numeric, ds.zeros, fmt)
    return Command(tuple(argv), doc, ds.lines)


def dataset(seed: int, work: str):
    ds, lines_path, csv_path = _dataset_files(work, "dataset", seed, DATASET_LINES, (10, 7))
    commands = [
        _analyze(ds, lines_path, 10, "text"),
        _analyze(ds, csv_path, 7, "json", csv_column="value"),
    ]
    return commands, {"dataset": ds.shares()}


def sequence(seed: int, work: str):
    commands = []
    for kind, base, n, fmt in SEQUENCE_TALLIES:
        argv = ("sequence", "--kind", kind, "--base", str(base), "-n", str(n), "--tally")
        doc = oracle.sequence_doc(kind, n, base, fmt, tally=True)
        commands.append(Command(argv + _fmt_flag(fmt), doc, n))
    n, bases = TABLE2
    argv = ("table2", "-n", str(n), "--bases", f"{bases[0]}..{bases[-1]}")
    commands.append(Command(argv, oracle.table2_doc(n, bases, 2, "text"), n * len(bases)))
    random.Random(seed).shuffle(commands)
    sizes = {f"{k} base {b}": n for k, b, n, _ in SEQUENCE_TALLIES}
    sizes["table2"] = f"n={n} bases={bases[0]}..{bases[-1]}"
    return commands, {"sequence": sizes}


def short(seed: int, work: str):
    ds, lines_path, csv_path = _dataset_files(work, "short", seed, SHORT_LINES, (10, 7, 16, 2, 12))
    commands = []

    def add(argv, doc):
        commands.append(Command(tuple(argv), doc, 1))

    for base, fmt in ((10, "text"), (10, "json"), (10, "csv"), (7, "text"), (16, "text"),
                      (64, "json"), (2, "csv")):
        add(["pmf", "--base", str(base), *_fmt_flag(fmt)], oracle.pmf_doc(base, fmt))
    for fmt in ("text", "json", "csv"):
        add(["table1", *_fmt_flag(fmt)], oracle.table1_doc(fmt))
    for kind, base, n, fmt in (("pow2", 10, 13, "text"), ("pow2", 16, 50, "text"),
                               ("fib", 12, 200, "json"), ("fact", 10, 100, "csv"),
                               ("powa:3", 7, 300, "text")):
        add(["sequence", "--kind", kind, "--base", str(base), "-n", str(n), *_fmt_flag(fmt)],
            oracle.sequence_doc(kind, n, base, fmt, tally=False))
    for kind, base, n, fmt in (("pow2", 10, 1000, "text"), ("pow2", 10, 1000, "json"),
                               ("pow2", 10, 1000, "csv"), ("fib", 20, 1000, "text")):
        add(["sequence", "--kind", kind, "--base", str(base), "-n", str(n), "--tally",
             *_fmt_flag(fmt)], oracle.sequence_doc(kind, n, base, fmt, tally=True))
    for kind in ("pow2", "fib"):
        add(["sequence", "--kind", kind, "-n", "500", "--emit-values"],
            oracle.emit_values_doc(kind, 500))
    for n, lo, hi, seq_base, fmt in ((13, 2, 12, 2, "text"), (1000, 2, 16, 2, "json"),
                                     (500, 2, 12, 2, "csv"), (200, 10, 20, 3, "text")):
        argv = ["table2", "-n", str(n), "--bases", f"{lo}..{hi}"]
        if seq_base != 2:
            argv += ["--seq-base", str(seq_base)]
        add(argv + list(_fmt_flag(fmt)), oracle.table2_doc(n, range(lo, hi + 1), seq_base, fmt))
    analyses = [_analyze(ds, lines_path, base, fmt)
                for base, fmt in ((10, "text"), (10, "json"), (7, "csv"), (16, "text"),
                                  (2, "text"), (12, "json"))]
    analyses.append(_analyze(ds, csv_path, 10, "text", csv_column="value"))
    analyses.append(_analyze(ds, csv_path, 12, "json", csv_column="1", skip_header=True))
    commands.extend(replace(c, items=1) for c in analyses)
    random.Random(seed).shuffle(commands)
    return commands, {"short": {"commands": len(commands), "dataset": ds.shares()}}


WORKLOADS = {"dataset": dataset, "sequence": sequence, "short": short}

#!/usr/bin/env python3
"""Self-test of the benchmark itself. Run from the root of a source checkout:

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)

It checks that the generator is deterministic for a fixed seed, that the
oracle agrees byte for byte with the CLI on small instances of every
workload, that a corrupted document or a failing command is counted as
failed, that BENCHMARK.json names exactly the metrics run.py prints, and
that the benchmark refuses to run where there is no program.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Command  # noqa: E402

SCRATCH = os.path.join(".perfbench", "selftest")


def _scratch(name: str) -> str:
    path = os.path.join(SCRATCH, name)
    os.makedirs(path, exist_ok=True)
    return path


def _cli_main():
    sys.path.insert(0, run.SRC)
    from benford_radix.cli import main

    return main


def _generate(seed: int, tag: str):
    work = _scratch("gen")
    lines, csv = os.path.join(work, f"{tag}.txt"), os.path.join(work, f"{tag}.csv")
    ds = gen.generate(seed, 3000, (10, 7), lines, csv)
    with open(lines, "rb") as a, open(csv, "rb") as b:
        return ds, a.read(), b.read()


def test_generator_is_deterministic():
    ds1, lines1, csv1 = _generate(5, "a")
    ds2, lines2, csv2 = _generate(5, "b")
    ds3, lines3, _ = _generate(6, "c")
    assert (lines1, csv1) == (lines2, csv2)
    assert ds1 == ds2
    assert lines3 != lines1
    assert (ds1.blank, ds1.non_numeric, ds1.zeros, ds1.negative) == (30, 30, 15, 300)
    assert (ds3.blank, ds3.non_numeric, ds3.zeros, ds3.negative) == (30, 30, 15, 300)


def _small_instances(work: str) -> list[Command]:
    """Every workload's command shapes at a size that runs in seconds."""
    commands, _ = workloads.short(3, work)
    ds = gen.generate(4, 500, (10, 7), os.path.join(work, "d.txt"), os.path.join(work, "d.csv"))
    commands.append(workloads._analyze(ds, os.path.join(work, "d.txt"), 10, "text"))
    commands.append(workloads._analyze(ds, os.path.join(work, "d.csv"), 7, "json", "value"))
    for kind, base, _, fmt in workloads.SEQUENCE_TALLIES:
        argv = ("sequence", "--kind", kind, "--base", str(base), "-n", "300", "--tally")
        commands.append(Command(argv + workloads._fmt_flag(fmt),
                                oracle.sequence_doc(kind, 300, base, fmt, tally=True), 1))
    commands.append(Command(("table2", "-n", "100", "--bases", "2..64"),
                            oracle.table2_doc(100, range(2, 65), 2, "text"), 1))
    for base in range(2, 65):
        for fmt in ("text", "json", "csv"):
            commands.append(Command(("pmf", "--base", str(base), *workloads._fmt_flag(fmt)),
                                    oracle.pmf_doc(base, fmt), 1))
    return commands


def test_oracle_agrees_with_cli():
    commands = _small_instances(_scratch("agree"))
    _, failed = run.run_in_process(commands, _cli_main())
    assert failed == 0


def test_oracle_agrees_with_cli_subprocess():
    work = _scratch("agree_subprocess")
    commands, _ = workloads.short(5, work)
    launcher = run.Launcher(run.child_env(), work)
    try:
        _, failed, _ = run.end_to_end(commands, 0.0, launcher)
    finally:
        launcher.close()
    assert failed == 0


def test_corrupted_document_counts_as_failed():
    good = Command(("pmf", "--base", "10"), oracle.pmf_doc(10, "text"), 1)
    flipped = good.expected.replace("0.301030", "0.301031")
    assert flipped != good.expected
    bad = replace(good, expected=flipped)
    failing = Command(("pmf", "--base", "99"), "", 1)
    _, failed = run.run_in_process([good, bad, good, failing], _cli_main())
    assert failed == 2


def test_benchmark_json_names_the_printed_metrics():
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


def test_refuses_to_run_without_the_program():
    bare = _scratch("bare")
    shutil.rmtree(bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "short", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items()
             if name.startswith("test_") and callable(fn)]
    failures = 0
    try:
        for name, fn in tests:
            try:
                fn()
            except Exception as exc:  # report every failing check, then exit 1
                failures += 1
                print(f"FAIL {name}: {exc!r}")
            else:
                print(f"ok   {name}")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark of the benford-radix CLI, end to end and layer by layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload dataset --seed 1 --seconds 20 --trace 0

With ``--trace 0`` every command of the workload runs as a fresh
``python -m benford_radix.cli`` subprocess, one after another, in passes
until ``--seconds`` have gone by (at least one full pass); each stdout is
compared byte for byte with the oracle's document. With ``--trace 1`` the
same commands, plus the ``short`` command set so that every layer has spans,
run in this process under the span tracer, once untraced and once traced per
iteration. The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time

import workloads
from spans import LAYERS, Tracer

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(ROOT, "src")
PACKAGE = "benford_radix"
CLI_FILE = os.path.join(SRC, PACKAGE, "cli.py")
WORK = os.path.join(".perfbench", "work")
OUT = os.path.join(".perfbench", "out")

SETUP_SAMPLES = 21
# Fixed so the certified count repeats exactly on every run and workload.
POWER_FAST_SEED = 20101229
POWER_FAST_PER_DECADE = 2000
POWER_FAST_DECADES = range(3, 40)

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "cmd_p50_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "ingest.busy_s": "s",
    "ingest.records": "count",
    "ingest.skipped": "count",
    "digits.decimal_string.b10.busy_s": "s",
    "digits.decimal_string.rational.busy_s": "s",
    "digits.zeros": "count",
    "sequences.generate.busy_s": "s",
    "sequences.iter_leading_digits.busy_s": "s",
    "sequences.extract.self_s": "s",
    "sequences.terms": "count",
    "sequences.term_bits_max": "bits",
    "sequences.power_fast.certified_ratio": "ratio",
    "stats.tally.busy_s": "s",
    "stats.chi_square_fit.busy_s": "s",
    "stats.leading_one_by_base.busy_s": "s",
    "model.benford_pmf.busy_s": "s",
    "report.render_text.busy_s": "s",
    "report.render_json.busy_s": "s",
    "report.render_csv.busy_s": "s",
    "report.bytes_out": "bytes",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.traced_over_untraced": "ratio",
}


class BenchError(Exception):
    """The checkout cannot be benchmarked (no program, or the wrong one)."""


def info(tag: str, value) -> None:
    print(f"# {tag} {json.dumps(value, sort_keys=True)}", flush=True)


def git_commit() -> str:
    """HEAD of the checkout's own .git, if it has one, without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def check_program(env) -> None:
    if not os.path.isfile(CLI_FILE):
        raise BenchError(f"no {PACKAGE} source under {SRC}")
    probe = subprocess.run(
        [sys.executable, "-c", f"import {PACKAGE}.cli as c; print(c.__file__)"],
        env=env, capture_output=True, text=True,
    )
    found = probe.stdout.strip()
    if probe.returncode != 0 or os.path.realpath(found) != os.path.realpath(CLI_FILE):
        raise BenchError(f"{PACKAGE}.cli does not import from {SRC}: {probe.stderr or found}")


# --- end to end ---------------------------------------------------------------


class Launcher:
    """Client of launcher.py, which spawns and times every command (see there why)."""

    def __init__(self, env, work: str = WORK):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
        )
        self.out_path = os.path.join(work, "stdout.txt")
        self.err_path = os.path.join(work, "stderr.txt")

    def run(self, argv):
        """Run one command; return (wall s, rescaled s, exit code, stdout, peak RSS in KB)."""
        fields = [self.out_path, self.err_path, sys.executable, *argv]
        self.proc.stdin.write("\t".join(fields) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("the command launcher exited")
        wall, code, maxrss_kb, slow_before, slow_after = line.split()
        wall = float(wall)
        with open(self.out_path, "rb") as fh:
            out = fh.read()
        # The wall time on the reference host: divided by how much slower the
        # kernels ran around this command than there (see launcher.py).
        scaled = wall * 2 / (float(slow_before) + float(slow_after))
        return wall, scaled, int(code), out, int(maxrss_kb)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=60)


def measure_setup(launcher: Launcher) -> float:
    times = []
    for _ in range(SETUP_SAMPLES):
        _, scaled, code, _, _ = launcher.run(["-c", f"import {PACKAGE}.cli"])
        if code != 0:
            raise BenchError(f"import {PACKAGE}.cli exited with {code}")
        times.append(scaled)
    return statistics.median(times)


def end_to_end(commands, seconds: float, launcher: Launcher):
    samples = [[] for _ in commands]
    walls = [[] for _ in commands]
    peaks = []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    # The first pass always completes; later passes stop at the deadline.
    while not peaks or time.perf_counter() < deadline:
        peak = 0
        for i, cmd in enumerate(commands):
            if peaks and time.perf_counter() >= deadline:
                break
            wall, scaled, code, out, rss = launcher.run(["-m", f"{PACKAGE}.cli", *cmd.argv])
            attempted += 1
            if code != 0 or out != cmd.expected.encode():
                failed += 1
                report_mismatch(cmd, code, out, launcher.err_path)
            samples[i].append(scaled)
            walls[i].append(wall)
            peak = max(peak, rss)
        else:
            peaks.append(peak)
    per_cmd = [statistics.median(s) for s in samples]
    for cmd, s, w in zip(commands, samples, walls):
        info("command", {"argv": list(cmd.argv), "runs": len(s),
                         "median_s": round(statistics.median(s), 4),
                         "median_wall_s": round(statistics.median(w), 4)})
    metrics = {
        "items_per_s": sum(c.items for c in commands) / sum(per_cmd),
        "cmd_p50_s": statistics.median(per_cmd),
        "peak_rss_mb": statistics.median(peaks) / 1024,
    }
    return attempted, failed, metrics


def report_mismatch(cmd, code, out, err_path=None) -> None:
    err = ""
    if err_path is not None:
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            err = fh.read()[-500:]
    text = out.decode(errors="replace") if isinstance(out, bytes) else out
    first = next(
        (i for i, (a, b) in enumerate(zip(text, cmd.expected)) if a != b),
        min(len(text), len(cmd.expected)),
    )
    info("mismatch", {
        "argv": list(cmd.argv), "exit": code, "at": first,
        "got": text[max(0, first - 40):first + 40],
        "expected": cmd.expected[max(0, first - 40):first + 40], "stderr": err,
    })


# --- traced, in process ---------------------------------------------------------


def run_in_process(commands, main, tracer=None):
    """Run each command through ``main``; return (wall s, failed)."""
    failed = 0
    t0 = time.perf_counter()
    for cmd in commands:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = tracer.command(cmd.argv, main) if tracer else main(list(cmd.argv))
        if code != 0 or buf.getvalue() != cmd.expected:
            failed += 1
            report_mismatch(cmd, code, buf.getvalue())
    return time.perf_counter() - t0, failed


def power_fast_certified_ratio(leading_digit_power_fast) -> float:
    rng = random.Random(POWER_FAST_SEED)
    by_decade = {}
    for d in POWER_FAST_DECADES:
        by_decade[d] = sum(
            leading_digit_power_fast(2, rng.randrange(10**d, 10 ** (d + 1)), 10).certain
            for _ in range(POWER_FAST_PER_DECADE)
        )
    info("power_fast_certified", [[f"1e{d}", c] for d, c in by_decade.items()])
    return sum(by_decade.values()) / (POWER_FAST_PER_DECADE * len(by_decade))


def layer_metrics(tracer: Tracer, overhead: float) -> dict:
    c = tracer.counters
    m = {
        "ingest.busy_s": tracer.busy_s("ingest.ingest"),
        "ingest.records": c.get("ingest.records", 0),
        "ingest.skipped": c.get("ingest.skipped", 0),
        "digits.decimal_string.b10.busy_s": tracer.busy_s("digits.decimal_string.b10"),
        "digits.decimal_string.rational.busy_s": tracer.busy_s("digits.decimal_string.rational"),
        "digits.zeros": c.get("digits.zeros", 0),
        "sequences.generate.busy_s": tracer.busy_s("sequences.generate"),
        "sequences.iter_leading_digits.busy_s": tracer.busy_s("sequences.iter_leading_digits"),
        "sequences.terms": c.get("sequences.terms", 0),
        "sequences.term_bits_max": c.get("sequences.term_bits_max", 0),
        "stats.tally.busy_s": tracer.busy_s("stats.tally"),
        "stats.chi_square_fit.busy_s": tracer.busy_s("stats.chi_square_fit"),
        "stats.leading_one_by_base.busy_s": tracer.busy_s("stats.leading_one_by_base"),
        "model.benford_pmf.busy_s": tracer.busy_s("model.benford_pmf"),
        "report.render_text.busy_s": tracer.busy_s("report.render_text"),
        "report.render_json.busy_s": tracer.busy_s("report.render_json"),
        "report.render_csv.busy_s": tracer.busy_s("report.render_csv"),
        "report.bytes_out": c.get("report.bytes_out", 0),
        "trace.traced_over_untraced": overhead,
    }
    m["sequences.extract.self_s"] = (
        m["sequences.iter_leading_digits.busy_s"] - m["sequences.generate.busy_s"]
    )
    for layer in LAYERS:
        m[f"{layer}.self_s"] = tracer.layer_self_s(layer)
    return m


def _median(values):
    """Median; counts stay whole numbers (they repeat exactly anyway)."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def traced(commands, seconds: float, spans_path: str):
    sys.path.insert(0, SRC)
    import benford_radix.cli as cli
    from benford_radix.sequences import leading_digit_power_fast

    if os.path.realpath(cli.__file__) != os.path.realpath(CLI_FILE):
        raise BenchError(f"{PACKAGE}.cli does not import from {SRC}")
    modules = [m for name, m in sys.modules.items()
               if name == PACKAGE or name.startswith(PACKAGE + ".")]
    runs = []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while True:
        plain_s, plain_failed = run_in_process(commands, cli.main)
        tracer = Tracer()
        undo = tracer.install(PACKAGE, modules)
        try:
            traced_s, traced_failed = run_in_process(commands, cli.main, tracer)
        finally:
            Tracer.uninstall(undo)
        attempted += 2 * len(commands)
        failed += plain_failed + traced_failed
        runs.append(layer_metrics(tracer, traced_s / plain_s))
        info("trace_pass", {"untraced_s": round(plain_s, 4), "traced_s": round(traced_s, 4)})
        # Stop when another iteration would end past the deadline.
        if time.perf_counter() + plain_s + traced_s >= deadline:
            break
    tracer.dump(spans_path)
    metrics = {k: _median([r[k] for r in runs]) for k in runs[0]}
    metrics["sequences.power_fast.certified_ratio"] = power_fast_certified_ratio(
        leading_digit_power_fast
    )
    return attempted, failed, metrics


# --- main ---------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = child_env()
    try:
        check_program(env)
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    os.makedirs(OUT, exist_ok=True)
    # Started before any input exists, while this process is still small.
    launcher = None if args.trace else Launcher(env)
    try:
        commands, sizes = workloads.WORKLOADS[args.workload](args.seed, WORK)
        info("env", {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "commit": git_commit(),
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
        })
        info("inputs", sizes)
        if args.trace:
            if args.workload != "short":
                short_commands, short_sizes = workloads.short(args.seed, WORK)
                commands = commands + short_commands
                info("inputs", short_sizes)
            spans_path = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl")
            attempted, failed, metrics = traced(commands, args.seconds, spans_path)
            units = PER_LAYER_UNITS
        else:
            setup_s = measure_setup(launcher)
            attempted, failed, metrics = end_to_end(commands, args.seconds, launcher)
            metrics["setup_s"] = setup_s
            units = END_TO_END_UNITS
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    finally:
        if launcher is not None:
            launcher.close()
        shutil.rmtree(WORK, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Runs the benchmarked commands for run.py, one at a time, and times them.

Linux charges a child with the resident size its parent had when the child
started, so a command spawned straight from the benchmark (which holds
generated inputs and expected documents) would report the benchmark's
memory as its peak RSS. This small process is started first, imports little
and spawns every command instead, so the peak RSS it reads with
``os.wait4`` is the command's own unless the command stays below a bare
interpreter plus about half a megabyte.

On a shared host the speed of every process drifts by up to half, over
seconds to minutes. Right before and right after each command the launcher
therefore times three fixed pure-Python kernels, each standing for one kind
of work the CLI does (bytecode loop, text scanning, big integers), and
reports how much slower than on the reference host they ran; run.py divides
the wall time by that factor.

Protocol, one line each way per command. Request: stdout path, stderr path
and the argv, tab-separated. Reply: wall seconds, exit status (negative for
a signal), peak RSS in KB, and the slowdown before and after, space-separated.
It exits at end of input.
"""

import os
import signal
import sys
import time

# A command still running after this long is killed and counts as failed.
COMMAND_TIMEOUT_S = 60

_TOKENS = [f" {i * 7919 % 100003}.{i % 97} " if i % 50 else "n/a" for i in range(4000)]
_BIG = 3**30000


def _loop():
    s = 0
    for i in range(40_000):
        s += i * i


def _text():
    counts = {}
    for token in _TOKENS:
        whole, _, frac = token.strip().partition(".")
        if whole.isdigit() and frac.isdigit():
            counts[whole[0]] = counts.get(whole[0], 0) + 1


def _bigint():
    x = _BIG
    for _ in range(120):
        x = x * 7 // 5


# (kernel, its median time in s on the reference host, a 2-vCPU Xeon VM)
KERNELS = ((_loop, 0.0022), (_text, 0.0012), (_bigint, 0.0015))
KERNEL_REPEATS = 3


def slowdown() -> float:
    """Mean over the kernels of (median time now / reference time)."""
    total = 0.0
    for kernel, reference_s in KERNELS:
        times = []
        for _ in range(KERNEL_REPEATS):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
        total += sorted(times)[KERNEL_REPEATS // 2] / reference_s
    return total / len(KERNELS)


def run(out_path: str, err_path: str, argv: list) -> str:
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644),
    ]
    before = slowdown()
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.alarm(COMMAND_TIMEOUT_S)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    signal.alarm(0)
    code = os.waitstatus_to_exitcode(status)
    return f"{wall!r} {code} {usage.ru_maxrss} {before!r} {slowdown()!r}"


def main() -> None:
    for line in sys.stdin:
        out_path, err_path, *argv = line.rstrip("\n").split("\t")
        sys.stdout.write(run(out_path, err_path, argv) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()

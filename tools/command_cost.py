"""Wall time and peak memory of one coneforge command, in fresh processes.

    python3 tools/command_cost.py [--runs 3] -- verify hsiang doc.json

The command runs as ``python -m coneforge.cli ARGS`` from the ``src`` of
this checkout, once per run, one run after another, each in a new child
process with one BLAS/OpenMP thread and ``PYTHONHASHSEED=0``; its output
is discarded.  The script prints the best wall time over the runs, the
peak resident set of the largest child (``ru_maxrss`` of
``RUSAGE_CHILDREN``, which the children of this process alone feed) and
the exit code of each run, and exits 1 when the runs disagree on it.
Run it as a script, so that no earlier child counts in the peak.
"""

from __future__ import annotations

import argparse
import os
import resource
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=3, choices=range(1, 11), metavar="1..10")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="coneforge arguments, after --")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no coneforge command given")

    env = child_env()
    times, codes = [], []
    for _ in range(args.runs):
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "coneforge.cli", *command],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - started)
        codes.append(proc.returncode)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # KB on Linux
    print("command:", "coneforge", *command)
    print(f"best_s: {min(times):.3f}")
    print(f"peak_rss_mb: {peak_kb / 1024:.1f}")
    print("exit:", *codes)
    return 0 if len(set(codes)) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())

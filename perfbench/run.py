"""Run one benchmark workload in a fresh interpreter and relay its result.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Workloads: certify, refute, report (see NOTES.md).  The child interpreter
gets one BLAS/OpenMP thread and a fixed PYTHONHASHSEED; this process's own
environment is left alone.  The last line of standard output is the result
object; a failed run exits nonzero without printing one.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def timeout_s(seconds: int) -> int:
    """How long a run may take: its passes overshoot --seconds by at most
    one round (build, pass, check), and a traced pass runs several times slower."""
    return 3 * seconds + 60


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    command = [
        sys.executable,
        os.path.join(HERE, "workload.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    limit = timeout_s(args.seconds)
    # a session of its own, so that a timeout also ends the input builders it started
    child = subprocess.Popen(command, env={**os.environ, **CHILD_ENV}, cwd=os.path.dirname(HERE), start_new_session=True)
    try:
        return child.wait(timeout=limit)
    except subprocess.TimeoutExpired:
        print(f"workload did not finish within {limit} s", file=sys.stderr)
        return 1
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()


if __name__ == "__main__":
    sys.exit(main())

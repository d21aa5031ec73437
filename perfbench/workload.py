"""One workload run in this interpreter; ``run.py`` starts it in a fresh one.

Closed-loop passes over the fixed job list run until the next pass would
end after ``--seconds`` (at least MIN_PASSES passes run): one caller, and
each job is a ``coneforge.cli.main`` call in this process with its output
captured.  Every pass gets its own documents, written by a fresh
interpreter (``--build-only``) that imports coneforge and builds the
pass's inputs from the seed and the pass index.  So nothing the program
keeps in memory from one command can serve a later one, as for a user who
runs one process per command, and every build is one sample of set-up
time.  Each pass's outputs are checked after it, outside the timed region.

Times are reported in reference units.  The run times ``reference_unit``
(fixed pure-Python Fraction and dict work that no coneforge code touches,
with the garbage collector off) before and after each timed block and,
from an interval timer, every SAMPLE_PERIOD_S inside it.  A block's time
in ref is its wall time, sampling taken off, divided by the mean of the
samples in and around it.  A shared 2-vCPU virtual machine was seen to
switch between two speeds about 1.8 times apart every few seconds, for
every process alike; the ratio cancels that and keeps what the program's
code does (NOTES.md has the measurements).  ``setup_s`` is the median
build in ref times REF_S, the seconds one reference unit takes on a
steady machine, so it reads in seconds without following the machine's
speed.

With ``--trace 1`` a traced build in this process and a traced pass are
followed by an untraced pass over the same documents; the result holds the
per-layer metrics of the traced build and pass, and ``trace.overhead_s``,
the traced minus the untraced pass time.

The last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import gc
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SAMPLE_PERIOD_S = 0.025
# seconds of one reference unit on a steady machine (measured: 0.8-1.4 ms)
REF_S = 0.001
# a job's median over passes needs three samples to shed one outlier
MIN_PASSES = 3
# a first pass slower than this many times the later ones means that the
# program served later passes from memory kept since the first
FIRST_PASS_LIMIT = 1.25
BUILD_TIMEOUT_S = 60


def reference_unit() -> float:
    """Seconds taken by a fixed piece of Fraction and dict work (about 1 ms)."""
    collecting = gc.isenabled()
    gc.disable()  # a collection here would scan the program's heap
    try:
        started = time.perf_counter()
        acc: dict = {}
        third = Fraction(1, 3)
        for i in range(1, 150):
            key = (i % 7, i % 11)
            acc[key] = acc.get(key, 0) + third * Fraction(i % 17 + 1, i % 19 + 2)
        return time.perf_counter() - started
    finally:
        if collecting:
            gc.enable()


class Clock:
    """Times blocks in seconds and in reference units.

    With ``sample`` set, an interval timer also runs ``reference_unit``
    every SAMPLE_PERIOD_S inside each block; that time is taken off the
    block's wall time, and the samples join the two around the block in
    the divisor of its time in ref.  A machine's speed can change within a
    long block, so the samples at its ends alone do not say how fast it ran.
    """

    def __init__(self, sample: bool = True):
        self.sample = sample
        self.refs: list[float] = [reference_unit()]  # every reference sample
        self.inside: list[float] = []
        signal.signal(signal.SIGALRM, lambda signum, frame: self.inside.append(reference_unit()))

    def run(self, fn):
        """Call fn(); return its result, its seconds and its time in ref."""
        self.inside.clear()
        started = time.perf_counter()
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - started - sum(self.inside)
        around = [self.refs[-1], *self.inside, reference_unit()]
        self.refs.extend(around[1:])
        return result, seconds, seconds / statistics.fmean(around)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--build-only", metavar="DIR", help="build one pass's inputs into DIR and print them")
    parser.add_argument("--pass-index", type=int, default=0)
    return parser.parse_args(argv)


def _import_coneforge() -> None:
    """Import the package from this checkout's src/."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import coneforge

    if not os.path.abspath(coneforge.__file__).startswith(src + os.sep):
        raise SystemExit(f"coneforge was imported from {coneforge.__file__}, not from {src}")
    sys.path.insert(0, HERE)


def _machine(tag: str) -> str:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return (
        f"# machine at {tag}: nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__} blas={blas.get('name')}-{blas.get('version')} loadavg={load}"
    )


def _build_only(args) -> int:
    """Set-up in a fresh interpreter: import coneforge, build one pass's inputs.

    Prints the jobs, their digest and the set-up time as one JSON object.
    """
    clock = Clock()

    def setup():
        _import_coneforge()  # first, so that numpy's import counts toward set-up
        import inputs

        jobs = inputs.build(args.workload, args.seed, args.build_only, args.pass_index)
        return jobs, inputs.digest(jobs)

    (jobs, digest), seconds, in_ref = clock.run(setup)
    jobs = [dataclasses.asdict(job) for job in jobs]
    print(json.dumps({"jobs": jobs, "digest": digest, "seconds": seconds, "ref": in_ref}))
    return 0


class Builds:
    """Each pass's inputs, built by a fresh interpreter; the set-up samples."""

    def __init__(self, inputs, args, work):
        self.inputs, self.args, self.work = inputs, args, work
        self.seconds: list[float] = []
        self.in_ref: list[float] = []

    def build(self, pass_index: int):
        directory = os.path.join(self.work, f"pass{pass_index}")
        command = [
            sys.executable, os.path.abspath(__file__),
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--build-only", directory, "--pass-index", str(pass_index),
        ]
        done = subprocess.run(command, capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            raise SystemExit(f"building the inputs of pass {pass_index} failed:\n{done.stderr}")
        built = json.loads(done.stdout.splitlines()[-1])
        self.seconds.append(built["seconds"])
        self.in_ref.append(built["ref"])
        print(f"# inputs of pass {pass_index}: {len(built['jobs'])} jobs, sha256 {built['digest']}", flush=True)
        return [self.inputs.Job(**job) for job in built["jobs"]]


class Pass:
    """One closed-loop pass over the job list, each job timed by ``clock``."""

    def __init__(self, clock, cli, jobs, on_job=None):
        gc.collect()
        self.seconds: list[float] = []  # wall time of each job, sampling taken off
        self.in_ref: list[float] = []  # the same time in reference units
        self.outputs: list[tuple] = []  # (exit code or exception text, stdout) of each job
        for index, job in enumerate(jobs):
            if on_job is not None:
                on_job(index)
            out = io.StringIO()
            code, seconds, in_ref = clock.run(functools.partial(_command, cli, job.argv, out))
            self.seconds.append(seconds)
            self.in_ref.append(in_ref)
            self.outputs.append((code, out.getvalue()))


def _command(cli, argv, out):
    """Exit code of one CLI command, or the text of the exception it raised."""
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)
    except Exception as exc:  # a crashing verdict is a failed job, not a failed run
        return f"{type(exc).__name__}: {exc}"


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.build_only:
        return _build_only(args)
    started = time.perf_counter()
    _import_coneforge()
    print(_machine("start"), flush=True)
    import check
    import inputs
    from coneforge import cli

    if args.workload not in inputs.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; known: {', '.join(inputs.WORKLOADS)}")
    work = os.path.relpath(os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}"))
    shutil.rmtree(work, ignore_errors=True)
    verdicts = Verdicts(check)
    try:
        if args.trace:
            passes, metrics, printed = _traced(args, cli, inputs, verdicts, work)
        else:
            passes, metrics, printed = _timed(args, cli, Builds(inputs, args, work), verdicts, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(_machine("end"), flush=True)

    attempted = sum(len(p.outputs) for p in passes)
    if not args.trace:
        ok = attempted - verdicts.failed
        metrics["ok_frac"] = (ok / attempted, "frac", f"{ok} of {attempted} job runs")
    for name, (value, unit, note) in {**metrics, **printed}.items():
        print(f"# {args.workload} {name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    result = {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}
    print(json.dumps({"correct": verdicts.correct, "attempted": attempted, "failed": verdicts.failed, "metrics": result}))
    return 0


class Verdicts:
    """Failed job runs, and whether no output contradicted its check.

    A job that raised is failed but not wrong.
    """

    def __init__(self, check):
        self.check = check
        self.failed, self.correct = 0, True

    def add(self, jobs, outputs) -> None:
        # consecutive jobs share documents, and a pass's paths are its own
        load = functools.lru_cache(maxsize=4)(self.check.load_algebra)
        for job, (code, stdout) in zip(jobs, outputs):
            raised = isinstance(code, str)
            reason = f"raised {code}" if raised else self.check.check(job, code, stdout, load)
            if reason is not None:
                self.failed += 1
                self.correct = self.correct and raised
                print(f"# FAILED {' '.join(job.argv)}: {reason}", flush=True)


def _timed(args, cli, builds, verdicts, started):
    """Passes until --seconds; returns the passes, the end-to-end metrics
    and the figures that are only printed, each as name -> (value, unit, note).
    """
    clock = Clock()
    passes, rounds = [], []
    while True:
        round_started = time.perf_counter()
        jobs = builds.build(len(passes))
        passes.append(Pass(clock, cli, jobs))
        verdicts.add(jobs, passes[-1].outputs)
        rounds.append(time.perf_counter() - round_started)
        next_end = time.perf_counter() - started + statistics.median(rounds)
        if len(passes) >= MIN_PASSES and next_end > args.seconds:
            break
    k, n_jobs = len(passes), len(jobs)
    pass_ref = [sum(p.in_ref) for p in passes]
    first = pass_ref[0] / statistics.median(pass_ref[1:])
    print(f"# {args.workload} first pass over the later ones: {first:.3f} (limit {FIRST_PASS_LIMIT})", flush=True)
    if first > FIRST_PASS_LIMIT:
        raise SystemExit(
            f"the first pass took {first:.2f} times the median of the later ones: the program "
            "reused work from earlier passes, which a user running one command per process never gets"
        )

    def median_job(attr):
        return statistics.median(statistics.median(getattr(p, attr)[j] for p in passes) for j in range(n_jobs))

    each = f"median over {n_jobs} jobs of each job's median over {k} passes"
    setup_ref = statistics.median(builds.in_ref)
    metrics = {
        "setup_s": (setup_ref * REF_S, "s", f"median of {k} builds, {setup_ref:.1f} ref at {REF_S * 1000:g} ms per ref"),
        "pass_ref": (statistics.median(pass_ref), "ref", f"median of {k} passes"),
        "verdict_p50_ref": (median_job("in_ref"), "ref", each),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", ""),
    }
    printed = {
        "setup_wall_s": (statistics.median(builds.seconds), "s", f"median of {k} builds"),
        "pass_s": (statistics.median(sum(p.seconds) for p in passes), "s", f"median of {k} passes"),
        "verdict_p50_s": (median_job("seconds"), "s", each),
        "reference_unit_s": (statistics.median(clock.refs), "s", f"median of {len(clock.refs)} samples"),
    }
    n = n_jobs * k
    if n >= 100:
        for attr, unit in (("in_ref", "ref"), ("seconds", "s")):
            pooled = [t for p in passes for t in getattr(p, attr)]
            printed[f"verdict_p90_{unit}"] = (statistics.quantiles(pooled, n=100)[89], unit, f"n={n}")
    else:
        print(f"# {args.workload} verdict_p90 not reported: {n} samples, fewer than 100")
    return passes, metrics, printed


def _traced(args, cli, inputs, verdicts, work):
    """A traced build and pass, then an untraced pass over the same documents.

    The traced pass comes first, so that its counts are those of documents
    the process has not seen.  Both passes time reference samples between
    jobs only, so that no sample runs inside a span.
    """
    from tracer import Tracer

    clock = Clock(sample=False)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.job = "setup"
        jobs = inputs.build(args.workload, args.seed, os.path.join(work, "traced"))
        traced = Pass(clock, cli, jobs, lambda index: setattr(tracer, "job", index))
    finally:
        tracer.uninstall()
    untraced = Pass(clock, cli, jobs)
    for one in (traced, untraced):
        verdicts.add(jobs, one.outputs)
    traces = os.path.join(ROOT, ".bench_work", "traces")
    os.makedirs(traces, exist_ok=True)
    path = os.path.join(traces, f"{args.workload}-seed{args.seed}.json")
    tracer.dump(path)
    print(f"# {len(tracer.spans)} spans written to {os.path.relpath(path, ROOT)}")
    metrics = {name: (value, _unit(name), "") for name, value in tracer.metrics().items()}
    overhead = (sum(traced.in_ref) - sum(untraced.in_ref)) * REF_S
    metrics["trace.overhead_s"] = (overhead, "s", f"traced minus untraced pass, in ref at {REF_S * 1000:g} ms per ref")
    return [traced, untraced], metrics, {}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    return "count"


if __name__ == "__main__":
    sys.exit(main())

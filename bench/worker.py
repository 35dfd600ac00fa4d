"""One workload process: import qal, build the inputs, run passes of the jobs.

``bench/run.py`` starts this script in a fresh interpreter and reads the one
JSON line it prints last.  Times are taken on the monotonic clock, which is
shared between processes, so set-up time counts from the moment the parent
spawned this process.

Modes:

* ``setup``: stop once ``qal`` is imported and the inputs are built.
* ``passes``: one cold pass, then warm passes (at least one, at most
  ``--warm``, no new one after ``--until``).
* ``trace``: as ``passes``, then traced passes with every public function of
  the qal layers wrapped (at least one, no new one after ``--until``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


class JobTimeout(Exception):
    pass


class Runner:
    """Runs the job list of one workload and checks every output."""

    def __init__(self, job_list, inputs, seed: int, workdir: Path, deadline: float):
        import qal.cli

        self.cli = qal.cli
        self.jobs = job_list
        self.inputs = inputs
        self.seed = seed
        self.workdir = workdir
        self.deadline = deadline
        self.first_body: dict[str, object] = {}
        self.armed = False
        signal.signal(signal.SIGALRM, self._alarm)

    def _alarm(self, signum, frame) -> None:
        if self.armed:
            raise JobTimeout()

    def run_pass(self) -> dict:
        from jobs import Output, csv_body, parse_csv

        record = {
            "seconds": 0.0, "jobs": {}, "failures": [], "failed": 0, "csv_bytes": 0,
            "defects": [],
        }
        start = perf_counter()
        for job in self.jobs:
            gc.collect()
            seconds, output, failures = self._run(job)
            record["seconds"] += seconds
            record["jobs"][job.name] = seconds
            if output is not None:
                if job.call is None:
                    text = output
                    record["csv_bytes"] += len(text.encode())
                    body = csv_body(text)
                    output = parse_csv(text)
                else:
                    value, body = output
                    output = Output(value=value)
                failures += self._check(job, output, body)
                if job.defects is not None:
                    record["defects"] += [f"{job.name}: {m}" for m in job.defects(output)]
            record["failures"] += [f"{job.name}: {msg}" for msg in failures]
            record["failed"] += bool(failures)
        record["wall"] = perf_counter() - start
        record["attempted"] = len(self.jobs)
        return record

    def _run(self, job):
        """Run one job under its timeout: (seconds, raw output, failures)."""
        limit = min(job.timeout_s, self.deadline - time.monotonic())
        if limit <= 0:
            return 0.0, None, ["run deadline reached before the job started"]
        out_path = self.workdir / f"{job.name}.csv"
        if out_path.exists():
            out_path.unlink()
        failures: list = []
        output = None
        code = None
        start = perf_counter()
        self.armed = True
        try:
            try:
                signal.setitimer(signal.ITIMER_REAL, limit)
                if job.call is not None:
                    output = job.call(self.inputs[job.name], job.seed_for(self.seed))
                else:
                    seed = str(job.seed_for(self.seed))
                    argv = [*job.argv, "--seed", seed, "--out", str(out_path)]
                    code = self.cli.run(argv)
            finally:
                self.armed = False
                signal.setitimer(signal.ITIMER_REAL, 0)
                seconds = perf_counter() - start
        except JobTimeout:
            return seconds, None, [f"timed out after {limit:.1f} s"]
        except Exception:  # a failing job is counted, never fatal
            return seconds, None, ["raised " + traceback.format_exc(limit=-3)]
        if seconds > limit:
            failures.append(f"took {seconds:.1f} s, over its {limit:.1f} s timeout")
        if job.call is None:
            if code not in job.codes:
                failures.append(f"exit code {code}, expected one of {job.codes}")
            if not out_path.exists():
                return seconds, None, failures + ["wrote no CSV"]
            output = out_path.read_text()
        return seconds, output, failures

    def _check(self, job, output, body) -> list:
        failures = []
        reference = self.first_body.setdefault(job.name, body)
        if body != reference:
            failures.append("output differs from the first pass of this run")
        try:
            failures += job.check(output)
        except Exception:  # an unreadable output fails the job, not the run
            failures.append("oracle raised " + traceback.format_exc(limit=-2))
        return failures


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "passes", "trace"), required=True)
    parser.add_argument("--warm", type=int, default=1)
    parser.add_argument("--until", type=float, default=0.0)
    parser.add_argument("--deadline", type=float, default=float("inf"))
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import qal
    import qal.quantum

    if Path(qal.__file__).resolve().parent != ROOT / "src" / "qal":
        print(f"imported qal from {qal.__file__}, not this checkout", file=sys.stderr)
        return 2
    import jobs

    job_list = jobs.workloads(qal.quantum.free_gaussian_width(1.0, 1.0, 1.0, 1.0))[
        args.workload
    ]
    inputs = {job.name: job.setup() for job in job_list if job.setup is not None}
    setup_s = time.monotonic() - args.spawned_at
    result: dict = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    workdir = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(job_list, inputs, args.seed, workdir, args.deadline)
        cold = runner.run_pass()
        result["cold_s"] = setup_s + cold["seconds"]
        passes = [cold]
        warm: list = []
        while len(warm) < max(args.warm, 1) and (
            not warm or time.monotonic() < args.until
        ):
            warm.append(runner.run_pass())
        passes += warm
        result["warm"] = [{"seconds": p["seconds"], "jobs": p["jobs"]} for p in warm]
        if args.mode == "trace":
            result["traced"] = _traced_passes(runner, args.until)
            passes += result["traced"]
        result["peak_rss_mb"] = _peak_rss_mb()
        result["attempted"] = sum(p["attempted"] for p in passes)
        result["failed"] = sum(p["failed"] for p in passes)
        result["failures"] = [msg for p in passes for msg in p["failures"]]
        result["defects"] = sorted({msg for p in passes for msg in p["defects"]})
        result["versions"] = _versions()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _traced_passes(runner: Runner, until: float) -> list:
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    passes = []
    try:
        while not passes or time.monotonic() < until:
            tracer.reset()
            record = runner.run_pass()
            record["metrics"] = tracing.pass_metrics(tracer.spans, record["csv_bytes"])
            record["top_level_s"] = tracing.top_level_seconds(tracer.spans)
            passes.append(record)
    finally:
        tracer.uninstall()
    return passes


def _versions() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of qal: the identity, wave and game workloads.

    python3 bench/run.py --workload identity --seed 0 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 35 --trace 0

Each workload is a fixed list of jobs (``bench/jobs.py``) run one after
another by a single client in a fresh interpreter (``bench/worker.py``).
With ``--trace 0`` the run reports the end-to-end metrics:

* ``setup_s``: spawn until ``import qal`` is done and the inputs are built,
  median over several fresh interpreters;
* ``cold_s``: spawn until the first pass of the job list is done, median
  over the workload processes;
* ``wall_s``: one warm pass of the job list, median over the warm passes;
* ``peak_rss_mb``: ``ru_maxrss`` of a workload process, median.

Jobs that fail (raise, exit with an unexpected code, fail their oracle,
change their output between passes or run past their timeout) are counted
in ``failed`` out of ``attempted``.  With ``--trace 1`` a separate process
runs traced passes and the run reports the per-layer metrics instead, plus
diagnostics: per-job times, tracing overhead and the environment.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from jobs import WORKLOADS  # noqa: E402
from tracing import PER_LAYER, parse_importtime  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("cold_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)

SETUP_SAMPLES = 5  # set-up-only interpreters per untraced run
WARM_PER_PROCESS = 2  # most warm passes per workload process
IMPORT_SAMPLES = 3  # `python -X importtime` runs per traced run
HARD_LIMIT_S = 160.0  # no job starts later than this after the run began
BLAS_THREADS = "1"  # one client, no helper threads


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(workload: str, seed: int, mode: str, deadline: float, **extra) -> dict | None:
    """Run one worker process; its JSON result, or None if it failed."""
    spawned_at = time.monotonic()
    argv = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
        "--deadline", repr(deadline), "--spawned-at", repr(spawned_at),
    ]
    for key, value in extra.items():
        argv += [f"--{key}", repr(value)]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline + 15.0 - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"worker ({mode}) killed at the run's time limit", file=sys.stderr)
        return None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"worker ({mode}) exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


class Tally:
    """Jobs attempted and failed across the processes of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.defects: set[str] = set()

    def add(self, result: dict | None) -> bool:
        if result is None:
            # a worker that died counts as one failed attempt
            self.attempted += 1
            self.failed += 1
            self.failures.append("worker process failed")
            return False
        self.attempted += result.get("attempted", 0)
        self.failed += result.get("failed", 0)
        self.failures += result.get("failures", [])
        self.defects.update(result.get("defects", []))
        return True


def measure(workload: str, seed: int, seconds: float) -> tuple[Tally, dict]:
    """Untraced run: the end-to-end metrics."""
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    until = start + seconds
    tally = Tally()
    setup, cold, warm, rss = [], [], [], []
    for _ in range(SETUP_SAMPLES):
        result = spawn(workload, seed, "setup", deadline)
        if tally.add(result):
            setup.append(result["setup_s"])
    while True:
        began = time.monotonic()
        result = spawn(
            workload, seed, "passes", deadline, warm=WARM_PER_PROCESS, until=until
        )
        if not tally.add(result):
            break
        setup.append(result["setup_s"])
        cold.append(result["cold_s"])
        warm += [p["seconds"] for p in result["warm"]]
        rss.append(result["peak_rss_mb"])
        # another process needs at least a cold and a warm pass before `until`
        shortest = result["cold_s"] + result["warm"][0]["seconds"]
        if time.monotonic() + shortest > until:
            break
    samples = {"setup_s": setup, "cold_s": cold, "wall_s": warm, "peak_rss_mb": rss}
    return tally, samples


def measure_traced(workload: str, seed: int, seconds: float) -> tuple[Tally, dict, dict]:
    """Traced run: the per-layer metrics and the diagnostics."""
    start = time.monotonic()
    imports: dict[str, list] = {}
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import qal"],
            env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        for name, value in parse_importtime(proc.stderr).items():
            imports.setdefault(name, []).append(value)
    tally = Tally()
    result = spawn(
        workload, seed, "trace", start + HARD_LIMIT_S, warm=1, until=start + seconds
    )
    if not tally.add(result):
        return tally, {}, {}
    traced = result["traced"]
    samples = {name: [p["metrics"][name] for p in traced] for name in traced[0]["metrics"]}
    samples.update(imports)
    untraced_s = statistics.median(p["seconds"] for p in result["warm"])
    traced_s = statistics.median(p["seconds"] for p in traced)
    pass_wall_s = statistics.median(p["wall"] for p in traced)
    spans_s = statistics.median(p["top_level_s"] for p in traced)
    job_names = result["warm"][0]["jobs"]
    diagnostics = {
        "jobs": {
            f"job.{workload}.{name}_s": statistics.median(p["jobs"][name] for p in result["warm"])
            for name in job_names
        },
        "tracing": {
            "untraced_wall_s": untraced_s,
            "traced_wall_s": traced_s,
            "tracing_overhead_s": traced_s - untraced_s,
            "traced_pass_wall_s": pass_wall_s,
            "span_self_sum_s": spans_s,
            "benchmark_overhead_s": pass_wall_s - spans_s,
            "traced_passes": len(traced),
        },
        "known_defects": sorted(tally.defects),
        "environment": environment(workload, seed, result["versions"]),
    }
    return tally, samples, diagnostics


def environment(workload: str, seed: int, versions: dict) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.read_bytes())
    return {
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20,
        "blas_threads": BLAS_THREADS,
        "workload": workload,
        "seed": seed,
        **versions,
    }


def _commit() -> str | None:
    """HEAD of the checkout when it is a git repository with a loose ref."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else None


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        tally, samples, diagnostics = measure_traced(workload, seed, seconds)
        units = PER_LAYER
        if diagnostics:
            print(json.dumps({"diagnostics": diagnostics}))
    else:
        tally, samples = measure(workload, seed, seconds)
        units = END_TO_END
    metrics = {}
    for name, unit in units:
        if samples.get(name):
            metrics[name] = {"value": statistics.median(samples[name]), "unit": unit}
    missing = [name for name, _ in units if name not in metrics]
    for msg in tally.failures:
        print(f"FAILED {workload}: {msg}", file=sys.stderr)
    for msg in sorted(tally.defects):
        print(f"KNOWN DEFECT {workload}: {msg}", file=sys.stderr)
    for name, entry in metrics.items():
        print(f"{workload:9s} {name:45s} {entry['value']:.6g} {entry['unit']}")
    return {
        "correct": tally.failed == 0 and not missing,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if not missing else max(tally.failed, 1),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qal" / "__init__.py").is_file():
        print(f"no qal sources under {ROOT / 'src'}; nothing to benchmark", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_one(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": entry
                for name, r in results.items()
                for metric, entry in r["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

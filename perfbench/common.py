"""Plumbing shared by the workloads: locating the program, input
derivation, statistics, set-up probes and the result line.

Every workload reports its metrics through :func:`emit`, which refuses
to print a result whose metric names differ from their declaration in
``BENCHMARK.json`` and in the workload's module (``LAYERS``, the
per-layer metrics it measures).
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
#: Working space of daemon ledgers and caches, removed after each run.
WORK = ROOT / ".bench_work"


def require_program() -> None:
    """Put the checkout's ``src`` on the path, or exit non-zero.

    The benchmark measures the program of the checkout it sits in;
    without ``src/repro`` there is nothing to measure.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(
            f"error: no program at {SRC / 'repro'}; run the benchmark "
            "from the root of a checkout of the repository"
        )
    sys.path.insert(0, str(SRC))


def program_env() -> dict:
    """Environment for child processes that import the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads(BENCHMARK.read_text())
    group = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def derive(seed: int, *tags: int) -> int:
    """A 32-bit integer determined by the workload seed and *tags*."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


def percentile(values, q: float) -> float:
    """The *q*-th percentile (0-100), linear between closest ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


class Outcome:
    """Operations attempted and failed, correctness checks included."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok


class Metrics:
    """Metric values with the number of samples behind each."""

    def __init__(self) -> None:
        self.values: dict[str, tuple[float, int]] = {}

    def set(self, name: str, value: float, samples: int = 1) -> None:
        self.values[name] = (float(value), int(samples))


def timed_median(call, repeats: int) -> float:
    """Median wall time of *repeats* calls of *call*."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def setup_seconds(argv: list[str], ready: str, repeats: int = 3):
    """Median wall time from spawning *argv* to its *ready* line.

    Each child is a fresh interpreter, so the time covers process
    start, imports and whatever the child builds before printing.
    """
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        child = subprocess.Popen(
            argv, stdout=subprocess.PIPE, text=True, cwd=ROOT,
            env=program_env(),
        )
        try:
            line = child.stdout.readline().strip()
            samples.append(time.perf_counter() - start)
        finally:
            child.stdout.close()
            try:
                child.wait(timeout=60)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
        if line != ready or child.returncode != 0:
            raise RuntimeError(
                f"set-up probe {argv} printed {line!r}, "
                f"exit {child.returncode}"
            )
    return statistics.median(samples), samples


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """Peak resident memory (``VmHWM``) of process *pid*."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def emit(metrics: Metrics, outcome: Outcome, declared: dict[str, str],
         measured: "dict[str, str] | None" = None) -> int:
    """Print the metric table and the result line; return the exit code.

    *declared* maps each metric name the run must report to its unit.
    *measured*, a part of *declared* with the same units, names the
    metrics the workload measures (all of *declared* if omitted); the
    others are reported as 0 from 0 samples and printed as not
    measured, since the workload does not exercise their layer.
    """
    measured = declared if measured is None else measured
    if set(metrics.values) != set(measured) or any(
        declared.get(name) != unit for name, unit in measured.items()
    ):
        missing = sorted(set(measured) - set(metrics.values))
        extra = sorted(set(metrics.values) - set(measured))
        raise RuntimeError(
            f"metrics differ from their declaration: missing {missing}, "
            f"undeclared {extra}, or units differ from BENCHMARK.json"
        )
    for name, unit in declared.items():
        if name not in measured:
            metrics.set(name, 0.0, 0)
            print(f"{name:<30} {'not measured':>16} {unit:<11} n=0 "
                  "(layer not exercised by this workload)")
            continue
        value, samples = metrics.values[name]
        print(f"{name:<30} {value:>16.6f} {unit:<11} n={samples}")
    share = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(
        f"{'error_share':<30} {share:>16.6f} {'ratio':<11} "
        f"n={outcome.attempted}"
    )
    for problem in outcome.problems[:20]:
        print(f"FAILED: {problem}")
    ok = outcome.failed == 0 and outcome.attempted > 0
    print(
        json.dumps(
            {
                "correct": ok,
                "attempted": max(outcome.attempted, 1),
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": metrics.values[name][0], "unit": unit}
                    for name, unit in declared.items()
                },
            }
        ),
        flush=True,
    )
    return 0 if ok else 1

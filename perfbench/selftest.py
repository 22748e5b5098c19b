"""Self-test of the benchmark itself (``run.py --self-test``).

1. One seed generates identical inputs (design set, batch-seed list,
   job sequence); another seed generates others.
2. Every workload, run short in a child process, prints exactly the
   metric names of ``BENCHMARK.json`` and passes its correctness
   checks; its module's ``LAYERS`` and the workloads' union of them
   are the per-layer metrics of ``BENCHMARK.json``.
3. Count-type per-layer metrics repeat exactly across two traced runs
   of one seed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from common import ROOT, declared_metrics, program_env

SECONDS = "8"

#: Per-layer metrics that count work; two traced runs of one seed must
#: report the same values.
COUNT_METRICS = {
    "plan.draws_per_iter",
    "faults.draws",
    "resilience.monitor_events",
    "executor.sharded_jobs",
    "executor.inprocess_upgrades",
    "executor.shard_retries",
    "jobs.completed",
    "jobs.failed",
    "jobs.rejected",
    "cache.hits",
    "cache.partial",
    "cache.misses",
    "cache.disk_hits",
    "cache.evictions",
    "cache.runs_simulated",
    "convergence.checkpoints",
    "convergence.runs_saved",
}


def batch_inputs(name: str, seed: int) -> str:
    import batch
    from repro.io import (
        architecture_to_dict,
        implementation_to_dict,
        specification_to_dict,
    )

    workload = batch.WORKLOADS[name]
    designs = []
    for pair in range(3):
        spec, arch, impl, *_ = workload.design(
            seed, workload.design_index(pair)
        )
        designs.append([
            specification_to_dict(spec), architecture_to_dict(arch),
            implementation_to_dict(impl),
        ])
    seeds = [workload.batch_seed(seed, pair) for pair in range(50)]
    return json.dumps([designs, seeds], sort_keys=True)


def served_inputs(seed: int) -> str:
    import served

    inputs = served.generate(seed, 20.0)
    return json.dumps(
        [[job.cls, job.doc] for job in inputs.warm + inputs.jobs],
        sort_keys=True,
    )


def child(workload: str, trace: int) -> dict:
    argv = [sys.executable, str(Path(__file__).with_name("run.py")),
            "--workload", workload, "--seed", "7", "--seconds", SECONDS,
            "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, env=program_env(),
                          capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise AssertionError(
            f"{' '.join(argv[1:])} exited {done.returncode}:\n"
            f"{done.stdout[-2000:]}{done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    import batch
    import served

    expect(set(batch.LAYERS) | set(served.LAYERS)
           == set(declared_metrics(True)),
           "the workloads' LAYERS together are BENCHMARK.json's per_layer")
    generators = {
        "3ts-wide": lambda s: batch_inputs("3ts-wide", s),
        "bursty-long": lambda s: batch_inputs("bursty-long", s),
        "served-mix": served_inputs,
    }
    for name, generate in generators.items():
        first = generate(1)
        expect(first == generate(1), f"{name}: seed 1 regenerates its inputs")
        expect(first != generate(2), f"{name}: seed 2 gives other inputs")

    for name in generators:
        try:
            plain = child(name, 0)
            traced = [child(name, 1), child(name, 1)]
        except AssertionError as error:
            expect(False, str(error))
            continue
        expect(set(plain["metrics"]) == set(declared_metrics(False)),
               f"{name}: end-to-end names match BENCHMARK.json")
        expect(set(traced[0]["metrics"]) == set(declared_metrics(True)),
               f"{name}: per-layer names match BENCHMARK.json")
        layers = (served if name == "served-mix" else batch).LAYERS
        for metric in sorted(COUNT_METRICS & set(layers)):
            values = [run["metrics"][metric]["value"] for run in traced]
            expect(values[0] == values[1],
                   f"{name}: {metric} repeats ({values[0]} vs {values[1]})")
    print(f"self-test: {len(failures)} failure(s)")
    return 1 if failures else 0

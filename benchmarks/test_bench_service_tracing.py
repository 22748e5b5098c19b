"""Fault-free overhead of distributed tracing in the service (PR 9).

Tracing must be close to free on the hot path: a traced job adds a
trace id on the wire, one span record per shard worker, lifecycle
stage timings, and structured-log emits — no extra simulation work
and no change to the merged numbers.  This bench runs the same batch
of jobs through two in-process services, one with ``tracing=True``
and one with ``tracing=False``, asserts the resulting rates are
bit-identical, and — at the full benchmark budget — guards the
acceptance bound: traced wall-clock <= 1.1x untraced (median of
several interleaved rounds).
"""

import statistics
import time

import pytest

from repro.experiments import (
    bind_control_functions,
    three_tank_architecture,
    three_tank_spec,
)
from repro.experiments.three_tank_system import baseline_implementation
from repro.io import (
    architecture_to_dict,
    implementation_to_dict,
    specification_to_dict,
)
from repro.service import ReliabilityService
from repro.runtime.executor import ShardedExecutor

RUNS = 48
ITERATIONS = 400
JOBS_PER_ROUND = 4
SHARDS = 4
OVERHEAD_CEILING = 1.1
ROUNDS = 3

FUNCTIONS = bind_control_functions()


def _design():
    spec = three_tank_spec(lrc_u=0.9975, functions=FUNCTIONS)
    return {
        "spec": specification_to_dict(spec),
        "arch": architecture_to_dict(three_tank_architecture()),
        "impl": implementation_to_dict(baseline_implementation()),
    }


def _documents(design, runs, iterations, salt):
    return [
        {
            "kind": "simulate",
            "runs": runs,
            "iterations": iterations,
            "seed": 1000 * salt + k,
            "jobs": SHARDS,
            **design,
        }
        for k in range(JOBS_PER_ROUND)
    ]


def _service(tracing):
    # Cacheless (every seed is fresh) so each round simulates; a
    # per-shard deadline is the fleet's production configuration.
    return ReliabilityService(
        functions=FUNCTIONS,
        executor_factory=lambda shards: ShardedExecutor(
            shards, deadline_s=600.0
        ),
        tracing=tracing,
    )


def _run_round(service, documents):
    jobs = [service.submit(dict(doc)) for doc in documents]
    service.run_pending()
    rates = []
    for job in jobs:
        assert job.state == "done", job.error
        rates.append(job.result["rates"])
    return rates


def test_bench_tracing_overhead(benchmark, report, bench_scale):
    iterations = bench_scale(ITERATIONS)
    runs = max(SHARDS, bench_scale(RUNS))
    design = _design()

    traced_service = _service(tracing=True)
    untraced_service = _service(tracing=False)

    traced_rates = benchmark.pedantic(
        lambda: _run_round(
            traced_service, _documents(design, runs, iterations, 0)
        ),
        rounds=1, iterations=1,
    )
    untraced_rates = _run_round(
        untraced_service, _documents(design, runs, iterations, 0)
    )

    # Bit-identity holds on any hardware, at any scale: a traced job
    # reports exactly the numbers an untraced one does.
    assert traced_rates == untraced_rates

    # Interleaved warm rounds; fresh seeds per round dodge the cache.
    traced_times, untraced_times = [], []
    for round_index in range(1, ROUNDS + 1):
        docs = _documents(design, runs, iterations, round_index)
        started = time.perf_counter()
        _run_round(untraced_service, docs)
        untraced_times.append(time.perf_counter() - started)
        started = time.perf_counter()
        _run_round(traced_service, docs)
        traced_times.append(time.perf_counter() - started)

    untraced_median = statistics.median(untraced_times)
    traced_median = statistics.median(traced_times)
    overhead = traced_median / max(untraced_median, 1e-9)

    # Tracing actually produced spans on the traced service only.
    sample = traced_service.get("job-1")
    assert sample.trace_id
    assert sample.spans, "traced job collected no shard spans"

    report(
        "PR 9 — distributed-tracing overhead on the fault-free path",
        [
            ("jobs x runs x iterations",
             f"{JOBS_PER_ROUND} x {RUNS} x {ITERATIONS}",
             f"{JOBS_PER_ROUND} x {runs} x {iterations}"),
            (f"untraced x{SHARDS} wall-clock", "-",
             f"{untraced_median:.3f}s"),
            (f"traced x{SHARDS} wall-clock", "-",
             f"{traced_median:.3f}s"),
            ("overhead", f"<= {OVERHEAD_CEILING}x",
             f"{overhead:.3f}x"),
            ("bit-identical rates", "yes", "yes"),
        ],
    )

    if not bench_scale.full:
        pytest.skip("overhead ceiling asserted only at full scale")
    assert overhead <= OVERHEAD_CEILING

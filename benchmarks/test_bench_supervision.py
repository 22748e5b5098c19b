"""Fault-free cost of hang detection in the one shard executor.

Supervision must be close to free when nothing fails.
:class:`~repro.runtime.executor.ShardedExecutor` always supervises its
workers through a ``connection.wait`` loop; a per-shard deadline
(``deadline_s``) adds monotonic-clock bookkeeping to that loop.  This
bench runs the large 3TS batch with the deadline on and off, asserts
bit-identity, and — at the full benchmark budget — guards the bound:
deadline-on wall-clock <= 1.1x deadline-off (median of several
interleaved rounds, so a single scheduler hiccup on a loaded CI box
doesn't fail the build).
"""

import statistics
import time

import numpy as np
import pytest

from repro.experiments import (
    bind_control_functions,
    scenario1_implementation,
    three_tank_architecture,
    three_tank_spec,
)
from repro.runtime import BatchSimulator, BernoulliFaults, ShardedExecutor

RUNS = 64
ITERATIONS = 1250
WORKERS = 4
OVERHEAD_CEILING = 1.1
ROUNDS = 3


def _simulator(executor):
    spec = three_tank_spec(
        lrc_u=0.9975, functions=bind_control_functions()
    )
    arch = three_tank_architecture()
    return BatchSimulator(
        spec, arch, scenario1_implementation(),
        faults=BernoulliFaults(arch), seed=99, executor=executor,
    )


def test_bench_supervised_overhead(benchmark, report, bench_scale):
    iterations = bench_scale(ITERATIONS)
    runs = max(WORKERS, bench_scale(RUNS))

    deadline_simulator = _simulator(
        ShardedExecutor(WORKERS, deadline_s=600.0)
    )
    deadline_on = benchmark.pedantic(
        lambda: deadline_simulator.run_batch(runs, iterations),
        rounds=1, iterations=1,
    )
    plain_simulator = _simulator(ShardedExecutor(WORKERS))

    # Interleaved warm rounds: the ratio compares medians, not a
    # single cold pair.
    plain_times, deadline_times = [], []
    for _ in range(ROUNDS):
        started = time.perf_counter()
        plain = plain_simulator.run_batch(runs, iterations)
        plain_times.append(time.perf_counter() - started)
        started = time.perf_counter()
        deadline_simulator.run_batch(runs, iterations)
        deadline_times.append(time.perf_counter() - started)

    # Bit-identity holds on any hardware, at any scale.
    for name in plain.reliable_counts:
        assert np.array_equal(
            plain.reliable_counts[name],
            deadline_on.reliable_counts[name],
        )

    plain_median = statistics.median(plain_times)
    deadline_median = statistics.median(deadline_times)
    overhead = deadline_median / max(plain_median, 1e-9)
    report(
        "Shard executor — deadline on vs off, fault-free path",
        [
            ("runs x iterations",
             f"{RUNS} x {ITERATIONS}", f"{runs} x {iterations}"),
            (f"deadline off x{WORKERS} wall-clock", "-",
             f"{plain_median:.3f}s"),
            (f"deadline on x{WORKERS} wall-clock", "-",
             f"{deadline_median:.3f}s"),
            ("overhead", f"<= {OVERHEAD_CEILING}x",
             f"{overhead:.3f}x"),
            ("bit-identical", "yes", "yes"),
        ],
    )

    if not bench_scale.full:
        pytest.skip("overhead ceiling asserted only at full scale")
    assert overhead <= OVERHEAD_CEILING

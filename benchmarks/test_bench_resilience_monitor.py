"""Overhead of the online LRC monitor on the batch Monte-Carlo path.

The batch path picks the monitor pass per communicator from its
failure density.  Here failures are rare (``failures x window <=
runs x samples``), so it takes the sparse pass: all windowed-latch
work happens in the window neighbourhoods of the failures
(:func:`repro.resilience.monitor.sparse_changes`), and on a healthy
system the pass reduces to finding the failures plus a per-block
qualification check.  The dense pass over the full status tensor
costs several times more on this workload, which is why both are
kept.  The acceptance ceiling is 1.3x the unmonitored batch runtime.

The workload is the steady-state case the ceiling is about: the
replicated (LRC-compliant) 3TS implementation watched with an alarm
margin below the declared LRCs — the operating configuration in which
a monitor runs for days without firing.  Alarm-storm behaviour (alarm
threshold exactly at ``mu_c`` on a violating implementation, where
event construction dominates) is exercised functionally by the
detect-and-recover experiment instead; its cost scales with the number
of emitted events, not with ``runs x samples``.

Both timings run the identical workload (same seed, same fault
tensors) so the ratio isolates the monitor pass itself, and the
monitored result's counts are asserted equal to the unmonitored
ones — monitoring observes, it never perturbs.
"""

import time

from repro.experiments import (
    scenario2_implementation,
    three_tank_architecture,
    three_tank_spec,
)
from repro.resilience import MonitorConfig
from repro.runtime import BatchSimulator, BernoulliFaults

RUNS = 256
ITERATIONS = 1250  # x RUNS = 320000 simulated hyperperiods
OVERHEAD_CEILING = 1.3


def test_bench_resilience_monitor(benchmark, report, bench_scale):
    iterations = bench_scale(ITERATIONS)
    spec = three_tank_spec(lrc_u=0.9975)
    arch = three_tank_architecture()
    impl = scenario2_implementation()
    # Alarm well below the declared LRCs: a single task failure dips a
    # five-access communicator's windowed rate to 0.9, so the margin
    # must sit below that for the monitor to be quiet on a compliant
    # system.
    names = sorted(spec.communicators)
    monitor = MonitorConfig(
        window=50,
        alarm_below={name: 0.8 for name in names},
        clear_above={name: 0.9 for name in names},
    )

    simulator = BatchSimulator(
        spec, arch, impl, faults=BernoulliFaults(arch), seed=99,
    )

    monitored = benchmark.pedantic(
        lambda: simulator.run_batch(RUNS, iterations, monitor=monitor),
        rounds=1, iterations=1,
    )
    assert monitored.executor == "vectorized"

    # Warm timings, best of three each, after the benchmark call has
    # paid the interpreter/numpy warm-up.
    def best_of(fn, rounds=3):
        elapsed = []
        for _ in range(rounds):
            start = time.perf_counter()
            fn()
            elapsed.append(time.perf_counter() - start)
        return min(elapsed)

    plain_elapsed = best_of(
        lambda: simulator.run_batch(RUNS, iterations)
    )
    monitored_elapsed = best_of(
        lambda: simulator.run_batch(RUNS, iterations, monitor=monitor)
    )
    overhead = monitored_elapsed / plain_elapsed

    # Monitoring observes; it must not perturb the counts.
    plain = simulator.run_batch(RUNS, iterations)
    for name, counts in plain.reliable_counts.items():
        assert (monitored.reliable_counts[name] == counts).all()

    if bench_scale.full:
        assert overhead <= OVERHEAD_CEILING

    report(
        "resilience — online LRC monitor overhead on the batch path",
        [
            ("batch runtime (s)", "(baseline)",
             f"{plain_elapsed:.3f}"),
            ("monitored runtime (s)", f"<= {OVERHEAD_CEILING:.1f}x",
             f"{monitored_elapsed:.3f}"),
            ("overhead", f"<= {OVERHEAD_CEILING:.1f}x",
             f"{overhead:.2f}x"),
            ("monitor events", "(quiet steady state)",
             f"{len(monitored.monitor_events)}"),
        ],
    )

"""Throughput of the vectorized batch executor vs the scalar loop.

The compile-then-execute split exists for exactly this workload: the
E6 Monte-Carlo budget (20000 simulated hyperperiods of the 3TS under
Bernoulli faults) is embarrassingly parallel across runs and
iterations, so the batch executor draws every fault as one Bernoulli
tensor and propagates reliability bits through the plan's dependency
order instead of ticking the event loop 20000 times.

The bench times both executors on the same per-hyperperiod workload,
checks the ``SeedSequence.spawn`` contract (batch run 0 is
count-identical to the scalar simulator seeded with spawn child 0),
and records the speedup.  The acceptance floor is 20x; the measured
ratio on a stock container is a few hundred.

A second bench profiles the wide 3TS batch (10k runs x 100
iterations) and asserts that the executor's stages — seed derivation
through reduce — account for at least 90 % of its wall time, so a
slow layer cannot hide outside every stage.
"""

import time

import numpy as np

from repro.experiments import (
    ACTUATORS,
    baseline_implementation,
    bind_control_functions,
    scenario1_implementation,
    three_tank_architecture,
    three_tank_spec,
)
from repro.runtime import BatchSimulator, BernoulliFaults, Simulator
from repro.telemetry.profiler import StageProfiler

RUNS = 16
ITERATIONS = 1250  # x RUNS = 20000 simulated hyperperiods
SCALAR_ITERATIONS = 2000  # scalar reference sample (throughput basis)
SPEEDUP_FLOOR = 20.0
WIDE_RUNS = 10_000
WIDE_ITERATIONS = 100
WIDE_CALLS = 3
COVERAGE_FLOOR = 0.9


def test_bench_batch_montecarlo(benchmark, report, bench_scale):
    iterations = bench_scale(ITERATIONS)
    scalar_iterations = bench_scale(SCALAR_ITERATIONS)
    # The batch executor never calls task functions, but the scalar
    # reference does — bind them so both see the same specification.
    spec = three_tank_spec(
        lrc_u=0.9975, functions=bind_control_functions()
    )
    arch = three_tank_architecture()
    impl = scenario1_implementation()

    simulator = BatchSimulator(
        spec, arch, impl, faults=BernoulliFaults(arch), seed=99,
    )

    result = benchmark.pedantic(
        lambda: simulator.run_batch(RUNS, iterations),
        rounds=1, iterations=1,
    )
    assert result.executor == "vectorized"

    # Warm re-run for the throughput ratio (excludes interpreter and
    # numpy warm-up captured by the benchmark fixture's first call).
    start = time.perf_counter()
    simulator.run_batch(RUNS, iterations)
    batch_elapsed = time.perf_counter() - start
    batch_rate = RUNS * iterations / batch_elapsed

    # Scalar reference: the same fault model through the event loop,
    # seeded with spawn child 0 per the seed contract.
    child = np.random.SeedSequence(99).spawn(RUNS)[0]
    scalar = Simulator(
        spec, arch, impl,
        faults=BernoulliFaults(arch),
        actuator_communicators=ACTUATORS,
        seed=np.random.default_rng(child),
    )
    start = time.perf_counter()
    scalar_result = scalar.run(scalar_iterations)
    scalar_elapsed = time.perf_counter() - start
    scalar_rate = scalar_iterations / scalar_elapsed
    speedup = batch_rate / scalar_rate

    # Seed contract: batch run 0 == scalar run with spawn child 0.
    contract = Simulator(
        spec, arch, impl,
        faults=BernoulliFaults(arch),
        actuator_communicators=ACTUATORS,
        seed=np.random.default_rng(
            np.random.SeedSequence(99).spawn(RUNS)[0]
        ),
    ).run(iterations)
    for name, trace in contract.abstract().items():
        assert result.reliable_counts[name][0] == trace.reliable_count()

    if bench_scale.full:
        assert speedup >= SPEEDUP_FLOOR

    report(
        "batch executor — Monte-Carlo throughput vs scalar loop",
        [
            ("scalar rate (hyperperiods/s)", "(baseline)",
             f"{scalar_rate:,.0f}"),
            ("batch rate (hyperperiods/s)", ">= 20x scalar",
             f"{batch_rate:,.0f}"),
            ("speedup", f">= {SPEEDUP_FLOOR:.0f}x",
             f"{speedup:.0f}x"),
            ("seed contract (run 0 == scalar)", "bit-identical",
             "yes"),
        ],
    )


def test_bench_batch_stage_coverage(report, bench_scale):
    arch = three_tank_architecture()
    profiler = StageProfiler()
    simulator = BatchSimulator(
        three_tank_spec(), arch, baseline_implementation(),
        faults=BernoulliFaults(arch), profiler=profiler,
    )
    runs = bench_scale(WIDE_RUNS)
    simulator.run_batch(runs, WIDE_ITERATIONS, seed=0)  # warm-up
    profiler.reset()
    start = time.perf_counter()
    for seed in range(1, WIDE_CALLS + 1):
        result = simulator.run_batch(runs, WIDE_ITERATIONS, seed=seed)
    wall = (time.perf_counter() - start) / WIDE_CALLS
    assert result.executor == "vectorized"
    stages = {
        stat.name: stat.total_seconds / WIDE_CALLS
        for stat in profiler.stats()
    }
    coverage = sum(stages.values()) / wall

    if bench_scale.full:
        assert coverage >= COVERAGE_FLOOR

    report(
        f"batch executor — stage coverage of a {runs} x "
        f"{WIDE_ITERATIONS} 3TS batch",
        [("wall per call (ms)", "(measured)", f"{1e3 * wall:.1f}")]
        + [
            (f"stage {name} (ms)", "", f"{1e3 * seconds:.1f}")
            for name, seconds in stages.items()
        ]
        + [(
            "coverage (stages / wall)", f">= {COVERAGE_FLOOR}",
            f"{coverage:.3f}",
        )],
    )

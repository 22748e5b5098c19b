"""The batched Monte-Carlo executor vs the scalar reference.

The batch executor's whole claim is *bit-identical counts, orders of
magnitude faster*: run ``k`` of ``run_batch(n, iterations, seed=s)``
must produce exactly the per-communicator reliable-access counts of
the scalar :class:`~repro.runtime.engine.Simulator` seeded with
``SeedSequence(s).spawn(n)[k]``.  The differential property test
drives that over Hypothesis-generated systems; the convergence test
checks the estimates against the analytic SRGs of Proposition 1; the
fallback tests pin down when the vectorized path must decline.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch import Architecture, ExecutionMetrics, Host, Sensor
from repro.errors import RuntimeSimulationError
from repro.experiments import (
    bind_control_functions,
    cyclic_specification,
    scenario1_implementation,
    three_tank_architecture,
    three_tank_spec,
    unplug_monte_carlo,
)
from repro.mapping import Implementation
from repro.reliability import (
    binomial_confidence_interval,
    communicator_srgs,
)
from repro.runtime import (
    BatchSimulator,
    BernoulliFaults,
    CompositeFaults,
    CrashRepairFaults,
    FaultInjector,
    GilbertElliottChannel,
    GilbertElliottFaults,
    ScriptedFaults,
    Simulator,
)
from repro.runtime.batch import MAX_STREAM_RUNS, run_streams

from strategies import systems

RELAXED = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def scalar_counts(spec, arch, impl, faults, child, iterations):
    """Reliable-access counts of one scalar run seeded with *child*."""
    simulator = Simulator(
        spec, arch, impl,
        faults=faults,
        seed=np.random.default_rng(child),
    )
    result = simulator.run(iterations)
    return {
        name: trace.reliable_count()
        for name, trace in result.abstract().items()
    }


# ----------------------------------------------------------------------
# The seed contract, differentially.
# ----------------------------------------------------------------------


@RELAXED
@given(systems(), st.integers(min_value=0, max_value=2**32 - 1))
def test_batch_matches_scalar_on_generated_systems(system, seed):
    spec, arch, impl = system
    batch = BatchSimulator(
        spec, arch, impl, faults=BernoulliFaults(arch), seed=seed
    )
    runs, iterations = 3, 7
    result = batch.run_batch(runs, iterations)
    assert result.executor == "vectorized"

    children = np.random.SeedSequence(seed).spawn(runs)
    for k, child in enumerate(children):
        expected = scalar_counts(
            spec, arch, impl, BernoulliFaults(arch), child, iterations
        )
        for name, count in expected.items():
            assert result.reliable_counts[name][k] == count


@RELAXED
@given(systems())
def test_batch_is_deterministic_in_the_seed(system):
    spec, arch, impl = system
    batch = BatchSimulator(
        spec, arch, impl, faults=BernoulliFaults(arch)
    )
    first = batch.run_batch(2, 5, seed=123)
    second = batch.run_batch(2, 5, seed=123)
    for name in spec.communicators:
        assert np.array_equal(
            first.reliable_counts[name], second.reliable_counts[name]
        )


# ----------------------------------------------------------------------
# Convergence to the analytic SRGs (Proposition 1).
# ----------------------------------------------------------------------


def test_batch_estimates_converge_to_analytic_srgs():
    """Pooled batch estimates honour the SRGs of Proposition 1.

    The SRG is a *guarantee*: the analytic product assumes input
    reliabilities independent, and shared upstream ancestry (both 3TS
    estimates fuse the same level readings) only pushes the true
    reliability up.  So every communicator's SRG must lie at or below
    the Clopper–Pearson interval of the pooled estimate — and for
    input communicators, whose reliability is exactly the sensor
    ``srel``, the interval must straddle the SRG itself.
    """
    spec = three_tank_spec()
    arch = three_tank_architecture()
    impl = scenario1_implementation()
    srgs = communicator_srgs(spec, impl, arch)

    batch = BatchSimulator(
        spec, arch, impl, faults=BernoulliFaults(arch), seed=7
    )
    result = batch.run_batch(64, 500)  # 32000 hyperperiods
    assert result.executor == "vectorized"

    inputs = spec.input_communicators()
    for name in spec.communicators:
        successes, samples = result.pooled_counts()[name]
        lower, upper = binomial_confidence_interval(
            successes, samples, confidence=0.999
        )
        assert srgs[name] <= upper, (
            f"{name}: observed significantly below the SRG "
            f"{srgs[name]} (CP interval [{lower}, {upper}])"
        )
        if name in inputs:
            assert lower <= srgs[name], (
                f"{name}: exact input SRG {srgs[name]} outside CP "
                f"interval [{lower}, {upper}]"
            )


def test_batch_scripted_unplug_matches_scalar_and_degrades():
    """Pull-the-plug composite (scripted + Bernoulli) on the batch path."""
    result = unplug_monte_carlo(
        scenario1_implementation(), "h2", 30_000, runs=4, iterations=120
    )
    assert result.executor == "vectorized"
    # Replication keeps every LRC despite losing h2 for half the run.
    assert result.satisfies_lrcs(slack=0.01)

    spec = three_tank_spec(functions=bind_control_functions())
    arch = three_tank_architecture()
    impl = scenario1_implementation()
    faults = CompositeFaults(
        [
            ScriptedFaults(host_outages={"h2": [(30_000, None)]}),
            BernoulliFaults(arch),
        ]
    )
    children = np.random.SeedSequence(99).spawn(4)
    for k, child in enumerate(children):
        expected = scalar_counts(spec, arch, impl, faults, child, 120)
        for name, count in expected.items():
            assert result.reliable_counts[name][k] == count


# ----------------------------------------------------------------------
# The seed contract under the correlated injectors.
# ----------------------------------------------------------------------


channels = st.builds(
    GilbertElliottChannel,
    st.floats(min_value=0.01, max_value=0.9),   # good_to_bad
    st.floats(min_value=0.05, max_value=0.95),  # bad_to_good
    st.floats(min_value=0.0, max_value=0.2),    # fail_good
    st.floats(min_value=0.5, max_value=1.0),    # fail_bad
    st.booleans(),                              # start_bad
)


@RELAXED
@given(
    systems(),
    channels,
    st.integers(min_value=0, max_value=2**32 - 1),
    st.booleans(),
)
def test_batch_matches_scalar_with_gilbert_elliott(
    system, channel, seed, with_network
):
    spec, arch, impl = system

    def faults():
        return GilbertElliottFaults(
            hosts={h: channel for h in arch.host_names()},
            sensors={s: channel for s in arch.sensor_names()},
            network=channel if with_network else None,
        )

    batch = BatchSimulator(spec, arch, impl, faults=faults(), seed=seed)
    runs, iterations = 2, 6
    result = batch.run_batch(runs, iterations)
    assert result.executor == "vectorized"

    children = np.random.SeedSequence(seed).spawn(runs)
    for k, child in enumerate(children):
        expected = scalar_counts(
            spec, arch, impl, faults(), child, iterations
        )
        for name, count in expected.items():
            assert result.reliable_counts[name][k] == count


@RELAXED
@given(
    systems(),
    st.floats(min_value=10.0, max_value=5000.0),
    st.floats(min_value=5.0, max_value=500.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_batch_matches_scalar_with_crash_repair(system, mttf, mttr, seed):
    spec, arch, impl = system

    def faults():
        return CrashRepairFaults(
            hosts={h: (mttf, mttr) for h in arch.host_names()},
            sensors={s: (mttf, mttr) for s in arch.sensor_names()},
        )

    batch = BatchSimulator(spec, arch, impl, faults=faults(), seed=seed)
    runs, iterations = 2, 6
    result = batch.run_batch(runs, iterations)
    assert result.executor == "vectorized"

    children = np.random.SeedSequence(seed).spawn(runs)
    for k, child in enumerate(children):
        expected = scalar_counts(
            spec, arch, impl, faults(), child, iterations
        )
        for name, count in expected.items():
            assert result.reliable_counts[name][k] == count


# ----------------------------------------------------------------------
# Scripted-outage interval boundaries, differentially.
#
# In the 3TS plan the interesting instants of iteration 3 are: release
# of t1/t2 at 1700, their deadline (write time) at 1900, and the phase
# boundaries at 1500/2000.  Outage edges landing exactly on those
# instants exercise the half-open interval convention of
# ScriptedFaults._down_during — a precompute that is off by one at any
# edge diverges from the scalar reference here.
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "intervals",
    [
        [(1000, 1700)],   # ends exactly on a release -> spares it
        [(1700, 1701)],   # starts exactly on a release -> kills it
        [(1900, 1950)],   # starts exactly on a deadline -> still kills
        [(1300, 1900)],   # ends exactly on a deadline
        [(1500, 2000)],   # aligned on phase boundaries
        [(0, 200)],       # from t=0 to the first write time
        [(2000, None)],   # open-ended from a phase boundary
        [(1700, 1900)],   # exactly one invocation window
    ],
    ids=[
        "end-on-release",
        "start-on-release",
        "start-on-deadline",
        "end-on-deadline",
        "phase-aligned",
        "from-zero",
        "open-ended",
        "exact-window",
    ],
)
def test_scripted_precompute_interval_boundaries(intervals):
    spec = three_tank_spec(functions=bind_control_functions())
    arch = three_tank_architecture()
    impl = scenario1_implementation()

    def faults():
        return ScriptedFaults(
            host_outages={"h1": intervals, "h2": intervals},
            sensor_outages={"sen1": intervals, "sen2b": intervals},
        )

    batch = BatchSimulator(spec, arch, impl, faults=faults(), seed=17)
    runs, iterations = 2, 12
    result = batch.run_batch(runs, iterations)
    assert result.executor == "vectorized"

    children = np.random.SeedSequence(17).spawn(runs)
    for k, child in enumerate(children):
        expected = scalar_counts(
            spec, arch, impl, faults(), child, iterations
        )
        for name, count in expected.items():
            assert result.reliable_counts[name][k] == count, (
                f"{name}: batch diverges from scalar on {intervals}"
            )


# ----------------------------------------------------------------------
# Fallback rules.
# ----------------------------------------------------------------------


class _FlakySensor(FaultInjector):
    """A custom injector with no ``precompute`` implementation."""

    def sensor_fails(self, sensor, time, rng):
        return rng.random() >= 0.5


def test_custom_injector_without_precompute_falls_back():
    spec = three_tank_spec(functions=bind_control_functions())
    arch = three_tank_architecture()
    impl = scenario1_implementation()
    batch = BatchSimulator(
        spec, arch, impl, faults=_FlakySensor(), seed=5
    )
    result = batch.run_batch(2, 30)
    assert result.executor == "scalar-fallback"

    children = np.random.SeedSequence(5).spawn(2)
    for k, child in enumerate(children):
        expected = scalar_counts(
            spec, arch, impl, _FlakySensor(), child, 30
        )
        for name, count in expected.items():
            assert result.reliable_counts[name][k] == count


def test_cyclic_specification_falls_back_to_scalar():
    """A self-loop defeats topological propagation -> scalar path."""
    spec = cyclic_specification("series", period=10)
    arch = Architecture(
        hosts=[Host("h0", 0.9)],
        sensors=[Sensor("s0", 0.9)],
        metrics=ExecutionMetrics(default_wcet=1, default_wctt=1),
    )
    impl = Implementation({"integrate": {"h0"}}, {})
    batch = BatchSimulator(
        spec, arch, impl, faults=BernoulliFaults(arch), seed=3
    )
    assert batch.plan.batch_order is None
    result = batch.run_batch(3, 40)
    assert result.executor == "scalar-fallback"

    children = np.random.SeedSequence(3).spawn(3)
    for k, child in enumerate(children):
        expected = scalar_counts(
            spec, arch, impl, BernoulliFaults(arch), child, 40
        )
        for name, count in expected.items():
            assert result.reliable_counts[name][k] == count


class _DrawThenDecline(BernoulliFaults):
    """Bernoulli faults whose ``precompute`` consumes draws, then declines."""

    def precompute(self, plan, runs, iterations, rngs):
        for k in range(runs):
            rngs[k].random(5)
            rngs[k].exponential(1.0)
        return None


@pytest.mark.parametrize("start, stop", [(0, 3), (2, 5)])
def test_declining_precompute_falls_back_on_fresh_streams(start, stop):
    """The fallback reseeds from the seed; consumed cursors are unused."""
    spec = three_tank_spec(functions=bind_control_functions())
    arch = three_tank_architecture()
    impl = scenario1_implementation()
    batch = BatchSimulator(
        spec, arch, impl, faults=_DrawThenDecline(arch), seed=17
    )
    result = batch.run_range(start, stop, 25)
    assert result.executor == "scalar-fallback"
    for k in range(start, stop):
        expected = scalar_counts(
            spec, arch, impl, BernoulliFaults(arch),
            np.random.SeedSequence(17, spawn_key=(k,)), 25,
        )
        for name, count in expected.items():
            assert result.reliable_counts[name][k - start] == count


def test_run_batch_validates_arguments():
    spec = three_tank_spec()
    arch = three_tank_architecture()
    batch = BatchSimulator(spec, arch, scenario1_implementation())
    with pytest.raises(RuntimeSimulationError):
        batch.run_batch(0, 10)
    with pytest.raises(RuntimeSimulationError):
        batch.run_batch(4, 0)


# ----------------------------------------------------------------------
# BatchResult surface.
# ----------------------------------------------------------------------


def test_batch_result_statistics_surface():
    spec = three_tank_spec()
    arch = three_tank_architecture()
    batch = BatchSimulator(
        spec, arch, scenario1_implementation(),
        faults=BernoulliFaults(arch), seed=11,
    )
    result = batch.run_batch(8, 100)

    averages = result.limit_averages()
    estimates = result.srg_estimates()
    pooled = result.pooled_counts()
    for name in spec.communicators:
        samples = result.samples_per_run[name]
        successes, total = pooled[name]
        assert len(result.reliable_counts[name]) == 8
        assert successes == int(result.reliable_counts[name].sum())
        assert total == 8 * samples
        assert averages[name] == pytest.approx(
            result.reliable_counts[name] / samples
        )
        assert estimates[name] == pytest.approx(successes / total)
        assert 0.0 <= estimates[name] <= 1.0

    tests = result.lrc_tests()
    assert set(tests) == set(spec.communicators)
    assert result.satisfies_lrcs(slack=0.02)
    assert "8 runs x 100 iterations" in result.summary()


# ----------------------------------------------------------------------
# run_streams: the bulk derivation draws the spawn-key generators.
# ----------------------------------------------------------------------

#: Seed 0, one-word seeds, and multi-word seeds up to 2**128.
STREAM_SEEDS = st.one_of(
    st.just(0),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2**32, max_value=2**128),
)

#: Range starts at 0, mid-range, and just below the 2**32-run limit.
STREAM_STARTS = st.one_of(
    st.just(0),
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=MAX_STREAM_RUNS - 40, max_value=MAX_STREAM_RUNS - 8),
)


def spawn_key_generator(seed, k):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))


def assert_same_draws(item, reference):
    assert item.random(4).tolist() == reference.random(4).tolist()
    assert item.exponential(2.5) == reference.exponential(2.5)
    assert (
        item.integers(0, 2**40, size=3).tolist()
        == reference.integers(0, 2**40, size=3).tolist()
    )
    # Three 32-bit draws: every other call leaves half a 64-bit
    # output buffered in the bit generator, which the run's next turn
    # must find again after other runs have drawn.
    assert item.integers(0, 1000) == reference.integers(0, 1000)
    assert (
        item.random(2, dtype=np.float32).tolist()
        == reference.random(2, dtype=np.float32).tolist()
    )


@settings(max_examples=60, deadline=None)
@given(STREAM_SEEDS, STREAM_STARTS, st.integers(min_value=1, max_value=8))
def test_run_streams_draw_the_spawn_key_generators(seed, start, runs):
    streams = run_streams(seed, start, start + runs)
    assert len(streams) == runs
    with pytest.raises(IndexError):
        streams[runs]
    for k in range(runs):
        assert_same_draws(streams[k], spawn_key_generator(seed, start + k))


@settings(max_examples=30, deadline=None)
@given(
    STREAM_SEEDS,
    STREAM_STARTS,
    st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=12),
)
def test_interleaved_run_streams_equal_per_run_generators(
    seed, start, order
):
    streams = run_streams(seed, start, start + 5)
    references = [spawn_key_generator(seed, start + k) for k in range(5)]
    # Item 3, then 1, then 3 again continues run 3's stream.
    for k in [3, 1, 3] + order:
        assert_same_draws(streams[k], references[k])


def test_run_streams_stop_at_one_word_spawn_keys():
    with pytest.raises(RuntimeSimulationError):
        run_streams(0, MAX_STREAM_RUNS - 1, MAX_STREAM_RUNS + 1)
    assert len(run_streams(0, MAX_STREAM_RUNS - 1, MAX_STREAM_RUNS)) == 1
    arch = three_tank_architecture()
    batch = BatchSimulator(
        three_tank_spec(), arch, scenario1_implementation(),
        faults=BernoulliFaults(arch),
    )
    with pytest.raises(RuntimeSimulationError):
        batch.run_range(MAX_STREAM_RUNS - 1, MAX_STREAM_RUNS + 1, 10)

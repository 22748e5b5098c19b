"""The pluggable batch executors: sharded must equal serial, bitwise.

The tentpole claim of the executor refactor is that
:class:`~repro.runtime.executor.ShardedExecutor` is *unobservable*:
for every (seed, runs, jobs) the sharded batch result — counts,
per-run arrays, monitor events, ledger record — is bit-identical to
the serial one, because spawn keys partition deterministically and
every per-run derivation is independent along axis 0.  The
differential suite drives that over Hypothesis-generated systems;
the unit tests pin down the shard arithmetic, the merge edge cases,
and the spawn-key identity the service's delta simulation rests on.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import RuntimeSimulationError
from repro.experiments import (
    bind_control_functions,
    three_tank_architecture,
    three_tank_spec,
)
from repro.experiments.three_tank_system import baseline_implementation
from repro.resilience import MonitorConfig
from repro.runtime import (
    BatchExecutor,
    BatchSimulator,
    BernoulliFaults,
    GilbertElliottChannel,
    GilbertElliottFaults,
    SerialExecutor,
    ShardedExecutor,
    merge_batch_results,
    shard_slices,
    slice_batch_result,
)
from repro.runtime.batch import RunRange, run_seeds
from repro.telemetry import TraceContext, derive_run_id, record_from_result

from strategies import systems

RELAXED = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def three_tank_simulator(seed=7, executor=None):
    spec = three_tank_spec(
        lrc_u=0.99, functions=bind_control_functions()
    )
    arch = three_tank_architecture()
    return spec, arch, BatchSimulator(
        spec, arch, baseline_implementation(),
        faults=BernoulliFaults(arch), seed=seed, executor=executor,
    )


def assert_identical(left, right):
    """Bitwise equality of two batch results."""
    assert left.runs == right.runs
    assert left.iterations == right.iterations
    assert left.executor == right.executor
    assert left.samples_per_run == right.samples_per_run
    assert set(left.reliable_counts) == set(right.reliable_counts)
    for name in left.reliable_counts:
        assert np.array_equal(
            left.reliable_counts[name], right.reliable_counts[name]
        )
    assert left.monitor_events == right.monitor_events


# ----------------------------------------------------------------------
# The shard partition.
# ----------------------------------------------------------------------


@given(
    st.integers(min_value=0, max_value=500),
    st.integers(min_value=1, max_value=64),
)
def test_shard_slices_partition_range(runs, jobs):
    slices = shard_slices(runs, jobs)
    # Contiguous, ordered, non-empty, covering exactly range(runs).
    assert len(slices) == min(jobs, runs)
    position = 0
    for start, stop in slices:
        assert start == position
        assert stop > start
        position = stop
    assert position == runs
    # Balanced: sizes differ by at most one, larger shards first.
    sizes = [stop - start for start, stop in slices]
    assert sizes == sorted(sizes, reverse=True)
    if sizes:
        assert max(sizes) - min(sizes) <= 1


def test_shard_slices_rejects_bad_inputs():
    with pytest.raises(RuntimeSimulationError):
        shard_slices(10, 0)
    with pytest.raises(RuntimeSimulationError):
        shard_slices(-1, 2)
    assert shard_slices(0, 4) == []


def test_executors_satisfy_protocol():
    assert isinstance(SerialExecutor(), BatchExecutor)
    assert isinstance(ShardedExecutor(2), BatchExecutor)
    with pytest.raises(RuntimeSimulationError):
        ShardedExecutor(0)


# ----------------------------------------------------------------------
# The spawn-key identity the shard (and service-delta) seeding uses.
# ----------------------------------------------------------------------


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=40),
)
def test_spawn_children_equal_spawn_key_construction(seed, runs):
    spawned = np.random.SeedSequence(seed).spawn(runs)
    helper = run_seeds(seed, 0, runs)
    for k in (0, runs // 2, runs - 1):
        direct = np.random.SeedSequence(seed, spawn_key=(k,))
        assert (
            spawned[k].generate_state(4).tolist()
            == direct.generate_state(4).tolist()
            == helper[k].generate_state(4).tolist()
        )
        assert derive_run_id(spawned[k]) == derive_run_id(helper[k])
    assert [c.spawn_key for c in run_seeds(seed, 2, 5)] == [
        (2,), (3,), (4,),
    ]


# ----------------------------------------------------------------------
# Sharded vs serial, differentially.
# ----------------------------------------------------------------------


@RELAXED
@given(
    systems(),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=13),
    st.integers(min_value=1, max_value=6),
)
def test_sharded_is_bit_identical_on_generated_systems(
    system, seed, runs, jobs
):
    spec, arch, impl = system
    monitor = MonitorConfig(window=4)

    def simulator(executor):
        return BatchSimulator(
            spec, arch, impl,
            faults=BernoulliFaults(arch), seed=seed,
            executor=executor,
        )

    serial = simulator(SerialExecutor()).run_batch(
        runs, 6, monitor=monitor
    )
    # Inline shards exercise the slice/merge arithmetic on every
    # example; the fork path is covered by the process tests below.
    sharded = simulator(ShardedExecutor(jobs, processes=False))
    assert_identical(serial, sharded.run_batch(runs, 6, monitor=monitor))
    # The [start, stop) entry point returns exactly the matching rows
    # of the whole batch, from run 0 and from mid-batch.
    for start in sorted({0, runs // 2}):
        for executor in (
            SerialExecutor(), ShardedExecutor(3, processes=False),
        ):
            part = simulator(executor).run_range(
                start, runs, 6, monitor=monitor
            )
            assert part.runs == runs - start
            for name, counts in serial.reliable_counts.items():
                assert np.array_equal(
                    part.reliable_counts[name], counts[start:]
                )
            assert part.monitor_events == tuple(
                event for event in serial.monitor_events
                if event.run >= start
            )


@pytest.mark.parametrize("jobs", [2, 3, 5, 23, 64])
def test_sharded_processes_match_serial_three_tank(jobs):
    _, _, serial_sim = three_tank_simulator()
    serial = serial_sim.run_batch(
        23, 30, monitor=MonitorConfig(window=5)
    )
    _, _, sharded_sim = three_tank_simulator(
        executor=ShardedExecutor(jobs)
    )
    sharded = sharded_sim.run_batch(
        23, 30, monitor=MonitorConfig(window=5)
    )
    assert_identical(serial, sharded)


@pytest.mark.parametrize("processes", [False, True])
def test_sharded_monitor_passes_differ_per_shard(processes):
    # A sticky bad channel on h2: in one shard a run falls into a long
    # burst and u2/r2 fail densely, in the other none does.  Each shard
    # picks its own monitor pass; the merged events equal those of the
    # serial batch, which picks one pass for all eight runs.
    spec = three_tank_spec(lrc_u=0.99)
    channel = GilbertElliottChannel(good_to_bad=0.004, bad_to_good=0.02)
    faults = GilbertElliottFaults(hosts={"h2": channel})
    monitor = MonitorConfig(window=10)

    def simulator(executor):
        return BatchSimulator(
            spec, three_tank_architecture(), baseline_implementation(),
            faults=faults, seed=1, executor=executor,
        )

    runs, iterations = 8, 60
    shards = run_slices(
        simulator(None), runs, iterations, shard_slices(runs, 2), monitor
    )

    def dense(shard, name):
        accesses = shard.runs * shard.samples_per_run[name]
        failures = accesses - int(shard.reliable_counts[name].sum())
        return failures * monitor.window > accesses

    for name in ("u2", "r2"):
        assert [dense(shard, name) for shard in shards] == [False, True]
    serial = simulator(SerialExecutor()).run_batch(
        runs, iterations, monitor=monitor
    )
    assert any(event.communicator == "u2" for event in serial.monitor_events)
    sharded = simulator(ShardedExecutor(2, processes=processes)).run_batch(
        runs, iterations, monitor=monitor
    )
    assert_identical(serial, sharded)
    assert_identical(serial, merge_batch_results(shards))


def test_sharded_ledger_record_matches_serial():
    _, _, serial_sim = three_tank_simulator()
    spec = serial_sim.spec
    serial = serial_sim.run_batch(12, 25)
    _, _, sharded_sim = three_tank_simulator(
        executor=ShardedExecutor(3)
    )
    sharded = sharded_sim.run_batch(12, 25)

    def record(result):
        return record_from_result(
            spec, three_tank_architecture(), baseline_implementation(),
            result, run_id="s7", command="batch", seed=7, runs=12,
            recorded_at=0.0,
        )

    assert record(serial) == record(sharded)


def test_default_executor_is_serial():
    _, _, simulator = three_tank_simulator()
    assert isinstance(simulator.executor, SerialExecutor)


class _ExplodingFaults(BernoulliFaults):
    """Raises inside ``precompute`` — i.e. inside the shard worker."""

    def precompute(self, plan, runs, iterations, rngs):
        raise RuntimeSimulationError("boom in worker")


def test_worker_failure_propagates():
    spec = three_tank_spec(
        lrc_u=0.99, functions=bind_control_functions()
    )
    arch = three_tank_architecture()
    simulator = BatchSimulator(
        spec, arch, baseline_implementation(),
        faults=_ExplodingFaults(arch), seed=7,
        executor=ShardedExecutor(2),
    )
    with pytest.raises(
        RuntimeSimulationError, match="sharded batch worker failed"
    ):
        simulator.run_batch(4, 10)


# ----------------------------------------------------------------------
# merge_batch_results edge cases.
# ----------------------------------------------------------------------


def run_slices(simulator, runs, iterations, bounds, monitor=None):
    batch = RunRange(simulator.seed, 0, runs)
    return [
        simulator.run_slice(batch.sub(start, stop), iterations, monitor)
        for start, stop in bounds
    ]


def test_merge_rejects_empty_input():
    with pytest.raises(RuntimeSimulationError):
        merge_batch_results([])


def test_merge_with_empty_shard():
    _, _, simulator = three_tank_simulator()
    serial = simulator.run_batch(6, 10)
    shards = run_slices(
        simulator, 6, 10, [(0, 3), (3, 3), (3, 6)]
    )
    assert shards[1].runs == 0
    assert_identical(serial, merge_batch_results(shards))


def test_merge_all_empty_shards_gives_zero_run_result():
    _, _, simulator = three_tank_simulator()
    shards = run_slices(simulator, 6, 10, [(0, 0), (0, 0)])
    merged = merge_batch_results(shards)
    assert merged.runs == 0
    for counts in merged.reliable_counts.values():
        assert counts.shape == (0,)


def test_merge_single_run_shards():
    _, _, simulator = three_tank_simulator()
    serial = simulator.run_batch(5, 10, monitor=MonitorConfig(window=4))
    shards = run_slices(
        simulator, 5, 10, [(k, k + 1) for k in range(5)],
        monitor=MonitorConfig(window=4),
    )
    assert_identical(serial, merge_batch_results(shards))


def test_merge_indivisible_runs():
    # 7 runs over 3 shards: 3 + 2 + 2.
    _, _, simulator = three_tank_simulator()
    serial = simulator.run_batch(7, 10)
    shards = run_slices(simulator, 7, 10, shard_slices(7, 3))
    assert shard_slices(7, 3) == [(0, 3), (3, 5), (5, 7)]
    assert_identical(serial, merge_batch_results(shards))


def test_merge_event_run_indices_are_monotone():
    _, _, simulator = three_tank_simulator()
    shards = run_slices(
        simulator, 14, 30, shard_slices(14, 4),
        monitor=MonitorConfig(window=3),
    )
    merged = merge_batch_results(shards)
    runs = [event.run for event in merged.monitor_events]
    assert runs == sorted(runs)
    assert all(run is not None for run in runs)


def test_merge_rejects_mismatched_iterations():
    _, _, simulator = three_tank_simulator()
    a = run_slices(simulator, 4, 10, [(0, 2)])[0]
    b = run_slices(simulator, 4, 20, [(2, 4)])[0]
    with pytest.raises(RuntimeSimulationError):
        merge_batch_results([a, b])


# ----------------------------------------------------------------------
# slice_batch_result (the cache's runs-downgrade path).
# ----------------------------------------------------------------------


def test_slice_batch_result_is_prefix_identical():
    _, _, simulator = three_tank_simulator()
    large = simulator.run_batch(9, 15, monitor=MonitorConfig(window=4))
    _, _, fresh = three_tank_simulator()
    small = fresh.run_batch(4, 15, monitor=MonitorConfig(window=4))
    assert_identical(small, slice_batch_result(large, 4))
    assert slice_batch_result(large, 9) is large
    with pytest.raises(RuntimeSimulationError):
        slice_batch_result(large, 10)


# ----------------------------------------------------------------------
# Shard tracing spans.
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "executor",
    [ShardedExecutor(3), ShardedExecutor(3, processes=False)],
    ids=["processes", "inline"],
)
def test_shard_spans_are_stamped_in_run_order(executor):
    executor.trace_context = TraceContext("t" * 16, "job-1")
    _, _, simulator = three_tank_simulator(executor=executor)
    result = simulator.run_range(5, 14, 10)
    assert result.runs == 9
    spans = executor.shard_spans
    assert [span["shard"] for span in spans] == [0, 1, 2]
    assert [span["attempt"] for span in spans] == [0, 0, 0]
    assert [(span["run_start"], span["run_stop"]) for span in spans] == [
        (5, 8), (8, 11), (11, 14),
    ]
    assert {span["trace_id"] for span in spans} == {"t" * 16}
    assert {span["job_id"] for span in spans} == {"job-1"}

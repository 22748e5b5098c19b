"""The resilience executive: detect → decide → recover, online.

:class:`ResilientSimulator` runs a design one specification period at
a time on the scalar reference executor, with the online LRC monitor
attached to the simulator's per-write hook and the host-failure
watchdog fed from each period's replica outcomes.  When the watchdog
declares a host dead, the recovery policies are consulted at the
iteration boundary; a verified outcome is committed by recompiling
the simulation plan for the new mapping — deterministically, so the
PR 2 seed contract survives recovery: the same seed produces the same
fault draws, the same detection instants, the same recovery, and the
same event stream, run after run.

``resilient_batch`` loops the executive over the per-run seed
children of :func:`~repro.runtime.batch.run_seeds` — the streams the
batch executor derives in bulk — so run ``k`` of a resilient batch is
bit-identical to a directly constructed :class:`ResilientSimulator`
seeded with child ``k``, events included.

Observers attach as ``sinks=``: they see the engine hook stream of
every chained period and each resilience event as it is emitted, and
the stamped event stream comes back as :attr:`ResilientResult.events`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.arch.architecture import Architecture
from repro.errors import RuntimeSimulationError
from repro.mapping.implementation import Implementation
from repro.model.specification import Specification
from repro.reliability.traces import AbstractTrace
from repro.resilience.detector import (
    HostFailureDetector,
    WatchdogConfig,
)
from repro.resilience.events import (
    HostDead,
    LrcAlarm,
    LrcClear,
    RecoveryCommitted,
    RecoveryFailed,
    ResilienceEvent,
)
from repro.resilience.monitor import LrcMonitor, MonitorConfig
from repro.resilience.policies import (
    RecoveryContext,
    RecoveryOutcome,
    RecoveryPolicy,
    first_applicable,
)
from repro.runtime.batch import run_seeds
from repro.runtime.engine import SimulationResult, Simulator
from repro.runtime.environment import Environment
from repro.runtime.faults import FaultInjector, NoFaults
from repro.runtime.voting import Voter, first_non_bottom
from repro.telemetry.runid import derive_run_id
from repro.telemetry.sink import InstrumentationSink


class _EventRelay:
    """Shared event sink stamping correlation keys on emission.

    Replaces the bare list PR 3 shared between monitor, watchdog, and
    executive: every appended event is stamped with the run's stable
    ``run_id`` and its monotonic emission index ``seq`` (so merged
    batch streams sort deterministically), then fanned out to the
    sinks — one correlated stream per run.
    """

    __slots__ = ("events", "run_id", "sinks")

    def __init__(
        self,
        run_id: str,
        sinks: "tuple[InstrumentationSink, ...]" = (),
    ) -> None:
        self.events: list[ResilienceEvent] = []
        self.run_id = run_id
        self.sinks = sinks

    def append(self, event: ResilienceEvent) -> None:
        import dataclasses

        event = dataclasses.replace(
            event, run_id=self.run_id, seq=len(self.events)
        )
        self.events.append(event)
        for sink in self.sinks:
            sink.on_event(event)


def _implementation_key(
    implementation: Implementation,
) -> tuple:
    """Hashable identity of a static mapping (for the simulator cache)."""
    return (
        tuple(
            (task, tuple(sorted(hosts)))
            for task, hosts in sorted(implementation.assignment.items())
        ),
        tuple(
            (comm, tuple(sorted(sensors)))
            for comm, sensors in sorted(
                implementation.sensor_binding.items()
            )
        ),
    )


@dataclass
class ResilientResult:
    """Outcome of one resilient run: traces, events, and provenance.

    ``implementation_log`` records ``(period, implementation)`` for
    the initial mapping and every committed recovery; ``events`` is
    the full resilience stream (monitor, watchdog, recovery) in
    emission order, ready for :func:`~repro.resilience.events.
    events_to_jsonl`.
    """

    spec: Specification
    iterations: int
    values: dict[str, list[Any]]
    events: tuple[ResilienceEvent, ...]
    implementation_log: tuple[tuple[int, Implementation], ...]
    recoveries: tuple[RecoveryOutcome, ...]
    monitor: "LrcMonitor | None"
    detector: "HostFailureDetector | None"
    replica_attempts: dict[tuple[str, str], int] = field(
        default_factory=dict
    )
    replica_failures: dict[tuple[str, str], int] = field(
        default_factory=dict
    )
    final_store: dict[str, Any] = field(default_factory=dict)

    # -- trace statistics ----------------------------------------------

    def abstract(self) -> dict[str, AbstractTrace]:
        """Return the reliability-based abstract trace per communicator."""
        return {
            name: AbstractTrace.from_values(name, values)
            for name, values in self.values.items()
        }

    def limit_averages(self) -> dict[str, float]:
        """Return the observed reliable fraction per communicator."""
        return {
            name: trace.limit_average()
            for name, trace in self.abstract().items()
        }

    def satisfies_lrcs(self, slack: float = 0.0) -> bool:
        """Check every LRC against the observed limit averages."""
        averages = self.limit_averages()
        return all(
            averages[name] >= comm.lrc - slack
            for name, comm in self.spec.communicators.items()
        )

    # -- event queries --------------------------------------------------

    def events_of(self, *kinds: type) -> list[ResilienceEvent]:
        """Return the events that are instances of any of *kinds*."""
        return [e for e in self.events if isinstance(e, kinds)]

    def detection_time(self, host: str) -> "int | None":
        """Return the instant *host* was declared dead, or ``None``."""
        for event in self.events:
            if isinstance(event, HostDead) and event.host == host:
                return event.time
        return None

    def violation_windows(
        self, communicator: str
    ) -> list[tuple[int, "int | None"]]:
        """Return ``(alarm_time, clear_time)`` pairs for *communicator*.

        An open violation (never cleared) has ``clear_time = None``.
        """
        windows: list[tuple[int, "int | None"]] = []
        open_at: "int | None" = None
        for event in self.events:
            if isinstance(event, LrcAlarm) and (
                event.communicator == communicator
            ):
                open_at = event.time
            elif isinstance(event, LrcClear) and (
                event.communicator == communicator
            ):
                if open_at is not None:
                    windows.append((open_at, event.time))
                    open_at = None
        if open_at is not None:
            windows.append((open_at, None))
        return windows

    def windowed_rate(self, communicator: str) -> "float | None":
        """Return the monitor's final windowed rate for *communicator*."""
        if self.monitor is None:
            return None
        return self.monitor.rate(communicator)

    def summary(self) -> str:
        """Return a human-readable multi-line summary."""
        lines = [
            f"resilient simulation over {self.iterations} iterations "
            f"({len(self.recoveries)} recoveries, "
            f"{len(self.events)} events)"
        ]
        averages = self.limit_averages()
        for name in sorted(averages):
            lrc = self.spec.communicators[name].lrc
            mark = "ok " if averages[name] >= lrc else "LOW"
            windowed = self.windowed_rate(name)
            tail = (
                f", windowed {windowed:.4f}" if windowed is not None else ""
            )
            lines.append(
                f"  [{mark}] {name}: observed {averages[name]:.6f} "
                f"(LRC {lrc:.6f}{tail})"
            )
        for period, implementation in self.implementation_log[1:]:
            assignment = {
                task: sorted(hosts)
                for task, hosts in sorted(
                    implementation.assignment.items()
                )
            }
            lines.append(
                f"  recovery at period {period}: {assignment}"
            )
        return "\n".join(lines)


class ResilientSimulator:
    """Scalar executor with online monitoring and recovery.

    Parameters
    ----------
    spec, arch, implementation:
        The design to execute; *implementation* must be a static
        mapping (recovery rewrites it wholesale).
    monitor:
        :class:`MonitorConfig` enabling the online LRC monitor.
    watchdog:
        :class:`WatchdogConfig` enabling the host-failure detector.
        Required when *policies* are given.
    policies:
        Recovery policies consulted, in order, when the watchdog
        declares a host dead.  The first verified outcome is
        committed at the next iteration boundary.
    max_recoveries:
        Upper bound on committed recoveries per run.
    environment, faults, voter, actuator_communicators, seed:
        As for :class:`~repro.runtime.engine.Simulator`.  The seed
        governs every stochastic fault draw; two runs with the same
        seed produce identical traces *and* identical event streams.
    sinks:
        :class:`~repro.telemetry.sink.InstrumentationSink`
        subscribers (tracer, metrics, a
        :class:`~repro.telemetry.provenance.ProvenanceRecorder`, ...):
        they receive the engine hook stream of every chained period,
        after the online monitor, *and* each resilience event as it
        is emitted, stamped.
    run_id:
        Correlation key stamped on every event; defaults to
        :func:`~repro.telemetry.runid.derive_run_id` of the seed, so
        a ``resilient_batch`` run and its directly constructed
        equivalent agree without coordination.
    """

    def __init__(
        self,
        spec: Specification,
        arch: Architecture,
        implementation: Implementation,
        *,
        environment: "Environment | None" = None,
        faults: "FaultInjector | None" = None,
        voter: Voter = first_non_bottom,
        actuator_communicators: "Iterable[str] | None" = None,
        seed: "int | np.random.Generator" = 0,
        monitor: "MonitorConfig | None" = None,
        watchdog: "WatchdogConfig | None" = None,
        policies: Sequence[RecoveryPolicy] = (),
        max_recoveries: int = 4,
        sinks: Iterable[InstrumentationSink] = (),
        run_id: "str | None" = None,
    ) -> None:
        if not isinstance(implementation, Implementation):
            raise RuntimeSimulationError(
                "ResilientSimulator needs a static Implementation; "
                "recovery rewrites the mapping at iteration boundaries"
            )
        if policies and watchdog is None:
            watchdog = WatchdogConfig()
        self.spec = spec
        self.arch = arch
        self.implementation = implementation
        self.environment = environment
        self.faults = faults or NoFaults()
        self.voter = voter
        self.actuators = actuator_communicators
        self.seed = seed
        self.monitor_config = monitor
        self.watchdog_config = watchdog
        self.policies = tuple(policies)
        self.max_recoveries = max_recoveries
        self.sinks: "tuple[InstrumentationSink, ...]" = tuple(sinks)
        self.run_id = run_id

    # ------------------------------------------------------------------

    def _heard_hosts(
        self,
        implementation: Implementation,
        result: SimulationResult,
    ) -> dict[str, bool]:
        """Per-host: was any broadcast heard in the period just run?

        A host is heard when at least one of its replica invocations
        completed *and* its broadcast was delivered — exactly the
        complement of the engine's per-replica failure count, and the
        only liveness signal fail-silent hosts emit.
        """
        heard: dict[str, bool] = {}
        for task, hosts in implementation.assignment.items():
            for host in hosts:
                attempts = result.replica_attempts.get((task, host), 0)
                failures = result.replica_failures.get((task, host), 0)
                if attempts > failures:
                    heard[host] = True
                else:
                    heard.setdefault(host, False)
        return heard

    def run(self, iterations: int) -> ResilientResult:
        """Execute *iterations* periods with monitoring and recovery."""
        if iterations <= 0:
            raise RuntimeSimulationError(
                f"iterations must be positive, got {iterations}"
            )
        rng = (
            self.seed
            if isinstance(self.seed, np.random.Generator)
            else np.random.default_rng(self.seed)
        )
        run_id = (
            self.run_id if self.run_id is not None else derive_run_id(rng)
        )
        relay = _EventRelay(run_id, self.sinks)
        events = relay.events
        monitor = (
            LrcMonitor(self.spec, self.monitor_config, sink=relay)
            if self.monitor_config is not None
            else None
        )
        detector = (
            HostFailureDetector(
                self.arch.hosts, self.watchdog_config, sink=relay
            )
            if self.watchdog_config is not None
            else None
        )
        hook_sinks = (
            self.sinks if monitor is None else (monitor, *self.sinks)
        )

        simulators: dict[tuple, Simulator] = {}

        def simulator_for(implementation: Implementation) -> Simulator:
            key = _implementation_key(implementation)
            if key not in simulators:
                simulators[key] = Simulator(
                    self.spec,
                    self.arch,
                    implementation,
                    environment=self.environment,
                    faults=self.faults,
                    voter=self.voter,
                    actuator_communicators=self.actuators,
                    seed=rng,
                    sinks=hook_sinks,
                )
            return simulators[key]

        current = self.implementation
        period = simulator_for(current).period
        self.faults.begin_run(rng, iterations * period)

        store: "dict[str, Any] | None" = None
        values: dict[str, list[Any]] = {
            name: [] for name in self.spec.communicators
        }
        attempts: dict[tuple[str, str], int] = {}
        failures: dict[tuple[str, str], int] = {}
        implementation_log: list[tuple[int, Implementation]] = [
            (0, current)
        ]
        recoveries: list[RecoveryOutcome] = []
        acted_on: frozenset[str] = frozenset()

        for index in range(iterations):
            simulator = simulator_for(current)
            result = simulator.run(
                1,
                start_time=index * period,
                initial_store=store,
                flush_final_commits=True,
                reset_faults=False,
            )
            store = result.final_store
            for name, trace in result.values.items():
                values[name].extend(trace)
            for key, count in result.replica_attempts.items():
                attempts[key] = attempts.get(key, 0) + count
            for key, count in result.replica_failures.items():
                failures[key] = failures.get(key, 0) + count

            boundary = (index + 1) * period
            if detector is None:
                continue
            for host, heard in sorted(
                self._heard_hosts(current, result).items()
            ):
                detector.observe(host, boundary, heard)

            dead = detector.dead_hosts()
            if (
                not (dead - acted_on)
                or not self.policies
                or len(recoveries) >= self.max_recoveries
            ):
                continue
            acted_on = dead
            context = RecoveryContext(
                spec=self.spec,
                arch=self.arch,
                implementation=current,
                dead_hosts=dead,
                time=boundary,
            )
            outcome = first_applicable(self.policies, context)
            if outcome is None:
                relay.append(
                    RecoveryFailed(
                        time=boundary,
                        dead_hosts=tuple(sorted(dead)),
                        reason=(
                            "no policy produced a configuration whose "
                            "recomputed SRGs meet the constraints"
                        ),
                    )
                )
                continue
            relay.append(
                RecoveryCommitted(
                    time=boundary,
                    policy=outcome.policy,
                    dead_hosts=tuple(sorted(dead)),
                    assignment={
                        task: tuple(sorted(hosts))
                        for task, hosts in sorted(
                            outcome.implementation.assignment.items()
                        )
                    },
                    srgs=outcome.report.srgs(),
                )
            )
            recoveries.append(outcome)
            current = outcome.implementation
            implementation_log.append((index + 1, current))

        return ResilientResult(
            spec=self.spec,
            iterations=iterations,
            values=values,
            events=tuple(events),
            implementation_log=tuple(implementation_log),
            recoveries=tuple(recoveries),
            monitor=monitor,
            detector=detector,
            replica_attempts=attempts,
            replica_failures=failures,
            final_store=store or {},
        )


@dataclass
class ResilientBatchResult:
    """Per-run reliable-access counts and events of a resilient batch."""

    spec: Specification
    runs: int
    iterations: int
    reliable_counts: dict[str, np.ndarray]
    samples_per_run: dict[str, int]
    events: tuple[ResilienceEvent, ...]
    recovery_counts: np.ndarray
    executor: str = "scalar-resilient"

    def limit_averages(self) -> dict[str, np.ndarray]:
        """Return the per-run reliable fraction per communicator."""
        return {
            name: counts / self.samples_per_run[name]
            for name, counts in self.reliable_counts.items()
        }

    def events_for_run(self, run: int) -> list[ResilienceEvent]:
        """Return run *run*'s slice of the event stream, in order."""
        return [e for e in self.events if e.run == run]


def resilient_batch(
    spec: Specification,
    arch: Architecture,
    implementation: Implementation,
    runs: int,
    iterations: int,
    seed: int = 0,
    *,
    environment_factory: "Callable[[], Environment] | None" = None,
    faults: "FaultInjector | None" = None,
    voter: Voter = first_non_bottom,
    actuator_communicators: "Iterable[str] | None" = None,
    monitor: "MonitorConfig | None" = None,
    watchdog: "WatchdogConfig | None" = None,
    policies: Sequence[RecoveryPolicy] = (),
    max_recoveries: int = 4,
) -> ResilientBatchResult:
    """Run *runs* independent resilient simulations on spawned seeds.

    Recovery decisions depend on each run's own fault draws, so the
    detect→decide→recover loop is inherently per-run; this helper
    preserves the batch seed contract by looping the scalar resilient
    executive over the :func:`~repro.runtime.batch.run_seeds`
    children, whose streams the vectorized executor derives in bulk
    (:func:`~repro.runtime.batch.run_streams`).  Run ``k`` (counts and
    events alike) is bit-identical to ``ResilientSimulator(...,
    seed=np.random.default_rng(children[k]))``.
    """
    if runs <= 0:
        raise RuntimeSimulationError(
            f"runs must be positive, got {runs}"
        )
    children = run_seeds(seed, 0, runs)
    counts = {
        name: np.zeros(runs, dtype=np.int64)
        for name in spec.communicators
    }
    samples: dict[str, int] = {}
    events: list[ResilienceEvent] = []
    recovery_counts = np.zeros(runs, dtype=np.int64)
    for k, child in enumerate(children):
        environment = (
            environment_factory()
            if environment_factory is not None
            else None
        )
        simulator = ResilientSimulator(
            spec,
            arch,
            implementation,
            environment=environment,
            faults=faults,
            voter=voter,
            actuator_communicators=actuator_communicators,
            seed=np.random.default_rng(child),
            monitor=monitor,
            watchdog=watchdog,
            policies=policies,
            max_recoveries=max_recoveries,
        )
        result = simulator.run(iterations)
        for name, trace in result.abstract().items():
            counts[name][k] = trace.reliable_count()
            samples[name] = len(trace)
        events.extend(
            _with_run(event, k) for event in result.events
        )
        recovery_counts[k] = len(result.recoveries)
    return ResilientBatchResult(
        spec=spec,
        runs=runs,
        iterations=iterations,
        reliable_counts=counts,
        samples_per_run=samples,
        events=tuple(events),
        recovery_counts=recovery_counts,
    )


def _with_run(event: ResilienceEvent, run: int) -> ResilienceEvent:
    """Return *event* tagged with the batch run index."""
    import dataclasses

    return dataclasses.replace(event, run=run)

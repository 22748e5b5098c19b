"""The vectorized batched Monte-Carlo executor.

:class:`BatchSimulator` consumes the same compiled
:class:`~repro.runtime.plan.SimulationPlan` as the scalar reference
:class:`~repro.runtime.engine.Simulator`, but evaluates only the
reliability abstraction: instead of executing task functions on
values, it samples the fault model for all runs at once as
``(runs, slots, iterations)`` boolean tensors, propagates
reliable/``BOTTOM`` status through the plan's dependency order with
array operations, and aggregates per-communicator reliable-access
counts without materializing per-run value traces.

Seed contract
-------------
Run ``k`` of a batch seeded with ``seed`` draws from
``np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))``
— child ``k`` of ``np.random.SeedSequence(seed).spawn(runs)``, for
any ``runs > k``.  A batch run is bit-identical to a scalar
simulation seeded with that generator; the differential test suite
holds the two executors to exactly this.

:meth:`BatchSimulator.run_range` simulates the global runs
``[start, stop)`` as one :class:`RunRange` (seed, start, stop):
``run_batch`` is ``run_range(0, runs)``, the adaptive driver runs one
range per checkpoint chunk, and the service simulates cache tails the
same way.  Because run ``k`` does not depend on the batch size, any
*contiguous slice* of a batch can be computed in isolation:
:meth:`BatchSimulator.run_slice` executes one range, and the pluggable
executors of :mod:`repro.runtime.executor` exploit that to shard one
batch across worker processes with bit-identical results
(``SerialExecutor`` / ``ShardedExecutor`` / ``merge_batch_results``).

This module is the one place that derives per-run seeds (the
determinism lint keeps them out of every other module), in two forms
that draw the same numbers:

* :func:`run_streams` serves the vectorized path.  It ports numpy's
  spawn-key hashing and PCG64 seeding to array arithmetic over ``k``
  and hands out cursors over one shared generator, so a 10k-run slice
  costs no per-run ``SeedSequence`` or ``Generator`` object.  It
  covers the first :data:`MAX_STREAM_RUNS` runs (one-word spawn keys).
* :func:`run_seeds` builds the real ``SeedSequence`` children for the
  scalar paths — the fallback below and
  :func:`~repro.resilience.executive.resilient_batch` — which need
  real generators and :func:`~repro.telemetry.runid.derive_run_id`
  ids.

Fallback rules
--------------
The vectorized path requires (a) a fault injector that implements
:meth:`~repro.runtime.faults.FaultInjector.precompute` (Bernoulli,
scripted, and their composites do; value faults and custom injectors
don't), and (b) a specification whose communicator cycles, if any,
are broken by independent-model tasks (otherwise reliability
propagation is a genuine per-iteration recurrence).  When either
fails, :meth:`run_batch` transparently loops the scalar simulator
over the :func:`run_seeds` children — same counts, scalar speed —
which additionally requires task functions to be bound.
"""

from __future__ import annotations

import dataclasses
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping

import numpy as np

from repro.arch.architecture import Architecture
from repro.errors import RuntimeSimulationError
from repro.mapping.implementation import Implementation
from repro.mapping.timedep import TimeDependentImplementation
from repro.model.specification import Specification
from repro.model.task import FailureModel
from repro.runtime.environment import Environment
from repro.runtime.faults import FaultInjector, NoFaults, PrecomputedFaults
from repro.runtime.plan import PortSlot, SimulationPlan, compile_plan
from repro.telemetry.profiler import NULL_PROFILER, StageProfiler

if TYPE_CHECKING:  # pragma: no cover
    from repro.resilience.events import ResilienceEvent
    from repro.resilience.monitor import MonitorConfig
    from repro.runtime.executor import BatchExecutor


@dataclass
class BatchResult:
    """Per-communicator reliable-access counts of a batch of runs.

    ``reliable_counts[c][k]`` is the number of reliable accesses of
    communicator ``c`` observed in run ``k`` — exactly
    ``SimulationResult.abstract()[c].reliable_count()`` of the
    equivalent scalar run.  ``samples_per_run[c]`` is the common
    number of accesses per run (iterations times accesses per
    period).  ``monitor_events`` holds the online monitor's alarm and
    clear events (empty unless a monitor config was passed), each
    tagged with its batch run index — per run and per communicator
    exactly the events the scalar monitor would emit.
    """

    spec: Specification
    runs: int
    iterations: int
    reliable_counts: dict[str, np.ndarray]
    samples_per_run: dict[str, int]
    executor: str  # "vectorized" | "scalar-fallback"
    monitor_events: "tuple[ResilienceEvent, ...]" = field(default=())

    def monitor_events_for_run(self, run: int) -> "list[ResilienceEvent]":
        """Return run *run*'s monitor events, in emission order."""
        return [e for e in self.monitor_events if e.run == run]

    def limit_averages(self) -> dict[str, np.ndarray]:
        """Return the per-run reliable fraction per communicator."""
        return {
            name: counts / self.samples_per_run[name]
            for name, counts in self.reliable_counts.items()
        }

    def pooled_counts(self) -> dict[str, tuple[int, int]]:
        """Return pooled ``(successes, samples)`` per communicator.

        The per-access reliability events of all runs are i.i.d.
        (independent seeds), so pooling them is statistically sound.
        """
        return {
            name: (
                int(counts.sum()),
                self.samples_per_run[name] * self.runs,
            )
            for name, counts in self.reliable_counts.items()
        }

    def prefix_pooled_counts(
        self, runs: int
    ) -> dict[str, tuple[int, int]]:
        """Pooled ``(successes, samples)`` over the first *runs* runs.

        Under the spawn contract the first *runs* runs of a larger
        batch are exactly the runs of a ``runs``-sized batch, so this
        is the pooled statistic a truncated batch would report —
        which is how the convergence layer replays checkpoint
        trajectories over cached results without re-simulating.
        """
        if runs < 0 or runs > self.runs:
            raise RuntimeSimulationError(
                f"cannot pool {runs} of {self.runs} runs"
            )
        return {
            name: (
                int(counts[:runs].sum()),
                self.samples_per_run[name] * runs,
            )
            for name, counts in self.reliable_counts.items()
        }

    def srg_estimates(self) -> dict[str, float]:
        """Return the pooled reliable fraction per communicator."""
        return {
            name: successes / samples
            for name, (successes, samples) in self.pooled_counts().items()
        }

    def empirical_margins(self) -> dict[str, float]:
        """Pooled empirical LRC margin per communicator.

        ``rate - mu_c`` over the pooled runs (``>= 0`` is compliant) —
        the quantity the run ledger records and ``repro runs
        diff|regress`` compare across runs.
        """
        estimates = self.srg_estimates()
        return {
            name: estimates[name] - comm.lrc
            for name, comm in self.spec.communicators.items()
        }

    def lrc_tests(self, confidence: float = 0.99) -> dict:
        """Run the binomial LRC compliance test on the pooled counts."""
        from repro.reliability.stats import lrc_test_from_counts

        pooled = self.pooled_counts()
        return {
            name: lrc_test_from_counts(
                name,
                successes=pooled[name][0],
                samples=pooled[name][1],
                lrc=comm.lrc,
                confidence=confidence,
            )
            for name, comm in sorted(self.spec.communicators.items())
        }

    def satisfies_lrcs(self, slack: float = 0.0) -> bool:
        """Check every LRC against the pooled reliable fractions."""
        estimates = self.srg_estimates()
        return all(
            estimates[name] >= comm.lrc - slack
            for name, comm in self.spec.communicators.items()
        )

    def summary(self) -> str:
        """Return a human-readable multi-line summary."""
        lines = [
            f"batch of {self.runs} runs x {self.iterations} iterations "
            f"({self.executor})"
        ]
        estimates = self.srg_estimates()
        for name in sorted(estimates):
            lrc = self.spec.communicators[name].lrc
            mark = "ok " if estimates[name] >= lrc else "LOW"
            lines.append(
                f"  [{mark}] {name}: observed {estimates[name]:.6f} "
                f"(LRC {lrc:.6f}, {self.samples_per_run[name] * self.runs} "
                f"samples)"
            )
        return "\n".join(lines)


def run_seeds(
    seed: "int | None", start: int, stop: int
) -> list[np.random.SeedSequence]:
    """The per-run seed children of runs ``[start, stop)`` of a batch.

    Run ``k`` gets ``SeedSequence(seed, spawn_key=(k,))`` — child
    ``k`` of ``SeedSequence(seed).spawn(n)`` for any ``n > k``, with
    the same draws and the same
    :func:`~repro.telemetry.runid.derive_run_id`.  The scalar paths
    (the batch fallback and ``resilient_batch``) seed real generators
    from these; the vectorized path uses :func:`run_streams`.
    """
    return [
        np.random.SeedSequence(seed, spawn_key=(k,))
        for k in range(start, stop)
    ]


#: Runs ``[0, MAX_STREAM_RUNS)`` have a one-word spawn key, the only
#: case :func:`run_streams` ports.
MAX_STREAM_RUNS = 1 << 32

# numpy's SeedSequence hash constants (``numpy/random/bit_generator.pyx``)
# and PCG64's 128-bit LCG multiplier (``pcg64.h``).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash(value, const: int, mult: int):
    """One SeedSequence hash step: ``(hashed value, next constant)``.

    *value* is a Python int or a uint64 array of uint32 words; the
    constant sequence does not depend on the values hashed.
    """
    value = value ^ const
    const = (const * mult) & _MASK32
    value = (value * const) & _MASK32
    return value ^ (value >> _XSHIFT), const


def _mix(x, y):
    """SeedSequence's pool-word mixing function (uint32 arithmetic)."""
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> _XSHIFT)


def _stream_keys(entropy: int, start: int, stop: int) -> np.ndarray:
    """PCG64 seed words of runs ``[start, stop)`` as ``(n, 4)`` uint64.

    Row ``k - start`` equals
    ``SeedSequence(entropy, spawn_key=(k,)).generate_state(4, np.uint64)``:
    the pool mixed from the seed words is common to every run, so only
    the spawn-key word and the output hash are computed per run, as
    array arithmetic over ``k``.
    """
    words = []
    while True:
        words.append(entropy & _MASK32)
        entropy >>= 32
        if not entropy:
            break
    # A spawned sequence pads its run entropy to the pool size.
    words += [0] * (_POOL_SIZE - len(words))
    const = _INIT_A
    pool = []
    for word in words[:_POOL_SIZE]:
        hashed, const = _hash(word, const, _MULT_A)
        pool.append(hashed)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                hashed, const = _hash(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], hashed)
    keys = np.arange(start, stop, dtype=np.uint64)
    for word in words[_POOL_SIZE:] + [keys]:
        for dst in range(_POOL_SIZE):
            hashed, const = _hash(word, const, _MULT_A)
            pool[dst] = _mix(pool[dst], hashed)
    const = _INIT_B
    state = []
    for i in range(2 * _POOL_SIZE):
        hashed, const = _hash(pool[i % _POOL_SIZE], const, _MULT_B)
        state.append(hashed)
    return np.stack(
        [state[2 * j] | (state[2 * j + 1] << 32) for j in range(_POOL_SIZE)],
        axis=1,
    )


def _pcg64_states(keys: np.ndarray) -> tuple[list[int], list[int]]:
    """PCG64's ``srandom`` seeding of every row of *keys*.

    Returns the runs' 128-bit ``(states, incs)`` as Python ints —
    plain lists, so deriving 10k runs allocates no container per run.
    """
    s_hi, s_lo, i_hi, i_lo = (column.tolist() for column in keys.T)
    incs = [
        ((((hi << 64) | lo) << 1) | 1) & _MASK128
        for hi, lo in zip(i_hi, i_lo)
    ]
    states = [
        (((inc + ((hi << 64) | lo)) & _MASK128) * _PCG64_MULTIPLIER + inc)
        & _MASK128
        for inc, hi, lo in zip(incs, s_hi, s_lo)
    ]
    return states, incs


@dataclass(frozen=True)
class RunRange:
    """Global runs ``[start, stop)`` of the batch seeded with *seed*.

    The small picklable unit of work executors hand to
    :meth:`BatchSimulator.run_slice`: a worker derives the runs'
    generators itself (:func:`run_streams`), and monitor events carry
    the global run indices.  *seed* is resolved entropy (an int), so
    every shard of one batch derives from the same seed.
    """

    seed: int
    start: int
    stop: int

    def __post_init__(self) -> None:
        if not 0 <= self.start <= self.stop:
            raise RuntimeSimulationError(
                f"run range [{self.start}, {self.stop}) is negative or "
                f"reversed"
            )
        if self.stop > MAX_STREAM_RUNS:
            raise RuntimeSimulationError(
                f"run range [{self.start}, {self.stop}) passes "
                f"{MAX_STREAM_RUNS} runs, the one-word spawn-key limit "
                f"of the batch path"
            )

    @classmethod
    def of(cls, seed: "int | None", start: int, stop: int) -> "RunRange":
        """The range of *seed*'s batch, with *seed* resolved to entropy."""
        return cls(int(np.random.SeedSequence(seed).entropy), start, stop)

    def __len__(self) -> int:
        return self.stop - self.start

    def sub(self, start: int, stop: int) -> "RunRange":
        """Local runs ``[start, stop)`` of this range, as a range."""
        return RunRange(self.seed, self.start + start, self.start + stop)


class _RunStream:
    """Run ``k``'s generator: a cursor over its sequence's shared one.

    Every ``numpy.random.Generator`` method is available and draws
    exactly what ``default_rng(SeedSequence(seed, spawn_key=(k,)))``
    would draw, however calls to different runs interleave.  The
    run's position lives in the sequence, so every cursor of run
    ``k`` continues the same stream.
    """

    __slots__ = ("_streams", "_index")

    def __init__(self, streams: "_RunStreams", index: int) -> None:
        self._streams = streams
        self._index = index

    def random(self, *args, **kwargs):
        return self._streams._take(self._index).random(*args, **kwargs)

    def __getattr__(self, name: str):
        method = getattr(np.random.Generator, name, None)
        if name.startswith("_") or name == "spawn" or not callable(method):
            raise AttributeError(
                f"run streams expose Generator draw methods only, "
                f"not {name!r}"
            )

        def draw(*args, **kwargs):
            generator = self._streams._take(self._index)
            return getattr(generator, name)(*args, **kwargs)

        return draw


class _RunStreams(Sequence):
    """The generators of runs ``[start, stop)`` (see :func:`run_streams`)."""

    def __init__(self, runs: RunRange) -> None:
        # Per-run PCG64 positions: the seeded state until the run
        # first hands the shared generator on, then its saved state.
        self._states, self._incs = _pcg64_states(
            _stream_keys(runs.seed, runs.start, runs.stop)
        )
        self._has_uint32 = [0] * len(runs)
        self._uinteger = [0] * len(runs)
        self._bit_generator = np.random.PCG64(0)
        self._generator = np.random.Generator(self._bit_generator)
        self._active = -1

    def __len__(self) -> int:
        return len(self._states)

    def __getitem__(self, index: int) -> _RunStream:
        return _RunStream(self, range(len(self))[operator.index(index)])

    def _take(self, index: int) -> np.random.Generator:
        """Hand the shared generator to run *index*, at its position."""
        active = self._active
        if active != index:
            bit_generator = self._bit_generator
            if active >= 0:
                saved = bit_generator.state
                self._states[active] = saved["state"]["state"]
                self._has_uint32[active] = saved["has_uint32"]
                self._uinteger[active] = saved["uinteger"]
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {
                    "state": self._states[index],
                    "inc": self._incs[index],
                },
                "has_uint32": self._has_uint32[index],
                "uinteger": self._uinteger[index],
            }
            self._active = index
        return self._generator


def run_streams(
    seed: "int | None", start: int, stop: int
) -> "Sequence[np.random.Generator]":
    """The generators of runs ``[start, stop)``, derived in bulk.

    Item ``k`` draws exactly what
    ``np.random.default_rng(np.random.SeedSequence(seed,
    spawn_key=(start + k,)))`` draws, from any ``Generator`` method,
    but costs no per-run ``SeedSequence`` or generator object: the
    spawn-key hashing is array arithmetic over ``k`` and the items are
    cursors that take turns on one ``PCG64``.  Raises
    :class:`~repro.errors.RuntimeSimulationError` past
    :data:`MAX_STREAM_RUNS` runs.
    """
    return _RunStreams(RunRange.of(seed, start, stop))


class BatchSimulator:
    """Vectorized Monte-Carlo executor over a compiled simulation plan.

    Parameters
    ----------
    spec, arch, implementation:
        The design to execute; compiled once into a
        :class:`SimulationPlan` shared by every batch.
    faults:
        Fault injector; defaults to :class:`NoFaults`.  Injectors
        without a ``precompute`` implementation force the scalar
        fallback.
    seed:
        Default batch seed (overridable per :meth:`run_batch` call);
        see the module docstring for the spawning contract.
    environment_factory:
        Builds a fresh environment per run for the scalar fallback
        path; the vectorized path never evaluates values and ignores
        it.
    profiler:
        :class:`~repro.telemetry.profiler.StageProfiler` timing the
        executor's phases (``plan-compile``, ``seed-derivation``,
        ``fault-precompute``, ``status-collapse``, ``propagate``,
        ``reduce``, ``monitor``, ``scalar-fallback``).  Defaults to
        the null profiler, whose per-stage cost is one no-op context
        manager.
    executor:
        :class:`~repro.runtime.executor.BatchExecutor` strategy
        :meth:`run_batch` delegates to.  Defaults to the in-process
        :class:`~repro.runtime.executor.SerialExecutor`; pass a
        :class:`~repro.runtime.executor.ShardedExecutor` to fan the
        batch out across worker processes (bit-identical results
        under the spawn-key contract).
    """

    def __init__(
        self,
        spec: Specification,
        arch: Architecture,
        implementation: "Implementation | TimeDependentImplementation",
        faults: FaultInjector | None = None,
        seed: int = 0,
        environment_factory: "Callable[[], Environment] | None" = None,
        profiler: "StageProfiler | None" = None,
        executor: "BatchExecutor | None" = None,
    ) -> None:
        self.spec = spec
        self.arch = arch
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        with self.profiler.stage("plan-compile"):
            self.plan: SimulationPlan = compile_plan(
                spec, arch, implementation
            )
        self.faults = faults or NoFaults()
        self.seed = seed
        self.environment_factory = environment_factory
        if executor is None:
            from repro.runtime.executor import SerialExecutor

            executor = SerialExecutor()
        self.executor = executor

    # ------------------------------------------------------------------

    def run_batch(
        self,
        runs: int,
        iterations: int,
        seed: "int | None" = None,
        monitor: "MonitorConfig | None" = None,
    ) -> BatchResult:
        """Execute *runs* independent simulations of *iterations* periods.

        Returns the per-communicator reliable-access counts of every
        run.  Vectorized whenever the plan and the injector allow it;
        otherwise loops the scalar simulator over the same spawned
        seeds (bit-identical counts either way).

        With a *monitor* config, the online LRC monitor runs over
        every batch run: vectorized as windowed counts over the
        per-access status tensors (no per-run Python loop), or as one
        scalar monitor per run on the fallback path.  The resulting
        alarm/clear events land in ``BatchResult.monitor_events``.
        """
        if runs <= 0:
            raise RuntimeSimulationError(
                f"runs must be positive, got {runs}"
            )
        return self.run_range(0, runs, iterations, seed, monitor)

    def run_range(
        self,
        start: int,
        stop: int,
        iterations: int,
        seed: "int | None" = None,
        monitor: "MonitorConfig | None" = None,
    ) -> BatchResult:
        """Simulate the global runs ``[start, stop)`` of *seed*'s batch.

        Run ``k`` draws from child ``k`` of *seed* (see the module
        docstring).  The result is bit-identical to runs
        ``start..stop-1`` of ``run_batch(stop, ...)`` — counts, and
        monitor events tagged with global run indices — so it merges
        onto a cached or already-simulated prefix with
        :func:`~repro.runtime.executor.merge_batch_results`.  Raises
        :class:`~repro.errors.RuntimeSimulationError` past
        :data:`MAX_STREAM_RUNS` runs.
        """
        if not 0 <= start < stop:
            raise RuntimeSimulationError(
                f"run range [{start}, {stop}) is empty or negative"
            )
        if iterations <= 0:
            raise RuntimeSimulationError(
                f"iterations must be positive, got {iterations}"
            )
        runs = RunRange.of(self.seed if seed is None else seed, start, stop)
        return self.executor.execute(self, runs, iterations, monitor)

    def run_adaptive(
        self,
        max_runs: int,
        iterations: int,
        rule: "object | None" = None,
        seed: "int | None" = None,
        monitor: "MonitorConfig | None" = None,
        on_checkpoint: "Callable[..., None] | None" = None,
    ):
        """Run until a stopping rule fires, within a *max_runs* budget.

        Drives :func:`~repro.telemetry.convergence.drive_adaptive`
        with :meth:`run_range` as the chunk runner: the batch grows
        chunk by chunk along the rule's checkpoint schedule, and at
        every boundary the
        :class:`~repro.telemetry.convergence.StoppingRule` decides on
        a convergence snapshot of the pooled counts.  Because chunks
        are contiguous ranges of the one run sequence and decisions
        are pure functions of pooled counts, the result is
        **bit-identical** to ``run_batch(stopped_at, iterations)`` of
        the same seed, and the stop point does not depend on the
        executor.

        *on_checkpoint* observes each
        :class:`~repro.telemetry.convergence.ConvergenceSnapshot` as
        it is taken.  Returns an
        :class:`~repro.telemetry.convergence.AdaptiveResult`.
        """
        from repro.telemetry.convergence import (
            StoppingRule,
            drive_adaptive,
        )

        if rule is None:
            rule = StoppingRule()
        if not isinstance(rule, StoppingRule):
            raise RuntimeSimulationError(
                f"rule must be a StoppingRule, got {type(rule).__name__}"
            )
        if max_runs <= 0:
            raise RuntimeSimulationError(
                f"max_runs must be positive, got {max_runs}"
            )
        return drive_adaptive(
            rule,
            max_runs,
            lambda start, stop: self.run_range(
                start, stop, iterations, seed, monitor
            ),
            on_snapshot=(
                None if on_checkpoint is None
                else lambda snapshot, decision: on_checkpoint(snapshot)
            ),
        )

    def run_slice(
        self,
        runs: RunRange,
        iterations: int,
        monitor: "MonitorConfig | None" = None,
    ) -> BatchResult:
        """Execute the global runs of one :class:`RunRange`.

        The slice primitive beneath every executor: it derives the
        runs' generators itself (:func:`run_streams`), and tags
        monitor events with the *global* run indices, so disjoint
        slices of one batch merge (via
        :func:`~repro.runtime.executor.merge_batch_results`) into
        exactly the unsharded result.
        """
        count = len(runs)
        if count == 0:
            return self._empty_result(iterations)
        masks: PrecomputedFaults | None = None
        if self.plan.batch_order is not None:
            with self.profiler.stage("seed-derivation"):
                rngs = run_streams(runs.seed, runs.start, runs.stop)
            with self.profiler.stage("fault-precompute"):
                masks = self.faults.precompute(
                    self.plan, count, iterations, rngs
                )
        if masks is None:
            # A declining precompute may have consumed draws; the
            # fallback seeds fresh generators from run_seeds.
            with self.profiler.stage("scalar-fallback"):
                return self._run_scalar(runs, iterations, monitor)
        return self._run_vectorized(
            masks, count, iterations, monitor, runs.start
        )

    def _empty_result(self, iterations: int) -> BatchResult:
        """The zero-run result (identity element of a merge)."""
        plan = self.plan
        counts = {}
        samples = {}
        for ci, name in enumerate(plan.comm_names):
            counts[name] = np.zeros(0, dtype=np.int64)
            samples[name] = int(plan.accesses_per_period[ci]) * iterations
        return BatchResult(
            spec=self.spec,
            runs=0,
            iterations=iterations,
            reliable_counts=counts,
            samples_per_run=samples,
            executor="vectorized",
        )

    # ------------------------------------------------------------------

    def _run_vectorized(
        self,
        masks: PrecomputedFaults,
        runs: int,
        iterations: int,
        monitor: "MonitorConfig | None" = None,
        first_run: int = 0,
    ) -> BatchResult:
        plan = self.plan
        profiler = self.profiler
        with profiler.stage("status-collapse"):
            delivered = [
                np.zeros((runs, iterations), dtype=bool)
                for _ in plan.sensor_events
            ]
            survive = [
                np.zeros((runs, iterations), dtype=bool)
                for _ in plan.releases
            ]
            for p, schedule in enumerate(plan.schedules):
                iters = np.arange(p, iterations, plan.n_phases)
                if not len(iters):
                    continue
                sensor_fail = masks.sensor_fail[p]
                replica_fail = masks.replica_fail[p]
                for event in plan.sensor_events:
                    slots = schedule.sensor_slot_event == event.index
                    if slots.any():
                        delivered[event.index][:, iters] = ~np.all(
                            sensor_fail[:, slots, :], axis=1
                        )
                for event in plan.releases:
                    slots = schedule.replica_slot_event == event.index
                    if slots.any():
                        survive[event.index][:, iters] = ~np.all(
                            replica_fail[:, slots, :], axis=1
                        )

        # Propagate reliable/BOTTOM status through the dependency
        # order; every array is (runs, iterations).
        assert plan.batch_order is not None
        with profiler.stage("propagate"):
            task_ok: list[np.ndarray | None] = [None] * len(plan.releases)
            for index in plan.batch_order:
                event = plan.releases[index]
                ok = survive[index]
                if event.model is not FailureModel.INDEPENDENT:
                    port_bits = [
                        self._port_bits(
                            port, task_ok, delivered, runs, iterations
                        )
                        for port in event.ports
                    ]
                    if event.model is FailureModel.SERIES:
                        inputs_ok = np.logical_and.reduce(port_bits)
                    else:  # PARALLEL: fails only when all inputs are BOTTOM
                        inputs_ok = np.logical_or.reduce(port_bits)
                    ok = ok & inputs_ok
                task_ok[index] = ok

        with profiler.stage("reduce"):
            counts: dict[str, np.ndarray] = {}
            samples: dict[str, int] = {}
            for ci, name in enumerate(plan.comm_names):
                pi = int(plan.comm_periods[ci])
                n_acc = int(plan.accesses_per_period[ci])
                samples[name] = n_acc * iterations
                writer = int(plan.writer_event[ci])
                if writer >= 0:
                    write_time = plan.releases[writer].write_time
                    offsets = np.arange(0, plan.period, pi)
                    same = int((offsets >= write_time).sum())
                    prev = n_acc - same
                    ok = task_ok[writer]
                    assert ok is not None
                    per_run = same * ok.sum(axis=1, dtype=np.int64)
                    if prev:
                        carried = int(plan.init_reliable[ci]) + ok[
                            :, :-1
                        ].sum(axis=1, dtype=np.int64)
                        per_run = per_run + prev * carried
                    counts[name] = per_run
                    continue
                events = [
                    e for e in plan.sensor_events if e.comm_index == ci
                ]
                if events:
                    total = np.zeros(runs, dtype=np.int64)
                    for event in events:
                        total += delivered[event.index].sum(
                            axis=1, dtype=np.int64
                        )
                    counts[name] = total
                else:
                    # Neither written nor sensor-updated: the initial
                    # value is observed at every access.
                    counts[name] = np.full(
                        runs,
                        int(plan.init_reliable[ci]) * samples[name],
                        dtype=np.int64,
                    )
        monitor_events: "tuple[ResilienceEvent, ...]" = ()
        if monitor is not None:
            with profiler.stage("monitor"):
                monitor_events = self._monitor_events(
                    monitor, task_ok, delivered, runs, iterations,
                    first_run,
                )
        return BatchResult(
            spec=self.spec,
            runs=runs,
            iterations=iterations,
            reliable_counts=counts,
            samples_per_run=samples,
            executor="vectorized",
            monitor_events=monitor_events,
        )

    def _access_status(
        self,
        ci: int,
        task_ok: "Sequence[np.ndarray | None]",
        delivered: Sequence[np.ndarray],
        runs: int,
        iterations: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-access reliability of one communicator, in access order.

        Returns ``(status, times)``: ``status[k, s]`` is the
        reliability of access ``s`` of communicator ``ci`` in run
        ``k`` — exactly the abstraction of the value the scalar
        executor records (and feeds its monitor) at ``times[s]``.
        Access ``s = i * n_acc + j`` happens at
        ``i * period + j * pi_c``; a written communicator observes the
        current iteration's write from offsets at or past the write
        time and the previous iteration's write (or the initial value)
        before it, while an input communicator observes its own
        sensor event at every access offset.
        """
        plan = self.plan
        pi = int(plan.comm_periods[ci])
        n_acc = int(plan.accesses_per_period[ci])
        status = np.empty((runs, n_acc * iterations), dtype=bool)
        offsets = np.arange(0, plan.period, pi)
        times = (
            np.arange(iterations, dtype=np.int64)[:, None] * plan.period
            + offsets[None, :]
        ).ravel()
        writer = int(plan.writer_event[ci])
        if writer >= 0:
            write_time = plan.releases[writer].write_time
            ok = task_ok[writer]
            assert ok is not None
            shifted = np.empty_like(ok)
            shifted[:, 0] = bool(plan.init_reliable[ci])
            shifted[:, 1:] = ok[:, :-1]
            for j, offset in enumerate(offsets):
                status[:, j::n_acc] = (
                    ok if offset >= write_time else shifted
                )
            return status, times
        events = sorted(
            (e for e in plan.sensor_events if e.comm_index == ci),
            key=lambda e: e.offset,
        )
        if events:
            for j, event in enumerate(events):
                status[:, j::n_acc] = delivered[event.index]
            return status, times
        status[:, :] = bool(plan.init_reliable[ci])
        return status, times

    def _access_failures(
        self,
        ci: int,
        task_ok: "Sequence[np.ndarray | None]",
        delivered: Sequence[np.ndarray],
        runs: int,
        iterations: int,
    ) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
        """Positions of the *unreliable* accesses of one communicator.

        The sparse complement of :meth:`_access_status`: instead of the
        full ``(runs, samples)`` status tensor it returns
        ``(fail_runs, fail_steps, samples, times)`` where the paired
        arrays list every access that observes BOTTOM, sorted by
        ``(run, step)``.  Failures are rare, so this is what the
        monitor pass works from.
        """
        plan = self.plan
        pi = int(plan.comm_periods[ci])
        n_acc = int(plan.accesses_per_period[ci])
        samples = n_acc * iterations
        offsets = np.arange(0, plan.period, pi)
        times = (
            np.arange(iterations, dtype=np.int64)[:, None] * plan.period
            + offsets[None, :]
        ).ravel()
        parts_r: list[np.ndarray] = []
        parts_s: list[np.ndarray] = []
        writer = int(plan.writer_event[ci])
        if writer >= 0:
            write_time = plan.releases[writer].write_time
            ok = task_ok[writer]
            assert ok is not None
            rows, iters = np.nonzero(~ok)
            same_j = np.flatnonzero(offsets >= write_time)
            prev_j = np.flatnonzero(offsets < write_time)
            if same_j.size and rows.size:
                parts_r.append(np.repeat(rows, same_j.size))
                parts_s.append(
                    (iters[:, None] * n_acc + same_j[None, :]).ravel()
                )
            if prev_j.size:
                # Offsets before the write observe the previous
                # iteration's task (or the initial value in iteration 0).
                carry = iters + 1 < iterations
                if rows.size and carry.any():
                    parts_r.append(np.repeat(rows[carry], prev_j.size))
                    parts_s.append(
                        (
                            (iters[carry] + 1)[:, None] * n_acc
                            + prev_j[None, :]
                        ).ravel()
                    )
                if not plan.init_reliable[ci]:
                    parts_r.append(
                        np.repeat(np.arange(runs), prev_j.size)
                    )
                    parts_s.append(np.tile(prev_j, runs))
        else:
            events = sorted(
                (e for e in plan.sensor_events if e.comm_index == ci),
                key=lambda e: e.offset,
            )
            if events:
                for j, event in enumerate(events):
                    rows, iters = np.nonzero(~delivered[event.index])
                    if rows.size:
                        parts_r.append(rows)
                        parts_s.append(iters * n_acc + j)
            elif not plan.init_reliable[ci]:
                # Never written, never sensed, unreliable initial value:
                # every access fails.
                parts_r.append(
                    np.repeat(np.arange(runs), samples)
                )
                parts_s.append(np.tile(np.arange(samples), runs))
        if not parts_r:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, samples, times
        key = np.sort(
            np.concatenate(parts_r).astype(np.int64) * samples
            + np.concatenate(parts_s).astype(np.int64)
        )
        return key // samples, key % samples, samples, times

    def _monitor_events(
        self,
        monitor: "MonitorConfig",
        task_ok: "Sequence[np.ndarray | None]",
        delivered: Sequence[np.ndarray],
        runs: int,
        iterations: int,
        first_run: int = 0,
    ) -> "tuple[ResilienceEvent, ...]":
        """Vectorized online-monitor pass over the whole batch.

        Works from sparse failure positions
        (:meth:`_access_failures` + the failure-neighbourhood latch of
        :func:`~repro.resilience.monitor.monitor_events_from_failures`)
        so its cost tracks the number of failures, not
        ``runs x samples``.
        """
        from repro.resilience.monitor import monitor_events_from_failures

        plan = self.plan
        thresholds = monitor.thresholds(self.spec)
        events = []
        for ci, name in enumerate(plan.comm_names):
            if name not in thresholds:
                continue
            fail_runs, fail_steps, samples, times = self._access_failures(
                ci, task_ok, delivered, runs, iterations
            )
            alarm, clear = thresholds[name]
            events.extend(
                monitor_events_from_failures(
                    name, fail_runs, fail_steps, runs, samples, times,
                    alarm, clear, monitor.window,
                )
            )
        # Tie-break same-instant events the way the scalar engine emits
        # them: communicators in specification declaration order.
        order = {name: i for i, name in enumerate(self.spec.communicators)}
        events.sort(key=lambda e: (e.run, e.time, order[e.communicator]))
        if first_run:
            events = [
                dataclasses.replace(event, run=event.run + first_run)
                for event in events
            ]
        return tuple(events)

    def _port_bits(
        self,
        port: PortSlot,
        task_ok: "Sequence[np.ndarray | None]",
        delivered: Sequence[np.ndarray],
        runs: int,
        iterations: int,
    ) -> np.ndarray:
        """Reliability bits seen by one input port, per run/iteration."""
        plan = self.plan
        if port.sensor_event >= 0:
            return delivered[port.sensor_event]
        if port.writer_event >= 0:
            source = task_ok[port.writer_event]
            assert source is not None, "batch order violated"
            if port.same_iteration:
                return source
            shifted = np.empty_like(source)
            shifted[:, 0] = plan.init_reliable[port.comm_index]
            shifted[:, 1:] = source[:, :-1]
            return shifted
        return np.full(
            (runs, iterations),
            bool(plan.init_reliable[port.comm_index]),
            dtype=bool,
        )

    # ------------------------------------------------------------------

    def _run_scalar(
        self,
        runs: RunRange,
        iterations: int,
        monitor: "MonitorConfig | None" = None,
    ) -> BatchResult:
        """Loop the scalar reference executor over the spawned seeds."""
        from repro.runtime.engine import Simulator

        children = run_seeds(runs.seed, runs.start, runs.stop)
        counts = {
            name: np.zeros(len(runs), dtype=np.int64)
            for name in self.spec.communicators
        }
        samples: dict[str, int] = {}
        monitor_events: "list[ResilienceEvent]" = []
        for k, child in enumerate(children):
            environment = (
                self.environment_factory()
                if self.environment_factory is not None
                else None
            )
            run_monitor = None
            if monitor is not None:
                from repro.resilience.monitor import LrcMonitor

                run_monitor = LrcMonitor(self.spec, monitor)
            simulator = Simulator(
                self.spec,
                self.arch,
                self.plan.implementation,
                environment=environment,
                faults=self.faults,
                seed=np.random.default_rng(child),
                sinks=() if run_monitor is None else (run_monitor,),
            )
            result = simulator.run(iterations)
            for name, trace in result.abstract().items():
                counts[name][k] = trace.reliable_count()
                samples[name] = len(trace)
            if run_monitor is not None:
                monitor_events.extend(
                    dataclasses.replace(event, run=runs.start + k)
                    for event in run_monitor.events
                )
        return BatchResult(
            spec=self.spec,
            runs=len(runs),
            iterations=iterations,
            reliable_counts=counts,
            samples_per_run=samples,
            executor="scalar-fallback",
            monitor_events=tuple(monitor_events),
        )

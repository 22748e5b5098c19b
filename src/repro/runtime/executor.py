"""Pluggable batch executors: serial reference and sharded fan-out.

PR 7 extracts the execution *strategy* out of
:class:`~repro.runtime.batch.BatchSimulator`:
:meth:`~repro.runtime.batch.BatchSimulator.run_range` builds the
per-run seed-sequence children (through
:func:`~repro.runtime.batch.run_seeds`, the one seed-derivation
point) and delegates to a :class:`BatchExecutor`.

* :class:`SerialExecutor` is the in-process reference: one
  :meth:`~repro.runtime.batch.BatchSimulator.run_slice` call over the
  whole child list — byte-for-byte the pre-refactor behaviour.
* :class:`ShardedExecutor` partitions the children into contiguous
  per-worker shards (:func:`shard_slices`) and executes them in
  forked worker processes.  The ``SeedSequence.spawn`` contract makes
  this safe: spawn keys partition deterministically, every injector's
  ``precompute`` consumes randomness strictly per run, and every
  count/monitor derivation in the vectorized kernel is per-run along
  axis 0 — so a shard computes exactly its slice of the unsharded
  tensors, and :func:`merge_batch_results` reassembles the
  bit-identical whole (pooled counts, per-run arrays in run order,
  monitor-event streams re-sequenced by run index).  The differential
  suite in ``tests/test_executor.py`` holds sharded output to exact
  equality with serial output over Hypothesis-generated systems.

Workers ship a reduced picklable payload (count arrays + monitor
events) back over a pipe; the specification — which may hold
unpicklable task lambdas — never crosses the process boundary
(workers inherit it via ``fork``).  Platforms without ``fork`` (or
``jobs=1`` slices) fall back to executing the shards inline in the
parent, through the identical slice/merge path.

The sharded executor supervises its workers.  It detects worker
*crash* (process death, pipe EOF), worker-reported *error*, and
worker *hang* (an optional per-shard deadline), and re-executes only
the failed shard under a :class:`RetryPolicy` (capped exponential
backoff plus deterministic jitter).  A retried shard is bit-identical
to its first execution by construction: its work is fully determined
by its slice of the spawned children (asserted differentially in
``tests/test_supervision.py``).  Every retry surfaces as a typed
:class:`ShardRetryEvent`.  :class:`ChaosAction` / :class:`WorkerFaults`
are the fault-injection surface the :mod:`repro.chaos` harness drives;
production use leaves ``chaos=None``.

Everything a sharded run observes comes back on plain data: monitor
events on the merged result's ``monitor_events`` (in the run order an
unsharded run would have produced), retries on
:attr:`ShardedExecutor.retry_events`, and, with a trace context set,
one span per shard on :attr:`ShardedExecutor.shard_spans`.

The supervision loop reads clocks (monotonic deadlines, backoff
sleeps, retry timestamps), so this module is on the determinism-lint
allowlist; clocks never reach simulation state.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import time
from dataclasses import asdict, dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Protocol,
    Sequence,
    runtime_checkable,
)

import numpy as np

from repro.errors import RuntimeSimulationError
from repro.runtime.batch import BatchResult

if TYPE_CHECKING:  # pragma: no cover
    from repro.resilience.monitor import MonitorConfig
    from repro.runtime.batch import BatchSimulator


@runtime_checkable
class BatchExecutor(Protocol):
    """Strategy that executes one batch over spawned per-run seeds.

    *children* are the spawn-key children of a contiguous run range,
    built by :meth:`~repro.runtime.batch.BatchSimulator.run_range`;
    the executor owns how (and where) the per-run work happens but
    must return exactly the result of
    ``simulator.run_slice(children, iterations, monitor, run_offset)``
    — the bit-identity contract every implementation is tested
    against.

    ``run_offset`` is the global run index of ``children[0]`` (nonzero
    for a cache tail or an adaptive chunk).  It is keyword-only and
    forwarded only when nonzero, so minimal executors (tests,
    third-party strategies) that accept the positional form keep
    working for whole batches.
    """

    def execute(
        self,
        simulator: "BatchSimulator",
        children: "Sequence[np.random.SeedSequence]",
        iterations: int,
        monitor: "MonitorConfig | None" = None,
        *,
        run_offset: int = 0,
    ) -> BatchResult:
        ...


def shard_slices(runs: int, jobs: int) -> list[tuple[int, int]]:
    """Partition ``range(runs)`` into at most *jobs* contiguous slices.

    Balanced partition: the first ``runs % jobs`` shards get one extra
    run.  Never emits an empty slice — with ``jobs > runs`` the excess
    workers simply get nothing.
    """
    if runs < 0:
        raise RuntimeSimulationError(f"runs must be >= 0, got {runs}")
    if jobs < 1:
        raise RuntimeSimulationError(f"jobs must be >= 1, got {jobs}")
    jobs = min(jobs, runs)
    slices: list[tuple[int, int]] = []
    start = 0
    for shard in range(jobs):
        size = runs // jobs + (1 if shard < runs % jobs else 0)
        slices.append((start, start + size))
        start += size
    return slices


def merge_batch_results(
    shards: "Sequence[BatchResult]",
) -> BatchResult:
    """Merge disjoint batch slices back into one result.

    *shards* must be the slices of one batch in run order, each
    produced by :meth:`~repro.runtime.batch.BatchSimulator.run_slice`
    with its global ``run_offset`` (so monitor events already carry
    global run indices).  Per-run count arrays are concatenated in
    run order, pooled statistics follow from them, and the merged
    monitor-event stream is re-sequenced by run index (within a run,
    shard emission order — the scalar emission order — is preserved).
    Zero-run shards are legal and contribute nothing.
    """
    if not shards:
        raise RuntimeSimulationError("cannot merge zero batch results")
    alive = [shard for shard in shards if shard.runs]
    if not alive:
        first = shards[0]
        return slice_batch_result(first, 0)
    first = alive[0]
    for shard in alive[1:]:
        if shard.iterations != first.iterations:
            raise RuntimeSimulationError(
                f"cannot merge shards of {shard.iterations} and "
                f"{first.iterations} iterations"
            )
        if set(shard.reliable_counts) != set(first.reliable_counts):
            raise RuntimeSimulationError(
                "cannot merge shards over different communicators"
            )
        if shard.samples_per_run != first.samples_per_run:
            raise RuntimeSimulationError(
                "cannot merge shards with different per-run sample "
                "counts"
            )
        if shard.executor != first.executor:
            raise RuntimeSimulationError(
                f"cannot merge {shard.executor!r} and "
                f"{first.executor!r} shards"
            )
    counts = {
        name: np.concatenate(
            [shard.reliable_counts[name] for shard in alive]
        )
        for name in first.reliable_counts
    }
    events = [
        event for shard in alive for event in shard.monitor_events
    ]
    # Stable sort by run index: shards arrive in run order so this is
    # usually a no-op, but it makes the re-sequencing contract (run
    # index monotone, per-run emission order preserved) unconditional.
    events.sort(key=lambda event: -1 if event.run is None else event.run)
    return BatchResult(
        spec=first.spec,
        runs=sum(shard.runs for shard in alive),
        iterations=first.iterations,
        reliable_counts=counts,
        samples_per_run=dict(first.samples_per_run),
        executor=first.executor,
        monitor_events=tuple(events),
    )


def slice_batch_result(result: BatchResult, runs: int) -> BatchResult:
    """Prefix-slice a batch result down to its first *runs* runs.

    Under the spawn contract the first *runs* children of a larger
    batch are exactly the children of a ``runs``-sized batch, so the
    slice is bit-identical to re-simulating at the smaller size —
    which is what lets the service answer shrunk ``runs`` queries
    from cache without simulating.
    """
    if runs < 0 or runs > result.runs:
        raise RuntimeSimulationError(
            f"cannot slice {result.runs} runs down to {runs}"
        )
    if runs == result.runs:
        return result
    return BatchResult(
        spec=result.spec,
        runs=runs,
        iterations=result.iterations,
        reliable_counts={
            name: counts[:runs]
            for name, counts in result.reliable_counts.items()
        },
        samples_per_run=dict(result.samples_per_run),
        executor=result.executor,
        monitor_events=tuple(
            event
            for event in result.monitor_events
            if event.run is not None and event.run < runs
        ),
    )


class SerialExecutor:
    """The in-process reference executor (the pre-refactor loop)."""

    name = "serial"

    def execute(
        self,
        simulator: "BatchSimulator",
        children: "Sequence[np.random.SeedSequence]",
        iterations: int,
        monitor: "MonitorConfig | None" = None,
        *,
        run_offset: int = 0,
    ) -> BatchResult:
        return simulator.run_slice(
            children, iterations, monitor, run_offset=run_offset
        )


@dataclass
class _ShardPayload:
    """The picklable slice result a worker ships back to the parent.

    Deliberately *not* a :class:`BatchResult`: the specification may
    hold task lambdas that cannot cross a pipe.  Everything here is
    plain arrays, ints, and frozen event dataclasses.
    """

    runs: int
    reliable_counts: dict[str, np.ndarray]
    samples_per_run: dict[str, int]
    executor: str
    monitor_events: tuple
    #: Distributed-tracing span dicts recorded by the worker.  They
    #: ride NEXT TO the batch data, never inside it, so merge — and
    #: therefore the bit-identity contract — is unaffected by tracing.
    spans: tuple = ()


def _payload_of(result: BatchResult, spans: tuple = ()) -> _ShardPayload:
    return _ShardPayload(
        runs=result.runs,
        reliable_counts=result.reliable_counts,
        samples_per_run=result.samples_per_run,
        executor=result.executor,
        monitor_events=result.monitor_events,
        spans=spans,
    )


def _result_of(payload: _ShardPayload, simulator: "BatchSimulator",
               iterations: int) -> BatchResult:
    return BatchResult(
        spec=simulator.spec,
        runs=payload.runs,
        iterations=iterations,
        reliable_counts=payload.reliable_counts,
        samples_per_run=payload.samples_per_run,
        executor=payload.executor,
        monitor_events=tuple(payload.monitor_events),
    )


#: Sleep used by an injected "hang": far beyond any sane deadline, so
#: the supervisor's terminate is what ends the worker.
HANG_SLEEP_S = 3600.0


@dataclass(frozen=True)
class ShardRetryEvent:
    """One supervised re-execution of a failed shard.

    ``reason`` is ``"crash"`` (process died / pipe EOF), ``"hang"``
    (per-shard deadline exceeded, worker killed), or ``"error"`` (the
    worker reported an exception).  ``attempt`` is the 0-based attempt
    that failed; the retry that follows is attempt ``attempt + 1``.
    """

    shard: int
    attempt: int
    reason: str
    detail: str = ""
    delay_s: float = 0.0
    run_start: int = 0
    run_stop: int = 0
    #: Epoch timestamp of the retry decision (distributed tracing);
    #: 0.0 means "unstamped" and is dropped from the dict form so the
    #: serialized shape is unchanged for pre-tracing consumers.
    noted_at: float = field(default=0.0, kw_only=True)

    kind = "shard-retry"

    def to_dict(self) -> dict:
        doc = {"kind": self.kind}
        doc.update(asdict(self))
        if not doc["noted_at"]:
            del doc["noted_at"]
        return doc


@dataclass(frozen=True)
class ChaosAction:
    """A fault the chaos harness injects into one worker attempt.

    ``kind`` is ``"kill"`` (hard ``os._exit``), ``"hang"`` (sleep past
    any deadline until terminated), ``"slow"`` (sleep ``delay_s`` then
    run normally), or ``"error"`` (raise inside the worker).
    """

    kind: str
    delay_s: float = 0.0


class WorkerFaults(Protocol):
    """A chaos plan consulted once per ``(shard, attempt)`` launch."""

    def action(
        self, shard: int, attempt: int
    ) -> "ChaosAction | None":
        ...


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with capped exponential backoff and jitter.

    ``retries`` is the number of *re*-executions allowed per shard
    (``retries=2`` means at most 3 attempts).  Delays grow as
    ``base_delay_s * 2**(attempt-1)`` capped at ``max_delay_s``, then
    stretched by up to ``jitter`` (a fraction) of deterministic,
    shard/attempt-derived noise — reproducible, yet de-synchronised
    across shards.
    """

    retries: int = 2
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise RuntimeSimulationError(
                f"retries must be >= 0, got {self.retries}"
            )
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise RuntimeSimulationError("backoff delays must be >= 0")

    def delay(self, shard: int, attempt: int) -> float:
        """Backoff before retry number *attempt* (1-based) of *shard*."""
        if attempt < 1:
            return 0.0
        base = min(
            self.max_delay_s,
            self.base_delay_s * (2.0 ** (attempt - 1)),
        )
        return base * (1.0 + self.jitter * _unit_noise(shard, attempt))


def _unit_noise(shard: int, attempt: int) -> float:
    """Deterministic pseudo-uniform value in ``[0, 1)``.

    Hash-derived so backoff jitter needs no RNG state (and therefore
    cannot perturb any seeded simulation stream).
    """
    digest = hashlib.sha256(
        f"shard-backoff:{shard}:{attempt}".encode("ascii")
    ).digest()
    return int.from_bytes(digest[:8], "big") / float(2**64)


def _supervised_worker(
    simulator, children, iterations, monitor, offset, conn, action,
    trace=None,
):
    """Entry point of one forked shard worker.

    The optional injected chaos *action* is applied before (or
    instead of) the real work.  A failed attempt ships no span: only
    the attempt that succeeds records one, so a retried shard still
    yields exactly one span.
    """
    from repro.telemetry.distributed import shard_span

    try:
        if action is not None:
            if action.kind == "kill":
                conn.close()
                os._exit(17)
            if action.kind == "hang":
                time.sleep(
                    action.delay_s if action.delay_s > 0
                    else HANG_SLEEP_S
                )
            elif action.kind == "slow":
                time.sleep(action.delay_s)
            elif action.kind == "error":
                raise RuntimeSimulationError(
                    "chaos: injected worker error"
                )
        with shard_span(
            trace, offset, offset + len(children)
        ) as recorder:
            result = simulator.run_slice(
                children, iterations, monitor, run_offset=offset,
            )
        conn.send(("ok", _payload_of(result, tuple(recorder.spans))))
    except BaseException as error:  # ship the failure to the parent
        try:
            conn.send(("error", f"{type(error).__name__}: {error}"))
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
    finally:
        conn.close()


def _fork_context() -> "Any | None":
    """The fork multiprocessing context, or ``None`` when unsupported."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return None


class _ShardState:
    """Supervision bookkeeping of one shard across its attempts."""

    def __init__(
        self, index: int, start: int, stop: int, offset: int = 0
    ) -> None:
        self.index = index
        self.start = start
        self.stop = stop
        #: Global run index of the whole batch's first run (nonzero
        #: when the adaptive driver executes a chunk mid-sequence);
        #: ``offset + start`` is this shard's global first run.
        self.offset = offset
        self.attempt = 0
        self.process: Any = None
        self.conn: Any = None
        self.deadline_at: "float | None" = None
        self.result: "BatchResult | None" = None
        self.spans: tuple = ()

    def kill(self) -> None:
        """Best-effort terminate of a live worker."""
        if self.conn is not None:
            try:
                self.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
            self.conn = None
        if self.process is not None and self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5.0)
            if self.process.is_alive():  # pragma: no cover - stuck
                self.process.kill()
                self.process.join(timeout=5.0)
        self.process = None


def _stamped(spans: "Sequence[dict]", state: _ShardState) -> tuple:
    """Stamp the shard index and attempt onto a shard's worker spans.

    Workers don't know which attempt they are, so the parent stamps
    both keys; the surviving span names the rescue attempt.
    """
    return tuple(
        {**span, "attempt": state.attempt, "shard": state.index}
        for span in spans
    )


class ShardedExecutor:
    """Fan one batch out over *jobs* supervised worker processes.

    A worker crash, hang, or error re-executes only the failed shard
    (bit-identically), so a batch survives transient worker loss.

    Parameters
    ----------
    jobs:
        Number of worker shards (>= 1).  ``jobs=1`` runs its one shard
        inline without forking.
    policy:
        :class:`RetryPolicy` bounding re-executions and backoff;
        ``None`` means ``RetryPolicy()``.
    deadline_s:
        Per-shard wall-clock deadline; a worker still silent past it
        is killed and retried.  ``None`` disables hang detection
        (crash/error supervision still applies).
    processes:
        ``False`` (or a platform without ``fork``) executes shards
        inline in the parent — the same slice/merge arithmetic, with
        the same retry loop around each slice.
    chaos:
        Optional :class:`WorkerFaults` plan (testing/chaos only).

    Setting :attr:`trace_context` to a
    :class:`~repro.telemetry.distributed.TraceContext` makes the
    successful attempt of every shard record one epoch-stamped span,
    stamped with its ``shard`` index and ``attempt`` number and left
    in shard (= run) order on :attr:`shard_spans` after
    :meth:`execute`.  Failed attempts ship no span, so a kill/retry
    still leaves exactly one span per shard.  Tracing is
    observer-only — it rides outside the batch payload and never
    changes results.
    """

    name = "sharded"

    def __init__(
        self,
        jobs: int,
        policy: "RetryPolicy | None" = None,
        deadline_s: "float | None" = None,
        processes: bool = True,
        chaos: "WorkerFaults | None" = None,
    ) -> None:
        if jobs < 1:
            raise RuntimeSimulationError(
                f"jobs must be >= 1, got {jobs}"
            )
        if deadline_s is not None and deadline_s <= 0:
            raise RuntimeSimulationError(
                f"deadline_s must be > 0, got {deadline_s}"
            )
        self.jobs = jobs
        self.policy = policy or RetryPolicy()
        self.deadline_s = deadline_s
        self.processes = processes
        self.chaos = chaos
        #: Optional :class:`~repro.telemetry.distributed.TraceContext`.
        self.trace_context: "Any | None" = None
        #: Retry events of the most recent :meth:`execute` call.
        self.retry_events: list[ShardRetryEvent] = []
        #: Per-shard tracing spans of the most recent :meth:`execute`.
        self.shard_spans: list[dict] = []

    # -- the BatchExecutor protocol -------------------------------------

    def execute(
        self,
        simulator: "BatchSimulator",
        children: "Sequence[np.random.SeedSequence]",
        iterations: int,
        monitor: "MonitorConfig | None" = None,
        *,
        run_offset: int = 0,
    ) -> BatchResult:
        self.retry_events = []
        self.shard_spans = []
        slices = shard_slices(len(children), self.jobs)
        context = _fork_context() if self.processes else None
        if not slices:
            return simulator.run_slice(
                children, iterations, monitor, run_offset=run_offset
            )
        span_lists: list[tuple] = []
        if len(slices) <= 1 or context is None:
            shards = []
            for index, (start, stop) in enumerate(slices):
                result, spans = self._execute_inline(
                    simulator, children, iterations, monitor,
                    index, start, stop, run_offset,
                )
                shards.append(result)
                span_lists.append(spans)
        else:
            shards, span_lists = self._supervise(
                context, simulator, children, iterations, monitor,
                slices, run_offset,
            )
        # Shards are contiguous, so shard order is run order.
        self.shard_spans = [span for spans in span_lists for span in spans]
        return merge_batch_results(shards)

    # -- retry bookkeeping ----------------------------------------------

    def _note_retry(
        self, state: _ShardState, reason: str, detail: str,
        delay: float,
    ) -> None:
        event = ShardRetryEvent(
            shard=state.index,
            attempt=state.attempt,
            reason=reason,
            detail=detail,
            delay_s=delay,
            run_start=state.offset + state.start,
            run_stop=state.offset + state.stop,
            noted_at=time.time(),
        )
        self.retry_events.append(event)

    def _give_up(self, state: _ShardState, detail: str) -> None:
        first = state.offset + state.start
        last = state.offset + state.stop - 1
        raise RuntimeSimulationError(
            f"sharded batch worker failed: shard {state.index} "
            f"(runs {first}..{last}) failed after "
            f"{state.attempt + 1} attempt(s): {detail}"
        )

    # -- inline path -----------------------------------------------------

    def _execute_inline(
        self, simulator, children, iterations, monitor,
        index, start, stop, run_offset=0,
    ) -> tuple[BatchResult, tuple]:
        from repro.telemetry.distributed import shard_span

        state = _ShardState(index, start, stop, offset=run_offset)
        while True:
            action = (
                self.chaos.action(state.index, state.attempt)
                if self.chaos is not None else None
            )
            try:
                if action is not None and action.kind in (
                    "kill", "hang", "error",
                ):
                    # Inline, every injected fault class degenerates
                    # to a raised error (there is no process to kill).
                    raise RuntimeSimulationError(
                        f"chaos: injected {action.kind}"
                    )
                if action is not None and action.kind == "slow":
                    time.sleep(action.delay_s)
                with shard_span(
                    self.trace_context,
                    run_offset + start, run_offset + stop,
                ) as recorder:
                    result = simulator.run_slice(
                        children[start:stop], iterations, monitor,
                        run_offset=run_offset + start,
                    )
                return result, _stamped(recorder.spans, state)
            except RuntimeSimulationError as error:
                if state.attempt >= self.policy.retries:
                    self._give_up(state, str(error))
                delay = self.policy.delay(
                    state.index, state.attempt + 1
                )
                self._note_retry(state, "error", str(error), delay)
                if delay > 0:
                    time.sleep(delay)
                state.attempt += 1

    # -- process path ----------------------------------------------------

    def _launch(self, context, simulator, children, iterations,
                monitor, state: _ShardState) -> None:
        action = (
            self.chaos.action(state.index, state.attempt)
            if self.chaos is not None else None
        )
        parent_conn, child_conn = context.Pipe(duplex=False)
        process = context.Process(
            target=_supervised_worker,
            args=(
                simulator, children[state.start:state.stop],
                iterations, monitor, state.offset + state.start,
                child_conn, action, self.trace_context,
            ),
        )
        process.start()
        child_conn.close()
        state.process = process
        state.conn = parent_conn
        state.deadline_at = (
            None if self.deadline_s is None
            else time.monotonic() + self.deadline_s
        )

    def _supervise(
        self, context, simulator, children, iterations, monitor,
        slices, run_offset=0,
    ) -> tuple[list[BatchResult], list[tuple]]:
        from multiprocessing.connection import wait as conn_wait

        states = [
            _ShardState(index, start, stop, offset=run_offset)
            for index, (start, stop) in enumerate(slices)
        ]
        try:
            for state in states:
                self._launch(
                    context, simulator, children, iterations, monitor,
                    state,
                )
            #: Shards sleeping out a backoff: (wake_at, state).
            parked: list[tuple[float, _ShardState]] = []
            while True:
                active = {
                    state.conn: state
                    for state in states
                    if state.conn is not None
                }
                if not active and not parked:
                    break
                now = time.monotonic()
                # Wake parked shards whose backoff elapsed.
                due = [s for wake, s in parked if wake <= now]
                parked = [
                    (wake, s) for wake, s in parked if wake > now
                ]
                for state in due:
                    self._launch(
                        context, simulator, children, iterations,
                        monitor, state,
                    )
                    active[state.conn] = state
                # Earliest thing worth waking for: a shard deadline
                # or a parked retry.
                horizons = [
                    state.deadline_at
                    for state in active.values()
                    if state.deadline_at is not None
                ] + [wake for wake, _ in parked]
                timeout = (
                    None if not horizons
                    else max(0.0, min(horizons) - now)
                )
                if active:
                    ready = conn_wait(
                        list(active), timeout=timeout
                    )
                elif timeout:  # all shards parked: sleep it out
                    time.sleep(timeout)
                    ready = []
                else:
                    ready = []
                for conn in ready:
                    state = active[conn]
                    try:
                        status, payload = conn.recv()
                    except EOFError:
                        self._retire(state, "crash",
                                     "worker died before replying",
                                     parked)
                        continue
                    if status == "ok":
                        state.result = _result_of(
                            payload, simulator, iterations
                        )
                        state.spans = _stamped(payload.spans, state)
                        conn.close()
                        state.conn = None
                        state.process.join()
                        state.process = None
                    else:
                        self._retire(state, "error", str(payload),
                                     parked)
                # Hang detection: anyone past their deadline?
                now = time.monotonic()
                for state in list(active.values()):
                    if (
                        state.conn is not None
                        and state.deadline_at is not None
                        and state.deadline_at <= now
                    ):
                        self._retire(
                            state, "hang",
                            f"no reply within {self.deadline_s}s "
                            f"deadline", parked,
                        )
        except BaseException:
            for state in states:
                state.kill()
            raise
        return (
            [state.result for state in states],
            [state.spans for state in states],
        )

    def _retire(
        self, state: _ShardState, reason: str, detail: str,
        parked: "list[tuple[float, _ShardState]]",
    ) -> None:
        """Kill a failed attempt and park the shard for retry."""
        state.kill()
        if state.attempt >= self.policy.retries:
            self._give_up(state, f"{reason}: {detail}")
        delay = self.policy.delay(state.index, state.attempt + 1)
        self._note_retry(state, reason, detail, delay)
        state.attempt += 1
        parked.append((time.monotonic() + delay, state))

"""The online LRC monitor.

The analytic SRG check and the pooled Monte-Carlo tests are *offline*:
they say whether an implementation meets its logical reliability
constraints in the long-run average, assuming the i.i.d. fault model
under which Proposition 1 is proved.  Under correlated or bursty
faults (a Gilbert–Elliott channel, a crashed host awaiting repair)
the long-run average is the wrong lens — the system may be compliant
on average and still spend seconds at a time in violation.  The
:class:`LrcMonitor` watches the *windowed* reliable-write rate of each
communicator while the system runs and raises a typed alarm the
moment the window drops below its threshold, with hysteresis so a
rate hovering at the boundary does not chatter.

Two integration points consume it:

* the scalar :class:`~repro.runtime.engine.Simulator` calls
  :meth:`LrcMonitor.observe` from its per-write hook, once per
  communicator access in timetable order;
* the vectorized :class:`~repro.runtime.batch.BatchSimulator` finds
  each communicator's latch changes with :func:`dense_changes` (over
  the per-access status tensor) when failures are dense, and with
  :func:`sparse_changes` (over the failure positions alone) when they
  are rare, then builds all events at once with
  :func:`monitor_events` — no per-run Python loop, and the *same*
  events (per run, per communicator) the scalar monitor would emit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

import numpy as np

from repro.errors import RuntimeSimulationError
from repro.resilience.events import LrcAlarm, LrcClear, ResilienceEvent
from repro.runtime.faults import DRAW_CHUNK_BYTES
from repro.telemetry.sink import InstrumentationSink

if TYPE_CHECKING:  # pragma: no cover
    from repro.model.specification import Specification


@dataclass(frozen=True)
class MonitorConfig:
    """Configuration of the online LRC monitor.

    Parameters
    ----------
    window:
        Number of most recent accesses the rate is computed over; the
        monitor stays silent until its first full window.
    hysteresis:
        Added to the alarm threshold to form the default clear
        threshold: an alarmed communicator clears only once its rate
        climbs back to ``alarm + hysteresis``, which keeps a rate
        hovering at the boundary from toggling the alarm every access.
    alarm_below:
        Per-communicator alarm thresholds; a communicator not listed
        defaults to its declared LRC ``mu_c``.
    clear_above:
        Per-communicator clear thresholds; defaults to
        ``min(1, alarm + hysteresis)``.
    communicators:
        The communicators to watch; ``None`` watches all of them.
    """

    window: int = 50
    hysteresis: float = 0.0
    alarm_below: Mapping[str, float] = field(default_factory=dict)
    clear_above: Mapping[str, float] = field(default_factory=dict)
    communicators: "tuple[str, ...] | None" = None

    def __post_init__(self) -> None:
        if self.window < 1:
            raise RuntimeSimulationError(
                f"monitor window must be >= 1, got {self.window}"
            )
        if self.hysteresis < 0.0:
            raise RuntimeSimulationError(
                f"monitor hysteresis must be >= 0, got {self.hysteresis}"
            )

    def thresholds(
        self, spec: "Specification"
    ) -> dict[str, tuple[float, float]]:
        """Resolve ``(alarm_below, clear_above)`` per watched communicator."""
        watched = (
            sorted(spec.communicators)
            if self.communicators is None
            else list(self.communicators)
        )
        resolved: dict[str, tuple[float, float]] = {}
        for name in watched:
            if name not in spec.communicators:
                raise RuntimeSimulationError(
                    f"monitor watches unknown communicator {name!r}"
                )
            alarm = self.alarm_below.get(
                name, spec.communicators[name].lrc
            )
            clear = self.clear_above.get(
                name, min(1.0, alarm + self.hysteresis)
            )
            if alarm > 1.0:
                # A full window's rate never exceeds 1, so every window
                # would alarm.  (A clear threshold above 1 is legal: the
                # alarm then never clears.)
                raise RuntimeSimulationError(
                    f"communicator {name!r}: alarm threshold {alarm} "
                    f"exceeds 1; every window would alarm"
                )
            if clear < alarm:
                raise RuntimeSimulationError(
                    f"communicator {name!r}: clear threshold {clear} "
                    f"below alarm threshold {alarm}"
                )
            resolved[name] = (alarm, clear)
        return resolved


class LrcMonitor(InstrumentationSink):
    """Stateful sliding-window LRC monitor (the scalar path).

    One :meth:`observe` call per communicator access, in simulation
    order.  Events are appended to :attr:`events` (or the shared
    *sink* a resilience executive passes in, so monitor, watchdog,
    and recovery events interleave in emission order).

    The monitor is an
    :class:`~repro.telemetry.sink.InstrumentationSink`: the scalar
    engine feeds it through the shared :meth:`on_access` hook —
    the same subscription path the telemetry tracer and metrics sink
    use — so attaching a monitor needs no engine knowledge beyond the
    sink protocol.
    """

    def __init__(
        self,
        spec: "Specification",
        config: MonitorConfig | None = None,
        sink: "list[ResilienceEvent] | None" = None,
    ) -> None:
        self.spec = spec
        self.config = config or MonitorConfig()
        self.window = self.config.window
        self._thresholds = self.config.thresholds(spec)
        self.events: list[ResilienceEvent] = (
            sink if sink is not None else []
        )
        self._buffers: dict[str, deque[bool]] = {
            name: deque(maxlen=self.window) for name in self._thresholds
        }
        self._counts: dict[str, int] = dict.fromkeys(self._thresholds, 0)
        self._alarmed: dict[str, bool] = dict.fromkeys(
            self._thresholds, False
        )

    # ------------------------------------------------------------------

    def watches(self, communicator: str) -> bool:
        """Return ``True`` iff *communicator* is monitored."""
        return communicator in self._thresholds

    def on_access(
        self,
        communicator: str,
        time: int,
        reliable: bool,
        run: "int | None" = None,
    ) -> None:
        """Sink-protocol alias of :meth:`observe`."""
        self.observe(communicator, time, reliable, run)

    def observe(
        self,
        communicator: str,
        time: int,
        reliable: bool,
        run: "int | None" = None,
    ) -> None:
        """Feed one communicator access; may emit an alarm/clear event."""
        buffer = self._buffers.get(communicator)
        if buffer is None:
            return
        if len(buffer) == self.window:
            self._counts[communicator] -= buffer[0]
        buffer.append(bool(reliable))
        self._counts[communicator] += bool(reliable)
        if len(buffer) < self.window:
            return
        rate = self._counts[communicator] / self.window
        alarm, clear = self._thresholds[communicator]
        if not self._alarmed[communicator] and rate < alarm:
            self._alarmed[communicator] = True
            self.events.append(
                LrcAlarm(
                    time=time,
                    run=run,
                    communicator=communicator,
                    rate=rate,
                    threshold=alarm,
                    window=self.window,
                )
            )
        elif self._alarmed[communicator] and rate >= clear:
            self._alarmed[communicator] = False
            self.events.append(
                LrcClear(
                    time=time,
                    run=run,
                    communicator=communicator,
                    rate=rate,
                    threshold=clear,
                    window=self.window,
                )
            )

    # ------------------------------------------------------------------

    def rate(self, communicator: str) -> "float | None":
        """Return the current windowed rate.

        ``None`` before the first full window — and for communicators
        the monitor does not watch.
        """
        buffer = self._buffers.get(communicator)
        if buffer is None or len(buffer) < self.window:
            return None
        return self._counts[communicator] / self.window

    def alarmed(self, communicator: str) -> bool:
        """Return ``True`` iff *communicator* is currently in alarm."""
        return self._alarmed.get(communicator, False)

    def active_alarms(self) -> list[str]:
        """Return the currently alarmed communicators, sorted."""
        return sorted(c for c, on in self._alarmed.items() if on)


class LatchChanges(NamedTuple):
    """One communicator's latch changes, column-wise.

    ``step`` is the access index at which the event is emitted,
    ``alarm`` tells an alarm from a clear, and ``fails`` counts the
    unreliable accesses of the window ending at ``step``.
    """

    run: np.ndarray
    step: np.ndarray
    alarm: np.ndarray
    fails: np.ndarray


_NO_CHANGES = LatchChanges(
    np.empty(0, dtype=np.int64),
    np.empty(0, dtype=np.int64),
    np.empty(0, dtype=bool),
    np.empty(0, dtype=np.int64),
)


def _count_thresholds(
    communicator: str, alarm_below: float, clear_above: float, window: int
) -> tuple[int, int]:
    """Translate rate thresholds into integer failure-count thresholds.

    A full window with ``f`` failures has rate ``(window - f) / window``
    — evaluated with the same float division the scalar monitor uses,
    so the integer translation is exact.  Returns ``(need_fails,
    max_clear_fails)``: the window is *below* the alarm threshold iff
    ``f >= need_fails`` and *above* the clear threshold iff
    ``f <= max_clear_fails`` (which is ``-1`` when no window can clear,
    i.e. ``clear_above > 1``).  An alarm threshold above 1 would alarm
    on every full window and is refused.
    """
    if alarm_below > 1.0:
        raise RuntimeSimulationError(
            f"communicator {communicator!r}: alarm threshold "
            f"{alarm_below} exceeds 1; every window would alarm"
        )
    counts = np.arange(window + 1, dtype=np.float64) / window
    below = counts < alarm_below
    above = counts >= clear_above
    max_below = int(np.flatnonzero(below).max()) if below.any() else -1
    min_above = (
        int(above.argmax()) if above.any() else window + 1
    )
    return window - max_below, window - min_above


def dense_changes(
    communicator: str,
    status: np.ndarray,
    alarm_below: float,
    clear_above: float,
    window: int,
) -> LatchChanges:
    """The latch changes of a ``(runs, samples)`` status tensor.

    Windowed failure counts come from one int32 cumulative sum; each
    full window is coded ``1`` (below the alarm threshold), ``-1``
    (at or above the clear threshold) or ``0``.  Only a step whose
    code is nonzero and differs from its predecessor can move the
    latch, so the set/reset scan runs over those change points alone.
    Rows are processed in blocks of about :data:`DRAW_CHUNK_BYTES` of
    working set.
    """
    runs, samples = status.shape
    steps = samples - window + 1
    need, max_clear = _count_thresholds(
        communicator, alarm_below, clear_above, window
    )
    if steps <= 0 or runs == 0:
        return _NO_CHANGES
    parts = []
    rows = max(1, DRAW_CHUNK_BYTES // (16 * samples))
    for lo in range(0, runs, rows):
        block = status[lo : lo + rows]
        cum = np.zeros((len(block), samples + 1), dtype=np.int32)
        np.cumsum(~block, axis=1, dtype=np.int32, out=cum[:, 1:])
        fails = cum[:, window:] - cum[:, :-window]
        below = (fails >= need).view(np.int8)
        code = below - (fails <= max_clear).view(np.int8)
        change = code != 0
        change[:, 1:] &= code[:, 1:] != code[:, :-1]
        at = np.flatnonzero(change)
        row, t = np.divmod(at, steps)
        value = code.ravel()[at]
        # The latch starts cleared in every row; a change point moves
        # it iff its code differs from the row's previous change point.
        before = np.empty_like(value)
        before[:1] = -1
        before[1:] = value[:-1]
        before[np.flatnonzero(np.diff(row)) + 1] = -1
        moved = np.flatnonzero(value != before)
        parts.append(LatchChanges(
            row[moved] + lo,
            t[moved] + (window - 1),
            value[moved] == 1,
            fails.ravel()[at[moved]],
        ))
    return LatchChanges(*(np.concatenate(column) for column in zip(*parts)))


def sparse_changes(
    communicator: str,
    fail_runs: np.ndarray,
    fail_steps: np.ndarray,
    samples: int,
    alarm_below: float,
    clear_above: float,
    window: int,
) -> LatchChanges:
    """The latch changes from access-failure *positions* alone.

    Produces exactly the changes of :func:`dense_changes` without
    materializing the ``(runs, samples)`` status tensor: since the
    alarm threshold is at most 1, a window can only drop below it if it
    contains a failure, and every window free of failures has rate 1.0
    and therefore clears.  All latch work is restricted to the window
    neighbourhoods of the failures — ``O(failures x window)`` instead
    of ``O(runs x samples)`` — which pays when failures are rare.

    ``fail_runs``/``fail_steps`` hold the run and access index of every
    unreliable access, sorted by ``(run, step)``.
    """
    steps_total = samples - window + 1
    need_fails, max_clear_fails = _count_thresholds(
        communicator, alarm_below, clear_above, window
    )
    if steps_total <= 0 or fail_steps.size == 0 or need_fails > window:
        return _NO_CHANGES  # need_fails > window: nothing ever alarms
    pad = np.int64(samples + window)
    fkey = (
        fail_runs.astype(np.int64) * pad
        + fail_steps.astype(np.int64)
    )
    # Inputs are (run, step)-sorted in the production path; sort and
    # deduplicate defensively (sort + mask — cheaper than np.unique's
    # hash table at these sizes).
    if fkey.size > 1:
        if not (fkey[1:] >= fkey[:-1]).all():
            fkey = np.sort(fkey)
        if (fkey[1:] == fkey[:-1]).any():
            fkey = fkey[np.r_[True, fkey[1:] != fkey[:-1]]]
    # Candidate window-end steps: every t whose window [t, t + window)
    # contains at least one failure; everything outside is rate 1.0.
    # Failures closer than `window` share candidate steps, so merge
    # them into blocks and emit one contiguous step range per block —
    # no per-failure expansion, no sorting, no deduplication.  (Run
    # boundaries always split: the key padding makes the cross-run
    # stride exceed `window`.)
    block_start = np.empty(fkey.shape, dtype=bool)
    block_start[0] = True
    block_start[1:] = fkey[1:] - fkey[:-1] > window
    # A window never spans two blocks, so a block with fewer than
    # `need_fails` failures in total cannot alarm — and since the latch
    # resets between blocks, it cannot produce any event at all.  Drop
    # such blocks before expanding candidates; on a healthy system with
    # a sensible alarm margin this discards everything immediately.
    sidx = np.flatnonzero(block_start)
    eidx = np.r_[sidx[1:], fkey.size]
    qualifying = eidx - sidx >= need_fails
    if not qualifying.any():
        return _NO_CHANGES
    first = fkey[sidx[qualifying]]
    last = fkey[eidx[qualifying] - 1]
    base = (first // pad) * pad
    lo = np.maximum(first - (window - 1), base)
    hi = np.minimum(last, base + (steps_total - 1))
    lengths = hi - lo + 1
    starts = np.cumsum(lengths) - lengths
    total = int(lengths.sum())
    key = np.arange(total, dtype=np.int64)
    key += np.repeat(lo - starts, lengths)
    run = np.repeat(first // pad, lengths)
    t = key - run * pad
    gap = np.zeros(total, dtype=bool)
    gap[starts] = True
    f = np.searchsorted(fkey, key + window) - np.searchsorted(fkey, key)
    below = f >= need_fails
    if max_clear_fails < 0:
        # clear_above > 1: an alarm can never clear, so only the first
        # below-threshold window of each run emits anything.
        i = np.flatnonzero(below)
        i = i[np.r_[True, run[i][1:] != run[i][:-1]]] if i.size else i
        return LatchChanges(
            run[i], t[i] + (window - 1), np.ones(i.size, dtype=bool), f[i]
        )
    # Set/reset latch over the candidate sequence.  A gap between
    # candidates is a stretch of rate-1.0 windows, so it clears the
    # latch; encode that as a clear marker ranked below a same-step
    # alarm.
    above = f <= max_clear_fails
    idx = np.arange(total, dtype=np.int64)
    code = np.where(
        below, 2 * idx + 1, np.where(above | gap, 2 * idx, -1)
    )
    acc = np.maximum.accumulate(code)
    alarmed = (acc >= 0) & (acc & 1 == 1)
    prev = np.empty_like(alarmed)
    prev[0] = False
    prev[1:] = alarmed[:-1]
    state_before = prev & ~gap
    last_in_block = np.empty_like(gap)
    last_in_block[:-1] = gap[1:]
    last_in_block[-1] = True
    rising = np.flatnonzero(alarmed & ~state_before)
    falling = np.flatnonzero(state_before & ~alarmed)
    # An alarm still latched at the end of a candidate block clears at
    # the very next step, whose window is failure-free (rate 1.0) —
    # unless the block already ends at the final full window.
    terminal = np.flatnonzero(
        alarmed & last_in_block & (t < steps_total - 1)
    )
    changed = np.concatenate([rising, falling, terminal])
    return LatchChanges(
        run[changed],
        t[changed] + (window - 1)
        + np.repeat([0, 0, 1], [rising.size, falling.size, terminal.size]),
        np.repeat(
            [True, False, False], [rising.size, falling.size, terminal.size]
        ),
        np.concatenate(
            [f[rising], f[falling], np.zeros(terminal.size, dtype=f.dtype)]
        ),
    )


def monitor_events(
    changes: "Sequence[tuple[str, LatchChanges, np.ndarray, float, float]]",
    window: int,
    rank: "Mapping[str, int] | None" = None,
    first_run: int = 0,
) -> list[ResilienceEvent]:
    """Events of several communicators' changes, in emission order.

    Each item of *changes* is ``(communicator, changes, times,
    alarm_below, clear_above)``, *times* mapping access index to
    simulation time.  Events are ordered by run, time, then
    communicator *rank* (the scalar engine's same-instant order;
    default: the order of *changes*) with one ``lexsort`` over all of
    them, and only then built; runs are offset by *first_run*.
    """
    if rank is None:
        rank = {name: i for i, (name, *_) in enumerate(changes)}
    parts = [c for c in changes if c[1].run.size]
    if not parts:
        return []
    names, found, times, alarms, clears = zip(*parts)
    source = np.repeat(np.arange(len(parts)), [c.run.size for c in found])
    run = np.concatenate([c.run for c in found])
    time = np.concatenate([t[c.step] for t, c in zip(times, found)])
    order = np.lexsort(
        (np.array([rank[name] for name in names])[source], time, run)
    )
    alarm = np.concatenate([c.alarm for c in found])[order]
    fails = np.concatenate([c.fails for c in found])[order]
    thresholds = (clears, alarms)
    return [
        (LrcAlarm if a else LrcClear)(
            time=t, run=r, communicator=names[i], rate=x,
            threshold=thresholds[a][i], window=window,
        )
        for t, r, i, x, a in zip(
            time[order].tolist(),
            (run[order] + first_run).tolist(),
            source[order].tolist(),
            ((window - fails) / window).tolist(),
            alarm.tolist(),
        )
    ]


def batch_monitor_events(
    communicator: str,
    status: np.ndarray,
    times: np.ndarray,
    alarm_below: float,
    clear_above: float,
    window: int,
) -> list[ResilienceEvent]:
    """Vectorized monitor pass over one communicator's status tensor.

    *status* is the ``(runs, samples)`` per-access reliability tensor
    of the communicator, *times* the ``(samples,)`` access instants.
    Implements exactly the scalar monitor's semantics — full-window
    rates, alarm when ``rate < alarm_below``, clear when
    ``rate >= clear_above`` — with the dense pass of
    :func:`dense_changes`; events come in ``(run, time)`` order.
    """
    changes = dense_changes(
        communicator, status, alarm_below, clear_above, window
    )
    return monitor_events(
        [(communicator, changes, times, alarm_below, clear_above)], window
    )


def monitor_events_from_failures(
    communicator: str,
    fail_runs: np.ndarray,
    fail_steps: np.ndarray,
    runs: int,
    samples: int,
    times: np.ndarray,
    alarm_below: float,
    clear_above: float,
    window: int,
) -> list[ResilienceEvent]:
    """Sparse monitor pass from access-failure *positions* alone.

    Produces exactly the events of :func:`batch_monitor_events` from
    the ``(run, step)``-sorted positions of the unreliable accesses
    (see :func:`sparse_changes`); *times* maps access index to
    simulation time.
    """
    changes = sparse_changes(
        communicator, fail_runs, fail_steps, samples,
        alarm_below, clear_above, window,
    )
    return monitor_events(
        [(communicator, changes, times, alarm_below, clear_above)], window
    )

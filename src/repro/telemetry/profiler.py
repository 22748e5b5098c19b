"""Stage profiling for the batch executor's hot path.

:class:`StageProfiler` wraps named phases of a computation in
``time.perf_counter`` timers and aggregates per-stage call counts and
cumulative seconds.  The default :data:`NULL_PROFILER` keeps the
disabled cost to a single attribute check per stage — the batch
executor is guarded to stay within 1.3x of its un-instrumented
throughput even with a live profiler attached
(``benchmarks/test_bench_telemetry_overhead.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class StageStats:
    """Aggregated timings of one named stage."""

    name: str
    calls: int
    total_seconds: float

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.calls if self.calls else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "calls": self.calls,
            "total_seconds": self.total_seconds,
            "mean_seconds": self.mean_seconds,
        }


class _StageTimer:
    """Context manager accumulating one stage invocation."""

    __slots__ = ("_profiler", "_name", "_start")

    def __init__(self, profiler: "StageProfiler", name: str) -> None:
        self._profiler = profiler
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_StageTimer":
        self._start = self._profiler._clock()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        elapsed = self._profiler._clock() - self._start
        calls, total = self._profiler._stages.get(self._name, (0, 0.0))
        self._profiler._stages[self._name] = (calls + 1, total + elapsed)


class _NullTimer:
    """Shared do-nothing context manager for the null profiler."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NULL_TIMER = _NullTimer()


class StageProfiler:
    """Accumulates wall-clock time per named stage.

    Stage names are free-form; the batch executor uses
    ``plan-compile``, ``seed-derivation``, ``fault-precompute``,
    ``status-collapse``, ``propagate``, ``reduce``, ``monitor`` and
    ``scalar-fallback``.
    Insertion order is preserved in reports.
    """

    enabled = True

    def __init__(
        self, clock: Callable[[], float] = time.perf_counter
    ) -> None:
        self._clock = clock
        self._stages: dict[str, tuple[int, float]] = {}

    def stage(self, name: str) -> _StageTimer:
        """Time one invocation of *name* as a context manager."""
        return _StageTimer(self, name)

    def stats(self) -> list[StageStats]:
        """Per-stage aggregates in first-seen order."""
        return [
            StageStats(name, calls, total)
            for name, (calls, total) in self._stages.items()
        ]

    def total_seconds(self) -> float:
        return sum(total for _, total in self._stages.values())

    def reset(self) -> None:
        self._stages.clear()

    def render(self) -> str:
        """Fixed-width text report of the recorded stages."""
        stats = self.stats()
        if not stats:
            return "profile: no stages recorded"
        grand = self.total_seconds()
        width = max(len(s.name) for s in stats)
        lines = ["stage profile (wall seconds)"]
        for s in stats:
            share = (s.total_seconds / grand * 100.0) if grand else 0.0
            lines.append(
                f"  {s.name:<{width}}  {s.total_seconds:>10.6f}s"
                f"  x{s.calls:<5d} {share:5.1f}%"
            )
        lines.append(f"  {'total':<{width}}  {grand:>10.6f}s")
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        return {
            "total_seconds": self.total_seconds(),
            "stages": [s.to_dict() for s in self.stats()],
        }


class NullProfiler(StageProfiler):
    """Do-nothing profiler; ``stage`` returns a shared no-op timer."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def stage(self, name: str) -> Any:
        return _NULL_TIMER


#: Shared default so executors never branch on ``profiler is None``.
NULL_PROFILER = NullProfiler()

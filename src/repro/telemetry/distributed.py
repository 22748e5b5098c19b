"""Distributed job tracing: one trace across client, daemon, shards.

PR 4's :class:`~repro.telemetry.trace.Tracer` stops at the process
boundary: it records spans of *one* process against *one*
``perf_counter`` origin.  The service fleet (PRs 7–8) spreads a single
job over at least three processes — the submitting client, the daemon
worker thread, and the forked shard workers — so this module adds the
Dapper-style glue that stitches them back together:

* a **trace context** (:class:`TraceContext`) minted by the client
  (:func:`mint_trace_id`), carried over HTTP in the
  :data:`TRACE_HEADER` header, and forwarded into forked shard
  workers through the executor payloads;
* **epoch-stamped span records** — plain picklable dicts holding
  ``started_at`` (epoch seconds) and ``duration_s``, so spans from
  different processes on one host share a comparable clock without
  sharing a ``perf_counter`` origin (:func:`shard_span`,
  :func:`client_span_record`);
* a **trace builder** (:func:`build_job_trace`) that rebases every
  span — daemon lifecycle stages derived from the job's event stream,
  worker shard spans, supervised retry/backoff spans, and client-side
  submit/429 spans — onto one origin and renders a single Chrome
  trace-event document, one ``pid`` lane per process, every event
  stamped with the shared ``trace_id``.

The output loads in ``chrome://tracing`` / Perfetto and summarises
through the existing ``repro trace`` command.  Everything here is
observer-only: span records ride *next to* batch results, never inside
them, so traced runs stay bit-identical to untraced ones.

This module reads wall clocks (span timestamps) and is on the
determinism-lint allowlist; clocks never reach simulation state.
"""

from __future__ import annotations

import os
import time
import uuid
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

#: HTTP header carrying the client-minted trace id.
TRACE_HEADER = "X-Repro-Trace-Id"

#: Environment kill-switch: ``REPRO_TRACE=0`` stops the client from
#: minting/propagating trace ids (the daemon then mints server-side).
TRACE_ENV = "REPRO_TRACE"

#: Chrome-trace ``pid`` lanes; shard ``k`` renders as pid ``100 + k``.
CLIENT_PID = 1
DAEMON_PID = 2
SHARD_PID_BASE = 100


def tracing_enabled(
    environ: "Mapping[str, str] | None" = None,
) -> bool:
    """Whether client-side trace propagation is on (default yes)."""
    env = os.environ if environ is None else environ
    return env.get(TRACE_ENV, "1") != "0"


def mint_trace_id() -> str:
    """A fresh 16-hex-digit trace id.

    Trace ids are telemetry-only correlation keys: they never feed a
    simulation stream, so OS entropy is fine here (the determinism
    lint polices clocks and RNG draws, not identifiers).
    """
    return uuid.uuid4().hex[:16]


@dataclass(frozen=True)
class TraceContext:
    """The picklable span context a job's processes share.

    Shipped into forked shard workers through the executor payload
    path, so every span any process records carries the same
    ``trace_id`` / ``job_id`` pair.
    """

    trace_id: str
    job_id: str = ""

    def to_dict(self) -> dict:
        return {"trace_id": self.trace_id, "job_id": self.job_id}


class _NullSpanRecorder:
    """No-op recorder used when no trace context is attached."""

    spans: tuple = ()

    def __enter__(self) -> "_NullSpanRecorder":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None


class ShardSpanRecorder:
    """Records one worker-side shard span with epoch timestamps.

    Used as a context manager around ``run_slice`` inside the worker
    (forked process or inline fallback).  The resulting span dict is
    plain JSON-able data, shipped back through the picklable
    ``_ShardPayload`` — it never touches the batch result itself.
    The parent stamps the ``shard`` index and ``attempt`` number on
    arrival (the worker knows neither).
    """

    def __init__(
        self,
        context: TraceContext,
        run_start: int,
        run_stop: int,
    ) -> None:
        self.context = context
        self.run_start = run_start
        self.run_stop = run_stop
        self.spans: list[dict] = []
        self._t0 = 0.0

    def __enter__(self) -> "ShardSpanRecorder":
        self._t0 = time.time()
        return self

    def __exit__(self, exc_type: Any, *exc: Any) -> None:
        # Record on success only: a failed attempt ships no payload,
        # so recording it would orphan a span the parent never sees —
        # the retry's successful attempt is the one span per shard.
        if exc_type is None:
            self.spans.append(
                {
                    "kind": "shard-span",
                    "trace_id": self.context.trace_id,
                    "job_id": self.context.job_id,
                    "run_start": self.run_start,
                    "run_stop": self.run_stop,
                    "worker_pid": os.getpid(),
                    "started_at": self._t0,
                    "duration_s": time.time() - self._t0,
                }
            )


def shard_span(
    context: "TraceContext | None",
    run_start: int,
    run_stop: int,
) -> "ShardSpanRecorder | _NullSpanRecorder":
    """Span recorder for one shard attempt (no-op without a context)."""
    if context is None:
        return _NullSpanRecorder()
    return ShardSpanRecorder(context, run_start, run_stop)


def client_span_record(
    trace_id: str,
    name: str,
    started_at: float,
    duration_s: float,
    **args: Any,
) -> dict:
    """One client-side span (submit round-trip, 429 backoff sleep)."""
    return {
        "kind": "client-span",
        "trace_id": trace_id,
        "name": name,
        "started_at": started_at,
        "duration_s": max(0.0, duration_s),
        **args,
    }


# ----------------------------------------------------------------------
# Building the merged Chrome trace.
# ----------------------------------------------------------------------

#: Lifecycle stages derived from the job event stream:
#: (span name, start state, end states in preference order).
_LIFECYCLE_STAGES = (
    ("queued", "queued", ("running",)),
    ("cache-lookup", "running", ("cache",)),
    ("executing", "simulating", ("merging",)),
    ("merging", "merging", ()),
)

_TERMINAL = ("done", "failed", "timed_out", "cancelled")


def _first_at(events: Sequence[Mapping], state: str) -> "float | None":
    for event in events:
        if event.get("state") == state:
            return float(event["at"])
    return None


def _shard_pid(span: Mapping) -> int:
    return SHARD_PID_BASE + int(span.get("shard", 0))


def build_job_trace(
    *,
    trace_id: str,
    job_id: str,
    events: Sequence[Mapping],
    spans: Sequence[Mapping] = (),
    client_events: Sequence[Mapping] = (),
    submitted_at: "float | None" = None,
    finished_at: "float | None" = None,
) -> dict:
    """Merge one job's evidence into a single Chrome trace document.

    *events* is the job's progress-event list (each ``{"seq", "state",
    "at", ...}``), *spans* the epoch-stamped worker shard spans, and
    *client_events* any client-side span records.  Every epoch
    timestamp is rebased onto the earliest one seen (``ts`` is
    microseconds since that origin, the Chrome convention), so spans
    from every process line up on one timeline.  The origin is
    exported in ``otherData.origin_epoch_s`` so late client-side spans
    can be merged consistently (:func:`merge_client_events`).
    """
    events = list(events)
    times: list[float] = [float(e["at"]) for e in events if "at" in e]
    if submitted_at is not None:
        times.append(float(submitted_at))
    for span in spans:
        times.append(float(span["started_at"]))
    for span in client_events:
        times.append(float(span["started_at"]))
    if finished_at is not None:
        times.append(float(finished_at))
    origin = min(times) if times else 0.0

    def ts(t: "float | None") -> float:
        return 0.0 if t is None else max(0.0, float(t) - origin) * 1e6

    terminal_at = finished_at
    if terminal_at is None:
        for state in _TERMINAL:
            at = _first_at(events, state)
            if at is not None:
                terminal_at = at
                break
    end_at = terminal_at
    if end_at is None and times:
        end_at = max(times)

    trace: list[dict] = []

    def meta(pid: int, name: str) -> None:
        trace.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": name},
            }
        )

    meta(CLIENT_PID, "client")
    meta(DAEMON_PID, f"daemon ({job_id})")
    for shard in sorted({int(s.get("shard", 0)) for s in spans}):
        meta(SHARD_PID_BASE + shard, f"shard {shard}")

    def complete(
        name: str,
        cat: str,
        start: "float | None",
        stop: "float | None",
        pid: int = DAEMON_PID,
        tid: int = 1,
        **args: Any,
    ) -> None:
        if start is None:
            return
        stop = start if stop is None else stop
        trace.append(
            {
                "name": name,
                "cat": cat,
                "ph": "X",
                "ts": ts(start),
                "dur": max(0.0, float(stop) - float(start)) * 1e6,
                "pid": pid,
                "tid": tid,
                "args": {"trace_id": trace_id, "job": job_id, **args},
            }
        )

    # The whole-job umbrella span.
    job_start = submitted_at
    if job_start is None:
        job_start = _first_at(events, "queued")
    complete(f"job {job_id}", "job", job_start, end_at, tid=0)

    # Daemon lifecycle stages derived from the event stream.
    for name, start_state, end_states in _LIFECYCLE_STAGES:
        start = (
            job_start if start_state == "queued"
            else _first_at(events, start_state)
        )
        if start is None:
            continue
        stop = None
        for end_state in end_states:
            stop = _first_at(events, end_state)
            if stop is not None:
                break
        if stop is None or stop < start:
            stop = end_at if end_at is not None else start
        complete(name, "lifecycle", start, max(start, stop))

    # Every event as an instant (the audit trail inside the trace).
    for event in events:
        state = str(event.get("state", "event"))
        if state == "shard-retry":
            continue  # rendered as a span on the shard's lane below
        detail = {
            key: value
            for key, value in event.items()
            if key not in ("at", "job", "state")
        }
        trace.append(
            {
                "name": state,
                "cat": "lifecycle",
                "ph": "i",
                "ts": ts(event.get("at")),
                "pid": DAEMON_PID,
                "tid": 1,
                "s": "t",
                "args": {
                    "trace_id": trace_id,
                    "job": job_id,
                    **detail,
                },
            }
        )

    # Supervised retry/backoff spans, on the failing shard's lane.
    for event in events:
        if event.get("state") != "shard-retry":
            continue
        at = float(event.get("noted_at") or event.get("at", 0.0))
        delay = float(event.get("delay_s", 0.0))
        shard = int(event.get("shard", 0))
        attempt = int(event.get("attempt", 0))
        complete(
            f"retry shard {shard}",
            "retry",
            at,
            at + delay,
            pid=SHARD_PID_BASE + shard,
            tid=attempt + 1,
            shard=shard,
            attempt=attempt,
            reason=event.get("reason"),
            detail=event.get("detail"),
            delay_s=delay,
        )

    # Worker shard spans (the successful attempt of each shard).
    for span in spans:
        start = float(span["started_at"])
        complete(
            f"shard {span.get('shard', 0)} runs "
            f"[{span.get('run_start', 0)}, {span.get('run_stop', 0)})",
            "shard",
            start,
            start + float(span.get("duration_s", 0.0)),
            pid=_shard_pid(span),
            tid=int(span.get("attempt", 0)) + 1,
            shard=span.get("shard"),
            attempt=span.get("attempt"),
            run_start=span.get("run_start"),
            run_stop=span.get("run_stop"),
            worker_pid=span.get("worker_pid"),
        )

    doc = {
        "traceEvents": trace,
        "displayTimeUnit": "ms",
        "otherData": {
            "trace_id": trace_id,
            "job": job_id,
            "origin_epoch_s": origin,
        },
    }
    return merge_client_events(doc, client_events)


def merge_client_events(
    trace_doc: dict, client_events: Iterable[Mapping]
) -> dict:
    """Append client-side spans to a built job trace, in place.

    The client holds its own epoch-stamped span records (submit
    round-trips, 429 backoff sleeps); the server-built trace carries
    its rebasing origin in ``otherData.origin_epoch_s``, so both sides
    land on one timeline (same-host clocks; skew on a remote client
    shifts the client lane without breaking the daemon/shard lanes).
    """
    origin = float(
        trace_doc.get("otherData", {}).get("origin_epoch_s", 0.0)
    )
    trace_id = trace_doc.get("otherData", {}).get("trace_id", "")
    events = trace_doc.setdefault("traceEvents", [])
    for span in client_events:
        start = float(span["started_at"])
        args = {
            key: value
            for key, value in span.items()
            if key not in ("kind", "name", "started_at", "duration_s")
        }
        args.setdefault("trace_id", trace_id)
        events.append(
            {
                "name": str(span.get("name", "client")),
                "cat": "client",
                "ph": "X",
                "ts": max(0.0, start - origin) * 1e6,
                "dur": float(span.get("duration_s", 0.0)) * 1e6,
                "pid": CLIENT_PID,
                "tid": 1,
                "args": args,
            }
        )
    return trace_doc

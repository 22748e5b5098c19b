"""Unified telemetry: tracing, metrics, and profiling.

Three pillars over one subscriber protocol
(:class:`~repro.telemetry.sink.InstrumentationSink`):

* **Tracing** — :class:`~repro.telemetry.trace.Tracer` records
  hierarchical spans (run → iteration → task release) and instants
  (sensor updates, accesses, votes, broadcasts, resilience events)
  with both wall and logical clocks, exported as Chrome trace-event
  JSON (Perfetto) or JSONL; summarised offline by
  :mod:`repro.telemetry.summary`.
* **Metrics** — :class:`~repro.telemetry.metrics.MetricsRegistry`
  (counters/gauges/histograms) with snapshot and Prometheus text
  exposition, fed online by
  :class:`~repro.telemetry.metrics.MetricsSink` and offline by
  :func:`~repro.telemetry.metrics.record_batch_result` /
  :func:`~repro.telemetry.metrics.record_margins`.
* **Profiling** — :class:`~repro.telemetry.profiler.StageProfiler`
  stage timers around the batch executor's phases, with
  :data:`~repro.telemetry.profiler.NULL_PROFILER` as the free default.
* **Forensics** — :class:`~repro.telemetry.provenance.
  ProvenanceRecorder` keeps a bounded flight recorder and freezes a
  causal chain (fault source → replicas → vote → write → downstream)
  per unreliable write; :mod:`repro.telemetry.postmortem` aggregates
  chains into blame scores and answers counterfactual queries.
* **The run ledger** — :class:`~repro.telemetry.ledger.RunLedger`
  persists per-run empirical rates and LRC margins as append-only
  JSONL keyed by content hashes, powering
  ``repro runs list|show|diff|regress``.

Every observer attaches the same way: as one of the ``sinks=`` of a
simulator.  Event streams are correlated across layers by the
:func:`~repro.telemetry.runid.derive_run_id` key.  The whole package is
zero-dependency and observer-only: attaching telemetry never changes
simulation draws (the PR 2 seed contract is regression-tested in
``tests/test_telemetry.py``).
"""

from repro.telemetry.convergence import (
    AdaptiveResult,
    CommunicatorDiagnostics,
    ConvergenceSnapshot,
    StopDecision,
    StoppingRule,
    checkpoint_schedule,
    drive_adaptive,
    snapshot_from_counts,
)
from repro.telemetry.distributed import (
    TRACE_ENV,
    TRACE_HEADER,
    ShardSpanRecorder,
    TraceContext,
    build_job_trace,
    client_span_record,
    merge_client_events,
    mint_trace_id,
    shard_span,
    tracing_enabled,
)
from repro.telemetry.ledger import (
    MarginDiff,
    Regression,
    RunLedger,
    RunRecord,
    check_regression,
    content_hash,
    diff_records,
    record_from_result,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSink,
    record_batch_result,
    record_margins,
)
from repro.telemetry.profiler import (
    NULL_PROFILER,
    NullProfiler,
    StageProfiler,
    StageStats,
)
from repro.telemetry.postmortem import (
    BlameEntry,
    CounterfactualReport,
    PostmortemReport,
    blame_scores,
    counterfactual,
    load_forensics_file,
    postmortem_to_dict,
    render_postmortem,
)
from repro.telemetry.provenance import (
    CausalChain,
    FaultLink,
    InputStatus,
    IterationFrame,
    ProvenanceRecorder,
)
from repro.telemetry.runid import derive_run_id
from repro.telemetry.sink import (
    HOOK_NAMES,
    HookSinks,
    InstrumentationSink,
    NullSink,
    sinks_for_hook,
)
from repro.telemetry.summary import (
    TraceSummary,
    load_trace_file,
    render_summary,
    summarize_trace,
)
from repro.telemetry.trace import TraceEvent, Tracer

__all__ = [
    "AdaptiveResult",
    "BlameEntry",
    "CausalChain",
    "CommunicatorDiagnostics",
    "ConvergenceSnapshot",
    "Counter",
    "CounterfactualReport",
    "FaultLink",
    "Gauge",
    "HOOK_NAMES",
    "Histogram",
    "HookSinks",
    "InputStatus",
    "InstrumentationSink",
    "IterationFrame",
    "MarginDiff",
    "MetricsRegistry",
    "MetricsSink",
    "NULL_PROFILER",
    "NullProfiler",
    "NullSink",
    "PostmortemReport",
    "ProvenanceRecorder",
    "Regression",
    "RunLedger",
    "RunRecord",
    "ShardSpanRecorder",
    "StageProfiler",
    "StageStats",
    "StopDecision",
    "StoppingRule",
    "TRACE_ENV",
    "TRACE_HEADER",
    "TraceContext",
    "TraceEvent",
    "TraceSummary",
    "Tracer",
    "blame_scores",
    "build_job_trace",
    "check_regression",
    "checkpoint_schedule",
    "client_span_record",
    "content_hash",
    "counterfactual",
    "derive_run_id",
    "diff_records",
    "drive_adaptive",
    "load_forensics_file",
    "load_trace_file",
    "merge_client_events",
    "mint_trace_id",
    "postmortem_to_dict",
    "record_batch_result",
    "record_from_result",
    "record_margins",
    "render_postmortem",
    "render_summary",
    "shard_span",
    "sinks_for_hook",
    "snapshot_from_counts",
    "summarize_trace",
    "tracing_enabled",
]

"""Reliability-as-a-service: the cached Monte-Carlo query daemon.

PR 7's service layer puts a long-running process in front of the
simulation stack so repeated reliability queries over the same design
are answered from cache instead of recomputed:

* :class:`~repro.service.cache.ResultCache` memoizes Monte-Carlo
  batch results and analytic verification reports, keyed by the
  ledger's content hashes of the (spec, arch, impl) triple plus the
  seed/iterations/fault configuration.  A ``runs`` upgrade
  re-simulates only the missing tail of spawned seeds and merges —
  bit-identical to a fresh full batch under the spawn contract.
* :class:`~repro.service.jobs.ReliabilityService` owns the job queue,
  worker threads, progress-event streams, cache, and
  :class:`~repro.telemetry.ledger.RunLedger` persistence.
* :mod:`repro.service.server` exposes it over HTTP (stdlib
  ``ThreadingHTTPServer`` + JSON, zero dependencies) as the
  ``repro serve`` daemon; :mod:`repro.service.client` is the matching
  ``repro submit`` / ``repro jobs`` client.

PR 8 hardens the fleet: per-job deadlines and cancellation (terminal
states ``timed_out`` / ``cancelled``), a bounded queue with 429 +
``Retry-After`` backpressure, graceful drain on SIGTERM, an
LRU-bounded crash-safe cache, and shard supervision in
:class:`~repro.runtime.executor.ShardedExecutor`, which restarts
crashed or hung shard workers bit-identically.  The
:mod:`repro.chaos` harness injects those faults deterministically and
asserts the guarantees hold.

PR 9 makes the fleet observable end to end: jobs carry distributed
trace ids from the client header through forked shard workers
(:meth:`~repro.service.jobs.ReliabilityService.job_trace` merges one
Chrome trace per job), :class:`~repro.service.cache.ServiceMetrics`
is backed by the PR 4 metrics registry with Prometheus exposition and
latency histograms, state transitions stream to a structured JSONL
:class:`~repro.service.slog.ServiceLog`, rolling SLOs
(:class:`~repro.service.slo.SloTracker`) surface in ``/healthz``, and
:mod:`repro.service.top` is the live ``repro top`` dashboard.

See ``docs/service.md`` for the wire API, cache semantics, and the
failure-mode guarantees, and ``docs/observability.md`` for tracing a
job across the fleet.
"""

from repro.runtime.executor import (
    ChaosAction,
    RetryPolicy,
    ShardedExecutor,
    ShardRetryEvent,
)
from repro.service.cache import McKey, ResultCache, ServiceMetrics
from repro.service.client import (
    ServiceBusyError,
    ServiceClient,
    ServiceClientError,
)
from repro.service.jobs import (
    TERMINAL_STATES,
    Job,
    ReliabilityService,
    ServiceDraining,
    ServiceError,
    ServiceQueueFull,
)
from repro.service.server import serve
from repro.service.slo import SloTracker
from repro.service.slog import ServiceLog
from repro.service.top import (
    parse_prometheus,
    render_frame,
    run_top,
    scrape_metrics,
)

__all__ = [
    "ChaosAction",
    "Job",
    "McKey",
    "ReliabilityService",
    "ResultCache",
    "RetryPolicy",
    "ServiceBusyError",
    "ServiceClient",
    "ServiceClientError",
    "ServiceDraining",
    "ServiceError",
    "ServiceLog",
    "ServiceMetrics",
    "ServiceQueueFull",
    "ShardRetryEvent",
    "ShardedExecutor",
    "SloTracker",
    "TERMINAL_STATES",
    "parse_prometheus",
    "render_frame",
    "run_top",
    "scrape_metrics",
    "serve",
]

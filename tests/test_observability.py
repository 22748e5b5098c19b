"""End-to-end fleet observability (PR 9).

The acceptance demo is ``test_traced_job_survives_worker_kill``: one
``submit`` against a live HTTP daemon running four shards with one
injected worker kill must yield a single merged Chrome trace — client
span, daemon lifecycle, all shard spans, and the retry span — under
one trace id, with exactly one span per shard (no duplicates or
orphans from the killed attempt) and a seq-monotone event stream.

The rest covers the layers underneath: trace-context propagation and
the ``REPRO_TRACE=0`` kill-switch, the registry-backed
:class:`~repro.service.cache.ServiceMetrics` facade, ``/metrics``
content negotiation, the structured JSONL service log, the SLO
tracker in ``/healthz``, and the ``repro top`` Prometheus parser and
renderer.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.errors import ReproError
from repro.experiments import (
    bind_control_functions,
    three_tank_architecture,
    three_tank_spec,
)
from repro.experiments.three_tank_system import baseline_implementation
from repro.io import (
    architecture_to_dict,
    implementation_to_dict,
    specification_to_dict,
)
from repro.service import ReliabilityService, ServiceLog, SloTracker
from repro.service.cache import ServiceMetrics
from repro.service.client import ServiceClient
from repro.service.server import PROMETHEUS_CONTENT_TYPE, make_server
from repro.runtime.executor import (
    ChaosAction,
    RetryPolicy,
    ShardedExecutor,
)
from repro.service.top import (
    parse_prometheus,
    render_frame,
    scrape_metrics,
)
from repro.telemetry import MetricsRegistry
from repro.telemetry.distributed import (
    TRACE_HEADER,
    build_job_trace,
    mint_trace_id,
    tracing_enabled,
)

FUNCTIONS = bind_control_functions()


def design_documents():
    spec = three_tank_spec(lrc_u=0.99, functions=FUNCTIONS)
    return {
        "spec": specification_to_dict(spec),
        "arch": architecture_to_dict(three_tank_architecture()),
        "impl": implementation_to_dict(baseline_implementation()),
    }


def simulate_document(runs=8, iterations=12, seed=5, **extra):
    return {
        "kind": "simulate",
        "runs": runs,
        "iterations": iterations,
        "seed": seed,
        **design_documents(),
        **extra,
    }


def make_service(**kwargs):
    kwargs.setdefault("functions", FUNCTIONS)
    return ReliabilityService(**kwargs)


@pytest.fixture()
def http_service(tmp_path):
    service = make_service(
        workers=2, ledger=str(tmp_path / "runs")
    ).start()
    server = make_server(service, host="127.0.0.1", port=0)
    thread = threading.Thread(
        target=server.serve_forever, daemon=True
    )
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield ServiceClient(host, port), service, (host, port)
    finally:
        server.shutdown()
        server.server_close()
        service.stop()


# ----------------------------------------------------------------------
# Trace-context propagation.
# ----------------------------------------------------------------------


def test_client_header_becomes_the_job_trace_id(http_service):
    client, service, _ = http_service
    reply = client.submit(simulate_document())
    assert client.last_trace_id
    assert reply["trace_id"] == client.last_trace_id
    job = service.get(reply["id"])
    assert job.trace_id == client.last_trace_id


def test_daemon_mints_when_no_header_arrives(http_service):
    client, service, _ = http_service
    # Bypass ServiceClient.submit's minting: raw POST, no header.
    reply = client._request(
        "POST", "/jobs", simulate_document(seed=31)
    )
    assert reply["trace_id"]
    assert service.get(reply["id"]).trace_id == reply["trace_id"]


def test_repro_trace_zero_disables_client_minting(
    http_service, monkeypatch
):
    client, service, _ = http_service
    monkeypatch.setenv("REPRO_TRACE", "0")
    assert not tracing_enabled()
    reply = client.submit(simulate_document(seed=32))
    # The daemon still mints server-side, so the job is traceable,
    # but the id did not come from this client.
    job = service.get(reply["id"])
    assert job.trace_id
    assert client.last_trace_id == reply.get("trace_id")
    assert all(
        span["trace_id"] != "" for span in client.trace_events
    )


def test_tracing_enabled_reads_environment():
    assert tracing_enabled({})
    assert tracing_enabled({"REPRO_TRACE": "1"})
    assert not tracing_enabled({"REPRO_TRACE": "0"})


def test_mint_trace_id_is_unique_and_compact():
    ids = {mint_trace_id() for _ in range(64)}
    assert len(ids) == 64
    assert all(len(t) == 16 for t in ids)


def test_service_tracing_off_still_completes_jobs(tmp_path):
    service = make_service(tracing=False)
    job = service.submit(simulate_document(seed=33))
    service.run_pending()
    assert job.state == "done"
    assert job.spans == []  # no shard spans collected
    # The trace endpoint still renders (lifecycle only).
    doc = service.job_trace(job.id)
    assert doc["traceEvents"]


# ----------------------------------------------------------------------
# The acceptance demo: one traced job across a worker kill.
# ----------------------------------------------------------------------


class KillShardOnce:
    """Chaos hook: kill shard 0's first attempt, then behave."""

    def __init__(self):
        self.killed = False

    def action(self, shard, attempt):
        if shard == 0 and attempt == 0:
            self.killed = True
            return ChaosAction("kill")
        return None


def test_traced_job_survives_worker_kill(tmp_path):
    chaos = KillShardOnce()
    service = make_service(
        workers=1,
        executor_factory=lambda shards: ShardedExecutor(
            shards,
            policy=RetryPolicy(
                retries=2, base_delay_s=0.01, max_delay_s=0.05
            ),
            chaos=chaos,
        ),
    ).start()
    server = make_server(service, host="127.0.0.1", port=0)
    thread = threading.Thread(
        target=server.serve_forever, daemon=True
    )
    thread.start()
    host, port = server.server_address[:2]
    try:
        client = ServiceClient(host, port)
        reply = client.submit(
            simulate_document(runs=8, jobs=4), wait=True
        )
        assert reply["state"] == "done", reply.get("error")
        assert chaos.killed
        trace_id = client.last_trace_id
        doc = client.job_trace(reply["id"])
    finally:
        server.shutdown()
        server.server_close()
        service.stop()

    assert doc["otherData"]["trace_id"] == trace_id
    events = doc["traceEvents"]
    spans = [e for e in events if e.get("ph") == "X"]
    by_cat = {}
    for event in spans:
        by_cat.setdefault(event["cat"], []).append(event)

    # One trace id across every process lane.
    assert {
        e["args"]["trace_id"] for e in events if e.get("ph") != "M"
    } == {trace_id}

    # Client + daemon lifecycle + every shard + the retry, merged.
    assert by_cat["client"], "client submit span missing"
    stages = {e["name"] for e in by_cat["lifecycle"]}
    assert {"queued", "executing"} <= stages
    assert len(by_cat["retry"]) == 1
    assert by_cat["retry"][0]["args"]["shard"] == 0

    # Exactly one span per shard — the killed attempt left neither
    # a duplicate nor an orphan.
    shard_spans = by_cat["shard"]
    shards = sorted(e["args"]["shard"] for e in shard_spans)
    assert shards == [0, 1, 2, 3]
    # The retried shard's surviving span names attempt 1.
    retried = next(
        e for e in shard_spans if e["args"]["shard"] == 0
    )
    assert retried["args"]["attempt"] == 1
    assert all(
        e["args"]["attempt"] == 0
        for e in shard_spans if e["args"]["shard"] != 0
    )

    # Seq monotonicity of the merged daemon event stream.
    seqs = [
        e["args"]["seq"] for e in events
        if e.get("ph") == "i" and "seq" in e.get("args", {})
    ]
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == len(seqs)


def test_tracing_does_not_change_results():
    doc = simulate_document(seed=41, runs=6, jobs=2)
    rates = []
    for tracing in (True, False):
        service = make_service(tracing=tracing)
        job = service.submit(dict(doc))
        service.run_pending()
        assert job.state == "done", job.error
        rates.append(job.result["rates"])
    assert rates[0] == rates[1]


# ----------------------------------------------------------------------
# /metrics content negotiation + /healthz enrichment (satellite a).
# ----------------------------------------------------------------------


def test_metrics_negotiation_and_healthz(http_service):
    client, service, (host, port) = http_service
    client.submit(simulate_document(seed=51), wait=True)

    # Default stays the legacy JSON shape.
    legacy = client.metrics()
    assert legacy["jobs_submitted"] == 1
    assert legacy["jobs_completed"] == 1
    assert legacy["mc_cache_misses"] == 1

    # Accept: text/plain → Prometheus exposition.
    status, content_type, body = scrape_metrics(host, port)
    assert status == 200
    assert content_type == PROMETHEUS_CONTENT_TYPE
    assert "# HELP" in body and "# TYPE" in body
    metrics = parse_prometheus(body)
    submitted = [
        value
        for labels, value in metrics["repro_service_jobs_total"]
        if labels.get("event") == "submitted"
    ]
    assert submitted == [1.0]
    cache_events = metrics["repro_service_cache_events_total"]
    misses = [
        value for labels, value in cache_events
        if labels == {"cache": "mc", "outcome": "miss"}
    ]
    assert misses == [1.0]  # legacy mc_cache_misses, same count
    assert "repro_service_request_seconds_count" in body
    assert "repro_service_uptime_seconds" in metrics

    health = client.health()
    assert health["uptime_seconds"] > 0
    from repro import __version__

    assert health["version"] == __version__
    assert health["slo"]["samples"] == 1
    assert health["slo"]["burn_alarm"] is False
    assert health["active_traces"] == []


def _raw_get(host, port, path, headers=None):
    import http.client

    connection = http.client.HTTPConnection(host, port, timeout=10)
    try:
        connection.request("GET", path, headers=headers or {})
        response = connection.getresponse()
        return (
            response.status,
            response.getheader("Content-Type", ""),
            response.read().decode("utf-8"),
        )
    finally:
        connection.close()


def test_metrics_format_query_overrides_accept(http_service):
    _, _, (host, port) = http_service
    # ?format=prometheus needs no Accept header.
    status, content_type, body = _raw_get(
        host, port, "/metrics?format=prometheus"
    )
    assert status == 200
    assert content_type == PROMETHEUS_CONTENT_TYPE
    assert parse_prometheus(body)
    # ?format=json wins over an Accept asking for text.
    status, content_type, body = _raw_get(
        host, port, "/metrics?format=json",
        headers={"Accept": "text/plain"},
    )
    assert status == 200
    assert content_type.startswith("application/json")
    assert "jobs_submitted" in json.loads(body)


# ----------------------------------------------------------------------
# ServiceMetrics: registry-backed, legacy shape preserved.
# ----------------------------------------------------------------------


def test_service_metrics_keeps_legacy_snapshot_shape():
    metrics = ServiceMetrics()
    metrics.add("jobs_submitted")
    metrics.add("mc_cache_hits", 3)
    snapshot = metrics.snapshot()
    assert snapshot["jobs_submitted"] == 1
    assert snapshot["mc_cache_hits"] == 3
    assert snapshot["shard_retries"] == 0
    assert metrics.get("mc_cache_hits") == 3
    # Unknown names still count (forward compatibility).
    metrics.add("novel_event")
    assert metrics.get("novel_event") == 1


def test_service_metrics_prometheus_exposition_parses():
    metrics = ServiceMetrics(registry=MetricsRegistry())
    metrics.add("shard_retries", 2)
    metrics.observe_request("/jobs", "POST", 202, 0.05)
    metrics.observe_stage("simulate", 0.2)
    metrics.observe_job("simulate", "done", 0.4)
    metrics.set_gauge(
        "repro_service_queue_depth", 3, help="Queue depth."
    )
    parsed = parse_prometheus(metrics.to_prometheus())
    retries = parsed["repro_service_shard_retries_total"]
    assert retries == [({}, 2.0)]
    requests = parsed["repro_service_requests_total"]
    assert requests == [
        ({"endpoint": "/jobs", "method": "POST", "status": "202"},
         1.0)
    ]
    assert parsed["repro_service_queue_depth"] == [({}, 3.0)]
    assert (
        {"stage": "simulate", "le": "+Inf"}, 1.0
    ) in parsed["repro_service_job_stage_seconds_bucket"]


def test_service_metrics_rejects_negative_add():
    with pytest.raises(ValueError):
        ServiceMetrics().add("jobs_submitted", -1)


# ----------------------------------------------------------------------
# Structured service log (JSONL) + SLO tracker.
# ----------------------------------------------------------------------


def test_service_log_writes_seq_stamped_jsonl(tmp_path):
    path = tmp_path / "logs" / "service.jsonl"
    log = ServiceLog(path)
    log.emit("queued", trace_id="t1", job_id="job-1")
    log.emit("running", trace_id="t1", job_id="job-1")
    log.close()
    lines = [
        json.loads(line)
        for line in path.read_text().splitlines()
    ]
    assert [line["event"] for line in lines] == [
        "queued", "running",
    ]
    assert [line["seq"] for line in lines] == [0, 1]
    assert all(line["trace_id"] == "t1" for line in lines)
    assert all(line["ts"] > 0 for line in lines)


def test_service_log_survives_closed_stream(tmp_path):
    path = tmp_path / "service.jsonl"
    log = ServiceLog(path)
    log.emit("queued")
    log.close()
    log.emit("after-close")  # must not raise
    assert [e["event"] for e in log.recent][-1] == "after-close"


def test_http_service_writes_structured_log(tmp_path):
    log_path = tmp_path / "service.jsonl"
    service = make_service(log=str(log_path), workers=1).start()
    job = service.submit(simulate_document(seed=61))
    assert job.wait(timeout=60)
    assert job.state == "done"
    service.stop()
    lines = [
        json.loads(line)
        for line in log_path.read_text().splitlines()
    ]
    events = [line["event"] for line in lines]
    assert events[0] == "queued"
    assert "done" in events
    assert events[-1] == "service-stopped"
    job_lines = [line for line in lines if "job_id" in line]
    assert all(
        line["trace_id"] == job.trace_id for line in job_lines
    )
    seqs = [line["seq"] for line in lines]
    assert seqs == sorted(seqs)


def test_slo_tracker_quantiles_and_burn_alarm():
    slo = SloTracker(window=100, error_burn_threshold=0.2,
                     min_samples=5)
    empty = slo.snapshot()
    assert empty["samples"] == 0
    assert empty["p99_s"] is None
    assert empty["burn_alarm"] is False

    for ms in range(1, 101):
        slo.record(ms / 1000.0, ok=True)
    snap = slo.snapshot()
    assert snap["p50_s"] == pytest.approx(0.050)
    assert snap["p99_s"] == pytest.approx(0.099)
    assert snap["error_rate"] == 0.0
    assert snap["burn_alarm"] is False

    for _ in range(30):
        slo.record(0.01, ok=False)
    snap = slo.snapshot()
    assert snap["error_rate"] == pytest.approx(0.3)
    assert snap["burn_alarm"] is True


def test_slo_tracker_rejects_nonsense():
    with pytest.raises(ReproError):
        SloTracker(window=0)
    with pytest.raises(ReproError):
        SloTracker(error_burn_threshold=1.5)


# ----------------------------------------------------------------------
# Client backoff events (satellite b).
# ----------------------------------------------------------------------


def test_429_backoff_is_logged_as_structured_events(tmp_path):
    service = make_service(queue_limit=1)  # workers not started
    server = make_server(service, host="127.0.0.1", port=0)
    thread = threading.Thread(
        target=server.serve_forever, daemon=True
    )
    thread.start()
    host, port = server.server_address[:2]
    seen = []
    try:
        client = ServiceClient(
            host, port, retries=2, backoff_s=0.01,
            sleep=lambda _s: None, on_log=seen.append,
        )
        client.submit(simulate_document(seed=71))  # fills the queue
        with pytest.raises(ReproError):
            client.submit(simulate_document(seed=72))
    finally:
        server.shutdown()
        server.server_close()
        service.stop()
    assert len(client.backoff_events) == 2
    assert seen == client.backoff_events
    first = client.backoff_events[0]
    assert first["event"] == "backoff-429"
    assert first["attempt"] == 1
    assert first["path"] == "/jobs"
    assert first["delay_s"] > 0
    assert first["trace_id"]  # the doomed submission's minted id
    # Backoffs also become client spans for the job trace.
    backoff_spans = [
        s for s in client.trace_events if s["name"] == "backoff-429"
    ]
    assert len(backoff_spans) == 2


# ----------------------------------------------------------------------
# repro top: parser and renderer.
# ----------------------------------------------------------------------


def test_parse_prometheus_round_trip():
    registry = MetricsRegistry()
    counter = registry.counter(
        "repro_demo_total", labels={"kind": "a b"},
        help="Demo.",
    )
    counter.inc(4)
    registry.histogram(
        "repro_demo_seconds", help="Demo latency.",
    ).observe(0.2)
    parsed = parse_prometheus(registry.to_prometheus())
    assert parsed["repro_demo_total"] == [({"kind": "a b"}, 4.0)]
    buckets = parsed["repro_demo_seconds_bucket"]
    assert ({"le": "+Inf"}, 1.0) in buckets


@pytest.mark.parametrize("bad", [
    "metric_without_value",
    'metric{unclosed="x" 1',
    "metric 1 }{",
    "metric notanumber",
    '{nameless="x"} 1',
])
def test_parse_prometheus_rejects_malformed(bad):
    with pytest.raises(ReproError):
        parse_prometheus(bad)


def test_render_frame_summarizes_fleet_state():
    metrics = {
        "repro_service_jobs_total": [
            ({"event": "submitted"}, 5.0),
            ({"event": "completed"}, 4.0),
            ({"event": "failed"}, 1.0),
        ],
        "repro_service_cache_events_total": [
            ({"cache": "mc", "outcome": "hit"}, 3.0),
            ({"cache": "mc", "outcome": "miss"}, 1.0),
        ],
        "repro_service_shard_retries_total": [({}, 2.0)],
    }
    health = {
        "status": "ok", "version": "1.0.0",
        "uptime_seconds": 12.5, "queue_depth": 1,
        "queue_limit": 8, "jobs_running": 2,
        "workers": 2, "workers_alive": 2,
        "slo": {
            "p50_s": 0.002, "p90_s": 0.01, "p99_s": 1.5,
            "error_rate": 0.2, "samples": 5,
            "burn_alarm": True,
        },
        "active_traces": ["abc123"],
    }
    frame = render_frame(metrics, health)
    assert "submitted:5" in frame
    assert "completed:4" in frame
    assert "shard retries 2" in frame
    assert "75.0%" in frame  # (3 hits) / (4 lookups)
    assert "2.0ms" in frame and "1.50s" in frame
    assert "ERROR BURN" in frame
    assert "abc123" in frame


def test_top_once_renders_live_daemon(http_service, capsys):
    client, _, (host, port) = http_service
    client.submit(simulate_document(seed=81), wait=True)
    from repro.service.top import run_top

    frames = []
    assert run_top(host, port, once=True, out=frames.append) == 0
    assert len(frames) == 1
    assert "repro top — ok" in frames[0]
    assert "completed:1" in frames[0]


def test_top_once_reports_unreachable_daemon_in_one_line():
    from repro.service.top import run_top

    # Bind-and-close to reserve a port nothing is listening on.
    import socket

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]

    frames, errors = [], []
    status = run_top(
        "127.0.0.1", dead_port, once=True,
        out=frames.append, err=errors.append,
    )
    assert status == 1
    assert frames == []
    assert len(errors) == 1
    assert errors[0].startswith("repro top: ")
    assert "\n" not in errors[0]


def test_render_frame_shows_convergence_pane():
    metrics = {
        "repro_service_jobs_total": [({"event": "completed"}, 1.0)],
        "repro_service_convergence_half_width": [
            ({"communicator": "u"}, 0.0125),
            ({"communicator": "s"}, 0.0031),
        ],
        "repro_service_convergence_rel_half_width": [
            ({"communicator": "u"}, 0.0127),
            ({"communicator": "s"}, 0.0031),
        ],
        "repro_service_convergence_margin": [
            ({"communicator": "u"}, 0.0044),
            ({"communicator": "s"}, -0.0002),
        ],
        "repro_service_adaptive_stops_total": [({}, 2.0)],
        "repro_service_adaptive_runs_saved_total": [({}, 512.0)],
    }
    frame = render_frame(metrics, {"status": "ok"})
    assert "convergence (latest checkpoint)" in frame
    assert "adaptive stops 2" in frame
    assert "runs saved 512" in frame
    assert "u          ±0.0125  rel 0.0127  margin +0.0044" in frame
    assert "margin -0.0002" in frame
    # Without convergence samples the pane stays out of the frame.
    assert "convergence" not in render_frame(
        {"repro_service_jobs_total": []}, {"status": "ok"}
    )

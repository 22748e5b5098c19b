"""The service workload: a closed-loop job mix against ``repro serve``.

One bench process drives a daemon (2 workers, ledger and cache
directories on local disk) over one HTTP connection.  Jobs are sent
back to back, each with ``wait=True``, and timed from its send to the
finished reply.  One job in flight at a time keeps a cache hit from
overlapping a miss on the daemon's interpreter lock, which made the
latencies of an open-loop schedule too unsteady to gate on (see
``WORKLOADS.md``).

The job sequence and every key are derived from the workload seed.
Keys a job class expects to find cached (hits, tail upgrades,
repeated verifies) are put in the cache by an untimed warm-up, and
every other job gets a seed no other job uses, so each job's cache
outcome is fixed by the sequence.
"""

from __future__ import annotations

import http.client
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from common import (
    ROOT,
    WORK,
    Metrics,
    Outcome,
    derive,
    percentile,
    program_env,
    timed_median,
    vm_hwm_mb,
)

from repro.analysis import Verifier
from repro.experiments import (
    baseline_implementation,
    scenario1_implementation,
    three_tank_architecture,
    three_tank_htl,
    three_tank_spec,
)
from repro.htl.compiler import compile_program
from repro.io import (
    architecture_to_dict,
    implementation_to_dict,
    specification_to_dict,
)
from repro.runtime.batch import BatchSimulator
from repro.runtime.faults import BernoulliFaults
from repro.runtime.plan import compile_plan
from repro.service import ServiceClient
from repro.service.client import ServiceClientError
from repro.service.top import parse_prometheus
from repro.telemetry.distributed import SHARD_PID_BASE

#: Jobs per second of ``--seconds``.  The job count is fixed by
#: ``--seconds`` so that the counts of a traced run repeat exactly;
#: this rate makes a run take about ``--seconds``.  The daemon's
#: closed-loop capacity on this mix was about 28 jobs/s over its
#: first 200 jobs and 17-19 jobs/s over its first 750 on a 2-vCPU VM,
#: falling as the ledger grows (see WORKLOADS.md).
JOBS_PER_S = 20.0
ITERATIONS = 100
WORKERS = 2
TAG = 3
#: Job classes per block of 40 consecutive jobs; each block is
#: shuffled, so every run carries these shares exactly.  Sorted by
#: latency the classes fall into bands: verifies (17.5%), hits (50%),
#: then adaptive jobs, misses and upgrades (heavy, 30%), then
#: supervised 4000-run misses (2.5%).  p50 sits 17.5 points inside the
#: hit band and p90 7.5 points inside the heavy band, away from a
#: class boundary, and p90 has more than ten samples beyond it.
BLOCK = (
    ("hit", 20),
    ("verify-repeat", 5),
    ("verify-fresh", 2),
    ("adaptive", 1),
    ("miss", 6),
    ("upgrade", 3),
    ("upgrade-jobs2", 2),
    ("supervised-miss", 1),
)
EXPECTED_CACHE = {
    "hit": "hit",
    "verify-repeat": "hit",
    "verify-fresh": "miss",
    "adaptive": "miss",
    "miss": "miss",
    "upgrade": "partial",
    "upgrade-jobs2": "partial",
    "supervised-miss": "miss",
}
#: (implementation, lrc_u) of the 3TS variants jobs draw from; all
#: four are feasible, so every verify job must report it.
VARIANTS = (
    ("baseline", 0.99),
    ("baseline", 0.995),
    ("scenario1", 0.99),
    ("scenario1", 0.9975),
)
HOT_SEEDS_PER_VARIANT = 2
HOT_RUNS = 1000
UPGRADE_BASE_RUNS = 500
#: Hits and upgrades whose served rates are re-derived by a fresh
#: ``run_batch`` in the bench process.
CHECKED_PER_CLASS = 3

#: Per-layer metrics of the traced run, name -> unit.  Kernel stages
#: run inside the daemon, which exposes no stage profiler;
#: ``batch.LAYERS`` measures those layers.
LAYERS = {
    "plan.compile_s": "s",
    "plan.draws_per_iter": "count",
    "executor.shard_s": "s",
    "executor.fanout_overhead_s": "s",
    "executor.sharded_jobs": "count",
    "executor.inprocess_upgrades": "count",
    "executor.shard_retries": "count",
    "server.request_s": "s",
    "client.wire_ms": "ms",
    "jobs.queued_s": "s",
    "jobs.simulate_s": "s",
    "jobs.persist_s": "s",
    "jobs.completed": "count",
    "jobs.failed": "count",
    "jobs.rejected": "count",
    "cache.lookup_s": "s",
    "cache.merge_s": "s",
    "cache.hits": "count",
    "cache.partial": "count",
    "cache.misses": "count",
    "cache.disk_hits": "count",
    "cache.evictions": "count",
    "cache.hit_ratio": "ratio",
    "cache.runs_simulated": "count",
    "htl.compile_s": "s",
    "analysis.verify_s": "s",
    "convergence.checkpoints": "count",
    "convergence.runs_saved": "count",
    "trace.overhead": "ratio",
}

_IMPLEMENTATIONS = {
    "baseline": baseline_implementation,
    "scenario1": scenario1_implementation,
}


def design(variant: int, lrc_l: float = 0.99):
    impl_name, lrc_u = VARIANTS[variant]
    arch = three_tank_architecture()
    spec = three_tank_spec(lrc_u=lrc_u, lrc_l=lrc_l)
    return spec, arch, _IMPLEMENTATIONS[impl_name]()


def design_doc(variant: int, htl: bool, lrc_l: float = 0.99) -> dict:
    spec, arch, impl = design(variant, lrc_l)
    doc = {
        "arch": architecture_to_dict(arch),
        "impl": implementation_to_dict(impl),
    }
    if htl:
        doc["htl"] = three_tank_htl(lrc_u=VARIANTS[variant][1], lrc_l=lrc_l)
    else:
        doc["spec"] = specification_to_dict(spec)
    return doc


@dataclass
class Job:
    cls: str
    doc: dict
    variant: int
    seed: int = 0
    runs: int = 0


@dataclass
class Inputs:
    warm: list[Job]  # keys the sequence expects cached
    prime: list[Job]  # one job per code path, so lazy set-up is done
    jobs: list[Job]


def generate(seed: int, seconds: float) -> Inputs:
    """The warm-up jobs and the job sequence.

    Draws are stratified so that every seed offers the same load:
    within each block of :data:`BLOCK` a class's run counts, 3TS
    variants and document forms are spread evenly over their ranges,
    then shuffled.
    """
    rng = np.random.default_rng(derive(seed, TAG))
    serial = iter(range(derive(seed, TAG, 1) % 2**30, 2**31))

    def strata(count: int, levels: int) -> list[int]:
        return [int(level) for level in rng.permutation(
            [k % levels for k in range(count)])]

    def simulate(cls, variant, key_seed, runs, htl, **extra):
        doc = design_doc(variant, htl)
        doc.update(
            kind="simulate", seed=key_seed, runs=runs,
            iterations=ITERATIONS, **extra,
        )
        return Job(cls, doc, variant, key_seed, runs)

    hot = [
        (variant, next(serial))
        for variant in range(len(VARIANTS))
        for _ in range(HOT_SEEDS_PER_VARIANT)
    ]
    warm = [simulate("warm", v, s, HOT_RUNS, False) for v, s in hot]
    warm += [
        Job("warm", {"kind": "verify", **design_doc(v, htl=False)}, v)
        for v in range(len(VARIANTS))
    ]
    prime_base = next(serial)
    warm.append(simulate("warm", 0, prime_base, UPGRADE_BASE_RUNS, False))
    prime = [
        simulate("prime", 0, prime_base, 2 * UPGRADE_BASE_RUNS, True, jobs=2),
        simulate("prime", 0, next(serial), 4000, True, jobs=2),
        simulate("prime", 0, next(serial), 4000, False, adaptive=True),
        # lrc_l below the (0.98, 0.99) range fresh verifies draw from
        Job("prime", {"kind": "verify",
                      **design_doc(0, True, lrc_l=0.975)}, 0),
    ]

    count = max(1, round(JOBS_PER_S * seconds))
    # (class, size stratum 0..1, variant, htl form) per job
    draws: list[tuple[str, float, int, bool]] = []
    while len(draws) < count:
        block = []
        for (cls, _), n in zip(BLOCK, allocation(count - len(draws))):
            if not n:
                continue
            keys = strata(n, len(hot) if cls == "hit" else len(VARIANTS))
            block += zip(
                [cls] * n,
                [(k + 0.5) / n for k in strata(n, n)],
                keys,
                [bool(f) for f in strata(n, 2)],
            )
        draws += [block[i] for i in rng.permutation(len(block))]

    jobs = []
    for cls, size, key, htl in draws:
        variant = key
        extra = int(500 * size) + 500  # 500..1000 runs
        if cls == "hit":
            variant, key_seed = hot[key]
            runs = HOT_RUNS // 2 + int(HOT_RUNS // 2 * size)
            jobs.append(simulate(cls, variant, key_seed, runs, htl))
        elif cls == "miss":
            jobs.append(simulate(cls, variant, next(serial), extra, htl))
        elif cls.startswith("upgrade"):
            key_seed = next(serial)
            warm.append(simulate("warm", variant, key_seed,
                                 UPGRADE_BASE_RUNS, htl))
            jobs.append(simulate(
                cls, variant, key_seed, UPGRADE_BASE_RUNS + extra, htl,
                jobs=2 if cls == "upgrade-jobs2" else 1,
            ))
        elif cls == "supervised-miss":
            jobs.append(simulate(cls, variant, next(serial), 4000, htl,
                                 jobs=2))
        elif cls == "adaptive":
            jobs.append(simulate(cls, variant, next(serial), 4000, htl,
                                 adaptive=True))
        elif cls == "verify-repeat":
            jobs.append(Job(cls, {
                "kind": "verify", **design_doc(variant, htl=False),
            }, variant))
        else:  # verify-fresh: an LRC no other job uses, so a new design
            lrc_l = 0.99 - 1e-7 * (1 + next(serial) % (10**5 - 1))
            jobs.append(Job(cls, {
                "kind": "verify", **design_doc(variant, htl, lrc_l),
            }, variant))
    return Inputs(warm, prime, jobs)


def allocation(jobs: int) -> list[int]:
    """Jobs per class in a block of *jobs* (at most a full block).

    A full block gets :data:`BLOCK`'s counts; the last, partial block
    of a sequence gets them scaled down by largest remainder, so its
    class composition does not depend on the seed either.
    """
    total = sum(n for _, n in BLOCK)
    jobs = min(jobs, total)
    exact = [jobs * n / total for _, n in BLOCK]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(len(BLOCK)),
                          key=lambda i: (counts[i] - exact[i], i))
    for i in by_remainder[: jobs - sum(counts)]:
        counts[i] += 1
    return counts


@dataclass
class Sent:
    sent: float
    done: float
    reply: "dict | None" = None
    error: "str | None" = None

    @property
    def latency(self) -> float:
        return self.done - self.sent

    @property
    def job_seconds(self) -> float:
        return self.reply["finished_at"] - self.reply["submitted_at"]


def drive(port: int, jobs: list[Job]) -> list[Sent]:
    """Send *jobs* back to back, each once the previous one is done."""
    client = ServiceClient(port=port, timeout=120.0, retries=0)
    records = []
    for job in jobs:
        sent = time.perf_counter()
        reply = error = None
        try:
            reply = client.submit(job.doc, wait=True)
        except ServiceClientError as failure:
            error = str(failure)
        records.append(Sent(sent, time.perf_counter(), reply, error))
    return records


class Daemon:
    """A ``repro serve`` subprocess with fresh ledger and cache dirs."""

    def __init__(self, tracing: bool, workdir: Path) -> None:
        self.workdir = workdir
        workdir.mkdir(parents=True)
        argv = [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--workers", str(WORKERS),
            "--ledger", str(workdir / "ledger"),
            "--cache-dir", str(workdir / "cache"),
        ]
        if not tracing:
            argv.append("--no-trace")
        env = program_env()
        env["PYTHONUNBUFFERED"] = "1"
        start = time.perf_counter()
        self.stderr = open(workdir / "stderr.log", "w")
        self.process = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=self.stderr, text=True,
            cwd=ROOT, env=env,
        )
        try:
            banner = self.process.stdout.readline()
            if "http://" not in banner:
                raise RuntimeError(f"daemon did not start: {banner!r}")
            self.port = int(banner.split("http://")[1].split()[0]
                            .rsplit(":", 1)[1])
            client = ServiceClient(port=self.port, retries=0)
            while True:
                try:
                    client.health()
                    break
                except ServiceClientError:
                    if self.process.poll() is not None:
                        raise RuntimeError("daemon exited before /healthz")
                    time.sleep(0.005)
        except BaseException:
            self.close()
            log = (workdir / "stderr.log").read_text()[-2000:]
            sys.stderr.write(log)
            raise
        self.setup_s = time.perf_counter() - start

    def prometheus(self) -> dict:
        connection = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=30
        )
        try:
            connection.request("GET", "/metrics?format=prometheus")
            body = connection.getresponse().read().decode()
        finally:
            connection.close()
        return parse_prometheus(body)

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.process.pid)

    def close(self) -> None:
        """SIGTERM (graceful drain), then wait for the process to end."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self.stderr.close()


def sample(parsed: dict, name: str, **labels: str) -> float:
    """Sum of the samples of *name* whose labels include *labels*."""
    return sum(
        value for got, value in parsed.get(name, ())
        if all(got.get(k) == v for k, v in labels.items())
    )


def histogram_mean(before: dict, after: dict, name: str, **labels) -> float:
    """Mean of the observations a histogram gained between scrapes."""
    total = (sample(after, f"{name}_sum", **labels)
             - sample(before, f"{name}_sum", **labels))
    count = (sample(after, f"{name}_count", **labels)
             - sample(before, f"{name}_count", **labels))
    return total / count if count else 0.0


@dataclass
class Pass:
    """One daemon's share of a run: its records and scrapes."""

    records: list[Sent]
    wall: float
    before: dict = field(default_factory=dict)
    after: dict = field(default_factory=dict)
    traces: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0


def serve_pass(inputs: Inputs, daemon: Daemon, outcome: Outcome,
               traced: bool = False) -> Pass:
    """Warm the cache, run the sequence, then check every reply."""
    for untimed in (inputs.warm, inputs.prime):
        for record in drive(daemon.port, untimed):
            if record.error is not None or record.reply["state"] != "done":
                raise RuntimeError(f"warm-up job failed: {record.error}")
    before = daemon.prometheus() if traced else {}
    start = time.perf_counter()
    records = drive(daemon.port, inputs.jobs)
    result = Pass(records, time.perf_counter() - start, before)
    if traced:
        result.after = daemon.prometheus()
        client = ServiceClient(port=daemon.port, retries=0)
        result.traces = {
            i: client.job_trace(r.reply["id"])
            for i, r in enumerate(records) if r.reply is not None
        }
    result.peak_rss_mb = daemon.peak_rss_mb()
    check(inputs.jobs, records, outcome)
    return result


def fresh_rates(job: Job) -> dict:
    """The served rates of *job*'s key, recomputed in this process."""
    spec, arch, impl = design(job.variant)
    result = BatchSimulator(
        spec, arch, impl, faults=BernoulliFaults(arch), seed=job.seed
    ).run_batch(job.runs, ITERATIONS)
    averages = result.limit_averages()
    return {name: float(averages[name].mean()) for name in sorted(averages)}


def check(jobs: list[Job], records: list[Sent], outcome: Outcome) -> None:
    checked = {"hit": 0, "upgrade": 0}
    for index, (job, record) in enumerate(zip(jobs, records)):
        label = f"job {index} ({job.cls})"
        ok = record.reply is not None and record.reply["state"] == "done"
        if not outcome.record(ok, f"{label}: {record.error or record.reply}"):
            continue
        result = record.reply["result"]
        outcome.record(
            result.get("cache") == EXPECTED_CACHE[job.cls],
            f"{label}: cache {result.get('cache')!r}, sequence expects "
            f"{EXPECTED_CACHE[job.cls]!r}",
        )
        if job.cls.startswith("verify"):
            outcome.record(result.get("feasible") is True,
                           f"{label}: design reported infeasible")
        group = "upgrade" if job.cls.startswith("upgrade") else job.cls
        if checked.get(group, CHECKED_PER_CLASS) < CHECKED_PER_CLASS:
            checked[group] += 1
            outcome.record(
                result["rates"] == fresh_rates(job),
                f"{label}: served rates differ from a fresh run_batch",
            )


def spawn(tracing: bool, tag: str) -> Daemon:
    return Daemon(tracing, WORK / f"{tag}-{time.monotonic_ns()}")


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple:
    outcome = Outcome()
    metrics = Metrics()
    daemons: list[Daemon] = []
    try:
        if trace:
            inputs = generate(seed, seconds / 2)
            daemons.append(spawn(False, "untraced"))
            plain = serve_pass(inputs, daemons[-1], outcome)
            daemons.append(spawn(True, "traced"))
            seen = serve_pass(inputs, daemons[-1], outcome, traced=True)
            layers(inputs, plain, seen, metrics)
        else:
            inputs = generate(seed, seconds)
            setups = []
            for _ in range(3):
                daemons.append(spawn(False, "setup"))
                setups.append(daemons[-1].setup_s)
            for daemon in daemons[:-1]:
                daemon.close()
            metrics.set("setup_s", float(np.median(setups)), len(setups))
            end_to_end(inputs, serve_pass(inputs, daemons[-1], outcome),
                       metrics)
    finally:
        for daemon in daemons:
            daemon.close()
            shutil.rmtree(daemon.workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    return metrics, outcome


def end_to_end(inputs: Inputs, result: Pass, metrics: Metrics) -> None:
    done = [r for r in result.records if r.reply is not None]
    latencies = [r.latency for r in done]
    hits = [r.latency for job, r in zip(inputs.jobs, result.records)
            if job.cls == "hit" and r.reply is not None]
    run_iters = sum(
        r.reply["result"].get("runs", 0) * ITERATIONS for r in done
        if r.reply["kind"] == "simulate"
    )
    metrics.set("run_iters_per_s", run_iters / result.wall, len(done))
    metrics.set("latency_p50_ms", 1e3 * percentile(latencies, 50),
                len(latencies))
    metrics.set("latency_p90_ms", 1e3 * percentile(latencies, 90),
                len(latencies))
    metrics.set("hit_latency_p50_ms", 1e3 * percentile(hits, 50),
                len(hits))
    metrics.set("peak_rss_mb", result.peak_rss_mb)


def layers(inputs: Inputs, plain: Pass, seen: Pass, metrics: Metrics
           ) -> None:
    """Per-layer metrics of the traced pass (daemon with tracing on)."""
    before, after = seen.before, seen.after

    def delta(name: str, **labels) -> float:
        return sample(after, name, **labels) - sample(before, name, **labels)

    def stage(name: str) -> float:
        return histogram_mean(before, after, "repro_service_job_stage_seconds",
                              stage=name)

    shard_total, fanout, lookups, checkpoints = [], [], [], 0
    inprocess = 0
    for index, trace in seen.traces.items():
        job = inputs.jobs[index]
        events = trace["traceEvents"]
        spans = [e for e in events if e.get("ph") == "X"]
        shards = [e["dur"] / 1e6 for e in spans
                  if e["pid"] >= SHARD_PID_BASE]
        executing = [e["dur"] / 1e6 for e in spans
                     if e["name"] == "executing"]
        lookups += [e["dur"] / 1e6 for e in spans
                    if e["name"] == "cache-lookup"]
        checkpoints += sum(1 for e in events if e.get("ph") == "i"
                           and e["name"] == "checkpoint")
        if shards:
            shard_total.append(sum(shards))
            fanout.append(executing[0] - max(shards))
        elif job.cls == "upgrade-jobs2":
            inprocess += 1
    hits = delta("repro_service_cache_events_total", cache="mc",
                 outcome="hit")
    partial = delta("repro_service_cache_events_total", cache="mc",
                    outcome="partial")
    misses = delta("repro_service_cache_events_total", cache="mc",
                   outcome="miss")
    sharded = len(shard_total)
    metrics.set("executor.shard_s",
                np.mean(shard_total) if sharded else 0.0, sharded)
    metrics.set("executor.fanout_overhead_s",
                np.mean(fanout) if sharded else 0.0, sharded)
    metrics.set("executor.sharded_jobs", sharded)
    metrics.set("executor.inprocess_upgrades", inprocess)
    metrics.set("executor.shard_retries",
                delta("repro_service_shard_retries_total"))
    metrics.set("server.request_s", histogram_mean(
        before, after, "repro_service_request_seconds", endpoint="/jobs"))
    wire = [1e3 * (r.done - r.sent - r.job_seconds)
            for r in seen.records if r.reply is not None]
    metrics.set("client.wire_ms", percentile(wire, 50), len(wire))
    for name in ("queued", "simulate", "persist"):
        metrics.set(f"jobs.{name}_s", stage(name))
    for event in ("completed", "failed", "rejected"):
        metrics.set(f"jobs.{event}",
                    delta("repro_service_jobs_total", event=event))
    metrics.set("cache.lookup_s", float(np.mean(lookups)), len(lookups))
    metrics.set("cache.merge_s", stage("merge"))
    metrics.set("cache.hits", hits)
    metrics.set("cache.partial", partial)
    metrics.set("cache.misses", misses)
    metrics.set("cache.disk_hits", delta("repro_service_cache_events_total",
                                         cache="mc", outcome="disk_hit"))
    metrics.set("cache.evictions", delta("repro_service_cache_events_total",
                                         cache="mc", outcome="eviction"))
    metrics.set("cache.hit_ratio", hits / (hits + partial + misses))
    metrics.set("cache.runs_simulated",
                delta("repro_service_runs_simulated"))
    metrics.set("convergence.checkpoints", checkpoints)
    metrics.set("convergence.runs_saved",
                delta("repro_service_adaptive_runs_saved_total"))

    designs = [design(v) for v in range(len(VARIANTS))]
    metrics.set("plan.compile_s", timed_median(
        lambda: [compile_plan(*d) for d in designs], 10) / len(designs), 10)
    plan = compile_plan(*designs[0])
    metrics.set("plan.draws_per_iter",
                sum(s.draws for s in plan.schedules) / plan.n_phases)
    sources = [three_tank_htl(lrc_u=u) for _, u in VARIANTS]
    metrics.set("htl.compile_s", timed_median(
        lambda: [compile_program(s) for s in sources], 10) / len(sources),
        10)
    metrics.set("analysis.verify_s", timed_median(
        lambda: [Verifier().verify(*d) for d in designs], 10)
        / len(designs), 10)
    plain_p50 = percentile([r.latency for r in plain.records], 50)
    seen_p50 = percentile([r.latency for r in seen.records], 50)
    metrics.set("trace.overhead", seen_p50 / plain_p50, len(seen.records))


"""The library workloads: serial ``BatchSimulator.run_batch`` calls.

``3ts-wide`` runs the 3TS baseline under Bernoulli faults as batches
of many short runs; ``bursty-long`` runs random 5x4-task designs under
Gilbert-Elliott faults with the LRC monitor as batches of few long
runs.  Calls come in pairs: a fresh batch seed, then the same call
again.  The library keeps no result cache, so the repeat costs a full
call; it is this workload's ``hit`` (a key already answered, as on
the service) and must reproduce the first call bit for bit.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from common import (
    Metrics,
    Outcome,
    derive,
    peak_rss_mb,
    percentile,
    setup_seconds,
    timed_median,
)

from repro.experiments import (
    baseline_implementation,
    three_tank_architecture,
    three_tank_htl,
    three_tank_spec,
)
from repro.experiments.random_systems import random_system
from repro.htl.compiler import compile_program
from repro.analysis import Verifier
from repro.reliability.srg import communicator_srgs
from repro.reliability.stats import binomial_confidence_interval
from repro.resilience import MonitorConfig
from repro.runtime.batch import BatchSimulator
from repro.runtime.faults import (
    BernoulliFaults,
    FaultInjector,
    GilbertElliottChannel,
    GilbertElliottFaults,
)
from repro.runtime.plan import compile_plan
from repro.telemetry.profiler import StageProfiler

#: Confidence of the per-call Clopper-Pearson check.  One false alarm
#: in 1e9 per communicator keeps the ~10^4 checks that a few hundred
#: benchmark runs make free of chance failures.
CHECK_CONFIDENCE = 1.0 - 1e-9
#: Communicators whose estimate must lie in the CP interval of the SRG.
#: ``r1``/``r2`` are excluded on purpose: their series inputs ``l_i``
#: and ``u_i`` share failure causes (``u_i`` is computed from ``l_i``),
#: so the paper's product formula is only a lower bound there
#: (estimate ~0.9960 vs SRG 0.9940).  They are checked one-sided,
#: estimate >= SRG.  Do not "fix" the two-sided check by loosening it.
EXACT_SRG = ("l1", "l2", "s1", "s2", "u1", "u2")
LOWER_BOUND_SRG = ("r1", "r2")

#: Per-layer metrics of the traced run, name -> unit.  The service
#: layers do no work here; ``served.LAYERS`` measures them.
LAYERS = {
    "plan.compile_s": "s",
    "plan.draws_per_iter": "count",
    "faults.precompute_s": "s",
    "faults.draws": "count",
    "faults.draws_per_s": "1/s",
    "batch.status_collapse_s": "s",
    "batch.propagate_s": "s",
    "batch.reduce_s": "s",
    "batch.unattributed_s": "s",
    "batch.coverage": "ratio",
    "resilience.monitor_s": "s",
    "resilience.monitor_events": "count",
    "htl.compile_s": "s",
    "analysis.verify_s": "s",
    "trace.overhead": "ratio",
}


@dataclass(frozen=True)
class BatchWorkload:
    name: str
    tag: int
    runs: int
    iterations: int
    monitor_window: "int | None"
    #: Rough wall time of one untraced plus one traced call.  The
    #: traced run makes ``--seconds`` worth of such pairs, a number
    #: fixed by ``--seconds`` so that its counts repeat exactly.
    traced_pair_s: float

    def traced_pairs(self, seconds: float) -> int:
        return max(1, round(seconds / self.traced_pair_s))

    def design(self, seed: int, index: int):
        """``(spec, arch, impl, faults, simulator)`` of design *index*.

        The simulator is the one a library user would build and reuse;
        building it compiles the design's plan once.
        """
        if self.name == "3ts-wide":
            arch = three_tank_architecture()
            spec, impl = three_tank_spec(), baseline_implementation()
            faults = BernoulliFaults(arch)
            return (spec, arch, impl, faults,
                    BatchSimulator(spec, arch, impl, faults=faults))
        # One replica per task: the run time of a call then varies
        # about half as much from design to design (coefficient of
        # variation 0.08 instead of 0.15 over ten designs).  Designs
        # whose plan cannot be vectorised (a cycle without an
        # independent breaker) would time the scalar fallback, which
        # this workload does not measure; the next attempt is taken.
        channel = GilbertElliottChannel(good_to_bad=0.01, bad_to_good=0.2)
        attempt = 0
        while True:
            spec, arch, impl = random_system(
                seed=derive(seed, self.tag, index, attempt),
                layers=5, tasks_per_layer=4, hosts=6, max_replicas=1,
            )
            faults = GilbertElliottFaults(
                hosts={host: channel for host in arch.host_names()}
            )
            simulator = BatchSimulator(spec, arch, impl, faults=faults)
            if simulator.plan.batch_order is not None:
                return spec, arch, impl, faults, simulator
            attempt += 1

    def design_index(self, pair: int) -> int:
        return 0 if self.name == "3ts-wide" else pair

    def batch_seed(self, seed: int, pair: int) -> int:
        return derive(seed, self.tag, 1_000_000 + pair)

    def monitor(self) -> "MonitorConfig | None":
        if self.monitor_window is None:
            return None
        return MonitorConfig(window=self.monitor_window)


WORKLOADS = {
    "3ts-wide": BatchWorkload("3ts-wide", 1, 10_000, 100, None, 0.8),
    "bursty-long": BatchWorkload("bursty-long", 2, 64, 5000, 100, 5.5),
}


def setup_probe(workload: BatchWorkload, seed: int) -> None:
    """Build what the first batch needs, then report ready."""
    workload.design(seed, 0)
    print("ready", flush=True)


def identical(a, b) -> bool:
    """Counts and monitor events equal bit for bit."""
    return (
        a.runs == b.runs
        and a.reliable_counts.keys() == b.reliable_counts.keys()
        and all(
            np.array_equal(a.reliable_counts[c], b.reliable_counts[c])
            for c in a.reliable_counts
        )
        and a.monitor_events == b.monitor_events
    )


def check_3ts(result, srgs, outcome: Outcome, label: str) -> None:
    """Check the estimates of one 3TS batch against Proposition 1.

    Each ``l``/``u`` value is read five times per period, so its
    accesses come in fully correlated groups; the interval is taken
    over writes (counts divided by accesses per iteration), which are
    independent.  Reads of the initial value make the finite-horizon
    rate exceed the SRG slightly (about 2e-5 for ``u`` at 100
    iterations); that bias is why the check is per call rather than
    over all calls pooled.
    """
    pooled = result.pooled_counts()
    for name in EXACT_SRG:
        successes, samples = pooled[name]
        per_write = samples / (result.runs * result.iterations)
        low, high = binomial_confidence_interval(
            successes / per_write, samples / per_write, CHECK_CONFIDENCE
        )
        outcome.record(
            low <= srgs[name] <= high,
            f"{label}: {name} CP [{low:.6f}, {high:.6f}] misses SRG "
            f"{srgs[name]:.6f}",
        )
    for name in LOWER_BOUND_SRG:
        successes, samples = pooled[name]
        outcome.record(
            successes / samples >= srgs[name],
            f"{label}: {name} estimate {successes / samples:.6f} below "
            f"SRG {srgs[name]:.6f}",
        )


class CountingFaults(FaultInjector):
    """Counts the uniforms a wrapped injector's ``precompute`` draws."""

    class _Rng:
        __slots__ = ("rng", "owner")

        def __init__(self, rng, owner) -> None:
            self.rng = rng
            self.owner = owner

        def random(self, size=None):
            self.owner.draws += 1 if size is None else int(np.prod(size))
            return self.rng.random(size)

    def __init__(self, inner: FaultInjector) -> None:
        self.inner = inner
        self.draws = 0

    def precompute(self, plan, runs, iterations, rngs):
        wrapped = [self._Rng(rng, self) for rng in rngs]
        return self.inner.precompute(plan, runs, iterations, wrapped)


class Runner:
    """One workload's designs and simulators, built once and reused."""

    def __init__(self, workload: BatchWorkload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.designs: dict[int, tuple] = {}
        self.srgs = None

    def design(self, index: int):
        if index not in self.designs:
            self.designs[index] = self.workload.design(self.seed, index)
        return self.designs[index]

    def simulator(self, index: int) -> BatchSimulator:
        return self.design(index)[4]

    def call(self, simulator: BatchSimulator, pair: int):
        w = self.workload
        start = time.perf_counter()
        result = simulator.run_batch(
            w.runs, w.iterations, seed=w.batch_seed(self.seed, pair),
            monitor=w.monitor(),
        )
        return result, time.perf_counter() - start

    def check(self, result, outcome: Outcome, label: str) -> None:
        if self.workload.name != "3ts-wide":
            return
        if self.srgs is None:
            spec, arch, impl, *_ = self.design(0)
            self.srgs = communicator_srgs(spec, impl, arch)
        check_3ts(result, self.srgs, outcome, label)


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple:
    workload = WORKLOADS[name]
    runner = Runner(workload, seed)
    outcome = Outcome()
    metrics = Metrics()
    if trace:
        traced(runner, workload.traced_pairs(seconds), metrics, outcome)
        return metrics, outcome
    setup, samples = setup_seconds(
        [sys.executable, str(Path(__file__).with_name("run.py")),
         "--setup-probe", name, "--seed", str(seed)],
        ready="ready",
    )
    metrics.set("setup_s", setup, len(samples))
    walls, repeat_walls = [], []
    deadline = time.perf_counter() + seconds
    pair = 0
    while pair == 0 or time.perf_counter() < deadline:
        simulator = runner.simulator(workload.design_index(pair))
        first, wall = runner.call(simulator, pair)
        outcome.record(True, "run_batch")
        runner.check(first, outcome, f"pair {pair}")
        again, repeat_wall = runner.call(simulator, pair)
        outcome.record(
            identical(first, again),
            f"pair {pair}: repeated call differs from the first",
        )
        walls += [wall, repeat_wall]
        repeat_walls.append(repeat_wall)
        pair += 1
    run_iters = len(walls) * workload.runs * workload.iterations
    metrics.set("run_iters_per_s", run_iters / sum(walls), len(walls))
    metrics.set("latency_p50_ms", 1e3 * percentile(walls, 50), len(walls))
    metrics.set("latency_p90_ms", 1e3 * percentile(walls, 90), len(walls))
    metrics.set(
        "hit_latency_p50_ms", 1e3 * percentile(repeat_walls, 50),
        len(repeat_walls),
    )
    metrics.set("peak_rss_mb", peak_rss_mb())
    return metrics, outcome


def traced(runner: Runner, pairs: int, metrics: Metrics, outcome: Outcome
           ) -> None:
    """Time the same calls untraced and traced through public hooks.

    The traced side builds its simulators with a ``StageProfiler`` and
    a draw-counting injector wrapper.  Each batch seed runs untraced,
    then traced, so drift in machine speed cancels out of
    ``trace.overhead`` and the two results can be compared bit for bit.
    """
    w = runner.workload
    profiler = StageProfiler()
    counted = {}
    traced_sims = {}
    plain_wall = traced_wall = 0.0
    events = 0
    for pair in range(pairs):
        index = w.design_index(pair)
        if index not in traced_sims:
            spec, arch, impl, faults, _ = runner.design(index)
            counted[index] = CountingFaults(faults)
            traced_sims[index] = BatchSimulator(
                spec, arch, impl, faults=counted[index], profiler=profiler
            )
        plain, wall = runner.call(runner.simulator(index), pair)
        plain_wall += wall
        runner.check(plain, outcome, f"traced pair {pair}")
        seen, wall = runner.call(traced_sims[index], pair)
        traced_wall += wall
        events += len(seen.monitor_events)
        outcome.record(
            identical(plain, seen),
            f"pair {pair}: traced batch differs from untraced",
        )
    stages = {s.name: s.total_seconds for s in profiler.stats()}
    stages.pop("plan-compile", None)
    profiled = sum(stages.values())
    draws = sum(c.draws for c in counted.values())
    precompute = stages.get("fault-precompute", 0.0)

    spec, arch, impl, *_ = runner.design(0)
    plan = compile_plan(spec, arch, impl)
    metrics.set(
        "plan.compile_s",
        timed_median(lambda: compile_plan(spec, arch, impl), 20), 20,
    )
    metrics.set(
        "plan.draws_per_iter",
        sum(s.draws for s in plan.schedules) / plan.n_phases,
    )
    metrics.set("faults.precompute_s", precompute / pairs, pairs)
    metrics.set("faults.draws", draws, pairs)
    metrics.set("faults.draws_per_s", draws / precompute, pairs)
    for stage, metric in (
        ("status-collapse", "batch.status_collapse_s"),
        ("propagate", "batch.propagate_s"),
        ("reduce", "batch.reduce_s"),
        ("monitor", "resilience.monitor_s"),
    ):
        metrics.set(metric, stages.get(stage, 0.0) / pairs, pairs)
    metrics.set(
        "batch.unattributed_s", (traced_wall - profiled) / pairs, pairs
    )
    metrics.set("batch.coverage", profiled / traced_wall, pairs)
    metrics.set("resilience.monitor_events", events, pairs)
    source = three_tank_htl()
    metrics.set(
        "htl.compile_s", timed_median(lambda: compile_program(source), 10),
        10,
    )
    metrics.set(
        "analysis.verify_s",
        timed_median(lambda: Verifier().verify(spec, arch, impl), 10), 10,
    )
    metrics.set("trace.overhead", traced_wall / plain_wall, pairs)


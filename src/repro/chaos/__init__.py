"""Deterministic chaos harness for the reliability service fleet.

``repro chaos`` (and ``tests/test_chaos.py``) drive a real
``ThreadingHTTPServer`` + :class:`~repro.service.client.ServiceClient`
stack while injecting faults from a seeded schedule:

* shard-worker kills, hangs, and slow starts (through the
  :class:`~repro.runtime.executor.ShardedExecutor` chaos hook),
* truncated and garbled cache spill files,
* garbage and torn-append lines in the run ledger,
* submission floods against the bounded queue (429 + retry).

After the storm the harness asserts the fleet's guarantees:

1. **Termination** — every submitted job reached a terminal state.
2. **Bit-identity** — every job that completed returned exactly the
   fault-free result for its document.
3. **Durability** — the ledger still holds every committed record;
   corruption only ever quarantines the injected garbage.

Everything is derived from one integer seed (schedule draws are
hash-based, not RNG-stateful), so a CI failure replays locally with
the same ``--seed``.
"""

from repro.chaos.harness import (
    ChaosConfig,
    ChaosReport,
    ChaosSchedule,
    ScheduledFaults,
    run_chaos,
)

__all__ = [
    "ChaosConfig",
    "ChaosReport",
    "ChaosSchedule",
    "ScheduledFaults",
    "run_chaos",
]

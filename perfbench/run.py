"""Benchmark of the repro pipeline: one command per workload and seed.

    python3 perfbench/run.py --workload 3ts-wide --seed 1 --seconds 20 --trace 0

runs a workload from the root of a checkout and prints one line per
metric (name, value, unit, sample count), then the result as one JSON
line.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``, ``--trace 1`` its per-layer metrics.  The exit
code is non-zero when a correctness check failed.

    python3 perfbench/run.py --self-test

checks that one seed generates identical inputs, that count-type
per-layer metrics repeat exactly across runs of one seed, and that
every printed metric name matches ``BENCHMARK.json``.

Workloads, their class shares and the layer-to-metric map are
documented in ``perfbench/WORKLOADS.md``.
"""

from __future__ import annotations

import argparse
import sys

from common import declared_metrics, emit, require_program

WORKLOAD_NAMES = ("3ts-wide", "bursty-long", "served-mix")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--setup-probe", choices=WORKLOAD_NAMES[:2],
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    require_program()
    if args.self_test:
        import selftest

        return selftest.main()
    if args.setup_probe:
        import batch

        batch.setup_probe(batch.WORKLOADS[args.setup_probe], args.seed)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    declared = declared_metrics(bool(args.trace))
    if args.workload == "served-mix":
        import served as module
    else:
        import batch as module
    metrics, outcome = module.run(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    return emit(metrics, outcome, declared,
                module.LAYERS if args.trace else None)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""Determinism self-lint for the ``repro`` source tree.

Reproducibility is a core contract of this repository: every
simulation, synthesis, and analysis result must be a pure function of
its inputs and an explicit seed.  This checker walks the ASTs under
``src/repro`` and rejects the two ways nondeterminism usually sneaks
in:

* **Global random state** — any use of the stdlib ``random`` module
  (its module-level functions share hidden global state), and any
  ``numpy.random`` module-level *call* other than the sanctioned
  seeded constructors (``default_rng``/``SeedSequence``/generator
  classes).  Calling ``default_rng()`` / ``SeedSequence()`` with no
  arguments is also rejected: a missing seed silently pulls OS
  entropy.  Referencing ``np.random.Generator`` for type annotations
  is fine — only calls are checked.

* **Wall-clock reads** — ``time.time``/``perf_counter``/``datetime``
  etc. outside the sanctioned entry points.  The CLI may time its own
  progress and the telemetry layer exists to record clocks; analysis,
  model, runtime, and synthesis code must not observe time at all.
  The one runtime exception is the shard executor
  (``runtime/executor.py``): its supervision loop reads monotonic
  deadlines and backoff sleeps to rescue failed workers, and no clock
  reaches simulation state.

* **Stray per-run seed derivation** — per-run seed children
  (``SeedSequence(..., spawn_key=...)`` and any ``.spawn(...)`` call),
  raw bit-generator state assignment (``x.state = ...`` on anything
  but ``self``), and the SeedSequence/PCG64 seeding constants that
  ``run_streams`` ports may appear only where the seed contract
  lives: ``runtime/batch.py`` (``run_seeds`` and ``run_streams``).
  Everything else asks those or ``BatchSimulator.run_range`` for a
  run range, so a change of contract touches one place.

Run it directly (CI does)::

    python tools/check_determinism.py [--root src/repro]

Exit status is 0 when clean, 1 with one ``path:line: message`` line
per violation otherwise.
"""

from __future__ import annotations

import argparse
import ast
import pathlib
import sys
from typing import Iterator

#: Files (relative to the scan root) that may read wall clocks: the
#: CLI times its own batch runs; the telemetry layer's whole purpose
#: is recording clocks.  Keep this list short and deliberate.
CLOCK_ALLOWLIST = frozenset(
    {
        "cli.py",
        "telemetry/trace.py",
        "telemetry/ledger.py",
        "telemetry/profiler.py",
        # The service layer timestamps job lifecycles (wall clock
        # never reaches simulation state).
        "service/jobs.py",
        "service/server.py",
        "service/client.py",
        # Supervision and chaos read deadlines and backoff clocks;
        # faults and jitter are hash-derived, never RNG-stateful.
        "runtime/executor.py",
        "chaos/harness.py",
        # Distributed tracing and the structured service log stamp
        # epoch timestamps onto observer-only records.
        "telemetry/distributed.py",
        "service/slog.py",
    }
)

#: Files (relative to the scan root) that may derive per-run seeds:
#: only the module of ``run_seeds`` and ``run_streams``, the one place
#: that defines the contract.
SEED_DERIVATION_ALLOWLIST = frozenset({"runtime/batch.py"})

#: numpy's SeedSequence hash constants and PCG64's LCG multiplier
#: (whole and as 64-bit halves): a second port of the seeding would
#: carry them.
SEED_PORT_CONSTANTS = frozenset(
    {
        0x43B0D7E5,
        0x931E8875,
        0x8B51F9DD,
        0x58F38DED,
        0xCA01F9DD,
        0x4973F715,
        0x2360ED051FC65DA44385DF649FCCF645,
        0x2360ED051FC65DA4,
        0x4385DF649FCCF645,
    }
)

#: Module-level ``numpy.random`` attributes that may be *called*:
#: explicitly seeded constructors and generator classes.
ALLOWED_NUMPY_RANDOM_CALLS = frozenset(
    {"default_rng", "SeedSequence", "Generator", "PCG64", "Philox"}
)

#: ``time`` module attributes that read a clock.
TIME_CLOCK_READS = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
        "localtime",
        "gmtime",
        "ctime",
        "asctime",
    }
)

#: ``datetime``-class methods that read a clock.
DATETIME_CLOCK_READS = frozenset({"now", "utcnow", "today"})


class _Checker(ast.NodeVisitor):
    """Collect determinism violations of one module."""

    def __init__(self, relative: str) -> None:
        self.relative = relative
        self.clock_ok = relative in CLOCK_ALLOWLIST
        self.seed_derivation_ok = relative in SEED_DERIVATION_ALLOWLIST
        self.violations: list[tuple[int, str]] = []
        #: Local alias -> canonical module name ("random", "time",
        #: "datetime", "numpy", "numpy.random").
        self.aliases: dict[str, str] = {}
        #: Names imported *from* datetime ("datetime", "date", ...).
        self.datetime_names: set[str] = set()

    def report(self, node: ast.AST, message: str) -> None:
        self.violations.append((node.lineno, message))

    # -- imports ------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            target = alias.asname or alias.name.split(".")[0]
            if alias.name == "random":
                self.report(
                    node,
                    "stdlib 'random' uses hidden global state; use an "
                    "explicit numpy Generator threaded from a seed",
                )
            elif alias.name.split(".")[0] in {
                "time",
                "datetime",
                "numpy",
            }:
                self.aliases[target] = alias.name
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if module == "random" or module.startswith("random."):
            self.report(
                node,
                "stdlib 'random' uses hidden global state; use an "
                "explicit numpy Generator threaded from a seed",
            )
        elif module == "numpy":
            for alias in node.names:
                if alias.name == "random":
                    self.aliases[alias.asname or "random"] = (
                        "numpy.random"
                    )
        elif module == "numpy.random":
            for alias in node.names:
                if alias.name not in ALLOWED_NUMPY_RANDOM_CALLS:
                    self.report(
                        node,
                        f"numpy.random.{alias.name} draws from global "
                        f"state; import a seeded constructor instead",
                    )
                else:
                    self.aliases[alias.asname or alias.name] = (
                        f"numpy.random.{alias.name}"
                    )
        elif module == "time":
            for alias in node.names:
                if (
                    alias.name in TIME_CLOCK_READS
                    and not self.clock_ok
                ):
                    self.report(
                        node,
                        f"time.{alias.name} reads a clock; only the "
                        f"CLI and the telemetry layer may observe "
                        f"time",
                    )
        elif module == "datetime":
            for alias in node.names:
                self.datetime_names.add(alias.asname or alias.name)
        self.generic_visit(node)

    # -- calls --------------------------------------------------------

    def _dotted(self, node: ast.AST) -> str | None:
        """Resolve ``a.b.c`` to a canonical dotted name, or ``None``."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.aliases.get(node.id, node.id)
        parts.append(root)
        return ".".join(reversed(parts))

    def visit_Call(self, node: ast.Call) -> None:
        dotted = self._dotted(node.func)
        if dotted is not None:
            self._check_call(node, dotted)
        spawns = (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "spawn"
        )
        keyed = dotted == "numpy.random.SeedSequence" and any(
            keyword.arg == "spawn_key" for keyword in node.keywords
        )
        if (spawns or keyed) and not self.seed_derivation_ok:
            self.report(
                node,
                "per-run seed children are built only in "
                "runtime/batch.py (run_seeds, run_streams); ask "
                "BatchSimulator.run_range for the runs",
            )
        self.generic_visit(node)

    # -- seed-derivation internals -------------------------------------

    def _check_state_target(self, target: ast.AST) -> None:
        if (
            isinstance(target, ast.Attribute)
            and target.attr == "state"
            and not (
                isinstance(target.value, ast.Name)
                and target.value.id == "self"
            )
            and not self.seed_derivation_ok
        ):
            self.report(
                target,
                "raw bit-generator state is set only in "
                "runtime/batch.py (run_streams); draw from the run's "
                "generator instead",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_state_target(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_state_target(node.target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_state_target(node.target)
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if (
            type(node.value) is int
            and node.value in SEED_PORT_CONSTANTS
            and not self.seed_derivation_ok
        ):
            self.report(
                node,
                "SeedSequence/PCG64 seeding constants belong to "
                "runtime/batch.py (run_streams); derive run streams "
                "there",
            )

    def _check_call(self, node: ast.Call, dotted: str) -> None:
        parts = dotted.split(".")
        if parts[0] == "numpy" and len(parts) >= 2 and parts[1] == "random":
            if len(parts) == 2:
                return  # calling the module itself: not a thing
            name = parts[2]
            if name not in ALLOWED_NUMPY_RANDOM_CALLS:
                self.report(
                    node,
                    f"numpy.random.{name} draws from numpy's global "
                    f"RNG; use a Generator threaded from an explicit "
                    f"seed",
                )
            elif name in {"default_rng", "SeedSequence"} and not (
                node.args or node.keywords
            ):
                self.report(
                    node,
                    f"numpy.random.{name}() without a seed pulls OS "
                    f"entropy; pass the run's seed explicitly",
                )
        if parts[0] == "time" and len(parts) == 2:
            if parts[1] in TIME_CLOCK_READS and not self.clock_ok:
                self.report(
                    node,
                    f"time.{parts[1]}() reads a clock; only the CLI "
                    f"and the telemetry layer may observe time",
                )
        if not self.clock_ok:
            # datetime.datetime.now(), datetime.date.today(), and the
            # from-imported forms datetime.now() / date.today().
            if (
                len(parts) >= 2
                and parts[-1] in DATETIME_CLOCK_READS
                and (
                    parts[0] == "datetime"
                    or parts[-2] in {"datetime", "date"}
                    and parts[0] in self.datetime_names
                )
            ):
                self.report(
                    node,
                    f"{dotted}() reads the wall clock; only the CLI "
                    f"and the telemetry layer may observe time",
                )


def check_file(path: pathlib.Path, relative: str) -> list[str]:
    """Return the violations of one source file, formatted."""
    tree = ast.parse(
        path.read_text(encoding="utf-8"), filename=str(path)
    )
    checker = _Checker(relative)
    checker.visit(tree)
    return [
        f"{path}:{line}: {message}"
        for line, message in sorted(checker.violations)
    ]


def iter_sources(root: pathlib.Path) -> Iterator[pathlib.Path]:
    """Yield every Python source under *root*, deterministically."""
    yield from sorted(root.rglob("*.py"))


def run(root: pathlib.Path) -> list[str]:
    """Check every module under *root*; return all violations."""
    violations: list[str] = []
    for path in iter_sources(root):
        relative = path.relative_to(root).as_posix()
        violations.extend(check_file(path, relative))
    return violations


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        default="src/repro",
        help="package root to scan (default src/repro)",
    )
    args = parser.parse_args(argv)
    root = pathlib.Path(args.root)
    if not root.is_dir():
        print(f"error: {root} is not a directory", file=sys.stderr)
        return 2
    violations = run(root)
    for violation in violations:
        print(violation)
    if violations:
        print(
            f"determinism check: {len(violations)} violation(s)",
            file=sys.stderr,
        )
        return 1
    print("determinism check: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())

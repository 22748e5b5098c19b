"""Stable run identifiers derived from the seed contract.

Every resilience event and trace stream is keyed by a ``run_id`` so
events from a ``resilient_batch`` sweep can be merged and re-sorted
deterministically.  The id is derived from the run's
``numpy.random.SeedSequence`` (entropy plus spawn key), which the
PR 2 seed contract already fixes: batch run *k* is seeded with
``SeedSequence(seed, spawn_key=(k,))`` — child *k* of
``SeedSequence(seed).spawn(runs)``, built in one place by
:func:`~repro.runtime.batch.run_seeds` — so the direct construction
``ResilientSimulator(..., seed=children[k])`` and the batch path
derive the *same* id without coordination.
"""

from __future__ import annotations

from typing import Any


def derive_run_id(seed: Any) -> str:
    """Derive a stable run id from *seed*.

    *seed* may be an int, a ``numpy.random.SeedSequence``, a
    ``numpy.random.Generator``, or ``None``.  Equal seeds give equal
    ids; spawned children append their spawn key (``s42/3`` is child
    3 of ``SeedSequence(42)``).
    """
    if seed is None:
        return "s-"
    # Unwrap Generator -> BitGenerator -> SeedSequence.
    bit_generator = getattr(seed, "bit_generator", None)
    if bit_generator is not None:
        seed = getattr(bit_generator, "seed_seq", None)
        if seed is None:
            return "s-"
    entropy = getattr(seed, "entropy", None)
    if entropy is None:
        return f"s{int(seed)}"
    spawn_key = tuple(getattr(seed, "spawn_key", ()) or ())
    suffix = "".join(f"/{k}" for k in spawn_key)
    return f"s{entropy}{suffix}"

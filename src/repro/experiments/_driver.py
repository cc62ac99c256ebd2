"""Shared plumbing of the experiment runners: seeding, cells, and sweeps."""

from __future__ import annotations

import os
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor
from typing import TypeVar

import numpy as np

from ..engine import (
    Interference,
    Machine,
    NO_INTERFERENCE,
    default_backend,
    set_default_backend,
)
from ..io_models import IOApproach, IterationResult, resolve_approaches
from ..stats.replication import cell_rng, run_replications
from ..util import env_int, seed_key

__all__ = [
    "run_iterations",
    "run_sweep",
    "map_cells",
    "cell_rng",
    "approach_seed_key",
    "iteration_period",
    "DEFAULT_INTERFERENCE",
]

DEFAULT_INTERFERENCE = Interference()

_Cell = TypeVar("_Cell")
_Out = TypeVar("_Out")


def _validate_replications(replications: int) -> None:
    """Every experiment runner rejects a non-positive replication count
    eagerly, instead of silently producing an empty or single-run table."""
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")


def iteration_period(compute_time: float, visible_s: float, backend_wall_s: float) -> float:
    """Turnover time of one simulated iteration.

    An iteration cannot turn over faster than its data drains to the OSTs:
    an asynchronous backend write that outlasts the compute phase stalls
    the next hand-off (backpressure), so the period is bounded below by
    the backend wall time.
    """
    return max(compute_time + visible_s, backend_wall_s)


def approach_seed_key(name: str) -> int:
    """Stable integer identity of an approach for rng derivation.

    A CRC of the approach *name* — not its position in the selection — so
    adding, removing or reordering approaches can never silently shift an
    existing experiment's random stream.
    """
    return seed_key(name)


def run_iterations(
    approach: IOApproach,
    machine: Machine,
    ranks: int,
    iterations: int,
    data_per_rank: float,
    rng: np.random.Generator,
    interference: Interference = NO_INTERFERENCE,
) -> list[IterationResult]:
    """Run ``iterations`` simulated timesteps of one approach."""
    return [
        approach.run_iteration(machine, ranks, data_per_rank, rng, interference)
        for _ in range(iterations)
    ]


def _effective_interference(
    with_interference: bool, interference: Interference | None
) -> Interference:
    """The model a run faces: the given one when enabled, else a quiet system."""
    if not with_interference:
        return NO_INTERFERENCE
    return DEFAULT_INTERFERENCE if interference is None else interference


def _resolve_jobs(n_jobs: int | None) -> int:
    """The pool width: ``n_jobs``, or ``REPRO_JOBS`` when ``None``."""
    if n_jobs is None:
        return env_int(os.environ, "REPRO_JOBS", default=1)
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    return n_jobs


def _in_backend(job: tuple[Callable[[_Cell], _Out], str, _Cell]) -> _Out:
    """Run one cell in a pool worker under the parent's engine backend."""
    fn, backend, cell = job
    set_default_backend(backend)
    return fn(cell)


def map_cells(
    fn: Callable[[_Cell], _Out], cells: Sequence[_Cell], n_jobs: int | None
) -> list[_Out]:
    """``[fn(cell) for cell in cells]``, serially or on a process pool.

    ``n_jobs`` (``REPRO_JOBS`` when ``None``) must be >= 1; the pool is
    never wider than the cell count.  Pool workers run under the
    caller's default engine backend, and every cell seeds its own rng,
    so the result is bit-identical at any width.  ``fn`` must be a
    module-level function so it pickles.
    """
    workers = min(_resolve_jobs(n_jobs), len(cells))
    if workers <= 1:
        return [fn(cell) for cell in cells]
    backend = default_backend()
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_in_backend, [(fn, backend, cell) for cell in cells]))


def _run_cell(
    args: tuple[Machine, int, int, float, int, Interference, IOApproach, int, bool],
) -> list[list[IterationResult]]:
    """All replications of one (scale, approach) cell of a sweep."""
    machine, ranks, iterations, data_per_rank, seed, interference, approach, reps, batched = args
    return run_replications(
        approach,
        machine,
        ranks,
        iterations,
        data_per_rank,
        seed,
        reps,
        interference=interference,
        batched=batched,
    )


def run_sweep(
    machine: Machine,
    scales: Sequence[int],
    iterations: int,
    data_per_rank: float,
    seed: int,
    with_interference: bool,
    approaches: Sequence[IOApproach | str] | None = None,
    n_jobs: int | None = None,
    interference: Interference | None = None,
    replications: int = 1,
    batched: bool = True,
) -> dict[tuple[int, str], list[list[IterationResult]]]:
    """Run every (scale, approach) cell, optionally across a process pool.

    Every cell value holds one result list per replication; replication
    0 is the historical single-run stream.  ``approaches`` may mix
    instances and registered names (``None`` selects the paper's three),
    and ``interference`` overrides the default model when
    ``with_interference`` is set.  A cell's replications run inside one
    worker (batched through :func:`~repro.stats.run_replications`), and
    every stream is a pure function of ``(seed, r, ranks, approach)``,
    so the sweep is bit-identical serially or on ``n_jobs`` worker
    processes.
    """
    effective = _effective_interference(with_interference, interference)
    resolved = resolve_approaches(approaches)
    keys = [(ranks, approach.name) for ranks in scales for approach in resolved]
    cells = [
        (
            machine,
            ranks,
            iterations,
            data_per_rank,
            seed,
            effective,
            approach,
            replications,
            batched,
        )
        for ranks in scales
        for approach in resolved
    ]
    return dict(zip(keys, map_cells(_run_cell, cells, n_jobs), strict=True))

"""Multi-application composition over shared OSTs.

:func:`run_composition` runs several :class:`~repro.workloads.spec.Workload`
applications side by side on one machine: per iteration, each application's
arrival process generates *when* its clients write, its approach plans the
request batch it would put on the file system, and all plans merge into one
:class:`RequestBatch` over the shared OSTs — so the applications genuinely
contend for the same OSTs.  Iterations are independent once every one is
planned, so the merged batches of all iterations with the same write class
are solved in one stacked :func:`~repro.engine.solve_many` call (bit-identical
to one solve per iteration), and each iteration's completion times split
back out per application.

Modelling decisions:

* **Write class of a merged solve.**  The engine's seek-penalty slope is
  per solve, so a merged iteration uses the large-write slope only when
  *every* composed application writes large aggregates; one application
  spraying many small interleaved files drags the shared disks into the
  steep-seek regime for everybody.
* **Seeding.**  Each workload owns one generator derived from
  ``[seed, ranks, crc32(approach), crc32(arrival), crc32(app)]`` — the
  crc32 name-hash scheme used everywhere else — so an application's
  stream never shifts when other applications are added, removed or
  reordered, and composition cells can run on a process pool
  bit-identically to a serial run.
* **Record/replay.**  Every run also assembles a
  :class:`~repro.workloads.trace.Trace` of what it put on the OSTs;
  :func:`replay_trace` re-solves a trace with no rng involved, so a
  pinned scenario reproduces its per-app completion times exactly on any
  backend.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ..engine import (
    NO_INTERFERENCE,
    Interference,
    Machine,
    merge_batches,
    resolve_machine,
    solve,
    solve_many,
    split_by_segment,
)
from ..io_models import IterationPlan, IterationResult, resolve_approach
from ..util import FloatArray, seed_key
from .arrivals import resolve_arrival_process
from .spec import Workload
from .trace import Trace, TraceIteration

__all__ = ["CompositionResult", "run_composition", "replay_trace", "workload_rng"]


def workload_rng(seed: int, workload: Workload) -> np.random.Generator:
    """The rng of one workload within a composition.

    Name-keyed like every other stream in the package: independent of
    which other applications run alongside and of execution order.
    """
    return np.random.default_rng(
        [
            seed,
            workload.ranks,
            seed_key(workload.approach),
            seed_key(workload.arrival),
            seed_key(workload.app),
        ]
    )


@dataclass(frozen=True)
class CompositionResult:
    """What a composed scenario cost each application."""

    apps: tuple[str, ...]
    #: Per-app per-iteration results, in workload order.
    results: dict[str, list[IterationResult]]
    #: Per-app per-iteration raw request completion times (batch order).
    completions: dict[str, list[FloatArray]]
    #: The recorded scenario, replayable exactly.
    trace: Trace


def run_composition(
    machine: Machine | str,
    workloads: Sequence[Workload],
    iterations: int,
    *,
    period: float,
    seed: int = 0,
    interference: Interference | None = None,
    backend: str | None = None,
    trace_path: str | Path | None = None,
) -> CompositionResult:
    """Run several applications' workloads against one shared file system.

    ``period`` is the iteration turnover the arrival processes spread
    their requests into (typically the compute time).  ``interference``
    adds *external* (unmodelled) background load on top of the composed
    applications; by default the file system is otherwise quiet so the
    cross-application contention is the only signal.  When ``trace_path``
    is given the recorded trace is also written there as JSONL.
    """
    machine = resolve_machine(machine)
    workloads = list(workloads)
    if not workloads:
        raise ValueError("run_composition needs at least one workload")
    apps = tuple(w.app for w in workloads)
    if len(set(apps)) != len(apps):
        raise ValueError(f"workload app names must be unique, got {apps}")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")

    states = [
        (w, resolve_approach(w.approach), resolve_arrival_process(w.arrival), workload_rng(seed, w))
        for w in workloads
    ]
    effective = NO_INTERFERENCE if interference is None else interference
    background_rng = np.random.default_rng([seed, seed_key("composition-background")])

    trace = Trace(
        machine=machine.name, period=period, apps=apps, machine_fields=asdict(machine)
    )
    iteration_plans: list[list[IterationPlan]] = []
    for _ in range(iterations):
        plans: list[IterationPlan] = []
        for workload, approach, process, rng in states:
            arrivals = process.sample(rng, approach.clients(machine, workload.ranks), period)
            plans.append(
                approach.plan_iteration(
                    machine, workload.ranks, workload.data_per_rank, rng, arrivals
                )
            )
        background = effective.sample_background(machine, background_rng)
        trace.iterations.append(
            TraceIteration(
                large_writes=all(plan.large_writes for plan in plans),
                background=background,
                batches={app: plan.batch for app, plan in zip(apps, plans, strict=True)},
            )
        )
        iteration_plans.append(plans)

    # Every rng draw is made: the iterations are independent batches now,
    # so each write class is solved in one stacked call.  The merged
    # batches are built on demand, so solve_many holds the only copy.
    done: dict[int, FloatArray] = {}
    for large_writes in dict.fromkeys(it.large_writes for it in trace.iterations):
        indices = [
            k for k, it in enumerate(trace.iterations) if it.large_writes == large_writes
        ]
        solved = solve_many(
            machine,
            (
                merge_batches([trace.iterations[k].batches[app] for app in apps])[0]
                for k in indices
            ),
            backgrounds=[trace.iterations[k].background for k in indices],
            large_writes=large_writes,
            backend=backend,
        )
        done.update(zip(indices, solved, strict=True))

    results: dict[str, list[IterationResult]] = {app: [] for app in apps}
    completions: dict[str, list[FloatArray]] = {app: [] for app in apps}
    for k, plans in enumerate(iteration_plans):
        # merge_batches keeps each application's requests contiguous and
        # in workload order, so the per-app slices are running lengths.
        bounds = np.cumsum([len(plan.batch) for plan in plans[:-1]])
        for app, plan, part in zip(apps, plans, np.split(done[k], bounds), strict=True):
            results[app].append(plan.finalize(part))
            completions[app].append(part)

    if trace_path is not None:
        trace.save(trace_path)
    return CompositionResult(apps=apps, results=results, completions=completions, trace=trace)


def replay_trace(
    trace: Trace | str | Path,
    *,
    machine: Machine | str | None = None,
    backend: str | None = None,
) -> dict[str, list[FloatArray]]:
    """Re-solve a recorded scenario; returns per-app completion times.

    No rng is involved: the trace already pins every request and the
    background load, so the result is exactly what the recording run saw
    (and must agree across engine backends).  It solves one iteration at
    a time, independently of the recording run's stacked solve.
    """
    if not isinstance(trace, Trace):
        trace = Trace.load(trace)
    if machine is None:
        fields = trace.machine_fields
        machine = trace.machine if fields is None else Machine(**fields)
    machine = resolve_machine(machine)
    completions: dict[str, list[FloatArray]] = {app: [] for app in trace.apps}
    for iteration in trace.iterations:
        merged, segments = merge_batches([iteration.batches[app] for app in trace.apps])
        done = solve(
            machine,
            merged,
            background=iteration.background,
            large_writes=iteration.large_writes,
            backend=backend,
        )
        for app, part in zip(
            trace.apps, split_by_segment(done, segments, len(trace.apps)), strict=True
        ):
            completions[app].append(part)
    return completions

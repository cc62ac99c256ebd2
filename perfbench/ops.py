"""The benchmark's workloads: inputs, one op, and the op's output checks.

Each workload is a closed loop driven by one caller.  ``prepare(i)``
builds op ``i``'s input outside the timed region (op ``i`` draws from a
seed derived from ``(seed, i)``); ``run`` is the timed call into the
program; ``check`` is every op's cheap output check and ``verify``
recomputes a sampled op on the ground-truth path.  Both raise
``AssertionError`` on a wrong output.

The program is reached only through module attributes looked up at call
time (``experiments.run_weak_scaling``, ``engine.solve``), so the
tracer's wrappers in :mod:`spans` see every call.
"""

from __future__ import annotations

from collections import deque
from typing import Any

import numpy as np

from repro import engine, experiments, serve
from repro.engine import GRID5000, KRAKEN
from repro.experiments.app_interference import INTENSITY_LEVELS
from repro.io_models import resolve_approach, resolve_approaches
from repro.util import MB

__all__ = ["WORKLOADS", "Interference", "Serve", "Sweep", "op_seed"]

DATA_PER_RANK = 45 * MB
#: ``serve`` request arrivals are spread uniformly over this many seconds.
SPREAD_S = 2.0

#: The repository's own tolerance between the ``reference`` backend and
#: the others (tests/test_fuzz_engine.py): the two are not bit-identical
#: on mixed-size staggered batches.
REFERENCE_RTOL = 1e-9
REFERENCE_ATOL = 1e-6


def op_seed(seed: int, index: int) -> int:
    """The seed of op ``index`` of a run seeded ``seed``."""
    return int(np.random.SeedSequence([seed, 1, index]).generate_state(1)[0])


def _same_table(got: Any, truth: Any) -> None:
    if got.to_json() != truth.to_json():
        raise AssertionError("table differs from the ground-truth recomputation")


def _close_table(got: Any, truth: Any) -> int:
    """Compare within the reference tolerance; returns the inexact cell count."""
    if len(got) != len(truth):
        raise AssertionError(f"{len(got)} rows, ground truth has {len(truth)}")
    inexact = 0
    for row, want in zip(got, truth, strict=True):
        if list(row.keys()) != list(want.keys()):
            raise AssertionError(f"columns {list(row.keys())} != {list(want.keys())}")
        for column in row.keys():
            a, b = row[column], want[column]
            if isinstance(b, float):
                if abs(a - b) > REFERENCE_ATOL + REFERENCE_RTOL * abs(b):
                    raise AssertionError(f"{column}: {a!r} vs ground truth {b!r}")
                inexact += float(a).hex() != b.hex()
            elif a != b:
                raise AssertionError(f"{column}: {a!r} vs ground truth {b!r}")
    return inexact


class Sweep:
    """E1 weak scaling on Kraken with stacked replications (``solve_many``)."""

    name = "sweep"
    verify_samples = 1

    def __init__(
        self,
        seed: int,
        *,
        scales: tuple[int, ...] = (576, 1152, 2304, 9216),
        iterations: int = 2,
        replications: int = 30,
    ) -> None:
        self.seed = seed
        self.scales = scales
        self.iterations = iterations
        self.replications = replications
        scratch = np.random.default_rng(0)
        per_replication = sum(
            len(approach.prepare_iteration(KRAKEN, ranks, DATA_PER_RANK, scratch).batch)
            for ranks in scales
            for approach in resolve_approaches(None)
        )
        self.requests_per_op = per_replication * iterations * replications

    def prepare(self, index: int) -> int:
        return op_seed(self.seed, index)

    def run(self, seed: int, *, batched: bool = True) -> Any:
        return experiments.run_weak_scaling(
            self.scales,
            iterations=self.iterations,
            data_per_rank=DATA_PER_RANK,
            machine=KRAKEN,
            seed=seed,
            replications=self.replications,
            batched=batched,
        )

    def check(self, seed: int, table: Any) -> None:
        experiments.check_scaling_shape(table)

    def verify(self, seed: int, table: Any) -> int:
        """Recompute on the serial replication loop; must match bit for bit."""
        _same_table(table, self.run(seed, batched=False))
        return 0

    def counters(self) -> dict[str, int]:
        return {}


class Interference:
    """E9: a bursty file-per-process contender x intensity x approach."""

    name = "interference"
    verify_samples = 1

    def __init__(
        self, seed: int, *, ranks: int = 2304, iterations: int = 4, replications: int = 5
    ) -> None:
        self.seed = seed
        self.ranks = ranks
        self.iterations = iterations
        self.replications = replications
        scratch = np.random.default_rng(0)
        contender = resolve_approach("file-per-process")
        per_round = 0
        for approach in resolve_approaches(None):
            plan = approach.plan_iteration(KRAKEN, ranks, DATA_PER_RANK, scratch)
            for fraction in INTENSITY_LEVELS.values():
                per_round += len(plan.batch)
                if fraction > 0.0:
                    bg_ranks = max(1, round(ranks * fraction))
                    per_round += len(
                        contender.plan_iteration(KRAKEN, bg_ranks, DATA_PER_RANK, scratch).batch
                    )
        self.requests_per_op = per_round * iterations * replications

    def prepare(self, index: int) -> int:
        return op_seed(self.seed, index)

    def run(self, seed: int) -> Any:
        return experiments.run_app_interference(
            ranks=self.ranks,
            iterations=self.iterations,
            data_per_rank=DATA_PER_RANK,
            machine=KRAKEN,
            seed=seed,
            replications=self.replications,
        )

    def check(self, seed: int, table: Any) -> None:
        experiments.check_app_interference_shape(table)

    def verify(self, seed: int, table: Any) -> int:
        """Recompute on the ``reference`` backend, within its tolerance."""
        with engine.use_backend("reference"):
            truth = self.run(seed)
        return _close_table(table, truth)

    def counters(self) -> dict[str, int]:
        return {}


Cell = tuple[np.ndarray, np.ndarray, np.ndarray, bool]


class Serve:
    """A long-lived ``SolveService(workers=1)``; one flush of fresh requests per op.

    A flush holds ``per_flush`` newly built requests: ``new_per_flush``
    new cells, the rest drawn uniformly (with repeats) from the
    ``recent`` most recent cells, all of which the cache holds.  Every
    ``epoch`` flushes the service is replaced and re-warmed with the
    recent cells, outside the timed region, so the cache's size — and
    the run's peak RSS — does not depend on how many flushes fit in a run.
    """

    name = "serve"
    verify_samples = 16
    machine = GRID5000

    def __init__(
        self,
        seed: int,
        *,
        recent: int = 512,
        per_flush: int = 64,
        new_per_flush: int = 8,
        ranks: int = 128,
        epoch: int = 500,
    ) -> None:
        self.seed = seed
        self.per_flush = per_flush
        self.new_per_flush = new_per_flush
        self.ranks = ranks
        self.epoch = epoch
        self.requests_per_op = per_flush * ranks
        self._made = 0
        rng = np.random.default_rng([seed, 2])
        self.recent: deque[Cell] = deque((self._cell(rng) for _ in range(recent)), maxlen=recent)
        # The first prepare() builds and warms the service.
        self.service: Any = None
        self._flushes = epoch

    def _cell(self, rng: np.random.Generator) -> Cell:
        """One new cell; write classes alternate cell by cell."""
        large_writes = self._made % 2 == 0
        self._made += 1
        return (
            rng.uniform(0.0, SPREAD_S, self.ranks),
            rng.integers(0, self.machine.ost_count, self.ranks),
            rng.uniform(8 * MB, 64 * MB, self.ranks),
            large_writes,
        )

    def _request(self, cell: Cell) -> Any:
        arrival, ost, nbytes, large_writes = cell
        return serve.SolveRequest(
            self.machine, engine.RequestBatch(arrival, ost, nbytes), large_writes=large_writes
        )

    def prepare(self, index: int) -> list[Any]:
        if self._flushes == self.epoch:
            # A fresh service, warmed with every recent cell.
            self.service = serve.SolveService(workers=1)
            self._flushes = 0
            for cell in self.recent:
                self.service.submit(self._request(cell))
            self.service.flush()
        self._flushes += 1
        rng = np.random.default_rng(op_seed(self.seed, index))
        new = [self._cell(rng) for _ in range(self.new_per_flush)]
        picks = rng.integers(0, len(self.recent), self.per_flush - self.new_per_flush)
        cells = new + [self.recent[int(i)] for i in picks]
        self.recent.extend(new)
        return [self._request(cells[int(i)]) for i in rng.permutation(len(cells))]

    def run(self, requests: list[Any]) -> list[Any]:
        for request in requests:
            self.service.submit(request)
        return self.service.flush()

    def check(self, requests: list[Any], responses: list[Any]) -> None:
        if len(responses) != len(requests):
            raise AssertionError(f"{len(responses)} responses for {len(requests)} requests")
        for request, response in zip(requests, responses, strict=True):
            if response.key != request.key():
                raise AssertionError("response out of submission order")

    def verify(self, requests: list[Any], responses: list[Any]) -> int:
        """Solve every request inline; must match the service bit for bit."""
        for request, response in zip(requests, responses, strict=True):
            truth = engine.solve(
                request.machine,
                request.batch,
                background=request.background,
                large_writes=request.large_writes,
            )
            if truth.tobytes() != np.asarray(response.done).tobytes():
                raise AssertionError("served times differ from an inline solve")
        return 0

    def counters(self) -> dict[str, int]:
        stats = self.service.stats
        return {
            "submitted": stats.submitted,
            "coalesced": stats.coalesced,
            "solved": stats.solved,
            "hits": stats.cache.hits,
            "lookups": stats.cache.lookups,
            "entries": stats.cache.entries,
        }


WORKLOADS: dict[str, type[Sweep] | type[Interference] | type[Serve]] = {
    "sweep": Sweep,
    "interference": Interference,
    "serve": Serve,
}

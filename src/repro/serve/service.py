"""The memoized, shard-parallel solve service.

:class:`SolveService` accepts a stream of
:class:`~repro.serve.request.SolveRequest` cells (:meth:`~SolveService.submit`),
and on :meth:`~SolveService.flush` resolves the whole queue:

1. **Dedup.**  Requests are keyed by their canonical content hash; equal
   keys are the same cell, solved at most once per service lifetime.
2. **Memo lookup.**  Unique cells already solved in an earlier flush are
   served straight from the :class:`~repro.serve.cache.SolveCache` — the
   O(1) hit the roadmap's overlapping-sweep traffic lives on.
3. **Deterministic sharding.**  The remaining cells are assigned to
   worker shards by :func:`request_shard` — a pure function of the
   request hash and the configured worker count, in the spirit of the
   Bobpp deterministic-partitioning discipline: the partition depends on
   *what* is asked, never on arrival order, queue depth or scheduling.
4. **Coalesced solving.**  Each shard's cells are grouped into
   ``(machine, write class)`` buckets and solved through the stacked
   :func:`~repro.engine.solve_many` path, on a process pool when
   ``workers > 1`` (``REPRO_SERVE_WORKERS``), inline otherwise.

Responses come back in submission order, each carrying the cell key and
whether it was served without running a solver.  **Determinism:** every
cell solves independently (``solve_many`` is bit-identical to per-cell
:func:`~repro.engine.solve`, the cache stores solver output verbatim,
and the shard assignment never feeds back into any cell's arithmetic),
so the service's results are bit-identical to serial per-request solving
— for any worker count, any ``max_stack``, any interleaving of submits
and flushes, and any request arrival order.

The service is a client of the engine, not a layer of the package:
the experiment runners, :mod:`repro.stats` and :mod:`repro.scenario`
never import it.  Its callers are library users, the ``python -m repro
serve`` subcommand and the ``serve`` benchmarks.
"""

from __future__ import annotations

import os
from collections.abc import Mapping
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from ..engine import default_backend
from ..util import FloatArray, env_int
from .cache import CacheStats, SolveCache
from .coalesce import DEFAULT_MAX_STACK, coalesce, solve_buckets
from .request import SolveRequest, SolveResponse

__all__ = [
    "SERVE_WORKERS_ENV",
    "ServiceStats",
    "SolveService",
    "active_serve_workers",
    "request_shard",
]

#: Environment variable selecting the service's worker-process count.
SERVE_WORKERS_ENV = "REPRO_SERVE_WORKERS"


def active_serve_workers(env: Mapping[str, str] | None = None) -> int:
    """The worker count ``REPRO_SERVE_WORKERS`` selects (default 1)."""
    return env_int(os.environ if env is None else env, SERVE_WORKERS_ENV, default=1)


def request_shard(key: str, workers: int) -> int:
    """Which of ``workers`` shards owns the cell ``key``.

    A pure function of ``(key, workers)``: the first 64 bits of the
    canonical hash modulo the worker count.  Nothing about scheduling,
    arrival order or queue composition can move a cell between shards.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return int(key[:16], 16) % workers


def _solve_cells(
    args: tuple[list[tuple[str, SolveRequest]], str, int | None],
) -> list[tuple[str, FloatArray]]:
    """One worker shard's share of a flush; module-level so it pickles."""
    cells, backend, max_stack = args
    return solve_buckets(coalesce(cells), backend=backend, max_stack=max_stack)


@dataclass(frozen=True)
class ServiceStats:
    """Cumulative accounting of one service's traffic."""

    #: Requests accepted by :meth:`SolveService.submit` so far.
    submitted: int
    #: Responses produced by :meth:`SolveService.flush` so far.
    served: int
    #: Cells the service actually ran a solver for.
    solved: int
    #: Same-flush duplicates folded into an already-scheduled cell.
    coalesced: int
    #: The memo cache's own per-unique-cell lookup accounting.
    cache: CacheStats

    @property
    def hit_rate(self) -> float:
        """Fraction of served responses that needed no fresh solve."""
        return (self.served - self.solved) / self.served if self.served else 0.0


class SolveService:
    """Memoized, deterministically sharded solving of request streams."""

    def __init__(
        self,
        *,
        workers: int | None = None,
        cache: SolveCache | None = None,
        backend: str | None = None,
        max_stack: int | None = DEFAULT_MAX_STACK,
    ) -> None:
        self._workers = active_serve_workers() if workers is None else int(workers)
        if self._workers < 1:
            raise ValueError(f"workers must be >= 1, got {self._workers}")
        if max_stack is not None and max_stack < 1:
            raise ValueError(f"max_stack must be >= 1, got {max_stack}")
        self._cache = SolveCache() if cache is None else cache
        self._backend = backend
        self._max_stack = max_stack
        self._pending: list[tuple[str, SolveRequest]] = []
        self._submitted = 0
        self._served = 0
        self._solved = 0
        self._coalesced = 0

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def cache(self) -> SolveCache:
        return self._cache

    @property
    def pending(self) -> int:
        """Requests queued and not yet flushed."""
        return len(self._pending)

    def submit(self, request: SolveRequest) -> str:
        """Queue one cell; returns its canonical key (the response joins on it)."""
        key = request.key()
        self._pending.append((key, request))
        self._submitted += 1
        return key

    def solve(self, request: SolveRequest) -> SolveResponse:
        """Submit one cell and flush immediately (the whole queue drains)."""
        key = self.submit(request)
        responses = {response.key: response for response in self.flush()}
        return responses[key]

    def flush(self) -> list[SolveResponse]:
        """Resolve every queued request; responses in submission order."""
        pending, self._pending = self._pending, []
        if not pending:
            return []
        # Dedup to first occurrence: equal keys are the same cell.
        first: dict[str, SolveRequest] = {}
        for key, request in pending:
            if key not in first:
                first[key] = request
        # Memo lookup, one per unique cell, in first-occurrence order.
        resolved: dict[str, FloatArray] = {}
        to_solve: dict[str, SolveRequest] = {}
        for key, request in first.items():
            cached = self._cache.get(key)
            if cached is None:
                to_solve[key] = request
            else:
                resolved[key] = cached
        for key, done in self._solve_assigned(to_solve):
            resolved[key] = self._cache.put(key, done)
        # Exactly one response per solved cell reports a fresh solve; every
        # other response was served from memory (earlier flush or coalesced).
        fresh = dict.fromkeys(to_solve, True)
        responses: list[SolveResponse] = []
        for key, _ in pending:
            solver_ran = fresh.pop(key, False)
            responses.append(
                SolveResponse(key=key, done=resolved[key], cache_hit=not solver_ran)
            )
        self._served += len(responses)
        self._solved += len(to_solve)
        self._coalesced += len(pending) - len(first)
        return responses

    def _solve_assigned(
        self, to_solve: Mapping[str, SolveRequest]
    ) -> list[tuple[str, FloatArray]]:
        """Solve the missed cells across the deterministic shard partition."""
        if not to_solve:
            return []
        # Worker processes do not share this process's registry state, so
        # resolve the effective backend name here and ship it explicitly.
        backend = default_backend() if self._backend is None else self._backend
        if self._workers == 1:
            return _solve_cells((list(to_solve.items()), backend, self._max_stack))
        assigned: list[list[tuple[str, SolveRequest]]] = [[] for _ in range(self._workers)]
        for key, request in to_solve.items():
            assigned[request_shard(key, self._workers)].append((key, request))
        occupied = [cells for cells in assigned if cells]
        if len(occupied) == 1:
            return _solve_cells((occupied[0], backend, self._max_stack))
        solved: list[tuple[str, FloatArray]] = []
        with ProcessPoolExecutor(max_workers=len(occupied)) as pool:
            payloads = [(cells, backend, self._max_stack) for cells in occupied]
            for part in pool.map(_solve_cells, payloads):
                solved.extend(part)
        return solved

    @property
    def stats(self) -> ServiceStats:
        """A snapshot of the service's cumulative accounting."""
        return ServiceStats(
            submitted=self._submitted,
            served=self._served,
            solved=self._solved,
            coalesced=self._coalesced,
            cache=self._cache.stats,
        )

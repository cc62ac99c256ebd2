"""repro.serve: a memoized, shard-parallel solve service.

The service front-end for the engine: clients submit
:class:`SolveRequest` cells, the :class:`SolveService` dedups them by
canonical content hash, serves repeats from a :class:`SolveCache`,
partitions the misses across a deterministic process-pool of worker
shards (:func:`request_shard` is a pure function of the request hash),
and solves each shard's share through the stacked
:func:`~repro.engine.solve_many` path.  Results are bit-identical to
serial per-request solving at any worker count and any arrival order.

Nothing else in the package imports this one: the experiments solve
through :func:`~repro.stats.run_replications` and the engine directly,
so ``import repro`` does not load the service.  Reach it as
``repro.serve`` or through ``python -m repro serve``.
"""

from __future__ import annotations

from .cache import CacheStats, SolveCache
from .coalesce import DEFAULT_MAX_STACK, Bucket, coalesce, solve_buckets
from .keys import KEY_SCHEMA, request_key
from .request import SolveRequest, SolveResponse
from .service import (
    SERVE_WORKERS_ENV,
    ServiceStats,
    SolveService,
    active_serve_workers,
    request_shard,
)
from .stream import demo_stream

__all__ = [
    "DEFAULT_MAX_STACK",
    "KEY_SCHEMA",
    "SERVE_WORKERS_ENV",
    "Bucket",
    "CacheStats",
    "ServiceStats",
    "SolveCache",
    "SolveRequest",
    "SolveResponse",
    "SolveService",
    "active_serve_workers",
    "coalesce",
    "demo_stream",
    "request_key",
    "request_shard",
    "solve_buckets",
]

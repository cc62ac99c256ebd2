"""The solve service's request and response currencies.

A :class:`SolveRequest` is one *cell* of work exactly as the engine's
:func:`~repro.engine.solve` would receive it — machine, struct-of-arrays
batch, optional per-OST background, write class — frozen so a queued
request can never drift between submission and solve.  Its
:meth:`~SolveRequest.key` is the canonical content hash from
:mod:`repro.serve.keys`; two requests with equal keys are the same cell
and the service solves them once.

A :class:`SolveResponse` carries the completion times (batch order, the
engine's contract), the cell key, and whether the cell was served from
the memo cache — the accounting the hit-rate statistics and the smoke
tests read.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from ..engine import Machine, RequestBatch, resolve_machine
from ..util import FloatArray
from .keys import request_key

__all__ = ["SolveRequest", "SolveResponse"]


# eq=False: the array fields make element-wise ``==`` ambiguous, and cell
# equality is the key's job anyway.
@dataclass(frozen=True, eq=False)
class SolveRequest:
    """One solve cell: what one :func:`~repro.engine.solve` call consumes."""

    machine: Machine
    batch: RequestBatch
    background: FloatArray | None = None
    large_writes: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "machine", resolve_machine(self.machine))

    def key(self) -> str:
        """The canonical content hash of this cell (see :mod:`.keys`).

        Memoized: a request is frozen (and its arrays must not be mutated
        after construction — the engine's standing contract), so
        re-submitting the same object costs an attribute read, not a
        fresh digest.
        """
        return self._digest

    @functools.cached_property
    def _digest(self) -> str:
        return request_key(self.machine, self.batch, self.background, self.large_writes)


@dataclass(frozen=True, eq=False)
class SolveResponse:
    """One served cell: its identity, its times, and how it was obtained."""

    #: The cell's canonical content hash.
    key: str
    #: Completion time of every request in the cell's batch, batch order.
    done: FloatArray = field(repr=False)
    #: Whether the times came out of the memo cache (no solver ran).
    cache_hit: bool = False

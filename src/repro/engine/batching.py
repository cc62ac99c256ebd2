"""Batched solving of independent request batches.

Multi-replication statistics (:mod:`repro.stats`) need the completion
times of R independently-seeded copies of an iteration.  Solving them one
:func:`~repro.engine.api.solve` call at a time costs R trips through the
backend; :func:`solve_many` instead stacks the batches along a *virtual
OST axis* — batch ``k``'s requests are shifted into OST block
``[k * ost_count, (k + 1) * ost_count)`` of a machine with
``len(batches) * ost_count`` OSTs — and solves the whole stack in one
call.  OSTs are independent servers in every backend, so the stacked
solve returns exactly what per-batch solving would, while the vectorized
backend gets one wide batch it solves across all lanes at once (see
:mod:`repro.engine.vectorized`) instead of R separate calls.

The stacking rides on :func:`~repro.engine.requests.merge_batches`: its
``segments`` tags provide both the per-batch OST shift and the mapping
that splits the completion times back out per batch.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from ..util import FloatArray
from .api import solve
from .machines import Machine
from .requests import RequestBatch, merge_batches

__all__ = ["solve_many"]


def solve_many(
    machine: Machine,
    batches: Iterable[RequestBatch],
    *,
    backgrounds: Sequence[FloatArray | None] | None = None,
    large_writes: bool,
    backend: str | None = None,
    max_stack: int | None = None,
) -> list[FloatArray]:
    """Solve independent batches against ``machine`` in one engine call.

    Every batch sees its own private copy of the file system: batch ``k``
    contends only with itself and with ``backgrounds[k]`` (one per-OST
    array per batch, ``None`` for a quiet system).  Returns one
    completion-time array per batch, in batch order — the same values,
    bit for bit, as solving each batch alone on the same backend.

    ``max_stack`` bounds how many batches one virtual-OST stack may hold:
    longer inputs are solved as consecutive chunks of at most that many
    batches (the serve layer's mega-batches can hold thousands of cells,
    and an unbounded stack would materialise ``len(batches) * ost_count``
    virtual OSTs of background in one allocation).  Chunking is a pure
    function of ``(len(batches), max_stack)`` and — batches being
    independent — cannot change a single output bit.
    """
    batches = list(batches)
    if not batches:
        return []
    if backgrounds is not None:
        backgrounds = list(backgrounds)
        if len(backgrounds) != len(batches):
            raise ValueError(
                f"got {len(backgrounds)} backgrounds for {len(batches)} batches"
            )
    if max_stack is not None:
        if max_stack < 1:
            raise ValueError(f"max_stack must be >= 1, got {max_stack}")
        if len(batches) > max_stack:
            out: list[FloatArray] = []
            for start in range(0, len(batches), max_stack):
                stop = start + max_stack
                out.extend(
                    solve_many(
                        machine,
                        batches[start:stop],
                        backgrounds=None if backgrounds is None else backgrounds[start:stop],
                        large_writes=large_writes,
                        backend=backend,
                    )
                )
            return out
    lengths = [len(b) for b in batches]
    merged, segments = merge_batches(batches)
    stacked = RequestBatch(
        arrival=merged.arrival,
        ost=merged.ost % machine.ost_count + segments * machine.ost_count,
        nbytes=merged.nbytes,
        tag=merged.tag,
    )
    background = _stack_backgrounds(machine, backgrounds, len(lengths))
    # Hold nothing but the stack while the kernel runs: a caller that
    # passes batches it keeps no reference to (a generator) frees them
    # here, before the kernel's transient matrices peak.
    del batches, backgrounds, merged, segments
    done = solve(
        machine.with_overrides(ost_count=len(lengths) * machine.ost_count),
        stacked,
        background=background,
        large_writes=large_writes,
        backend=backend,
    )
    # merge_batches keeps source batches contiguous and in order, so the
    # per-batch views fall out of the running lengths — no need for
    # split_by_segment's generic (and O(batches * requests)) masking.
    return np.split(done, np.cumsum(lengths[:-1]))


def _stack_backgrounds(
    machine: Machine, backgrounds: Sequence[FloatArray | None] | None, count: int
) -> FloatArray | None:
    """One per-virtual-OST load array for the stack (``None`` if all quiet)."""
    if backgrounds is None or all(bg is None for bg in backgrounds):
        return None
    quiet = np.zeros(machine.ost_count)
    parts: list[FloatArray] = []
    for index, bg in enumerate(backgrounds):
        if bg is None:
            parts.append(quiet)
            continue
        bg = np.asarray(bg, dtype=np.float64)
        if bg.shape != (machine.ost_count,):
            raise ValueError(
                f"background {index} has shape {bg.shape}, "
                f"expected ({machine.ost_count},)"
            )
        parts.append(bg)
    return np.concatenate(parts)

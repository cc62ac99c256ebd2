"""Backend registry and the public solver entry points.

Two backends ship: ``vectorized`` (numpy, the default) and
``reference`` (the seed implementation, kept as ground truth).  The
active default is ``vectorized`` unless the ``REPRO_ENGINE``
environment variable or :func:`set_default_backend` says otherwise;
individual calls and tests can pin a backend with the ``backend=``
argument or the :func:`use_backend` context manager.

:func:`solve` is the one boundary every backend is reached through.  It
validates the per-OST ``background`` once, so every backend rejects a
bad one with the same error.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager

import numpy as np

from ..util import FloatArray
from .machines import Machine
from .reference import solve_reference
from .requests import RequestBatch, WriteRequest
from .vectorized import solve_vectorized

__all__ = [
    "solve",
    "simulate_writes",
    "backend_names",
    "register_backend",
    "default_backend",
    "set_default_backend",
    "use_backend",
]

Solver = Callable[[Machine, RequestBatch, FloatArray | None, bool], FloatArray]

_BACKENDS: dict[str, Solver] = {
    "vectorized": solve_vectorized,
    "reference": solve_reference,
}

_default_backend = os.environ.get("REPRO_ENGINE", "vectorized")


def register_backend(name: str, solver: Solver, *, replace_existing: bool = False) -> None:
    """Register a solver under ``name`` for selection by string."""
    key = name.lower()
    if not replace_existing and key in _BACKENDS:
        raise ValueError(f"engine backend {name!r} is already registered")
    _BACKENDS[key] = solver


def backend_names() -> tuple[str, ...]:
    """The registered backend names, sorted."""
    return tuple(sorted(_BACKENDS))


def default_backend() -> str:
    """The backend used when a call does not pin one."""
    return _default_backend


def set_default_backend(name: str) -> None:
    """Make ``name`` the process-wide default backend."""
    global _default_backend
    _resolve_backend(name)  # validate eagerly
    _default_backend = name.lower()


@contextmanager
def use_backend(name: str) -> Iterator[None]:
    """Temporarily switch the default backend (tests, cross-validation)."""
    previous = _default_backend
    set_default_backend(name)
    try:
        yield
    finally:
        set_default_backend(previous)


def _resolve_backend(name: str | None) -> Solver:
    key = (_default_backend if name is None else name).lower()
    try:
        return _BACKENDS[key]
    except KeyError:
        raise ValueError(
            f"unknown engine backend {key!r}; known: {sorted(_BACKENDS)}"
        ) from None


def solve(
    machine: Machine,
    batch: RequestBatch,
    *,
    background: FloatArray | None = None,
    large_writes: bool,
    backend: str | None = None,
) -> FloatArray:
    """Completion time of every request in ``batch``, in batch order.

    This is the hot-path entry point: the I/O models hand over a
    struct-of-arrays batch and get a numpy array back, no dicts involved.
    ``background`` (``None`` for a quiet system) is the number of extra
    streams on each OST: shape ``(machine.ost_count,)``, finite, >= 0,
    else :class:`ValueError`.
    """
    solver = _resolve_backend(backend)
    if background is not None:
        background = _checked_background(machine, background)
    return solver(machine, batch, background, large_writes)


def _checked_background(machine: Machine, background: FloatArray) -> FloatArray:
    bg = np.asarray(background, dtype=np.float64)
    if bg.shape != (machine.ost_count,):
        raise ValueError(
            f"background has shape {bg.shape}, expected ({machine.ost_count},)"
        )
    if not (np.isfinite(bg).all() and (bg >= 0.0).all()):
        raise ValueError("background must be finite and >= 0 on every OST")
    return bg


def simulate_writes(
    machine: Machine,
    requests: Iterable[WriteRequest] | RequestBatch,
    *,
    background: FloatArray | None = None,
    large_writes: bool,
    backend: str | None = None,
) -> dict[int, float]:
    """Play write requests against the OSTs; return ``tag -> completion time``.

    Compatibility wrapper around :func:`solve` that accepts either a
    :class:`RequestBatch` or :class:`WriteRequest` objects and returns the
    seed API's dict keyed by request tag (tags must be unique).
    """
    if not isinstance(requests, RequestBatch):
        requests = RequestBatch.from_requests(requests)
    done = solve(
        machine, requests, background=background, large_writes=large_writes, backend=backend
    )
    return {int(tag): float(t) for tag, t in zip(requests.tag, done, strict=True)}

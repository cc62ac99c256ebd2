"""Outside-in tracing: spans recorded around calls into each layer.

The benchmark never edits the program to trace it.  :func:`install`
wraps the *public* functions of every layer from here — module
attributes, class methods, and the registered ``vectorized`` engine
backend (re-registered through ``repro.engine.register_backend``) — so
each call records a span: name, start, end and the enclosing span.
:func:`install` returns a :class:`Patches` whose ``restore`` puts every
original back, which is what lets one process alternate traced and
untraced ops.

A span's *self time* is its duration minus the durations of its direct
children.  Spans nest strictly (a child starts after and ends before its
parent, on one thread), so the self times of one op's spans sum exactly
to the op's root span.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from collections import Counter
from collections.abc import Callable, Iterable
from typing import Any

import numpy as np

__all__ = ["Patches", "Tracer", "install", "summarize"]

#: Span names, one per layer boundary the tracer wraps.
ROOT = "op"
KERNEL = "engine.kernel"
INSPECT = "trace.inspect"


class Tracer:
    """Spans and counters of the current op, kept in memory."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Forget every span and counter (call between ops)."""
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.counts: Counter[str] = Counter()
        self.maxima: dict[str, float] = {}
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(-1)
        self._open.append(index)
        self.starts.append(time.perf_counter_ns())
        return index

    def end(self, index: int) -> int:
        """Close span ``index``; returns its duration in nanoseconds."""
        self.ends[index] = time.perf_counter_ns()
        popped = self._open.pop()
        if popped != index:
            raise RuntimeError(f"span {self.names[index]!r} closed out of order")
        return self.ends[index] - self.starts[index]

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def maximum(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        index = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)

    def self_ns(self) -> list[int]:
        """Each span's duration minus its direct children's durations."""
        own = [end - start for start, end in zip(self.starts, self.ends, strict=True)]
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[index] - self.starts[index]
        return own


@dataclasses.dataclass
class LayerTotals:
    """One span name's totals over an op."""

    calls: int = 0
    #: Duration of the spans not nested in a span of the same name.
    inclusive_ns: int = 0
    self_ns: int = 0


def summarize(tracer: Tracer) -> dict[str, LayerTotals]:
    """Per span name: call count, inclusive and self nanoseconds."""
    totals: dict[str, LayerTotals] = {}
    own = tracer.self_ns()
    for index, name in enumerate(tracer.names):
        entry = totals.setdefault(name, LayerTotals())
        entry.calls += 1
        entry.self_ns += own[index]
        parent = tracer.parents[index]
        while parent >= 0 and tracer.names[parent] != name:
            parent = tracer.parents[parent]
        if parent < 0:
            entry.inclusive_ns += tracer.ends[index] - tracer.starts[index]
    return totals


class Patches:
    """Replaced attributes, restorable in reverse order."""

    def __init__(self) -> None:
        self._undo: list[Callable[[], None]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        if attr in vars(owner):
            original = vars(owner)[attr]
            self._undo.append(lambda: setattr(owner, attr, original))
        else:
            self._undo.append(lambda: delattr(owner, attr))
        setattr(owner, attr, value)

    def on_undo(self, action: Callable[[], None]) -> None:
        self._undo.append(action)

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


def _spanned(tracer: Tracer, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        index = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(index)

    return wrapper


def _patch_everywhere(patches: Patches, original: Any, replacement: Any) -> None:
    """Rebind every ``repro.*`` module attribute that is ``original``.

    Layers import each other's functions by name, so the wrapper has to
    replace each binding, not only the defining module's.
    """
    for module_name, module in sorted(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                patches.set(module, attr, replacement)


def _patch_methods(
    patches: Patches,
    classes: Iterable[type],
    method: str,
    wrap: Callable[[Callable[..., Any]], Callable[..., Any]],
) -> None:
    """Wrap ``method`` on each class that defines it itself."""
    for cls in classes:
        if method in vars(cls):
            patches.set(cls, method, wrap(vars(cls)[method]))


def _traced_finalize(tracer: Tracer, plan: Any) -> Any:
    """``plan`` with its ``finalize`` callback recorded as an io_models span."""
    finalize = plan.finalize
    if getattr(finalize, "__perfbench_traced__", False):
        return plan

    def traced(done: Any) -> Any:
        tracer.count("io_models.iterations")
        return tracer.call("io_models.finalize", finalize, done)

    traced.__perfbench_traced__ = True  # type: ignore[attr-defined]
    return dataclasses.replace(plan, finalize=traced)


def _plan_wrapper(tracer: Tracer, name: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    def wrap(fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return _traced_finalize(tracer, tracer.call(name, fn, *args, **kwargs))

        return wrapper

    return wrap


def _kernel(tracer: Tracer, solver: Callable[..., Any]) -> Callable[..., Any]:
    """The engine backend wrapped: one kernel span per solve, classified
    by a property read from the batch (inspection is its own span)."""

    def traced(machine: Any, batch: Any, background: Any, large_writes: bool) -> Any:
        inspect = tracer.begin(INSPECT)
        n = len(batch)
        if n == 0 or not batch.arrival.max() > batch.arrival.min():
            kind = "engine.simultaneous_ns"
        elif not batch.nbytes.max() > batch.nbytes.min():
            kind = "engine.staggered_equal_ns"
        else:
            kind = "engine.staggered_mixed_ns"
        if n:
            depth = int(np.bincount(batch.ost % machine.ost_count).max())
            tracer.maximum("engine.max_lane_depth", depth)
        tracer.count("engine.kernel_requests", n)
        tracer.end(inspect)
        index = tracer.begin(KERNEL)
        try:
            return solver(machine, batch, background, large_writes)
        finally:
            tracer.count(kind, tracer.end(index))

    return traced


def install(tracer: Tracer) -> Patches:
    """Wrap every traced layer's public functions; returns the undo log."""
    from repro import engine, experiments, io_models, serve, stats, workloads
    from repro.engine import vectorized

    patches = Patches()

    solver = vectorized.solve_vectorized
    engine.register_backend("vectorized", _kernel(tracer, solver), replace_existing=True)
    patches.on_undo(lambda: engine.register_backend("vectorized", solver, replace_existing=True))

    spans: dict[Any, str] = {
        engine.merge_batches: "engine.merge",
        engine.split_by_segment: "engine.split",
        stats.reduce_replications: "stats.reduce",
        stats.run_replications: "stats.replicate",
        workloads.run_composition: "workloads.compose",
        experiments.run_weak_scaling: "experiments",
        experiments.run_app_interference: "experiments",
    }
    for fn, name in spans.items():
        _patch_everywhere(patches, fn, _spanned(tracer, name, fn))

    solve_many = engine.solve_many

    def stacked(machine: Any, batches: Any, **kwargs: Any) -> Any:
        batches = list(batches)
        tracer.count("engine.stack_batches", len(batches))
        return tracer.call("engine.solve_many", solve_many, machine, batches, **kwargs)

    _patch_everywhere(patches, solve_many, stacked)

    request_key = serve.request_key

    def counted_key(*args: Any, **kwargs: Any) -> Any:
        tracer.count("serve.keys_hashed")
        return request_key(*args, **kwargs)

    _patch_everywhere(patches, request_key, counted_key)

    approaches = [type(io_models.resolve_approach(n)) for n in io_models.approach_names()]
    planners = (("prepare_iteration", "io_models.prepare"), ("plan_iteration", "io_models.plan"))
    for method, name in planners:
        _patch_methods(patches, approaches, method, _plan_wrapper(tracer, name))

    def arrivals(fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            drawn = tracer.call("workloads.arrivals", fn, *args, **kwargs)
            tracer.count("workloads.arrivals_drawn", len(drawn))
            return drawn

        return wrapper

    processes = [
        type(workloads.resolve_arrival_process(n)) for n in workloads.arrival_process_names()
    ]
    _patch_methods(patches, processes, "sample", arrivals)

    for method, name in (("submit", "serve.submit"), ("flush", "serve.flush")):
        _patch_methods(
            patches, [serve.SolveService], method, functools.partial(_spanned, tracer, name)
        )
    _patch_methods(
        patches, [serve.SolveRequest], "key", functools.partial(_spanned, tracer, "serve.key")
    )
    return patches

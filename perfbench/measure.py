"""One workload's measuring process: set up, run the closed loop, check.

Started by ``run.py`` in a fresh interpreter, once per setup sample.
With ``--mode setup`` it stops after the warm-up op; with ``--mode run``
it then runs ops back to back for ``--seconds`` and checks them.  Each
phase prints one JSON event line on stdout: ``ready`` after set-up,
``result`` at the end.

In a traced run, even-numbered ops are traced and odd-numbered ops are
not, so both op-time distributions come from one process under the same
conditions; their medians give ``trace.overhead_ratio``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import deque
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
NS = 1e-9


def _emit(event: str, **fields: Any) -> None:
    print(json.dumps({"event": event, **fields}), flush=True)


class Totals:
    """Span totals and counters summed over the traced ops of a run."""

    def __init__(self) -> None:
        self.ops = 0
        self.spans: dict[str, list[int]] = {}
        self.counts: dict[str, float] = {}
        self.maxima: dict[str, float] = {}

    def add(self, tracer: Any, summary: dict[str, Any], counters: dict[str, float]) -> None:
        self.ops += 1
        for name, totals in summary.items():
            entry = self.spans.setdefault(name, [0, 0, 0])
            entry[0] += totals.calls
            entry[1] += totals.inclusive_ns
            entry[2] += totals.self_ns
        for source in (tracer.counts, counters):
            for name, value in source.items():
                self.counts[name] = self.counts.get(name, 0) + value
        for name, value in tracer.maxima.items():
            self.maxima[name] = max(self.maxima.get(name, value), value)

    def table(self) -> dict[str, dict[str, float]]:
        """Per span name, per op: calls, inclusive seconds, self seconds."""
        ops = max(self.ops, 1)
        return {
            name: {
                "calls": calls / ops,
                "inclusive_s": inclusive * NS / ops,
                "self_s": own * NS / ops,
            }
            for name, (calls, inclusive, own) in sorted(self.spans.items())
        }

    def per_layer(self) -> dict[str, float]:
        """The span-derived per-layer metrics of ``BENCHMARK.json``, per traced op."""
        ops = max(self.ops, 1)
        table = self.table()

        def incl(name: str) -> float:
            return table.get(name, {}).get("inclusive_s", 0.0)

        def own(name: str) -> float:
            return table.get(name, {}).get("self_s", 0.0)

        def count(name: str) -> float:
            return self.counts.get(name, 0) / ops

        def ratio(num: str, den: str) -> float:
            total = self.counts.get(den, 0)
            return self.counts.get(num, 0) / total if total else 0.0

        kernel_calls = table.get("engine.kernel", {}).get("calls", 0.0)
        requests = count("engine.kernel_requests")
        ns_per_request = incl("engine.kernel") / NS / requests if requests else 0.0
        op_s = incl("op")
        return {
            "engine.kernel_s": incl("engine.kernel"),
            "engine.kernel_calls": kernel_calls,
            "engine.kernel_requests": requests,
            "engine.kernel_ns_per_request": ns_per_request,
            "engine.simultaneous_s": count("engine.simultaneous_ns") * NS,
            "engine.staggered_equal_s": count("engine.staggered_equal_ns") * NS,
            "engine.staggered_mixed_s": count("engine.staggered_mixed_ns") * NS,
            "engine.max_lane_depth": self.maxima.get("engine.max_lane_depth", 0),
            "engine.solve_many_s": incl("engine.solve_many"),
            "engine.stack_batches": count("engine.stack_batches"),
            "engine.stack_self_s": own("engine.solve_many"),
            "engine.merge_s": incl("engine.merge"),
            "engine.split_s": incl("engine.split"),
            "io_models.prepare_s": incl("io_models.prepare"),
            "io_models.plan_s": incl("io_models.plan"),
            "io_models.finalize_s": incl("io_models.finalize"),
            "io_models.iterations": count("io_models.iterations"),
            "workloads.arrivals_s": incl("workloads.arrivals"),
            "workloads.arrivals_drawn": count("workloads.arrivals_drawn"),
            "workloads.compose_self_s": own("workloads.compose"),
            "stats.reduce_s": incl("stats.reduce"),
            "serve.submit_s": incl("serve.submit"),
            "serve.key_s": incl("serve.key"),
            "serve.keys_hashed": count("serve.keys_hashed"),
            "serve.flush_self_s": own("serve.flush"),
            "serve.dedup_ratio": ratio("coalesced", "submitted"),
            "serve.cache_hit_ratio": ratio("hits", "lookups"),
            "serve.cells_solved": count("solved"),
            "serve.cache_entries": self.maxima.get("entries", 0),
            "experiments.self_s": own("experiments"),
            "trace.op_s": op_s,
            "trace.inspect_s": incl("trace.inspect"),
            "trace.unattributed_ratio": own("op") / op_s if op_s else 0.0,
        }


def _counter_delta(before: dict[str, int], after: dict[str, int]) -> dict[str, float]:
    delta: dict[str, float] = {name: after[name] - before[name] for name in after}
    delta.pop("entries", None)
    return delta


def measure(workload: Any, seconds: float, traced: bool) -> dict[str, Any]:
    """Run ops of ``workload`` back to back for ``seconds``, then check them.

    Every op gets ``workload.check``; the last ``workload.verify_samples``
    ops are also recomputed on the ground-truth path (untimed, untraced).
    """
    import spans

    tracer = spans.Tracer()
    totals = Totals()
    op_ns: dict[bool, list[int]] = {False: [], True: []}
    attempted = failed = 0
    samples: deque[tuple[Any, Any]] = deque(maxlen=workload.verify_samples)
    start = time.perf_counter()
    index = 1
    while True:
        trace_op = traced and index % 2 == 0
        op_input = workload.prepare(index)
        before = workload.counters() if trace_op else {}
        patches = spans.install(tracer) if trace_op else None
        tracer.reset()
        attempted += 1
        output: Any = None
        ok = True
        begin = time.perf_counter_ns()
        root = tracer.begin(spans.ROOT)
        try:
            output = workload.run(op_input)
        except Exception:
            traceback.print_exc()
            ok = False
        finally:
            tracer.end(root)
            elapsed = time.perf_counter_ns() - begin
            if patches is not None:
                patches.restore()
        if ok:
            op_ns[trace_op].append(elapsed)
            try:
                workload.check(op_input, output)
                samples.append((op_input, output))
            except AssertionError:
                traceback.print_exc()
                ok = False
        failed += not ok
        if trace_op:
            after = workload.counters()
            totals.add(tracer, spans.summarize(tracer), _counter_delta(before, after))
            if "entries" in after:
                totals.maxima["entries"] = max(totals.maxima.get("entries", 0), after["entries"])
        done = time.perf_counter() - start >= seconds
        if done and index >= 2 and (trace_op or not traced):
            break
        index += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    inexact = 0
    for op_input, output in samples:
        try:
            inexact += workload.verify(op_input, output)
        except AssertionError:
            traceback.print_exc()
            failed += 1
    result: dict[str, Any] = {
        "attempted": attempted,
        "failed": failed,
        "verified": len(samples),
        "inexact_values": inexact,
        "op_s": [t * NS for t in op_ns[False]],
        "requests_per_op": workload.requests_per_op,
        "peak_rss_mb": peak_rss_mb,
    }
    if traced:
        untraced_p50 = statistics.median(op_ns[False])
        traced_p50 = statistics.median(op_ns[True])
        result["traced_op_s"] = [t * NS for t in op_ns[True]]
        result["spans"] = totals.table()
        result["per_layer"] = {
            **totals.per_layer(),
            "trace.overhead_ratio": traced_p50 / untraced_p50 - 1,
        }
    return result


def provenance() -> dict[str, Any]:
    import numpy
    import repro
    from repro import engine

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "backend": engine.default_backend(),
        "repro_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
        "repro_file": str(Path(repro.__file__).relative_to(ROOT)),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True, help="parent's time.time()")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    began = time.perf_counter()
    import ops

    imported = time.perf_counter()
    # numpy seeds must be non-negative; any integer maps to one deterministically.
    workload = ops.WORKLOADS[args.workload](args.seed % 2**64)
    built = time.perf_counter()
    warm_input = workload.prepare(0)
    workload.check(warm_input, workload.run(warm_input))
    warmed = time.perf_counter()
    _emit(
        "ready",
        setup_s=time.time() - args.spawned_at,
        import_s=imported - began,
        inputs_s=built - imported,
        warmup_s=warmed - built,
    )
    if args.mode == "setup":
        return 0
    result = measure(workload, args.seconds, bool(args.trace))
    _emit("result", provenance=provenance(), **result)
    return 0


if __name__ == "__main__":
    sys.exit(main())

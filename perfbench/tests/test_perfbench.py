"""Fast checks of the benchmark itself, at tiny workload sizes.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any

import numpy as np
import pytest

import measure
import ops
import run
import spans

ROOT = Path(__file__).resolve().parents[2]


#: Every workload of BENCHMARK.json, at a size small enough for a unit
#: test that still passes its checks.
TINY: dict[str, dict[str, Any]] = {
    "sweep": {"scales": (576, 2304), "iterations": 1, "replications": 2},
    "interference": {"ranks": 2304, "iterations": 1, "replications": 1},
    "serve": {"recent": 16, "per_flush": 8, "new_per_flush": 2, "ranks": 16, "epoch": 3},
}
NAMES = [w["name"] for w in run.spec()["workloads"]]


def tiny(name: str, seed: int = 7) -> Any:
    return ops.WORKLOADS[name](seed, **TINY[name])


def fingerprint(output: Any) -> Any:
    """Everything an op returned, as exactly comparable text and bytes."""
    if isinstance(output, list):
        return [(r.key, np.asarray(r.done).tobytes(), r.cache_hit) for r in output]
    return output.to_json()


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(name, trace):
    result = measure.measure(tiny(name), seconds=0.0, traced=trace)
    assert result["failed"] == 0
    assert result["verified"] >= 1
    setups = [{"setup_s": 1.0, "import_s": 0.5, "inputs_s": 0.25, "warmup_s": 0.25}]
    metrics = run.collect(result, setups, trace)
    units = run.units(trace)
    assert list(metrics) == list(units)
    assert all(isinstance(value, (int, float)) for value in metrics.values())
    assert all(units.values())


@pytest.mark.parametrize("name", NAMES)
def test_spans_nest_and_self_times_sum_to_the_op(name):
    workload = tiny(name)
    tracer = spans.Tracer()
    op_input = workload.prepare(1)
    patches = spans.install(tracer)
    try:
        root = tracer.begin(spans.ROOT)
        workload.run(op_input)
        op_ns = tracer.end(root)
    finally:
        patches.restore()
    assert len(tracer.names) > 1
    for index, parent in enumerate(tracer.parents):
        assert tracer.ends[index] >= tracer.starts[index]
        if parent >= 0:
            assert tracer.starts[parent] <= tracer.starts[index]
            assert tracer.ends[index] <= tracer.ends[parent]
    own = tracer.self_ns()
    assert min(own) >= 0
    assert sum(own) == op_ns
    totals = spans.summarize(tracer)
    assert totals[spans.ROOT].inclusive_ns == op_ns
    assert spans.KERNEL in totals


@pytest.mark.parametrize("name", NAMES)
def test_traced_and_untraced_ops_are_bit_identical(name):
    plain, traced = tiny(name), tiny(name)
    want = fingerprint(plain.run(plain.prepare(1)))
    tracer = spans.Tracer()
    op_input = traced.prepare(1)
    patches = spans.install(tracer)
    try:
        got = fingerprint(traced.run(op_input))
    finally:
        patches.restore()
    assert got == want
    assert tracer.names


def test_restore_puts_every_original_back():
    from repro import engine, experiments, serve

    originals = (experiments.run_weak_scaling, engine.solve_many, serve.SolveService.flush)
    tracer = spans.Tracer()
    spans.install(tracer).restore()
    assert (experiments.run_weak_scaling, engine.solve_many, serve.SolveService.flush) == originals
    workload = tiny("serve")
    workload.run(workload.prepare(1))
    assert tracer.names == []


@pytest.mark.parametrize("name", ["sweep", "interference"])
def test_request_count_matches_the_kernel(name):
    workload = tiny(name)
    result = measure.measure(workload, seconds=0.0, traced=True)
    assert result["per_layer"]["engine.kernel_requests"] == workload.requests_per_op


def test_op_seeds_depend_on_seed_and_index():
    seeds = {ops.op_seed(seed, index) for seed in (1, 2) for index in range(3)}
    assert len(seeds) == 6
    assert ops.op_seed(1, 2) == ops.op_seed(1, 2)


class Flaky:
    """A stand-in workload whose second op returns a wrong output."""

    verify_samples = 2
    requests_per_op = 1

    def prepare(self, index: int) -> int:
        return index

    def run(self, index: int) -> int:
        return -index if index == 2 else index

    def check(self, index: int, output: int) -> None:
        if output != index:
            raise AssertionError("wrong output")

    def verify(self, index: int, output: int) -> int:
        return 0

    def counters(self) -> dict[str, int]:
        return {}


def test_a_failed_check_counts_as_a_failed_op():
    result = measure.measure(Flaky(), seconds=0.0, traced=False)
    assert (result["attempted"], result["failed"]) == (2, 1)


@pytest.mark.parametrize("seconds", ["0", "121"])
def test_seconds_outside_the_time_budget_are_refused(seconds):
    with pytest.raises(SystemExit) as exit_info:
        run.main(["--workload", "serve", "--seed", "1", "--seconds", seconds])
    assert exit_info.value.code != 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("results", "__pycache__"),
    )
    args = ["--workload", "serve", "--seed", "1", "--seconds", "1"]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout

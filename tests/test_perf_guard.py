"""Perf guards for the engine's fast paths, driven by ``repro.bench``.

Each guard is a ratio assertion over *registered benchmarks*: the suite
in :mod:`repro.bench.suite` pairs every fast path with the slow path it
replaced (vectorized/reference solver, stacked/serial ``solve_many``,
batched/serial replication driver), this module times both sides through
the shared best-of-N harness and asserts the speedup:

* vectorized solver not slower than the reference on the 2304-rank
  create storm + flush (measured gap ≥5x at full scale);
* the all-lanes staggered kernels ≥2x the per-lane loops on the
  2304-rank equal-size create storm (measured 2.2-3.2x), and not slower
  than them on the mixed-size E9 merged batch (measured ~1.45x);
* stacked :func:`~repro.engine.solve_many` not slower than the serial
  per-batch loop on E2's 150 replication batches, nor the end-to-end
  batched replication driver than the serial ``run_iteration`` loop.
  Each serial solve of a 336-OST Kraken batch runs the same all-lanes
  kernels as the stack (measured ~1.3x for both).

One guard is about memory, not time: the all-lanes FIFO kernel's peak
transient allocation on an E1-shaped stack (20160 lanes x depth 28),
measured deterministically with :mod:`tracemalloc`, stays within 13
``(lanes, depth)`` float64 matrices (measured ~6.4; the kernel before
buffer reuse measured ~18.7).

Best-of-N timing absorbs most shared-runner noise; for runners where
that is still not enough, ``REPRO_PERF_STRICT=0`` downgrades a failed
ratio to a :class:`~repro.bench.PerfWarning` (the CI test matrix uses
it; the dedicated ``bench-perf`` job stays strict).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.bench import PerfWarning, assert_speedup, measure, resolve_benchmark
from repro.engine import KRAKEN
from repro.engine.vectorized import _solve_wide_fifo
from repro.util import MB


def _best(name: str, repeats: int = 3) -> float:
    """Best-of-``repeats`` seconds of a registered benchmark's timed run."""
    run, _work = resolve_benchmark(name).prepare()
    return measure(run, repeats=repeats, warmup=1).best


def _best_pair(fast: str, slow: str, rounds: int) -> tuple[float, float]:
    """Best seconds of two registered benchmarks timed in alternation.

    Alternating the two sides round by round exposes both to the same
    spells of host load, which back-to-back best-of-N blocks do not; the
    guards whose margin is thin measure this way.
    """
    runs = [resolve_benchmark(name).prepare()[0] for name in (fast, slow)]
    best = [measure(run, repeats=1, warmup=1).best for run in runs]
    for _ in range(rounds - 1):
        for side, run in enumerate(runs):
            best[side] = min(best[side], measure(run, repeats=1, warmup=0).best)
    return best[0], best[1]


def test_vectorized_not_slower_than_reference():
    vec = _best("micro.solve.vectorized")
    ref = _best("micro.solve.reference")
    assert_speedup(vec, ref, ratio=1.0, label="vectorized vs reference solver")


def test_all_lanes_kernels_beat_per_lane_loops_on_storm():
    """The all-lanes kernels >= 2x the per-lane loops on a 336-OST storm.

    The routing claim behind ``WIDE_MIN_GROUPS``: an equal-size create
    storm on Kraken's 336 OSTs is solved across every lane at once.
    Measured gap 2.2-3.2x, depending on host load.
    """
    all_lanes, per_lane = _best_pair(
        "micro.lanes.storm.all_lanes", "micro.lanes.storm.per_lane", 40
    )
    assert_speedup(all_lanes, per_lane, ratio=2.0, label="all-lanes vs per-lane, storm")


def test_lockstep_heap_not_slower_than_per_lane_loops_on_e9():
    """The mixed-size lockstep kernel does not lose on E9's merged batch.

    Measured gap ~1.5x; asserted at parity, the bar the vectorized vs
    reference guard uses.
    """
    all_lanes, per_lane = _best_pair(
        "micro.lanes.e9_mixed.all_lanes", "micro.lanes.e9_mixed.per_lane", 20
    )
    assert_speedup(all_lanes, per_lane, ratio=1.0, label="all-lanes vs per-lane, E9 mixed")


def test_batched_replication_solve_beats_serial_loop():
    """Stacked solve_many is not slower than the per-replication solve loop.

    R replications' request batches solved in one stacked call instead
    of R x iterations solves, on E2's full-scale workload.  Each serial
    solve is itself an all-lanes kernel call on Kraken's 336 OSTs, so the
    stack's remaining edge is the per-call overhead (measured ~1.3x);
    asserted at parity.
    """
    batched, serial = _best_pair("micro.solve_many.stacked", "micro.solve_many.serial", 5)
    assert_speedup(batched, serial, ratio=1.0, label="stacked solve_many vs serial loop")


def test_batched_replication_driver_beats_serial():
    """End to end, the batched replication driver is not slower than the
    serial loop.

    Covers all three E2 approaches at full scale, rng and finalize
    included.  Measured gap ~1.3x since the serial side's solves run the
    all-lanes kernels; asserted at parity.
    """
    batched, serial = _best_pair(
        "micro.replication.driver_batched", "micro.replication.driver_serial", 3
    )
    assert_speedup(batched, serial, ratio=1.0, label="batched vs serial replication driver")


def test_serve_sustained_beats_inline_3x():
    """The solve service >= 3x inline per-request solving on overlapping
    traffic.

    The registered 10240-request stream revisits 1280 unique cells 8
    times; the service pays hashing + dedup + one coalesced solve per
    unique cell where the inline loop pays 10240 full solves.  Measured
    gap ~6-7x (the committed ``macro.serve.sustained`` history records
    the >=5x acceptance number); asserted at 3x for noise margin.
    """
    service = _best("macro.serve.sustained", repeats=2)
    inline = _best("macro.serve.inline", repeats=2)
    assert_speedup(service, inline, ratio=3.0, label="solve service vs inline solving")


def test_wide_fifo_kernel_peak_memory_on_e1_stack():
    """The kernel reuses its matrices' buffers; on a wide stack its peak
    is most of a run's peak memory (perfbench's ``peak_rss_mb``)."""
    lanes, depth = 20160, 28
    rng = np.random.default_rng(0)
    ost = np.repeat(np.arange(lanes), depth)[rng.permutation(lanes * depth)]
    arrival = rng.uniform(0.0, 0.5, ost.size)
    background = np.zeros(lanes)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        done = _solve_wide_fifo(
            KRAKEN.ost_bandwidth,
            KRAKEN.small_write_seek_penalty,
            ost,
            arrival,
            45 * MB,
            background,
        )
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert np.isfinite(done).all()
    matrices = peak / (lanes * depth * np.dtype(np.float64).itemsize)
    assert matrices <= 13, f"peak transient {matrices:.1f} (lanes x depth) matrices"


def test_perf_strict_escape_hatch_downgrades_to_warning(monkeypatch):
    monkeypatch.setenv("REPRO_PERF_STRICT", "0")
    with pytest.warns(PerfWarning, match="escape-hatch demo"):
        assert_speedup(2.0, 1.0, ratio=1.0, label="escape-hatch demo")


def test_perf_strict_default_raises(monkeypatch):
    monkeypatch.delenv("REPRO_PERF_STRICT", raising=False)
    with pytest.raises(AssertionError, match="strict demo"):
        assert_speedup(2.0, 1.0, ratio=1.0, label="strict demo")
    # A passing expectation is silent either way.
    assert_speedup(1.0, 3.5, ratio=3.0, label="strict demo")

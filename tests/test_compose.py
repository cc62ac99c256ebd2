"""Multi-application composition, trace record/replay, and experiment E9."""

import numpy as np
import pytest

from repro.engine import (
    KRAKEN,
    RequestBatch,
    backend_names,
    merge_batches,
    register_backend,
    split_by_segment,
)
from repro.engine import api as engine_api
from repro.engine import vectorized
from repro.experiments import check_app_interference_shape, run_app_interference
from repro.io_models import resolve_approach
from repro.util import MB
from repro.workloads import Trace, Workload, replay_trace, run_composition

FG = Workload(app="sim", ranks=192, data_per_rank=45 * MB, arrival="periodic", approach="damaris")
BG = Workload(
    app="background",
    ranks=96,
    data_per_rank=45 * MB,
    arrival="burst",
    approach="file-per-process",
)


# -- engine merge/split helpers -------------------------------------------


def test_merge_batches_preserves_order_and_tags():
    a = RequestBatch(arrival=[0.0, 1.0], ost=[3, 4], nbytes=[MB, 2 * MB], tag=[7, 8])
    b = RequestBatch(arrival=0.5, ost=9, nbytes=3 * MB)
    merged, segments = merge_batches([a, b])
    assert len(merged) == 3
    np.testing.assert_array_equal(segments, [0, 0, 1])
    np.testing.assert_array_equal(merged.tag, [7, 8, 0])
    np.testing.assert_array_equal(merged.ost, [3, 4, 9])


def test_merge_batches_accepts_empty_members():
    empty = RequestBatch.from_requests([])
    merged, segments = merge_batches([empty, RequestBatch(0.0, 1, MB)])
    assert len(merged) == 1
    np.testing.assert_array_equal(segments, [1])


def test_merge_batches_rejects_nothing():
    with pytest.raises(ValueError):
        merge_batches([])


def test_split_by_segment_round_trips():
    merged, segments = merge_batches([RequestBatch(0.0, [1, 2], MB), RequestBatch(0.0, 3, 2 * MB)])
    values = np.array([10.0, 20.0, 30.0])
    parts = split_by_segment(values, segments, 2)
    np.testing.assert_array_equal(parts[0], [10.0, 20.0])
    np.testing.assert_array_equal(parts[1], [30.0])
    with pytest.raises(ValueError):
        split_by_segment(values[:2], segments, 2)


# -- external arrivals on the approaches ----------------------------------


def test_run_iteration_zero_arrivals_matches_none():
    for name in ("file-per-process", "collective", "damaris", "dedicated-nodes"):
        approach = resolve_approach(name)
        clients = approach.clients(KRAKEN, 192)
        a = approach.run_iteration(KRAKEN, 192, 45 * MB, np.random.default_rng(1))
        b = approach.run_iteration(
            KRAKEN, 192, 45 * MB, np.random.default_rng(1), arrivals=np.zeros(clients)
        )
        np.testing.assert_array_equal(a.visible_times, b.visible_times)
        assert a.backend_wall_s == b.backend_wall_s
        assert a.backend_busy_s == b.backend_busy_s


def test_staggered_arrivals_shift_the_backend_wall():
    approach = resolve_approach("damaris")
    clients = approach.clients(KRAKEN, 192)
    late = np.full(clients, 30.0)
    a = approach.run_iteration(KRAKEN, 192, 45 * MB, np.random.default_rng(2))
    b = approach.run_iteration(KRAKEN, 192, 45 * MB, np.random.default_rng(2), arrivals=late)
    # The flush cannot start before the last client arrives.
    assert b.backend_wall_s == pytest.approx(a.backend_wall_s + 30.0, rel=1e-9)
    # The visible cost is still the node-local copy.
    np.testing.assert_array_equal(a.visible_times, b.visible_times)


def test_run_iteration_rejects_bad_arrivals():
    approach = resolve_approach("file-per-process")
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        approach.run_iteration(KRAKEN, 192, 45 * MB, rng, arrivals=np.zeros(191))
    with pytest.raises(ValueError):
        approach.run_iteration(KRAKEN, 192, 45 * MB, rng, arrivals=np.full(192, -1.0))
    nan = np.zeros(192)
    nan[0] = np.nan
    with pytest.raises(ValueError):
        approach.run_iteration(KRAKEN, 192, 45 * MB, rng, arrivals=nan)


# -- composition ----------------------------------------------------------


def test_composition_is_deterministic():
    a = run_composition(KRAKEN, [FG, BG], 2, period=60.0, seed=5)
    b = run_composition(KRAKEN, [FG, BG], 2, period=60.0, seed=5)
    for app in a.apps:
        for x, y in zip(a.completions[app], b.completions[app], strict=True):
            np.testing.assert_array_equal(x, y)
    c = run_composition(KRAKEN, [FG, BG], 2, period=60.0, seed=6)
    assert not np.array_equal(a.completions["sim"][0], c.completions["sim"][0])


def test_foreground_stream_survives_background_changes():
    # The crc32 name-hash seeding gives every workload its own stream, so
    # adding a contender cannot change what the foreground *generates* —
    # only what it experiences.
    solo = run_composition(KRAKEN, [FG], 2, period=60.0, seed=0)
    both = run_composition(KRAKEN, [FG, BG], 2, period=60.0, seed=0)
    for a, b in zip(solo.trace.iterations, both.trace.iterations, strict=True):
        np.testing.assert_array_equal(a.batches["sim"].arrival, b.batches["sim"].arrival)
        np.testing.assert_array_equal(a.batches["sim"].nbytes, b.batches["sim"].nbytes)


def test_contention_slows_the_merged_solve():
    solo = run_composition(KRAKEN, [FG], 2, period=60.0, seed=0)
    both = run_composition(KRAKEN, [FG, BG], 2, period=60.0, seed=0)
    # Damaris foreground: visible cost identical, backend wall slower.
    np.testing.assert_array_equal(
        solo.results["sim"][0].visible_times, both.results["sim"][0].visible_times
    )
    assert both.results["sim"][0].backend_wall_s > solo.results["sim"][0].backend_wall_s


def test_composition_rejects_bad_inputs():
    with pytest.raises(ValueError):
        run_composition(KRAKEN, [], 1, period=60.0)
    with pytest.raises(ValueError):
        run_composition(KRAKEN, [FG, FG], 1, period=60.0)  # duplicate app name
    with pytest.raises(ValueError):
        run_composition(KRAKEN, [FG], 0, period=60.0)


def test_mixed_write_classes_use_the_steep_slope():
    # One small-write application drags the merged solve into the
    # steep-seek regime for everybody.
    both = run_composition(KRAKEN, [FG, BG], 1, period=60.0, seed=0)
    assert not both.trace.iterations[0].large_writes
    solo = run_composition(KRAKEN, [FG], 1, period=60.0, seed=0)
    assert solo.trace.iterations[0].large_writes


# -- trace record/replay --------------------------------------------------


def test_trace_round_trips_through_jsonl(tmp_path):
    path = tmp_path / "scenario.jsonl"
    out = run_composition(KRAKEN, [FG, BG], 2, period=60.0, seed=3, trace_path=path)
    loaded = Trace.load(path)
    assert loaded.machine == "kraken"
    assert loaded.apps == ("sim", "background")
    assert len(loaded) == 2
    for recorded, read in zip(out.trace.iterations, loaded.iterations, strict=True):
        assert recorded.large_writes == read.large_writes
        np.testing.assert_array_equal(recorded.background, read.background)
        for app in out.apps:
            np.testing.assert_array_equal(recorded.batches[app].arrival, read.batches[app].arrival)
            np.testing.assert_array_equal(recorded.batches[app].nbytes, read.batches[app].nbytes)
            np.testing.assert_array_equal(recorded.batches[app].ost, read.batches[app].ost)
            np.testing.assert_array_equal(recorded.batches[app].tag, read.batches[app].tag)


def test_replay_reproduces_the_live_run_exactly(tmp_path):
    path = tmp_path / "scenario.jsonl"
    out = run_composition(KRAKEN, [FG, BG], 2, period=60.0, seed=4, trace_path=path)
    replayed = replay_trace(path)
    for app in out.apps:
        for live, again in zip(out.completions[app], replayed[app], strict=True):
            np.testing.assert_array_equal(live, again)


def test_replay_uses_the_recorded_overridden_machine(tmp_path):
    # A with_overrides machine keeps its registry name; the replay must
    # still run on the recorded fields, not the registered machine's.
    small = KRAKEN.with_overrides(ost_count=24, ost_bandwidth=45 * MB)
    path = tmp_path / "scenario.jsonl"
    out = run_composition(small, [FG, BG], 2, period=60.0, seed=6, trace_path=path)
    replayed = replay_trace(path)
    for app in out.apps:
        for live, again in zip(out.completions[app], replayed[app], strict=True):
            np.testing.assert_array_equal(live, again)


def test_replay_agrees_across_engine_backends(tmp_path):
    # The acceptance bar: a recorded trace replayed through both engine
    # backends yields identical per-app completion times.
    path = tmp_path / "scenario.jsonl"
    out = run_composition(KRAKEN, [FG, BG], 2, period=60.0, seed=5, trace_path=path)
    vec = replay_trace(path, backend="vectorized")
    ref = replay_trace(path, backend="reference")
    for app in out.apps:
        for a, b in zip(vec[app], ref[app], strict=True):
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-6)


@pytest.mark.parametrize("backend", backend_names())
@pytest.mark.parametrize(("approach", "ranks"), [("file-per-process", 2304), ("damaris", 9216)])
def test_stacked_iterations_match_per_iteration_replay(monkeypatch, approach, ranks, backend):
    # run_composition stacks its iterations into one solve per write
    # class; replay_trace solves them one at a time.  On full Kraken with
    # arrivals spread over the period, the stack (4 x 336 virtual OSTs)
    # takes the all-lanes FIFO kernel and lanes fail its storm check, so
    # the lockstep re-solve runs too.  Both write classes are covered:
    # file-per-process writes small, damaris large (one write per node,
    # so it needs more ranks to put several writes on an OST).
    rescued = []
    lockstep = vectorized._solve_lockstep_fifo

    def counted(*args):
        rescued.append(args[6].size)
        return lockstep(*args)

    monkeypatch.setattr(vectorized, "_solve_lockstep_fifo", counted)
    app = Workload(
        app="sim", ranks=ranks, data_per_rank=45 * MB, arrival="poisson", approach=approach
    )
    out = run_composition(KRAKEN, [app], 4, period=120.0, seed=9, backend=backend)
    assert {it.large_writes for it in out.trace.iterations} == {approach == "damaris"}
    if backend == "vectorized":
        assert rescued, "no lane failed the storm check"
    replayed = replay_trace(out.trace, backend=backend)
    for live, again in zip(out.completions["sim"], replayed["sim"], strict=True):
        np.testing.assert_array_equal(live, again)


def test_composition_solves_each_write_class_in_one_engine_call(monkeypatch):
    calls = []

    def counting(machine, batch, background, large_writes):
        calls.append((machine.ost_count, large_writes))
        return vectorized.solve_vectorized(machine, batch, background, large_writes)

    monkeypatch.setattr(engine_api, "_BACKENDS", dict(engine_api._BACKENDS))
    register_backend("counting", counting)
    run_composition(KRAKEN, [FG, BG], 4, period=60.0, seed=1, backend="counting")
    assert calls == [(4 * KRAKEN.ost_count, False)]
    calls.clear()
    run_composition(KRAKEN, [FG], 3, period=60.0, seed=1, backend="counting")
    assert calls == [(3 * KRAKEN.ost_count, True)]


def test_trace_load_rejects_garbage(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(ValueError):
        Trace.load(empty)
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"type": "solve", "iteration": 0}\n')
    with pytest.raises(ValueError):
        Trace.load(bad)


# -- experiment E9 --------------------------------------------------------


_E9_KW = {
    "ranks": 192,
    "iterations": 2,
    "data_per_rank": 45 * MB,
    "compute_time": 60.0,
    "seed": 0,
    # The E6 trick: reach the contended (writers ≈ OSTs) regime cheaply by
    # shrinking the file system instead of growing the applications.
    "machine": KRAKEN.with_overrides(ost_count=24),
}


def test_e9_table_and_shape():
    table = run_app_interference(**_E9_KW)
    assert set(table.column("intensity")) == {"off", "light", "heavy"}
    check_app_interference_shape(table)
    # The off cells compose the foreground alone.
    assert all(row["bg_ranks"] == 0 for row in table.where(intensity="off"))
    assert all(row["bg_ranks"] > 0 for row in table.where(intensity="heavy"))


def test_e9_is_bit_identical_across_job_counts():
    serial = run_app_interference(**_E9_KW, n_jobs=1)
    pooled = run_app_interference(**_E9_KW, n_jobs=4)
    assert [row.as_dict() for row in serial] == [row.as_dict() for row in pooled]


def test_e9_records_per_cell_traces(tmp_path):
    run_app_interference(
        **_E9_KW,
        approaches=["damaris"],
        intensities=("off", "heavy"),
        trace_dir=tmp_path,
    )
    assert (tmp_path / "e9-off-damaris.jsonl").exists()
    assert (tmp_path / "e9-heavy-damaris.jsonl").exists()
    replayed = replay_trace(tmp_path / "e9-heavy-damaris.jsonl")
    assert set(replayed) == {"sim", "background"}


def test_e9_background_override():
    quiet_bg = Workload(app="background", ranks=48, arrival="poisson", approach="damaris")
    table = run_app_interference(
        **_E9_KW, approaches=["damaris"], intensities=("heavy",), background=quiet_bg
    )
    assert table[0]["bg_ranks"] == 48


def test_e9_rejects_unknown_intensity():
    with pytest.raises(ValueError):
        run_app_interference(**_E9_KW, intensities=("extreme",))

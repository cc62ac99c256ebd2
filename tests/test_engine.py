"""Cross-validation of the engine backends plus pinned headline values.

The vectorized backend must reproduce the reference backend's completion
times on every workload shape the I/O models generate (simultaneous
flushes, staggered create storms, mixed sizes, background interference),
and the experiment tables built on top must keep the paper's headline
orderings bit-for-bit across the refactor (golden seed 0).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (
    GRID5000,
    KRAKEN,
    RequestBatch,
    WriteRequest,
    backend_names,
    default_backend,
    simulate_writes,
    solve,
    solve_many,
    use_backend,
)
from repro.experiments import run_throughput, run_weak_scaling
from repro.io_models import APPROACHES
from repro.util import MB


def _both(batch, *, background=None, large_writes):
    vec = solve(
        KRAKEN, batch, background=background, large_writes=large_writes, backend="vectorized"
    )
    ref = solve(
        KRAKEN, batch, background=background, large_writes=large_writes, backend="reference"
    )
    return vec, ref


def _assert_backends_agree(batch, *, background=None, large_writes):
    vec, ref = _both(batch, background=background, large_writes=large_writes)
    np.testing.assert_allclose(vec, ref, rtol=1e-9, atol=1e-6)


# -- backend plumbing -----------------------------------------------------


def test_backend_registry():
    assert backend_names() == ("reference", "vectorized")
    assert default_backend() == "vectorized"


def test_use_backend_restores_default():
    with use_backend("reference"):
        assert default_backend() == "reference"
    assert default_backend() == "vectorized"


def test_unknown_backend_rejected():
    with pytest.raises(ValueError):
        solve(KRAKEN, RequestBatch(0.0, 0, MB), large_writes=True, backend="gpu")


def test_empty_batch():
    for backend in ("vectorized", "reference"):
        done = solve(KRAKEN, RequestBatch.from_requests([]), large_writes=True, backend=backend)
        assert done.size == 0


_BAD_BACKGROUNDS = {
    "short": (np.ones(3), "shape"),
    "nan": (np.full(KRAKEN.ost_count, np.nan), "finite"),
    "negative": (np.full(KRAKEN.ost_count, -1.0), ">= 0"),
}


@pytest.mark.parametrize("backend", backend_names())
@pytest.mark.parametrize("case", sorted(_BAD_BACKGROUNDS))
def test_bad_background_rejected_by_every_backend(backend, case):
    background, reason = _BAD_BACKGROUNDS[case]
    staggered = RequestBatch([0.0, 0.5], [0, 0], MB)
    with pytest.raises(ValueError, match="background") as raised:
        solve(KRAKEN, staggered, background=background, large_writes=False, backend=backend)
    assert reason in str(raised.value)
    # solve_many stacks the backgrounds and reaches the same check.
    with pytest.raises(ValueError, match="background"):
        solve_many(
            KRAKEN, [staggered], backgrounds=[background], large_writes=False, backend=backend
        )


# Each bad batch: its RequestBatch fields and the field the error names.
_BAD_BATCHES = {
    "inf-size": (dict(arrival=[0.0, 0.1], ost=[0, 0], nbytes=[MB, np.inf]), "nbytes"),
    "nan-arrival": (dict(arrival=[0.0, np.nan], ost=[0, 0], nbytes=MB), "arrival"),
    "inf-arrival": (dict(arrival=[0.0, np.inf], ost=[0, 0], nbytes=MB), "arrival"),
    "negative-size": (dict(arrival=0.1, ost=0, nbytes=-MB), "nbytes"),
    "negative-arrival": (dict(arrival=[-1.0, 0.0], ost=[0, 1], nbytes=MB), "arrival"),
    "length-mismatch": (dict(arrival=[0.0, 0.1, 0.2], ost=[0, 1], nbytes=MB), "ost"),
}


@pytest.mark.parametrize("backend", backend_names())
@pytest.mark.parametrize("case", sorted(_BAD_BATCHES))
def test_bad_batch_rejected_for_every_backend(backend, case):
    fields, name = _BAD_BATCHES[case]
    with pytest.raises(ValueError, match=f"^{name} "):
        solve(GRID5000, RequestBatch(**fields), large_writes=False, backend=backend)


@pytest.mark.parametrize("backend", backend_names())
@pytest.mark.parametrize("large_writes", [False, True])
def test_zero_size_write_completes_at_its_arrival(backend, large_writes):
    batch = RequestBatch([0.0, 0.1, 0.1], [0, 0, 1], [MB, 0.0, 0.0])
    done = solve(GRID5000, batch, large_writes=large_writes, backend=backend)
    np.testing.assert_array_equal(done[1:], [0.1, 0.1])
    assert done[0] > 0.0


# -- the processor-sharing model ------------------------------------------


def test_single_stream_runs_at_full_bandwidth():
    done = simulate_writes(
        KRAKEN,
        [WriteRequest(arrival=0.0, ost=0, nbytes=90 * MB, tag=0)],
        large_writes=True,
    )
    assert done[0] == pytest.approx(1.0, rel=1e-6)


def test_sharing_an_ost_is_slower_than_spreading():
    reqs_shared = [WriteRequest(arrival=0.0, ost=0, nbytes=90 * MB, tag=i) for i in range(4)]
    reqs_spread = [WriteRequest(arrival=0.0, ost=i, nbytes=90 * MB, tag=i) for i in range(4)]
    shared = simulate_writes(KRAKEN, reqs_shared, large_writes=True)
    spread = simulate_writes(KRAKEN, reqs_spread, large_writes=True)
    assert max(shared.values()) > max(spread.values())
    # Interleaving pays a seek penalty on top of the bandwidth split.
    assert max(shared.values()) > 4.0


def test_late_arrival_completes_after_early_one():
    done = simulate_writes(
        KRAKEN,
        [
            WriteRequest(arrival=0.0, ost=0, nbytes=45 * MB, tag=0),
            WriteRequest(arrival=10.0, ost=0, nbytes=45 * MB, tag=1),
        ],
        large_writes=True,
    )
    # The first write finishes alone before the second even arrives.
    assert done[0] == pytest.approx(0.5, rel=1e-6)
    assert done[1] == pytest.approx(10.5, rel=1e-6)


# -- RequestBatch container ------------------------------------------------


def test_empty_batch_round_trips_through_requests():
    batch = RequestBatch.from_requests([])
    assert len(batch) == 0
    assert batch.to_requests() == []
    again = RequestBatch.from_requests(batch.to_requests())
    assert len(again) == 0
    assert again.tag.size == 0


def test_batch_round_trips_through_requests():
    reqs = [
        WriteRequest(arrival=0.0, ost=3, nbytes=45 * MB, tag=11),
        WriteRequest(arrival=1.5, ost=7, nbytes=90 * MB, tag=7),
    ]
    assert RequestBatch.from_requests(reqs).to_requests() == reqs


def test_batch_broadcasts_scalars():
    batch = RequestBatch(arrival=0.0, ost=[1, 2, 3], nbytes=45 * MB)
    assert len(batch) == 3
    np.testing.assert_array_equal(batch.arrival, [0.0, 0.0, 0.0])
    np.testing.assert_array_equal(batch.nbytes, [45 * MB] * 3)
    # Default tags are the batch positions.
    np.testing.assert_array_equal(batch.tag, [0, 1, 2])


def test_batch_rejects_mismatched_tags():
    with pytest.raises(ValueError, match="tag length"):
        RequestBatch(arrival=0.0, ost=[1, 2, 3], nbytes=MB, tag=[0, 1])


def test_duplicate_tags_are_solved_per_position():
    # solve() is positional; caller tags need not be unique.
    batch = RequestBatch(0.0, [0, 0], [10 * MB, 20 * MB], tag=[5, 5])
    _assert_backends_agree(batch, large_writes=True)


def test_simulate_writes_dict_wrapper_matches_batch_order():
    reqs = [
        WriteRequest(arrival=0.0, ost=3, nbytes=45 * MB, tag=11),
        WriteRequest(arrival=1.0, ost=3, nbytes=45 * MB, tag=7),
    ]
    done = simulate_writes(KRAKEN, reqs, large_writes=True)
    assert set(done) == {11, 7}
    assert done[11] < done[7]


# -- golden-seed equivalence across workload shapes -----------------------


def _random_batch(rng, n, *, staggered, equal_sizes):
    arrival = np.sort(rng.uniform(0.0, 30.0, n)) if staggered else np.zeros(n)
    ost = rng.integers(0, KRAKEN.ost_count, n)
    nbytes = np.full(n, 45.0 * MB) if equal_sizes else rng.uniform(MB, 90 * MB, n)
    return RequestBatch(arrival, ost, nbytes)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [1, 7, 200, 1500])
@pytest.mark.parametrize("staggered", [False, True])
@pytest.mark.parametrize("equal_sizes", [False, True])
def test_backends_agree_on_random_workloads(seed, n, staggered, equal_sizes):
    rng = np.random.default_rng([seed, n, staggered, equal_sizes])
    batch = _random_batch(rng, n, staggered=staggered, equal_sizes=equal_sizes)
    background = rng.poisson(1.2, KRAKEN.ost_count).astype(float)
    for bg in (None, background):
        for large in (False, True):
            _assert_backends_agree(batch, background=bg, large_writes=large)


def test_backends_agree_on_every_approach_iteration():
    """Medium workload end-to-end: each approach's visible & backend times."""
    for approach in APPROACHES:
        results = {}
        for backend in ("vectorized", "reference"):
            with use_backend(backend):
                rng = np.random.default_rng(42)
                results[backend] = approach.run_iteration(KRAKEN, 1152, 45 * MB, rng)
        vec, ref = results["vectorized"], results["reference"]
        np.testing.assert_allclose(vec.visible_times, ref.visible_times, rtol=1e-9, atol=1e-9)
        assert vec.backend_wall_s == pytest.approx(ref.backend_wall_s, rel=1e-9)
        assert vec.backend_busy_s == pytest.approx(ref.backend_busy_s, rel=1e-9)


# -- pinned headline values (golden seed 0, default ladder) ----------------


def test_e1_headline_pinned():
    table = run_weak_scaling(scales=[576, 1152, 2304], iterations=2)
    top = {row["approach"]: row for row in table.where(ranks=2304)}
    # Orderings the paper's figure hinges on.
    assert (
        top["damaris"]["io_phase_mean_s"]
        < top["file-per-process"]["io_phase_mean_s"]
        < top["collective"]["io_phase_mean_s"]
    )
    assert (
        top["damaris"]["speedup_vs_collective"]
        > top["file-per-process"]["speedup_vs_collective"]
        > 1.0
    )
    # Pinned values guarding the refactor (golden seed 0).
    assert top["damaris"]["io_phase_mean_s"] == pytest.approx(0.081117, rel=1e-3)
    assert top["damaris"]["speedup_vs_collective"] == pytest.approx(1.682624, rel=1e-3)
    assert top["collective"]["io_phase_mean_s"] == pytest.approx(204.923742, rel=1e-3)


def test_e3_headline_pinned():
    table = run_throughput(ranks=2304, iterations=2)
    by_name = {row["approach"]: row["throughput_gb_s"] for row in table}
    assert by_name["collective"] < by_name["file-per-process"] < by_name["damaris"]
    assert by_name["collective"] == pytest.approx(0.548336, rel=1e-3)
    assert by_name["file-per-process"] == pytest.approx(1.675572, rel=1e-3)
    assert by_name["damaris"] == pytest.approx(16.875, rel=1e-3)


def test_experiment_tables_identical_across_backends():
    kwargs = {"ranks": 1152, "iterations": 2, "seed": 5}
    with use_backend("vectorized"):
        vec = run_throughput(**kwargs)
    with use_backend("reference"):
        ref = run_throughput(**kwargs)
    for vrow, rrow in zip(vec, ref, strict=True):
        for key in vrow.keys():
            assert vrow[key] == pytest.approx(rrow[key], rel=1e-9), key


def test_storm_threshold_boundary_pinned():
    """Both sides of the wide-FIFO storm boundary match the reference.

    The storm regime holds while every arrival lands no later than the
    first request's completion.  Built with exact float arithmetic
    (power-of-two bandwidth, size, and gap) so the second arrival lands
    exactly on the first completion for ``g = 2**-10`` (storm path) and
    after it for ``g = 2**-9`` (lockstep re-solve); both must agree with
    the reference event loop bit-for-bit.
    """
    from repro.engine.vectorized import WIDE_MIN_GROUPS

    size = float(2**20)
    machine = KRAKEN.with_overrides(ost_count=WIDE_MIN_GROUPS, ost_bandwidth=float(2**30))
    lanes = np.arange(WIDE_MIN_GROUPS, dtype=np.int64)
    for gap in (2.0**-10, 2.0**-9):
        batch = RequestBatch(
            arrival=np.concatenate([np.zeros(WIDE_MIN_GROUPS), np.full(WIDE_MIN_GROUPS, gap)]),
            ost=np.concatenate([lanes, lanes]),
            nbytes=size,
        )
        vec = solve(machine, batch, large_writes=False, backend="vectorized")
        ref = solve(machine, batch, large_writes=False, backend="reference")
        np.testing.assert_array_equal(vec, ref, err_msg=f"gap {gap}")


def test_storm_check_rounds_like_the_fifo_loop():
    """The wide path decides the storm regime in the per-lane loop's own
    time-unit arithmetic, not in service units that round differently.

    Here the second arrival and the first completion coincide up to one
    ulp: the FIFO loop completes the first request before the second
    arrives, and the stacked solve must do the same.
    """
    batch = RequestBatch(
        arrival=np.array([0.285, 0.785]), ost=np.array([0, 0]), nbytes=np.full(2, 45.0 * 2**20)
    )
    alone = solve(KRAKEN, batch, large_writes=False)
    assert alone[0] == 0.7849999999999999  # repro: allow[DET004]
    for stacked in solve_many(KRAKEN, [batch] * 1024, large_writes=False):
        np.testing.assert_array_equal(stacked, alone)


@pytest.mark.parametrize("ost_count", [7, 2**16, 2**16 + 1])
def test_lane_order_equals_lexsort(ost_count):
    """``RequestBatch.lanes`` groups by two stable sorts (arrival, then
    OST ids on a narrow key); the order must be ``np.lexsort``'s, ties
    included, on both sides of the 16-bit key width."""
    rng = np.random.default_rng(ost_count)
    n = 3000
    # The highest ids sit on the width boundary (65536 would wrap to 0
    # on a 16-bit key); ids past ost_count wrap onto the machine.
    ost = np.concatenate(
        [rng.integers(0, 2 * ost_count, n), [0, ost_count - 1, 0, ost_count - 1]]
    )
    # Rounded arrivals tie often; ties keep batch order, as in lexsort.
    arrival = np.round(rng.uniform(0.0, 2.0, ost.size), 1)
    batch = RequestBatch(arrival=arrival, ost=ost, nbytes=rng.uniform(1.0, 2.0, ost.size))
    view = batch.lanes(ost_count)
    order = np.lexsort((arrival, ost % ost_count))
    np.testing.assert_array_equal(view.order, order)
    np.testing.assert_array_equal(view.arrival, arrival[order])
    np.testing.assert_array_equal(view.nbytes, batch.nbytes[order])
    lane_ost = (ost % ost_count)[order]
    np.testing.assert_array_equal(view.ost, np.unique(lane_ost))
    np.testing.assert_array_equal(lane_ost[view.starts], view.ost)
    np.testing.assert_array_equal(lane_ost[view.ends - 1], view.ost)


def test_lane_order_of_an_empty_batch():
    view = RequestBatch(np.empty(0), np.empty(0, dtype=np.int64), np.empty(0)).lanes(2**16)
    assert view.lane_count == 0
    assert view.order.size == view.arrival.size == view.nbytes.size == 0

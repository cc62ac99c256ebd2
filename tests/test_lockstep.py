"""Bit-identity of the all-lanes staggered kernels with the per-lane loops.

Staggered batches on at least ``WIDE_MIN_GROUPS`` OSTs are solved across
every lane at once (the two-phase FIFO solve for equal sizes, the
lockstep row-min sweep for mixed sizes); narrower ones keep the per-lane
loops.  Both routes must return the per-lane loops' bytes exactly, and
``solve_many`` — which moves batches across that boundary by stacking
them — must return exactly what one ``solve`` per batch does.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import KRAKEN, RequestBatch, solve, solve_many
from repro.engine.vectorized import WIDE_MIN_GROUPS, _solve_lockstep_heap, _solve_staggered
from repro.util import MB

_SETTINGS = dict(deadline=None, max_examples=30)

#: OST counts straddling the routing boundary.
_WIDTHS = (WIDE_MIN_GROUPS // 4, WIDE_MIN_GROUPS - 1, WIDE_MIN_GROUPS, 2 * WIDE_MIN_GROUPS)


def _per_lane(machine, batch, background, large_writes):
    """The per-lane loops on ``batch``, bypassing the width routing."""
    slope = (
        machine.large_write_seek_penalty if large_writes else machine.small_write_seek_penalty
    )
    bg = np.zeros(machine.ost_count) if background is None else background
    return _solve_staggered(machine.ost_bandwidth, slope, batch.lanes(machine.ost_count), bg)


def _staggered_batch(rng, machine, n, *, equal_sizes, idle_gaps):
    arrival = rng.uniform(0.0, float(rng.choice([0.5, 5.0, 60.0])), n)
    if idle_gaps:
        # A second wave long after the first drains: lanes go idle between.
        arrival += np.where(rng.random(n) < 0.4, 1000.0, 0.0)
    if rng.random() < 0.3:
        arrival = np.round(arrival, 1)  # coincident arrivals
    arrival[0] = arrival.min() + 0.25  # never simultaneous
    nbytes = (
        np.full(n, float(rng.uniform(MB, 64 * MB)))
        if equal_sizes
        else rng.uniform(0.5 * MB, 96 * MB, n)
    )
    return RequestBatch(arrival=arrival, ost=rng.integers(0, machine.ost_count, n), nbytes=nbytes)


@settings(**_SETTINGS)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    width=st.sampled_from(_WIDTHS),
    per_lane=st.sampled_from([0.5, 1.5, 6.0]),
    equal_sizes=st.booleans(),
    with_background=st.booleans(),
    idle_gaps=st.booleans(),
    large_writes=st.booleans(),
)
def test_routing_is_bit_identical_to_per_lane_loops(
    seed, width, per_lane, equal_sizes, with_background, idle_gaps, large_writes
):
    rng = np.random.default_rng(seed)
    machine = KRAKEN.with_overrides(ost_count=width)
    n = max(2, int(per_lane * width))
    batches = [
        _staggered_batch(rng, machine, n, equal_sizes=equal_sizes, idle_gaps=idle_gaps)
        for _ in range(3)
    ]
    backgrounds = [
        rng.poisson(1.2, width).astype(float) if with_background else None for _ in batches
    ]
    alone = []
    for batch, background in zip(batches, backgrounds, strict=True):
        got = solve(machine, batch, background=background, large_writes=large_writes)
        want = _per_lane(machine, batch, background, large_writes)
        np.testing.assert_array_equal(got, want)
        alone.append(got)
    stacked = solve_many(machine, batches, backgrounds=backgrounds, large_writes=large_writes)
    for got, want in zip(stacked, alone, strict=True):
        np.testing.assert_array_equal(got, want)


def test_equal_thresholds_complete_together():
    """Two active requests that reach the same completion threshold.

    On every lane, request A (2 MiB) arrives at 0 and request B (1 MiB)
    at 2**-10 s, when A has exactly 1 MiB of service: both complete at
    the service level 2 MiB.  B sits earlier in the batch, so the heap
    pops B first while the row argmin picks A's lower slot; the second
    completion has no service left, so both orders give the same bytes.
    """
    machine = KRAKEN.with_overrides(ost_count=WIDE_MIN_GROUPS, ost_bandwidth=float(2**30))
    lanes = np.arange(WIDE_MIN_GROUPS, dtype=np.int64)
    late, early = np.full(WIDE_MIN_GROUPS, 2.0**-10), np.zeros(WIDE_MIN_GROUPS)
    small, large = np.full(WIDE_MIN_GROUPS, 2.0**20), np.full(WIDE_MIN_GROUPS, 2.0**21)
    batch = RequestBatch(
        arrival=np.concatenate([late, early]),
        ost=np.concatenate([lanes, lanes]),
        nbytes=np.concatenate([small, large]),
    )
    view = batch.lanes(machine.ost_count)
    bg = np.zeros(machine.ost_count)
    slope = machine.small_write_seek_penalty
    lockstep = _solve_lockstep_heap(machine.ost_bandwidth, slope, view, bg)
    per_lane = _solve_staggered(machine.ost_bandwidth, slope, view, bg)
    np.testing.assert_array_equal(lockstep, per_lane)
    np.testing.assert_array_equal(lockstep[:WIDE_MIN_GROUPS], lockstep[WIDE_MIN_GROUPS:])
    np.testing.assert_array_equal(solve(machine, batch, large_writes=False), per_lane)


@pytest.mark.parametrize("equal_sizes", [True, False])
def test_skewed_lanes_match_per_lane_loops(equal_sizes):
    """One deep lane among many single-request lanes, background on: the
    deep lane is left to the per-lane loop, whatever the sizes."""
    rng = np.random.default_rng(7)
    machine = KRAKEN.with_overrides(ost_count=WIDE_MIN_GROUPS)
    deep = 200
    ost = np.concatenate([np.zeros(deep, dtype=np.int64), np.arange(1, WIDE_MIN_GROUPS)])
    batch = RequestBatch(
        arrival=rng.uniform(0.0, 20.0, ost.size),
        ost=ost,
        nbytes=32 * MB if equal_sizes else rng.uniform(MB, 64 * MB, ost.size),
    )
    background = rng.poisson(1.5, machine.ost_count).astype(float)
    got = solve(machine, batch, background=background, large_writes=True)
    np.testing.assert_array_equal(got, _per_lane(machine, batch, background, True))


@pytest.mark.parametrize("failing", [3, 100])
def test_storm_check_failures_match_per_lane_loops(failing):
    """Equal-size lanes that fail the two-phase solve's storm check (a
    write arriving after the lane drained) are solved again in the
    lockstep FIFO sweep, whether a few of them fail or many."""
    rng = np.random.default_rng(failing)
    machine = KRAKEN.with_overrides(ost_count=WIDE_MIN_GROUPS)
    storm = np.repeat(np.arange(WIDE_MIN_GROUPS), 4)
    late = rng.choice(WIDE_MIN_GROUPS, failing, replace=False)
    batch = RequestBatch(
        arrival=np.concatenate([rng.uniform(0.0, 0.01, storm.size), np.full(failing, 1000.0)]),
        ost=np.concatenate([storm, late]),
        nbytes=45 * MB,
    )
    background = rng.poisson(1.2, machine.ost_count).astype(float)
    got = solve(machine, batch, background=background, large_writes=False)
    np.testing.assert_array_equal(got, _per_lane(machine, batch, background, False))

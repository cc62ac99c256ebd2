"""Vectorized numpy processor-sharing solver (the default backend).

Same model as the reference backend — every OST is an egalitarian
processor-sharing server whose ``n`` active streams (plus background)
each progress at ``bandwidth / (streams * seek_penalty(streams))`` — but
solved without per-byte Python dict churn.  Every staggered solve runs in
*virtual service time*: the cumulative per-stream service ``S(t)`` is
monotone, so a request arriving at ``a`` with ``b`` bytes completes
exactly when ``S`` reaches ``S(a) + b``.  A batch takes one of three
regimes:

* **Simultaneous arrivals** (dedicated-core flushes, scheduling waves):
  within an OST the stream with the least bytes finishes first, so the
  completion times are a cumulative sum over the size-sorted requests
  with a per-segment rate that only depends on how many streams remain.
  That cumsum is evaluated for *all OSTs at once* on a padded
  ``(osts, depth)`` matrix — one numpy pass for the whole batch.
* **Wide staggered batches** (at least :data:`WIDE_MIN_GROUPS` OSTs and
  requests: Kraken's 336 OSTs, stacked replications and serve fills, see
  :mod:`repro.engine.batching`) are solved across all lanes at once:

  - *equal sizes*: the exact two-phase solve.  In the checkpoint regime
    every request of an OST arrives before its first completion, so an
    *arrival phase* row cumsum of per-stream service gives each
    request's completion threshold and a *completion phase* cumsum
    drains the FIFO queue.  The regime is checked arrival by arrival in
    the FIFO loop's own arithmetic; the lanes that fail are solved
    again in a lockstep FIFO sweep (one event per lane per numpy pass);
  - *mixed sizes*: the lockstep row-min sweep, which keeps the active
    requests' thresholds in a padded ``(lanes, depth)`` matrix and
    takes a row argmin where the per-lane loop pops a heap.

* **Narrow staggered batches** keep the per-lane loops: a min-heap of
  thresholds per OST (a FIFO pointer when sizes are equal), O(k log k)
  per OST with no remaining-bytes bookkeeping.  Below
  :data:`WIDE_MIN_GROUPS` OSTs a numpy pass advances too few lanes to
  pay for itself.

All three are exact: the all-lanes kernels apply the per-lane loops'
scalar arithmetic element-wise, so every output is bit-identical to
per-lane solving, and :func:`~repro.engine.solve_many` can move a batch
across the width boundary by stacking it without changing a bit.
"""

from __future__ import annotations

import heapq
from typing import TypeVar

import numpy as np
import numpy.typing as npt

from ..util import FloatArray, IntArray
from .machines import Machine, PENALTY_CAP
from .requests import LaneOrder, RequestBatch, ost_sort_key

__all__ = ["solve_vectorized", "WIDE_MIN_GROUPS"]

_Scalar = TypeVar("_Scalar", bound=np.generic)

#: Minimum OST count (and request count) at which a staggered batch goes
#: to the all-lanes kernels: :func:`_solve_wide_fifo` for equal sizes,
#: :func:`_solve_lockstep_heap` for mixed sizes.  Narrower batches keep
#: the per-lane loops, which win there.  The registry's ``micro.lanes``
#: pairs measure the crossover on E9- and serve-shaped batches (see
#: DESIGN.md).
WIDE_MIN_GROUPS = 256

#: Lane floor of the mixed-size lockstep sweep: it leaves every lane
#: deeper than its this-many-th deepest (every lane, if there are fewer)
#: to the per-lane loop, so one deep lane among shallow ones neither
#: costs a numpy pass per event of its own nor widens every row of the
#: threshold matrix.
_LOCKSTEP_MIN_LANES = 32

#: The lockstep sweeps keep their state at a multiple of this many rows,
#: parking finished lanes (and padding) in it until they make up half of
#: it.  numpy keeps up to 7 freed buffers of every byte size under 1 KiB,
#: so state compacted to every lane count in turn would strand hundreds
#: of small buffers (about 0.7 MB over one E9 op).
_ROW_QUANTUM = 64


def solve_vectorized(
    machine: Machine,
    batch: RequestBatch,
    background: FloatArray | None,
    large_writes: bool,
) -> FloatArray:
    """Completion time of every request in ``batch``, in batch order."""
    n = len(batch)
    if n == 0:
        return np.empty(0, dtype=np.float64)
    ost = batch.ost % machine.ost_count
    if background is not None:
        bg_per_ost = np.asarray(background, dtype=np.float64)
    else:
        bg_per_ost = np.zeros(machine.ost_count, dtype=np.float64)
    slope = (
        machine.large_write_seek_penalty
        if large_writes
        else machine.small_write_seek_penalty
    )
    arrival = batch.arrival
    if np.all(arrival == arrival[0]):
        return _solve_simultaneous(
            machine.ost_bandwidth, slope, ost, arrival[0], batch.nbytes, bg_per_ost
        )
    if n < WIDE_MIN_GROUPS or machine.ost_count < WIDE_MIN_GROUPS:
        return _solve_staggered(
            machine.ost_bandwidth, slope, batch.lanes(machine.ost_count), bg_per_ost
        )
    if np.all(batch.nbytes == batch.nbytes[0]):
        return _solve_wide_fifo(
            machine.ost_bandwidth, slope, ost, arrival, float(batch.nbytes[0]), bg_per_ost
        )
    return _solve_lockstep_heap(
        machine.ost_bandwidth, slope, batch.lanes(machine.ost_count), bg_per_ost
    )


def _per_stream_rate(bw: float, slope: float, streams: FloatArray) -> FloatArray:
    """Rate of one stream when an OST serves ``streams`` of them (vectorized).

    Computed in one buffer: on the wide kernels' matrices the chained
    expression's temporaries would set the kernel's peak memory.
    """
    penalty = np.subtract(streams, 1.0)
    np.maximum(penalty, 0.0, out=penalty)
    penalty *= slope
    penalty += 1.0
    np.minimum(penalty, PENALTY_CAP, out=penalty)
    penalty *= streams
    return np.divide(bw, penalty, out=penalty)


def _solve_simultaneous(
    bw: float,
    slope: float,
    ost: IntArray,
    t0: float,
    nbytes: FloatArray,
    bg_per_ost: FloatArray,
) -> FloatArray:
    n = ost.size
    order = np.lexsort((nbytes, ost))
    ost_sorted = ost[order]
    sizes = nbytes[order]

    is_first = np.empty(n, dtype=bool)
    is_first[0] = True
    np.not_equal(ost_sorted[1:], ost_sorted[:-1], out=is_first[1:])
    group_id = np.cumsum(is_first) - 1
    group_start = np.flatnonzero(is_first)
    counts = np.diff(np.append(group_start, n))
    pos = np.arange(n) - group_start[group_id]

    groups = counts.size
    depth = int(counts.max())
    sizes_padded = np.zeros((groups, depth), dtype=np.float64)
    sizes_padded[group_id, pos] = sizes
    # Within a group the smallest remaining stream finishes first, so the
    # extra service every survivor needs between consecutive completions is
    # the difference of the size-sorted requests.
    steps = np.diff(sizes_padded, axis=1, prepend=0.0)

    remaining = counts[:, None] - np.arange(depth)[None, :]
    valid = remaining >= 1
    streams = np.where(valid, remaining, 1.0) + bg_per_ost[ost_sorted[group_start], None]
    dt = np.where(valid, steps / _per_stream_rate(bw, slope, streams), 0.0)
    # Fold t0 into the first segment so the cumsum accumulates in the
    # exact order the scalar lane loops do (t0 + dt0) + dt1 + ...; the
    # simultaneous path is then bit-identical to the per-lane loops, which
    # solve_many relies on when stacking moves a batch onto another path.
    dt[:, 0] += float(t0)
    finish = np.cumsum(dt, axis=1)

    out = np.empty(n, dtype=np.float64)
    out[order] = finish[group_id, pos]
    return out


def _solve_staggered(
    bw: float,
    slope: float,
    lanes: LaneOrder,
    bg_per_ost: FloatArray,
) -> FloatArray:
    n = lanes.order.size
    # Equal shares mean equal sizes complete in arrival order, so the
    # pending-completion heap degenerates to a FIFO pointer.
    equal_sizes = bool(np.all(lanes.nbytes == lanes.nbytes[0]))

    arrivals_sorted = lanes.arrival.tolist()
    sizes_sorted = lanes.nbytes.tolist()
    positions = lanes.order.tolist()
    lane_bg = bg_per_ost[lanes.ost].tolist()
    out = np.empty(n, dtype=np.float64)
    solve_one = _solve_one_ost_fifo if equal_sizes else _solve_one_ost
    for lane, (start, end) in enumerate(zip(lanes.starts.tolist(), lanes.ends.tolist(), strict=True)):
        solve_one(
            bw,
            slope,
            lane_bg[lane],
            arrivals_sorted,
            sizes_sorted,
            positions,
            start,
            end,
            out,
        )
    return out


def _solve_wide_fifo(
    bw: float,
    slope: float,
    ost: IntArray,
    arrival: FloatArray,
    size: float,
    bg_per_ost: FloatArray,
) -> FloatArray:
    """All-OSTs-at-once solve of a wide equal-size staggered batch.

    In the checkpoint regime the equal-size writes far outlast the
    arrival window, so on each OST every request arrives before the
    first one completes.  The FIFO event loop then splits into two
    vectorised phases over a padded ``(osts, depth)`` matrix:

    * **arrival phase** — between consecutive arrivals ``j`` streams
      share the OST, so the cumulative per-stream service at each
      arrival is a row cumsum of ``rate(j + background) * gap``; adding
      the write size yields every request's completion threshold.
    * **completion phase** — the queue drains in FIFO order with the
      stream count stepping down, a second row cumsum.

    The regime assumption is *checked exactly*, arrival by arrival, with
    the FIFO loop's own comparison ``a_j <= a_{j-1} + (size - S_{j-1}) /
    rate_j`` (in time units, as the loop decides it, not in service
    units, which round differently).  An OST that fails is solved again
    in :func:`_solve_lockstep_fifo`, so this path is bit-identical to
    per-OST solving either way.
    """
    n = ost.size
    # Group by OST (stable radix sort, on the narrowest dtype that holds
    # the ids — fewer radix passes), then order arrivals within each
    # group via one row-wise argsort of a padded matrix; both sorts are
    # stable, so the combined order equals lexsort((arrival, ost)).
    perm = np.argsort(ost_sort_key(ost, bg_per_ost.size), kind="stable")
    ost_sorted = ost[perm]
    is_first = np.empty(n, dtype=bool)
    is_first[0] = True
    np.not_equal(ost_sorted[1:], ost_sorted[:-1], out=is_first[1:])
    starts = np.flatnonzero(is_first)
    bg = bg_per_ost[ost_sorted[starts]].astype(np.float64)
    del ost_sorted, is_first
    counts = np.diff(np.append(starts, n))
    groups = counts.size
    depth = int(counts.max())
    if (
        groups >= _LOCKSTEP_MIN_LANES
        and depth > 2 * np.partition(counts, -_LOCKSTEP_MIN_LANES)[-_LOCKSTEP_MIN_LANES]
    ):
        # A few lanes far deeper than the rest would pad every row of the
        # matrices to their depth.  The row-min sweep leaves such lanes to
        # the per-lane loop, and with equal sizes it returns the FIFO
        # loop's bytes: thresholds rise with arrival order, so its argmin
        # picks the oldest active request.
        lanes = RequestBatch(arrival, ost, size).lanes(bg_per_ost.size)
        return _solve_lockstep_heap(bw, slope, lanes, bg_per_ost)
    valid = np.arange(depth)[None, :] < counts[:, None]
    padding = ~valid

    # The matrices below reuse each other's buffers once a value is dead:
    # the kernel's peak is a handful of (osts, depth) matrices, which on a
    # wide stack is most of a run's peak memory.  ``arrivals`` first holds
    # the unsorted lanes (inf padded, so padding sorts last), then every
    # lane's arrivals in order (zero padded).  A boolean mask visits the
    # matrix row by row, which is lane order, so ``[valid]`` scatters and
    # gathers a flat per-lane array.
    arrivals = np.full((groups, depth), np.inf)
    arrivals[valid] = arrival[perm]
    row_order = np.argsort(arrivals, axis=1, kind="stable")
    row_order += starts[:, None]
    order = perm[row_order[valid]]
    del perm, row_order
    arrivals[valid] = arrival[order]
    arrivals[padding] = 0.0

    # Arrival phase: j streams are active in the gap before arrival j+1.
    service = np.zeros((groups, depth))
    storm = np.ones(groups, dtype=bool)  # every arrival before the first completion
    if depth > 1:
        gaps = np.diff(arrivals, axis=1)
        streams = np.arange(1.0, depth)[None, :] + bg[:, None]
        rate = _per_stream_rate(bw, slope, streams)
        # Padding sits at the end of each row, so the garbage it adds to
        # the cumsum never reaches a real request's service.
        np.cumsum(np.multiply(rate, gaps, out=streams), axis=1, out=service[:, 1:])
        # Storm check, arrival by arrival, in the FIFO loop's own
        # arithmetic: arrival j lands before the first completion iff
        # a_j <= a_{j-1} + (size - S_{j-1}) / rate_j.
        first_done = np.subtract(size, service[:, :-1], out=gaps)
        np.divide(first_done, rate, out=first_done)
        np.add(arrivals[:, :-1], first_done, out=first_done)
        late = np.greater(arrivals[:, 1:], first_done)
        late &= valid[:, 1:]
        storm = ~late.any(axis=1)
        del gaps, streams, rate, first_done, late
    rows = np.arange(groups)
    service_last = service[rows, counts - 1]
    t_last = arrivals[rows, counts - 1]
    thresholds = np.add(service, size, out=service)

    # Completion phase: the queue drains FIFO, streams stepping down.
    streams = counts[:, None] - np.arange(depth, dtype=np.float64)
    streams[padding] = 1.0
    streams += bg[:, None]
    rate = _per_stream_rate(bw, slope, streams)
    del streams
    dt = arrivals  # the arrivals are dead: their buffer takes the time steps
    np.subtract(thresholds[:, 0], service_last, out=dt[:, 0])
    np.subtract(thresholds[:, 1:], thresholds[:, :-1], out=dt[:, 1:])
    del service, thresholds
    np.divide(dt, rate, out=dt)
    del rate
    dt[padding] = 0.0
    dt[:, 0] += t_last
    finish = np.cumsum(dt, axis=1, out=dt)

    out = np.empty(n + 1, dtype=np.float64)  # out[n]: scratch for the lockstep
    # Scatter every lane unmasked; lanes that failed the storm check hold
    # garbage here and are overwritten by the lockstep re-solve below.
    out[order] = finish[valid]
    del arrivals, dt, finish, valid, padding
    if not storm.all():
        # Sparse early arrivals let a request finish mid-storm; those
        # lanes are solved again from the start in lockstep — one event
        # per lane per pass, same scalar arithmetic as the FIFO loop.
        bad = np.flatnonzero(~storm)
        lo, hi = starts[bad], starts[bad] + counts[bad]
        _solve_lockstep_fifo(bw, slope, bg[bad], arrival[order], size, order, lo, hi, out)
    return out[:n]


def _solve_lockstep_fifo(
    bw: float,
    slope: float,
    bg: FloatArray,
    arr: FloatArray,
    size: float,
    positions: IntArray,
    starts: IntArray,
    ends: IntArray,
    out: FloatArray,
) -> None:
    """Lockstep FIFO sweep over a subset of OST lanes.

    ``arr``/``positions`` are flat arrival-sorted-per-OST views and each
    ``[starts[k], ends[k])`` pair is one lane.  Every lane's scalar loop
    state (wall clock, cumulative service, arrival/completion cursors) is
    one vector element and each pass advances every live lane by exactly
    one event — an idle jump, an arrival, or a completion — with the
    per-OST FIFO loop's arithmetic applied element-wise, so results stay
    bit-identical to scalar solving.  As in :func:`_solve_lockstep_heap`,
    finished lanes are parked and later compacted out.  ``out`` has one
    scratch slot past the ``n`` requests.
    """
    n = arr.size
    thresholds = np.empty(n + 2)  # service level at which a request completes
    # A padding row sits on scratch slot n (threshold 0, its own service)
    # with end -1, like a parked lane: it computes its own state again
    # every pass and writes nothing.
    thresholds[n] = 0.0
    pad = -starts.size % _ROW_QUANTUM
    head, nxt, end = _padded(starts, n, pad), _padded(starts, n + 1, pad), _padded(ends, -1, pad)
    bg = _padded(bg, 0.0, pad)
    t = np.zeros(head.size)  # wall clock per lane
    service = np.zeros(head.size)  # cumulative per-stream service per lane
    parked = pad
    while parked < head.size:
        idle = head == nxt
        if idle.any():
            # Idle lane: jump to the next arrival; no service accrues.
            ii = np.minimum(nxt, n - 1)
            t = np.where(idle, np.maximum(t, arr[ii]), t)
            thresholds[np.where(idle, nxt, n + 1)] = service + size
            nxt += idle
        rate = _per_stream_rate(bw, slope, (nxt - head) + bg)
        threshold = thresholds[head]
        t_complete = t + (threshold - service) / rate
        has_next = nxt < end
        arr_next = arr[np.minimum(nxt, n - 1)]
        arrive = has_next & (arr_next <= t_complete)
        went = ~arrive & (head < end)
        service = np.where(arrive, service + rate * (arr_next - t), threshold)
        t = np.where(arrive, arr_next, t_complete)
        thresholds[np.where(arrive, nxt, n + 1)] = service + size
        nxt += arrive
        out[np.where(went, positions[np.minimum(head, n - 1)], n)] = t
        head += went
        finished = (head == end).nonzero()[0]
        if finished.size:
            # Parked back on its last request with end -1, a finished lane
            # computes its own final state again every pass.
            head[finished] -= 1
            end[finished] = -1
            parked += finished.size
            if 2 * parked >= head.size:
                keep = _quantum_rows(end >= 0)
                head, end, nxt, t, service, bg = (
                    head[keep], end[keep], nxt[keep], t[keep], service[keep], bg[keep]
                )
                parked = int(np.count_nonzero(end < 0))


def _padded(values: npt.NDArray[_Scalar], fill: float, count: int) -> npt.NDArray[_Scalar]:
    """``values`` followed by ``count`` copies of ``fill``."""
    return np.concatenate([values, np.full(count, fill, dtype=values.dtype)])


def _quantum_rows(keep: npt.NDArray[np.bool_]) -> npt.NDArray[np.bool_]:
    """``keep`` plus as many dropped rows as round it up to whole quanta."""
    spare = -int(np.count_nonzero(keep)) % _ROW_QUANTUM
    keep[np.flatnonzero(~keep)[:spare]] = True
    return keep


def _solve_lockstep_heap(
    bw: float,
    slope: float,
    lanes: LaneOrder,
    bg_per_ost: FloatArray,
) -> FloatArray:
    """Lockstep mixed-size sweep over every OST lane of a batch.

    The counterpart of :func:`_solve_lockstep_fifo` for unequal sizes:
    every lane's scalar loop state (wall clock, cumulative service, next
    arrival, active count) is one vector element, and each pass advances
    every live lane by one event with :func:`_solve_one_ost`'s arithmetic
    applied element-wise.  The heap becomes a padded ``(lanes, depth)``
    matrix of completion thresholds — slot ``k`` holds the lane's ``k``-th
    arrival, ``inf`` while it is not active — and a row argmin picks the
    next completion.  Equal thresholds are the one place the two differ:
    the argmin takes the lowest slot where the heap takes the lowest
    output position, but the second of two equal thresholds then has no
    service left and completes at the same instant, so every output is
    unchanged.  Finished lanes are parked, then compacted out of the
    state once they make up half of it; arrivals, sizes and positions are
    read from the flat lane-order arrays.

    Lanes deeper than the :data:`_LOCKSTEP_MIN_LANES`-th deepest (every
    lane, if there are fewer) go to :func:`_solve_one_ost` instead.
    """
    arr, sizes, positions = lanes.arrival, lanes.nbytes, lanes.order
    n = arr.size
    out = np.empty(n + 1, dtype=np.float64)  # out[n]: scratch for non-completions
    counts = lanes.ends - lanes.starts
    depth = 0
    if counts.size >= _LOCKSTEP_MIN_LANES:
        depth = int(np.partition(counts, -_LOCKSTEP_MIN_LANES)[-_LOCKSTEP_MIN_LANES])
    swept = counts <= depth
    bg_all = bg_per_ost[lanes.ost].astype(np.float64)
    # Padding rows start out parked: no requests, active -1.
    pad = -int(np.count_nonzero(swept)) % _ROW_QUANTUM
    start = _padded(lanes.starts[swept], 0, pad)
    end = _padded(lanes.ends[swept], 0, pad)
    bg = _padded(bg_all[swept], 0.0, pad)
    live = start.size
    # Column ``depth`` is a scratch slot: rows with nothing to record in a
    # pass write ``inf`` there, so every scatter covers all rows and no
    # pass builds arrays sized by how many lanes took which branch.
    thresholds = np.full((live, depth + 1), np.inf)
    thresholds[live - pad :, 0] = 0.0
    nxt = start.copy()  # next arrival per lane (flat index)
    active = _padded(np.zeros(live - pad, dtype=np.int64), -1, pad)  # requests in service
    t = np.zeros(live)  # wall clock per lane
    service = np.zeros(live)  # cumulative per-stream service per lane
    rows = np.arange(live)
    parked = pad  # parked rows: finished lanes and padding (active -1)
    while parked < live:
        idle = active == 0
        if idle.any():
            # Idle lane: jump to the next arrival; no service accrues.
            ii = np.minimum(nxt, n - 1)
            t = np.where(idle, np.maximum(t, arr[ii]), t)
            thresholds[rows, np.where(idle, nxt - start, depth)] = np.where(
                idle, service + sizes[ii], np.inf
            )
            nxt += idle
            active += idle
        # Parked lanes count one stream, which keeps their rate finite.
        rate = _per_stream_rate(bw, slope, np.maximum(active, 1) + bg)
        # Slots at or past a lane's next arrival are still empty.
        slot = thresholds[:, : int((nxt - start).max())].argmin(axis=1)
        threshold = thresholds[rows, slot]
        t_complete = t + (threshold - service) / rate
        has_next = nxt < end
        ii = np.minimum(nxt, n - 1)
        arr_next = arr[ii]
        arrive = has_next & (arr_next <= t_complete)
        went = ~arrive & (active > 0)
        service = np.where(arrive, service + rate * (arr_next - t), threshold)
        t = np.where(arrive, arr_next, t_complete)
        # Arrivals fill their slot, completions clear theirs.
        column = np.where(arrive, nxt - start, np.where(went, slot, depth))
        thresholds[rows, column] = np.where(arrive, service + sizes[ii], np.inf)
        out[np.where(went, positions[start + slot], n)] = t
        nxt += arrive
        active += arrive
        active -= went
        finished = ((active == 0) & ~has_next).nonzero()[0]
        if finished.size:
            # A parked lane's only threshold is its own service level: it
            # completes nothing, at its own clock, every pass.
            active[finished] = -1
            thresholds[finished, 0] = service[finished]
            parked += finished.size
            if 2 * parked >= live:
                keep = _quantum_rows(active >= 0)
                thresholds = thresholds[keep]
                start, end, nxt, active = start[keep], end[keep], nxt[keep], active[keep]
                t, service, bg = t[keep], service[keep], bg[keep]
                live = start.size
                rows = rows[:live]
                parked = int(np.count_nonzero(active < 0))
    for k in np.flatnonzero(~swept).tolist():
        lo, hi = int(lanes.starts[k]), int(lanes.ends[k])
        _solve_one_ost(
            bw,
            slope,
            float(bg_all[k]),
            arr[lo:hi].tolist(),
            sizes[lo:hi].tolist(),
            positions[lo:hi].tolist(),
            0,
            hi - lo,
            out,
        )
    return out[:n]


def _solve_one_ost(
    bw: float,
    slope: float,
    background: float,
    arrivals: list[float],
    sizes: list[float],
    positions: list[int],
    start: int,
    end: int,
    out: FloatArray,
) -> None:
    """Virtual-service-time sweep of one OST's arrival-sorted requests."""
    heap: list[tuple[float, int]] = []  # (service threshold, output position)
    t = 0.0  # wall-clock time
    service = 0.0  # cumulative per-stream service S(t)
    i = start
    while i < end or heap:
        if not heap:
            # Idle OST: jump to the next arrival; no service accrues.
            if arrivals[i] > t:
                t = arrivals[i]
            heapq.heappush(heap, (service + sizes[i], positions[i]))
            i += 1
            continue
        streams = len(heap) + background
        penalty = 1.0 if streams <= 1.0 else min(1.0 + slope * (streams - 1.0), PENALTY_CAP)
        rate = bw / (streams * penalty)
        threshold, pos = heap[0]
        t_complete = t + (threshold - service) / rate
        if i < end and arrivals[i] <= t_complete:
            service += rate * (arrivals[i] - t)
            t = arrivals[i]
            heapq.heappush(heap, (service + sizes[i], positions[i]))
            i += 1
        else:
            service = threshold
            t = t_complete
            heapq.heappop(heap)
            out[pos] = t


def _solve_one_ost_fifo(
    bw: float,
    slope: float,
    background: float,
    arrivals: list[float],
    sizes: list[float],
    positions: list[int],
    start: int,
    end: int,
    out: FloatArray,
) -> None:
    """Equal-size variant: completions follow arrival order, no heap."""
    thresholds = [0.0] * (end - start)
    head = start  # oldest active request (next to complete)
    i = start  # next arrival
    t = 0.0
    service = 0.0
    while head < end:
        if head == i:
            if arrivals[i] > t:
                t = arrivals[i]
            thresholds[i - start] = service + sizes[i]
            i += 1
            continue
        streams = (i - head) + background
        penalty = 1.0 if streams <= 1.0 else min(1.0 + slope * (streams - 1.0), PENALTY_CAP)
        rate = bw / (streams * penalty)
        threshold = thresholds[head - start]
        t_complete = t + (threshold - service) / rate
        if i < end and arrivals[i] <= t_complete:
            service += rate * (arrivals[i] - t)
            t = arrivals[i]
            thresholds[i - start] = service + sizes[i]
            i += 1
        else:
            service = threshold
            t = t_complete
            out[positions[head]] = t
            head += 1

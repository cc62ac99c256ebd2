"""Randomized cross-validation harnesses.

* **Engine equivalence fuzz** — ~100 random request batches spanning
  every workload shape the models can produce (simultaneous and
  staggered arrivals, equal and mixed sizes, duplicate tags, background
  load, merged multi-app batches, wide stacked batches that engage the
  matrix fast path) must agree with the reference backend to 1e-9 — for
  *every* backend in the live registry, so a newly registered solver
  is cross-validated automatically.
* **Trace record/replay round trip** — a random multi-application
  workload is recorded, saved, reloaded, and replayed; the replay must
  reproduce the recorded per-app completion times exactly on both
  backends.
"""

import numpy as np
import pytest

from repro.engine import KRAKEN, RequestBatch, backend_names, merge_batches, solve
from repro.engine.vectorized import WIDE_MIN_GROUPS
from repro.util import MB
from repro.workloads import Workload, replay_trace, run_composition
from repro.workloads.trace import Trace

FUZZ_CASES = 100


def _random_batch(rng: np.random.Generator) -> tuple[RequestBatch, np.ndarray | None, bool]:
    """One random workload: batch, optional background, write class."""
    n = int(rng.integers(1, 400))
    simultaneous = rng.random() < 0.3
    if simultaneous:
        arrival = np.full(n, float(rng.uniform(0.0, 20.0)))
    else:
        arrival = rng.uniform(0.0, float(rng.choice([2.0, 30.0, 500.0])), n)
    equal_sizes = rng.random() < 0.5
    nbytes = (
        np.full(n, float(rng.uniform(MB, 90 * MB)))
        if equal_sizes
        else rng.uniform(0.1 * MB, 128 * MB, n)
    )
    # Sometimes spray across few OSTs (deep queues), sometimes many.
    ost_span = int(rng.choice([3, 48, KRAKEN.ost_count]))
    ost = rng.integers(0, ost_span, n)
    # Duplicate, shuffled tags: solvers are positional, tags are opaque.
    tag = rng.integers(0, max(2, n // 2), n)
    batch = RequestBatch(arrival=arrival, ost=ost, nbytes=nbytes, tag=tag)
    background = (
        rng.poisson(1.5, KRAKEN.ost_count).astype(float) if rng.random() < 0.5 else None
    )
    return batch, background, bool(rng.random() < 0.5)


def test_fuzz_backends_agree_on_random_batches():
    # Draw the candidate set from the live registry: every registered
    # backend (vectorized, future ones) fuzzes against the
    # reference ground truth on the same ~100 batches.
    candidates = [name for name in backend_names() if name != "reference"]
    assert candidates, "registry must hold at least one non-reference backend"
    rng = np.random.default_rng(20260730)
    for case in range(FUZZ_CASES):
        batch, background, large = _random_batch(rng)
        ref = solve(KRAKEN, batch, background=background, large_writes=large, backend="reference")
        for name in candidates:
            got = solve(KRAKEN, batch, background=background, large_writes=large, backend=name)
            np.testing.assert_allclose(
                got, ref, rtol=1e-9, atol=1e-6, err_msg=f"fuzz case {case} ({name}) diverged"
            )


def test_fuzz_backends_agree_on_merged_batches():
    # Multi-application composition shape: several batches merged over
    # the shared OSTs, solved as one contended batch.
    rng = np.random.default_rng(7)
    for case in range(20):
        parts = [_random_batch(rng)[0] for _ in range(int(rng.integers(2, 5)))]
        merged, _ = merge_batches(parts)
        vec = solve(KRAKEN, merged, background=None, large_writes=False, backend="vectorized")
        ref = solve(KRAKEN, merged, background=None, large_writes=False, backend="reference")
        np.testing.assert_allclose(
            vec, ref, rtol=1e-9, atol=1e-6, err_msg=f"merged fuzz case {case} diverged"
        )


def test_fuzz_wide_fast_path_agrees_with_reference():
    # Staggered batches wide enough to engage the all-lanes kernels:
    # equal sizes (two-phase solve, including storm-check violations from
    # long arrival spans that exercise the lockstep FIFO fallback) and
    # mixed sizes (the lockstep row-min sweep).
    rng = np.random.default_rng(99)
    machine = KRAKEN.with_overrides(ost_count=4 * WIDE_MIN_GROUPS)
    for case in range(20):
        n = int(rng.integers(WIDE_MIN_GROUPS, 4 * WIDE_MIN_GROUPS))
        span = float(rng.choice([5.0, 2000.0]))
        equal_sizes = case % 2 == 0
        batch = RequestBatch(
            arrival=rng.uniform(0.0, span, n),
            ost=rng.integers(0, machine.ost_count, n),
            nbytes=float(rng.uniform(MB, 64 * MB)) if equal_sizes else rng.uniform(MB, 64 * MB, n),
        )
        background = rng.poisson(1.2, machine.ost_count).astype(float)
        vec = solve(machine, batch, background=background, large_writes=False)
        ref = solve(machine, batch, background=background, large_writes=False, backend="reference")
        np.testing.assert_allclose(
            vec, ref, rtol=1e-9, atol=1e-6, err_msg=f"wide fuzz case {case} diverged"
        )


def _random_workloads(rng: np.random.Generator) -> list[Workload]:
    arrivals = ("periodic", "jittered", "poisson", "burst")
    approaches = ("file-per-process", "collective", "damaris")
    count = int(rng.integers(1, 4))
    return [
        Workload(
            app=f"app{i}",
            ranks=int(rng.choice([48, 96, 192])),
            data_per_rank=float(rng.uniform(4 * MB, 45 * MB)),
            arrival=str(rng.choice(arrivals)),
            approach=str(rng.choice(approaches)),
        )
        for i in range(count)
    ]


@pytest.mark.parametrize("case_seed", range(8))
def test_trace_record_replay_round_trip(case_seed, tmp_path):
    """Record a random workload, save, load, replay: identical completions."""
    rng = np.random.default_rng([41, case_seed])
    workloads = _random_workloads(rng)
    outcome = run_composition(
        KRAKEN,
        workloads,
        iterations=int(rng.integers(1, 4)),
        period=float(rng.uniform(10.0, 120.0)),
        seed=case_seed,
        trace_path=tmp_path / "trace.jsonl",
    )
    loaded = Trace.load(tmp_path / "trace.jsonl")
    assert loaded.apps == outcome.apps
    for backend in ("vectorized", "reference"):
        replayed = replay_trace(loaded, backend=backend)
        for app in outcome.apps:
            assert len(replayed[app]) == len(outcome.completions[app])
            for recorded, again in zip(outcome.completions[app], replayed[app], strict=True):
                if backend == "vectorized":
                    # Same backend, same inputs: bit-identical.
                    np.testing.assert_array_equal(again, recorded)
                else:
                    np.testing.assert_allclose(again, recorded, rtol=1e-9, atol=1e-6)

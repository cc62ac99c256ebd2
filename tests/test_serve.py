"""The solve service: canonical keys, memo cache, deterministic sharding.

The service's contract is threefold: its canonical request hash is a
pure, restart-stable function of the solve inputs (pinned digests guard
the byte layout); its responses are bit-identical to serial per-request
solving at any worker count, arrival order or flush interleaving
(hypothesis drives that); and its
hit/miss accounting reflects exactly which cells ran a solver.  The
overlapping-stream smoke test at the bottom is what the CI serve job
executes.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import RequestBatch, resolve_machine, solve
from repro.serve import (
    SERVE_WORKERS_ENV,
    SolveCache,
    SolveRequest,
    SolveService,
    active_serve_workers,
    coalesce,
    request_key,
    request_shard,
)
from repro.serve import demo_stream
from repro.util import MB

_SETTINGS = dict(deadline=None, max_examples=15)

GRID = resolve_machine("grid5000")

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _pinned_batch() -> RequestBatch:
    return RequestBatch(
        arrival=np.array([0.0, 0.5, 1.25]),
        ost=np.array([0, 5, 29], dtype=np.int64),
        nbytes=np.array([1048576.0, 2097152.0, 4194304.0]),
    )


def _random_request(seed: int, n: int) -> SolveRequest:
    rng = np.random.default_rng(seed)
    batch = RequestBatch(
        arrival=np.sort(rng.uniform(0.0, 10.0, n)),
        ost=rng.integers(0, GRID.ost_count * 2, n),
        nbytes=rng.uniform(0.1 * MB, 64 * MB, n),
    )
    background = rng.poisson(1.0, GRID.ost_count).astype(float) if seed % 2 else None
    return SolveRequest(GRID, batch, background=background, large_writes=bool(seed % 3 == 0))


# ---------------------------------------------------------------------------
# Canonical keys
# ---------------------------------------------------------------------------


def test_request_key_digests_are_pinned():
    """Restart stability: the digest layout may only change with KEY_SCHEMA.

    These constants were computed once from the documented layout
    (sorted-key JSON header + machine JSON + little-endian array bytes);
    any drift silently invalidates every persisted or remembered key.
    """
    batch = _pinned_batch()
    assert (
        request_key(GRID, batch, None, False)
        == "521fd86542fda6889cf90c70d188b2e18ee2ab8fdb81232d231acb6178f94c1a"
    )
    assert (
        request_key(GRID, batch, np.zeros(GRID.ost_count), False)
        == "580edbaecd7a6e00d8ed7f28d99b2f35d3e0c8fc0bff1d2afea120525987c5ee"
    )
    assert (
        request_key(GRID, batch, None, True)
        == "484f0e5717f8f80b396e6484e265b32112e2a5c52e654445e40e6ffb8e97e244"
    )


def test_request_key_identity_semantics():
    batch = _pinned_batch()
    base = request_key(GRID, batch, None, False)
    # Tags are caller metadata, not solve inputs: a tagged copy is the same cell.
    tagged = RequestBatch(batch.arrival, batch.ost, batch.nbytes, np.array([7, 8, 9]))
    assert request_key(GRID, tagged, None, False) == base
    # OST ids are normalised modulo the machine's OST count.
    shifted = RequestBatch(batch.arrival, batch.ost + GRID.ost_count, batch.nbytes)
    assert request_key(GRID, shifted, None, False) == base
    # ... but everything that reaches the arithmetic separates cells.
    other = RequestBatch(batch.arrival, batch.ost, batch.nbytes * 2)
    assert request_key(GRID, other, None, False) != base
    kraken = resolve_machine("kraken")
    assert request_key(kraken, batch, None, False) != base
    assert request_key(GRID, batch, None, True) != base
    # A None background is its own marker, not an implicit zero array.
    zeros = request_key(GRID, batch, np.zeros(GRID.ost_count), False)
    assert zeros != base


def test_request_key_memo_matches_fresh_digest():
    request = _random_request(11, 40)
    first = request.key()
    assert request.key() == first  # memoized path
    assert first == request_key(
        request.machine, request.batch, request.background, request.large_writes
    )


# ---------------------------------------------------------------------------
# Cache accounting
# ---------------------------------------------------------------------------


def test_cache_hit_miss_accounting_and_immutability():
    cache = SolveCache()
    assert cache.get("a") is None
    stored = cache.put("a", np.array([1.0, 2.0]))
    assert not stored.flags.writeable
    again = cache.put("a", np.array([9.0, 9.0]))  # idempotent re-put
    np.testing.assert_array_equal(again, [1.0, 2.0])
    np.testing.assert_array_equal(cache.get("a"), [1.0, 2.0])
    assert "a" in cache and "b" not in cache  # membership: no accounting
    stats = cache.stats
    assert (stats.hits, stats.misses, stats.entries) == (1, 1, 1)
    assert stats.lookups == 2 and stats.hit_rate == pytest.approx(0.5)


def test_service_accounting_separates_hits_coalesced_and_solves():
    requests = [_random_request(s, 30) for s in (1, 2, 3)]
    service = SolveService(workers=1)
    for request in requests + requests:  # same flush: 3 coalesced duplicates
        service.submit(request)
    first = service.flush()
    assert [r.cache_hit for r in first] == [False, False, False, True, True, True]
    for request in requests:  # second flush: all memoized
        service.submit(request)
    second = service.flush()
    assert all(r.cache_hit for r in second)
    stats = service.stats
    assert stats.submitted == stats.served == 9
    assert stats.solved == 3 and stats.coalesced == 3
    assert stats.hit_rate == pytest.approx(6 / 9)
    assert (stats.cache.hits, stats.cache.misses) == (3, 3)


# ---------------------------------------------------------------------------
# Bit-identity
# ---------------------------------------------------------------------------


@settings(**_SETTINGS)
@given(
    seed=seeds,
    n=st.integers(min_value=1, max_value=120),
    workers=st.sampled_from([1, 2, 4]),
)
def test_service_bit_identical_to_serial(seed, n, workers):
    """Any worker count yields the same bytes."""
    requests = [_random_request(seed + offset, n) for offset in range(4)]
    serial = [
        solve(r.machine, r.batch, background=r.background, large_writes=r.large_writes)
        for r in requests
    ]
    service = SolveService(workers=workers)
    # Reversed submission order: arrival order must not matter either.
    keys = [service.submit(r) for r in reversed(requests)]
    by_key = {response.key: response.done for response in service.flush()}
    for request, key, want in zip(reversed(requests), keys, reversed(serial), strict=True):
        np.testing.assert_array_equal(by_key[key], want)


def test_cached_responses_identical_to_uncached_across_worker_counts():
    requests = [_random_request(s, 80) for s in range(6)]
    reference = None
    for workers in (1, 2, 4):
        service = SolveService(workers=workers)
        for _ in range(2):  # second sweep served entirely from cache
            for request in requests:
                service.submit(request)
            done = [response.done for response in service.flush()]
            if reference is None:
                reference = done
            for got, want in zip(done, reference, strict=True):
                np.testing.assert_array_equal(got, want)
        assert service.stats.solved == len(requests)


def test_flush_interleaving_cannot_change_results():
    requests = [_random_request(s, 50) for s in range(5)]
    one_flush = SolveService(workers=2)
    for request in requests:
        one_flush.submit(request)
    together = {r.key: r.done for r in one_flush.flush()}
    per_request = SolveService(workers=2)
    for request in requests:
        response = per_request.solve(request)
        np.testing.assert_array_equal(response.done, together[response.key])


# ---------------------------------------------------------------------------
# Deterministic sharding + env knobs
# ---------------------------------------------------------------------------


def test_request_shard_is_pure_and_in_range():
    keys = [_random_request(s, 10).key() for s in range(12)]
    for workers in (1, 2, 3, 8):
        shards = [request_shard(key, workers) for key in keys]
        assert shards == [request_shard(key, workers) for key in keys]
        assert all(0 <= shard < workers for shard in shards)
    assert len({request_shard(key, 4) for key in keys}) > 1  # actually spreads
    with pytest.raises(ValueError, match="workers"):
        request_shard(keys[0], 0)


def test_active_serve_workers_names_env_var_on_bad_value():
    assert active_serve_workers({}) == 1
    assert active_serve_workers({SERVE_WORKERS_ENV: "3"}) == 3
    with pytest.raises(ValueError, match=r"REPRO_SERVE_WORKERS.*'many'"):
        active_serve_workers({SERVE_WORKERS_ENV: "many"})
    with pytest.raises(ValueError, match=r"REPRO_SERVE_WORKERS.*0"):
        active_serve_workers({SERVE_WORKERS_ENV: "0"})


def test_coalesce_groups_by_machine_and_write_class():
    kraken = resolve_machine("kraken")
    cells = []
    for index, (machine, large) in enumerate(
        [(GRID, False), (GRID, True), (kraken, False), (GRID, False)]
    ):
        request = SolveRequest(machine, _pinned_batch(), large_writes=large)
        cells.append((f"k{index}", request))
    buckets = coalesce(cells)
    assert [b.keys for b in buckets] == [("k0", "k3"), ("k1",), ("k2",)]
    assert [(b.machine is GRID, b.large_writes) for b in buckets] == [
        (True, False),
        (True, True),
        (False, False),
    ]


# ---------------------------------------------------------------------------
# Layering and the CLI subcommand.
# ---------------------------------------------------------------------------


def test_no_layer_below_the_service_imports_it():
    # A fresh interpreter: this test session has long since loaded the service.
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys, repro, repro.experiments, repro.stats, repro.scenario; "
        "print('repro.serve' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_serve_subcommand_compares_inline(capsys):
    from repro.cli import main

    code = main(
        ["serve", "--cells", "4", "--passes", "4", "--ranks", "24", "--compare-inline"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "bit-identical to inline solving" in out
    assert "requests_per_s" in out


# ---------------------------------------------------------------------------
# The CI smoke contract: ~100 overlapping requests, in-process.
# ---------------------------------------------------------------------------


def test_serve_smoke_overlapping_stream():
    stream = demo_stream("grid5000", cells=13, passes=8, ranks=48, seed=0)
    assert len(stream) == 104
    serial = [
        solve(r.machine, r.batch, background=r.background, large_writes=r.large_writes)
        for r in stream
    ]
    for workers in (1, 3):
        service = SolveService(workers=workers)
        for request in stream:
            service.submit(request)
        responses = service.flush()
        for response, want in zip(responses, serial, strict=True):
            np.testing.assert_array_equal(response.done, want)
        stats = service.stats
        assert stats.solved == 13
        assert stats.hit_rate > 0.8  # 7 of 8 passes served without a solver

"""Property-based tests for the arrival-process generators.

Hypothesis drives the process parameters and the rng seed; every sample
must satisfy the generator contract regardless of the draw:

* offsets are sorted (where the process promises order), finite,
  non-negative, and inside the process's horizon;
* the thinning sampler (burst) never emits duplicate arrival times;
* the empirical event rate of the Poisson/burst samples matches the
  process specification within statistical tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads import (
    BurstArrivals,
    Jittered,
    Periodic,
    PoissonArrivals,
)

#: Property tests share one profile: no deadline (CI machines stall), a
#: bounded example count so the tier-1 suite stays fast.
_SETTINGS = dict(deadline=None, max_examples=40)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
counts = st.integers(min_value=0, max_value=400)
periods = st.floats(min_value=1e-3, max_value=1e4, allow_nan=False, allow_infinity=False)


def _common_contract(out: np.ndarray, n: int, horizon: float) -> None:
    assert out.shape == (n,)
    assert np.all(np.isfinite(out))
    if n:
        assert out.min() >= 0.0
        assert out.max() <= horizon


@settings(**_SETTINGS)
@given(seed=seeds, n=counts, period=periods)
def test_periodic_always_zero(seed, n, period):
    out = Periodic().sample(np.random.default_rng(seed), n, period)
    _common_contract(out, n, 0.0 if n == 0 else period)
    assert not out.any()


@settings(**_SETTINGS)
@given(
    seed=seeds,
    n=counts,
    period=periods,
    spread=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_jittered_within_spread(seed, n, period, spread):
    out = Jittered(spread=spread).sample(np.random.default_rng(seed), n, period)
    _common_contract(out, n, spread * period)


@settings(**_SETTINGS)
@given(
    seed=seeds,
    n=counts,
    period=periods,
    window=st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
)
def test_poisson_sorted_within_window(seed, n, period, window):
    out = PoissonArrivals(window=window).sample(np.random.default_rng(seed), n, period)
    _common_contract(out, n, window * period)
    assert np.all(np.diff(out) >= 0.0)


@settings(**_SETTINGS)
@given(seed=seeds, n=st.integers(min_value=1, max_value=300), period=periods)
def test_burst_sorted_within_horizon_no_duplicates(seed, n, period):
    process = BurstArrivals()
    out = process.sample(np.random.default_rng(seed), n, period)
    _common_contract(out, n, process.window * period)
    assert np.all(np.diff(out) >= 0.0)
    # Thinning accepts a subset of distinct uniform candidates: emitting
    # the same arrival twice would mean a duplicated candidate.
    assert np.unique(out).size == out.size


@settings(deadline=None, max_examples=15)
@given(seed=seeds)
def test_poisson_empirical_rate_matches_spec(seed):
    # Conditioned on n events over [0, window * period), the empirical
    # rate in any fixed sub-interval must match n / horizon within
    # binomial tolerance (5 sigma, so the property cannot flake).
    n, period, window = 2000, 100.0, 0.5
    horizon = window * period
    out = PoissonArrivals(window=window).sample(np.random.default_rng(seed), n, period)
    in_first_half = float((out < horizon / 2).sum())
    expected = n / 2
    sigma = (n * 0.5 * 0.5) ** 0.5
    assert abs(in_first_half - expected) < 5 * sigma


@settings(deadline=None, max_examples=10)
@given(seed=seeds)
def test_burst_empirical_rate_matches_spec(seed):
    # The thinning sampler must reproduce the spec's rate ratio: the
    # expected share of arrivals inside the burst windows follows from
    # integrating the rate function over the horizon.
    process = BurstArrivals(window=0.5, bursts=2, burst_width=0.05, base_rate=1.0, burst_rate=25.0)
    n, period = 3000, 100.0
    horizon = process.window * period
    rng = np.random.default_rng(seed)
    centers = np.random.default_rng(seed).uniform(0.0, horizon, process.bursts)
    out = process.sample(rng, n, period)
    half = 0.5 * process.burst_width * horizon
    inside = (np.abs(out[:, None] - centers[None, :]) <= half).any(axis=1)
    # Burst coverage of the horizon (clipped at the edges, possibly
    # overlapping), integrated exactly on a fine grid.
    grid = np.linspace(0.0, horizon, 20001)
    grid_inside = (np.abs(grid[:, None] - centers[None, :]) <= half).any(axis=1)
    coverage = grid_inside.mean()
    burst_mass = coverage * process.burst_rate
    base_mass = (1 - coverage) * process.base_rate
    expected_share = burst_mass / (burst_mass + base_mass)
    share = inside.mean()
    sigma = (expected_share * (1 - expected_share) / n) ** 0.5
    assert abs(share - expected_share) < 6 * sigma + 1e-3, (share, expected_share)


@settings(**_SETTINGS)
@given(
    seed=seeds,
    n=st.integers(min_value=0, max_value=300),
    bursts=st.integers(min_value=1, max_value=6),
    burst_width=st.floats(min_value=1e-3, max_value=1.0, allow_nan=False),
    horizon=periods,
)
def test_burst_rate_matches_the_broadcast_formula(seed, n, bursts, burst_width, horizon):
    # _rate tests one burst at a time; the result must equal the 2-D
    # (n, bursts) formula bit for bit, for overlapping bursts (wide ones,
    # or centres drawn twice) and for points exactly at centre +- half.
    process = BurstArrivals(bursts=bursts, burst_width=burst_width)
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, horizon, bursts)
    centers[-1] = centers[0]
    half = 0.5 * burst_width * horizon
    edges = np.concatenate([centers - half, centers + half])
    t = np.concatenate([rng.uniform(0.0, horizon, n), edges, np.nextafter(edges, np.inf)])
    expected = np.where(
        (np.abs(t[:, None] - centers[None, :]) <= half).any(axis=1),
        process.burst_rate,
        process.base_rate,
    )
    assert np.array_equal(process._rate(t, horizon, centers), expected)


def test_burst_rejects_bad_parameters():
    with pytest.raises(ValueError):
        BurstArrivals(window=0.0)
    with pytest.raises(ValueError):
        BurstArrivals(bursts=0)
    with pytest.raises(ValueError):
        BurstArrivals(burst_width=0.0)

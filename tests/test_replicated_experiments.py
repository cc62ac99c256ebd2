"""Replication threading through the experiment layer.

``replications=1`` must be bit-identical to the historical single-run
tables; ``replications > 1`` must add the CI column family, stay
bit-identical under ``REPRO_JOBS`` process-pool partitioning, and keep
every replication independent of the others.
"""

import numpy as np
import pytest

from repro.experiments import (
    check_variability_statistics,
    run_app_interference,
    run_insitu_scaling,
    run_scheduling,
    run_spare_time,
    run_throughput,
    run_variability,
    run_weak_scaling,
)
from repro.experiments._driver import run_sweep
from repro.engine import KRAKEN
from repro.scenario import ScenarioConfig
from repro.util import MB

_KW = dict(ranks=192, iterations=3, data_per_rank=45 * MB, seed=7)

_CI_SUFFIXES = ("", "_std", "_cv", "_p95", "_ci_lo", "_ci_hi")


def _rows(table):
    return [row.as_dict() for row in table]


def test_variability_single_replication_is_the_historical_table():
    baseline = run_variability(**_KW, with_interference=True)
    replicated = run_variability(**_KW, with_interference=True, replications=1)
    assert _rows(baseline) == _rows(replicated)


def test_variability_replicated_emits_ci_columns():
    table = run_variability(**_KW, with_interference=True, replications=3)
    assert set(table.column("replications")) == {3}
    row = table.where(approach="damaris")[0]
    for suffix in _CI_SUFFIXES:
        assert f"io_mean_s{suffix}" in row, suffix
    assert row["io_mean_s_ci_lo"] <= row["io_mean_s"] <= row["io_mean_s_ci_hi"]
    assert "replication" not in row


def test_variability_replicated_is_deterministic_and_seed_sensitive():
    a = run_variability(**_KW, with_interference=True, replications=3)
    b = run_variability(**_KW, with_interference=True, replications=3)
    assert _rows(a) == _rows(b)
    c = run_variability(
        ranks=192,
        iterations=3,
        data_per_rank=45 * MB,
        seed=8,
        with_interference=True,
        replications=3,
    )
    assert _rows(a) != _rows(c)


def test_variability_batched_equals_serial_table():
    a = run_variability(**_KW, with_interference=True, replications=3, batched=True)
    b = run_variability(**_KW, with_interference=True, replications=3, batched=False)
    assert _rows(a) == _rows(b)


def test_variability_statistics_check_passes_at_30_replications():
    table = run_variability(
        ranks=576,
        iterations=3,
        data_per_rank=45 * MB,
        seed=0,
        with_interference=True,
        replications=30,
    )
    check_variability_statistics(table, min_replications=30)


def test_weak_scaling_replicated_sweep_bit_identical_across_jobs():
    kwargs = dict(
        scales=[144, 288],
        iterations=2,
        data_per_rank=45 * MB,
        seed=3,
        replications=3,
    )
    serial = run_weak_scaling(**kwargs, n_jobs=1)
    pooled = run_weak_scaling(**kwargs, n_jobs=4)
    assert _rows(serial) == _rows(pooled)
    row = serial.where(approach="damaris", ranks=288)[0]
    for suffix in _CI_SUFFIXES:
        assert f"io_phase_mean_s{suffix}" in row, suffix
    assert "speedup_vs_collective_ci_lo" in row


def test_weak_scaling_single_replication_unchanged():
    baseline = run_weak_scaling(scales=[144, 288], iterations=2, seed=3)
    replicated = run_weak_scaling(scales=[144, 288], iterations=2, seed=3, replications=1)
    assert _rows(baseline) == _rows(replicated)


def test_run_sweep_replicated_cells_independent_of_partitioning():
    kwargs = dict(
        machine=KRAKEN,
        scales=[144, 288],
        iterations=2,
        data_per_rank=45 * MB,
        seed=0,
        with_interference=True,
        replications=2,
    )
    serial = run_sweep(n_jobs=1, **kwargs)
    pooled = run_sweep(n_jobs=3, **kwargs)
    assert serial.keys() == pooled.keys()
    for key in serial:
        for rep_a, rep_b in zip(serial[key], pooled[key], strict=True):
            for a, b in zip(rep_a, rep_b, strict=True):
                np.testing.assert_array_equal(a.visible_times, b.visible_times)
                assert a.backend_wall_s == b.backend_wall_s


def test_throughput_replicated():
    baseline = run_throughput(**_KW)
    assert _rows(run_throughput(**_KW, replications=1)) == _rows(baseline)
    table = run_throughput(**_KW, replications=3)
    row = table.where(approach="damaris")[0]
    assert row["replications"] == 3
    assert "throughput_gb_s_ci_hi" in row


def test_spare_time_replicated():
    baseline = run_spare_time(scales=[144, 288], seed=2)
    assert _rows(run_spare_time(scales=[144, 288], seed=2, replications=1)) == _rows(baseline)
    table = run_spare_time(scales=[144, 288], seed=2, replications=3)
    row = table.where(ranks=288)[0]
    assert row["replications"] == 3
    assert "idle_fraction_ci_lo" in row
    # The idle claim itself must hold on the reduced means.
    assert 0.92 <= row["idle_fraction"] <= 0.999


def test_scheduling_replicated():
    kwargs = dict(ranks=2304, machine=KRAKEN.with_overrides(ost_count=96), seed=1)
    baseline = run_scheduling(**kwargs)
    assert _rows(run_scheduling(**kwargs, replications=1)) == _rows(baseline)
    table = run_scheduling(**kwargs, replications=3)
    scheduled = table.where(policy="scheduled")[0]
    assert scheduled["replications"] == 3
    assert "throughput_gb_s_ci_lo" in scheduled
    unscheduled = table.where(policy="unscheduled")[0]
    assert scheduled["throughput_gb_s"] > unscheduled["throughput_gb_s"]


def test_insitu_scaling_replicated():
    baseline = run_insitu_scaling(scales=(92, 184), seed=0)
    assert _rows(run_insitu_scaling(scales=(92, 184), seed=0, replications=1)) == _rows(baseline)
    table = run_insitu_scaling(scales=(92, 184), seed=0, replications=3)
    row = table.where(cores=184)[0]
    assert row["replications"] == 3
    assert "insitu_mean_s_ci_hi" in row


def test_app_interference_replicated_bit_identical_across_jobs():
    kwargs = dict(
        ranks=96,
        iterations=2,
        data_per_rank=8 * MB,
        compute_time=30.0,
        seed=5,
        intensities=("off", "heavy"),
        replications=2,
    )
    baseline = run_app_interference(
        ranks=96,
        iterations=2,
        data_per_rank=8 * MB,
        compute_time=30.0,
        seed=5,
        intensities=("off", "heavy"),
    )
    single = run_app_interference(
        ranks=96,
        iterations=2,
        data_per_rank=8 * MB,
        compute_time=30.0,
        seed=5,
        intensities=("off", "heavy"),
        replications=1,
    )
    assert _rows(baseline) == _rows(single)
    serial = run_app_interference(**kwargs, n_jobs=1)
    pooled = run_app_interference(**kwargs, n_jobs=4)
    assert _rows(serial) == _rows(pooled)
    row = serial.where(intensity="heavy", approach="damaris")[0]
    assert row["replications"] == 2
    assert "io_mean_s_ci_hi" in row


def test_every_runner_rejects_non_positive_replications():
    import pytest

    with pytest.raises(ValueError, match="replications"):
        run_variability(**_KW, replications=0)
    with pytest.raises(ValueError, match="replications"):
        run_throughput(**_KW, replications=0)
    with pytest.raises(ValueError, match="replications"):
        run_weak_scaling(scales=[144], replications=0)
    with pytest.raises(ValueError, match="replications"):
        run_spare_time(scales=[144], replications=0)
    with pytest.raises(ValueError, match="replications"):
        run_scheduling(ranks=2304, machine=KRAKEN.with_overrides(ost_count=96), replications=0)
    with pytest.raises(ValueError, match="replications"):
        run_insitu_scaling(scales=(92,), replications=0)
    with pytest.raises(ValueError, match="replications"):
        run_app_interference(ranks=96, replications=0)


# Each bad knob: how it is set, the call that reads it, and the name the
# error must carry.
_BAD_KNOBS = {
    "env-jobs-word": (
        {"REPRO_JOBS": "two"},
        lambda: run_weak_scaling(scales=[144], iterations=1),
        "REPRO_JOBS",
    ),
    "env-jobs-scenario": ({"REPRO_JOBS": "two"}, ScenarioConfig.from_env, "REPRO_JOBS"),
    "env-jobs-zero": ({"REPRO_JOBS": "0"}, ScenarioConfig.from_env, "REPRO_JOBS"),
    "env-replications-word": (
        {"REPRO_REPLICATIONS": "two"},
        ScenarioConfig.from_env,
        "REPRO_REPLICATIONS",
    ),
    "weak-scaling-negative-jobs": (
        {},
        lambda: run_weak_scaling(scales=[576, 1152], n_jobs=-3),
        "n_jobs",
    ),
    "app-interference-zero-jobs": (
        {},
        lambda: run_app_interference(ranks=96, iterations=1, n_jobs=0),
        "n_jobs",
    ),
}


@pytest.mark.parametrize("case", sorted(_BAD_KNOBS))
def test_bad_jobs_and_replication_knobs_name_the_knob(case, monkeypatch):
    env, call, name = _BAD_KNOBS[case]
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    with pytest.raises(ValueError, match=name):
        call()

"""Unit tests for the machine registry and the shipped platforms."""

import dataclasses

import pytest

from repro.engine import (
    EXASCALE,
    GRID5000,
    KRAKEN,
    Machine,
    machine_names,
    register_machine,
    resolve_machine,
)
from repro.experiments import run_throughput
from repro.util import GB, MB


def test_shipped_machines_registered():
    assert {"kraken", "grid5000", "exascale"} <= set(machine_names())
    assert resolve_machine("grid5000") is GRID5000
    assert resolve_machine("EXASCALE") is EXASCALE


def test_machines_have_distinct_shapes():
    assert GRID5000.cores_per_node < KRAKEN.cores_per_node < EXASCALE.cores_per_node
    assert GRID5000.peak_bandwidth < KRAKEN.peak_bandwidth < EXASCALE.peak_bandwidth


def test_register_machine_rejects_duplicates():
    with pytest.raises(ValueError):
        register_machine(KRAKEN.with_overrides())
    # Same name via a modified copy is also rejected without replace_existing.
    with pytest.raises(ValueError):
        register_machine(KRAKEN.with_overrides(ost_count=1))


def test_register_custom_machine_resolves_by_name():
    toy = Machine(
        name="toy-cluster",
        cores_per_node=4,
        ost_count=8,
        ost_bandwidth=50 * MB,
        shm_bandwidth=1 * GB,
        metadata_rate=100.0,
        collective_bandwidth=0.2 * GB,
    )
    try:
        register_machine(toy)
        assert resolve_machine("toy-cluster") is toy
        register_machine(toy.with_overrides(ost_count=16), replace_existing=True)
        assert resolve_machine("toy-cluster").ost_count == 16
    finally:
        from repro.engine.machines import _MACHINES

        _MACHINES.pop("toy-cluster", None)


def test_experiments_run_on_alternate_machines():
    """New platforms are one string away for any experiment runner."""
    for machine in ("grid5000", "exascale"):
        table = run_throughput(ranks=192, machine=machine, iterations=1)
        assert len(table) == 3
        assert all(row["throughput_gb_s"] > 0 for row in table)


def test_machine_has_nic_bandwidth():
    assert KRAKEN.nic_bandwidth > 0
    assert EXASCALE.nic_bandwidth > KRAKEN.nic_bandwidth


def test_kraken_constants():
    assert KRAKEN.cores_per_node == 12
    assert KRAKEN.ost_count == 336
    assert KRAKEN.peak_bandwidth == pytest.approx(336 * 90 * MB)


def test_with_overrides_returns_new_machine():
    small = KRAKEN.with_overrides(ost_count=96)
    assert small.ost_count == 96
    assert small.cores_per_node == KRAKEN.cores_per_node
    assert KRAKEN.ost_count == 336  # original untouched
    assert isinstance(small, Machine)


def test_with_overrides_rejects_unknown_fields():
    with pytest.raises(TypeError):
        KRAKEN.with_overrides(not_a_field=1)


def test_machine_is_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        KRAKEN.ost_count = 1  # type: ignore[misc]


def test_resolve_machine_by_name_and_instance():
    assert resolve_machine("kraken") is KRAKEN
    assert resolve_machine("KRAKEN") is KRAKEN
    assert resolve_machine(KRAKEN) is KRAKEN
    with pytest.raises(ValueError):
        resolve_machine("summit")


def test_nodes_for():
    assert KRAKEN.nodes_for(576) == 48
    assert KRAKEN.nodes_for(5) == 1


def test_seek_penalty_shape():
    assert KRAKEN.seek_penalty(1, large_writes=False) == pytest.approx(1.0)
    small = KRAKEN.seek_penalty(4, large_writes=False)
    large = KRAKEN.seek_penalty(4, large_writes=True)
    assert small > large > 1.0
    # Saturates instead of growing without bound.
    assert KRAKEN.seek_penalty(1000, large_writes=False) == KRAKEN.seek_penalty(
        500, large_writes=False
    )

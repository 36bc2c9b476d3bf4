"""Tests for per-phase latency breakdowns on the update path."""

import pytest

from repro.core.config import StoreConfig
from repro.core.logecmem import LogECMem
from tests.helpers import phase_seconds

UPDATE_PHASES = {"client_hop", "read_old_xor", "encode_delta", "ship_delta", "log_ack"}


def _loaded(n=24):
    store = LogECMem(StoreConfig(k=4, r=3, payload_scale=1 / 16))
    for i in range(n):
        store.write(f"user{i}")
    store.tracer.drain()  # keep load-phase writes out of the aggregates
    return store


def test_update_carries_breakdown():
    store = _loaded()
    res = store.update("user3")
    parts = phase_seconds(store.tracer.last)
    assert set(parts) == UPDATE_PHASES
    assert sum(parts.values()) == pytest.approx(res.latency_s)
    assert all(v >= 0 for v in parts.values())


def test_network_phases_dominate_update_latency():
    """The paper's point: updates are I/O-path-bound -- the sequential reads
    (old data + XOR parity) and the fan-out writes dwarf the compute."""
    store = _loaded()
    for i in range(12):
        store.update(f"user{i}")
    means = store.metrics.phase_breakdown("update")
    shares = {phase: s / sum(means.values()) for phase, s in means.items()}
    assert shares["read_old_xor"] + shares["ship_delta"] > 0.8
    assert shares["read_old_xor"] > 10 * shares["encode_delta"]
    assert sum(shares.values()) == pytest.approx(1.0)


def test_no_stall_on_healthy_disk():
    store = _loaded()
    store.update("user3")
    assert phase_seconds(store.tracer.last)["log_ack"] == 0.0

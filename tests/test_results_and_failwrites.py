"""Tests for writes under node failures."""

import numpy as np
import pytest

from repro.core.config import StoreConfig
from repro.core.logecmem import LogECMem
from repro.core.scrub import scrub


# --------------------------------------------------------- writes under fail


def _loaded(n=16):
    store = LogECMem(StoreConfig(k=4, r=3, payload_scale=1 / 16))
    for i in range(n):
        store.write(f"user{i}")
    return store


def test_writes_buffer_while_placement_impossible():
    """k+1 DRAM nodes with one dead cannot place a new stripe: writes keep
    succeeding, objects wait in the (replicated) proxy buffers."""
    store = _loaded()
    sealed_before = len(store.stripe_index)
    store.cluster.kill("dram0")
    for i in range(16, 56):
        store.write(f"user{i}")
    assert len(store.stripe_index) == sealed_before  # nothing placeable sealed
    assert len(store._pending) >= 40
    assert scrub(store).clean


def test_reads_of_new_writes_during_failure():
    store = _loaded()
    store.cluster.kill("dram1")
    for i in range(16, 40):
        store.write(f"user{i}")
    for i in range(16, 40):
        key = f"user{i}"
        assert np.array_equal(store.read(key).value, store.expected_value(key))


def test_sealing_resumes_after_restore():
    store = _loaded(n=4)
    store.cluster.kill("dram2")
    before = len(store.stripe_index)
    for i in range(4, 24):
        store.write(f"user{i}")
    during = len(store.stripe_index)
    store.cluster.restore("dram2")
    for i in range(24, 40):
        store.write(f"user{i}")
    assert len(store.stripe_index) > during >= before
    assert scrub(store).clean


def test_all_dram_dead_rejects_writes():
    store = _loaded(n=4)
    for nid in store.cluster.dram_ids():
        store.cluster.kill(nid)
    with pytest.raises(RuntimeError):
        store.write("newkey")


def test_log_node_failure_blocks_new_stripes_gracefully():
    store = _loaded()
    sealed_before = len(store.stripe_index)
    for nid in store.cluster.log_ids():
        store.cluster.kill(nid)
    for i in range(16, 40):
        store.write(f"user{i}")  # must not raise
    assert len(store.stripe_index) == sealed_before
    store.cluster.restore("log0")
    for i in range(40, 60):
        store.write(f"user{i}")
    assert len(store.stripe_index) > sealed_before  # sealing resumed
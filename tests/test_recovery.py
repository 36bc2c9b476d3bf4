"""Tests for log-node crash consistency (§3.3.2)."""

import numpy as np
import pytest

from repro.core.config import StoreConfig
from repro.core.logecmem import LogECMem
from repro.core.recovery import crash_log_node, recover_log_node
from repro.core.scrub import scrub


def _cfg(**kw):
    defaults = dict(k=4, r=3, value_size=4096, payload_scale=1 / 16)
    defaults.update(kw)
    return StoreConfig(**defaults)


def _loaded(n=24, updates=8):
    store = LogECMem(_cfg())
    for i in range(n):
        store.write(f"user{i}")
    for i in range(updates):
        store.update(f"user{i % n}")
    return store


def test_crash_drops_buffered_records():
    store = _loaded()
    node = store.cluster.log_nodes["log0"]
    assert len(node.buffer) > 0
    lost = crash_log_node(node)
    assert lost > 0
    assert len(node.buffer) == 0


def test_crash_makes_logged_parities_stale():
    """Losing unflushed deltas leaves disk state valid but behind DRAM."""
    store = _loaded()
    for node in store.cluster.log_nodes.values():
        crash_log_node(node)
    report = scrub(store)
    assert not report.clean  # some logged parities are stale now


def test_recovery_restores_consistency():
    store = _loaded()
    lost = 0
    for node in store.cluster.log_nodes.values():
        lost += crash_log_node(node)
    for node_id in store.cluster.log_ids():
        report = recover_log_node(store, node_id, lost_records=lost)
        assert report.parities_rebuilt > 0
        assert report.duration_s > 0
        assert report.chunk_reads == report.parities_rebuilt * store.cfg.k
    assert scrub(store).clean


def test_recovery_supersedes_stale_deltas():
    """After recovery a repair reads one clean base chunk, no delta chain."""
    store = _loaded()
    store.finalize()  # deltas reach disk
    node_id = store.cluster.log_ids()[0]
    node = store.cluster.log_nodes[node_id]
    crash_log_node(node)
    recover_log_node(store, node_id)
    for (_sid, _j), region in node.scheme.regions.items():
        assert region.base is not None
        assert region.deltas == []


def test_recovered_node_supports_multifailure_repair():
    store = _loaded()
    for node_id in store.cluster.log_ids():
        crash_log_node(store.cluster.log_nodes[node_id])
        recover_log_node(store, node_id)
    store.cluster.kill("dram0")
    store.cluster.kill("dram1")
    for i in range(24):
        key = f"user{i}"
        res = store.read(key)
        assert np.array_equal(res.value, store.expected_value(key)), key


def test_updates_after_recovery_stay_consistent():
    store = _loaded()
    node_id = store.cluster.log_ids()[0]
    crash_log_node(store.cluster.log_nodes[node_id])
    recover_log_node(store, node_id)
    for i in range(6):
        store.update(f"user{i}")
    store.finalize()
    assert scrub(store).clean


def test_recover_unknown_node_raises():
    store = _loaded()
    with pytest.raises(KeyError):
        recover_log_node(store, "dram0")

"""Degraded reads (single + multi failure) and node repair (§5)."""

import numpy as np
import pytest

from repro.core.config import StoreConfig
from repro.core.interface import DataLossError
from repro.core.logecmem import LogECMem
from repro.core.repair import repair_node


def _cfg(**kw):
    defaults = dict(k=4, r=3, value_size=4096, payload_scale=1 / 16)
    defaults.update(kw)
    return StoreConfig(**defaults)


def _loaded(cfg=None, n=32, updates=()):
    store = LogECMem(cfg or _cfg())
    for i in range(n):
        store.write(f"user{i}")
    for key in updates:
        store.update(key)
    return store


# --------------------------------------------------------- degraded: single


def test_forced_degraded_read_matches_value():
    store = _loaded()
    res = store.degraded_read("user3")
    assert res.degraded
    assert np.array_equal(res.value, store.expected_value("user3"))


def test_degraded_read_after_updates():
    store = _loaded(updates=["user3", "user3", "user5"])
    for key in ("user3", "user5"):
        res = store.degraded_read(key)
        assert np.array_equal(res.value, store.expected_value(key))


def test_read_autofails_over_to_degraded():
    store = _loaded()
    loc = store.object_index.lookup("user3")
    node = store.stripe_index.get(loc.stripe_id).chunk_nodes[loc.seq_no]
    store.cluster.kill(node)
    res = store.read("user3")
    assert res.degraded
    assert np.array_equal(res.value, store.expected_value("user3"))


def test_degraded_read_slower_than_read():
    store = _loaded()
    assert store.degraded_read("user3").latency_s > store.read("user3").latency_s


def test_single_failure_repair_stays_in_dram():
    """§3.3.1: single failures never touch log-node disks."""
    store = _loaded(updates=["user3"])
    store.finalize()
    reads_before = store.cluster.disk_stats().reads
    store.degraded_read("user3")
    assert store.cluster.disk_stats().reads == reads_before
    assert store.counters["logged_parity_reads"] == 0


# ---------------------------------------------------------- degraded: multi


def test_two_node_failure_uses_logged_parity():
    store = _loaded(updates=["user3", "user7", "user3"])
    store.cluster.kill("dram0")
    store.cluster.kill("dram1")
    # find an object on a dead node
    key = next(
        k
        for k in (f"user{i}" for i in range(32))
        if store.object_index.get(k)
        and store.stripe_index.get(store.object_index.lookup(k).stripe_id).chunk_nodes[
            store.object_index.lookup(k).seq_no
        ]
        in ("dram0", "dram1")
    )
    res = store.read(key)
    assert res.degraded
    assert np.array_equal(res.value, store.expected_value(key))
    assert store.counters["logged_parity_reads"] >= 1
    assert store.counters["multi_failure_repairs"] >= 1


def test_r_failures_still_recoverable():
    """(k, r) tolerates r lost chunks: kill 2 DRAM nodes + 1 log node."""
    store = _loaded(updates=["user3"])
    store.cluster.kill("dram0")
    store.cluster.kill("dram1")
    store.cluster.kill("log0")
    for i in range(8):
        key = f"user{i}"
        res = store.read(key)
        assert np.array_equal(res.value, store.expected_value(key)), key


def test_too_many_failures_is_data_loss():
    store = _loaded()
    for nid in ("dram0", "dram1", "dram2"):
        store.cluster.kill(nid)
    for nid in store.cluster.log_ids():
        store.cluster.kill(nid)
    # some object on a dead node can no longer gather k chunks
    with pytest.raises(DataLossError):
        for i in range(32):
            store.degraded_read(f"user{i}")


def test_multi_failure_latency_exceeds_single():
    store = _loaded(updates=["user3"])
    single = store.degraded_read("user3").latency_s
    store.cluster.kill("dram0")
    store.cluster.kill("dram1")
    key = next(
        k
        for k in (f"user{i}" for i in range(32))
        if store.stripe_index.get(store.object_index.lookup(k).stripe_id).chunk_nodes[
            store.object_index.lookup(k).seq_no
        ]
        in ("dram0", "dram1")
    )
    multi = store.read(key).latency_s
    assert multi > single  # disk-resident parity costs more than DRAM chunks


# -------------------------------------------------------------- node repair


def test_repair_requires_failed_node():
    store = _loaded()
    with pytest.raises(ValueError):
        repair_node(store, "dram0")
    with pytest.raises(KeyError):
        repair_node(store, "not-a-node")


def test_repair_covers_all_stripes_of_node():
    store = _loaded(n=64)
    store.cluster.kill("dram2")
    result = repair_node(store, "dram2", log_assist=True)
    assert result.stripes_repaired == len(store.stripe_index.stripes_on_node("dram2"))
    assert result.chunks_repaired >= result.stripes_repaired
    assert result.bytes_repaired == result.chunks_repaired * store.cfg.chunk_size


def test_log_assist_speeds_up_repair():
    store_a = _loaded(n=64)
    store_b = _loaded(n=64)
    store_a.cluster.kill("dram1")
    store_b.cluster.kill("dram1")
    plain = repair_node(store_a, "dram1", log_assist=False)
    assisted = repair_node(store_b, "dram1", log_assist=True)
    assert assisted.repair_time_s < plain.repair_time_s
    assert assisted.log_assisted_stripes > 0
    assert plain.log_assisted_stripes == 0
    assert assisted.throughput_GiB_per_min > plain.throughput_GiB_per_min


def test_log_assist_gain_decreases_with_k():
    """Figure 15's trend: the ~k/(k-1) gain shrinks as k grows."""
    gains = []
    for k in (4, 8):
        plain_t, assist_t = [], []
        for assist in (False, True):
            store = LogECMem(
                StoreConfig(k=k, r=3, value_size=4096, payload_scale=1 / 16)
            )
            for i in range(8 * k):
                store.write(f"user{i}")
            store.cluster.kill("dram0")
            res = repair_node(store, "dram0", log_assist=assist)
            (assist_t if assist else plain_t).append(res.repair_time_s)
        gains.append((plain_t[0] - assist_t[0]) / plain_t[0])
    assert gains[0] > gains[1] > 0


def test_repair_prepair_fits_detection_window():
    store = _loaded(n=64, updates=["user3"] * 4)
    store.cluster.kill("dram1")
    result = repair_node(store, "dram1", log_assist=True)
    assert result.log_prepair_s < result.detection_window_s



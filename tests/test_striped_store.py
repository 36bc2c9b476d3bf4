"""Tests for the shared striped-store machinery (write path, sealing,
placement invariants, reads) through LogECMem and IPMem instances."""

import numpy as np
import pytest

from repro.baselines.ipmem import IPMem
from repro.core.config import StoreConfig
from repro.core.logecmem import LogECMem
from repro.kvstore.chunk import Chunk


def _cfg(**kw):
    defaults = dict(k=4, r=3, value_size=4096, payload_scale=1 / 16)
    defaults.update(kw)
    return StoreConfig(**defaults)


def _load(store, n):
    for i in range(n):
        store.write(f"user{i}")
    return store


# -------------------------------------------------------------- write + seal


def test_object_conservation_across_sealing():
    """Every written object is either in a sealed stripe or pending."""
    store = _load(LogECMem(_cfg()), 20)
    sealed = store.cfg.k * len(store.stripe_index)
    assert sealed + len(store._pending) == 20
    assert len(store.stripe_index) >= 2  # hashing is uneven but not starved


def test_more_writes_seal_more_stripes():
    a = _load(LogECMem(_cfg()), 12)
    b = _load(LogECMem(_cfg()), 48)
    assert len(b.stripe_index) > len(a.stripe_index)
    assert len(b._pending) < 48 - 12  # pendings don't accumulate unboundedly


def test_duplicate_write_rejected():
    store = _load(LogECMem(_cfg()), 1)
    with pytest.raises(KeyError):
        store.write("user0")


def test_stripe_chunks_on_distinct_nodes():
    """Fault tolerance: no two chunks of a stripe on one DRAM node."""
    store = _load(LogECMem(_cfg()), 40)
    for sid in store.stripe_index.stripe_ids():
        rec = store.stripe_index.get(sid)
        dram_chunk_nodes = rec.chunk_nodes[: store.cfg.k + 1]
        assert len(set(dram_chunk_nodes)) == store.cfg.k + 1


def test_logecmem_node_layout():
    store = LogECMem(_cfg())
    assert len(store.cluster.dram_nodes) == store.cfg.k + 1
    assert len(store.cluster.log_nodes) == store.cfg.r - 1


def test_ipmem_node_layout():
    store = IPMem(_cfg())
    assert len(store.cluster.dram_nodes) == store.cfg.n
    assert len(store.cluster.log_nodes) == 0


def test_logecmem_logged_parities_on_log_nodes():
    store = _load(LogECMem(_cfg()), 16)
    for sid in store.stripe_index.stripe_ids():
        rec = store.stripe_index.get(sid)
        assert rec.xor_parity_node() in store.cluster.dram_nodes
        for nid in rec.chunk_nodes[rec.k + 1 :]:
            assert nid in store.cluster.log_nodes


def test_parity_consistency_after_load():
    store = _load(LogECMem(_cfg()), 16)
    for sid in store.stripe_index.stripe_ids():
        assert store.verify_stripe(sid)
        data = np.stack(
            [store.data_chunks[(sid, i)].buffer for i in range(store.cfg.k)]
        )
        expect = store.code.encode(data)
        assert np.array_equal(store.parity_chunks[(sid, 0)], expect[0])
        for j in range(1, store.cfg.r):
            assert np.array_equal(store.uptodate_logged_parity(sid, j), expect[j])


def test_memory_accounting_logecmem():
    """DRAM = objects + one XOR parity chunk per stripe (the (k+1)/k factor)."""
    store = _load(LogECMem(_cfg()), 16)
    cfg = store.cfg
    expected_values = 16 * cfg.value_size + len(store.stripe_index) * cfg.chunk_size
    # plus per-item key+header overhead
    assert store.memory_logical_bytes > expected_values
    assert store.memory_logical_bytes < expected_values * 1.1


def test_memory_accounting_ipmem_includes_all_parities():
    lec = _load(LogECMem(_cfg()), 16)
    ip = _load(IPMem(_cfg()), 16)
    assert ip.memory_logical_bytes > lec.memory_logical_bytes


# ---------------------------------------------------------------------- read


def test_read_returns_written_bytes():
    store = _load(LogECMem(_cfg()), 16)
    for key in ("user0", "user7", "user15"):
        res = store.read(key)
        assert np.array_equal(res.value, store.expected_value(key))
        assert not res.degraded


def test_read_pending_object():
    store = _load(LogECMem(_cfg()), 2)  # stripe not sealed
    res = store.read("user1")
    assert np.array_equal(res.value, store.expected_value("user1"))


def test_read_missing_key_raises():
    store = LogECMem(_cfg())
    with pytest.raises(KeyError):
        store.read("ghost")


def test_read_latency_positive_and_stable():
    store = _load(LogECMem(_cfg()), 16)
    lat = [store.read("user3").latency_s for _ in range(3)]
    assert all(x > 0 for x in lat)
    assert lat[0] == lat[1] == lat[2]  # deterministic cost model


# -------------------------------------------------------------------- delete


def test_delete_tombstones_object():
    store = _load(LogECMem(_cfg()), 16)
    store.delete("user5")
    with pytest.raises(KeyError):
        store.read("user5")
    with pytest.raises(KeyError):
        store.update("user5")
    # stripe parities stay consistent with the zeroed value
    sid = store.object_index.lookup("user5").stripe_id
    assert store.verify_stripe(sid)


def test_update_missing_key_raises():
    store = LogECMem(_cfg())
    with pytest.raises(KeyError):
        store.update("ghost")


# ------------------------------------------------------------------ packing


def _sealed_keys(store, count=1):
    """Keys whose stripes have sealed (safe for update/degraded tests)."""
    out = []
    for sid in sorted(store.stripe_index.stripe_ids()):
        for keys in store.stripe_index.get(sid).chunk_keys:
            out.extend(keys)
            if len(out) >= count:
                return out[:count]
    raise AssertionError("no sealed stripes yet")


def test_small_objects_pack_into_chunks():
    """§4.1: multiple small objects share one 4 KiB unit."""
    cfg = StoreConfig(k=4, r=3, value_size=1024, chunk_size=4096, payload_scale=1 / 16)
    store = _load(LogECMem(cfg), 64)  # 4 objects per unit
    assert len(store.stripe_index) >= 2
    sealed_objects = sum(
        len(keys)
        for sid in store.stripe_index.stripe_ids()
        for keys in store.stripe_index.get(sid).chunk_keys
    )
    assert sealed_objects + len(store._pending) == 64
    key = _sealed_keys(store)[0]
    rec = store.stripe_index.get(store.object_index.lookup(key).stripe_id)
    assert any(len(keys) == 4 for keys in rec.chunk_keys)
    res = store.read(key)
    assert np.array_equal(res.value, store.expected_value(key))


@pytest.mark.parametrize(
    "value_size, chunk_size, payload_scale",
    [
        (4096, 4096, 1 / 16), (1024, 4096, 1 / 16), (1000, 4096, 1 / 16),
        (1100, 4096, 1 / 16), (1060, 4096, 0.01), (1050, 4096, 0.01),
        (7, 4096, 0.01), (100, 4096, 1.0), (3000, 4096, 1.0), (16384, 16384, 1.0),
    ],
)
def test_unit_capacity_is_what_append_allows(value_size, chunk_size, payload_scale):
    """A unit leaves the open slot after ``_unit_objects`` appends: exactly
    when ``Chunk.append`` would first refuse one more object."""
    cfg = StoreConfig(
        k=4, r=3, value_size=value_size, chunk_size=chunk_size, payload_scale=payload_scale
    )
    store = IPMem(cfg)
    unit = Chunk(chunk_size, payload_scale)
    value = np.zeros(store._value_phys_len, dtype=np.uint8)
    packed = 0
    with pytest.raises(ValueError, match="does not fit"):
        while True:
            unit.append(f"k{packed}", value_size, value)
            packed += 1
    assert packed == store._unit_objects >= 1


def test_packed_object_update_keeps_stripe_consistent():
    cfg = StoreConfig(k=4, r=3, value_size=1024, chunk_size=4096, payload_scale=1 / 16)
    store = _load(LogECMem(cfg), 64)
    key = _sealed_keys(store)[0]
    store.update(key)
    store.update(key)
    sid = store.object_index.lookup(key).stripe_id
    assert store.verify_stripe(sid)
    for j in range(1, 3):
        data = np.stack([store.data_chunks[(sid, i)].buffer for i in range(4)])
        assert np.array_equal(
            store.uptodate_logged_parity(sid, j), store.code.encode(data)[j]
        )

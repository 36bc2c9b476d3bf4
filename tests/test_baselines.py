"""Tests for the four baseline stores (§6.1)."""

import numpy as np
import pytest

from repro.baselines import FSMem, IPMem, ReplicatedStore, VanillaMemcached, make_store
from repro.core.config import StoreConfig
from repro.core.interface import DataLossError
from repro.kvstore.chunk import make_value
from repro.sim.network import LinkDownError


def _cfg(**kw):
    defaults = dict(k=4, r=3, value_size=4096, payload_scale=1 / 16)
    defaults.update(kw)
    return StoreConfig(**defaults)


def _load(store, n=32):
    for i in range(n):
        store.write(f"user{i}")
    return store


def test_make_store_registry():
    for name in ("vanilla", "replication", "ipmem", "fsmem", "logecmem"):
        assert make_store(name, _cfg()).name == name
    with pytest.raises(ValueError):
        make_store("bogus", _cfg())


# ------------------------------------------------------------------- vanilla


#: vanilla is replication at one copy: one class, two copy counts
REPLICATED = [VanillaMemcached, ReplicatedStore]


@pytest.mark.parametrize("cls", REPLICATED)
def test_replicated_roundtrip(cls):
    s = _load(cls(_cfg()))
    assert np.array_equal(s.read("user3").value, s.expected_value("user3"))
    s.update("user3")
    assert np.array_equal(s.read("user3").value, s.expected_value("user3"))
    s.delete("user3")
    with pytest.raises(KeyError):
        s.read("user3")


def test_vanilla_has_no_degraded_path():
    s = _load(VanillaMemcached(_cfg()))
    with pytest.raises(DataLossError):
        s.degraded_read("user3")


def test_vanilla_loses_data_on_failure():
    s = _load(VanillaMemcached(_cfg()))
    s.cluster.kill(s.placement["user3"][0])
    with pytest.raises(DataLossError):
        s.read("user3")


def test_vanilla_read_of_a_partitioned_node_is_data_loss():
    """A partitioned node holds the only copy, so the read has nowhere else
    to go: it raises DataLossError, like a crashed node."""
    s = _load(VanillaMemcached(_cfg()))
    s.net.set_link_down(s.placement["user3"][0])
    with pytest.raises(DataLossError):
        s.read("user3")


def test_vanilla_degraded_read_charges_a_failed_attempt_before_data_loss():
    """The one-copy degraded read is replication's with no replica left: a
    client hop and one failed attempt, then DataLossError."""
    s = _load(VanillaMemcached(_cfg()))
    before = s.counters["net_rpcs"]
    with pytest.raises(DataLossError):
        s.degraded_read("user3")
    assert s.counters["net_rpcs"] - before == 2  # the client hop + the failed attempt
    assert "op_degraded_read" not in s.counters.as_dict()


#: a fixed op sequence on vanilla and what it must cost, bit for bit
VANILLA_SEQUENCE = [
    ("write", "user0"), ("write", "user1"), ("write", "user2"), ("read", "user1"),
    ("update", "user1"), ("read", "user1"), ("delete", "user2"), ("write", "user2"),
    ("update", "user0"), ("read", "user2"),
]
VANILLA_LATENCIES = [
    0.000186512, 0.000186512, 0.000186512, 0.00018664000000000002,
    0.000186512, 0.00018664000000000002, 0.000170256, 0.000186512,
    0.000186512, 0.00018664000000000002,
]
VANILLA_COUNTERS = {
    "net_bytes": 75072.0, "net_messages": 40.0, "net_rpcs": 20.0,
    "op_delete": 1.0, "op_read": 3.0, "op_update": 2.0, "op_write": 4.0,
}


def test_vanilla_op_path_is_pinned():
    s = make_store("vanilla", _cfg())
    assert [getattr(s, op)(key).latency_s for op, key in VANILLA_SEQUENCE] == VANILLA_LATENCIES
    counters = {
        name: value
        for name, value in s.counters.as_dict().items()
        if name.startswith(("net_", "op_"))
    }
    assert counters == VANILLA_COUNTERS
    assert s.memory_logical_bytes == 12471
    holders = {
        key: [nid for nid, node in s.cluster.dram_nodes.items() if key in node.table]
        for key in ("user0", "user1", "user2")
    }
    assert holders == {"user0": ["dram2"], "user1": ["dram0"], "user2": ["dram5"]}


@pytest.mark.parametrize("cls", REPLICATED)
def test_replicated_duplicate_and_missing_keys(cls):
    s = _load(cls(_cfg()), n=2)
    with pytest.raises(KeyError):
        s.write("user0")
    with pytest.raises(KeyError):
        s.update("ghost")
    with pytest.raises(KeyError):
        s.delete("ghost")


# --------------------------------------------------------------- replication


def test_replication_stores_r_plus_1_copies():
    cfg = _cfg()
    s = _load(ReplicatedStore(cfg))
    v = VanillaMemcached(_cfg())
    _load(v)
    ratio = s.memory_logical_bytes / v.memory_logical_bytes
    assert ratio == pytest.approx(cfg.r + 1, rel=0.01)


def test_replication_survives_r_failures():
    s = _load(ReplicatedStore(_cfg()))
    nodes = s.placement["user3"]
    for nid in nodes[:3]:  # kill r = 3 of the 4 replicas
        s.cluster.kill(nid)
    res = s.read("user3")
    assert res.degraded
    assert np.array_equal(res.value, s.expected_value("user3"))


def test_replication_all_replicas_down_is_loss():
    s = _load(ReplicatedStore(_cfg()))
    for nid in s.placement["user3"]:
        s.cluster.kill(nid)
    with pytest.raises(DataLossError):
        s.read("user3")


def test_replication_degraded_read_is_cheap():
    """The paper: degraded read = read another replica, no decoding."""
    s = _load(ReplicatedStore(_cfg()))
    normal = s.read("user3").latency_s
    degraded = s.degraded_read("user3").latency_s
    assert degraded < 2.5 * normal


def test_replication_write_slower_than_vanilla():
    rep = ReplicatedStore(_cfg())
    van = VanillaMemcached(_cfg())
    assert rep.write("k").latency_s > van.write("k").latency_s


def test_replication_copy_count_tracks_r():
    for r in (2, 3, 4):
        s = ReplicatedStore(StoreConfig(k=4, r=r))
        assert s.copies == r + 1


# ------------------------------------- the byte-holding baselines (ISSUE 16)

@pytest.mark.parametrize("cls", REPLICATED)
def test_baseline_read_returns_what_was_written(cls):
    """The stored copy and the (key, version) oracle are independent: they
    must agree after every write, update and delete-then-rewrite."""
    s = _load(cls(_cfg()))
    v0 = s.read("user3").value
    assert np.array_equal(v0, make_value("user3", 0, 256))
    s.update("user3")
    v1 = s.read("user3").value
    assert np.array_equal(v1, make_value("user3", 1, 256))
    assert not np.array_equal(v0, v1)
    s.delete("user3")
    assert "user3" not in s.values
    s.write("user3")
    assert np.array_equal(s.read("user3").value, make_value("user3", 0, 256))
    assert np.array_equal(s.read("user3").value, s.expected_value("user3"))


@pytest.mark.parametrize("cls", REPLICATED)
def test_baseline_read_returns_a_copy(cls):
    s = _load(cls(_cfg()))
    first = s.read("user3").value
    first[:] = 0
    assert np.array_equal(s.read("user3").value, s.expected_value("user3"))


def test_baseline_read_is_not_the_oracle_reading_itself():
    """Corrupt the stored bytes: read must return them, and so disagree with
    expected_value -- the check the benchmark's CheckedStore relies on."""
    s = _load(VanillaMemcached(_cfg()))
    s.values["user3"][0] ^= 0xFF
    assert not np.array_equal(s.read("user3").value, s.expected_value("user3"))


def test_replication_degraded_read_returns_stored_bytes():
    s = _load(ReplicatedStore(_cfg()))
    s.update("user3")
    res = s.degraded_read("user3")
    assert res.degraded
    assert np.array_equal(res.value, make_value("user3", 1, 256))
    res.value[:] = 0
    assert np.array_equal(s.degraded_read("user3").value, s.expected_value("user3"))


@pytest.mark.parametrize("cls", REPLICATED)
@pytest.mark.parametrize("op", ["update", "delete"])
def test_baseline_failed_put_leaves_the_object_as_it_was(cls, op):
    """Regression: update/delete advanced ``versions`` (and the memtables)
    before ``parallel_puts`` could raise LinkDownError, so a failed op still
    moved the store."""
    s = _load(cls(_cfg()))
    before = s.read("user3").value
    memory = s.memory_logical_bytes
    placement = s.placement["user3"]
    node = placement if isinstance(placement, str) else placement[-1]
    s.net.set_link_down(node)
    with pytest.raises(LinkDownError):
        getattr(s, op)("user3")
    s.net.restore_link(node)
    assert s.versions["user3"] == 0
    assert s.memory_logical_bytes == memory
    after = s.read("user3").value
    assert np.array_equal(after, before)
    assert np.array_equal(after, s.expected_value("user3"))
    getattr(s, op)("user3")  # and the retry goes through


@pytest.mark.parametrize("cls", REPLICATED)
def test_baseline_failed_write_creates_nothing(cls):
    s = cls(_cfg())
    for nid in s.cluster.dram_ids():
        s.net.set_link_down(nid)
    with pytest.raises(LinkDownError):
        s.write("k")
    assert "k" not in s.versions and "k" not in s.placement and "k" not in s.values
    assert s.memory_logical_bytes == 0
    for nid in s.cluster.dram_ids():
        s.net.restore_link(nid)
    s.write("k")
    assert np.array_equal(s.read("k").value, s.expected_value("k"))


# --------------------------------------------------------------------- ipmem


def test_ipmem_update_consistency():
    s = _load(IPMem(_cfg()))
    for key in ("user3", "user3", "user9"):
        s.update(key)
    for sid in s.stripe_index.stripe_ids():
        assert s.verify_stripe(sid)
    assert np.array_equal(s.read("user3").value, s.expected_value("user3"))


def test_ipmem_degraded_read_all_parities_in_dram():
    s = _load(IPMem(_cfg()), n=32)
    s.update("user3")
    res = s.degraded_read("user3")
    assert np.array_equal(res.value, s.expected_value("user3"))


def test_ipmem_survives_r_dram_failures():
    s = _load(IPMem(_cfg()), n=32)
    for nid in ("dram0", "dram1", "dram2"):
        s.cluster.kill(nid)
    for i in range(8):
        res = s.read(f"user{i}")
        assert np.array_equal(res.value, s.expected_value(f"user{i}"))


# --------------------------------------------------------------------- fsmem


def test_fsmem_update_moves_object_to_new_stripe():
    s = _load(FSMem(_cfg()))
    old_sid = s.object_index.lookup("user3").stripe_id
    s.update("user3")
    # force sealing of the new stripe by updating more objects
    for i in range(8):
        s.update(f"user{i + 10}")
    new_sid = s.object_index.lookup("user3").stripe_id
    assert new_sid != old_sid
    assert np.array_equal(s.read("user3").value, s.expected_value("user3"))


def test_fsmem_update_issues_no_parity_reads():
    s = _load(FSMem(_cfg()))
    s.update("user3")
    assert s.counters["parity_chunk_reads"] == 0


def test_fsmem_stale_memory_accumulates():
    s = _load(FSMem(_cfg()))
    before = s.memory_logical_bytes
    for i in range(8):
        s.update(f"user{i}")
    after = s.memory_logical_bytes
    assert after >= before + 8 * s.cfg.value_size


def test_fsmem_deferred_gc_charges_cost():
    s = _load(FSMem(_cfg()))
    for i in range(6):
        s.update(f"user{i}")
    assert s.gc_total_s == 0.0
    s.finalize()
    assert s.gc_total_s > 0.0
    assert s.gc_deferred_s == s.gc_total_s
    assert s.gc_chunk_reads > 0


def test_fsmem_fully_replaced_stripe_needs_no_gc_reads():
    """Figure 1(b): a stripe whose chunks are all replaced releases for free."""
    cfg = _cfg(k=4)
    s = _load(FSMem(cfg), n=8)
    sid = s.object_index.lookup("user0").stripe_id
    rec = s.stripe_index.get(sid)
    victims = [keys[0] for keys in rec.chunk_keys]
    for key in victims:
        s.update(key)
    s.finalize()
    # that one stripe was fully stale -> zero chunk reads for it; the other
    # stripe was untouched -> no GC reads at all
    assert s.gc_chunk_reads == 0


def test_fsmem_degraded_read_current_version():
    s = _load(FSMem(_cfg()))
    s.update("user3")
    res = s.degraded_read("user3")
    assert np.array_equal(res.value, s.expected_value("user3"))

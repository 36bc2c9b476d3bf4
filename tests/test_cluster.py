"""Tests for consistent hashing, nodes and cluster topology."""

import bisect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import hashring
from repro.cluster import Cluster, ConsistentHashRing, DRAMNode, LogNode, UnknownNodeError
from repro.ec.delta import ParityDelta
from repro.logstore.records import LogRecord
from repro.sim.params import HardwareProfile


# ----------------------------------------------------------------- hash ring


def test_ring_lookup_deterministic():
    ring = ConsistentHashRing(["a", "b", "c"])
    assert ring.lookup("key1") == ring.lookup("key1")


def test_ring_balances_roughly():
    ring = ConsistentHashRing([f"n{i}" for i in range(4)], vnodes=128)
    counts = {f"n{i}": 0 for i in range(4)}
    for i in range(4000):
        counts[ring.lookup(f"key-{i}")] += 1
    for c in counts.values():
        assert 400 < c < 2000  # no node starved or dominant


def test_ring_add_duplicate_raises():
    ring = ConsistentHashRing(["a"])
    with pytest.raises(ValueError):
        ring.add_node("a")


def test_ring_empty_lookup_raises():
    with pytest.raises(LookupError):
        ConsistentHashRing().lookup("k")


def test_ring_lookup_many_distinct():
    ring = ConsistentHashRing(["a", "b", "c", "d"])
    nodes = ring.lookup_many("key", 3)
    assert len(nodes) == 3
    assert len(set(nodes)) == 3
    with pytest.raises(ValueError):
        ring.lookup_many("key", 5)


def test_ring_vnodes_validation():
    with pytest.raises(ValueError):
        ConsistentHashRing(vnodes=0)


class InsortRing:
    """Reference ring: every vnode point hashed and ``insort``-ed one at a
    time, a collision nudged to the next free point."""

    def __init__(self, vnodes: int):
        self.vnodes = vnodes
        self.points: list[int] = []
        self.owners: dict[int, str] = {}

    def add(self, node: str) -> None:
        for v in range(self.vnodes):
            point = hashring._hash64(f"{node}#{v}")
            while point in self.owners:
                point = (point + 1) & 0xFFFFFFFFFFFFFFFF
            self.owners[point] = node
            bisect.insort(self.points, point)

    def lookup_many(self, key: str, count: int) -> list[str]:
        idx = bisect.bisect(self.points, hashring._hash64(key))
        out: list[str] = []
        for step in range(len(self.points)):
            owner = self.owners[self.points[(idx + step) % len(self.points)]]
            if owner not in out:
                out.append(owner)
                if len(out) == count:
                    break
        return out


def _assert_same_ring(ring: ConsistentHashRing, ref: InsortRing, keys) -> None:
    assert ring._points == ref.points
    assert ring._owners == ref.owners
    n_nodes = len(set(ref.owners.values()))
    for key in keys:
        if n_nodes:
            assert ring.lookup(key) == ref.lookup_many(key, 1)[0]
            assert ring.lookup_many(key, n_nodes) == ref.lookup_many(key, n_nodes)


@settings(max_examples=60, deadline=None)
@given(
    vnodes=st.sampled_from([1, 2, 5, 64]),
    order=st.permutations(range(8)),
)
def test_ring_equals_insort_reference_over_add_sequences(vnodes, order):
    """Nodes ``n<i>`` join one at a time, in any order."""
    ring = ConsistentHashRing(vnodes=vnodes)
    ref = InsortRing(vnodes)
    keys = [f"user{i:016d}" for i in range(0, 400, 37)]
    for i in order:
        ring.add_node(f"n{i}")
        ref.add(f"n{i}")
        _assert_same_ring(ring, ref, keys)


def test_ring_nudges_colliding_points_like_the_reference(monkeypatch):
    """A 3-bit hash makes every node's points collide, within the node and
    across nodes; the nudge must land each point where the reference does."""
    real = hashring._hash64
    monkeypatch.setattr(hashring, "_hash64", lambda s: real(s) % 8)
    # node ids used nowhere else: the ring may remember their points
    nodes = ["collide-a", "collide-b", "collide-c"]
    ring = ConsistentHashRing(vnodes=3)
    ref = InsortRing(3)
    keys = [f"k{i}" for i in range(20)]
    for node in nodes:
        ring.add_node(node)
        ref.add(node)
        _assert_same_ring(ring, ref, keys)
    assert len(ref.owners) == 9 and max(ref.owners) >= 8  # a point was nudged


# --------------------------------------------------------------------- nodes


def test_dram_node_holds_items():
    n = DRAMNode("dram0")
    n.table.set("k", 4096)
    assert n.logical_bytes > 4096
    n.fail()
    assert not n.alive
    n.restore()
    assert n.alive


def _delta_rec(sid=0, pidx=1, seed=0, length=64):
    rng = np.random.default_rng(seed)
    d = ParityDelta(sid, pidx, 0, rng.integers(0, 256, length, dtype=np.uint8))
    return LogRecord.for_delta(d, length * 16)


def test_log_node_async_append_is_free():
    node = LogNode("log0", HardwareProfile(), scheme="plm")
    stall = node.append(_delta_rec(), now=0.0)
    assert stall == 0.0
    assert len(node.buffer) == 1


def test_log_node_flushes_at_threshold():
    profile = HardwareProfile(log_buffer_bytes=10_000, log_flush_threshold_bytes=2_000)
    node = LogNode("log0", profile, scheme="pl", merge_buffer=False)
    for i in range(3):
        node.append(_delta_rec(sid=i, seed=i), now=0.0)
    assert node.disk.stats.writes >= 1  # threshold crossed -> async flush
    assert node.buffer.logical_bytes < 2_000  # drained below threshold


def test_log_node_backpressure_when_disk_lags():
    # a glacial disk: every flush leaves a backlog that exceeds the bound
    profile = HardwareProfile(
        log_buffer_bytes=10_000,
        log_flush_threshold_bytes=1_000,
        disk_seq_bandwidth_Bps=1e3,
        max_disk_backlog_s=0.1,
    )
    node = LogNode("log0", profile, scheme="pl", merge_buffer=False)
    stalls = [node.append(_delta_rec(sid=i, seed=i), now=0.0) for i in range(8)]
    assert node.sync_flush_stalls >= 1
    assert any(s > 0 for s in stalls)


def test_log_node_read_overlays_buffer():
    node = LogNode("log0", HardwareProfile(), scheme="plm")
    rng = np.random.default_rng(1)
    base = rng.integers(0, 256, 256, dtype=np.uint8)
    node.append(LogRecord.for_chunk(5, 1, base, 4096), now=0.0)
    payload = rng.integers(0, 256, 64, dtype=np.uint8)
    node.append(LogRecord.for_delta(ParityDelta(5, 1, 10, payload), 1024), now=0.0)
    result = node.read_uptodate_parity(5, 1, 256, now=0.0)
    expect = base.copy()
    expect[10:74] ^= payload
    assert np.array_equal(result.payload, expect)


def test_log_node_read_unknown_parity_raises():
    node = LogNode("log0", HardwareProfile(), scheme="plm")
    with pytest.raises(KeyError):
        node.read_uptodate_parity(1, 1, 256, now=0.0)


def test_log_node_settle_drains_everything():
    node = LogNode("log0", HardwareProfile(), scheme="plm")
    node.append(_delta_rec(), now=0.0)
    node.settle(now=0.0)
    assert len(node.buffer) == 0
    assert node.scheme.staging_bytes == 0


# ------------------------------------------------------------------- cluster


def test_cluster_builds_expected_nodes():
    c = Cluster(n_dram=7, n_log=2)
    assert c.dram_ids() == [f"dram{i}" for i in range(7)]
    assert c.log_ids() == ["log0", "log1"]
    assert len(c.ring) == 7


def test_cluster_requires_dram():
    with pytest.raises(ValueError):
        Cluster(n_dram=0)


def test_cluster_kill_and_restore():
    c = Cluster(n_dram=3, n_log=1)
    c.kill("dram1")
    assert c.alive_dram_ids() == ["dram0", "dram2"]
    c.kill("log0")
    assert c.alive_log_ids() == []
    c.restore("dram1")
    assert "dram1" in c.alive_dram_ids()
    with pytest.raises(KeyError):
        c.kill("nope")


def test_node_ids_keep_their_order_across_kill_and_restore():
    """Ids are sorted once at construction (string order: dram10 sorts
    before dram2); kills and restores only filter the alive lists."""
    c = Cluster(n_dram=12, n_log=3)
    dram, log = sorted(f"dram{i}" for i in range(12)), ["log0", "log1", "log2"]
    assert c.dram_ids() == c.alive_dram_ids() == dram
    assert c.log_ids() == c.alive_log_ids() == log
    c.kill("dram10")
    c.kill("log1")
    assert c.alive_dram_ids() == [nid for nid in dram if nid != "dram10"]
    assert c.alive_log_ids() == ["log0", "log2"]
    assert c.dram_ids() == dram and c.log_ids() == log
    c.restore("dram10")
    c.restore("log1")
    assert c.alive_dram_ids() == dram and c.alive_log_ids() == log


def test_returned_id_lists_are_fresh():
    c = Cluster(n_dram=3, n_log=2)
    for ids in (c.dram_ids(), c.log_ids(), c.alive_dram_ids(), c.alive_log_ids()):
        ids.append("intruder")
        ids.reverse()
    assert c.dram_ids() == c.alive_dram_ids() == ["dram0", "dram1", "dram2"]
    assert c.log_ids() == c.alive_log_ids() == ["log0", "log1"]


def test_kill_restore_report_transitions():
    c = Cluster(n_dram=2, n_log=1)
    assert c.kill("dram0") is True
    assert c.kill("dram0") is False   # already down: no silent double-count
    assert c.restore("dram0") is True
    assert c.restore("dram0") is False
    assert c.dram_nodes["dram0"].fail_count == 1
    assert c.dram_nodes["dram0"].restore_count == 1


def test_unknown_node_error_lists_cluster():
    c = Cluster(n_dram=2, n_log=1)
    with pytest.raises(UnknownNodeError) as err:
        c.kill("dram9")
    assert "dram9" in str(err.value)
    assert "dram0" in str(err.value) and "log0" in str(err.value)
    with pytest.raises(UnknownNodeError):
        c.restore("nope")
    with pytest.raises(UnknownNodeError):
        c.downtime_s("nope")


def test_downtime_accounting():
    c = Cluster(n_dram=2, n_log=0)
    c.kill("dram0", now=1.0)
    c.clock.advance_to(3.0)
    assert c.downtime_s("dram0") == pytest.approx(2.0)  # open outage
    c.restore("dram0", now=4.0)
    c.clock.advance_to(10.0)
    assert c.downtime_s("dram0") == pytest.approx(3.0)  # closed
    c.kill("dram0", now=12.0)
    c.clock.advance_to(13.0)
    assert c.downtime_s("dram0") == pytest.approx(4.0)  # re-opened
    assert c.downtime_s("dram1") == 0.0


def test_cluster_availability():
    c = Cluster(n_dram=3, n_log=1)  # 4 nodes
    assert c.availability() == 1.0  # no exposure yet
    c.kill("dram0", now=0.0)
    c.restore("dram0", now=2.0)
    c.clock.advance_to(4.0)
    # 2 node-seconds down out of 4 nodes * 4 s
    assert c.availability() == pytest.approx(1.0 - 2.0 / 16.0)


def test_kill_defaults_to_cluster_clock():
    c = Cluster(n_dram=1, n_log=0)
    c.clock.advance(5.0)
    c.kill("dram0")
    assert c.dram_nodes["dram0"].failed_at == pytest.approx(5.0)
    c.clock.advance(1.0)
    c.restore("dram0")
    assert c.downtime_s("dram0") == pytest.approx(1.0)


def test_cluster_memory_and_disk_aggregation():
    c = Cluster(n_dram=2, n_log=2, scheme="pl")
    c.dram_nodes["dram0"].table.set("a", 1000)
    c.dram_nodes["dram1"].table.set("b", 2000)
    assert c.dram_logical_bytes == c.dram_nodes["dram0"].logical_bytes + c.dram_nodes[
        "dram1"
    ].logical_bytes
    c.log_nodes["log0"].append(_delta_rec(), now=0.0)
    c.settle_logs()
    assert c.disk_stats().writes >= 1

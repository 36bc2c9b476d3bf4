"""Tests for the simulation substrate (clock, resources, network, disk, events)."""

from dataclasses import dataclass, field

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.devtools.simsan import runtime as simsan_runtime
from repro.sim import (
    Counters,
    DiskModel,
    EventQueue,
    HardwareProfile,
    NetworkModel,
    Resource,
    SimClock,
)
from repro.sim.network import LinkDownError


# --------------------------------------------------------------------- clock


def test_clock_advances():
    c = SimClock()
    assert c.advance(1.5) == 1.5
    assert c.advance(0.5) == 2.0
    assert c.now == 2.0


def test_clock_rejects_negative():
    c = SimClock()
    with pytest.raises(ValueError):
        c.advance(-1)  # simlint: disable=SIM005 -- asserts the guard fires


def test_clock_advance_to_is_monotonic():
    c = SimClock(5.0)
    assert c.advance_to(3.0) == 5.0  # no going back
    assert c.advance_to(7.0) == 7.0


# ------------------------------------------------------------------ resource


def test_resource_fifo_reservation():
    r = Resource("disk")
    done1 = r.reserve(now=0.0, duration=2.0)
    done2 = r.reserve(now=1.0, duration=1.0)  # queued behind job 1
    assert done1 == 2.0
    assert done2 == 3.0
    assert r.busy_s == 3.0
    assert r.jobs == 2


def test_resource_idle_gap_not_counted_busy():
    r = Resource("nic")
    r.reserve(now=0.0, duration=1.0)
    r.reserve(now=5.0, duration=1.0)  # arrives after an idle gap
    assert r.free_at == 6.0
    assert r.busy_s == 2.0


def test_resource_utilisation():
    r = Resource("disk")
    r.reserve(now=0.0, duration=2.0)
    assert r.utilisation(4.0) == 0.5
    assert r.utilisation(0.0) == 0.0


def test_resource_negative_duration():
    with pytest.raises(ValueError):
        Resource("x").reserve(0.0, -1.0)


# ------------------------------------------------------------------ counters


def test_counters_add_get_merge():
    a = Counters()
    a.add("x")
    a.add("x", 2)
    assert a["x"] == 3
    assert a["missing"] == 0
    b = Counters()
    b.add("x", 5)
    b.add("y", 1)
    a.merge(b)
    assert a["x"] == 8
    assert a["y"] == 1


# ------------------------------------------------------------------- network


def test_network_rpc_latency_components():
    p = HardwareProfile(rtt_s=100e-6, net_bandwidth_Bps=1e9, rpc_overhead_s=10e-6)
    net = NetworkModel(p)
    t = net.rpc(0, 1000)
    assert t == pytest.approx(100e-6 + 1e-6 + 10e-6)


def test_sequential_gets_scale_linearly():
    p = HardwareProfile()
    net = NetworkModel(p)
    one = net.sequential_gets([4096])
    four = NetworkModel(p).sequential_gets([4096] * 4)
    assert four == pytest.approx(4 * one)


def test_parallel_puts_share_round_trip():
    p = HardwareProfile()
    one = NetworkModel(p).parallel_puts([4096])
    four = NetworkModel(p).parallel_puts([4096] * 4)
    # fan-out pays extra wire+dispatch but NOT extra round trips
    assert four < 4 * one
    assert four > one


def test_parallel_puts_empty_is_free():
    assert NetworkModel(HardwareProfile()).parallel_puts([]) == 0.0


def test_network_counts_bytes_and_rpcs():
    net = NetworkModel(HardwareProfile())
    net.rpc(100, 200)
    net.parallel_puts([1000, 1000])
    c = net.counters
    assert c["net_rpcs"] == 3
    assert c["net_bytes"] >= 2300
    assert c["chunk_writes"] == 2


def test_sequential_gets_count_chunk_reads():
    net = NetworkModel(HardwareProfile())
    net.sequential_gets([10, 20, 30])
    assert net.counters["chunk_reads"] == 3


# -- the no-degradation shortcuts equal the general path (ISSUE 16) ----------

_NODES = ["n0", "n1", "n2", "n3"]
_sizes = st.lists(st.integers(min_value=0, max_value=1 << 16), max_size=5)
_exchange = st.one_of(
    st.tuples(st.just("rpc"), st.integers(0, 1 << 16), st.integers(0, 1 << 16)),
    st.tuples(st.just("client_hop"), st.integers(0, 1 << 16)),
    st.tuples(st.just("rpc_to"), st.sampled_from(_NODES), st.integers(0, 4096)),
    st.tuples(st.sampled_from(["sequential_gets", "parallel_puts"]), _sizes, st.booleans()),
)


def _play(net, exchanges):
    """Run ``exchanges`` on ``net``; returns every latency, in order."""
    out = []
    for kind, *args in exchanges:
        if kind in ("sequential_gets", "parallel_puts"):
            sizes, named = args
            ids = [_NODES[i % len(_NODES)] for i in range(len(sizes))] if named else None
            out.append(getattr(net, kind)(sizes, node_ids=ids))
        elif kind == "rpc_to":
            out.append(net.rpc_to(args[0], args[1], 64))
        else:
            out.append(getattr(net, kind)(*args))
    return out


def _plain_adds(counters, exchanges):
    """The tallies the primitives are specified to make, one ``add`` each."""

    def exchange(rpcs, nbytes):
        counters.add("net_rpcs", rpcs)
        counters.add("net_messages", 2 * rpcs)
        counters.add("net_bytes", nbytes)

    for kind, *args in exchanges:
        if kind == "rpc":
            exchange(1, args[0] + args[1])
        elif kind == "client_hop":
            exchange(1, args[0])
        elif kind == "rpc_to":
            exchange(1, args[1] + 64)
        elif kind == "sequential_gets":
            for nbytes in args[0]:
                exchange(1, 64 + nbytes)
            counters.add("chunk_reads", len(args[0]))
        elif args[0]:  # parallel_puts; an empty fan-out is free and silent
            exchange(len(args[0]), sum(args[0]) + 64 * len(args[0]))
            counters.add("chunk_writes", len(args[0]))


@dataclass
class _CounterRecorder(simsan_runtime.Sanitizer):
    seen: list = field(default_factory=list)

    def on_counter(self, name, value_after):
        self.seen.append((name, value_after))
        super().on_counter(name, value_after)


@given(st.lists(_exchange, max_size=12))
def test_network_shortcuts_equal_the_general_path(exchanges):
    """Empty degradation state takes the early returns; a slowdown on a node
    no exchange names forces the per-node walk.  Same floats, same tallies."""
    fast, general = NetworkModel(HardwareProfile()), NetworkModel(HardwareProfile())
    general.set_node_slowdown("bystander", 5.0)
    general.set_link_down("unplugged")
    assert _play(fast, exchanges) == _play(general, exchanges)
    assert fast.counters.as_dict() == general.counters.as_dict()
    plain = Counters()
    _plain_adds(plain, exchanges)
    assert fast.counters.as_dict() == plain.as_dict()


@given(st.lists(_exchange, max_size=12))
def test_network_tallies_reach_simsan_as_plain_adds_would(exchanges):
    with simsan_runtime.activate(_CounterRecorder()) as batched:
        _play(NetworkModel(HardwareProfile()), exchanges)
    with simsan_runtime.activate(_CounterRecorder()) as plain:
        _plain_adds(Counters(), exchanges)
    assert batched.seen == plain.seen


def test_network_shortcuts_keep_their_checks():
    net = NetworkModel(HardwareProfile())
    with pytest.raises(ValueError):
        net.parallel_puts([64, 64], node_ids=["n0"])  # no fault registered
    net.set_node_slowdown("n0", 2.0)
    net.set_link_down("n1")
    with pytest.raises(LinkDownError):
        net.sequential_gets([64, 64], node_ids=["n0", "n1"])
    net.restore_link("n1")
    slowed = net.sequential_gets([64, 64], node_ids=["n0", "n1"])
    plain = NetworkModel(HardwareProfile()).sequential_gets([64])
    assert slowed == pytest.approx(3 * plain)


# ---------------------------------------------------------------------- disk


def test_disk_sequential_vs_random_cost():
    p = HardwareProfile(disk_seek_s=1e-3, disk_io_overhead_s=0.0)
    d = DiskModel(p)
    seq = d.write(1 << 20, sequential=True)
    rnd = d.write(1 << 20, sequential=False)
    assert rnd == pytest.approx(seq + 1e-3)


def test_disk_counts_ios_and_seeks():
    d = DiskModel(HardwareProfile())
    d.write(100, sequential=True)
    d.write(100, sequential=False)
    d.read(100, sequential=False)
    s = d.stats
    assert s.io_count == 3
    assert s.writes == 2
    assert s.reads == 1
    assert s.seeks == 2
    assert s.write_bytes == 200
    assert s.read_bytes == 100


def test_disk_backlog_accumulates():
    p = HardwareProfile(disk_seq_bandwidth_Bps=1e6, disk_io_overhead_s=0.0)
    d = DiskModel(p)
    d.write(1_000_000, sequential=True, now=0.0)  # 1 second of IO
    assert d.backlog_s(0.5) == pytest.approx(0.5)
    assert d.backlog_s(2.0) == 0.0


# -------------------------------------------------------------------- events


def test_event_queue_fires_in_order():
    q = EventQueue()
    fired = []
    q.schedule(2.0, lambda t: fired.append(("b", t)))
    q.schedule(1.0, lambda t: fired.append(("a", t)))
    q.schedule(3.0, lambda t: fired.append(("c", t)))
    assert q.run_until(2.5) == 2
    assert fired == [("a", 1.0), ("b", 2.0)]
    assert q.next_time() == 3.0
    assert q.drain() == 1
    assert len(q) == 0


def test_event_queue_stable_tie_order():
    q = EventQueue()
    fired = []
    for i in range(5):
        q.schedule(1.0, lambda t, i=i: fired.append(i))
    q.run_until(1.0)
    assert fired == [0, 1, 2, 3, 4]


def test_event_queue_clear():
    q = EventQueue()
    q.schedule(1.0, lambda t: None)
    q.clear()
    assert len(q) == 0
    assert q.next_time() is None


# ----------------------------------------------------------------- profile


def test_profile_helpers():
    p = HardwareProfile(net_bandwidth_Bps=1e9, encode_bandwidth_Bps=2e9, mem_bandwidth_Bps=4e9)
    assert p.transfer_s(1e9) == pytest.approx(1.0)
    assert p.encode_s(2e9) == pytest.approx(1.0)
    assert p.memcpy_s(4e9) == pytest.approx(1.0)


@given(st.integers(min_value=0, max_value=10**9))
def test_transfer_nonnegative(nbytes):
    assert HardwareProfile().transfer_s(nbytes) >= 0

"""Tests for the observability subsystem (spans + metrics) and the PR-3
bugfixes: degradation-aware batch network paths, consistent client-hop
accounting, growing "latest" distributions, and O(1) log-buffer drops."""

import math

import numpy as np
import pytest

from repro.baselines.replication import ReplicatedStore
from repro.baselines import VanillaMemcached
from repro.bench.profile import run_profile, serialise_profile
from repro.core.config import StoreConfig
from repro.core.logecmem import LogECMem
from repro.core.repair import repair_node
from repro.logstore.buffer import LogBuffer
from repro.logstore.records import LogRecord
from repro.obs.metrics import LatencyHistogram, MetricsRegistry
from repro.obs.span import Span
from repro.sim.network import LinkDownError, NetworkModel
from repro.sim.params import HardwareProfile
from repro.workloads.zipf import ZIPFIAN_CONSTANT, LatestGenerator, ZipfianGenerator, zeta
from tests.helpers import phase_seconds


def _loaded(n=24, **cfg):
    store = LogECMem(StoreConfig(k=4, r=3, payload_scale=1 / 16, **cfg))
    for i in range(n):
        store.write(f"user{i}")
    return store


# --------------------------------------------------------------------- spans


def test_span_children_laid_out_sequentially():
    root = Span("op", start_s=1.0)
    a = root.child("a", 0.25)
    b = root.child("b", 0.5)
    assert a.start_s == 1.0 and a.end_s == 1.25
    assert b.start_s == 1.25 and b.end_s == 1.75
    assert phase_seconds(root) == {"a": 0.25, "b": 0.5}


def test_span_child_starts_where_the_previous_child_ends_now():
    """The previous sibling's end is read when the next child is minted, so
    a caller that finished (re-timed) a child moves its successor."""
    root = Span("op", start_s=1.0)
    a = root.child("a", 0.25)
    a.finish(0.75)
    b = root.child("b", 0.5, node="n0", chunks=3)
    assert b.start_s == a.end_s == 1.75
    assert b.duration_s == 0.5 and b.attrs == {"node": "n0", "chunks": 3}
    assert b.children == [] and b.children is not a.children
    c = root.child("c", 1)  # durations are floats in the tree
    assert c.start_s == 2.25 and isinstance(c.duration_s, float)
    assert root.to_dict()["children"][1] == {
        "name": "b", "start_s": 1.75, "duration_s": 0.5,
        "attrs": {"chunks": 3, "node": "n0"},
    }


def test_every_op_span_root_equals_reported_latency():
    store = _loaded()
    key = "user3"
    for op in (store.read, store.update, store.degraded_read):
        res = op(key)
        root = store.tracer.last
        assert root is not None
        assert root.duration_s == pytest.approx(res.latency_s)
        assert root.children, f"{root.name} span has no phases"


def test_update_span_phases_match_breakdown():
    """The update's phases, in I/O-path order, are the whole latency."""
    store = _loaded()
    res = store.update("user5")
    root = store.tracer.last
    assert [c.name for c in root.children] == [
        "client_hop", "read_old_xor", "encode_delta", "ship_delta", "log_ack",
    ]
    phases = phase_seconds(root)
    assert sum(phases.values()) == pytest.approx(res.latency_s)
    cfg = store.cfg
    assert phases["encode_delta"] == pytest.approx(
        cfg.profile.encode_s(2 * cfg.value_size)
    )
    assert phases["log_ack"] == 0.0  # healthy disk: the log never stalls


def test_repair_span_root_equals_repair_time():
    store = _loaded(n=48)
    victim = store.cluster.dram_ids()[0]
    store.cluster.kill(victim)
    result = repair_node(store, victim)
    root = store.tracer.last
    assert root.name == "repair"
    assert root.duration_s == pytest.approx(result.repair_time_s)
    assert sum(c.duration_s for c in root.children) == pytest.approx(
        result.repair_time_s
    )


def test_baseline_ops_emit_spans():
    for cls in (VanillaMemcached, ReplicatedStore):
        store = cls(StoreConfig(k=4, r=3, payload_scale=1 / 16))
        store.write("a")
        assert store.tracer.last.name == "write"
        store.read("a")
        assert store.tracer.last.name == "read"
        store.update("a")
        assert store.tracer.last.name == "update"


def test_span_aggregation_feeds_breakdown_analysis():
    store = _loaded()
    for i in range(6):
        store.update(f"user{i}")
    spans = [s for s in store.tracer.drain() if s.name == "update"]
    means = store.metrics.phase_breakdown("update")
    assert "read_old_xor" in means
    assert means["read_old_xor"] == pytest.approx(
        sum(phase_seconds(s)["read_old_xor"] for s in spans) / len(spans)
    )
    assert sum(means.values()) == pytest.approx(
        sum(s.duration_s for s in spans) / len(spans)
    )


# ------------------------------------------------------------------- metrics


def test_histogram_quantiles_are_deterministic_and_bounded():
    h = LatencyHistogram()
    values = [i * 1e-5 for i in range(1, 101)]
    for v in values:
        h.observe(v)
    assert h.count == 100
    assert h.min_s == pytest.approx(1e-5)
    assert h.max_s == pytest.approx(1e-3)
    assert h.min_s <= h.quantile_s(0.5) <= h.max_s
    # bin resolution: 1/32 decade => <= ~7.5% relative error at the median
    assert h.quantile_s(0.5) == pytest.approx(5e-4, rel=0.08)
    h2 = LatencyHistogram()
    for v in values:
        h2.observe(v)
    assert h2.summary() == h.summary()


def test_metrics_registry_wraps_counters_and_ingests_spans():
    from repro.sim.resources import Counters

    counters = Counters()
    reg = MetricsRegistry(counters, store="test")
    counters.add("x", 3)  # simlint: disable=SIM004 -- ad-hoc name, generic-bag test
    assert reg.counters is counters  # same bag, not a copy
    assert reg.as_dict() == {"x": 3}
    span = Span("update", 0.0)
    span.child("read_old_xor", 0.3)
    span.child("ship_delta", 0.2)
    span.finish(0.5)
    reg.observe_span(span)
    assert reg.op_latency["update"].count == 1
    assert reg.phase_breakdown("update") == {
        "read_old_xor": pytest.approx(0.3),
        "ship_delta": pytest.approx(0.2),
    }


def test_store_metrics_collect_per_op_histograms():
    store = _loaded()
    for i in range(8):
        store.read(f"user{i}")
    store.update("user1")
    snap = store.metrics.snapshot()
    assert snap["ops"]["read"]["count"] >= 8
    assert snap["ops"]["update"]["count"] == 1
    assert "read_old_xor" in snap["phases"]["update"]


# -------------------------------------------- degradation-aware batch paths


def _net():
    return NetworkModel(HardwareProfile())


def test_sequential_gets_honours_node_slowdown():
    net = _net()
    base = net.sequential_gets([4096], node_ids=["n0"])
    net.set_node_slowdown("n0", 3.0)
    assert net.sequential_gets([4096], node_ids=["n0"]) == pytest.approx(3 * base)
    # only the slowed element stretches
    two = net.sequential_gets([4096, 4096], node_ids=["n0", "n1"])
    assert two == pytest.approx(3 * base + base)


def test_parallel_puts_critical_path_is_slowest_target():
    net = _net()
    base = net.parallel_puts([4096, 4096], node_ids=["n0", "n1"])
    net.set_node_slowdown("n1", 2.5)
    assert net.parallel_puts([4096, 4096], node_ids=["n0", "n1"]) == pytest.approx(
        2.5 * base
    )


def test_batch_paths_raise_for_partitioned_links():
    net = _net()
    net.set_link_down("n1")
    with pytest.raises(LinkDownError):
        net.sequential_gets([64, 64], node_ids=["n0", "n1"])
    with pytest.raises(LinkDownError):
        net.parallel_puts([64], node_ids=["n1"])
    # without node ids the primitives stay degradation-blind by design
    assert net.sequential_gets([64]) > 0


def test_node_ids_must_match_sizes():
    with pytest.raises(ValueError):
        _net().sequential_gets([64, 64], node_ids=["n0"])


def test_slow_fault_on_data_node_lengthens_reads():
    """Regression (the chaos-exposed bug): a `slow` fault on a DRAM node
    must lengthen reads that go through the batch network paths."""
    store = _loaded()
    key = "user3"
    node_id = store._locate(key)[2]
    healthy = store.read(key).latency_s
    store.net.set_node_slowdown(node_id, 2.0)  # below degraded threshold
    slowed = store.read(key)
    assert not slowed.degraded
    assert slowed.latency_s > healthy * 1.4
    store.net.clear_node_slowdown(node_id)
    assert store.read(key).latency_s == pytest.approx(healthy)


def test_slow_xor_node_lengthens_updates():
    store = _loaded()
    key = "user3"
    sid = store._locate(key)[0]
    xor_node = store.stripe_index.get(sid).chunk_nodes[store.cfg.k]
    healthy = store.update(key).latency_s
    store.net.set_node_slowdown(xor_node, 4.0)
    assert store.update(key).latency_s > healthy


# ------------------------------------------------------ client_hop accounting


def test_client_hop_counts_rpc_and_pays_overhead():
    net = _net()
    p = net.profile
    latency = net.client_hop(1000)
    assert net.counters["net_rpcs"] == 1
    assert net.counters["net_messages"] == 2
    assert latency == pytest.approx(p.rtt_s + p.transfer_s(1000) + p.rpc_overhead_s)


# ------------------------------------------------------- latest distribution


def test_zipf_grow_matches_recompute():
    g = ZipfianGenerator(100, seed=1)
    g.grow(57)
    fresh = ZipfianGenerator(157, seed=1)
    assert g.n == 157
    assert g.zetan == pytest.approx(zeta(157, ZIPFIAN_CONSTANT), rel=1e-12)
    assert g.eta == pytest.approx(fresh.eta, rel=1e-12)


def test_latest_hottest_key_tracks_newest_insert():
    gen = LatestGenerator(50, seed=7)
    for _ in range(300):
        gen.grow()
    assert gen.n == 350
    assert gen._zipf.n == 350  # underlying age distribution grew too
    draws = [gen.next() for _ in range(4000)]
    counts = {}
    for d in draws:
        counts[d] = counts.get(d, 0) + 1
    hottest = max(counts, key=lambda k: (counts[k], k))
    assert hottest == 349  # the newest item
    # recency skew: the newest decile dominates
    newest_decile = sum(1 for d in draws if d >= 315)
    assert newest_decile > len(draws) * 0.5


def test_latest_stale_state_regression():
    """Without growing zetan, item n-1 of the grown population would be hit
    with the *initial* population's skew; the grown generator must spread
    ages over the larger range."""
    gen = LatestGenerator(10, seed=3)
    gen.grow(990)
    ages = [gen.n - 1 - gen.next() for _ in range(2000)]
    assert max(ages) > 50  # frozen zetan would keep ages inside ~10


# ----------------------------------------------------------- log buffer drop


def _rec(sid, j, seq=0):
    from repro.ec.delta import ParityDelta

    delta = ParityDelta(
        stripe_id=sid, parity_index=j, offset=0,
        payload=np.ones(16, dtype=np.uint8), seq=seq,
    )
    return LogRecord.for_delta(delta, 16)


def test_buffer_drop_is_order_preserving():
    buf = LogBuffer(capacity_bytes=10_000, flush_threshold_bytes=5_000, merge=True)
    for sid in range(6):
        buf.add(_rec(sid, 1))
    assert buf.drop(2, 1) == 1
    assert buf.drop(2, 1) == 0  # already gone
    assert [r.stripe_id for r in buf.peek()] == [0, 1, 3, 4, 5]
    assert buf.logical_bytes == 5 * 16
    buf.add(_rec(2, 1))  # re-added records go to the back (FIFO)
    assert [r.stripe_id for r in buf.peek()] == [0, 1, 3, 4, 5, 2]


def test_buffer_merge_keeps_arrival_order():
    buf = LogBuffer(capacity_bytes=10_000, flush_threshold_bytes=5_000, merge=True)
    buf.add(_rec(0, 1, seq=0))
    buf.add(_rec(1, 1, seq=0))
    buf.add(_rec(0, 1, seq=1))  # merges into the first slot, no reorder
    assert buf.merges == 1
    assert [r.stripe_id for r in buf.peek()] == [0, 1]


# ----------------------------------------------------- profile determinism


def test_profile_two_runs_byte_identical_and_span_trees_equal():
    kwargs = dict(n_objects=120, n_requests=120, seed=9)
    a = run_profile(["exp2"], **kwargs)
    b = run_profile(["exp2"], **kwargs)
    assert serialise_profile(a) == serialise_profile(b)
    # span trees compare equal too (digests cover structure + durations)
    for store in a["experiments"]["exp2"]:
        assert (
            a["experiments"]["exp2"][store]["spans_digest"]
            == b["experiments"]["exp2"][store]["spans_digest"]
        )


def test_profile_snapshot_shape():
    doc = run_profile(["exp7"], n_objects=120, n_requests=120, seed=9)
    exp = doc["experiments"]["exp7"]
    assert exp["logecmem+assist"]["repair_time_s"] > 0
    assert exp["logecmem-noassist"]["repair_time_s"] >= exp[
        "logecmem+assist"
    ]["repair_time_s"]
    assert exp["logecmem"]["ops"]["repair"]["count"] == 2


def test_same_seed_stores_emit_identical_span_trees():
    trees = []
    for _ in range(2):
        store = _loaded()
        for i in range(6):
            store.read(f"user{i}")
            store.update(f"user{i}")
        trees.append("\n".join(s.render() for s in store.tracer.drain()))
    assert trees[0] == trees[1]


def test_chaos_report_carries_metrics():
    from repro.chaos import run_chaos
    from repro.workloads.ycsb import WorkloadSpec

    store = _loaded(n=0)
    spec = WorkloadSpec.read_update("50:50", n_objects=40, n_requests=40, seed=5)
    report = run_chaos(store, spec, expected_faults=1.0)
    assert "ops" in report.metrics
    assert report.metrics["ops"]  # at least one op type recorded
    assert "metrics" in report.to_dict()


# ------------------------------------------------------------ numeric sanity


def test_histogram_underflow_and_overflow_bins():
    h = LatencyHistogram()
    h.observe(0.0)
    h.observe(1e9)
    assert h.count == 2
    # underflow: conservative upper edge of the first bin (100 ns)
    assert h.quantile_s(0.0) == pytest.approx(1e-7)
    # overflow: clamped to the exact observed max
    assert h.quantile_s(1.0) == pytest.approx(1e9)
    assert not math.isinf(h.mean_s)
    with pytest.raises(ValueError):
        h.observe(-1.0)

"""Tests for the chaos subsystem: schedules, injection, policy, harness."""

import numpy as np
import pytest

from repro.baselines import make_store
from repro.chaos import (
    ChaosReport,
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultSchedule,
    RetryPolicy,
    RobustProxy,
    check_durability,
    check_store,
    run_chaos,
)
from repro.bench.runner import load_store, make_scenario
from repro.cluster import UnknownNodeError
from repro.core import StoreConfig
from repro.heal import ControlPlane
from repro.sim.events import EventQueue
from repro.sim.network import LinkDownError, NetworkModel
from repro.sim.params import HardwareProfile
from repro.workloads import WorkloadSpec
from tests.helpers import of_kind

CFG = dict(k=3, r=3, value_size=1024, scheme="plm")


def small_store(name="logecmem", **kw):
    return make_store(name, StoreConfig(**{**CFG, **kw}))


def small_spec(**kw):
    base = dict(n_objects=90, n_requests=150, seed=11,
                read_ratio=0.5, update_ratio=0.5, value_size=1024)
    base.update(kw)
    return WorkloadSpec(**base)


# ------------------------------------------------------------------ schedule


def test_schedule_deterministic_per_seed():
    kw = dict(horizon_s=1.0, mttf_s=0.2, seed=5)
    a = FaultSchedule.poisson(["dram0", "dram1"], ["log0"], **kw)
    b = FaultSchedule.poisson(["dram0", "dram1"], ["log0"], **kw)
    assert a.events == b.events
    c = FaultSchedule.poisson(["dram0", "dram1"], ["log0"], **{**kw, "seed": 6})
    assert a.events != c.events


def test_schedule_is_time_sorted():
    sched = FaultSchedule.poisson(
        [f"dram{i}" for i in range(4)], ["log0"], horizon_s=1.0, mttf_s=0.1, seed=0
    )
    times = [ev.time_s for ev in sched]
    assert times == sorted(times)
    assert all(0 <= t < 1.0 for t in times)


def test_schedule_stall_only_on_log_nodes():
    sched = FaultSchedule.poisson(
        ["dram0"], [], horizon_s=5.0, mttf_s=0.05, seed=1,
        weights={FaultKind.STALL: 1.0},
    )
    assert len(sched) > 0
    # stalls drawn for a DRAM node must have fallen back to blips
    assert all(ev.kind is FaultKind.BLIP for ev in sched)


def test_schedule_expected_faults_scaling():
    counts = [
        len(FaultSchedule.with_expected_faults(
            ["dram0", "dram1", "dram2"], ["log0"],
            horizon_s=1.0, expected_faults=6.0, seed=s,
        ))
        for s in range(40)
    ]
    assert 4.0 < sum(counts) / len(counts) < 8.0  # Poisson mean ~6


def test_fault_event_validation():
    with pytest.raises(ValueError):
        FaultEvent(-1.0, FaultKind.CRASH, "dram0")
    with pytest.raises(ValueError):
        FaultEvent(0.0, FaultKind.BLIP, "dram0")  # transient needs duration
    with pytest.raises(ValueError):
        FaultEvent(0.0, FaultKind.SLOW, "dram0", duration_s=1.0, magnitude=0.5)
    ev = FaultEvent(1.0, FaultKind.PARTITION, "dram0", duration_s=0.25)
    assert ev.end_s == 1.25
    assert "partition" in ev.describe()


def test_schedule_generator_validation():
    with pytest.raises(ValueError):
        FaultSchedule.poisson(["a"], horizon_s=0, mttf_s=1)
    with pytest.raises(ValueError):
        FaultSchedule.poisson(["a"], horizon_s=1, mttf_s=0)
    with pytest.raises(ValueError):
        FaultSchedule.with_expected_faults(["a"], horizon_s=1, expected_faults=0)


# ------------------------------------------------------------------ injector


def test_injector_crash_and_blip():
    store = small_store()
    inj = FaultInjector(store.cluster)
    q = EventQueue()
    inj.apply(FaultEvent(1.0, FaultKind.CRASH, "dram0"), 1.0, q)
    assert not store.cluster.dram_nodes["dram0"].alive
    inj.apply(FaultEvent(2.0, FaultKind.BLIP, "dram1", duration_s=0.5), 2.0, q)
    assert not store.cluster.dram_nodes["dram1"].alive
    q.run_until(2.5)
    assert store.cluster.dram_nodes["dram1"].alive   # blip healed itself
    assert not store.cluster.dram_nodes["dram0"].alive  # crash did not
    assert inj.applied == {"crash": 1, "blip": 1}
    assert len(inj.timeline) == 3


def test_injector_slow_and_partition_heal():
    store = small_store()
    inj = FaultInjector(store.cluster)
    q = EventQueue()
    inj.apply(FaultEvent(0.0, FaultKind.SLOW, "dram0", duration_s=1.0,
                         magnitude=8.0), 0.0, q)
    inj.apply(FaultEvent(0.0, FaultKind.PARTITION, "dram1", duration_s=2.0), 0.0, q)
    net = store.net
    assert net.node_slowdown("dram0") == 8.0
    assert net.link_down("dram1") and not net.reachable("dram1")
    q.run_until(1.0)
    assert net.node_slowdown("dram0") == 1.0
    assert net.link_down("dram1")
    q.run_until(2.0)
    assert net.reachable("dram1")


def test_injector_stall_hits_log_disk():
    store = small_store()
    inj = FaultInjector(store.cluster)
    q = EventQueue()
    inj.apply(FaultEvent(0.0, FaultKind.STALL, "log0", duration_s=0.05), 0.0, q)
    disk = store.cluster.log_nodes["log0"].disk
    assert disk.stall_windows == 1
    assert disk.stalled_s == pytest.approx(0.05)
    assert disk.backlog_s(0.0) >= 0.05  # busy time propagates as backpressure
    with pytest.raises(ValueError):
        inj.apply(FaultEvent(0.0, FaultKind.STALL, "dram0", duration_s=0.05), 0.0, q)


def test_injector_unknown_node():
    store = small_store()
    inj = FaultInjector(store.cluster)
    with pytest.raises(UnknownNodeError):
        inj.apply(FaultEvent(0.0, FaultKind.CRASH, "dram99"), 0.0, EventQueue())


def test_injector_log_crash_loses_the_buffer_and_marks_stale():
    """Log-node crash consistency (§3.3.2) belongs to the injector: whoever
    applies the fault, the buffer is gone and the node must be recovered."""
    store = small_store()
    load_store(store, small_spec())
    node = store.cluster.log_nodes["log0"]
    buffered = len(node.buffer)
    assert buffered > 0
    inj = FaultInjector(store.cluster)
    q = EventQueue()
    assert inj.apply(FaultEvent(1.0, FaultKind.CRASH, "log0"), 1.0, q)
    assert not node.alive and node.needs_recovery and len(node.buffer) == 0
    (mark,) = of_kind(store.cluster.journal, "stale_mark")
    assert mark.attrs == {"node": "log0", "reason": "buffer_lost", "records_lost": buffered}
    # a second crash of the down node: counted, noted, but no fault_inject
    injects = store.cluster.journal.counts["fault_inject"]
    assert not inj.apply(FaultEvent(2.0, FaultKind.CRASH, "log0"), 2.0, q)
    assert store.cluster.journal.counts["fault_inject"] == injects
    assert inj.applied == {"crash": 2}
    assert inj.timeline[-1] == (2.0, "crash log0 (already down)")
    assert len(q) == 0  # recovery is the control plane's job, not an auto-ending


@pytest.mark.parametrize("event,error", [
    (FaultEvent(2e-3, FaultKind.CRASH, "dram99"), UnknownNodeError),
    (FaultEvent(2e-3, FaultKind.STALL, "dram0", duration_s=1e-3), ValueError),
])
def test_bad_schedule_fails_before_the_first_request(event, error):
    loaded, spec = make_scenario(n_objects=60, n_requests=60)
    load_store(loaded, spec)
    store, spec = make_scenario(n_objects=60, n_requests=60)
    with pytest.raises(error):
        run_chaos(store, spec, schedule=FaultSchedule([event]))
    assert store.cluster.clock.now == loaded.cluster.clock.now
    ops = {k: v for k, v in store.counters.as_dict().items() if k.startswith("op_")}
    assert ops and ops == {
        k: v for k, v in loaded.counters.as_dict().items() if k.startswith("op_")
    }


# --------------------------------------------------------- network primitives


def test_network_degradation_primitives():
    net = NetworkModel(HardwareProfile())
    assert net.node_slowdown("n1") == 1.0 and net.reachable("n1")
    net.set_node_slowdown("n1", 4.0)
    assert net.node_slowdown("n1") == 4.0
    net.set_node_slowdown("n1", 1.0)  # factor 1 clears the entry
    assert net.node_slowdown("n1") == 1.0
    with pytest.raises(ValueError):
        net.set_node_slowdown("n1", 0.5)
    net.set_link_down("n2")
    with pytest.raises(LinkDownError):
        net.rpc_to("n2", 64, 64)
    net.restore_link("n2")
    base = net.rpc_to("n2", 64, 64)
    net.set_node_slowdown("n2", 3.0)
    assert net.rpc_to("n2", 64, 64) == pytest.approx(3.0 * base)


# -------------------------------------------------------------------- policy


def test_backoff_exponential_and_capped():
    p = RetryPolicy(backoff_base_s=1e-3, backoff_cap_s=4e-3, jitter_fraction=0.0)
    assert p.backoff_s(0) == pytest.approx(1e-3)
    assert p.backoff_s(1) == pytest.approx(2e-3)
    assert p.backoff_s(2) == pytest.approx(4e-3)
    assert p.backoff_s(5) == pytest.approx(4e-3)  # capped


def test_backoff_jitter_bounded_and_seeded():
    a = RetryPolicy(jitter_fraction=0.25, seed=9)
    b = RetryPolicy(jitter_fraction=0.25, seed=9)
    seq_a = [a.backoff_s(i) for i in range(6)]
    seq_b = [b.backoff_s(i) for i in range(6)]
    assert seq_a == seq_b  # same seed, same jitter stream
    for i, s in enumerate(seq_a):
        nominal = min(1e-3 * 2**i, 16e-3)
        assert 0.75 * nominal <= s <= 1.25 * nominal


def test_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ValueError):
        RetryPolicy(jitter_fraction=1.5)


def test_proxy_retries_through_a_blip():
    """An update hits a dead node; the blip heals during backoff and the op
    lands -- acked with retries > 0, no failure."""
    store = small_store()
    spec = small_spec()
    load_store(store, spec)
    key = "user0000000000000000"
    sid, seq, node_id, _, _ = store._locate(key)
    assert sid is not None
    store.cluster.kill(node_id)

    healed = {"done": False}

    def wait(dt):
        if not healed["done"]:
            store.cluster.restore(node_id)
            healed["done"] = True

    proxy = RobustProxy(store, RetryPolicy(jitter_fraction=0.0), wait=wait)
    from repro.workloads.ycsb import Operation, Request

    outcome = proxy.execute(Request(Operation.UPDATE, key))
    assert outcome.acked
    assert outcome.retries >= 1
    assert proxy.retries >= 1
    assert proxy.failed_ops == 0


def test_proxy_exhausts_retries_on_permanent_failure():
    store = small_store()
    spec = small_spec()
    load_store(store, spec)
    key = "user0000000000000000"
    _, _, node_id, _, _ = store._locate(key)
    store.cluster.kill(node_id)
    proxy = RobustProxy(store, RetryPolicy(max_retries=2, jitter_fraction=0.0))
    from repro.workloads.ycsb import Operation, Request

    outcome = proxy.execute(Request(Operation.UPDATE, key))
    assert not outcome.acked
    assert outcome.retries == 2
    assert outcome.error is not None
    assert proxy.failed_ops == 1
    # the READ still succeeds -- served degraded
    read = proxy.execute(Request(Operation.READ, key))
    assert read.acked and read.degraded
    assert read.degraded_reason == "node_down"


# ------------------------------------------------------------------- harness


def test_run_chaos_zero_violations():
    store = small_store()
    report = run_chaos(store, small_spec(), control_plane=ControlPlane())
    assert isinstance(report, ChaosReport)
    assert report.violations == 0
    assert report.ops_acked == report.ops_attempted
    assert report.invariants["objects_checked"] == 90
    assert report.availability <= 1.0
    # throughput and response time are what this run measured
    assert report.throughput_ops_s == report.ops_acked / report.makespan_s
    assert 0 < report.mean_response_s < report.makespan_s


def test_run_chaos_same_seed_identical_report():
    reports = [run_chaos(small_store(), small_spec()) for _ in range(2)]
    assert reports[0].to_dict() == reports[1].to_dict()
    assert reports[0].fingerprint() == reports[1].fingerprint()
    other = run_chaos(small_store(), small_spec(seed=12))
    assert other.fingerprint() != reports[0].fingerprint()


def test_degraded_read_during_outage_acked_and_durable():
    """The acceptance drill: a node crashes mid-run with no control plane, so
    reads of its objects are served degraded (and acked); the invariant sweep
    afterwards proves every acked object still reconstructs bit-exactly."""
    store = small_store()
    spec = small_spec(read_ratio=1.0, update_ratio=0.0, n_requests=120)
    schedule = FaultSchedule([FaultEvent(0.0, FaultKind.CRASH, "dram0")])
    report = run_chaos(store, spec, schedule=schedule)
    assert report.degraded_reads > 0
    assert report.ops_acked == report.ops_attempted  # reads never fail over this
    assert not store.cluster.dram_nodes["dram0"].alive  # outage persisted
    assert report.violations == 0  # ...yet everything acked is decodable
    # spot-check durability explicitly for the keys on the dead node
    dead_keys = [
        key for key in sorted(store.versions)
        if store._locate(key)[2] == "dram0"
    ]
    assert dead_keys
    checked, violations = check_durability(store, dead_keys)
    assert checked == len(dead_keys)
    assert violations == []


def executed(report, kind):
    """The control plane's executed ``kind`` actions, as (node, result)."""
    return [
        (rec["action"]["node"], rec["result"])
        for rec in report.heal["executed"]
        if rec["action"]["kind"] == kind
    ]


def test_dram_crash_triggers_repair():
    store = small_store()
    schedule = FaultSchedule([FaultEvent(0.0, FaultKind.CRASH, "dram1")])
    report = run_chaos(
        store, small_spec(), schedule=schedule, control_plane=ControlPlane()
    )
    ((node, result),) = executed(report, "repair_node")
    assert node == "dram1"
    assert result["status"] == "done" and result["chunks"] > 0
    assert store.cluster.dram_nodes["dram1"].alive  # back in service
    assert report.violations == 0


def test_log_node_crash_recovers_consistently():
    """Crash a log node mid-run (buffer lost, §3.3.2); recovery must rebuild
    its parities so the log-replay invariant holds at the end."""
    store = small_store()
    schedule = FaultSchedule([FaultEvent(0.0, FaultKind.CRASH, "log0")])
    report = run_chaos(
        store, small_spec(), schedule=schedule, control_plane=ControlPlane()
    )
    assert ("log0", "done") in [
        (node, result["status"]) for node, result in executed(report, "recover_log")
    ]
    node = store.cluster.log_nodes["log0"]
    assert node.alive and not node.needs_recovery
    assert report.violations == 0
    assert report.invariants["logged_parities_checked"] > 0


def test_log_partition_marks_and_recovers_stale_parities():
    """Updates during a log-node partition cannot deliver deltas; the node is
    marked stale and recovered once the link heals."""
    store = small_store()
    schedule = FaultSchedule(
        [FaultEvent(0.0, FaultKind.PARTITION, "log0", duration_s=0.05)]
    )
    report = run_chaos(
        store, small_spec(read_ratio=0.0, update_ratio=1.0), schedule=schedule,
        control_plane=ControlPlane(),
    )
    assert store.counters["parity_deltas_skipped"] > 0
    assert ("log0", "done") in [
        (node, result["status"]) for node, result in executed(report, "recover_log")
    ]
    assert not store.cluster.log_nodes["log0"].needs_recovery
    assert report.violations == 0


def test_run_chaos_all_stores():
    for name in ("vanilla", "replication", "ipmem", "fsmem", "logecmem"):
        store = small_store(name)
        report = run_chaos(store, small_spec(n_objects=60, n_requests=80))
        assert report.violations == 0, name
        assert report.ops_attempted == 80, name


def test_chaos_drill_every_store_with_a_plane():
    """Every store survives the same seeded ~6-fault schedule with a control
    plane attached: zero violations, the schedule fires, the redundant
    stores serve degraded reads, and a rerun reproduces the fingerprint."""
    spec = WorkloadSpec(n_objects=600, n_requests=900, seed=42,
                        read_ratio=0.5, update_ratio=0.5)

    def drill(name):
        return run_chaos(make_store(name, StoreConfig(k=4, r=3, scheme="plm")), spec,
                         expected_faults=6.0, control_plane=ControlPlane())

    reports = {name: drill(name)
               for name in ("vanilla", "replication", "ipmem", "fsmem", "logecmem")}
    for name, report in reports.items():
        assert report.violations == 0, name
        assert report.ops_acked + report.ops_failed >= spec.n_requests - report.ops_failed
        assert sum(report.faults_fired.values()) > 0, "the schedule must actually fire"
    assert any(report.degraded_reads > 0
               for name, report in reports.items() if name != "vanilla")
    assert drill("logecmem").fingerprint() == reports["logecmem"].fingerprint()


def test_check_store_on_healthy_store():
    store = small_store()
    load_store(store, small_spec())
    store.finalize()
    report = check_store(store)
    assert report.ok
    assert report.objects_checked == 90
    assert report.stripes_checked > 0


def test_report_fingerprint_tracks_content():
    r = ChaosReport(store="s", scheme="plm", seed=1, n_objects=1, n_requests=1)
    fp = r.fingerprint()
    r.ops_acked = 1
    assert r.fingerprint() != fp
    assert "ChaosReport" in r.summary()


def test_cli_chaos_subcommand():
    from repro.cli import main

    lines = []
    rc = main(
        ["chaos", "--store", "logecmem", "--scheme", "plm",
         "--objects", "60", "--requests", "80", "--code", "3,3"],
        out=lines.append,
    )
    assert rc == 0
    text = "\n".join(str(x) for x in lines)
    assert "ChaosReport" in text
    assert "0 violations" in text
    assert "fingerprint" in text


# --------------------------------------------------- substrate extensions


def test_striped_read_degrades_on_slow_node():
    store = small_store()
    spec = small_spec()
    load_store(store, spec)
    key = "user0000000000000000"
    _, _, node_id, _, _ = store._locate(key)
    # tolerably slow: normal path, inflated latency
    base = store.read(key).latency_s
    store.net.set_node_slowdown(node_id, 2.0)
    slow = store.read(key)
    assert not slow.degraded
    assert slow.latency_s > base
    # past the threshold: degraded path wins over waiting on the straggler
    store.net.set_node_slowdown(node_id, 100.0)
    res = store.read(key)
    assert res.degraded
    assert res.info["degraded_reason"] == "slow_node"
    assert np.array_equal(res.value, store.expected_value(key))


def test_striped_read_degrades_on_partition():
    store = small_store()
    load_store(store, small_spec())
    key = "user0000000000000001"
    _, _, node_id, _, _ = store._locate(key)
    store.net.set_link_down(node_id)
    res = store.read(key)
    assert res.degraded
    assert res.info["degraded_reason"] == "link_down"
    assert np.array_equal(res.value, store.expected_value(key))


def test_degraded_read_never_uses_stale_partitioned_parity():
    """Regression: updates during a log-node partition leave that node's
    persisted parity stale; a concurrent multi-failure degraded read must
    fetch the fresh parity from the *other* log node (skipping the
    partitioned/stale one), so the acked read returns the right bytes."""
    store = small_store()
    load_store(store, small_spec())
    store.net.set_link_down("log0")
    # a sealed key whose stripe logs parity 1 on log0 -- the parity the old
    # fetch loop would have read first
    key = next(
        k
        for k in sorted(store.versions)
        if (sid := store._locate(k)[0]) is not None
        and store.stripe_index.get(sid).chunk_nodes[CFG["k"] + 1] == "log0"
    )
    store.update(key)  # log0 misses the delta and is marked stale
    assert store.cluster.log_nodes["log0"].needs_recovery
    sid, seq, home, _, _ = store._locate(key)
    rec = store.stripe_index.get(sid)
    store.cluster.kill(home)
    store.cluster.kill(rec.chunk_nodes[CFG["k"]])  # XOR node: 2 DRAM chunks gone
    before = store.counters["logged_parity_reads"]
    res = store.read(key)
    assert res.degraded
    assert store.counters["logged_parity_reads"] == before + 1  # log1 only
    assert np.array_equal(res.value, store.expected_value(key))


def test_proxy_reports_backoff_waits_separately():
    """The driver advances the clock during each backoff via the wait hook,
    so the outcome must expose waited_s apart from the client latency --
    otherwise the harness would advance the waits a second time."""
    store = small_store()
    load_store(store, small_spec())
    key = "user0000000000000000"
    _, _, node_id, _, _ = store._locate(key)
    store.cluster.kill(node_id)
    healed = {"done": False}

    def wait(dt):
        if not healed["done"]:
            store.cluster.restore(node_id)
            healed["done"] = True

    proxy = RobustProxy(store, RetryPolicy(jitter_fraction=0.0), wait=wait)
    from repro.workloads.ycsb import Operation, Request

    outcome = proxy.execute(Request(Operation.UPDATE, key))
    assert outcome.acked
    assert outcome.waited_s == pytest.approx(1e-3)  # one backoff at the base
    assert outcome.service_s == pytest.approx(outcome.latency_s - outcome.waited_s)
    assert outcome.service_s > 0


def test_proxy_only_retries_unavailability_errors():
    """Only unavailability-family errors are retryable; a workload bug
    (KeyError) or an arbitrary internal RuntimeError must surface."""
    store = small_store()
    load_store(store, small_spec())
    proxy = RobustProxy(store, RetryPolicy(max_retries=3, jitter_fraction=0.0))
    from repro.workloads.ycsb import Operation, Request

    with pytest.raises(KeyError):
        proxy.execute(Request(Operation.READ, "user9999999999999999"))

    def boom(key):
        raise RuntimeError("internal bug")

    store.read = boom
    with pytest.raises(RuntimeError):
        proxy.execute(Request(Operation.READ, "user0000000000000000"))
    assert proxy.retries == 0
    assert proxy.failed_ops == 0


def test_repair_restore_includes_repair_window():
    """A repaired node rejoins at the plane's action time + repair_time_s, so
    its downtime is the detection delay plus the repair itself."""
    store = small_store()
    schedule = FaultSchedule([FaultEvent(0.0, FaultKind.CRASH, "dram1")])
    report = run_chaos(
        store, small_spec(), schedule=schedule, control_plane=ControlPlane()
    )
    ((_, result),) = executed(report, "repair_node")
    assert result["duration_s"] > 0
    journal = store.cluster.journal
    (crash,) = of_kind(journal, "fault_inject")
    # the action starts at its pre-check; the rebuild then runs repair_time_s
    (start,) = [
        ev for ev in of_kind(journal, "heal_verify")
        if ev.attrs["action"] == "repair_node" and ev.attrs["stage"] == "pre"
    ]
    restore = start.t_s + result["duration_s"]
    node = store.cluster.dram_nodes["dram1"]
    assert node.downtime_s == pytest.approx(restore - crash.t_s)


def test_update_skips_unreachable_log_node_and_marks_stale():
    store = small_store()
    load_store(store, small_spec())
    store.net.set_link_down("log0")
    before = store.counters["parity_deltas_skipped"]
    # update a sealed object whose stripe logs to log0 (every stripe logs to
    # both log nodes with r=3, so any sealed key works)
    key = next(k for k in sorted(store.versions) if store._locate(k)[0] is not None)
    store.update(key)
    assert store.counters["parity_deltas_skipped"] > before
    assert store.cluster.log_nodes["log0"].needs_recovery
    # recovery clears the marker and restores consistency
    from repro.core.recovery import recover_log_node

    store.net.restore_link("log0")
    recover_log_node(store, "log0")
    assert not store.cluster.log_nodes["log0"].needs_recovery
    assert check_store(store).ok

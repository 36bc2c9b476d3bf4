"""Tests for the self-healing control plane: incident detection, the
playbook, the scheduler, scoped checks, and the with/without-plane
experiment."""

import math

import pytest

from repro.baselines import make_store
from repro.bench.runner import load_store, make_scenario
from repro.chaos import (
    ChaosRun,
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultSchedule,
    RetryPolicy,
    check_store,
    run_chaos,
)
from repro.core import StoreConfig
from repro.core.adaptive import choose_log_scheme
from repro.heal import (
    ACTION_KINDS,
    Action,
    ActionScheduler,
    ControlPlane,
    INCIDENT_KINDS,
    Incident,
    experiment_ok,
    run_heal_experiment,
)
from repro.heal.plane import BLIP_GRACE_S
from repro.sim.events import EventQueue
from repro.workloads import WorkloadSpec

CFG = dict(k=3, r=3, value_size=1024, scheme="plm")


def small_store(name="logecmem", **kw):
    return make_store(name, StoreConfig(**{**CFG, **kw}))


def small_spec(**kw):
    base = dict(n_objects=60, n_requests=90, seed=7,
                read_ratio=0.5, update_ratio=0.5, value_size=1024)
    base.update(kw)
    return WorkloadSpec(**base)


def attached_plane(store):
    plane = ControlPlane()
    plane.attach(store, policy=RetryPolicy(jitter_fraction=0.0))
    return plane


def drive(store, plane, queue, steps=40, dt=1e-3):
    """Advance the clock in small ticks, healing transients and polling the
    plane, until the action queue drains (or the step budget runs out)."""
    clock = store.cluster.clock
    plane.poll(clock.now)
    for _ in range(steps):
        clock.advance(dt)
        queue.run_until(clock.now)
        plane.poll(clock.now)
        if not plane.pending:
            break


def heal_pipeline_stages(journal, seq):
    """The heal_* journal stages recorded for one action/incident seq."""
    stages = []
    for ev in journal.to_dicts():
        if not ev["kind"].startswith("heal_") or ev["attrs"].get("seq") != seq:
            continue
        stage = ev["kind"]
        if stage == "heal_verify":
            stage += ":" + ev["attrs"]["stage"]
        stages.append(stage)
    return stages


# ------------------------------------------------------------------ taxonomy


def test_taxonomies_are_closed():
    with pytest.raises(ValueError):
        Incident(kind="gremlin", node_id="dram0", detected_s=0.0, seq=0)  # simlint: disable=SIM008
    with pytest.raises(ValueError):
        Action(kind="reboot_universe", node_id="dram0", seq=0)  # simlint: disable=SIM008
    assert INCIDENT_KINDS == tuple(sorted(INCIDENT_KINDS))
    assert ACTION_KINDS == tuple(sorted(ACTION_KINDS))


def test_choose_log_scheme_targets():
    # stalls push toward pure parity logging (sequential appends)
    assert choose_log_scheme("plm", sync_stalls=3, random_writes=0,
                             flush_records=0) == "pl"
    assert choose_log_scheme("pl", sync_stalls=3, random_writes=0,
                             flush_records=0) == "pl"
    # random-write-heavy disks prefer the merge-friendly layout
    assert choose_log_scheme("plr", sync_stalls=0, random_writes=10,
                             flush_records=2) == "plm"
    # nothing wrong: keep the current layout
    assert choose_log_scheme("plm", sync_stalls=0, random_writes=0,
                             flush_records=5) == "plm"


# ------------------------------------------- per-fault-family incident tests


FAMILIES = [
    # (fault kind, target, expected incident, expected first action)
    ("crash", "dram", "node_crash", "repair_node"),
    ("blip", "dram", "node_blip", "observe"),
    ("slow", "dram", "straggler", "traffic_backoff"),
    ("partition", "dram", "partition", "traffic_backoff"),
    ("stall", "log", "disk_stall", "scheme_switch"),
    ("crash", "log", "stale_parity", "recover_log"),
]


def _fault_event(kind, node, t):
    k = FaultKind(kind)
    if k is FaultKind.CRASH:
        return FaultEvent(t, k, node)
    if k is FaultKind.SLOW:
        return FaultEvent(t, k, node, duration_s=1e-3, magnitude=4.0)
    return FaultEvent(t, k, node, duration_s=1e-3)


@pytest.mark.parametrize("fault,target,incident,action", FAMILIES)
def test_fault_family_detected_and_remediated(fault, target, incident, action):
    store = small_store()
    load_store(store, small_spec())
    plane = attached_plane(store)
    injector = FaultInjector(store.cluster)
    queue = EventQueue()
    clock = store.cluster.clock

    node = sorted(store.cluster.dram_nodes if target == "dram"
                  else store.cluster.log_nodes)[0]
    injector.apply(_fault_event(fault, node, clock.now), clock.now, queue)
    drive(store, plane, queue)

    kinds = [inc["kind"] for inc in plane.report()["incidents"]]
    assert incident in kinds, kinds
    executed = [rec["action"]["kind"] for rec in plane.executed]
    assert action in executed, executed

    # the journal shows the full pipeline for the first action, in order
    assert heal_pipeline_stages(store.cluster.journal, 0) == [
        "heal_detect",
        "heal_propose",
        "heal_verify:pre",
        "heal_execute",
        "heal_verify:post",
    ]
    # and the store came out invariant-clean
    assert not check_store(store).violations


def test_buffer_overrun_detected_from_counter_movement():
    store = small_store()
    load_store(store, small_spec())
    plane = attached_plane(store)
    nid = sorted(store.cluster.log_nodes)[0]
    store.cluster.log_nodes[nid].sync_flush_stalls += 3

    drive(store, plane, EventQueue())

    (inc,) = plane.report()["incidents"]
    assert inc["kind"] == "buffer_overrun" and inc["node"] == nid
    assert inc["details"]["stalls"] == 3
    (rec,) = plane.executed
    assert rec["action"]["kind"] == "flush_logs"
    assert rec["result"]["status"] == "done"
    assert heal_pipeline_stages(store.cluster.journal, 0) == [
        "heal_detect",
        "heal_propose",
        "heal_verify:pre",
        "heal_execute",
        "heal_verify:post",
    ]


def test_detector_suppresses_duplicate_open_incidents():
    store = small_store()
    plane = attached_plane(store)
    journal = store.cluster.journal

    def detected():
        return [ev.attrs["kind"] for ev in journal.of_kind("heal_detect")]

    for _ in range(3):
        journal.emit("fault_inject", kind="crash", node="dram0",
                     duration_s=0.0, magnitude=0.0)
    plane.poll(0.0)
    assert detected() == ["node_crash"]
    assert plane.report()["incidents_suppressed"] == 2
    assert store.cluster.counters["heal_incidents_suppressed"] == 2
    # once resolved, the same fault raises a fresh incident
    journal.emit("repair_done", node="dram0", repair_time_s=0.0)
    journal.emit("fault_inject", kind="crash", node="dram0",
                 duration_s=0.0, magnitude=0.0)
    plane.poll(1.0)
    assert detected() == ["node_crash", "node_crash"]
    first, second = plane.report()["incidents"]
    assert first["resolved"] and first["resolved_s"] == 1.0
    assert not second["resolved"]
    assert plane.report()["incidents_suppressed"] == 2


def _two_stalls_on_log0(duration_ms, gap_ms):
    """A chaos run whose only faults are two disk stalls on log0."""
    store, spec = make_scenario(n_objects=600, n_requests=1200, seed=42)
    load_store(store, spec)
    start, ms = store.cluster.clock.now, 1e-3
    schedule = FaultSchedule([
        FaultEvent(start + 10 * ms, FaultKind.STALL, "log0", duration_s=duration_ms * ms),
        FaultEvent(start + (10 + gap_ms) * ms, FaultKind.STALL, "log0",
                   duration_s=duration_ms * ms),
    ])
    plane = ControlPlane()
    ChaosRun(store, spec, schedule, control_plane=plane).execute()
    return store, plane


def proposed(journal, action):
    return [ev.attrs["node"] for ev in journal.of_kind("heal_propose")
            if ev.attrs["action"] == action]


def test_separated_disk_stalls_raise_one_incident_each():
    """A stall has no closing event: it resolves at the first poll at or
    after its window ends, so a later stall on the same node is a fresh
    incident that gets its own scheme_switch, not a suppressed duplicate."""
    store, plane = _two_stalls_on_log0(duration_ms=5, gap_ms=130)
    stalls = [i for i in plane.incidents if i.kind == "disk_stall"]
    assert [i.node_id for i in stalls] == ["log0", "log0"]
    assert plane.suppressed == 0
    assert proposed(store.cluster.journal, "scheme_switch") == ["log0", "log0"]
    for inc in stalls:
        assert inc.resolved
        assert inc.resolved_s >= inc.details["at_s"] + inc.details["duration_s"]


def test_separated_overrun_episodes_raise_one_incident_each():
    """An overrun resolves at the first poll that sees no new sync-flush
    stalls on its node; the next episode gets its own flush_logs."""
    store = small_store()
    load_store(store, small_spec())
    plane = attached_plane(store)
    node = store.cluster.log_nodes["log0"]
    for stalls in (3, 1):
        node.sync_flush_stalls += stalls
        drive(store, plane, EventQueue())
    overruns = [i for i in plane.incidents if i.kind == "buffer_overrun"]
    assert [(i.node_id, i.details["stalls"]) for i in overruns] == [("log0", 3), ("log0", 1)]
    assert all(i.resolved for i in overruns)
    assert plane.suppressed == 0
    assert proposed(store.cluster.journal, "flush_logs") == ["log0", "log0"]


def test_overruns_under_real_backpressure_resolve_between_episodes():
    """Two 300 ms stalls push log0's disk backlog past its bound twice; each
    backpressure episode is its own incident."""
    store, plane = _two_stalls_on_log0(duration_ms=300, gap_ms=360)
    overruns = [i for i in plane.incidents if i.kind == "buffer_overrun"]
    assert len(overruns) == 2 and all(i.resolved for i in overruns)
    assert plane.suppressed == 0
    assert proposed(store.cluster.journal, "flush_logs") == ["log0", "log0"]


def test_time_resolved_incidents_do_not_retry_waiting_repairs():
    """Only a node or link coming back retries a repair short of k chunks;
    a stall or overrun ending is not such an event."""
    store = small_store()
    plane = attached_plane(store)
    journal = store.cluster.journal
    plane._unrepaired.append(("dram0", "node_crash"))
    journal.emit("fault_inject", kind="stall", node="log0",
                 duration_s=1e-3, magnitude=0.0)
    store.cluster.log_nodes["log0"].sync_flush_stalls += 1
    plane.poll(0.0)
    plane.poll(2e-3)  # the stall window has passed, no new overrun stalls
    assert all(i.resolved for i in plane.incidents)
    assert proposed(journal, "repair_node") == []
    assert plane._unrepaired == [("dram0", "node_crash")]


def test_blip_beyond_grace_escalates_to_repair():
    """A blip that outlives the observation grace period turns into a full
    repair via the observe -> escalate path."""
    store = small_store()
    load_store(store, small_spec())
    plane = attached_plane(store)
    injector = FaultInjector(store.cluster)
    queue = EventQueue()
    clock = store.cluster.clock
    victim = sorted(store.cluster.dram_nodes)[0]

    injector.apply(FaultEvent(clock.now, FaultKind.BLIP, victim,
                              duration_s=50e-3), clock.now, queue)
    # 10 ms: past the grace period, well before the blip self-heals
    assert BLIP_GRACE_S < 10e-3
    drive(store, plane, queue, steps=10)

    executed = [rec["action"]["kind"] for rec in plane.executed]
    assert executed[:2] == ["observe", "repair_node"]
    assert store.cluster.dram_nodes[victim].alive
    assert not check_store(store).violations


# ------------------------------------------------------------------ scheduler


def test_scheduler_rate_limits_releases():
    sched = ActionScheduler(min_gap_s=1e-3)
    for i in range(3):
        sched.push(Action(kind="observe", node_id=f"n{i}", seq=i))
    assert sched.next_ready(0.0).seq == 0
    assert sched.next_ready(0.0) is None          # gap not elapsed
    assert sched.next_ready(0.5e-3) is None
    assert sched.next_ready(1e-3).seq == 1


def test_scheduler_defer_keeps_slot_and_exhausts():
    sched = ActionScheduler(min_gap_s=0.0, max_defers=2)
    first = Action(kind="recover_log", node_id="log0", seq=0)
    sched.push(first)
    sched.push(Action(kind="flush_logs", node_id="log0", seq=1))
    a = sched.next_ready(0.0)
    assert a.seq == 0
    assert sched.defer(a, until_s=5.0)
    # the deferred action blocks its node: seq 1 cannot overtake seq 0
    assert sched.next_ready(1.0) is None
    b = sched.next_ready(5.0)
    assert b.seq == 0
    assert sched.defer(b, until_s=6.0)
    c = sched.next_ready(6.0)
    assert not sched.defer(c, until_s=7.0)        # max_defers exhausted


# ----------------------------------------------------------------- experiment


def test_heal_experiment_improves_mttr_and_availability():
    doc = run_heal_experiment(n_objects=200, n_requests=200, seed=42)
    assert experiment_ok(doc) == []
    disabled, enabled = doc["disabled"], doc["enabled"]
    assert disabled["faults_fired"] == enabled["faults_fired"]
    assert disabled["faults_fired"].get("crash", 0) > 0
    assert enabled["mttr_ms"] < disabled["mttr_ms"]
    assert enabled["availability_pct"] > disabled["availability_pct"]
    assert enabled["violations"] == 0
    assert math.isfinite(enabled["mttr_ms"])

    # acceptance: every executed action is bracketed by verifications whose
    # post-check finds nothing new; a recover_log's pre-check may see the
    # stale parities it exists to fix
    events = doc["reports"]["enabled"].events
    heal = [e for e in events if e["kind"].startswith("heal_")]
    for ev in heal:
        if ev["kind"] != "heal_execute":
            continue
        seq = ev["attrs"]["seq"]
        idx = heal.index(ev)
        pre = [e for e in heal[:idx]
               if e["kind"] == "heal_verify" and e["attrs"]["seq"] == seq
               and e["attrs"]["stage"] == "pre"]
        post = [e for e in heal[idx:]
                if e["kind"] == "heal_verify" and e["attrs"]["seq"] == seq
                and e["attrs"]["stage"] == "post"]
        assert pre, ev
        assert pre[-1]["attrs"]["ok"] or ev["attrs"]["action"] == "recover_log", ev
        assert post and post[0]["attrs"]["ok"], ev


def test_heal_experiment_deterministic():
    kw = dict(n_objects=120, n_requests=120, seed=9)
    a = run_heal_experiment(**kw)
    b = run_heal_experiment(**kw)
    for arm in ("disabled", "enabled"):
        assert a[arm]["fingerprint"] == b[arm]["fingerprint"]
    a.pop("reports")
    b.pop("reports")
    assert a == b


def test_heal_drill_on_two_mixes():
    """The plane's measurable contribution on an update-light and an
    update-heavy mix: both arms pass ``experiment_ok``, every run acts or
    escalates, at least one mix draws a crash the plane strictly improves
    MTTR and availability on, and a rerun reproduces both fingerprints."""
    kw = dict(n_objects=400, n_requests=400, seed=42)
    docs = {ratio: run_heal_experiment(ratio=ratio, **kw) for ratio in ("95:5", "50:50")}
    for ratio, doc in docs.items():
        assert not experiment_ok(doc), (ratio, experiment_ok(doc))
        assert doc["heal"]["actions_executed"] + doc["heal"]["escalations"] >= 1
    assert any(
        doc["disabled"]["faults_fired"].get("crash", 0) > 0
        and doc["mttr_improvement_ms"] > 0
        and doc["availability_gain_pct"] > 0
        for doc in docs.values()
    )
    again = run_heal_experiment(ratio="95:5", **kw)
    for arm in ("disabled", "enabled"):
        assert again[arm]["fingerprint"] == docs["95:5"][arm]["fingerprint"]


def test_run_chaos_without_a_plane_repairs_nothing():
    """The plane is the only remediation path: without one, crashed nodes
    stay down and a partitioned log node's missed deltas stay stale."""
    store = small_store()
    schedule = FaultSchedule([
        FaultEvent(0.0, FaultKind.CRASH, "dram0"),
        FaultEvent(0.0, FaultKind.CRASH, "log0"),
        FaultEvent(0.0, FaultKind.PARTITION, "log1", duration_s=0.01),
    ])
    spec = small_spec(read_ratio=0.0, update_ratio=1.0)
    report = run_chaos(store, spec, schedule=schedule)
    cluster = store.cluster
    assert report.heal == {}
    assert not cluster.dram_nodes["dram0"].alive
    assert not cluster.log_nodes["log0"].alive
    log1 = cluster.log_nodes["log1"]
    assert log1.alive and log1.needs_recovery and cluster.network.reachable("log1")


def test_repair_short_of_k_chunks_is_retried_once_a_source_is_back():
    """Two DRAM nodes and both log nodes down at once is more than r: the
    first repairs cannot gather k chunks.  They are retried at the next
    closing event (a log node's recovery), and every node comes back."""
    store = small_store()
    schedule = FaultSchedule([
        FaultEvent(0.0, FaultKind.CRASH, node)
        for node in ("dram0", "dram1", "log0", "log1")
    ])
    report = run_chaos(store, small_spec(), schedule=schedule,
                       control_plane=ControlPlane())
    repairs = [(rec["action"]["node"], rec["result"]["status"])
               for rec in report.heal["executed"]
               if rec["action"]["kind"] == "repair_node"]
    assert repairs[:2] == [("dram0", "failed"), ("dram1", "failed")]
    assert ("dram0", "done") in repairs and ("dram1", "done") in repairs
    assert all(node.alive for node in store.cluster.dram_nodes.values())
    assert report.violations == 0


def test_healed_log_partition_proposes_recover_log():
    """Resolving a log-node partition proposes recover_log ahead of
    release_backoff; a DRAM partition proposes only the release."""
    store = small_store()
    plane = attached_plane(store)
    journal = store.cluster.journal
    for node in ("dram0", "log0"):
        journal.emit("fault_inject", kind="partition", node=node, duration_s=1e-3)
        journal.emit("fault_heal", kind="partition", node=node)
    plane.poll(store.cluster.clock.now)
    proposed = [(ev.attrs["action"], ev.attrs["node"])
                for ev in journal.of_kind("heal_propose")]
    assert proposed == [
        ("traffic_backoff", "dram0"),
        ("traffic_backoff", "log0"),
        ("release_backoff", "dram0"),
        ("recover_log", "log0"),
        ("release_backoff", "log0"),
    ]


def test_plane_attach_is_single_use():
    store = small_store()
    plane = attached_plane(store)
    with pytest.raises(RuntimeError):
        plane.attach(store)
    with pytest.raises(ValueError):
        run_heal_experiment(n_objects=30, n_requests=30, plane=plane)


def test_attached_plane_rejected_before_any_arm_runs(monkeypatch):
    from repro.heal import experiment

    def no_arm_may_run(*args, **kwargs):
        raise AssertionError("an arm ran before the plane was checked")

    monkeypatch.setattr(experiment, "run_chaos", no_arm_may_run)
    with pytest.raises(ValueError, match="unattached"):
        run_heal_experiment(
            n_objects=30, n_requests=30, plane=attached_plane(small_store())
        )


def test_cli_heal_subcommand(tmp_path):
    from repro.cli import main

    out_path = tmp_path / "heal.json"
    lines = []
    rc = main(
        ["heal", "--objects", "200", "--requests", "200", "--report",
         "--out", str(out_path)],
        out=lines.append,
    )
    assert rc == 0
    text = "\n".join(str(x) for x in lines)
    assert "closed-loop resilience" in text
    assert "MTTR improvement" in text
    assert "executed actions (verification-bracketed)" in text
    import json

    doc = json.loads(out_path.read_text())
    assert "reports" not in doc
    assert doc["enabled"]["mttr_ms"] < doc["disabled"]["mttr_ms"]


# ------------------------------------------------------------- scheme switch


def test_switch_scheme_preserves_replayable_parity():
    store = small_store()
    spec = small_spec(read_ratio=0.2, update_ratio=0.8)
    load_store(store, spec)
    from repro.bench.runner import run_requests
    from repro.workloads import generate_requests
    run_requests(store, generate_requests(spec), spec)

    clock = store.cluster.clock
    nid = sorted(store.cluster.log_nodes)[0]
    node = store.cluster.log_nodes[nid]
    before = store.cluster.counters["log_scheme_switches"]
    assert node.scheme.name == "plm"
    duration = node.switch_scheme("pl", clock.now)
    assert node.scheme.name == "pl"
    assert duration > 0.0
    assert store.cluster.counters["log_scheme_switches"] == before + 1
    (ev,) = store.cluster.journal.of_kind("scheme_switch")
    assert ev.attrs["node"] == nid and ev.attrs["new"] == "pl"
    # the migrated log still replays to the up-to-date parity encode
    assert not check_store(store).violations
    # switching to the current layout is free
    assert node.switch_scheme("pl", clock.now) == 0.0

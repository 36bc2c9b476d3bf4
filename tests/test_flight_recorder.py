"""Tests for the flight recorder: the event journal, per-layer emissions,
byte-determinism of the JSONL/Prometheus exports, fault-window timeline
attribution, and the ``inspect`` CLI subcommand."""

import json
import math

import pytest

from repro.analysis.timeline import attribute_latency, event_timeline, fault_windows
from repro.baselines import make_store
from repro.bench.runner import load_store, run_requests
from repro.chaos import run_chaos
from repro.cli import main
from repro.core.config import StoreConfig
from repro.core.repair import repair_node
from repro.obs import EVENT_KINDS, EventJournal, NULL_JOURNAL, prometheus_text
from repro.sim.clock import SimClock
from repro.sim.resources import Counters
from repro.workloads import WorkloadSpec, generate_requests
from tests.helpers import of_kind


def _spec(n_objects=120, n_requests=160, seed=7):
    return WorkloadSpec(
        n_objects=n_objects, n_requests=n_requests, value_size=512, seed=seed,
        read_ratio=0.5, update_ratio=0.5,
    )


def _store(**cfg):
    cfg.setdefault("payload_scale", 1 / 16)
    return make_store("logecmem", StoreConfig(k=4, r=3, value_size=512, **cfg))


# -------------------------------------------------------------- journal core


def test_emit_stamps_clock_and_counts():
    clock = SimClock()
    counters = Counters()
    journal = EventJournal(clock, counters)
    clock.advance(1.5)
    ev = journal.emit("gc_pass", stripes_collected=3)
    assert ev.t_s == 1.5
    assert ev.attrs["stripes_collected"] == 3
    assert journal.counts["gc_pass"] == 1
    assert counters.get("events_gc_pass") == 1


def test_emit_rejects_unknown_kind():
    journal = EventJournal(SimClock())
    with pytest.raises(ValueError):
        journal.emit("not_a_kind")  # simlint: disable=SIM004


def test_ring_bounded_counts_survive_eviction():
    journal = EventJournal(SimClock(), capacity=4)
    for _ in range(10):
        journal.emit("retry")
    assert len(journal.events()) == 4
    assert journal.dropped == 6
    assert journal.counts["retry"] == 10  # totals outlive the ring


def test_attrs_may_carry_their_own_kind_key():
    # fault events have a fault `kind` attr distinct from the event kind
    journal = EventJournal(SimClock())
    ev = journal.emit("fault_inject", kind="blip", node="log0")
    assert ev.kind == "fault_inject"
    assert ev.attrs["kind"] == "blip"


def test_null_journal_records_nothing():
    NULL_JOURNAL.emit("retry", op="read")
    assert NULL_JOURNAL.events() == []
    assert NULL_JOURNAL.counts == {}


def test_jsonl_lines_parse_and_kinds_are_valid():
    store = _store()
    spec = _spec()
    load_store(store, spec)
    run_requests(store, generate_requests(spec), spec)
    text = store.cluster.journal.to_jsonl()
    lines = text.splitlines()
    assert lines, "a workload run must journal events"
    for line in lines:
        doc = json.loads(line)
        assert doc["kind"] in EVENT_KINDS
        assert set(doc) == {"t_s", "kind", "attrs"}


# -------------------------------------------------------- per-layer emission


def test_log_flush_and_lazy_merge_journaled_for_plm():
    store = _store(scheme="plm")
    spec = _spec()
    load_store(store, spec)
    run_requests(store, generate_requests(spec), spec)
    journal = store.cluster.journal
    flushes = of_kind(journal, "log_flush")
    assert flushes and all(e.attrs["scheme"] == "plm" for e in flushes)
    assert sum(e.attrs["records"] for e in flushes) == store.cluster.counters.get(
        "log_flush_records"
    )
    assert journal.counts.get("lazy_merge", 0) == store.cluster.counters.get(
        "log_lazy_merges"
    )


def test_buffer_merge_journaled_when_merging_enabled():
    store = _store(scheme="pl", merge_buffer=True)
    spec = _spec()
    load_store(store, spec)
    # hammer one key: repeated deltas for the same (stripe, parity) coalesce
    key = "user" + "0" * 15 + "0"
    for _ in range(6):
        store.update(key)
    journal = store.cluster.journal
    merges = of_kind(journal, "buffer_merge")
    assert merges, "duplicate (stripe, parity) appends must journal merges"
    assert store.cluster.counters.get("log_buffer_merges") == len(merges)


def test_repair_events_bracket_the_repair():
    store = _store()
    spec = _spec()
    load_store(store, spec)
    store.finalize()
    victim = "dram1"
    store.cluster.dram_nodes[victim].fail(store.cluster.clock.now)
    result = repair_node(store, victim)
    journal = store.cluster.journal
    (start,) = of_kind(journal, "repair_start")
    (done,) = of_kind(journal, "repair_done")
    assert start.attrs["node"] == done.attrs["node"] == victim
    assert done.attrs["repair_time_s"] == pytest.approx(result.repair_time_s)
    assert done.t_s >= start.t_s


def test_chaos_run_journals_faults_and_attribution():
    report = run_chaos(_store(), _spec(seed=11), expected_faults=4.0)
    kinds = {e["kind"] for e in report.events}
    assert "fault_inject" in kinds
    injected = [e for e in report.events if e["kind"] == "fault_inject"]
    assert len(injected) == sum(report.faults_fired.values())
    windows = fault_windows(report.events)
    assert len(windows) == len(injected)
    for row in report.fault_attribution:
        assert row["ops_in_window"] >= 0
        assert row["kind"] in ("crash", "blip", "slow", "partition", "stall")


# ------------------------------------------------------------- determinism


def test_same_seed_runs_byte_identical_journal_and_exporter():
    def one():
        store = _store(scheme="plm")
        spec = _spec()
        load_store(store, spec)
        run_requests(store, generate_requests(spec), spec)
        return (
            store.cluster.journal.to_jsonl(),
            prometheus_text(store.metrics, store.cluster.journal),
        )

    assert one() == one()


def test_same_seed_chaos_byte_identical_journal():
    a = run_chaos(_store(), _spec(seed=5), expected_faults=3.0)
    b = run_chaos(_store(), _spec(seed=5), expected_faults=3.0)
    assert json.dumps(a.events, sort_keys=True) == json.dumps(b.events, sort_keys=True)
    assert a.fault_attribution == b.fault_attribution


def test_prometheus_families_present():
    store = _store()
    spec = _spec()
    load_store(store, spec)
    run_requests(store, generate_requests(spec), spec)
    text = prometheus_text(store.metrics, store.cluster.journal)
    assert text.endswith("\n")
    assert "# TYPE repro_counter_total counter" in text
    assert "# TYPE repro_events_total counter" in text
    assert "# TYPE repro_op_latency_seconds summary" in text
    assert 'repro_op_latency_seconds{op="read"' in text


# ----------------------------------------------------------------- timeline


def _ev(t_s, kind, /, **attrs):
    return {"t_s": t_s, "kind": kind, "attrs": attrs}


def test_fault_windows_pair_with_closers():
    events = [
        _ev(1.0, "fault_inject", kind="crash", node="dram0", duration_s=0.0),
        _ev(1.2, "fault_inject", kind="blip", node="log1", duration_s=0.5),
        _ev(1.5, "repair_done", node="dram0", repair_time_s=0.5),
        _ev(1.7, "fault_heal", kind="blip", node="log1"),
    ]
    w = fault_windows(events)
    assert [(x.kind, x.node_id, x.start_s, x.end_s) for x in w] == [
        ("crash", "dram0", 1.0, 1.5),
        ("blip", "log1", 1.2, 1.7),
    ]


def test_stall_window_closes_by_duration_and_unhealed_stays_open():
    events = [
        _ev(2.0, "fault_inject", kind="stall", node="log0", duration_s=0.25),
        _ev(3.0, "fault_inject", kind="crash", node="dram1", duration_s=0.0),
    ]
    stall, crash = fault_windows(events)
    assert stall.end_s == 2.25 and stall.closed
    assert not crash.closed
    assert crash.contains(99.0)
    assert crash.to_dict()["end_s"] is None


def test_open_fault_window_clamps_to_run_end():
    """Regression: an unhealed fault used to stay open at inf (or fall out of
    MTTR entirely); with a horizon it clamps to run end and stays counted."""
    from repro.analysis import mttr_s

    events = [_ev(1.0, "fault_inject", kind="crash", node="dram0", duration_s=0.0)]
    (w,) = fault_windows(events, run_end_s=3.5)
    assert not w.healed and w.closed
    assert w.end_s == 3.5 and w.duration_s == 2.5
    assert w.to_dict() == {
        "kind": "crash", "node": "dram0", "start_s": 1.0,
        "end_s": 3.5, "healed": False,
    }
    assert mttr_s([w]) == 2.5
    # without a horizon the window stays open at inf -- never dropped
    (w2,) = fault_windows(events)
    assert not w2.healed and not w2.closed
    assert mttr_s([w2]) == math.inf
    # a horizon before the fault start clamps to zero, never negative
    (w3,) = fault_windows(events, run_end_s=0.5)
    assert w3.duration_s == 0.0
    # healed windows are untouched by the horizon, and MTTR averages them
    closed = fault_windows(
        events + [_ev(2.0, "repair_done", node="dram0", repair_time_s=1.0)],
        run_end_s=3.5,
    )
    assert closed[0].healed and closed[0].end_s == 2.0
    assert mttr_s([]) == 0.0


def test_attribute_latency_shift():
    windows = fault_windows(
        [_ev(1.0, "fault_inject", kind="stall", node="log0", duration_s=1.0)]
    )
    samples = [(0.5, 100e-6, "read"), (1.5, 400e-6, "read"), (2.5, 100e-6, "read")]
    (row,) = attribute_latency(windows, samples)
    assert row["ops_in_window"] == 1
    assert row["mean_in_us"] == pytest.approx(400.0)
    assert row["mean_baseline_us"] == pytest.approx(100.0)
    assert row["shift_pct"] == pytest.approx(300.0)


def test_event_timeline_sparklines():
    events = [_ev(float(i), "retry", op="read") for i in range(10)]
    out = event_timeline(events, width=20)
    assert "retry" in out


# ---------------------------------------------------------------- CLI smoke


def _run(argv):
    lines: list[str] = []
    rc = main(argv, out=lambda text: lines.append(str(text)))
    return rc, "\n".join(lines)


def test_inspect_command(tmp_path):
    out_path = tmp_path / "journal.jsonl"
    rc, out = _run(["inspect", "--objects", "120", "--requests", "160",
                    "--tail", "3", "--journal-out", str(out_path)])
    assert rc == 0
    assert "node" in out and "log_flush" in out
    dumped = out_path.read_text().splitlines()
    assert dumped and all(json.loads(line)["kind"] in EVENT_KINDS for line in dumped)


def test_inspect_chaos_command():
    rc, out = _run(["inspect", "--objects", "120", "--requests", "160",
                    "--chaos", "--tail", "2", "--timeline"])
    assert rc == 0
    assert "faults" in out


def test_inspect_prometheus_flag():
    rc, out = _run(["inspect", "--objects", "100", "--requests", "100",
                    "--prometheus"])
    assert rc == 0
    assert "repro_counter_total" in out

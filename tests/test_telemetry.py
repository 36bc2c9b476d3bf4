"""Sim-time telemetry: series properties, sampler wiring, SLO signals.

Covers the telemetry layer end to end:

* property tests (hypothesis) for the series contracts -- monotone
  timestamps, window-sum conservation, ring eviction preserving totals;
* the engine's sampler wiring: tick grid, ops conservation, default-off
  byte-stability of the result JSON;
* SLO burn edge detection -> journal events -> heal plane incidents and
  its backoff playbook;
* the chaos+plane integration: a burn fires, backoff executes, occupancy
  rises through the fault window and recovers, invariants stay clean;
* byte-determinism of the CSV/JSONL/Prometheus exporters and of the
  ``repro watch`` document across repeated runs.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.ascii_chart import strip_chart, time_ruler
from repro.analysis.timeline import fault_windows, telemetry_overlay
from repro.baselines import make_store
from repro.chaos import run_chaos
from repro.core.config import StoreConfig
from repro.engine.load import build_jobs, run_point, run_watch, watch_json
from repro.heal.plane import ControlPlane
from repro.obs.export import (
    timeseries_csv,
    timeseries_jsonl,
    timeseries_prometheus,
)
from repro.obs.timeseries import (
    SLOTracker,
    Series,
    TelemetrySampler,
    exact_quantile,
)
from repro.workloads import WorkloadSpec


# --------------------------------------------------------------- properties


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
def test_gauge_timestamps_monotone_nondecreasing(values):
    g = Series("g", "gauge")
    for i, v in enumerate(values):
        g.record(float(i), v)
    points = g.points()
    assert all(points[i][0] <= points[i + 1][0] for i in range(len(points) - 1))


def test_gauge_rejects_backwards_timestamp():
    g = Series("g", "gauge")
    g.record(1.0, 0.0)
    with pytest.raises(ValueError):
        g.record(0.5, 0.0)


@given(
    st.lists(
        st.tuples(st.floats(min_value=0, max_value=100), st.booleans()),
        min_size=1,
        max_size=60,
    )
)
def test_windowed_counter_conserves_total(ops):
    """sum(recorded windows) + open window == ops observed, at every point."""
    sampler = TelemetrySampler(interval_s=1.0)
    observed = 0
    for latency_s, close in ops:
        sampler.observe_op(float(sampler.samples), latency_s, "read")
        observed += 1
        if close:
            sampler.sample(sampler.samples + 1.0)
        windows = sampler.series["client.ops"]
        assert windows.total + sampler.window_ops == observed
    assert windows.count == sampler.samples
    assert windows.to_dict()["kind"] == "windowed_counter"


@given(
    st.integers(min_value=1, max_value=8),
    st.lists(st.floats(min_value=0, max_value=1e3), min_size=1, max_size=64),
)
def test_ring_eviction_preserves_totals(capacity, values):
    g = Series("g", "gauge", capacity=capacity)
    for i, v in enumerate(values):
        g.record(float(i), v)
    assert len(g.points()) == min(capacity, len(values))
    assert g.count == len(values)
    assert g.total == pytest.approx(sum(values))


@given(
    st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=100),
    st.floats(min_value=0.01, max_value=1.0),
)
def test_exact_quantile_is_order_statistic(values, q):
    ordered = sorted(values)
    result = exact_quantile(ordered, q)
    assert result in ordered
    # at least ceil(q*n) values are <= result
    assert sum(1 for v in ordered if v <= result) >= q * len(ordered) - 1e-9


def test_sliding_quantile_prunes_old_observations():
    # the p99 window spans P99_WINDOWS (5) intervals: 1.0 s here
    sampler = TelemetrySampler(interval_s=0.2)
    sampler.observe_op(0.0, 100e-6, "read")
    sampler.observe_op(0.8, 50e-6, "read")
    p99 = sampler.series["client.p99_us"]
    sampler.sample(1.0)
    assert p99.last() == (1.0, 100.0)  # both in window: the p99 of two is the max
    sampler.sample(1.6)
    assert p99.last() == (1.6, 50.0)  # the 100 at t=0 fell out
    sampler.sample(3.0)
    assert p99.last() == (3.0, 0.0)  # idle window has no tail
    assert p99.to_dict()["kind"] == "sliding_quantile"


# ------------------------------------------------------------------ sampler


def test_sampler_tick_grid_and_alignment():
    s = TelemetrySampler(interval_s=0.5)
    assert s.next_tick() == 0.5
    s.align(2.2)  # run phase starts mid-clock: skip past ticks
    assert s.next_tick() == 2.5
    assert s.pump(3.6) == 3  # 2.5, 3.0, 3.5
    ts = [t for t, _ in s.series["client.ops"].points()]
    assert ts == [2.5, 3.0, 3.5]
    s.finish(3.7)  # final off-grid point
    assert s.series["client.ops"].last()[0] == 3.7


def test_sampler_stale_tick_rejected():
    s = TelemetrySampler(interval_s=1.0)
    assert s.sample(1.0)
    assert not s.sample(1.0)
    assert not s.sample(0.5)
    assert s.samples == 1


def _engine_result(telemetry_interval_s=0.0, slo_p99_us=0.0, faults=None):
    jobs, profile, dram_ids, log_ids = build_jobs(n_objects=60, n_requests=150)
    res = run_point(
        jobs,
        profile,
        16,
        faults=faults,
        telemetry_interval_s=telemetry_interval_s,
        slo_p99_us=slo_p99_us,
    )
    return res, dram_ids, log_ids


def test_engine_telemetry_conserves_ops_and_is_deterministic():
    res, _, _ = _engine_result(telemetry_interval_s=5e-4, slo_p99_us=5000.0)
    tele = res.telemetry
    assert tele["samples"] > 0
    ops = tele["series"]["client.ops"]
    # windowed ops over the whole run sum to the completed jobs
    assert sum(v for _, v in ops["points"]) == res.jobs_completed
    assert ops["count"] == tele["samples"]
    # station/admission/log series all present and sampled on the same grid
    names = set(tele["series"])
    assert "admission.inflight" in names
    assert any(n.startswith("station.") and n.endswith(".util") for n in names)
    assert any(n.startswith("log.") and n.endswith(".occupancy") for n in names)
    for s in tele["series"].values():
        ts = [t for t, _ in s["points"]]
        assert ts == sorted(ts)
    res2, _, _ = _engine_result(telemetry_interval_s=5e-4, slo_p99_us=5000.0)
    assert json.dumps(res.to_dict(), sort_keys=True) == json.dumps(
        res2.to_dict(), sort_keys=True
    )


def test_engine_telemetry_off_leaves_result_unchanged():
    res, _, _ = _engine_result()
    doc = res.to_dict()
    assert "telemetry" not in doc
    res2, _, _ = _engine_result()
    assert json.dumps(doc, sort_keys=True) == json.dumps(
        res2.to_dict(), sort_keys=True
    )


def test_station_utilisation_bounded():
    res, _, _ = _engine_result(telemetry_interval_s=5e-4)
    for name, series in res.telemetry["series"].items():
        if name.startswith("station.") and name.endswith(".util"):
            assert all(0.0 <= v <= 1.0 for _, v in series["points"])


# ----------------------------------------------------------------- SLO edge


def _burn_window(tracker, t, n_bad=10):
    for _ in range(n_bad):
        tracker.observe(2000.0)  # above target
    return tracker.sample(t)


def test_slo_tracker_edges_emit_events():
    from repro.obs.events import EventJournal
    from repro.sim.clock import SimClock

    journal = EventJournal(SimClock())
    tracker = SLOTracker(target_p99_us=1000.0, journal=journal)
    # window 1: all good -> no burn
    tracker.observe(10.0)
    assert tracker.sample(1.0) == 0.0
    assert journal.counts == {}
    # window 2: all bad -> burn rate 1/0.01 = 100, rising edge
    burn = _burn_window(tracker, 2.0)
    assert burn == pytest.approx(100.0)
    assert journal.counts.get("telemetry_slo_burn") == 1
    # window 3: still bad -> no duplicate rising edge
    _burn_window(tracker, 3.0)
    assert journal.counts.get("telemetry_slo_burn") == 1
    # window 4: recovered -> falling edge
    tracker.observe(10.0)
    tracker.sample(4.0)
    assert journal.counts.get("telemetry_slo_ok") == 1
    summary = tracker.summary()
    assert summary["episodes"] == 1
    assert summary["samples_burning"] == 2
    assert summary["max_burn_rate"] == pytest.approx(100.0)


def test_empty_window_keeps_prior_state():
    tracker = SLOTracker(target_p99_us=1000.0)
    _burn_window(tracker, 1.0)
    assert tracker.burning
    tracker.sample(2.0)  # no ops at all: stays burning (no evidence of recovery)
    assert tracker.episodes == 1


def _slo_plane():
    store = make_store("logecmem", StoreConfig(k=3, r=3, value_size=1024))
    return store.cluster, ControlPlane().attach(store)


def test_detector_maps_slo_events_to_incidents():
    cluster, plane = _slo_plane()
    cluster.journal.emit("telemetry_slo_burn", node="_cluster", burn_rate=5.0)
    plane.poll(1.0)
    (inc,) = plane.report()["incidents"]
    assert (inc["kind"], inc["node"]) == ("slo_burn", "_cluster")
    assert not inc["resolved"]
    # dedupe: a second burn for the same node while open is suppressed
    cluster.journal.emit("telemetry_slo_burn", node="_cluster", burn_rate=9.0)
    plane.poll(2.0)
    assert len(plane.report()["incidents"]) == 1
    assert plane.report()["incidents_suppressed"] == 1
    cluster.journal.emit("telemetry_slo_ok", node="_cluster")
    plane.poll(3.0)
    (inc,) = plane.report()["incidents"]
    assert inc["resolved"] and inc["resolved_s"] == 3.0


def test_proposer_backoff_playbook_for_slo_burn():
    cluster, plane = _slo_plane()
    cluster.journal.emit("telemetry_slo_burn", node="_cluster", burn_rate=5.0)
    plane.poll(1.0)
    cluster.journal.emit("telemetry_slo_ok", node="_cluster")
    plane.poll(2.0)
    proposed = cluster.journal.of_kind("heal_propose")
    assert [ev.attrs["action"] for ev in proposed] == ["traffic_backoff", "release_backoff"]
    assert plane.executed[0]["action"]["reversible"]
    assert plane.executed[0]["action"]["kind"] == "traffic_backoff"


# ------------------------------------------------------- chaos integration


def _chaos_with_telemetry(expected_faults=3.0, with_plane=True):
    store = make_store("logecmem", StoreConfig(k=6, r=3, value_size=4096))
    spec = WorkloadSpec.read_update(
        "50:50", n_objects=120, n_requests=300, value_size=4096, seed=42
    )
    # 2048 points at 0.2 ms hold the whole ~212 ms run; the default 512
    # would keep only its last ~102 ms, past every healed fault window
    telemetry = TelemetrySampler(
        interval_s=2e-4,
        capacity=2048,
        journal=store.cluster.journal,
        counters=store.cluster.counters,
        slo=SLOTracker(
            target_p99_us=400.0,
            journal=store.cluster.journal,
            counters=store.cluster.counters,
        ),
    )
    plane = ControlPlane() if with_plane else None
    report = run_chaos(
        store,
        spec,
        expected_faults=expected_faults,
        control_plane=plane,
        telemetry=telemetry,
    )
    return report


def test_chaos_burn_fires_backoff_with_clean_invariants():
    report = _chaos_with_telemetry()
    assert not report.violations
    doc = report.to_dict()
    tele = doc["telemetry"]
    assert tele["slo"]["episodes"] >= 1
    # the plane consumed the burn event and answered with a backoff
    kinds = [e["action"]["kind"] for e in report.heal["executed"]]
    assert "traffic_backoff" in kinds
    burn_incidents = [
        i for i in report.heal["incidents"] if i["kind"] == "slo_burn"
    ]
    assert burn_incidents and burn_incidents[0]["node"] == "_cluster"


def test_chaos_occupancy_rises_through_fault_and_recovers():
    report = _chaos_with_telemetry()
    doc = report.to_dict()
    series = doc["telemetry"]["series"]
    windows = fault_windows(doc["events"], run_end_s=doc["makespan_s"])
    assert windows
    occ = next(
        series[n]["points"] for n in sorted(series) if n.endswith(".occupancy")
    )
    in_window = [v for t, v in occ if any(w.contains(t) for w in windows)]
    tail = [v for t, v in occ[-5:]]
    assert in_window, "no telemetry samples inside any fault window"
    # pressure peaked inside a window and drained by run end
    assert max(in_window) > 0
    assert min(tail) <= max(in_window)


def test_chaos_without_telemetry_unchanged():
    def outcome(telemetry):
        store = make_store("logecmem", StoreConfig(k=6, r=3, value_size=4096))
        spec = WorkloadSpec.read_update(
            "50:50", n_objects=80, n_requests=160, value_size=4096, seed=7
        )
        doc = run_chaos(
            store, spec, expected_faults=2.0, telemetry=telemetry
        ).to_dict()
        doc.pop("telemetry", None)
        return json.dumps(doc, sort_keys=True)

    bare = outcome(None)
    with_tele = outcome(TelemetrySampler(interval_s=2e-4))
    # telemetry observes; it must not perturb the simulation itself
    assert bare == with_tele


# ---------------------------------------------------------------- exporters


def _sample_telemetry():
    res, _, _ = _engine_result(telemetry_interval_s=5e-4, slo_p99_us=5000.0)
    return res


def test_export_forms_are_byte_deterministic():
    res = _sample_telemetry()
    res2 = _sample_telemetry()
    for fn in (timeseries_csv, timeseries_jsonl, timeseries_prometheus):
        assert fn(res.telemetry) == fn(res2.telemetry)
    csv = timeseries_csv(res.telemetry)
    header, first = csv.splitlines()[:2]
    assert header == "series,t_s,value"
    assert len(first.split(",")) == 3
    for line in timeseries_jsonl(res.telemetry).splitlines():
        doc = json.loads(line)
        assert set(doc) == {"kind", "series", "t_s", "value"}
    prom = timeseries_prometheus(res.telemetry)
    assert prom.startswith("# TYPE repro_timeseries gauge")


# -------------------------------------------------------------------- watch


def test_strip_chart_and_ruler_align():
    points = [(0.0, 1.0), (0.5, 2.0), (1.0, 3.0)]
    chart = strip_chart(points, width=10, t0=0.0, t1=1.0)
    assert len(chart) == 10
    ruler = time_ruler([(0.5, 1.0)], width=10, t0=0.0, t1=1.0)
    assert len(ruler) == 10
    assert ruler[0] == "·" and ruler[-1] == "▓"


def test_strip_chart_empty_and_flat():
    assert strip_chart([], width=8) == " " * 8
    flat = strip_chart([(0.0, 5.0), (1.0, 5.0)], width=4, t0=0.0, t1=1.0)
    assert "▁" in flat


def test_telemetry_overlay_renders_all_series():
    res = _sample_telemetry()
    text = telemetry_overlay(res.telemetry, width=40)
    assert "client.throughput_ops_s" in text
    assert "admission.inflight" in text
    filtered = telemetry_overlay(res.telemetry, width=40, series=["slo."])
    assert "slo.burn_rate" in filtered
    assert "admission.inflight" not in filtered
    assert telemetry_overlay({"series": {}}) == "(no telemetry)"


def test_watch_document_deterministic_and_renders():
    from repro.engine.load import render_watch

    kwargs = dict(
        n_objects=60, n_requests=150, concurrency=8, expected_faults=2.0, samples=16
    )
    doc = run_watch(**kwargs)
    doc2 = run_watch(**kwargs)
    assert watch_json(doc) == watch_json(doc2)
    assert doc["windows"], "chaos watch run drew no fault windows"
    text = render_watch(doc, width=40)
    assert text == render_watch(doc2, width=40)
    assert "watch: logecmem" in text
    assert "faults" in text  # the window ruler row
    assert "slo:" in text

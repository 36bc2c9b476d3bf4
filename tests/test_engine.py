"""Tests for the concurrent discrete-event engine (repro.engine)."""

import dataclasses
import json

import pytest

from repro.analysis.timeline import fault_windows
from repro.baselines import make_store
from repro.chaos.schedule import REPAIR_DELAY_S, FaultEvent, FaultKind
from repro.core.config import StoreConfig
from repro.engine import (
    AdmissionConfig,
    AdmissionGate,
    Engine,
    EngineConfig,
    JobSpec,
    LogBufferModel,
    Stage,
    Station,
    build_jobs,
    derive_jobs,
    exact_quantile,
    job_from_span,
    knee_summary,
    render_load,
    run_load,
    run_point,
)
from repro.engine.jobs import JobTrace, classify_phase
from repro.engine.load import load_json
from repro.obs.span import Span
from repro.sim.params import HardwareProfile
from repro.workloads.ycsb import Operation, Request


def _profile(**kw):
    return HardwareProfile(**kw)


def _cpu_job(cpu_s=1e-4, delay_s=2e-4, op="read"):
    return JobSpec(op=op, stages=(Stage("proxy_cpu", cpu_s), Stage("delay", delay_s)))


def _run(jobs, profile=None, **cfg_kw):
    faults = cfg_kw.pop("faults", None)
    engine = Engine(jobs, profile or _profile(), EngineConfig(**cfg_kw),
                    faults=faults)
    return engine.run()


# ------------------------------------------------------------------ helpers


def test_exact_quantile():
    vals = [1.0, 2.0, 3.0, 4.0]
    assert exact_quantile([], 0.99) == 0.0
    assert exact_quantile(vals, 0.0) == 1.0
    assert exact_quantile(vals, 0.5) == 2.0
    assert exact_quantile(vals, 0.99) == 4.0
    assert exact_quantile(vals, 1.0) == 4.0


def test_stage_rejects_negative_demand():
    with pytest.raises(ValueError):
        Stage("proxy_cpu", -1e-6)


def test_engine_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(concurrency=0)
    with pytest.raises(ValueError):
        EngineConfig(think_s=-1e-6)
    with pytest.raises(ValueError):
        AdmissionConfig(window=0)


# -------------------------------------------------------- span -> job stages


def test_classify_phase_maps_stations():
    root = Span("update", 0.0)
    assert classify_phase(root.child("encode_delta", 1e-5))[0].station == "proxy_cpu"
    assert classify_phase(root.child("ship_delta", 1e-5))[0].station == "proxy_nic"
    assert classify_phase(root.child("client_hop", 1e-5))[0].station == "delay"
    read = root.child("read_old", 1e-5, node="m3")
    assert classify_phase(read)[0].station == "nic:m3"
    # zero-duration phases vanish rather than producing empty stages
    assert classify_phase(root.child("decode", 0.0)) == []


def test_classify_phase_splits_multi_node_reads():
    root = Span("update", 0.0)
    xor = root.child("read_old_xor", 4e-5, node="m1", xor_node="m2")
    stages = classify_phase(xor)
    assert [s.station for s in stages] == ["nic:m1", "nic:m2"]
    assert sum(s.service_s for s in stages) == pytest.approx(4e-5)


def test_job_from_span_is_exact():
    """Stage total == root latency: the residual becomes a delay stage."""
    root = Span("update", 0.0)
    root.child("encode_delta", 1e-5)
    root.child("ship_delta", 3e-5)
    root.finish(9e-5)  # 5e-5 uncovered
    job = job_from_span(root)
    assert job.service_s == pytest.approx(9e-5)
    assert job.stages[-1].station == "delay"
    assert job.stages[-1].service_s == pytest.approx(5e-5)


# ----------------------------------------------------------------- stations


def test_station_fifo_waits():
    st = Station("proxy_cpu")
    w0, d0 = st.submit(0.0, 1e-3)
    w1, d1 = st.submit(0.0, 1e-3)
    assert (w0, d0) == (0.0, 1e-3)
    assert w1 == pytest.approx(1e-3)  # queued behind the first
    assert d1 == pytest.approx(2e-3)
    st.depart()
    st.depart()
    assert st.pending == 0
    stats = st.stats(elapsed_s=2e-3)
    assert stats["jobs"] == 2
    assert stats["utilisation"] == pytest.approx(1.0)
    assert stats["max_queue_depth"] == 2


def test_station_slowdown_scales_arrivals():
    st = Station("nic:m0")
    st.set_slowdown(4.0)
    _, done = st.submit(0.0, 1e-3)
    assert done == pytest.approx(4e-3)
    st.clear_slowdown()
    _, done = st.submit(4e-3, 1e-3)
    assert done == pytest.approx(5e-3)
    with pytest.raises(ValueError):
        st.set_slowdown(0.5)


def test_station_stall_freezes_device():
    st = Station("disk:l0")
    st.stall(5e-3)
    st.stall(1e-3)  # never shrinks
    w, done = st.submit(0.0, 1e-3)
    assert w == pytest.approx(5e-3)
    assert done == pytest.approx(6e-3)
    assert st.backlog_s(0.0) == pytest.approx(6e-3)


# ------------------------------------------------------------ admission gate


def test_admission_gate_admit_queue_reject():
    gate = AdmissionGate(AdmissionConfig(window=2, queue_cap=1))
    traces = [JobTrace(spec=_cpu_job(), client=i, issued_s=float(i)) for i in range(4)]
    verdicts = [gate.offer(t) for t in traces]
    assert verdicts == ["admit", "admit", "queue", "reject"]
    released = gate.release(now=10.0)
    assert released is traces[2]
    assert released.admission_wait_s == pytest.approx(8.0)
    stats = gate.stats()
    assert stats["admitted"] == 3
    assert stats["queued"] == 1
    assert stats["rejected"] == 1
    assert stats["max_inflight"] == 2


def test_admission_gate_unbounded_window():
    gate = AdmissionGate(AdmissionConfig(window=None))
    for i in range(50):
        assert gate.offer(JobTrace(spec=_cpu_job(), client=i, issued_s=0.0)) == "admit"
    assert gate.stats()["rejected"] == 0


# ----------------------------------------------------------- log buffer model


def test_log_buffer_pressure_edges():
    p = _profile()
    buf = LogBufferModel(
        "l0",
        dataclasses.replace(p, log_buffer_bytes=1000,
                            log_flush_threshold_bytes=400),
    )
    assert buf.high_water_bytes == int(1000 * p.log_high_water_fraction)
    buf.append(300)
    assert not buf.should_flush()  # below the flush threshold
    assert not buf.pressured
    buf.append(700)
    assert buf.pressured
    assert buf.high_water_crossings == 1
    assert buf.should_flush()
    buf.flush_inflight = True
    assert not buf.should_flush()  # one flush at a time
    buf.drained(1000)
    assert buf.nbytes == 0
    assert not buf.pressured
    assert buf.stats()["peak_bytes"] == 1000


# ------------------------------------------------------------- engine: C = 1


def test_single_client_reproduces_sequential_costs():
    """C=1, no faults: every response equals the job's service demand and
    the makespan is the serial sum -- the engine adds nothing to the store's
    own cost model."""
    jobs = [
        JobSpec("read", (Stage("nic:m0", 2e-4), Stage("delay", 1e-4))),
        JobSpec("update", (Stage("proxy_cpu", 1e-4), Stage("proxy_nic", 3e-4))),
        JobSpec("read", (Stage("delay", 5e-4),)),
    ] * 5
    res = _run(jobs, concurrency=1)
    assert res.jobs_completed == len(jobs)
    assert res.jobs_rejected == 0
    for (_, response, _), spec in zip(res.samples, jobs):
        assert response == pytest.approx(spec.service_s, rel=1e-12)
    assert res.makespan_s == pytest.approx(sum(j.service_s for j in jobs))


def test_derived_jobs_single_client_exactness():
    """Real store jobs through the engine at C=1 match the measured
    latencies byte-for-byte (the decomposition is exact by construction)."""
    jobs, profile, _, _ = build_jobs(n_objects=80, n_requests=80, seed=7)
    res = run_point(jobs, profile, concurrency=1)
    assert res.jobs_completed == len(jobs)
    for (_, response, _), spec in zip(res.samples, jobs):
        assert response == pytest.approx(spec.service_s, rel=1e-12)
    # every op of every store opens its own root span, so a write/read/delete
    # stream derives one job per request carrying that request's latency
    keys = [f"user{i}" for i in range(6)]
    requests = [
        Request(op, key)
        for op in (Operation.WRITE, Operation.READ, Operation.DELETE)
        for key in keys
    ]
    for name in ("vanilla", "replication", "ipmem", "fsmem", "logecmem"):
        cfg = StoreConfig(k=4, r=2, value_size=1024)
        jobs = derive_jobs(make_store(name, cfg), requests)
        assert [j.op for j in jobs] == [r.op.value for r in requests]
        twin = make_store(name, cfg)
        res = run_point(jobs, cfg.profile, concurrency=1)
        for (_, response, _), req in zip(res.samples, requests):
            latency = getattr(twin, req.op.value)(req.key).latency_s
            twin.cluster.clock.advance(latency)
            assert response == pytest.approx(latency, rel=1e-12), (name, req)


# ------------------------------------------------- engine: contention effects


def test_concurrency_raises_throughput_and_tail():
    jobs = [_cpu_job(cpu_s=1e-4, delay_s=9e-4)] * 400
    r1 = _run(jobs, concurrency=1)
    r8 = _run(jobs, concurrency=8)
    r32 = _run(jobs, concurrency=32)
    assert r8.throughput_ops_s > 4 * r1.throughput_ops_s
    assert r32.throughput_ops_s >= r8.throughput_ops_s * 0.99
    # at C=32 the CPU is the bottleneck: ~1/cpu_s ops/s and a queue builds
    assert r32.throughput_ops_s == pytest.approx(1e4, rel=0.1)
    assert r32.overall["p99_us"] > 3 * r1.overall["p99_us"]
    assert r32.stations["proxy_cpu"]["utilisation"] > 0.9
    assert r32.counters["engine_station_wait_s"] > 0


def test_think_time_lowers_offered_load():
    jobs = [_cpu_job()] * 200
    busy = _run(jobs, concurrency=16, think_s=0.0)
    idle = _run(jobs, concurrency=16, think_s=5e-3)
    assert idle.throughput_ops_s < busy.throughput_ops_s
    assert idle.overall["p99_us"] <= busy.overall["p99_us"]


def test_admission_window_bounds_inflight_and_rejects():
    jobs = [_cpu_job()] * 120
    res = _run(jobs, concurrency=16,
               admission=AdmissionConfig(window=2, queue_cap=2))
    assert res.admission["max_inflight"] <= 2
    assert res.jobs_rejected > 0
    # every job in the stream is accounted for: the run always terminates
    assert res.jobs_completed + res.jobs_rejected == len(jobs)
    assert res.counters["engine_jobs_rejected"] == res.jobs_rejected
    assert any(ev["kind"] == "engine_reject" for ev in res.events)


def test_admission_queue_charges_wait():
    jobs = [_cpu_job(cpu_s=5e-4, delay_s=0.0)] * 60
    res = _run(jobs, concurrency=8,
               admission=AdmissionConfig(window=1, queue_cap=128))
    assert res.jobs_rejected == 0
    assert res.admission["queued"] > 0
    assert res.counters["engine_admission_wait_s"] > 0


# --------------------------------------------------- engine: log backpressure


def _tight_log_profile(**kw):
    """Shrink buffers so a short job stream hits high water and slow the
    disk so flushes pile up."""
    defaults = dict(
        log_buffer_bytes=32 << 10,
        log_flush_threshold_bytes=8 << 10,
        disk_seq_bandwidth_Bps=20e6,
    )
    defaults.update(kw)
    return dataclasses.replace(_profile(), **defaults)


def _update_jobs(n, log_bytes=4096, nodes=("l0", "l1")):
    return [
        JobSpec(
            "update",
            (Stage("proxy_cpu", 2e-5), Stage("delay", 1e-4)),
            log_bytes=log_bytes,
            log_nodes=nodes,
        )
        for _ in range(n)
    ]


def test_backpressure_parks_writes_and_charges_wait():
    res = _run(_update_jobs(300), profile=_tight_log_profile(), concurrency=32)
    bp = res.backpressure
    assert set(bp) == {"l0", "l1"}
    assert all(b["flushes"] > 0 for b in bp.values())
    assert sum(b["write_stalls"] for b in bp.values()) > 0
    assert sum(b["high_water_crossings"] for b in bp.values()) > 0
    assert res.counters["engine_backpressure_stalls"] > 0
    assert res.counters["engine_backpressure_wait_s"] > 0
    kinds = {ev["kind"] for ev in res.events}
    assert {"engine_backpressure_on", "engine_flush",
            "engine_backpressure_off"} <= kinds
    # parked writes are always eventually woken: nothing is lost
    assert res.jobs_completed == 300
    # the stalled runs are slower than an unconstrained buffer
    free = _run(_update_jobs(300), profile=_profile(), concurrency=32)
    assert res.makespan_s > free.makespan_s


def test_flush_deferral_under_disk_backlog():
    """A stalled log disk pushes its backlog past ``max_disk_backlog_s``;
    flushes defer (bounded crash-consistency) instead of queueing blindly."""
    profile = _tight_log_profile(max_disk_backlog_s=1e-4)
    stall = FaultEvent(time_s=1e-4, kind=FaultKind.STALL, node_id="l0",
                       duration_s=2e-2)
    res = _run(_update_jobs(200, nodes=("l0",)), profile=profile,
               concurrency=32, faults=[stall])
    assert res.counters["engine_flush_deferrals"] > 0
    assert res.backpressure["l0"]["flush_deferrals"] > 0
    assert res.jobs_completed == 200


def test_flush_bytes_conserved():
    res = _run(_update_jobs(100), profile=_tight_log_profile(), concurrency=8)
    appended = 100 * (4096 // 2)  # per-node share
    for b in res.backpressure.values():
        assert 0 < b["flushed_bytes"] <= appended
        assert b["peak_bytes"] <= appended
        assert b["peak_occupancy"] == pytest.approx(
            b["peak_bytes"] / (32 << 10), abs=1e-6
        )


# ------------------------------------------------------------ engine: faults


def test_slow_fault_raises_in_window_latency():
    jobs = [JobSpec("read", (Stage("nic:m0", 2e-4),))] * 300
    fault = FaultEvent(time_s=5e-3, kind=FaultKind.SLOW, node_id="m0",
                       duration_s=1e-2, magnitude=8.0)
    res = _run(jobs, concurrency=4, faults=[fault])
    kinds = [ev["kind"] for ev in res.events]
    assert "fault_inject" in kinds
    assert "fault_heal" in kinds
    windows = fault_windows(res.events, run_end_s=res.makespan_s)
    assert len(windows) == 1
    w = windows[0]
    in_lats = [lat for at, lat, _ in res.samples if w.contains(at)]
    out_lats = [lat for at, lat, _ in res.samples if not w.contains(at)]
    assert in_lats and out_lats
    assert max(in_lats) > max(out_lats)


def test_stall_fault_freezes_node_station():
    jobs = [JobSpec("read", (Stage("nic:m0", 1e-4),))] * 100
    fault = FaultEvent(time_s=2e-3, kind=FaultKind.STALL, node_id="m0",
                       duration_s=5e-3)
    res = _run(jobs, concurrency=2, faults=[fault])
    clean = _run(jobs, concurrency=2)
    assert res.makespan_s >= clean.makespan_s + 4e-3
    # stall windows close by duration (no heal event), per the timeline table
    assert not any(ev["kind"] == "fault_heal" for ev in res.events)
    assert fault_windows(res.events, run_end_s=res.makespan_s)


def test_crash_fault_heals_after_repair_delay():
    jobs = [JobSpec("read", (Stage("nic:m0", 1e-4),))] * 50
    fault = FaultEvent(time_s=1e-3, kind=FaultKind.CRASH, node_id="m0")
    res = _run(jobs, concurrency=2, faults=[fault])
    heal = [ev for ev in res.events if ev["kind"] == "fault_heal"]
    assert len(heal) == 1
    assert heal[0]["t_s"] == pytest.approx(1e-3 + REPAIR_DELAY_S)


# ------------------------------------------------------------ engine: output


def test_result_dict_is_deterministic():
    jobs = _update_jobs(80) + [_cpu_job()] * 40
    docs = []
    for _ in range(2):
        res = _run(jobs, profile=_tight_log_profile(), concurrency=16)
        docs.append(json.dumps([res.to_dict(), res.events], sort_keys=True))
    assert docs[0] == docs[1]


def test_empty_job_stream():
    res = _run([], concurrency=4)
    assert res.jobs_completed == 0
    assert res.makespan_s == 0.0
    assert res.throughput_ops_s == 0.0
    assert res.overall == {"count": 0}


# ------------------------------------------------------------------ load curve


@pytest.fixture(scope="module")
def small_load_doc():
    return run_load(n_objects=150, n_requests=150, seed=11,
                    concurrencies=(1, 8, 32), expected_faults=2.0)


def test_load_curve_shows_saturation_knee(small_load_doc):
    knee = small_load_doc["knee"]
    assert knee["c_lo"] == 1 and knee["c_hi"] == 32
    assert knee["throughput_hi_ops_s"] > knee["throughput_lo_ops_s"]
    assert knee["p99_amplification"] > 1.0
    assert 0 < knee["hi_over_peak"] <= 1.0


def test_load_curve_chaos_attribution(small_load_doc):
    chaos = small_load_doc["curve"][-1]["chaos"]
    assert chaos["faults"] > 0
    assert chaos["attribution"]  # per-window rows from analysis.timeline
    assert chaos["in_window"]["count"] + chaos["out_window"]["count"] == 150
    for row in chaos["attribution"]:
        assert {"kind", "node", "ops_in_window"} <= set(row)


def test_load_json_byte_identical_across_runs(small_load_doc):
    again = run_load(n_objects=150, n_requests=150, seed=11,
                     concurrencies=(1, 8, 32), expected_faults=2.0)
    assert load_json(again) == load_json(small_load_doc)


def test_render_load_summarises(small_load_doc):
    text = render_load(small_load_doc)
    assert "hottest station" in text
    assert "knee:" in text
    assert "chaos:" in text


def test_render_load_with_no_requests():
    """A point that ran no jobs visited no station: the table renders with
    '-' for the hottest station instead of raising."""
    doc = run_load(n_objects=40, n_requests=0, concurrencies=(1, 4))
    assert all(pt["stations"] == {} for pt in doc["curve"])
    rows = render_load(doc).splitlines()[3:5]
    assert len(rows) == 2 and all(row.endswith("  -") for row in rows)


def test_knee_summary_empty_curve():
    assert knee_summary([]) == {}

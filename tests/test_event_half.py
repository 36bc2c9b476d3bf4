"""Equivalence tests for the event-driven half's cheap bodies.

``EventQueue.drain(clock)``, the comparison-based ``Station`` arithmetic, the
bound-once telemetry gauges and the on-first-access telemetry dumps each
replaced a slower body that did the same thing.  The slow bodies live on
here as oracles: every test below runs old and new side by side and demands
the same events in the same order and the same floats, bit for bit.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.schedule import FaultEvent, FaultKind
from repro.engine import Engine, EngineConfig, JobSpec, Stage, Station
from repro.engine.jobs import JobTrace
from repro.obs.timeseries import TelemetrySampler
from repro.sim.clock import SimClock
from repro.sim.events import TIEBREAK_MODES, EventQueue, TieBreak
from repro.sim.params import HardwareProfile
from repro.sim.resources import Resource

modes = st.sampled_from(TIEBREAK_MODES)
seeds = st.integers(min_value=0, max_value=2**32 - 1)

#: a coarse grid (so ties are common) mixed with arbitrary floats
grid = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0])
times = st.one_of(grid, st.floats(min_value=0.0, max_value=4.0, allow_nan=False))


def _jobs(n=120):
    """A small update/read mix over three DRAM NICs and two log nodes."""
    return [
        JobSpec(
            op="update" if i % 2 else "read",
            stages=(
                Stage("proxy_cpu", 1e-5),
                Stage(f"nic:dram{i % 3}", 2e-5),
                Stage("delay", 1e-5),
            ),
            log_bytes=4096 if i % 2 else 0,
            log_nodes=("log0", "log1") if i % 2 else (),
        )
        for i in range(n)
    ]


def _telemetry_config(**kw):
    return EngineConfig(
        concurrency=8, telemetry_interval_s=1e-4, slo_p99_us=100.0, **kw
    )


# ------------------------------------------------------------ EventQueue


def test_schedule_rejects_nan_and_accepts_the_past():
    q = EventQueue()
    with pytest.raises(ValueError, match="NaN"):
        q.schedule(float("nan"), lambda t: None)
    assert len(q) == 0
    # scheduling in the past stays legal (the re-entrancy contract): the
    # event fires on the next pass, at its own timestamp
    log: list[float] = []
    q.schedule(5.0, lambda t: q.schedule(1.0, log.append))
    clock = SimClock()
    assert q.drain(clock) == 2
    assert log == [1.0]
    assert clock.now == 5.0  # time never ran backwards


@pytest.mark.parametrize("mode", TIEBREAK_MODES)
def test_tiebreak_modes_order_equal_time_events_as_before(mode):
    tie = TieBreak(mode, seed=11)
    q = EventQueue(tie)
    log: list[int] = []
    for i in range(12):
        q.schedule(1.0, lambda t, i=i: log.append(i))
    q.drain()
    # the heap key contract: (time, tie.key(seq), seq)
    assert log == sorted(range(12), key=lambda seq: (tie.key(seq), seq))
    if mode == "fifo":
        assert log == list(range(12))
    elif mode == "reversed":
        assert log == list(range(11, -1, -1))
    else:
        assert log != list(range(12))


#: one scheduled event: fire-time offset from its parent's fire time (>= 0,
#: so a zero offset is a same-time tie) and the events its callback schedules
event_trees = st.recursive(
    st.tuples(times, st.just(())),
    lambda children: st.tuples(times, st.lists(children, max_size=3).map(tuple)),
    max_leaves=12,
)


def _replay(program, tie, start, loop):
    """Run ``program`` on a fresh queue; returns (fired log, final clock)."""
    q = EventQueue(tie)
    clock = SimClock(start)
    log: list[tuple[float, int, float]] = []
    ids = iter(range(10**6))

    def plant(at: float, tree) -> None:
        offset, children = tree
        ident = next(ids)

        def fire(when: float) -> None:
            log.append((when, ident, clock.now))
            for child in children:
                plant(when, child)

        q.schedule(at + offset, fire)

    for tree in program:
        plant(0.0, tree)
    loop(q, clock)
    assert len(q) == 0
    return log, clock.now


def _old_engine_loop(q: EventQueue, clock: SimClock) -> None:
    """The four-call-per-event loop ``Engine.run`` used to own (the oracle)."""
    while len(q):
        now = q.next_time()
        clock.advance_to(now)
        q.run_until(now)


@settings(max_examples=200, deadline=None)
@given(st.lists(event_trees, max_size=8), modes, seeds, grid)
def test_drain_with_clock_equals_the_batched_loop(program, mode, seed, start):
    tie = TieBreak(mode, seed)
    new = _replay(program, tie, start, lambda q, clock: q.drain(clock))
    old = _replay(program, tie, start, _old_engine_loop)
    assert new == old
    log, now = new
    # every callback saw a clock at (or, scheduled in the past, after) its time
    assert all(seen >= when for when, _, seen in log)
    assert now == max([start, *(when for when, _, _ in log)])


# --------------------------------------------------------------- Station


def _bits(x: float) -> str:
    return float(x).hex()  # distinguishes -0.0 from 0.0, unlike ==


instants = st.one_of(
    st.sampled_from([0.0, 1.0, 2.5]),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
)


@settings(max_examples=300, deadline=None)
@given(
    now=instants,
    service=instants,
    slowdown=st.floats(min_value=1.0, max_value=8.0, allow_nan=False),
    stall_until=instants,
    free_at=instants,
    busy_s=instants,
)
def test_station_arithmetic_equals_the_max_formulas(
    now, service, slowdown, stall_until, free_at, busy_s
):
    station = Station("nic:x")
    station.set_slowdown(slowdown)
    station.stall(stall_until)
    station.resource.free_at = free_at
    station.resource.busy_s = busy_s
    # the max()-based formulas the comparisons replaced
    want_backlog = max(0.0, max(free_at, stall_until) - now)
    want_busy = max(0.0, busy_s - max(0.0, free_at - now))
    ready = max(now, stall_until)
    want_wait = max(0.0, max(ready, free_at) - now)
    oracle = Resource("oracle")
    oracle.free_at = free_at
    want_done = oracle.reserve(ready, service * slowdown)

    assert _bits(station.backlog_s(now)) == _bits(want_backlog)
    assert _bits(station.busy_elapsed_s(now)) == _bits(want_busy)
    wait, done = station.submit(now, service)
    assert (_bits(wait), _bits(done)) == (_bits(want_wait), _bits(want_done))
    assert _bits(station.resource.free_at) == _bits(oracle.free_at)
    assert _bits(station.resource.busy_s) == _bits(busy_s + oracle.busy_s)
    assert (station.pending, station.max_pending) == (1, 1)
    assert _bits(station.total_wait_s) == _bits(0.0 + want_wait)


def test_negative_service_still_raises():
    with pytest.raises(ValueError, match="negative duration"):
        Resource("r").reserve(0.0, -1.0)
    station = Station("nic:x")
    with pytest.raises(ValueError, match="negative duration"):
        station.submit(0.0, -1.0)
    assert station.pending == 0  # nothing was queued
    with pytest.raises(ValueError, match="slowdown"):
        station.set_slowdown(0.5)


# ----------------------------------------------------- telemetry binding


def _by_name_probe(engine: Engine, busy_prev: dict, t: float, sampler) -> None:
    """The per-tick probe as it used to be: re-sort, rebuild every gauge
    name, look each up through ``sampler.gauge`` (the oracle)."""
    interval = engine.config.telemetry_interval_s
    for name in sorted(engine.stations):
        station = engine.stations[name]
        busy = station.busy_elapsed_s(t)
        prev = busy_prev.get(name, 0.0)
        busy_prev[name] = busy
        util = min(1.0, max(0.0, (busy - prev) / interval))
        sampler.gauge(f"station.{name}.util").record(t, util)
        sampler.gauge(f"station.{name}.depth").record(t, float(station.pending))
        sampler.gauge(f"station.{name}.backlog_s").record(t, station.backlog_s(t))
    sampler.gauge("admission.inflight").record(t, float(engine.gate.inflight))
    sampler.gauge("admission.queue").record(t, float(len(engine.gate.queue)))
    for nid in sorted(engine.buffers):
        buf = engine.buffers[nid]
        sampler.gauge(f"log.{nid}.occupancy").record(t, buf.occupancy())
        sampler.gauge(f"log.{nid}.waiters").record(t, float(len(buf.waiters)))


def _probed_series(sampler: TelemetrySampler) -> list:
    """``(name, dump)`` of every probe-fed series, in first-appearance order."""
    return [
        (name, series.to_dict())
        for name, series in sampler.series.items()
        if name.startswith(("station.", "admission.", "log."))
    ]


def _run_beside_oracle(engine: Engine):
    """Run ``engine`` with the by-name probe mirroring every tick into a
    second registry; returns (engine's series, oracle's series)."""
    mirror = TelemetrySampler(engine.config.telemetry_interval_s)
    busy_prev: dict = {}
    engine.sampler.add_probe(
        lambda t, _sampler: _by_name_probe(engine, busy_prev, t, mirror)
    )
    result = engine.run()
    assert result.jobs_completed == len(engine.jobs)
    return _probed_series(engine.sampler), _probed_series(mirror)


def test_bound_gauges_equal_the_by_name_probe_with_an_untouched_fault_node():
    # the schedule names dram9, which no job ever visits: its station exists
    # from construction and its gauges sit at zero apart from the stall
    faults = [
        FaultEvent(time_s=3e-4, kind=FaultKind.SLOW, node_id="dram1",
                   duration_s=4e-4, magnitude=3.0),
        FaultEvent(time_s=2e-4, kind=FaultKind.BLIP, node_id="dram9",
                   duration_s=3e-4),
    ]
    engine = Engine(_jobs(), HardwareProfile(), _telemetry_config(), faults=faults)
    got, want = _run_beside_oracle(engine)
    assert got == want
    names = [name for name, _ in got]
    assert "station.nic:dram9.backlog_s" in names
    assert any(v > 0 for _, v in dict(got)["station.nic:dram9.backlog_s"]["points"])


def test_bound_gauges_pick_up_a_station_that_appears_after_the_first_tick():
    engine = Engine(_jobs(), HardwareProfile(), _telemetry_config())
    # mid-run, well after the first tick: a new station and a new log buffer
    # (which brings its disk station along)
    engine.queue.schedule(3.5e-4, lambda t: engine._station("nic:late").stall(6e-4))
    engine.queue.schedule(5.5e-4, lambda t: engine._buffer("log_late").append(1024))
    got, want = _run_beside_oracle(engine)
    assert got == want
    series = dict(got)
    names = [name for name, _ in got]
    # late gauges were created after every first-tick gauge, in walk order
    assert names.index("station.nic:late.util") > names.index("log.log1.waiters")
    assert names.index("station.disk:log_late.util") > names.index("station.nic:late.util")
    first_t = series["station.proxy_cpu.util"]["points"][0][0]
    assert series["station.nic:late.util"]["points"][0][0] > first_t
    assert series["log.log_late.occupancy"]["points"][-1][1] > 0
    assert series["station.nic:late.util"]["count"] < series["station.proxy_cpu.util"]["count"]


# ------------------------------------------------- on-first-access dumps


def test_engine_result_telemetry_is_the_end_of_run_dump_built_once():
    engine = Engine(_jobs(), HardwareProfile(), _telemetry_config())
    result = engine.run()
    eager = engine.sampler.to_dict()  # the dump run() used to build itself
    assert "telemetry" not in vars(result)  # nothing built yet
    assert result.telemetry == eager
    assert result.telemetry is result.telemetry
    assert json.dumps(result.to_dict()["telemetry"], sort_keys=True) == json.dumps(
        eager, sort_keys=True
    )
    assert eager["samples"] > 0 and "slo" in eager

    quiet = Engine(_jobs(), HardwareProfile(), EngineConfig(concurrency=8)).run()
    assert quiet.sampler is None and quiet.telemetry == {}
    assert "telemetry" not in quiet.to_dict()


# ------------------------------------------------------- no cyclic garbage


def test_finished_engine_is_not_cyclic_garbage_and_its_result_does_not_pin_it():
    jobs = _jobs(200)
    gc.collect()
    gc.disable()
    try:
        engine = Engine(jobs, HardwareProfile(), _telemetry_config())
        result = engine.run()
        ref = weakref.ref(engine)
        del engine
        assert ref() is None, "the result (or a leftover callback) pins the engine"
        assert gc.collect() == 0, "a finished engine left reference cycles behind"
    finally:
        gc.enable()
    assert result.jobs_completed == len(jobs) and result.telemetry["samples"] > 0


# ------------------------------------------------------------ job records


def test_job_records_are_slotted_and_still_validated():
    stage = Stage("proxy_cpu", 1e-4)
    spec = JobSpec(op="read", stages=(stage,))
    trace = JobTrace(spec, client=0, issued_s=0.0)
    for record in (stage, spec, trace):
        assert not hasattr(record, "__dict__")
        # (a frozen+slots dataclass on 3.11 refuses with TypeError instead)
        with pytest.raises((AttributeError, TypeError)):
            record.colour = "red"
    with pytest.raises(dataclasses.FrozenInstanceError):
        stage.service_s = 2.0
    with pytest.raises(TypeError):
        JobTrace(spec, client=0, issued_s=0.0, colour="red")
    with pytest.raises(ValueError, match="negative stage demand"):
        Stage("proxy_cpu", -1.0)
    assert spec == JobSpec(op="read", stages=(Stage("proxy_cpu", 1e-4),))
    assert spec.service_s == 1e-4

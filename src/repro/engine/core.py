"""The concurrent discrete-event engine: N closed-loop clients over stations.

This is the piece that turns the repo's per-op cost models into a *loaded
system*.  ``N`` closed-loop clients (optionally with think time) pull jobs
from one deterministic job stream; each job passes the proxy admission gate,
then walks its stages through FIFO service stations
(:mod:`repro.engine.stations`); update jobs additionally append parity-delta
bytes to log-node buffer models whose flushes occupy the log disks and whose
occupancy pushes back on clients (:mod:`repro.engine.backpressure`).  Faults
from a :class:`~repro.chaos.schedule.FaultSchedule` open windows that slow or
stall stations mid-run, and every notable transition lands in an
:class:`~repro.obs.events.EventJournal` using the same ``fault_inject`` /
``fault_heal`` kinds the chaos harness emits -- so
:mod:`repro.analysis.timeline` attributes engine tail latency to fault
windows with zero new code.

Single-request costing is the ``concurrency=1`` special case: with one
client and no faults, every station is idle on arrival and a job's response
time equals its stage total, i.e. the store's original latency.  Everything
beyond C=1 -- queueing delay, saturation knees, admission waits,
backpressure stalls -- emerges from contention, never from re-costing.

Determinism: one :class:`~repro.sim.events.EventQueue` drives the run; ties
break by schedule order, iteration is over insertion-/sorted-order
structures only, and the result serialises with sorted keys and rounded
floats -- same jobs, same config, same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial

from repro.chaos.faults import emit_fault_inject
from repro.chaos.schedule import REPAIR_DELAY_S, FaultEvent, FaultKind
from repro.devtools.simsan import runtime as _san
from repro.engine.admission import AdmissionConfig, AdmissionGate
from repro.engine.backpressure import LogBufferModel
from repro.engine.jobs import JobSpec, JobTrace
from repro.engine.stations import Station
from repro.obs.events import EventJournal
from repro.obs.timeseries import SLOTracker, TelemetrySampler, exact_quantile
from repro.sim.clock import SimClock
from repro.sim.events import EventQueue
from repro.sim.params import HardwareProfile
from repro.sim.resources import Counters


@dataclass(frozen=True)
class EngineConfig:
    """One engine run's knobs."""

    concurrency: int = 32
    think_s: float = 0.0
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    #: sample telemetry every this many simulated seconds (0 disables it;
    #: the run's JSON is byte-identical to a pre-telemetry build when off)
    telemetry_interval_s: float = 0.0
    #: latency SLO target in microseconds (0 disables the SLO tracker)
    slo_p99_us: float = 0.0

    def __post_init__(self) -> None:
        if self.concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {self.concurrency}")
        if self.think_s < 0:
            raise ValueError(f"think_s must be >= 0, got {self.think_s}")
        if self.telemetry_interval_s < 0:
            raise ValueError(
                f"telemetry_interval_s must be >= 0, got {self.telemetry_interval_s}"
            )
        if self.slo_p99_us < 0:
            raise ValueError(f"slo_p99_us must be >= 0, got {self.slo_p99_us}")


@dataclass
class EngineResult:
    """Everything one engine run measured."""

    concurrency: int
    think_s: float
    jobs_total: int = 0
    jobs_completed: int = 0
    jobs_rejected: int = 0
    makespan_s: float = 0.0
    throughput_ops_s: float = 0.0
    overall: dict = field(default_factory=dict)
    ops: dict = field(default_factory=dict)
    stations: dict = field(default_factory=dict)
    admission: dict = field(default_factory=dict)
    backpressure: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    #: acked jobs as ``(issued_s, response_s, op)`` -- the exact shape
    #: ``analysis.timeline.attribute_latency`` consumes
    samples: list = field(default_factory=list)
    #: journal events (dict form) for fault-window attribution
    events: list = field(default_factory=list)
    #: the run's finished sampler (None unless ``telemetry_interval_s > 0``)
    sampler: TelemetrySampler | None = field(default=None, repr=False)

    @cached_property
    def telemetry(self) -> dict:
        """Telemetry series dump (empty without a sampler), built on first
        access: a load curve that never reads it never pays for the lists."""
        return self.sampler.to_dict() if self.sampler is not None else {}

    def to_dict(self) -> dict:
        """Deterministic JSON-ready form (sorted keys happen at dump time)."""
        doc = {
            "concurrency": self.concurrency,
            "think_s": round(self.think_s, 9),
            "jobs_total": self.jobs_total,
            "jobs_completed": self.jobs_completed,
            "jobs_rejected": self.jobs_rejected,
            "makespan_s": round(self.makespan_s, 9),
            "throughput_ops_s": round(self.throughput_ops_s, 3),
            "overall": self.overall,
            "ops": self.ops,
            "stations": self.stations,
            "admission": self.admission,
            "backpressure": self.backpressure,
            "counters": {k: round(v, 6) for k, v in sorted(self.counters.items())},
        }
        if self.telemetry:
            doc["telemetry"] = self.telemetry
        return doc


class Engine:
    """Deterministic concurrent simulation of one job stream."""

    def __init__(
        self,
        jobs: list[JobSpec],
        profile: HardwareProfile,
        config: EngineConfig | None = None,
        faults: list[FaultEvent] | None = None,
    ):
        self.jobs = list(jobs)
        self.profile = profile
        self.config = config if config is not None else EngineConfig()
        self.faults = sorted(
            faults or (), key=lambda e: (e.time_s, e.node_id, e.kind.value)
        )
        self.clock = SimClock()
        self.counters = Counters()
        self.journal = EventJournal(self.clock, self.counters, capacity=8192)
        self.gate = AdmissionGate(self.config.admission)
        self.queue = EventQueue()
        self.stations: dict[str, Station] = {}
        self.buffers: dict[str, LogBufferModel] = {}
        # pre-create every station/buffer the job stream or schedule can
        # touch, so fault windows apply by name even before first use
        for name in dict.fromkeys(s.station for spec in self.jobs for s in spec.stages):
            if name != "delay":
                self._station(name)
        for log_nodes in dict.fromkeys(spec.log_nodes for spec in self.jobs):
            for nid in log_nodes:
                self._buffer(nid)
        for ev in self.faults:
            self._station(f"nic:{ev.node_id}")
        self._cursor = 0
        self._samples: list[tuple[float, float, str]] = []
        self._per_op: dict[str, list[float]] = {}
        self._completed = 0
        self._rejected = 0
        self._last_completion_s = 0.0
        self.sampler: TelemetrySampler | None = None
        self._tele_busy: dict[str, float] = {}
        #: bound gauge ``record``s (stations, gate, buffers) and the
        #: station+buffer census they were bound for
        self._gauges: tuple = ()
        self._gauged = -1
        #: one ``partial(self._issue, client)`` per client, alive during run()
        self._issuers: list = []
        if self.config.telemetry_interval_s > 0:
            slo = None
            if self.config.slo_p99_us > 0:
                slo = SLOTracker(
                    self.config.slo_p99_us,
                    journal=self.journal,
                    counters=self.counters,
                )
            self.sampler = TelemetrySampler(
                self.config.telemetry_interval_s,
                journal=self.journal,
                counters=self.counters,
                slo=slo,
            )
            self.sampler.add_probe(self._telemetry_probe)

    # ------------------------------------------------------------- plumbing

    def _station(self, name: str) -> Station:
        st = self.stations.get(name)
        if st is None:
            st = self.stations[name] = Station(name)
        return st

    def _buffer(self, node_id: str) -> LogBufferModel:
        buf = self.buffers.get(node_id)
        if buf is None:
            buf = self.buffers[node_id] = LogBufferModel(node_id, self.profile)
            self._station(f"disk:{node_id}")
        return buf

    # ------------------------------------------------------------- telemetry

    def _bind_gauges(self, sampler: TelemetrySampler) -> None:
        """Resolve every gauge's ``record`` once, walking stations, gate and
        buffers in the sorted order a by-name walk per tick would: gauges are
        created in that order, so ``sampler.series`` reads the same."""
        def record(name: str):
            return sampler.gauge(name).record

        self._gauges = (
            [
                (name, st, record(f"station.{name}.util"),
                 record(f"station.{name}.depth"), record(f"station.{name}.backlog_s"))
                for name, st in sorted(self.stations.items())
            ],
            (record("admission.inflight"), record("admission.queue")),
            [
                (buf, record(f"log.{nid}.occupancy"), record(f"log.{nid}.waiters"))
                for nid, buf in sorted(self.buffers.items())
            ],
        )
        self._gauged = len(self.stations) + len(self.buffers)

    def _telemetry_probe(self, t: float, sampler: TelemetrySampler) -> None:
        """Gauge live engine state at one sample tick: per-station windowed
        utilisation / live depth / backlog, admission gate occupancy, and
        per-log-node buffer occupancy / parked waiters."""
        if len(self.stations) + len(self.buffers) != self._gauged:
            self._bind_gauges(sampler)  # first tick, or a station appeared
        stations, (inflight_g, queue_g), buffers = self._gauges
        interval = self.config.telemetry_interval_s
        busy_prev = self._tele_busy
        for name, st, util_g, depth_g, backlog_g in stations:
            busy = st.busy_elapsed_s(t)
            util = (busy - busy_prev.get(name, 0.0)) / interval
            busy_prev[name] = busy
            # min(1.0, max(0.0, util))
            util_g(t, (util if util < 1.0 else 1.0) if util > 0.0 else 0.0)
            depth_g(t, st.pending)
            backlog_g(t, st.backlog_s(t))
        inflight_g(t, self.gate.inflight)
        queue_g(t, len(self.gate.queue))
        for buf, occupancy_g, waiters_g in buffers:
            occupancy_g(t, buf.occupancy())
            waiters_g(t, len(buf.waiters))

    def _telemetry_tick(self, t: float) -> None:
        self.sampler.pump(t)
        # stop when the run is over: the tick is the only event left
        if len(self.queue):
            self.queue.schedule(self.sampler.next_tick(), self._telemetry_tick)

    # ------------------------------------------------------------ job flow

    def _issue(self, client: int, now: float) -> None:
        cursor = self._cursor
        if cursor >= len(self.jobs):
            return  # stream exhausted: the client retires
        spec = self.jobs[cursor]
        self._cursor = cursor + 1
        trace = JobTrace(spec, client, now)
        verdict = self.gate.offer(trace)
        if verdict == "admit":
            self._start(trace, now)
        elif verdict == "reject":
            self._rejected += 1
            self.counters.add("engine_jobs_rejected")
            self.journal.emit("engine_reject", op=spec.op, client=client)
            # the closed loop moves on: this client's next request issues
            # after think time, the rejected op is lost (goodput accounting)
            self.queue.schedule(now + self.config.think_s, self._issuers[client])
        # "queue": parked at the gate; release() restarts it FIFO

    def _start(self, trace: JobTrace, now: float) -> None:
        trace.admitted_s = now
        spec = trace.spec
        if spec.log_bytes:
            for nid in spec.log_nodes:
                buf = self.buffers.get(nid) or self._buffer(nid)
                if buf.above_high_water():
                    # backpressure: the write parks until a flush drains
                    # the buffer below high water
                    buf.waiters.append(trace)
                    buf.stalls += 1
                    self.counters.add("engine_backpressure_stalls")
                    if not buf.flush_inflight and buf.nbytes > 0:
                        # pressure flush: drain now even if the flush
                        # threshold was configured above the high-water mark,
                        # so parked writes are always eventually woken
                        buf.begin_flush()
                        self._flush(buf, now)
                    return
        self._stage(trace, now)

    def _stage(self, trace: JobTrace, now: float) -> None:
        """The one per-stage event: leave the station the job occupied (if
        any), then enter the next stage -- or complete past the last."""
        st = trace.at
        if st is not None:
            st.depart()
            trace.at = None
        stages = trace.spec.stages
        index = trace.stage_index
        if index >= len(stages):
            self._complete(trace, now)
            return
        stage = stages[index]
        trace.stage_index = index + 1
        name = stage.station
        if name == "delay":
            done = now + stage.service_s
        else:
            st = trace.at = self.stations.get(name) or self._station(name)
            wait, done = st.submit(now, stage.service_s)
            trace.station_wait_s += wait
        self.queue.schedule(done, partial(self._stage, trace))

    def _complete(self, trace: JobTrace, now: float) -> None:
        spec = trace.spec
        if spec.log_bytes and spec.log_nodes:
            share = spec.log_bytes // len(spec.log_nodes)
            for nid in spec.log_nodes:
                buf = self.buffers.get(nid) or self._buffer(nid)
                crossed_before = buf.pressured
                buf.append(share)
                if buf.pressured and not crossed_before:
                    self.journal.emit(
                        "engine_backpressure_on", node=nid, nbytes=buf.nbytes
                    )
                self._maybe_flush(buf, now)
        response = now - trace.issued_s
        self._samples.append((trace.issued_s, response, spec.op))
        if self.sampler is not None:
            self.sampler.observe_op(now, response, spec.op)
        lats = self._per_op.get(spec.op)
        if lats is None:
            lats = self._per_op[spec.op] = []
        lats.append(response)
        self._completed += 1
        if now > self._last_completion_s:
            self._last_completion_s = now
        self.counters.add("engine_jobs_completed")
        self.counters.add("engine_station_wait_s", trace.station_wait_s)
        self.counters.add("engine_admission_wait_s", trace.admission_wait_s)
        self.counters.add("engine_backpressure_wait_s", trace.backpressure_wait_s)
        released = self.gate.release(now)
        if released is not None:
            self._start(released, now)
        self.queue.schedule(now + self.config.think_s, self._issuers[trace.client])

    # ----------------------------------------------------------- log flushes

    def _maybe_flush(self, buf: LogBufferModel, now: float) -> None:
        if not buf.should_flush():
            return
        buf.begin_flush()
        disk = self._station(f"disk:{buf.node_id}")
        backlog = disk.backlog_s(now)
        over = backlog - self.profile.max_disk_backlog_s
        if over > 0:
            # upstream flush stall: the disk is too far behind; retry once
            # the backlog has drained back to the bound
            buf.flush_deferrals += 1
            self.counters.add("engine_flush_deferrals")
            self.queue.schedule(now + over, lambda t, b=buf: self._flush(b, t))
        else:
            self._flush(buf, now)

    def _flush(self, buf: LogBufferModel, now: float) -> None:
        nbytes = buf.nbytes
        if nbytes <= 0:
            buf.abort_flush()
            return
        disk = self._station(f"disk:{buf.node_id}")
        service = (
            self.profile.disk_io_overhead_s
            + nbytes / self.profile.disk_seq_bandwidth_Bps
        )
        _, done = disk.submit(now, service)

        def _flushed(t: float, b=buf, n=nbytes, station=disk) -> None:
            station.depart()
            was_pressured = b.pressured
            b.drained(n)
            self.counters.add("engine_flushes")
            self.counters.add("engine_flush_bytes", n)
            self.journal.emit("engine_flush", node=b.node_id, nbytes=n)
            if was_pressured and not b.pressured:
                self.journal.emit("engine_backpressure_off", node=b.node_id)
            while b.waiters and not b.above_high_water():
                trace = b.waiters.popleft()
                trace.backpressure_wait_s += t - trace.admitted_s
                self._stage(trace, t)
            self._maybe_flush(b, t)

        self.queue.schedule(done, _flushed)

    # ---------------------------------------------------------------- faults

    def _fault_targets(self, node_id: str) -> list[Station]:
        return [
            st
            for name, st in sorted(self.stations.items())
            if name in (f"nic:{node_id}", f"disk:{node_id}")
        ]

    def _apply_fault(self, ev: FaultEvent, now: float) -> None:
        emit_fault_inject(self.journal, ev)
        targets = self._fault_targets(ev.node_id)
        if ev.kind is FaultKind.SLOW:
            for st in targets:
                st.set_slowdown(ev.magnitude)

            def _heal(t: float) -> None:
                for st in self._fault_targets(ev.node_id):
                    st.clear_slowdown()
                self.journal.emit("fault_heal", kind=ev.kind.value, node=ev.node_id)

            self.queue.schedule(ev.end_s, _heal)
        elif ev.kind is FaultKind.STALL:
            for st in targets:
                st.stall(ev.end_s)
            # stall windows close by their injected duration (no heal event),
            # matching analysis.timeline's closer table
        else:
            # blip / partition freeze the node's stations for the duration;
            # a crash freezes them for the repair delay (engine-level stand-in
            # for the repair the control plane runs for real in a chaos run)
            until = now + REPAIR_DELAY_S if ev.kind is FaultKind.CRASH else ev.end_s
            for st in targets:
                st.stall(until)
            self.queue.schedule(
                until,
                lambda t: self.journal.emit(
                    "fault_heal", kind=ev.kind.value, node=ev.node_id
                ),
            )

    # ------------------------------------------------------------------ run

    def run(self) -> EngineResult:
        cfg = self.config
        self.journal.emit(
            "engine_run_start", concurrency=cfg.concurrency, jobs=len(self.jobs)
        )
        for ev in self.faults:
            self.queue.schedule(ev.time_s, partial(self._apply_fault, ev))
        self._issuers = [partial(self._issue, c) for c in range(cfg.concurrency)]
        for issuer in self._issuers:
            self.queue.schedule(0.0, issuer)
        if self.sampler is not None:
            self.queue.schedule(self.sampler.next_tick(), self._telemetry_tick)
        self.queue.drain(self.clock)
        self._issuers = []  # each holds a bound method of self: a cycle
        san = _san.ACTIVE
        if san is not None:
            san.on_drained("engine")
        makespan = self._last_completion_s
        if self.sampler is not None:
            self.sampler.finish(self.clock.now)
        self.journal.emit(
            "engine_run_end", completed=self._completed, rejected=self._rejected
        )
        for name, st in sorted(self.stations.items()):
            self.counters.add("engine_station_busy_s", st.resource.busy_s)
        return self._result(makespan)

    def _result(self, makespan: float) -> EngineResult:
        result = EngineResult(
            concurrency=self.config.concurrency,
            think_s=self.config.think_s,
            jobs_total=len(self.jobs),
            jobs_completed=self._completed,
            jobs_rejected=self._rejected,
            makespan_s=makespan,
            throughput_ops_s=self._completed / makespan if makespan > 0 else 0.0,
            samples=self._samples,
            events=self.journal.to_dicts(),
            sampler=self.sampler,
        )
        all_lats = sorted(lat for _, lat, _ in self._samples)
        result.overall = _latency_summary(all_lats)
        result.ops = {
            op: _latency_summary(sorted(lats))
            for op, lats in sorted(self._per_op.items())
        }
        result.stations = {
            name: st.stats(makespan) for name, st in sorted(self.stations.items())
        }
        result.admission = self.gate.stats()
        result.backpressure = {
            nid: buf.stats() for nid, buf in sorted(self.buffers.items())
        }
        result.counters = self.counters.as_dict()
        return result


def _latency_summary(sorted_lats: list[float]) -> dict:
    """Exact quantiles in microseconds, rounded for byte-stable JSON."""
    if not sorted_lats:
        return {"count": 0}
    us = 1e6
    return {
        "count": len(sorted_lats),
        "mean_us": round(sum(sorted_lats) / len(sorted_lats) * us, 3),
        "p50_us": round(exact_quantile(sorted_lats, 0.50) * us, 3),
        "p90_us": round(exact_quantile(sorted_lats, 0.90) * us, 3),
        "p99_us": round(exact_quantile(sorted_lats, 0.99) * us, 3),
        "max_us": round(sorted_lats[-1] * us, 3),
    }

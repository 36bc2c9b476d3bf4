"""End-to-end chaos runs: workload + fault schedule + invariants.

:func:`run_chaos` drives any of the five stores through a YCSB-style
workload while a seeded :class:`~repro.chaos.schedule.FaultSchedule` fires
against the cluster.  One deterministic event queue carries the asynchrony:
the schedule, pre-loaded, and the endings its faults spawn -- blip
restores, partition heals, straggler recoveries, all scheduled by
:class:`~repro.chaos.faults.FaultInjector`.  Faults are queued before any
ending exists, so on equal times a fault fires first.

The harness only injects faults.  Remediation -- node repairs and log-node
recoveries -- belongs to a :class:`repro.heal.ControlPlane`, which the run
polls on every clock advance; without one the run is open loop: faults land,
transients end, and nothing is repaired.

Requests go through a :class:`~repro.chaos.policy.RobustProxy`; its backoff
waits advance the simulated clock and pump the queue, so transient faults
heal *while* the proxy is retrying -- the behaviour the paper's availability
argument depends on.  The run ends with the invariant sweep
(:mod:`repro.chaos.invariants`) and emits a :class:`ChaosReport` whose
``fingerprint()`` is bit-stable for a given seed: same seed, same report.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import partial

from repro.analysis.timeline import attribute_latency, fault_windows, mttr_s
from repro.bench.runner import load_store
from repro.chaos.faults import FaultInjector, check_target
from repro.chaos.invariants import InvariantReport, check_store
from repro.chaos.policy import OpOutcome, RetryPolicy, RobustProxy
from repro.chaos.schedule import FaultEvent, FaultSchedule
from repro.core.interface import KVStore
from repro.sim.events import EventQueue
from repro.workloads.ycsb import WorkloadSpec, generate_requests


@dataclass
class ChaosReport:
    """Everything one seeded chaos run observed."""

    store: str
    scheme: str
    seed: int
    n_objects: int
    n_requests: int
    # ops
    ops_attempted: int = 0
    ops_acked: int = 0
    ops_failed: int = 0
    degraded_reads: int = 0
    retries: int = 0
    timeouts: int = 0
    # faults
    faults_scheduled: int = 0
    faults_fired: dict[str, int] = field(default_factory=dict)
    faults_unfired: int = 0
    # availability
    downtime_s: dict[str, float] = field(default_factory=dict)
    availability: float = 1.0
    timeline: list[tuple[float, str]] = field(default_factory=list)
    invariants: dict = field(default_factory=dict)
    makespan_s: float = 0.0
    #: what this run measured: ``ops_acked / makespan_s`` and the mean
    #: client-observed latency of the acked ops (retries and backoff included)
    throughput_ops_s: float = 0.0
    mean_response_s: float = 0.0
    #: per-op latency quantiles + phase means, captured BEFORE the invariant
    #: sweep (the checkers reuse real read machinery and perturb counters)
    metrics: dict = field(default_factory=dict)
    #: flight-recorder journal (dict form), captured at the same point as
    #: ``metrics`` and for the same reason
    events: list = field(default_factory=list)
    #: per-fault-window latency attribution (analysis/timeline.py)
    fault_attribution: list = field(default_factory=list)
    #: mean time to repair across fault windows, open windows clamped to the
    #: run end -- the closed-loop resilience headline number
    mttr_s: float = 0.0
    #: control-plane summary (repro.heal), empty when no plane participated
    heal: dict = field(default_factory=dict)

    @property
    def violations(self) -> int:
        return len(self.invariants.get("violations", ()))

    def to_dict(self) -> dict:
        return {
            "store": self.store,
            "scheme": self.scheme,
            "seed": self.seed,
            "n_objects": self.n_objects,
            "n_requests": self.n_requests,
            "ops_attempted": self.ops_attempted,
            "ops_acked": self.ops_acked,
            "ops_failed": self.ops_failed,
            "degraded_reads": self.degraded_reads,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "faults_scheduled": self.faults_scheduled,
            "faults_fired": dict(sorted(self.faults_fired.items())),
            "faults_unfired": self.faults_unfired,
            "downtime_s": dict(sorted(self.downtime_s.items())),
            "availability": self.availability,
            "timeline": [[t, text] for t, text in self.timeline],
            "invariants": self.invariants,
            "makespan_s": self.makespan_s,
            "throughput_ops_s": self.throughput_ops_s,
            "mean_response_s": self.mean_response_s,
            "metrics": self.metrics,
            "events": self.events,
            "fault_attribution": self.fault_attribution,
            "mttr_s": self.mttr_s,
            "heal": self.heal,
        }

    def fingerprint(self) -> str:
        """Stable digest of the whole report: equal iff the runs were equal."""
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def summary(self) -> str:
        lines = [
            f"ChaosReport: {self.store} (scheme={self.scheme}, seed={self.seed})",
            f"  ops        : {self.ops_acked}/{self.ops_attempted} acked, "
            f"{self.ops_failed} failed, {self.degraded_reads} degraded reads, "
            f"{self.retries} retries, {self.timeouts} timeouts",
            f"  faults     : {sum(self.faults_fired.values())} fired "
            f"{dict(sorted(self.faults_fired.items()))}, "
            f"{self.faults_unfired} past the horizon",
            f"  recovery   : {len(self.heal.get('executed', ()))} plane actions "
            f"executed, MTTR {self.mttr_s * 1e3:.2f}ms",
            f"  available  : {self.availability * 100:.3f}% node-time; downtime "
            + ", ".join(
                f"{nid}={s * 1e3:.2f}ms"
                for nid, s in sorted(self.downtime_s.items())
                if s > 0
            ),
            f"  throughput : {self.throughput_ops_s / 1e3:.1f} Kops/s acked, "
            f"makespan {self.makespan_s * 1e3:.1f} ms",
            f"  invariants : {self.invariants.get('objects_checked', 0)} objects, "
            f"{self.invariants.get('stripes_checked', 0)} stripes, "
            f"{self.invariants.get('logged_parities_checked', 0)} logged parities "
            f"-> {self.violations} violations",
        ]
        for v in self.invariants.get("violations", ())[:10]:
            lines.append(f"    VIOLATION {v}")
        lines.append(f"  fingerprint: {self.fingerprint()}")
        return "\n".join(lines)


class ChaosRun:
    """One seeded run; split from :func:`run_chaos` for testability."""

    def __init__(
        self,
        store: KVStore,
        spec: WorkloadSpec,
        schedule: FaultSchedule,
        policy: RetryPolicy | None = None,
        control_plane=None,
    ):
        #: faults and the endings they spawn; faults go in first, so on equal
        #: times they fire before any ending (FIFO), and a bad target fails
        #: here, before the first request
        self.queue = EventQueue()
        for ev in schedule:
            check_target(store.cluster, ev)
            self.queue.schedule(ev.time_s, partial(self._fire, ev))
        self._closed = False
        self.store = store
        self.spec = spec
        self.schedule = schedule
        self.clock = store.cluster.clock
        self.injector = FaultInjector(store.cluster)
        self.proxy = RobustProxy(store, policy, wait=self._wait)
        #: optional repro.heal.ControlPlane: the only remediation path,
        #: polled from the event pump like a sidecar daemon
        self.control_plane = control_plane
        if control_plane is not None:
            control_plane.attach(
                store, policy=self.proxy.policy, note=self.injector.note
            )
        self.outcomes: list[OpOutcome] = []

    # ------------------------------------------------------------- event pump

    def _wait(self, dt: float) -> None:
        self.clock.advance(dt)
        self._pump_and_heal(self.clock.now)

    def _pump_and_heal(self, now: float) -> None:
        """Fire everything due, then give the control plane (if any) a tick
        -- it sees freshly-fired faults through the journal, like a daemon."""
        self.queue.run_until(now)
        if self.control_plane is not None:
            self.control_plane.poll(self.clock.now)

    # --------------------------------------------------------- fault handling

    def _fire(self, event: FaultEvent, when: float) -> None:
        """Apply one fault; the injector schedules its ending, if it has one."""
        if not self._closed:  # else past the horizon: the run ended first
            self.injector.apply(event, when, self.queue)

    # ---------------------------------------------------------------- the run

    def execute(self) -> ChaosReport:
        store, spec = self.store, self.spec
        for req in generate_requests(spec):
            self._pump_and_heal(self.clock.now)
            outcome = self.proxy.execute(req)
            # backoff waits already advanced the clock inside execute() (the
            # proxy's wait hook is _wait); only the store-side service time
            # remains to elapse here -- advancing the full client latency
            # would count every retry's wait twice and skew when later
            # faults fire relative to requests.
            self.clock.advance(outcome.service_s)
            self.outcomes.append(outcome)

        # past-the-horizon faults never fire; pending endings all do, so the
        # run ends with every transient fault healed
        faults_unfired = len(self.schedule) - sum(self.injector.applied.values())
        self._closed = True
        self.queue.drain()
        if self.control_plane is not None:
            # give the plane a tick to see the drained heals, then let it
            # work off any still-queued remediation before the books close
            self.control_plane.poll(self.clock.now)
            self.control_plane.quiesce(self._wait)
        store.finalize()

        makespan = self.clock.now
        acked = [o for o in self.outcomes if o.acked]
        report = ChaosReport(
            store=store.name,
            scheme=store.cfg.scheme,
            seed=spec.seed,
            n_objects=spec.n_objects,
            n_requests=spec.n_requests,
            ops_attempted=len(self.outcomes),
            ops_acked=len(acked),
            ops_failed=self.proxy.failed_ops,
            degraded_reads=self.proxy.degraded_served,
            retries=self.proxy.retries,
            timeouts=self.proxy.timeouts,
            faults_scheduled=len(self.schedule),
            faults_fired=dict(self.injector.applied),
            faults_unfired=faults_unfired,
            downtime_s={
                nid: store.cluster.downtime_s(nid)
                for nid in store.cluster.dram_ids() + store.cluster.log_ids()
            },
            availability=store.cluster.availability(),
            timeline=sorted(self.injector.timeline),
            makespan_s=makespan,
        )
        if acked:
            report.throughput_ops_s = len(acked) / makespan
            report.mean_response_s = sum(o.latency_s for o in acked) / len(acked)
        # invariants last: the checkers reuse the real read/repair machinery,
        # which perturbs cost counters and emits its own scrub/read events --
        # so the metrics snapshot (per-op latency quantiles + span-fed phase
        # means) AND the journal capture happen first
        report.metrics = store.metrics.snapshot()
        report.events = store.cluster.journal.to_dicts()
        samples = [(o.at_s, o.latency_s, o.op) for o in acked]
        windows = fault_windows(report.events, run_end_s=makespan)
        report.fault_attribution = attribute_latency(windows, samples)
        report.mttr_s = round(mttr_s(windows), 9)
        if self.control_plane is not None:
            report.heal = self.control_plane.report()
        invariant_report: InvariantReport = check_store(store)
        report.invariants = invariant_report.to_dict()
        return report


def run_chaos(
    store: KVStore,
    spec: WorkloadSpec,
    schedule: FaultSchedule | None = None,
    policy: RetryPolicy | None = None,
    expected_faults: float = 4.0,
    control_plane=None,
) -> ChaosReport:
    """Load the store, then replay the workload under a fault schedule.

    With ``schedule=None`` a Poisson schedule is generated from the seed with
    ~``expected_faults`` arrivals over the run's estimated horizon (derived
    from the measured load-phase latency, so it needs no tuning per scale).

    ``control_plane`` is the :class:`repro.heal.ControlPlane` that repairs
    what the faults break (it detects through the journal and acts on its own
    clock); without one the run is open loop and nothing is repaired.
    """
    load_s = load_store(store, spec)
    if schedule is None:
        mean_op_s = load_s / max(1, spec.n_objects)
        horizon_s = mean_op_s * max(1, spec.n_requests)
        schedule = FaultSchedule.with_expected_faults(
            store.cluster.dram_ids(),
            store.cluster.log_ids(),
            horizon_s=horizon_s,
            expected_faults=expected_faults,
            seed=spec.seed,
        )
    # fault times are relative to the start of the run phase
    start = store.cluster.clock.now
    shifted = FaultSchedule(
        [
            FaultEvent(ev.time_s + start, ev.kind, ev.node_id, ev.duration_s, ev.magnitude)
            for ev in schedule
        ]
    )
    run = ChaosRun(
        store,
        spec,
        shifted,
        policy=policy,
        control_plane=control_plane,
    )
    return run.execute()

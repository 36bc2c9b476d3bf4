"""Output checking: the checked-store wrapper and the failure drill.

The verification pass of every workload drives its stores through a
:class:`CheckedStore`, so every read and degraded read is compared
byte-for-byte with ``store.expected_value(key)`` and every store op's host
latency is sampled.  :func:`failure_drill` then exercises the failure paths
(degraded reads, node repair, log-node crash recovery) and ends with
``scrub`` and ``check_store``; everything that went wrong lands in one
:class:`Tally`, which is what the runner reports as ``failed``.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.analysis.timeline import fault_windows, mttr_s
from repro.bench.runner import measure_degraded_reads
from repro.chaos.faults import FaultInjector
from repro.chaos.invariants import check_store
from repro.chaos.schedule import FaultEvent, FaultKind
from repro.core.recovery import crash_log_node, recover_log_node
from repro.core.repair import repair_node
from repro.core.scrub import scrub
from repro.sim.events import EventQueue
from repro.workloads.ycsb import Operation, Request


class Tally:
    """Operations attempted and failed, plus per-op host latencies."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reads_checked = 0
        self.notes: list[str] = []
        #: host seconds of every store op issued through a CheckedStore
        self.op_host_s: list[float] = []

    def fail(self, count: int, note: str) -> None:
        if count > 0:
            self.failed += count
            if len(self.notes) < 20:
                self.notes.append(f"{note} x{count}")

    def record_scrub(self, store) -> None:
        """``scrub`` the store; every parity checked is one attempt."""
        report = scrub(store)
        self.attempted += report.parities_checked
        self.fail(len(report.mismatches), f"{store.name} scrub mismatch")

    def record_invariants(self, store) -> None:
        """``check_store`` the store; every object/stripe/parity is one attempt."""
        inv = check_store(store)
        self.attempted += (
            inv.objects_checked + inv.stripes_checked + inv.logged_parities_checked
        )
        self.fail(len(inv.violations), f"{store.name} check_store violation")


class CheckedStore:
    """Delegating store wrapper that checks reads and times every op.

    Attribute reads *and* writes fall through to the wrapped store (helpers
    such as ``derive_jobs`` re-initialise ``store.tracer``), so the wrapper
    can stand in wherever the harness expects a store.  ``tracer`` is the
    outside-in tracer (or None): each op gets its own span, and value
    checking runs inside a ``check`` span with tracing paused, so the
    ``make_value`` calls it makes are not billed to the system.
    """

    def __init__(self, inner, tally: Tally, tracer=None):
        object.__setattr__(self, "_perf_inner", inner)
        object.__setattr__(self, "_perf_tally", tally)
        object.__setattr__(self, "_perf_tracer", tracer)

    def __getattr__(self, name):
        return getattr(self._perf_inner, name)

    def __setattr__(self, name, value):
        setattr(self._perf_inner, name, value)

    def _perf_call(self, op: str, key: str, check: bool):
        inner = self._perf_inner
        tally = self._perf_tally
        tracer = self._perf_tracer
        tally.attempted += 1
        span = tracer.begin_op(op) if tracer is not None else -1
        t0 = perf_counter()
        try:
            result = getattr(inner, op)(key)
        finally:
            tally.op_host_s.append(perf_counter() - t0)
            if tracer is not None:
                tracer.end_op(span)
        if check:
            token = tracer.begin_check() if tracer is not None else None
            try:
                tally.reads_checked += 1
                expected = inner.expected_value(key)
                if result.value is None or not np.array_equal(result.value, expected):
                    tally.fail(1, f"{inner.name} {op} {key}: bytes != expected_value")
            finally:
                if tracer is not None:
                    tracer.end_check(token)
        return result

    def read(self, key: str):
        return self._perf_call("read", key, check=True)

    def degraded_read(self, key: str):
        return self._perf_call("degraded_read", key, check=True)

    def write(self, key: str):
        return self._perf_call("write", key, check=False)

    def update(self, key: str):
        return self._perf_call("update", key, check=False)

    def delete(self, key: str):
        return self._perf_call("delete", key, check=False)


def mean_us(latencies_s) -> float:
    """Mean of simulated latencies, in microseconds."""
    return sum(latencies_s) / len(latencies_s) * 1e6


def failure_drill(
    store,
    spec,
    requests: list[Request],
    *,
    n_degraded: int,
    n_outage_ops: int,
    kills: int = 1,
    both_repair_modes: bool = False,
    invariants: bool = True,
    tally: Tally | None = None,
) -> dict:
    """Exercise LogECMem's failure paths; returns the drill's sim metrics.

    Crash ``kills`` DRAM nodes, serve ``n_degraded`` forced degraded reads
    (with two nodes down every one decodes through a logged parity), repair
    and restore the nodes, crash a log node (buffer lost), keep serving
    ``n_outage_ops`` requests while it is down, recover it, and scrub; with a
    ``tally`` the scrub (and, with ``invariants``, ``check_store``) is scored.
    Faults go through :class:`FaultInjector` so the journal carries the
    fault windows ``analysis.timeline`` computes MTTR from.
    """
    cluster = store.cluster
    clock = cluster.clock
    injector = FaultInjector(cluster)
    endings = EventQueue()  # crashes schedule no endings; apply() wants a queue
    out: dict = {}

    victims = cluster.dram_ids()[:kills]
    for nid in victims:
        injector.apply(FaultEvent(clock.now, FaultKind.CRASH, nid), clock.now, endings)
    degraded_s = measure_degraded_reads(store, spec, samples=n_degraded)
    out["sim_degraded_us_mean"] = mean_us(degraded_s)
    for nid in victims:
        assisted = repair_node(store, nid, log_assist=True)
        if nid == victims[0]:
            out["sim_repair_gib_per_min"] = assisted.throughput_GiB_per_min
            if both_repair_modes:
                plain = repair_node(store, nid, log_assist=False)
                out["repair_noassist_gib_per_min"] = plain.throughput_GiB_per_min
        cluster.restore(nid)

    log_id = cluster.log_ids()[0]
    injector.apply(FaultEvent(clock.now, FaultKind.CRASH, log_id), clock.now, endings)
    lost = crash_log_node(cluster.log_nodes[log_id])
    cluster.log_nodes[log_id].needs_recovery = True
    for req in requests[:n_outage_ops]:
        op = store.update if req.op is Operation.UPDATE else store.read
        clock.advance(op(req.key).latency_s)
    recovery = recover_log_node(store, log_id, lost_records=lost)
    clock.advance(recovery.duration_s)
    out["recovered_parities"] = recovery.parities_rebuilt

    windows = fault_windows(cluster.journal.to_dicts(), run_end_s=clock.now)
    out["sim_mttr_ms"] = mttr_s(windows) * 1e3
    if tally is None:
        scrub(store)  # the timed, unchecked drill still pays for the scrub
    else:
        tally.record_scrub(store)
        if invariants:
            tally.record_invariants(store)
    return out

"""Busy-time resources and metric counters.

A :class:`Resource` models a serially-shared device (a NIC, a disk spindle,
the proxy CPU).  Work items reserve capacity FIFO-style: a reservation starts
at ``max(request_time, free_at)`` and the completion time is returned, so
callers can decide whether the work sits on a request's critical path
(synchronous) or merely occupies the device (asynchronous flush).

:class:`Counters` is a plain bag of named tallies used for bytes transferred,
RPCs issued, chunks read, etc.  Every number the benchmarks print is
ultimately traceable to one of these counters.
"""

from __future__ import annotations

from collections import defaultdict

from repro.devtools.simsan import runtime as _san

#: The declared counter registry.  Every *literal* counter name passed to
#: :meth:`Counters.add` anywhere in the tree must appear here (or match a
#: prefix below) -- enforced statically by simlint rule SIM004, which parses
#: this assignment out of the module source.  Keeping the names declared in
#: one place is what lets profile snapshots, the Prometheus exporter and the
#: profile golden agree on the metric namespace.
COUNTER_NAMES = frozenset(
    {
        "chunk_reads",
        "chunk_writes",
        "coalesce_flushes",
        "coalesced_updates",
        "corrupt_chunks_detected",
        # concurrent engine (repro.engine): job outcomes, accumulated wait
        # seconds by cause, and the flush/backpressure tallies
        "engine_admission_wait_s",
        "engine_backpressure_stalls",
        "engine_backpressure_wait_s",
        "engine_flush_bytes",
        "engine_flush_deferrals",
        "engine_flushes",
        "engine_jobs_completed",
        "engine_jobs_rejected",
        "engine_station_busy_s",
        "engine_station_wait_s",
        "gc_passes",
        "gc_stripes",
        "gc_stripes_collected",
        "heal_actions_deferred",
        "heal_actions_executed",
        "heal_escalations",
        "heal_incidents",
        "heal_incidents_suppressed",
        "heal_rollbacks",
        "log_appended_bytes",
        "log_buffer_appends",
        "log_buffer_drops",
        "log_buffer_merges",
        "log_flush_bytes",
        "log_flush_records",
        "log_lazy_merge_bytes",
        "log_lazy_merges",
        "log_node_recoveries",
        "log_random_writes",
        "log_scheme_switches",
        "log_sync_stalls",
        "log_region_reads",
        "log_region_spill_extents",
        "logged_parity_disk_reads",
        "logged_parity_reads",
        "multi_failure_repairs",
        "net_bytes",
        "net_messages",
        "net_rpcs",
        "node_repair_chunks",
        "node_repairs",
        "op_degraded_read",
        "op_delete",
        "op_read",
        "op_update",
        "op_write",
        "parity_chunk_reads",
        "parity_deltas_sent",
        "parity_deltas_skipped",
        # determinism sanitizer (repro.devtools.simsan): comparisons run,
        # fingerprint components that diverged, runtime checks that fired
        "sanitize_runs",
        "sanitize_hazards",
        "sanitize_violations",
        "stripes_sealed",
        # sim-time telemetry (repro.obs.timeseries)
        "telemetry_samples",
        "telemetry_slo_burns",
    }
)

#: Dynamic counter families (name built with an f-string at runtime): the
#: journal's per-kind event totals and the per-scheme flush tallies.
COUNTER_PREFIXES = ("events_", "log_flushes_")


class Resource:
    """A serially-shared device with FIFO reservations and busy accounting."""

    __slots__ = ("name", "free_at", "busy_s", "jobs")

    def __init__(self, name: str):
        self.name = name
        self.free_at = 0.0  # absolute sim time when the device frees up
        self.busy_s = 0.0  # total occupied seconds (for utilisation)
        self.jobs = 0

    def reserve(self, now: float, duration: float) -> float:
        """Queue ``duration`` seconds of work at time ``now``.

        Returns the absolute completion time.  The device is busy from
        ``max(now, free_at)`` to that completion time.
        """
        if duration < 0:
            raise ValueError(f"negative duration {duration}")
        start = now if now > self.free_at else self.free_at
        self.free_at = start + duration
        self.busy_s += duration
        self.jobs += 1
        return self.free_at

    def wait_s(self, now: float) -> float:
        """How long a job arriving at ``now`` waits before starting."""
        return max(0.0, self.free_at - now)

    def utilisation(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` seconds the device was occupied."""
        return 0.0 if elapsed <= 0 else min(1.0, self.busy_s / elapsed)

    def reset(self) -> None:
        self.free_at = 0.0
        self.busy_s = 0.0
        self.jobs = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Resource({self.name!r}, busy={self.busy_s:.3f}s, jobs={self.jobs})"


class Counters:
    """Named integer/float tallies with dict-like access."""

    def __init__(self) -> None:
        self._values: dict[str, float] = defaultdict(float)

    def add(self, name: str, amount: float = 1.0) -> None:
        self._values[name] += amount
        san = _san.ACTIVE
        if san is not None:
            san.on_counter(name, self._values[name])

    def add_net(self, rpcs: int, nbytes: int) -> None:
        """``rpcs`` round trips (two messages each) carrying ``nbytes``: the
        three ``net_*`` tallies every network primitive moves together.

        One call in place of ``add("net_rpcs", rpcs)``,
        ``add("net_messages", 2 * rpcs)``, ``add("net_bytes", nbytes)``: same
        totals, and simsan sees the same ``(name, value)`` sequence."""
        values = self._values
        values["net_rpcs"] += rpcs
        values["net_messages"] += 2 * rpcs
        values["net_bytes"] += nbytes
        san = _san.ACTIVE
        if san is not None:
            san.on_counter("net_rpcs", values["net_rpcs"])
            san.on_counter("net_messages", values["net_messages"])
            san.on_counter("net_bytes", values["net_bytes"])

    def get(self, name: str) -> float:
        return self._values.get(name, 0.0)

    def __getitem__(self, name: str) -> float:
        return self._values.get(name, 0.0)

    def as_dict(self) -> dict[str, float]:
        return dict(self._values)

    def reset(self) -> None:
        self._values.clear()

    def merge(self, other: "Counters") -> None:
        for name, value in other._values.items():
            self._values[name] += value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{k}={v:g}" for k, v in sorted(self._values.items()))
        return f"Counters({inner})"

"""FIFO service stations: named, fault-aware servers over ``sim.Resource``.

A :class:`Station` is one serially-shared device the engine schedules jobs
onto -- the proxy CPU, the proxy NIC, one DRAM node's NIC, one log node's
disk.  It wraps the busy-time :class:`~repro.sim.resources.Resource` (so
utilisation accounting matches the rest of the simulator) and adds what the
concurrent engine needs on top:

* FIFO queueing statistics: jobs arriving while the device is busy wait
  ``free_at - now``; total/max wait and a live pending count feed the
  queue-depth counters and the load-curve JSON;
* fault hooks: a multiplicative ``slowdown`` (straggler) scales the service
  time of stages *arriving* during the fault window, and ``stall_until``
  freezes the device (disk stall, blip, partition) -- arrivals queue behind
  the stall exactly like behind a long job.

Because the engine submits stages in event order (the event queue fires in
global time order, ties by sequence number), reserve-on-arrival *is* FIFO
service: no separate queue structure is needed, and the completion time each
``submit`` returns is deterministic.
"""

from __future__ import annotations

from repro.devtools.simsan import runtime as _san
from repro.sim.resources import Resource



class Station:
    """One FIFO server with queueing stats and fault state."""

    __slots__ = (
        "name",
        "resource",
        "slowdown",
        "stall_until",
        "pending",
        "max_pending",
        "total_wait_s",
        "max_wait_s",
    )

    def __init__(self, name: str):
        self.name = name
        self.resource = Resource(name)
        self.slowdown = 1.0
        self.stall_until = 0.0
        self.pending = 0  # stages submitted but not yet completed
        self.max_pending = 0
        self.total_wait_s = 0.0
        self.max_wait_s = 0.0

    def submit(self, now: float, service_s: float) -> tuple[float, float]:
        """Queue one stage arriving at ``now``; returns ``(wait_s, done_at)``.

        The stage starts at ``max(now, stall_until, free_at)`` and occupies
        the device for ``service_s * slowdown`` seconds.  The caller must
        pair every submit with a :meth:`depart` at ``done_at`` (the engine
        schedules it), which keeps the live queue depth honest.
        """
        resource = self.resource
        # max(now, stall_until), max(0.0, max(ready, free_at) - now) as compares
        ready = self.stall_until if self.stall_until > now else now
        free_at = resource.free_at
        wait = (free_at if free_at > ready else ready) - now
        if not wait > 0.0:
            wait = 0.0
        done = resource.reserve(ready, service_s * self.slowdown)
        san = _san.ACTIVE
        if san is not None:
            san.on_acquire(self.name, now)
        self.pending += 1
        if self.pending > self.max_pending:
            self.max_pending = self.pending
        self.total_wait_s += wait
        if wait > self.max_wait_s:
            self.max_wait_s = wait
        return wait, done

    def depart(self) -> None:
        san = _san.ACTIVE
        if san is not None:
            san.on_release(self.name)
        self.pending -= 1

    # ------------------------------------------------------------ fault hooks

    def set_slowdown(self, factor: float) -> None:
        if factor < 1.0:
            raise ValueError(f"slowdown factor must be >= 1, got {factor}")
        self.slowdown = factor

    def clear_slowdown(self) -> None:
        self.slowdown = 1.0

    def stall(self, until_s: float) -> None:
        """Freeze the device until ``until_s`` (extends, never shrinks)."""
        if until_s > self.stall_until:
            self.stall_until = until_s

    # ------------------------------------------------------------- reporting

    def backlog_s(self, now: float) -> float:
        """Seconds of queued work ahead of an arrival at ``now``."""
        free_at = self.resource.free_at
        backlog = (self.stall_until if self.stall_until > free_at else free_at) - now
        return backlog if backlog > 0.0 else 0.0

    def busy_elapsed_s(self, now: float) -> float:
        """Busy seconds actually elapsed by ``now``.

        ``resource.busy_s`` counts reserved work including the part scheduled
        past ``now``; for contiguous FIFO reservations the not-yet-elapsed
        part is exactly ``free_at - now``, so subtracting it gives the busy
        time a wall observer would have seen -- the windowed-utilisation
        signal the telemetry sampler differences between ticks.
        """
        resource = self.resource
        ahead = resource.free_at - now
        busy = resource.busy_s - ahead if ahead > 0.0 else resource.busy_s
        return busy if busy > 0.0 else 0.0

    def stats(self, elapsed_s: float) -> dict:
        """Deterministic summary for the load-curve JSON."""
        jobs = self.resource.jobs
        return {
            "jobs": jobs,
            "busy_s": round(self.resource.busy_s, 9),
            "utilisation": round(self.resource.utilisation(elapsed_s), 6),
            "mean_wait_us": round(self.total_wait_s / jobs * 1e6, 3) if jobs else 0.0,
            "max_wait_us": round(self.max_wait_s * 1e6, 3),
            "max_queue_depth": self.max_pending,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Station({self.name!r}, pending={self.pending}, x{self.slowdown:g})"

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

    def utilisation(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` seconds the device was occupied."""
        return 0.0 if elapsed <= 0 else min(1.0, self.busy_s / elapsed)

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

    def merge(self, other: "Counters") -> None:
        for name, value in other._values.items():
            self._values[name] += value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{k}={v:g}" for k, v in sorted(self._values.items()))
        return f"Counters({inner})"

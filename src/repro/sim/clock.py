"""Simulation clock.

A single monotonically non-decreasing ``now``.  Stores advance it by the
critical-path latency of each request; asynchronous work (log flushes) is
tracked against resource-free times rather than the clock, so background IO
never stalls the clock unless backpressure makes it part of a request's
critical path.
"""

from __future__ import annotations


class SimClock:
    """Monotonic simulated time in seconds."""

    __slots__ = ("now",)

    def __init__(self, start: float = 0.0):
        self.now = float(start)

    def advance(self, dt: float) -> float:
        """Move time forward by ``dt`` seconds and return the new time."""
        if dt < 0:
            raise ValueError(f"cannot advance clock by negative dt={dt}")
        self.now += dt
        return self.now

    def advance_to(self, t: float) -> float:
        """Move time forward to absolute time ``t`` (no-op if in the past)."""
        if t > self.now:
            self.now = t
        return self.now

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimClock(now={self.now:.6f}s)"

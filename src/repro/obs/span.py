"""Span-based tracing over the simulated clock.

The stores compute request latency *analytically* -- each phase is a float
the cost model produces, and the clock advances only after the op returns.
A :class:`Span` therefore records phase durations the store assigns, laid
out sequentially from the op's simulated start time, rather than measuring
wall-clock deltas.  The contract the tests enforce: when an op finishes its
root span with the latency it reports, ``root.duration_s`` equals
``OpResult.latency_s`` exactly, and the children name where that time went
(``update -> encode_delta -> ship_delta -> log_ack``,
``degraded_read -> fetch_survivors -> fetch_logged_parity -> decode``, ...).

:class:`Tracer` hands out root spans, keeps a bounded ring of finished
trees, and fans finished roots out to sinks (the
:class:`~repro.obs.metrics.MetricsRegistry` registers itself as one).
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.sim.clock import SimClock

_new_span = object.__new__


class Span:
    """One named interval with sequentially-laid-out children."""

    __slots__ = ("name", "start_s", "duration_s", "attrs", "children")

    def __init__(self, name: str, start_s: float, **attrs):
        self.name = name
        self.start_s = start_s
        self.duration_s = 0.0
        self.attrs: dict = attrs
        self.children: list[Span] = []

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    def child(self, name: str, duration_s: float = 0.0, **attrs) -> "Span":
        """Append a child phase starting where the previous sibling ended."""
        children = self.children
        if children:
            last = children[-1]
            start = last.start_s + last.duration_s  # its end_s, as of now
        else:
            start = self.start_s
        # filled slot by slot: ``attrs`` is already the dict ``Span(...)``
        # would unpack and re-pack, and a phase is minted 2-6 times per op
        sub = _new_span(Span)
        sub.name = name
        sub.start_s = start
        sub.duration_s = float(duration_s)
        sub.attrs = attrs
        sub.children = []
        children.append(sub)
        return sub

    def finish(self, duration_s: float) -> "Span":
        """Set the span's total duration (the op's reported latency)."""
        self.duration_s = float(duration_s)
        return self

    def to_dict(self) -> dict:
        """JSON-friendly form; floats kept verbatim (determinism is the
        caller's concern -- same seed, same floats)."""
        d: dict = {"name": self.name, "start_s": self.start_s, "duration_s": self.duration_s}
        if self.attrs:
            d["attrs"] = {k: v for k, v in sorted(self.attrs.items())}
        if self.children:
            d["children"] = [c.to_dict() for c in self.children]
        return d

    def render(self, indent: int = 0) -> str:
        """ASCII tree, one line per span, durations in microseconds."""
        pad = "  " * indent
        attrs = "".join(f" {k}={v}" for k, v in sorted(self.attrs.items()))
        lines = [f"{pad}{self.name}  {self.duration_s * 1e6:.3f}us{attrs}"]
        for c in self.children:
            lines.append(c.render(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Span({self.name!r}, start={self.start_s:.6f}, "
            f"dur={self.duration_s * 1e6:.1f}us, children={len(self.children)})"
        )


class Tracer:
    """Produces root spans stamped with simulated time; retains the last
    ``keep_last`` finished trees and notifies registered sinks."""

    def __init__(self, clock: SimClock, keep_last: int = 256):
        self.clock = clock
        self.spans: deque[Span] = deque(maxlen=keep_last)
        self._sinks: list[Callable[[Span], None]] = []

    def add_sink(self, sink: Callable[[Span], None]) -> None:
        self._sinks.append(sink)

    def start(self, name: str, **attrs) -> Span:
        """Open a root span at the current simulated time."""
        return Span(name, self.clock.now, **attrs)

    def finish(self, span: Span, duration_s: float) -> Span:
        """Close a root span with the op's reported latency and publish it."""
        span.duration_s = float(duration_s)
        self.spans.append(span)
        for sink in self._sinks:
            sink(span)
        return span

    @property
    def last(self) -> Span | None:
        return self.spans[-1] if self.spans else None

    def drain(self) -> list[Span]:
        """Remove and return the retained span trees, oldest first."""
        out = list(self.spans)
        self.spans.clear()
        return out

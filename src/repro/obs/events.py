"""Flight recorder: typed, sim-clock-stamped structured events.

Per-op spans (:mod:`repro.obs.span`) answer "where did this request's time
go"; the *event journal* answers the system-level question the evaluation
hinges on: when did log buffers flush, when did PLM's lazy merge fire, which
fault windows were open while latency shifted, when did a stale parity get
marked and recovered.  Every subsystem that changes durable or availability
state emits an :class:`Event` into one cluster-wide :class:`EventJournal`:

* ``logstore/`` -- ``log_flush`` (all four schemes), ``lazy_merge`` (PLM);
* ``cluster/node.py`` -- ``buffer_merge`` / ``buffer_drop``;
* ``core/`` -- ``gc_pass``, ``scrub_pass``, ``repair_start`` /
  ``repair_done``, ``stale_mark`` / ``stale_recover``;
* ``chaos/`` -- ``fault_inject`` / ``fault_heal``, ``retry`` / ``backoff``;
* ``heal/`` -- ``heal_detect`` / ``heal_propose`` / ``heal_verify`` /
  ``heal_execute`` / ``heal_rollback`` (the control-plane pipeline stages)
  and ``scheme_switch`` (a log node migrating its on-disk layout).

The journal is a bounded ring (oldest events drop first; per-kind counts
survive eviction) stamped from the simulated clock, so a same-seed run
produces the same events with the same timestamps -- ``to_jsonl()`` is
byte-identical across runs, which the tests and CI enforce.  When wired to
the cluster's :class:`~repro.sim.resources.Counters` bag, every ``emit``
also bumps ``events_<kind>``, so event rates land in the same profile
snapshots as every other counter.
"""

from __future__ import annotations

import json
from collections import deque

from repro.obs.names import EVENT_KINDS
from repro.sim.clock import SimClock
from repro.sim.resources import Counters



class Event:
    """One journal entry: kind + simulated timestamp + sorted attributes."""

    __slots__ = ("t_s", "kind", "attrs")

    def __init__(self, t_s: float, kind: str, attrs: dict):
        self.t_s = t_s
        self.kind = kind
        self.attrs = attrs

    def to_dict(self) -> dict:
        """JSON-ready form; floats rounded so serialisation is stable."""
        attrs = {
            k: round(v, 9) if isinstance(v, float) else v
            for k, v in sorted(self.attrs.items())
        }
        return {"t_s": round(self.t_s, 9), "kind": self.kind, "attrs": attrs}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self.attrs.items()))
        return f"Event({self.t_s * 1e3:.3f}ms, {self.kind}, {inner})"


class EventJournal:
    """Bounded deterministic ring of events over the simulated clock.

    ``emit`` stamps the cluster clock, validates the kind against
    :data:`EVENT_KINDS`, and (when a counter bag is attached) bumps
    ``events_<kind>`` so event totals reach metric snapshots even after the
    ring evicts the events themselves.
    """

    def __init__(
        self,
        clock: SimClock,
        counters: Counters | None = None,
        capacity: int = 4096,
    ):
        if capacity < 1:
            raise ValueError(f"journal capacity must be >= 1, got {capacity}")
        self.clock = clock
        self.counters = counters
        self.capacity = int(capacity)
        self._ring: deque[Event] = deque(maxlen=self.capacity)
        self.counts: dict[str, int] = {}
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._ring)

    def emit(self, kind: str, /, **attrs) -> Event:
        """Record one event at the current simulated time.

        ``kind`` is positional-only so attrs may themselves carry a ``kind``
        key (fault events do: the event kind is ``fault_inject``, the fault
        kind ``crash``/``blip``/...)."""
        if kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown event kind {kind!r}; taxonomy: {sorted(EVENT_KINDS)}"
            )
        event = Event(self.clock.now, kind, attrs)
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append(event)
        self.counts[kind] = self.counts.get(kind, 0) + 1
        if self.counters is not None:
            self.counters.add(f"events_{kind}")
        return event

    # ------------------------------------------------------------- inspection

    def events(self) -> list[Event]:
        """Retained events, oldest first."""
        return list(self._ring)

    def tail(self, n: int = 20) -> list[Event]:
        """The newest ``n`` retained events, oldest of them first."""
        if n <= 0:
            return []
        return list(self._ring)[-n:]

    def to_dicts(self) -> list[dict]:
        return [e.to_dict() for e in self._ring]

    def to_jsonl(self) -> str:
        """Byte-stable JSONL dump (sorted keys, one event per line)."""
        lines = [json.dumps(e.to_dict(), sort_keys=True) for e in self._ring]
        return "\n".join(lines) + ("\n" if lines else "")

    def drain(self) -> list[Event]:
        """Remove and return retained events (per-kind counts survive)."""
        out = list(self._ring)
        self._ring.clear()
        return out


class _NullJournal(EventJournal):
    """Absorbs emissions at zero cost when no journal is wired up (e.g. a
    log scheme constructed stand-alone in a unit test)."""

    def __init__(self):
        super().__init__(SimClock(), None, capacity=1)

    def emit(self, kind: str, /, **attrs) -> Event:  # noqa: ARG002
        return Event(0.0, kind, attrs)


NULL_JOURNAL = _NullJournal()

"""Tiny deterministic event queue for asynchronous work.

Log-node buffer flushes complete in the background; the stores drain due
events before serving each request so that buffer occupancy and disk backlog
evolve consistently with simulated time.  Ordering ties are broken by a
monotonically increasing sequence number, keeping runs bit-reproducible.

Tie-breaking contract
---------------------
Events scheduled for the *same* simulated time normally fire in FIFO
(schedule) order.  That order is an implementation detail, not a semantic
guarantee: a handler whose observable result depends on it is order-sensitive
and will break the moment scheduling order shifts.  ``simsan`` (the runtime
determinism sanitizer, ``repro.devtools.simsan``) re-executes scenarios under
*permuted* tie-breaking to surface exactly that class of bug.  Three modes:

- ``"fifo"`` -- the default; ties fire in schedule order.
- ``"reversed"`` -- ties fire in reverse schedule order.
- ``"shuffle"`` -- ties fire in a deterministic pseudo-random order derived
  from a seed via an integer mix (no ``random`` module, no hash seeds).

The ambient mode is installed with :func:`tiebreak` (a context manager) and
captured by each ``EventQueue`` **at construction**, so a sanitizer run wraps
scenario construction + execution and every queue inside inherits the mode.
The default mode orders the heap exactly as the historical ``(time, seq)``
key did, byte-for-byte.

Re-entrancy contract
--------------------
``run_until(now)`` fires every event with ``time <= now`` **including events
scheduled by callbacks while the drain is in progress**: a callback may
schedule at ``t <= now`` and the new event fires in the same pass, in its
time/tie-break position among the remaining due events.  ``drain()`` extends
the same guarantee without a time bound.  Scheduling strictly in the past is
allowed by the queue itself (the event fires immediately on the next pass);
time never runs backwards because callers advance their clock to
``next_time()`` before each pass -- or hand the clock to ``drain(clock)``,
which is that loop in one call: ``clock.advance_to(when)`` before every
event.  The heap pops in ``(time, tie_key, seq)`` order either way, so one
event at a time fires the same sequence as batching each timestamp through
``run_until``.

A NaN fire time raises ``ValueError``: every comparison with NaN is false, so
one such entry would silently break the heap invariant for later events.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, Iterator

from repro.sim.clock import SimClock

_MASK64 = (1 << 64) - 1

#: valid tie-break modes, in report order
TIEBREAK_MODES = ("fifo", "reversed", "shuffle")


def _mix64(value: int, seed: int) -> int:
    """Deterministic splitmix64-style integer mix (hash-seed independent)."""
    x = (value * 0x9E3779B97F4A7C15 + seed * 0xBF58476D1CE4E5B9 + 1) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


@dataclass(frozen=True)
class TieBreak:
    """How equal-timestamp events are ordered within one ``EventQueue``."""

    mode: str = "fifo"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in TIEBREAK_MODES:
            raise ValueError(
                f"unknown tie-break mode {self.mode!r}; expected one of {TIEBREAK_MODES}"
            )

    def key(self, seq: int) -> int:
        """Heap ordering key for schedule index ``seq`` among equal times."""
        if self.mode == "fifo":
            return seq
        if self.mode == "reversed":
            return -seq
        return _mix64(seq, self.seed)


#: ambient tie-break captured by new queues; FIFO unless a sanitizer run
#: installs a permutation via :func:`tiebreak` / :func:`set_tiebreak`.
_AMBIENT = TieBreak()


def set_tiebreak(tb: TieBreak) -> TieBreak:
    """Install ``tb`` as the ambient tie-break; returns the previous one."""
    global _AMBIENT
    previous = _AMBIENT
    _AMBIENT = tb
    return previous


@contextmanager
def tiebreak(mode: str, seed: int = 0) -> Iterator[TieBreak]:
    """Scope an ambient tie-break: queues constructed inside inherit it."""
    tb = TieBreak(mode, seed)
    previous = set_tiebreak(tb)
    try:
        yield tb
    finally:
        set_tiebreak(previous)


class EventQueue:
    """Min-heap of ``(time, tie_key, seq, callback)`` events.

    ``tie_key`` equals ``seq`` in the default FIFO mode, so default ordering
    is identical to the historical ``(time, seq)`` heap; permuted modes only
    reorder events whose times are exactly equal.  ``seq`` stays in the entry
    as the final (unique) comparison key so callbacks are never compared.
    """

    def __init__(self, tie: TieBreak | None = None) -> None:
        self._heap: list[tuple[float, int, int, Callable[[float], None]]] = []
        self._seq = 0
        self._tie = tie if tie is not None else _AMBIENT
        self._fifo = self._tie.mode == "fifo"  # tie_key == seq, no key() call

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def tie(self) -> TieBreak:
        return self._tie

    def schedule(self, when: float, callback: Callable[[float], None]) -> None:
        """Run ``callback(fire_time)`` once simulated time reaches ``when``."""
        if when != when:
            raise ValueError("cannot schedule an event at time NaN")
        seq = self._seq
        self._seq = seq + 1
        key = seq if self._fifo else self._tie.key(seq)
        heappush(self._heap, (when, key, seq, callback))

    def next_time(self) -> float | None:
        """Time of the earliest pending event, or None."""
        return self._heap[0][0] if self._heap else None

    def run_until(self, now: float) -> int:
        """Fire every event with time <= ``now``; returns how many fired.

        Re-entrant: a callback may schedule new events, and any of them due
        at ``t <= now`` fire in this same pass (see module docstring).
        """
        heap, pop = self._heap, heappop
        fired = 0
        while heap and heap[0][0] <= now:
            when, _, _, callback = pop(heap)
            callback(when)
            fired += 1
        return fired

    def drain(self, clock: SimClock | None = None) -> int:
        """Fire everything regardless of time (end-of-run settling); with
        ``clock``, advance it to each event's time before the callback runs."""
        heap, pop = self._heap, heappop
        advance = clock.advance_to if clock is not None else None
        fired = 0
        while heap:
            when, _, _, callback = pop(heap)
            if advance is not None:
                advance(when)
            callback(when)
            fired += 1
        return fired

    def clear(self) -> None:
        self._heap.clear()

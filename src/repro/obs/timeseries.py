"""Sim-time telemetry: windowed series sampling and SLO burn-rate signals.

End-of-run aggregates (``Station.stats``, ``peak_occupancy``, whole-run
histograms) say *that* a knee or a stall happened; they cannot say *when*,
or how the system moved through it.  This module adds the missing time axis:
a :class:`TelemetrySampler` takes a snapshot of engine/cluster state every
``interval_s`` simulated seconds and appends it to named, bounded
:class:`Series`.  A series' ``kind`` says what its points are:

* ``"gauge"`` -- an instantaneous level (station utilisation, queue depth,
  buffer occupancy, parked-waiter count); probes record these;
* ``"windowed_counter"`` -- events accumulated *between* samples
  (``client.ops``: completed ops per window).  Window sums conserve the
  underlying total: ``sum(window values) + open window == ops observed``;
* ``"sliding_quantile"`` -- an exact order-statistic quantile over the
  observations of the trailing window (``client.p99_us``).

Each series keeps its points in a bounded ring (oldest drop first) while
``count``/``sum`` totals survive eviction, mirroring the event journal's
contract.  All timestamps come from the simulated clock, so a same-seed run
produces byte-identical series; the exporters in :mod:`repro.obs.export`
rely on that.

On top of the raw series sits :class:`SLOTracker`: given a target p99, every
window's fraction of over-target ops is divided by the error budget
(``1 -`` :data:`SLO_OBJECTIVE`) to get a *burn rate* -- burn rate 1.0 means
the budget is being spent exactly as fast as it accrues; 10x means ten times
faster.  A burn rate above :data:`SLO_BURN_THRESHOLD` is burning; both are
constants, and the sliding p99 spans :data:`P99_WINDOWS` sample intervals.
Threshold crossings are edge-detected into ``telemetry_slo_burn`` /
``telemetry_slo_ok`` journal events, so a journal slice shows when each burn
episode started and ended next to the engine's own events.
"""

from __future__ import annotations

import math
from collections import deque

from repro.obs.events import EventJournal
from repro.sim.resources import Counters

#: the availability objective: at most 1 % of ops may miss the p99 target
SLO_OBJECTIVE = 0.99
#: burn rate above which a window counts as burning the error budget
SLO_BURN_THRESHOLD = 1.0
#: the sliding ``client.p99_us`` window, in sample intervals
P99_WINDOWS = 5


def exact_quantile(sorted_values: list[float], q: float) -> float:
    """Exact order-statistic quantile of an already-sorted list."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


class Series:
    """One named time series: a bounded ring of ``(t_s, value)`` points.

    ``kind`` is ``"gauge"``, ``"windowed_counter"`` or ``"sliding_quantile"``
    (see the module docstring); the sampler computes each point, the series
    only keeps it.  The ring drops oldest points first; ``count`` and
    ``total`` keep accounting for every point ever recorded, so eviction
    loses resolution, never totals.  Times and values sit in parallel rings
    of plain floats: recording a point allocates nothing the collector
    tracks.
    """

    __slots__ = ("name", "kind", "capacity", "_t", "_v", "count", "total")

    def __init__(self, name: str, kind: str, capacity: int = 512):
        if capacity < 1:
            raise ValueError(f"series capacity must be >= 1, got {capacity}")
        self.name = name
        self.kind = kind
        self.capacity = int(capacity)
        self._t: deque[float] = deque(maxlen=self.capacity)
        self._v: deque[float] = deque(maxlen=self.capacity)
        self.count = 0
        self.total = 0.0

    def __len__(self) -> int:
        return len(self._t)

    def record(self, t_s: float, value: float) -> None:
        times = self._t
        if times and t_s < times[-1]:
            raise ValueError(
                f"series {self.name!r}: non-monotone timestamp {t_s} < {times[-1]}"
            )
        value = float(value)
        times.append(t_s)
        self._v.append(value)
        self.count += 1
        self.total += value

    # ------------------------------------------------------------- inspection

    def points(self) -> list[tuple[float, float]]:
        """Retained ``(t_s, value)`` points, oldest first."""
        return list(zip(self._t, self._v))

    def last(self) -> tuple[float, float] | None:
        return (self._t[-1], self._v[-1]) if self._t else None

    def to_dict(self) -> dict:
        """JSON-ready form with rounded floats (byte-stable)."""
        return {
            "kind": self.kind,
            "count": self.count,
            "total": round(self.total, 9),
            "points": [[round(t, 9), round(v, 9)] for t, v in zip(self._t, self._v)],
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Series({self.name!r}, {self.kind}, n={len(self._t)})"


class SLOTracker:
    """Error-budget burn rate against a latency SLO, per sample window.

    Every acked op is classified good/bad against ``target_p99_us``; at each
    sample tick the window's bad fraction is divided by the error budget
    (``1 - SLO_OBJECTIVE``) to get the burn rate.  A window whose burn rate
    exceeds ``SLO_BURN_THRESHOLD`` opens a *burning* episode; the rising edge
    emits ``telemetry_slo_burn`` and the falling edge ``telemetry_slo_ok``
    (both attributed to the whole cluster: ``node="_cluster"``).
    """

    def __init__(
        self,
        target_p99_us: float,
        journal: EventJournal | None = None,
        counters: Counters | None = None,
    ):
        if target_p99_us <= 0:
            raise ValueError(f"target_p99_us must be > 0, got {target_p99_us}")
        self.target_p99_us = float(target_p99_us)
        self.journal = journal
        self.counters = counters
        self.window_ops = 0
        self.window_bad = 0
        self.total_ops = 0
        self.total_bad = 0
        self.burning = False
        self.episodes = 0
        self.samples_burning = 0
        self.max_burn_rate = 0.0

    def observe(self, latency_us: float) -> None:
        self.window_ops += 1
        self.total_ops += 1
        if latency_us > self.target_p99_us:
            self.window_bad += 1
            self.total_bad += 1

    def sample(self, t_s: float) -> float:
        """Close the window at ``t_s``; returns its burn rate."""
        budget = 1.0 - SLO_OBJECTIVE
        bad_frac = self.window_bad / self.window_ops if self.window_ops else 0.0
        burn = bad_frac / budget
        ops, bad = self.window_ops, self.window_bad
        self.window_ops = 0
        self.window_bad = 0
        if burn > self.max_burn_rate:
            self.max_burn_rate = burn
        burning = ops > 0 and burn > SLO_BURN_THRESHOLD
        if burning:
            self.samples_burning += 1
        if burning and not self.burning:
            self.episodes += 1
            if self.counters is not None:
                self.counters.add("telemetry_slo_burns")
            if self.journal is not None:
                self.journal.emit(
                    "telemetry_slo_burn",
                    node="_cluster",
                    burn_rate=round(burn, 6),
                    window_ops=ops,
                    window_bad=bad,
                    target_p99_us=round(self.target_p99_us, 3),
                )
        elif self.burning and not burning:
            if self.journal is not None:
                self.journal.emit(
                    "telemetry_slo_ok",
                    node="_cluster",
                    burn_rate=round(burn, 6),
                    window_ops=ops,
                )
        self.burning = burning
        return burn

    def summary(self) -> dict:
        """Deterministic end-of-run view (rounded for byte-stable JSON)."""
        return {
            "target_p99_us": round(self.target_p99_us, 3),
            "objective": round(SLO_OBJECTIVE, 6),
            "burn_threshold": round(SLO_BURN_THRESHOLD, 6),
            "total_ops": self.total_ops,
            "total_bad": self.total_bad,
            "episodes": self.episodes,
            "samples_burning": self.samples_burning,
            "max_burn_rate": round(self.max_burn_rate, 6),
        }


class TelemetrySampler:
    """Fixed-interval telemetry over the simulated clock.

    Owns the named series and a list of probe callbacks ``fn(t_s, sampler)``
    that gauge live state at each tick; the client stream (``client.ops``,
    ``client.throughput_ops_s``, ``client.p99_us``) it folds itself from
    :meth:`observe_op`.  Callers take ticks with :meth:`pump`, which samples
    every whole-interval tick the clock has crossed: the chaos harness after
    each clock advance, the engine from a self-rescheduling queue event at
    :meth:`next_tick`.  Sample times are therefore strictly increasing
    multiples of ``interval_s`` (plus one final off-grid point from
    :meth:`finish`), which the property tests assert.
    """

    def __init__(
        self,
        interval_s: float,
        capacity: int = 512,
        journal: EventJournal | None = None,
        counters: Counters | None = None,
        slo: SLOTracker | None = None,
    ):
        if interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {interval_s}")
        self.interval_s = float(interval_s)
        self.capacity = int(capacity)
        self.journal = journal
        self.counters = counters
        self.slo = slo
        self.series: dict[str, Series] = {}
        self.samples = 0
        self.last_t_s = -1.0
        self._probes: list = []
        self._next_tick = self.interval_s
        #: ops acked in the open window, and the ``(t_s, latency_us)``
        #: observations of the trailing ``_p99_window_s`` in parallel rings
        self.window_ops = 0
        self._obs_t: deque[float] = deque()
        self._obs_v: deque[float] = deque()
        self._p99_window_s = P99_WINDOWS * self.interval_s
        # the client-stream series every run gets; probes add the rest
        self._ops = self._add("client.ops", "windowed_counter")
        self._throughput = self.gauge("client.throughput_ops_s")
        self._p99 = self._add("client.p99_us", "sliding_quantile")
        self._burn = self.gauge("slo.burn_rate") if slo is not None else None

    # -------------------------------------------------------------- registry

    def _add(self, name: str, kind: str) -> Series:
        s = self.series[name] = Series(name, kind, self.capacity)
        return s

    def gauge(self, name: str) -> Series:
        s = self.series.get(name)
        return s if s is not None else self._add(name, "gauge")

    def add_probe(self, probe) -> None:
        """Register ``fn(t_s, sampler)`` to gauge live state at each tick."""
        self._probes.append(probe)

    # ------------------------------------------------------------- ingestion

    def observe_op(self, t_s: float, latency_s: float, op: str) -> None:
        """Feed one acked client op into the stream series and the SLO."""
        del op  # per-op split stays in the end-of-run histograms
        latency_us = latency_s * 1e6
        self.window_ops += 1
        self._obs_t.append(t_s)
        self._obs_v.append(latency_us)
        if self.slo is not None:
            self.slo.observe(latency_us)

    # -------------------------------------------------------------- sampling

    def sample(self, t_s: float) -> bool:
        """Take one snapshot at ``t_s``; returns False for stale ticks."""
        if t_s <= self.last_t_s:
            return False
        for probe in self._probes:
            probe(t_s, self)
        window_ops = self.window_ops
        self.window_ops = 0
        self._ops.record(t_s, window_ops)
        elapsed = t_s - self.last_t_s if self.last_t_s >= 0 else t_s
        rate = window_ops / elapsed if elapsed > 0 else 0.0
        self._throughput.record(t_s, rate)
        # prune the observations older than the window, then take the exact
        # p99 of what remains (0.0 when it is empty: an idle window has no tail)
        horizon = t_s - self._p99_window_s
        times, values = self._obs_t, self._obs_v
        while times and times[0] < horizon:
            times.popleft()
            values.popleft()
        self._p99.record(t_s, exact_quantile(sorted(values), 0.99))
        if self._burn is not None:
            self._burn.record(t_s, self.slo.sample(t_s))
        self.samples += 1
        self.last_t_s = t_s
        if self.counters is not None:
            self.counters.add("telemetry_samples")
        return True

    def pump(self, now_s: float) -> int:
        """Take every whole-interval tick up to ``now_s``; returns the
        number of samples taken."""
        taken = 0
        while self._next_tick <= now_s:
            if self.sample(self._next_tick):
                taken += 1
            self._next_tick += self.interval_s
        return taken

    def next_tick(self) -> float:
        """The next scheduled sample time (engine scheduling hook)."""
        return self._next_tick

    def finish(self, t_s: float) -> None:
        """Final off-grid sample at run end, so the open window is flushed
        and window sums conserve the underlying totals."""
        if t_s > self.last_t_s:
            self.sample(t_s)
        # a finished sampler is a dump: it must not pin its probes' owners
        self._probes.clear()

    # --------------------------------------------------------- serialisation

    def to_dict(self) -> dict:
        """Deterministic JSON-ready dump of every series plus SLO summary."""
        doc = {
            "interval_s": round(self.interval_s, 9),
            "samples": self.samples,
            "series": {name: self.series[name].to_dict() for name in sorted(self.series)},
        }
        if self.slo is not None:
            doc["slo"] = self.slo.summary()
        return doc

"""Metrics: counters + deterministic streaming latency histograms.

:class:`LatencyHistogram` is a fixed-layout log-binned histogram (no
allocation growth, O(1) observe, deterministic quantiles -- same inputs,
same bins, same p50/p90/p99 on every run and platform).  Exact count, sum,
min and max are kept alongside, so means are exact and quantiles are only
bin-resolution approximations (1/32 of a decade, ~7.5% worst-case relative
error -- far below the cross-store effects the benchmarks compare).

:class:`MetricsRegistry` sits beside the cluster's
:class:`repro.sim.resources.Counters` bag (same object, so the existing
accounting keeps flowing through and lands in ``snapshot()``) and adds
per-(store, op) latency histograms plus per-phase time accumulators fed
from finished spans.
"""

from __future__ import annotations

import math

from repro.obs.span import Span
from repro.sim.resources import Counters

#: histogram layout: 32 bins per decade from 100 ns to 1000 s
_LO_S = 1e-7
_BINS_PER_DECADE = 32
_DECADES = 10
_NBINS = _BINS_PER_DECADE * _DECADES


class LatencyHistogram:
    """Log-binned streaming histogram of seconds with deterministic quantiles."""

    __slots__ = ("bins", "count", "total_s", "min_s", "max_s")

    def __init__(self) -> None:
        self.bins = [0] * (_NBINS + 2)  # + underflow [0] and overflow [-1]
        self.count = 0
        self.total_s = 0.0
        self.min_s = math.inf
        self.max_s = 0.0

    @staticmethod
    def _bin_upper_s(index: int) -> float:
        """Upper edge of a bin -- the quantile estimate (conservative)."""
        if index <= 0:
            return _LO_S
        return _LO_S * 10.0 ** (index / _BINS_PER_DECADE)

    def observe(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"negative latency {seconds}")
        if seconds < _LO_S:
            index = 0
        else:
            index = int(math.log10(seconds / _LO_S) * _BINS_PER_DECADE) + 1
            if index > _NBINS:
                index = _NBINS + 1
        self.bins[index] += 1
        self.count += 1
        self.total_s += seconds
        if seconds < self.min_s:
            self.min_s = seconds
        if seconds > self.max_s:
            self.max_s = seconds

    def quantile(self, q: float) -> float:
        """The smallest bin edge covering fraction ``q`` of observations,
        clamped to the exact [min, max] envelope."""
        if not 0 <= q <= 1:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        for i, n in enumerate(self.bins):
            seen += n
            if seen >= rank:
                if i > _NBINS:  # overflow bin has no finite upper edge
                    return self.max_s
                return min(max(self._bin_upper_s(i), self.min_s), self.max_s)
        return self.max_s  # pragma: no cover - rank <= count always hits

    def merge(self, other: LatencyHistogram) -> None:
        """Fold another histogram in, bin-wise.

        Because the bin layout is fixed (same edges in every instance), a
        merge is exact: the merged histogram is bin-for-bin identical to one
        that observed the concatenation of both streams, so quantiles,
        count, min and max agree exactly and the sum agrees up to float
        summation order (the hypothesis tests assert this).  The exporter
        uses it to aggregate per-store registries into cluster totals."""
        if other.count == 0:
            return
        for i, n in enumerate(other.bins):
            if n:
                self.bins[i] += n
        self.count += other.count
        self.total_s += other.total_s
        self.min_s = min(self.min_s, other.min_s)
        self.max_s = max(self.max_s, other.max_s)

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def summary(self) -> dict[str, float]:
        """Deterministic stats dict (microseconds, rounded for stable JSON)."""
        if self.count == 0:
            return {"count": 0}
        us = 1e6
        return {
            "count": self.count,
            "mean_us": round(self.mean_s * us, 3),
            "min_us": round(self.min_s * us, 3),
            "max_us": round(self.max_s * us, 3),
            "p50_us": round(self.quantile(0.50) * us, 3),
            "p90_us": round(self.quantile(0.90) * us, 3),
            "p99_us": round(self.quantile(0.99) * us, 3),
        }


class _Phase:
    """Running total of one (op, phase) pair.

    ``before`` and ``in_span`` keep the fold exact when one span repeats a
    phase name (a retried attempt): that span's children are summed first
    (``in_span``), then added to what came ``before`` it -- the float
    association the profile goldens hash."""

    __slots__ = ("seconds", "spans", "stamp", "before", "in_span")

    def __init__(self) -> None:
        self.seconds = 0.0
        self.spans = 0  # spans that had this phase
        self.stamp = 0  # the last span that did
        self.before = 0.0
        self.in_span = 0.0


class MetricsRegistry:
    """Counters + per-op latency histograms + per-phase time, for one store.

    Wraps (not copies) a :class:`Counters` bag: counter mutations made
    anywhere in the cluster remain visible here through ``as_dict`` and
    ``snapshot``; writers bump ``self.counters`` itself.
    """

    def __init__(self, counters: Counters | None = None, store: str = ""):
        self.counters = counters if counters is not None else Counters()
        self.store = store
        self.op_latency: dict[str, LatencyHistogram] = {}
        #: op -> phase name -> its running total
        self._phases: dict[str, dict[str, _Phase]] = {}
        self._spans = 0

    def as_dict(self) -> dict[str, float]:
        return self.counters.as_dict()

    # ------------------------------------------------------------ ingestion

    def observe_span(self, span: Span) -> None:
        """Tracer sink: fold one finished root span into the aggregates.

        Only direct children count as phases; deeper nesting is the span
        tree's business.  Each child folds straight into its phase's total
        (no per-span dict); a phase counts once per span.
        """
        op = span.name
        if op not in self.op_latency:
            self.op_latency[op] = LatencyHistogram()
            self._phases[op] = {}
        self.op_latency[op].observe(span.duration_s)
        phases = self._phases[op]
        self._spans += 1
        stamp = self._spans
        for child in span.children:
            if child.name not in phases:
                phases[child.name] = _Phase()
            phase = phases[child.name]
            if phase.stamp != stamp:
                phase.spans += 1
                phase.stamp = stamp
                phase.before = phase.seconds
                phase.in_span = 0.0 + child.duration_s  # a sum starts at 0.0
            else:
                phase.in_span += child.duration_s
            phase.seconds = phase.before + phase.in_span

    # ------------------------------------------------------------ reporting

    def phase_breakdown(self, op: str) -> dict[str, float]:
        """Mean seconds per phase for one op type."""
        return {
            name: p.seconds / p.spans
            for name, p in sorted(self._phases.get(op, {}).items())
        }

    def snapshot(self) -> dict:
        """Deterministic dict: op quantiles, phase means (us), counters."""
        ops = {op: h.summary() for op, h in sorted(self.op_latency.items())}
        phases = {
            op: {name: round(mean * 1e6, 3) for name, mean in self.phase_breakdown(op).items()}
            for op in sorted(self._phases)
            if self._phases[op]
        }
        return {
            "ops": ops,
            "phases": phases,
            "counters": {k: round(v, 6) for k, v in sorted(self.as_dict().items())},
        }

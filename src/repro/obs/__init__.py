"""Observability: span tracing + metrics over the simulated clock.

``init_observability(store)`` is the one-call wiring every store performs in
its constructor: it attaches a :class:`Tracer` bound to the cluster clock and
a :class:`MetricsRegistry` wrapping the cluster's counter bag, and registers
the registry as a span sink -- so every finished op span lands in the per-op
latency histograms automatically.
"""

from repro.obs.events import EVENT_KINDS, NULL_JOURNAL, Event, EventJournal
from repro.obs.export import (
    prometheus_text,
    timeseries_csv,
    timeseries_jsonl,
    timeseries_prometheus,
)
from repro.obs.metrics import LatencyHistogram, MetricsRegistry
from repro.obs.span import Span, Tracer
from repro.obs.timeseries import SLOTracker, Series, TelemetrySampler

__all__ = [
    "EVENT_KINDS",
    "Event",
    "EventJournal",
    "LatencyHistogram",
    "MetricsRegistry",
    "NULL_JOURNAL",
    "SLOTracker",
    "Series",
    "Span",
    "TelemetrySampler",
    "Tracer",
    "init_observability",
    "prometheus_text",
    "timeseries_csv",
    "timeseries_jsonl",
    "timeseries_prometheus",
]


def init_observability(store, keep_last: int = 256) -> None:
    """Attach ``store.tracer`` and ``store.metrics`` to a store that owns a
    cluster (clock + counters)."""
    store.tracer = Tracer(store.cluster.clock, keep_last=keep_last)
    store.metrics = MetricsRegistry(store.cluster.counters, store=store.name)
    store.tracer.add_sink(store.metrics.observe_span)

"""Exporters: Prometheus text exposition + telemetry CSV/JSONL dumps.

The registry's :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` is the
JSON-native form; this module renders the same data in the Prometheus text
exposition format so the simulated store can be scraped (or just diffed)
like a production one.  Output is fully deterministic: families, labels and
values are sorted, and floats are rendered with a fixed format -- two
same-seed runs produce byte-identical text (tests assert it).

Conventions:

* counters -> ``repro_counter_total{name="..."}``;
* event totals (per-kind, surviving ring eviction) ->
  ``repro_events_total{kind="..."}`` plus ``repro_events_dropped_total``;
* per-op latency histograms -> the summary form
  ``repro_op_latency_seconds{op=...,store=...,quantile=...}`` with the usual
  ``_count`` / ``_sum`` companions;
* per-phase mean seconds -> ``repro_phase_seconds_mean{op=...,phase=...}``.

With several registries (one per store over one cluster), per-store series
keep their ``store`` label and an aggregate series labelled
``store="_all"`` is added by bin-wise histogram merging
(:meth:`LatencyHistogram.merge` is exact -- same bins as observing the
concatenated stream).
"""

from __future__ import annotations

import json

from repro.obs.events import EventJournal
from repro.obs.metrics import LatencyHistogram, MetricsRegistry

_QUANTILES = (0.5, 0.9, 0.99)


def _fmt(value: float) -> str:
    """Fixed float rendering: integers without a dot, floats via %.12g."""
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return f"{float(value):.12g}"


def _labels(**labels: str) -> str:
    inner = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def _histogram_lines(
    lines: list[str], hist: LatencyHistogram, op: str, store: str
) -> None:
    base = {"op": op, "store": store}
    for q in _QUANTILES:
        lines.append(
            "repro_op_latency_seconds"
            + _labels(quantile=_fmt(q), **base)
            + f" {_fmt(round(hist.quantile(q), 9))}"
        )
    lines.append(
        "repro_op_latency_seconds_count" + _labels(**base) + f" {hist.count}"
    )
    lines.append(
        "repro_op_latency_seconds_sum"
        + _labels(**base)
        + f" {_fmt(round(hist.total_s, 9))}"
    )


def prometheus_text(
    registries: MetricsRegistry | list[MetricsRegistry],
    journal: EventJournal | None = None,
) -> str:
    """Render registries (+ optional journal counts) as Prometheus text."""
    if isinstance(registries, MetricsRegistry):
        registries = [registries]
    lines: list[str] = []

    # counters: registries over one cluster share the same bag; count each
    # distinct bag once, summing across genuinely different ones
    totals: dict[str, float] = {}
    seen_bags: set[int] = set()
    for reg in registries:
        if id(reg.counters) in seen_bags:
            continue
        seen_bags.add(id(reg.counters))
        for name, value in reg.as_dict().items():
            totals[name] = totals.get(name, 0.0) + value
    lines.append("# TYPE repro_counter_total counter")
    for name, value in sorted(totals.items()):
        lines.append(
            "repro_counter_total" + _labels(name=name) + f" {_fmt(round(value, 6))}"
        )

    if journal is not None:
        lines.append("# TYPE repro_events_total counter")
        for kind, n in sorted(journal.counts.items()):
            lines.append("repro_events_total" + _labels(kind=kind) + f" {n}")
        lines.append("# TYPE repro_events_dropped_total counter")
        lines.append(f"repro_events_dropped_total {journal.dropped}")

    lines.append("# TYPE repro_op_latency_seconds summary")
    merged: dict[str, LatencyHistogram] = {}
    for reg in sorted(registries, key=lambda r: r.store):
        for op, hist in sorted(reg.op_latency.items()):
            _histogram_lines(lines, hist, op, reg.store)
            agg = merged.get(op)
            if agg is None:
                agg = merged[op] = LatencyHistogram()
            agg.merge(hist)
    if len(registries) > 1:
        for op, hist in sorted(merged.items()):
            _histogram_lines(lines, hist, op, "_all")

    lines.append("# TYPE repro_phase_seconds_mean gauge")
    for reg in sorted(registries, key=lambda r: r.store):
        for op in sorted(reg.op_latency):
            for phase, mean in reg.phase_breakdown(op).items():
                lines.append(
                    "repro_phase_seconds_mean"
                    + _labels(op=op, phase=phase, store=reg.store)
                    + f" {_fmt(round(mean, 9))}"
                )

    return "\n".join(lines) + "\n"


# -------------------------------------------------------- telemetry series


def _telemetry_doc(telemetry) -> dict:
    """Accept a TelemetrySampler or its ``to_dict()`` form."""
    if hasattr(telemetry, "to_dict"):
        return telemetry.to_dict()
    return telemetry


def timeseries_csv(telemetry) -> str:
    """Byte-stable CSV dump: one ``series,t_s,value`` row per point,
    series in sorted order, fixed float formatting."""
    doc = _telemetry_doc(telemetry)
    lines = ["series,t_s,value"]
    series = doc.get("series", {})
    for name in sorted(series):
        for t_s, value in series[name]["points"]:
            lines.append(f"{name},{t_s:.9f},{value:.9f}")
    return "\n".join(lines) + "\n"


def timeseries_jsonl(telemetry) -> str:
    """Byte-stable JSONL dump: one sorted-keys JSON object per point."""
    doc = _telemetry_doc(telemetry)
    lines: list[str] = []
    series = doc.get("series", {})
    for name in sorted(series):
        kind = series[name].get("kind", "series")
        for t_s, value in series[name]["points"]:
            lines.append(
                json.dumps(
                    {"kind": kind, "series": name, "t_s": t_s, "value": value},
                    sort_keys=True,
                )
            )
    return "\n".join(lines) + ("\n" if lines else "")


def timeseries_prometheus(telemetry) -> str:
    """Telemetry points as timestamped Prometheus samples.

    Prometheus timestamps are integer milliseconds; simulated time maps
    1 sim-second -> 1000 ms, losing sub-ms resolution in the *timestamp
    column only* (the CSV/JSONL forms keep the full 1e-9 rounding)."""
    doc = _telemetry_doc(telemetry)
    lines = ["# TYPE repro_timeseries gauge"]
    series = doc.get("series", {})
    for name in sorted(series):
        for t_s, value in series[name]["points"]:
            lines.append(
                "repro_timeseries"
                + _labels(series=name)
                + f" {_fmt(value)} {int(round(t_s * 1e3))}"
            )
    return "\n".join(lines) + "\n"

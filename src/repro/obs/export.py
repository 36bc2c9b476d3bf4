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

The telemetry dumps take a sampler's ``to_dict()`` form, the shape a run
result carries.
"""

from __future__ import annotations

import json

from repro.obs.events import EventJournal
from repro.obs.metrics import MetricsRegistry

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


def prometheus_text(registry: MetricsRegistry, journal: EventJournal | None = None) -> str:
    """Render one store's registry (+ optional journal counts) as Prometheus text."""
    lines = ["# TYPE repro_counter_total counter"]
    for name, value in sorted(registry.as_dict().items()):
        lines.append(
            "repro_counter_total" + _labels(name=name) + f" {_fmt(round(value, 6))}"
        )

    if journal is not None:
        lines.append("# TYPE repro_events_total counter")
        for kind, n in sorted(journal.counts.items()):
            lines.append("repro_events_total" + _labels(kind=kind) + f" {n}")
        lines.append("# TYPE repro_events_dropped_total counter")
        lines.append(f"repro_events_dropped_total {journal.dropped}")

    store = registry.store
    lines.append("# TYPE repro_op_latency_seconds summary")
    for op, hist in sorted(registry.op_latency.items()):
        for q in _QUANTILES:
            lines.append(
                "repro_op_latency_seconds"
                + _labels(op=op, quantile=_fmt(q), store=store)
                + f" {_fmt(round(hist.quantile_s(q), 9))}"
            )
        base = _labels(op=op, store=store)
        lines.append(f"repro_op_latency_seconds_count{base} {hist.count}")
        lines.append(f"repro_op_latency_seconds_sum{base} {_fmt(round(hist.total_s, 9))}")

    lines.append("# TYPE repro_phase_seconds_mean gauge")
    for op in sorted(registry.op_latency):
        for phase, mean in registry.phase_breakdown(op).items():
            lines.append(
                "repro_phase_seconds_mean"
                + _labels(op=op, phase=phase, store=store)
                + f" {_fmt(round(mean, 9))}"
            )

    return "\n".join(lines) + "\n"


# -------------------------------------------------------- telemetry series


def timeseries_csv(telemetry: dict) -> str:
    """Byte-stable CSV dump: one ``series,t_s,value`` row per point,
    series in sorted order, fixed float formatting."""
    lines = ["series,t_s,value"]
    series = telemetry.get("series", {})
    for name in sorted(series):
        for t_s, value in series[name]["points"]:
            lines.append(f"{name},{t_s:.9f},{value:.9f}")
    return "\n".join(lines) + "\n"


def timeseries_jsonl(telemetry: dict) -> str:
    """Byte-stable JSONL dump: one sorted-keys JSON object per point."""
    lines: list[str] = []
    series = telemetry.get("series", {})
    for name in sorted(series):
        kind = series[name]["kind"]
        for t_s, value in series[name]["points"]:
            lines.append(
                json.dumps(
                    {"kind": kind, "series": name, "t_s": t_s, "value": value},
                    sort_keys=True,
                )
            )
    return "\n".join(lines) + ("\n" if lines else "")


def timeseries_prometheus(telemetry: dict) -> str:
    """Telemetry points as timestamped Prometheus samples.

    Prometheus timestamps are integer milliseconds; simulated time maps
    1 sim-second -> 1000 ms, losing sub-ms resolution in the *timestamp
    column only* (the CSV/JSONL forms keep the full 1e-9 rounding)."""
    lines = ["# TYPE repro_timeseries gauge"]
    series = telemetry.get("series", {})
    for name in sorted(series):
        for t_s, value in series[name]["points"]:
            lines.append(
                "repro_timeseries"
                + _labels(series=name)
                + f" {_fmt(value)} {int(round(t_s * 1e3))}"
            )
    return "\n".join(lines) + "\n"

"""Latency-breakdown aggregation.

Every traced op lays its phases out as the direct children of its root span;
aggregating them gives mean seconds per phase -- the quantitative form of the
paper's §6.3 discussion ("a long I/O path for the additional encoding
operation", "mitigates the number of parity reads from r to one").
"""

from __future__ import annotations

from collections import defaultdict


def aggregate_span_phases(spans) -> dict[str, dict[str, float]]:
    """Mean seconds per phase, per op, over finished root spans.

    Phases are a root span's direct children (``update -> read_old_xor/
    encode_delta/ship_delta/log_ack``, ...), so any traced op gets a
    breakdown.
    """
    sums: dict[str, dict[str, float]] = {}
    counts: dict[str, int] = defaultdict(int)
    for span in spans:
        counts[span.name] += 1
        per_op = sums.setdefault(span.name, defaultdict(float))
        for phase, seconds in span.phase_seconds().items():
            per_op[phase] += seconds
    return {
        op: {phase: total / counts[op] for phase, total in sorted(per_op.items())}
        for op, per_op in sorted(sums.items())
    }


def span_shares(spans) -> dict[str, dict[str, float]]:
    """Phase shares of each op's total (fractions summing to ~1 per op)."""
    out: dict[str, dict[str, float]] = {}
    for op, phases in aggregate_span_phases(spans).items():
        total = sum(phases.values())
        if total > 0:
            out[op] = {phase: s / total for phase, s in phases.items()}
    return out

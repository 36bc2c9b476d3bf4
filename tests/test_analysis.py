"""Tests for the observation analytics, tradeoff ranking and report helpers."""

import pytest

from repro.analysis import (
    fault_windows,
    format_table,
    fmt_scientific,
    gib,
    memory_overhead_model,
    observation2_table,
    stripe_update_histogram,
    table3,
    tradeoff_points,
)
from repro.analysis.observations import measured_full_stripe_overhead
from repro.workloads import WorkloadSpec


def _spec(ratio: str, n=20_000, reqs=20_000, seed=42):
    return WorkloadSpec.read_update(ratio, n_objects=n, n_requests=reqs, seed=seed)


# ------------------------------------------------------------- observation 1


def test_histogram_counts_updated_stripes():
    hist = stripe_update_histogram(6, _spec("95:5"))
    assert hist  # some stripes were updated
    assert all(1 <= b <= 6 for b in hist)
    total_updated_stripes = sum(hist.values())
    assert 0 < total_updated_stripes <= 20_000 // 6 + 1


def test_update_light_stripes_have_single_new_chunk():
    """Figure 3's key observation: at 95:5 most updated stripes hold 1 new chunk."""
    hist = stripe_update_histogram(6, _spec("95:5"))
    assert hist[1] > 0.8 * sum(hist.values())


def test_update_heavy_stripes_have_more_new_chunks():
    light = stripe_update_histogram(6, _spec("95:5"))
    heavy = stripe_update_histogram(6, _spec("50:50"))
    frac_multi_light = 1 - light.get(1, 0) / sum(light.values())
    frac_multi_heavy = 1 - heavy.get(1, 0) / sum(heavy.values())
    assert frac_multi_heavy > frac_multi_light


def test_histogram_larger_k_fewer_stripes():
    """Wide stripes: the same updates touch fewer, wider stripes."""
    h6 = stripe_update_histogram(6, _spec("50:50"))
    h15 = stripe_update_histogram(15, _spec("50:50"))
    assert sum(h15.values()) < sum(h6.values())


def test_histogram_empty_when_no_updates():
    assert stripe_update_histogram(6, _spec("100:0")) == {}


# ------------------------------------------------------------- observation 2


def test_memory_overhead_model_table1():
    """Table 1's exact row: M, 1.05M, 1.2M, 1.3M, 1.5M."""
    table = observation2_table()
    assert table["95:5"]["in-place"] == 1.0
    assert table["95:5"]["full-stripe"] == pytest.approx(1.05)
    assert table["80:20"]["full-stripe"] == pytest.approx(1.2)
    assert table["70:30"]["full-stripe"] == pytest.approx(1.3)
    assert table["50:50"]["full-stripe"] == pytest.approx(1.5)


def test_memory_overhead_model_validation():
    with pytest.raises(ValueError):
        memory_overhead_model(1.5)


def test_measured_overhead_close_to_model():
    measured = measured_full_stripe_overhead(6, _spec("50:50"))
    assert measured == pytest.approx(1.5, abs=0.02)


# ------------------------------------------------------------------ tradeoff


def _rows():
    return [
        {"store": "ipmem", "k": 6, "r": 3, "ratio": "95:5",
         "update_latency_us": 700.0, "memory_GiB": 6.0},
        {"store": "fsmem", "k": 6, "r": 3, "ratio": "95:5",
         "update_latency_us": 1100.0, "memory_GiB": 6.3},
        {"store": "logecmem", "k": 6, "r": 3, "ratio": "95:5",
         "update_latency_us": 470.0, "memory_GiB": 4.7},
    ]


def test_tradeoff_points_roundtrip():
    pts = tradeoff_points(_rows())
    assert len(pts) == 3
    assert pts[2].store == "logecmem"
    assert pts[2].memory_GiB == 4.7


def test_table3_rankings_match_paper_for_update_light():
    """k=6, 95:5 row of Table 3: IPMem low(low), FSMem high(high),
    LogECMem best(best)."""
    cells = table3(_rows())
    row = cells[(6, "95:5")]
    assert row["logecmem"] == "best (best)"
    assert row["ipmem"] == "low (low)"
    assert row["fsmem"] == "high (high)"


def test_table3_skips_incomplete_groups():
    rows = _rows()[:2]
    assert table3(rows) == {}


# ------------------------------------------------------------------ timeline


def test_fault_heal_closes_only_the_window_of_its_own_kind():
    """Two faults overlap on one node: the slow fault's heal must not close
    the partition's window (the heal plane's CLOSERS key fault_heal by the
    kind that healed, and the timeline must agree)."""

    def ev(t_s, event, **attrs):
        return {"t_s": t_s, "kind": event, "attrs": {"node": "dram1", **attrs}}

    events = [
        ev(0.000, "fault_inject", kind="slow", duration_s=0.010, magnitude=4.0),
        ev(0.001, "fault_inject", kind="partition", duration_s=0.050),
        ev(0.010, "fault_heal", kind="slow"),
        ev(0.051, "fault_heal", kind="partition"),
    ]
    assert [(w.kind, w.start_s, w.end_s, w.healed) for w in fault_windows(events)] == [
        ("slow", 0.000, 0.010, True),
        ("partition", 0.001, 0.051, True),
    ]


# -------------------------------------------------------------------- report


def test_fmt_scientific():
    assert fmt_scientific(1.03e9) == "1.03e+09"


def test_gib():
    assert gib(1 << 30) == 1.0


def test_format_table_alignment():
    out = format_table(["a", "bbb"], [["x", 1], ["yy", 22]], title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bbb" in lines[1]
    assert set(lines[2]) <= {"-", " "}
    assert len(lines) == 5

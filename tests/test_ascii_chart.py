"""Tests for the terminal chart helpers."""

from repro.analysis.ascii_chart import hbar_chart, sparkline


def test_hbar_scales_to_peak():
    out = hbar_chart({"a": 10.0, "b": 5.0}, width=10)
    lines = out.splitlines()
    assert lines[0].count("█") == 10
    assert lines[1].count("█") == 5


def test_hbar_title_and_units():
    out = hbar_chart({"x": 1.0}, title="T", unit="us")
    assert out.startswith("T\n")
    assert "1us" in out


def test_hbar_zero_and_empty():
    assert hbar_chart({}, title="empty") == "empty"
    out = hbar_chart({"a": 0.0})
    assert "█" not in out


def test_sparkline_trend():
    line = sparkline([1, 2, 3, 4, 5, 6, 7, 8])
    assert line[0] == "▁"
    assert line[-1] == "█"
    assert len(line) == 8


def test_sparkline_flat_and_empty():
    assert sparkline([]) == ""
    assert sparkline([3, 3, 3]) == "▁▁▁"


def test_sparkline_downsamples():
    line = sparkline(list(range(100)), width=10)
    assert len(line) == 10


def test_chart_on_real_experiment_rows():
    from tests.test_bench import tier1_run

    series = {r["store"]: r["update_latency_us"] for r in tier1_run()["fig11"].rows
              if r["k"] == 6 and r["ratio"] == "95:5"}
    out = hbar_chart(series, unit="us", title="update latency")
    assert "logecmem" in out and "ipmem" in out

"""Tests for the perf regression gate (bench/compare)."""

import copy
import json

import pytest

from repro.bench.compare import compare_profiles, render_verdict
from repro.cli import main


def _profile():
    return {
        "meta": {"objects": 600, "requests": 600, "seed": 42},
        "experiments": {
            "exp1": {
                "logecmem": {
                    "ops": {
                        "update": {
                            "count": 300,
                            "mean_us": 450.0,
                            "p50_us": 420.0,
                            "p99_us": 900.0,
                        }
                    },
                    "phases": {"update": {"encode": 12.5, "network": 300.0}},
                    "counters": {"parity_deltas_sent": 600, "rpc_messages": 1800.0},
                    "spans_digest": "abc123",
                }
            },
            "exp6": {"logecmem": {"repair_time_s": 1.25}},
        },
    }


def test_identical_profiles_pass():
    verdict = compare_profiles(_profile(), _profile())
    assert verdict["status"] == "pass"
    assert verdict["compared"] > 0
    assert verdict["regressions"] == [] and verdict["improvements"] == []
    assert "PASS" in render_verdict(verdict)


def test_float_regression_beyond_threshold_fails():
    cand = _profile()
    cand["experiments"]["exp1"]["logecmem"]["ops"]["update"]["p99_us"] = 900.0 * 1.5
    verdict = compare_profiles(_profile(), cand)
    assert verdict["status"] == "fail"
    (reg,) = verdict["regressions"]
    assert reg["path"].endswith("p99_us")
    assert "worse by 50.00%" in reg["reason"]


def test_float_drift_within_threshold_passes():
    cand = _profile()
    cand["experiments"]["exp1"]["logecmem"]["ops"]["update"]["p99_us"] = 900.0 * 1.05
    assert compare_profiles(_profile(), cand)["status"] == "pass"


def test_improvement_recorded_not_failed():
    cand = _profile()
    cand["experiments"]["exp1"]["logecmem"]["ops"]["update"]["mean_us"] = 450.0 * 0.5
    verdict = compare_profiles(_profile(), cand)
    assert verdict["status"] == "pass"
    (imp,) = verdict["improvements"]
    assert imp["path"].endswith("mean_us")


def test_integer_drift_fails_exactly():
    cand = _profile()
    cand["experiments"]["exp1"]["logecmem"]["counters"]["parity_deltas_sent"] = 601
    verdict = compare_profiles(_profile(), cand)
    assert verdict["status"] == "fail"
    assert "exactly" in verdict["regressions"][0]["reason"]


def test_meta_mismatch_fails_outright():
    cand = _profile()
    cand["meta"]["seed"] = 43
    verdict = compare_profiles(_profile(), cand)
    assert verdict["status"] == "fail"
    assert verdict["compared"] == 0
    assert "not comparable" in verdict["regressions"][0]["reason"]


def test_appeared_from_zero_is_regression():
    base = _profile()
    base["experiments"]["exp6"]["logecmem"]["repair_time_s"] = 0.0
    verdict = compare_profiles(base, _profile())
    assert verdict["status"] == "fail"
    assert verdict["regressions"][0]["relative"] is None  # infinite drift


def test_string_and_missing_leaves_become_notes():
    cand = _profile()
    cand["experiments"]["exp1"]["logecmem"]["spans_digest"] = "def456"
    cand["experiments"]["exp1"]["logecmem"]["counters"]["new_counter"] = 1
    del cand["experiments"]["exp6"]
    verdict = compare_profiles(_profile(), cand)
    assert verdict["status"] == "pass"
    notes = "\n".join(verdict["notes"])
    assert "span tree changed" in notes
    assert "new in candidate" in notes
    assert "only in baseline" in notes


def test_experiment_filter_restricts_comparison():
    cand = _profile()
    cand["experiments"]["exp6"]["logecmem"]["repair_time_s"] = 99.0
    assert compare_profiles(_profile(), cand)["status"] == "fail"
    assert compare_profiles(_profile(), cand, experiments=["exp1"])["status"] == "pass"


def test_threshold_override():
    cand = _profile()
    cand["experiments"]["exp1"]["logecmem"]["ops"]["update"]["p99_us"] = 900.0 * 1.5
    verdict = compare_profiles(_profile(), cand, thresholds={"p99_us": 0.6})
    assert verdict["status"] == "pass"


def test_verdict_is_deterministic():
    cand = _profile()
    cand["experiments"]["exp1"]["logecmem"]["ops"]["update"]["p99_us"] = 1400.0
    cand["experiments"]["exp1"]["logecmem"]["ops"]["update"]["mean_us"] = 100.0
    a = compare_profiles(_profile(), cand)
    b = compare_profiles(_profile(), copy.deepcopy(cand))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_main_exit_codes_and_verdict_file(tmp_path, capsys):
    base_path = tmp_path / "base.json"
    cand_path = tmp_path / "cand.json"
    out_path = tmp_path / "verdict.json"
    base_path.write_text(json.dumps(_profile()))
    cand = _profile()
    cand_path.write_text(json.dumps(cand))
    assert main(["compare", str(base_path), str(cand_path), "--out", str(out_path)]) == 0
    assert json.loads(out_path.read_text())["status"] == "pass"

    cand["experiments"]["exp1"]["logecmem"]["ops"]["update"]["p99_us"] = 9000.0
    cand_path.write_text(json.dumps(cand))
    with pytest.raises(SystemExit) as exc:
        main(["compare", str(base_path), str(cand_path)])
    assert exc.value.code == 1
    assert "REGRESSION" in capsys.readouterr().out
    assert compare_profiles(_profile(), cand, thresholds={"p99_us": 20})["status"] == "pass"

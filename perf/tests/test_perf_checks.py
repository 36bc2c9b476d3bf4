"""In-process tests of the benchmark's checking, tracing and comparing."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

from perf import compare, plot, to_csv
from perf.registry import END_TO_END
from perf.trace import OutsideTracer, targets
from perf.verify import CheckedStore, Tally
from perf.workloads import WORKLOAD_CLASSES

ROOT = Path(__file__).resolve().parents[2]


def load_run_module():
    spec = importlib.util.spec_from_file_location("perf_run", ROOT / "perf" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = load_run_module()


class WrongValueStore:
    """Planted fault: every third read returns one flipped bit."""

    def __init__(self, inner):
        self._inner = inner
        self._reads = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def read(self, key):
        result = self._inner.read(key)
        self._reads += 1
        if self._reads % 3 == 0:
            result.value = result.value.copy()
            result.value[0] ^= 1
        return result


@pytest.mark.parametrize("workload", ["update_heavy", "basic_io_five_stores"])
def test_planted_wrong_value_store_makes_the_failed_share_non_zero(workload):
    wl = WORKLOAD_CLASSES[workload](seed=42, scale=0.02)
    clean = run.checked_pass(wl)["tally"]
    assert clean.failed == 0 and clean.reads_checked > 0
    planted = run.checked_pass(wl, plant=WrongValueStore)["tally"]
    assert planted.failed > 0
    share = run.tally_detail(planted)["failed_ops_share"]
    assert 0 < share < 1
    assert any("bytes != expected_value" in note for note in planted.notes)


def test_checked_store_forwards_attribute_writes_to_the_wrapped_store():
    class Inner:
        name = "inner"

    inner, tally = Inner(), Tally()
    checked = CheckedStore(inner, tally)
    checked.tracer = "replaced"
    assert inner.tracer == "replaced" and checked.name == "inner"


def test_sim_digest_mismatch_across_repeats_is_an_error(monkeypatch):
    wl = WORKLOAD_CLASSES["update_heavy"](seed=42, scale=0.02)
    real_sim, calls = wl.sim, [0]

    def drifting(state, out):
        calls[0] += 1
        sim = real_sim(state, out)
        sim["sim_read_us_mean"] += calls[0] * 1e-9
        return sim

    monkeypatch.setattr(wl, "sim", drifting)
    with pytest.raises(run.BenchmarkError, match="differ across repeats"):
        run.timed_repeats(wl, seconds=0.01)


def test_tracer_restores_every_patched_attribute():
    before = [(owner, attr, vars(owner)[attr]) for owner, attr, *_ in targets()]
    assert len(before) > 60
    tracer = OutsideTracer(capacity=200_000)
    tracer.paused = True
    wl = WORKLOAD_CLASSES["engine_load_chaos"](seed=42, scale=0.02)
    with tracer.installed():
        patched = [vars(owner)[attr] for owner, attr, _ in before]
        assert all(new is not old for new, (_, _, old) in zip(patched, before))
        run.checked_pass(wl, tracer=tracer)
    assert tracer.n > 0 and tracer.dropped == 0
    for owner, attr, original in before:
        assert vars(owner)[attr] is original, f"{owner}.{attr} not restored"
    # a second install on restored state works and sees the same targets
    assert [(o, a) for o, a, *_ in targets()] == [(o, a) for o, a, _ in before]


def test_tracer_restores_attributes_when_the_traced_code_raises():
    before = [(owner, attr, vars(owner)[attr]) for owner, attr, *_ in targets()]
    tracer = OutsideTracer(capacity=1000)
    with pytest.raises(RuntimeError, match="boom"):
        with tracer.installed():
            raise RuntimeError("boom")
    assert all(vars(owner)[attr] is original for owner, attr, original in before)


def test_self_time_accounting_on_a_hand_made_trace():
    tracer = OutsideTracer(capacity=16)
    outer = tracer._intern("outer", "core")
    inner = tracer._intern("inner", "ec")
    with tracer.section("timed"):
        a = tracer._open(outer)
        b = tracer._open(inner)
        tracer._close(b)
        tracer._close(a)
    # overwrite the clock readings with round numbers
    for i, (t0, t1) in enumerate([(0.0, 10.0), (1.0, 9.0), (2.0, 5.0)]):
        tracer.start[i], tracer.end[i] = t0, t1
    summary = tracer.summary(ops=1000)
    assert summary["wall_s"] == 10.0
    assert summary["self_share"]["ec"] == pytest.approx(0.3)
    assert summary["self_share"]["core"] == pytest.approx(0.5)
    assert summary["self_share"]["bench"] == pytest.approx(0.2)
    assert summary["calls_per_kop"]["ec"] == 1.0
    assert summary["phases"] == {"outer": {"core": 0.625, "ec": 0.375}}


# ----------------------------------------------------------- ledger tools


def fake_entry(label: str, seed: int = 42) -> dict:
    metrics = {
        m["name"]: {"value": 100.0 + i, "unit": m["unit"]} for i, m in enumerate(END_TO_END)
    }
    detail = {"ops": 1000, "timed_s": [1.0, 1.02, 1.05], "setup_s": [0.1, 0.11], "sim_digest": "d"}
    run_doc = {
        "result": {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics},
        "detail": detail,
    }
    return {"label": label, "created_unix": float(len(label)), "seed": seed, "scale": 1.0,
            "workloads": {"update_heavy": {"end_to_end": run_doc}}}


def statuses(rows):
    return {r["metric"]: r["status"] for r in rows}


def test_compare_accepts_a_vs_a_and_flags_regressions(tmp_path, capsys):
    a = fake_entry("a")
    bounds = compare.load_bounds()
    assert set(statuses(compare.compare(a, copy.deepcopy(a), bounds)).values()) == {"ok"}

    slow = copy.deepcopy(a)
    cell = slow["workloads"]["update_heavy"]["end_to_end"]
    cell["result"]["metrics"]["wall_ops_per_s"]["value"] *= 0.6
    cell["detail"]["timed_s"] = [1.6, 1.65, 1.7]  # disjoint from A's repeats
    assert statuses(compare.compare(a, slow, bounds))["wall_ops_per_s"] == "regression"

    # same headline numbers, but both sides' repeats scatter over a range
    # that overlaps by far more than the bound: this pair cannot tell
    noisy_a, noisy_b = copy.deepcopy(a), copy.deepcopy(slow)
    noisy_a["workloads"]["update_heavy"]["end_to_end"]["detail"]["timed_s"] = [0.8, 1.0, 1.3]
    noisy_b["workloads"]["update_heavy"]["end_to_end"]["detail"]["timed_s"] = [0.9, 1.6, 1.7]
    assert statuses(compare.compare(noisy_a, noisy_b, bounds))["wall_ops_per_s"] == "unresolved"

    bent = copy.deepcopy(a)
    bent["workloads"]["update_heavy"]["end_to_end"]["result"]["metrics"][
        "sim_read_us_mean"]["value"] *= 1.0001
    assert statuses(compare.compare(a, bent, bounds))["sim_read_us_mean"] == "regression"
    other_seed = copy.deepcopy(bent)
    other_seed["seed"] = 7  # different inputs: the cross-seed bound applies
    assert statuses(compare.compare(a, other_seed, bounds))["sim_read_us_mean"] == "ok"

    failed = copy.deepcopy(a)
    failed["workloads"]["update_heavy"]["end_to_end"]["result"].update(failed=3, correct=False)
    assert statuses(compare.compare(a, failed, bounds))["failed"] == "regression"

    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(slow))
    assert compare.main([str(pa), str(pa)]) == 0
    assert compare.main([str(pa), str(pb)]) == 1
    assert "regression" in capsys.readouterr().out


def test_ledger_to_csv_to_plot(tmp_path, capsys):
    first, second = fake_entry("pr11"), fake_entry("pr12-longer")
    second["workloads"]["update_heavy"]["end_to_end"]["result"]["metrics"][
        "wall_ops_per_s"]["value"] = 150.0
    for entry in (first, second):
        (tmp_path / f"{entry['label']}.json").write_text(json.dumps(entry))
    (tmp_path / "not-a-ledger.json").write_text("[1, 2]")
    csv_path = tmp_path / "ledger.csv"
    assert to_csv.main([*map(str, sorted(tmp_path.glob("*.json"))), "--csv", str(csv_path)]) == 0
    assert plot.main(["--csv", str(csv_path)]) == 0
    out = capsys.readouterr().out
    assert "pr11 -> pr12-longer" in out
    line = next(row for row in out.splitlines() if "wall_ops_per_s" in row)
    assert "+50.00% better" in line


def test_run_refuses_to_overwrite_a_ledger_entry(tmp_path):
    existing = tmp_path / "entry.json"
    existing.write_text("{}")
    assert run.main(["--out", str(existing)]) == 3
    assert existing.read_text() == "{}"

"""Smoke tests of the benchmark itself (``python -m pytest perf/tests``).

Not collected by tier-1 (``testpaths = ["tests"]``).  Every run here is a
``--scale 0.02`` child process, as the driver would start it.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from perf.registry import WORKLOADS, benchmark_doc

ROOT = Path(__file__).resolve().parents[2]
RUN = [sys.executable, str(ROOT / "perf" / "run.py")]
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SCALE = "0.02"


def run_child(workload: str, trace: int, seed: int = 42, hashseed: str = "0") -> dict:
    env = {**os.environ, "PYTHONHASHSEED": hashseed}
    proc = subprocess.run(
        [*RUN, "--workload", workload, "--seed", str(seed), "--seconds", "0.05",
         "--trace", str(trace), "--scale", SCALE],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(next(row for row in lines if row.startswith("detail "))[len("detail "):])
    return {"result": result, "detail": detail}


@pytest.fixture(scope="module")
def runs():
    """(workload, trace, hashseed) -> parsed child output, run on demand."""
    cache: dict = {}

    def get(workload, trace, hashseed="0"):
        key = (workload, trace, hashseed)
        if key not in cache:
            cache[key] = run_child(workload, trace, hashseed=hashseed)
        return cache[key]

    return get


def test_benchmark_json_matches_the_registry():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == json.loads(json.dumps(benchmark_doc()))
    assert set(on_disk) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = [m["name"] for m in on_disk["end_to_end"] + on_disk["per_layer"]]
    names += [w["name"] for w in on_disk["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.fullmatch(n) for n in names), names
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in on_disk["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in on_disk["end_to_end"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_run_emits_exactly_the_end_to_end_metrics(runs, workload):
    result = runs(workload, 0)["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in benchmark_doc()["end_to_end"]}
    assert {n: c["unit"] for n, c in result["metrics"].items()} == want
    assert all(c["value"] > 0 for c in result["metrics"].values()), result["metrics"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_emits_exactly_the_per_layer_metrics(runs, workload):
    run = runs(workload, 1)
    want = {m["name"]: m["unit"] for m in benchmark_doc()["per_layer"]}
    assert {n: c["unit"] for n, c in run["result"]["metrics"].items()} == want
    assert run["result"]["correct"] is True
    assert run["detail"]["spans"]["dropped"] == 0
    trace_file = ROOT / run["detail"]["trace_file"]
    header = json.loads(trace_file.open().readline())
    assert header["spans"] == run["detail"]["spans"]["spans"] > 0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_sim_results_and_call_counts_repeat_across_runs_and_hash_seeds(runs, workload):
    a, b = runs(workload, 0, "0"), runs(workload, 0, "42")
    assert a["detail"]["sim"] == b["detail"]["sim"]
    assert a["detail"]["sim_digest"] == b["detail"]["sim_digest"]
    ta, tb = runs(workload, 1, "0"), runs(workload, 1, "42")
    assert ta["detail"]["sim_digest"] == a["detail"]["sim_digest"]
    calls = lambda run: {  # noqa: E731
        n: c["value"] for n, c in run["result"]["metrics"].items() if n.endswith(".calls_per_kop")
    }
    assert calls(ta) == calls(tb)
    assert ta["detail"]["spans"]["calls"] == tb["detail"]["spans"]["calls"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_a_second_seed_runs_clean(workload):
    run = run_child(workload, 0, seed=7)
    assert run["result"]["correct"] is True and run["result"]["failed"] == 0


def test_run_fails_without_printing_a_result_when_the_program_is_missing(tmp_path):
    """In a directory holding only BENCHMARK.json and perf/ the command must
    exit non-zero and print no result line."""
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perf", tmp_path / "perf",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "update_heavy", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

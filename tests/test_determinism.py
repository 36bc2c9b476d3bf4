"""Determinism regression: identical seeds must yield byte-identical request
streams and identical closed-loop engine results for every store.

Everything downstream (experiments, the chaos harness's reproducible
fingerprints) leans on this; a nondeterministic iteration order or an
unseeded RNG anywhere in the stack shows up here first.
"""

import json
from pathlib import Path

import pytest

from repro.baselines import make_store
from repro.bench.runner import load_store, run_workload
from repro.core import StoreConfig
from repro.engine import derive_jobs, run_point
from repro.workloads import WorkloadSpec, generate_requests

STORES = ["vanilla", "replication", "ipmem", "fsmem", "logecmem"]
GOLDEN = Path(__file__).resolve().parents[1] / "BENCH_PR3.json"


def spec(seed=17):
    return WorkloadSpec(
        n_objects=80, n_requests=120, seed=seed, value_size=1024,
        read_ratio=0.5, update_ratio=0.4, write_ratio=0.1,
    )


def test_request_stream_byte_identical_per_seed():
    a = generate_requests(spec())
    b = generate_requests(spec())
    assert a == b  # frozen dataclasses: op + key equality is byte equality
    assert "\n".join(f"{r.op.value} {r.key}" for r in a) == "\n".join(
        f"{r.op.value} {r.key}" for r in b
    )
    assert generate_requests(spec(seed=18)) != a


@pytest.mark.parametrize("name", STORES)
def test_closed_loop_result_identical_per_seed(name):
    results = []
    for _ in range(2):
        store = make_store(name, StoreConfig(k=3, r=3, value_size=1024, scheme="plm"))
        load_store(store, spec())
        jobs = derive_jobs(store, generate_requests(spec()))
        result = run_point(jobs, store.cfg.profile, concurrency=8)
        results.append((result.to_dict(), result.events))
    assert results[0] == results[1]


@pytest.mark.parametrize("name", STORES)
def test_latency_streams_identical_per_seed(name):
    streams = []
    for _ in range(2):
        store = make_store(name, StoreConfig(k=3, r=3, value_size=1024, scheme="plm"))
        wl = run_workload(store, spec())
        streams.append(wl.latencies_s)
    assert streams[0] == streams[1]


def test_engine_load_curve_byte_identical_per_seed():
    """The concurrent engine's load JSON -- job derivation, queueing, fault
    schedule, chaos attribution -- is byte-stable for a fixed seed."""
    from repro.engine.load import load_json, run_load

    docs = [
        load_json(run_load(n_objects=100, n_requests=100, seed=23,
                           concurrencies=(1, 8), expected_faults=2.0))
        for _ in range(2)
    ]
    assert docs[0] == docs[1]
    assert docs[0] != load_json(
        run_load(n_objects=100, n_requests=100, seed=24, concurrencies=(1, 8),
                 expected_faults=2.0)
    )


def _leaves(doc, path=""):
    """``(path, value)`` for every leaf of a JSON document."""
    if isinstance(doc, dict):
        for key in sorted(doc):
            yield from _leaves(doc[key], f"{path}/{key}" if path else key)
    elif isinstance(doc, list):
        for i, item in enumerate(doc):
            yield from _leaves(item, f"{path}/{i}")
    else:
        yield path, doc


def differing_leaves(committed: str, fresh: str, limit: int = 20) -> str:
    """The first ``limit`` leaves where two JSON documents differ, one
    ``path: committed -> fresh`` line each (``<absent>`` for a missing side)."""
    old, new = dict(_leaves(json.loads(committed))), dict(_leaves(json.loads(fresh)))
    absent = "<absent>"
    lines = [
        f"  {p}: {old.get(p, absent)!r} -> {new.get(p, absent)!r}"
        for p in sorted(old.keys() | new.keys())
        if old.get(p, absent) != new.get(p, absent)
    ]
    head = f"{len(lines)} leaf/leaves differ (committed -> fresh)"
    if len(lines) > limit:
        head += f", first {limit} shown"
    return "\n".join([head, *lines[:limit]])


def test_profile_all_is_byte_equal_to_the_committed_snapshot(tmp_path):
    """``python -m repro profile all`` at its defaults regenerates the
    committed ``BENCH_PR3.json`` byte for byte: every per-op quantile,
    per-phase mean and counter delta of every slice is pinned.  This is the
    one gate over the golden; a mismatch names the leaves that moved."""
    from repro.cli import main

    out = tmp_path / "profile.json"
    assert main(["profile", "all", "--out", str(out)], out=lambda *a: None) == 0
    fresh, committed = out.read_text(), GOLDEN.read_text()
    assert fresh == committed, (
        "`repro profile all` no longer matches BENCH_PR3.json: "
        + differing_leaves(committed, fresh)
    )


def test_golden_mismatch_message_names_the_moved_leaves():
    committed = GOLDEN.read_text()
    doc = json.loads(committed)
    doc["experiments"]["heal"]["logecmem"]["disabled"]["mttr_ms"] = -1.0
    del doc["meta"]["seed"]
    for i in range(25):
        doc["meta"][f"extra{i:02d}"] = i
    lines = differing_leaves(committed, json.dumps(doc)).splitlines()
    assert lines[0] == "27 leaf/leaves differ (committed -> fresh), first 20 shown"
    assert len(lines) == 21
    assert lines[1].startswith("  experiments/heal/logecmem/disabled/mttr_ms: ")
    assert lines[1].endswith(" -> -1.0")
    assert lines[2] == "  meta/extra00: '<absent>' -> 0"
    assert differing_leaves(committed, committed) == "0 leaf/leaves differ (committed -> fresh)"

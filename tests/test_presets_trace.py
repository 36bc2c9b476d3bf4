"""Tests for YCSB preset workloads, the latest-distribution chooser, and
trace record/replay."""

import hashlib

import numpy as np
import pytest

from repro.baselines import make_store
from repro.core.config import StoreConfig
from repro.workloads import (
    LatestGenerator,
    Operation,
    PRESETS,
    WorkloadSpec,
    generate_preset_requests,
    load_keys,
    preset_spec,
    trace,
)
from repro.workloads.presets import _lookup
from repro.workloads.ycsb import Request, object_key
from repro.workloads.zipf import ScrambledZipfian
from repro.bench.runner import run_requests


def _spec(n=500, reqs=1000, seed=9):
    return WorkloadSpec(n_objects=n, n_requests=reqs, read_ratio=1.0,
                        update_ratio=0.0, seed=seed)


# ------------------------------------------------------------------- latest


def test_latest_generator_prefers_recent():
    gen = LatestGenerator(1000, seed=2)
    draws = gen.sample(5000)
    assert draws.min() >= 0 and draws.max() < 1000
    assert np.mean(draws > 900) > 0.5  # most draws near the newest item


def test_latest_generator_grow_shifts_window():
    gen = LatestGenerator(100, seed=3)
    gen.grow(900)
    draws = gen.sample(2000)
    assert draws.max() >= 900


def test_latest_generator_validation():
    with pytest.raises(ValueError):
        LatestGenerator(0)


# ------------------------------------------------------------------ presets


def test_preset_definitions_sum_to_one():
    for name, d in PRESETS.items():
        assert d.read + d.update + d.insert + d.rmw == pytest.approx(1.0), name


def test_preset_spec_builds_valid_workloadspec():
    spec = preset_spec("A", n_objects=100, n_requests=100)
    assert spec.read_ratio == pytest.approx(0.5)
    assert spec.update_ratio == pytest.approx(0.5)
    with pytest.raises(ValueError):
        preset_spec("Z")


def test_workload_a_mix():
    reqs = generate_preset_requests("A", _spec())
    ops = [r.op for r in reqs]
    assert 0.44 < ops.count(Operation.UPDATE) / len(ops) < 0.56
    assert Operation.WRITE not in ops


def test_workload_c_read_only():
    reqs = generate_preset_requests("C", _spec())
    assert all(r.op is Operation.READ for r in reqs)


def test_workload_d_inserts_and_recency():
    reqs = generate_preset_requests("D", _spec())
    inserts = [r for r in reqs if r.op is Operation.WRITE]
    assert inserts
    loaded = set(load_keys(_spec()))
    for r in inserts:
        assert r.key not in loaded


def test_workload_f_pairs_read_then_update():
    reqs = generate_preset_requests("F", _spec())
    rmw_pairs = 0
    for a, b in zip(reqs, reqs[1:]):
        if a.op is Operation.READ and b.op is Operation.UPDATE and a.key == b.key:
            rmw_pairs += 1
    assert rmw_pairs > len(reqs) * 0.15  # ~25% of positions start an RMW pair


def test_presets_run_against_a_store():
    spec = _spec(n=120, reqs=200)
    for name in ("A", "B", "D", "F"):
        store = make_store("logecmem", StoreConfig(k=4, r=3, payload_scale=1 / 32))
        for key in load_keys(spec):
            store.write(key)
        result = run_requests(store, generate_preset_requests(name, spec), spec)
        total = sum(result.op_count(op) for op in ("read", "update", "write"))
        assert total == spec.n_requests


def test_preset_requests_deterministic():
    assert generate_preset_requests("A", _spec()) == generate_preset_requests("A", _spec())


#: (preset, n_objects, seed, sha256[:16] of the "method key" lines of its
#: 4 000-request stream).  `run --preset` replays these streams, so a rewrite
#: of the preset generator must leave them byte-identical.  Preset A at 1 000
#: objects is generate_requests' 50:50 zipfian stream, pinned in
#: tests/test_workloads.py under the same hash.
PRESET_PINS = [
    ("A", 1_000, 42, "181ddeb0f8e38781"),
    ("A", 1_000, 7, "3a0a2bbc5c146708"),
    ("B", 1_000, 42, "d563c64c218b5c9d"),
    ("B", 1_000, 7, "48d49ed089f3fd1a"),
    ("C", 1_000, 42, "c2f8e3f5ff69db50"),
    ("C", 1_000, 7, "644874ce445f2cc4"),
    ("D", 1_000, 42, "5ff5c2061256d4b3"),
    ("D", 1_000, 7, "3c85804622e7fd4e"),
    ("E", 1_000, 42, "171d289027cb3f28"),
    ("E", 1_000, 7, "a78d5d0da1d8a9e1"),
    ("F", 1_000, 42, "a222332c7aa5f728"),
    ("F", 1_000, 7, "0ea0733dbda5fe73"),
    ("A", 100_000, 42, "8182cf55f86dfb6d"),
    ("A", 100_000, 7, "e597aa85cfed5aed"),
    ("B", 100_000, 42, "990e112e8fa6a9cd"),
    ("B", 100_000, 7, "cbafed537746ecf3"),
    ("C", 100_000, 42, "25b0abe8d1182d30"),
    ("C", 100_000, 7, "0b74fc271db6d70b"),
    ("D", 100_000, 42, "a62c39af20d29c19"),
    ("D", 100_000, 7, "e589d529eb262813"),
    ("E", 100_000, 42, "f0ad3f38ebc97ff7"),
    ("E", 100_000, 7, "230f0edbe01cbff4"),
    ("F", 100_000, 42, "f5f38c9741fa32cc"),
    ("F", 100_000, 7, "70736837af2daf2a"),
]


@pytest.mark.parametrize("name,n_objects,seed,pin", PRESET_PINS)
def test_preset_streams_are_pinned(name, n_objects, seed, pin):
    spec = preset_spec(name, n_objects=n_objects, n_requests=4000, seed=seed)
    reqs = generate_preset_requests(name, spec)
    assert len(reqs) == spec.n_requests
    assert all(isinstance(r, Request) for r in reqs)
    lines = "\n".join(f"{r.op.method} {r.key}" for r in reqs)
    assert hashlib.sha256(lines.encode()).hexdigest()[:16] == pin


def _scalar_preset_requests(name, spec):
    """YCSB's one-request-at-a-time generator: a scalar ``next()`` per chosen
    key and a ``grow()`` per insert -- the reference the array-built stream
    must reproduce draw for draw."""
    d = _lookup(name)
    rng = np.random.default_rng(spec.seed)
    if d.distribution == "latest":
        chooser = LatestGenerator(spec.n_objects, seed=spec.seed + 1)
    else:
        chooser = ScrambledZipfian(spec.n_objects, seed=spec.seed + 1)
    ops = rng.choice(["read", "update", "insert", "rmw"], size=spec.n_requests,
                     p=[d.read, d.update, d.insert, d.rmw])
    requests, next_insert = [], spec.n_objects
    for op in ops:
        if len(requests) >= spec.n_requests:
            break
        if op == "insert":
            requests.append(Request(Operation.WRITE, object_key(next_insert)))
            next_insert += 1
            if d.distribution == "latest":
                chooser.grow()
            continue
        key = object_key(int(chooser.next()))
        if op in ("read", "rmw"):
            requests.append(Request(Operation.READ, key))
        if op in ("update", "rmw"):
            requests.append(Request(Operation.UPDATE, key))
    return requests[: spec.n_requests]


@pytest.mark.parametrize("name", sorted(PRESETS))
@pytest.mark.parametrize("n_objects,n_requests", [(3, 300), (50, 2000), (1000, 1001), (7, 0)])
@pytest.mark.parametrize("seed", [1, 42])
def test_preset_stream_equals_the_scalar_generator(name, n_objects, n_requests, seed):
    spec = preset_spec(name, n_objects=n_objects, n_requests=n_requests, seed=seed)
    assert generate_preset_requests(name, spec) == _scalar_preset_requests(name, spec)


# -------------------------------------------------------------------- trace


def test_trace_roundtrip_string():
    reqs = generate_preset_requests("A", _spec(n=50, reqs=100))
    assert trace.loads(trace.dumps(reqs)) == reqs


def test_trace_roundtrip_file(tmp_path):
    reqs = [
        Request(Operation.READ, "k1"),
        Request(Operation.UPDATE, "k2"),
        Request(Operation.WRITE, "k3"),
        Request(Operation.DELETE, "k4"),
    ]
    path = tmp_path / "run.trace"
    trace.save(reqs, path)
    assert trace.load(path) == reqs


def test_trace_rejects_malformed():
    with pytest.raises(ValueError):
        trace.loads("X\tkey\n")
    with pytest.raises(ValueError):
        trace.loads("no-tab-here\n")


def test_trace_skips_blank_lines():
    assert trace.loads("\nR\tk\n\n") == [Request(Operation.READ, "k")]


def test_trace_replay_reproduces_run():
    """Replaying a recorded trace gives identical latencies and counters."""
    spec = _spec(n=100, reqs=150)
    reqs = generate_preset_requests("B", spec)
    results = []
    for stream in (reqs, trace.loads(trace.dumps(reqs))):
        store = make_store("logecmem", StoreConfig(k=4, r=3, payload_scale=1 / 32))
        for key in load_keys(spec):
            store.write(key)
        results.append(run_requests(store, stream, spec))
    assert results[0].latencies_s == results[1].latencies_s
    assert results[0].counters == results[1].counters

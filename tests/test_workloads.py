"""Tests for the Zipfian generators and YCSB-style workload specs."""

import hashlib
import warnings

import numpy as np
import pytest

from repro import cli
from repro.workloads import (
    LatestGenerator,
    Operation,
    Request,
    ScrambledZipfian,
    WorkloadSpec,
    ZipfianGenerator,
    generate_preset_requests,
    generate_requests,
    load_keys,
)
from repro.workloads.ycsb import object_key, update_trace
from repro.workloads.zipf import fnv1a_64, zeta


# ---------------------------------------------------------------------- zipf


def test_zeta_small_values():
    assert zeta(1, 0.99) == pytest.approx(1.0)
    assert zeta(2, 0.5) == pytest.approx(1 + 1 / 2**0.5)
    assert zeta(0, 0.99) == 0.0


def test_zipfian_range_and_skew():
    gen = ZipfianGenerator(1000, seed=1)
    draws = gen.sample(20_000)
    assert draws.min() >= 0
    assert draws.max() < 1000
    # rank 0 must dominate: with theta=0.99 it gets ~13% of the mass
    share0 = np.mean(draws == 0)
    assert share0 > 0.08
    # and the tail is long: at least 100 distinct items appear
    assert len(np.unique(draws)) > 100


def test_zipfian_next_matches_sample_distribution():
    gen_a = ZipfianGenerator(100, seed=7)
    gen_b = ZipfianGenerator(100, seed=7)
    singles = np.array([gen_a.next() for _ in range(2000)])
    batch = gen_b.sample(2000)
    # same RNG stream, same transformation -> identical draws
    assert np.array_equal(singles, batch)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_zipfian_tiny_populations_draw_without_dividing_by_zero(n):
    """Regression: eta divided zero by zero at n = 2 (a ZeroDivisionError on
    the scalar path, a nan and a RuntimeWarning on the array path).  At
    n <= 2 every draw is decided before eta is read."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gen = ZipfianGenerator(n, seed=5)
        singles = [gen.next() for _ in range(300)]
        batch = ZipfianGenerator(n, seed=5).sample(300)
        assert singles == batch.tolist()
        assert set(singles) <= set(range(n))
        latest = LatestGenerator(n, seed=5)
        assert all(0 <= latest.next() < n for _ in range(100))
        spec = WorkloadSpec(n_objects=n, n_requests=60, seed=5)
        assert {r.key for r in generate_requests(spec)} <= set(load_keys(spec))
        assert len(generate_preset_requests("D", spec)) == 60  # per-draw arrays


def test_cli_run_serves_two_objects():
    assert cli.main(["run", "--objects", "2", "--requests", "10"], out=lambda *a: None) == 0


def test_zipfian_validation():
    with pytest.raises(ValueError):
        ZipfianGenerator(0)


def test_fnv_hash_deterministic_and_spreading():
    assert fnv1a_64(12345) == fnv1a_64(12345)
    hashes = {fnv1a_64(i) % 1000 for i in range(100)}
    assert len(hashes) > 90  # near-injective over small ranges


def test_scrambled_zipfian_spreads_hot_keys():
    plain = ZipfianGenerator(1000, seed=3).sample(5000)
    scrambled = ScrambledZipfian(1000, seed=3).sample(5000)
    # same skew (top item share), different identity of the hot key
    top_plain = np.bincount(plain).argmax()
    top_scrambled = np.bincount(scrambled, minlength=1000).argmax()
    assert top_plain == 0
    assert top_scrambled != 0
    assert scrambled.min() >= 0 and scrambled.max() < 1000


def test_scrambled_deterministic_per_seed():
    a = ScrambledZipfian(500, seed=9).sample(100)
    b = ScrambledZipfian(500, seed=9).sample(100)
    c = ScrambledZipfian(500, seed=10).sample(100)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------- ycsb


def test_spec_ratio_parsers():
    ru = WorkloadSpec.read_update("80:20")
    assert ru.read_ratio == 0.8 and ru.update_ratio == 0.2 and ru.write_ratio == 0.0
    rw = WorkloadSpec.read_write("95:5")
    assert rw.read_ratio == 0.95 and rw.write_ratio == 0.05 and rw.update_ratio == 0.0


def test_spec_validates_ratios():
    with pytest.raises(ValueError):
        WorkloadSpec(read_ratio=0.5, update_ratio=0.2, write_ratio=0.2)
    with pytest.raises(ValueError):
        WorkloadSpec(n_objects=0)


def test_load_keys_fifo_order():
    spec = WorkloadSpec(n_objects=10)
    keys = load_keys(spec)
    assert keys[0] == object_key(0)
    assert keys == sorted(keys)
    assert len(set(keys)) == 10
    assert all(len(k) == 20 for k in keys)  # ~20-byte keys as in the paper


def test_generate_requests_respects_mix():
    spec = WorkloadSpec(
        n_objects=1000, n_requests=5000, read_ratio=0.7, update_ratio=0.3, seed=5
    )
    reqs = generate_requests(spec)
    assert len(reqs) == 5000
    ops = [r.op for r in reqs]
    read_share = ops.count(Operation.READ) / len(ops)
    assert 0.67 < read_share < 0.73
    assert Operation.WRITE not in ops


def test_generate_requests_writes_insert_fresh_keys():
    spec = WorkloadSpec(
        n_objects=100, n_requests=200, read_ratio=0.5, update_ratio=0.0,
        write_ratio=0.5, seed=6,
    )
    reqs = generate_requests(spec)
    loaded = set(load_keys(spec))
    for r in reqs:
        if r.op is Operation.WRITE:
            assert r.key not in loaded
        else:
            assert r.key in loaded
    write_keys = [r.key for r in reqs if r.op is Operation.WRITE]
    assert len(set(write_keys)) == len(write_keys)  # inserts never collide


def test_generate_requests_deterministic():
    spec = WorkloadSpec(n_objects=100, n_requests=100, seed=11)
    assert generate_requests(spec) == generate_requests(spec)


def test_update_trace_matches_request_stream():
    spec = WorkloadSpec(n_objects=500, n_requests=2000, read_ratio=0.5,
                        update_ratio=0.5, seed=13)
    trace = update_trace(spec)
    reqs = generate_requests(spec)
    from_reqs = [int(r.key[4:]) for r in reqs if r.op is Operation.UPDATE]
    assert list(trace) == from_reqs


def test_update_trace_zipf_skew():
    spec = WorkloadSpec(n_objects=10_000, n_requests=20_000, read_ratio=0.5,
                        update_ratio=0.5, seed=17)
    trace = update_trace(spec)
    counts = np.bincount(trace, minlength=spec.n_objects)
    # heavy skew: the hottest object gets far more than uniform share
    assert counts.max() > 20 * trace.size / spec.n_objects


# ------------------------------------------------------------ pinned streams

#: (chooser, mix, seed, sha256[:16] of generate_requests' "method key"
#: lines, sha256[:16] of update_trace's little-endian int64 bytes) at
#: 1 000 objects and 4 000 requests; the chooser is always the scrambled
#: Zipfian, named so each row's id says which stream it pins.  Every experiment and benchmark replays
#: these streams, so a host-speed rewrite of the input path must leave them
#: byte-identical.
MIXES = {
    "50:50 read:update": (0.5, 0.5, 0.0),
    "95:5 read:write": (0.95, 0.0, 0.05),
    "90:5:5": (0.9, 0.05, 0.05),
}
EMPTY = "e3b0c44298fc1c14"  # a read:write mix has no updates
STREAM_PINS = [
    ("zipfian", "50:50 read:update", 42, "181ddeb0f8e38781", "aa6f05a5a98a9888"),
    ("zipfian", "50:50 read:update", 7, "3a0a2bbc5c146708", "1dba9caca9bd6d1c"),
    ("zipfian", "95:5 read:write", 42, "407d678335bfcd91", EMPTY),
    ("zipfian", "95:5 read:write", 7, "6c313737e651a1a8", EMPTY),
    ("zipfian", "90:5:5", 42, "23dc3a0a518bc52f", "da4d427d3f085821"),
    ("zipfian", "90:5:5", 7, "790a9b80cebf903f", "a9af601e3b8ffc4d"),
]


def _sha16(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.mark.parametrize("dist,mix,seed,stream_pin,trace_pin", STREAM_PINS)
def test_request_stream_and_update_trace_are_pinned(dist, mix, seed, stream_pin, trace_pin):
    read, update, write = MIXES[mix]
    spec = WorkloadSpec(
        n_objects=1000, n_requests=4000, read_ratio=read, update_ratio=update,
        write_ratio=write, seed=seed,
    )
    reqs = generate_requests(spec)
    assert len(reqs) == spec.n_requests
    assert all(isinstance(r, Request) for r in reqs)
    lines = "\n".join(f"{r.op.method} {r.key}" for r in reqs)
    assert _sha16(lines.encode()) == stream_pin
    trace = update_trace(spec)
    assert trace.dtype == np.int64
    assert _sha16(np.ascontiguousarray(trace, dtype="<i8").tobytes()) == trace_pin


# ----------------------------------------------------------------- fnv-1a


def _fnv1a_reference(value: int) -> int:
    """Textbook FNV-1a 64 over ``value``'s 8 little-endian bytes."""
    h = 0xCBF29CE484222325
    for octet in value.to_bytes(8, "little"):
        h = ((h ^ octet) * 0x100000001B3) % 2**64
    return h


class _FixedRanks:
    """Stands in for ScrambledZipfian's rank generator: hands out given ranks."""

    def __init__(self, ranks):
        self.ranks = list(ranks)

    def sample(self, count):
        out, self.ranks = self.ranks[:count], self.ranks[count:]
        return np.array(out, dtype=np.uint64)

    def next(self):
        return self.ranks.pop(0)


def test_fnv1a_matches_the_reference_on_random_ranks_including_high_bit():
    rng = np.random.default_rng(2024)
    ranks = [int(x) for x in rng.integers(0, 2**64, size=500, dtype=np.uint64)]
    ranks += [0, 1, 255, 256, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1]
    assert any(r >= 2**63 for r in ranks[:500])
    for r in ranks:
        assert fnv1a_64(r) == _fnv1a_reference(r)
    # the batch path (sample) and the scalar path (next) of the scrambler
    # both hash with FNV-1a; n close to 2^63 keeps almost every hash bit
    n = 2**63 - 25
    batch = ScrambledZipfian(10, seed=1)
    batch.n, batch._zipf = n, _FixedRanks(ranks)
    assert batch.sample(len(ranks)).tolist() == [_fnv1a_reference(r) % n for r in ranks]
    single = ScrambledZipfian(10, seed=1)
    single.n, single._zipf = n, _FixedRanks(ranks)
    assert [single.next() for _ in ranks] == [_fnv1a_reference(r) % n for r in ranks]

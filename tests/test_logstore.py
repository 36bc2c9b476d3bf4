"""Tests for log records, the buffer-logging buffer, and the four schemes."""

import numpy as np
import pytest

from repro.cluster.node import LogNode
from repro.ec.delta import ParityDelta
from repro.logstore import SCHEMES, make_scheme
from repro.logstore.buffer import LogBuffer
from repro.logstore.records import LogRecord, merge_records
from repro.sim.disk import DiskModel
from repro.sim.params import HardwareProfile

PHYS = 256  # physical chunk size used in these tests
LOGICAL = 4096


def _chunk_record(sid=0, pidx=1, seed=0):
    rng = np.random.default_rng(seed)
    return LogRecord.for_chunk(sid, pidx, rng.integers(0, 256, PHYS, dtype=np.uint8), LOGICAL)


def _delta_record(sid=0, pidx=1, offset=0, length=PHYS, seed=1):
    rng = np.random.default_rng(seed)
    d = ParityDelta(sid, pidx, offset, rng.integers(0, 256, length, dtype=np.uint8))
    return LogRecord.for_delta(d, round(LOGICAL * length / PHYS))


def _disk():
    return DiskModel(HardwareProfile())


# ------------------------------------------------------------------- records


def test_log_record_requires_exactly_one_payload():
    with pytest.raises(ValueError):
        LogRecord(stripe_id=0, parity_index=0, logical_nbytes=10)
    d = ParityDelta(0, 0, 0, np.zeros(4, dtype=np.uint8))
    with pytest.raises(ValueError):
        LogRecord(
            stripe_id=0, parity_index=0, logical_nbytes=10,
            chunk=np.zeros(4, dtype=np.uint8), delta=d,
        )


def test_log_record_positive_bytes():
    with pytest.raises(ValueError):
        LogRecord(stripe_id=0, parity_index=0, logical_nbytes=0, chunk=np.zeros(4, dtype=np.uint8))


def test_merge_records_chunk_plus_deltas():
    base = _chunk_record(seed=3)
    d1 = _delta_record(offset=0, length=64, seed=4)
    d2 = _delta_record(offset=32, length=64, seed=5)
    merged = merge_records([base, d1, d2])
    assert merged.is_chunk
    expect = base.chunk.copy()
    expect[0:64] ^= d1.delta.payload
    expect[32:96] ^= d2.delta.payload
    assert np.array_equal(merged.chunk, expect)
    assert merged.logical_nbytes == LOGICAL


def test_merge_records_deltas_only():
    d1 = _delta_record(offset=0, length=64, seed=6)
    d2 = _delta_record(offset=64, length=64, seed=7)
    merged = merge_records([d1, d2])
    assert not merged.is_chunk
    assert merged.delta.offset == 0
    assert merged.delta.length == 128
    # logical size scales to the union extent at the same density
    assert merged.logical_nbytes == d1.logical_nbytes + d2.logical_nbytes


def test_merge_records_rejects_mixed_keys():
    with pytest.raises(ValueError):
        merge_records([_delta_record(sid=0), _delta_record(sid=1)])


def test_merge_records_rejects_two_chunks():
    with pytest.raises(ValueError):
        merge_records([_chunk_record(), _chunk_record()])


def test_merge_records_empty():
    with pytest.raises(ValueError):
        merge_records([])


# -------------------------------------------------------------------- buffer


def test_buffer_merging_collapses_same_target():
    buf = LogBuffer(capacity_bytes=1 << 20, flush_threshold_bytes=1 << 19, merge=True)
    buf.add(_delta_record(offset=0, length=64, seed=1))
    buf.add(_delta_record(offset=0, length=64, seed=2))
    assert len(buf) == 1
    assert buf.merges == 1
    assert buf.appends == 2


def test_buffer_no_merge_keeps_all():
    buf = LogBuffer(capacity_bytes=1 << 20, flush_threshold_bytes=1 << 19, merge=False)
    buf.add(_delta_record(seed=1))
    buf.add(_delta_record(seed=2))
    assert len(buf) == 2
    assert buf.merges == 0


def test_buffer_threshold_and_capacity():
    buf = LogBuffer(capacity_bytes=10_000, flush_threshold_bytes=8_000, merge=False)
    assert not buf.should_flush()
    buf.add(_delta_record(sid=1, length=PHYS, seed=1))  # 4096 logical
    buf.add(_delta_record(sid=2, length=PHYS, seed=2))
    assert buf.should_flush()
    assert buf.logical_bytes < buf.capacity_bytes
    buf.add(_delta_record(sid=3, length=PHYS, seed=3))
    assert buf.logical_bytes >= buf.capacity_bytes


def test_buffer_threshold_above_capacity_rejected():
    with pytest.raises(ValueError):
        LogBuffer(capacity_bytes=10, flush_threshold_bytes=20)


def test_buffer_drain_resets():
    buf = LogBuffer(capacity_bytes=1 << 20, flush_threshold_bytes=1 << 19)
    buf.add(_delta_record(sid=1))
    buf.add(_delta_record(sid=2))
    records = buf.drain()
    assert len(records) == 2
    assert len(buf) == 0
    assert buf.logical_bytes == 0


def test_buffer_records_for():
    buf = LogBuffer(capacity_bytes=1 << 20, flush_threshold_bytes=1 << 19)
    buf.add(_delta_record(sid=1, pidx=1))
    buf.add(_delta_record(sid=2, pidx=1))
    assert len(buf.records_for(1, 1)) == 1
    assert buf.records_for(3, 1) == []


# ----------------------------------------------------------------- schemes


def test_make_scheme_names():
    for name in SCHEMES:
        scheme = make_scheme(name, _disk())
        assert scheme.name == name
    with pytest.raises(ValueError):
        make_scheme("bogus", _disk())


def _feed(scheme, n_updates=6, flush_every=3):
    """Write a base chunk then n deltas in batches; return expected parity."""
    rng = np.random.default_rng(42)
    base = rng.integers(0, 256, PHYS, dtype=np.uint8)
    scheme.flush([LogRecord.for_chunk(7, 1, base, LOGICAL)], now=0.0)
    expect = base.copy()
    batch = []
    for i in range(n_updates):
        off = (i * 32) % (PHYS - 64)
        payload = rng.integers(0, 256, 64, dtype=np.uint8)
        expect[off : off + 64] ^= payload
        batch.append(
            LogRecord.for_delta(ParityDelta(7, 1, off, payload), round(LOGICAL * 64 / PHYS))
        )
        if len(batch) == flush_every:
            scheme.flush(batch, now=0.0)
            batch = []
    if batch:
        scheme.flush(batch, now=0.0)
    scheme.settle(now=0.0)
    return expect


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_all_schemes_reconstruct_identical_parity(name):
    scheme = make_scheme(name, _disk())
    expect = _feed(scheme)
    result = scheme.read_parity(7, 1, PHYS, now=1.0)
    assert np.array_equal(result.payload, expect)
    assert result.has_base


def test_pl_flush_is_one_sequential_io():
    disk = _disk()
    scheme = make_scheme("pl", disk)
    recs = [_delta_record(sid=i, seed=i) for i in range(5)]
    scheme.flush(recs, now=0.0)
    assert disk.stats.writes == 1
    assert disk.stats.seeks == 0


def test_plr_flush_is_one_random_io_per_record():
    disk = _disk()
    scheme = make_scheme("plr", disk)
    recs = [_delta_record(sid=i, seed=i) for i in range(5)]
    scheme.flush(recs, now=0.0)
    assert disk.stats.writes == 5
    assert disk.stats.seeks == 5


def test_plrm_merges_within_flush():
    disk = _disk()
    scheme = make_scheme("plr-m", disk)
    recs = [
        _delta_record(sid=1, seed=1),
        _delta_record(sid=1, seed=2),  # same stripe -> merged
        _delta_record(sid=2, seed=3),
    ]
    scheme.flush(recs, now=0.0)
    assert disk.stats.writes == 2


def test_plm_stages_then_lazily_merges():
    disk = _disk()
    scheme = make_scheme("plm", disk)
    scheme.staging_threshold_bytes = 10_000
    recs = [_delta_record(sid=1, seed=1), _delta_record(sid=1, seed=2)]
    scheme.flush(recs, now=0.0)  # 8192 logical staged: below threshold
    assert disk.stats.writes == 1  # one sequential staging append
    assert scheme.staging_bytes > 0
    scheme.flush([_delta_record(sid=2, seed=3)], now=0.0)  # crosses threshold
    assert scheme.lazy_merges == 1
    assert scheme.staging_bytes == 0
    # 2 staging appends + 2 merged region writes (stripe 1 merged to one)
    assert disk.stats.writes == 4
    assert disk.stats.reads == 1  # staging read-back


def test_plm_settle_merges_remainder():
    scheme = make_scheme("plm", _disk())
    scheme.flush([_delta_record(sid=1, seed=1)], now=0.0)
    assert scheme.staging_bytes > 0
    scheme.settle(now=0.0)
    assert scheme.staging_bytes == 0


def test_pl_repair_reads_scale_with_flush_batches():
    disk = _disk()
    scheme = make_scheme("pl", disk)
    _feed(scheme, n_updates=6, flush_every=2)
    disk.stats.reads = 0
    result = scheme.read_parity(7, 1, PHYS, now=1.0)
    # base + one seek per flush batch (6 deltas over 3 batches) = 4 reads;
    # records inside one batch are contiguous on disk
    assert result.disk_reads == 4


def test_pl_repair_reads_grow_with_scattered_flushes():
    disk = _disk()
    scheme = make_scheme("pl", disk)
    _feed(scheme, n_updates=6, flush_every=1)  # every delta its own batch
    disk.stats.reads = 0
    result = scheme.read_parity(7, 1, PHYS, now=1.0)
    assert result.disk_reads == 7  # base + 6 scattered deltas


@pytest.mark.parametrize("name", ["plr", "plr-m"])
def test_reserved_schemes_repair_in_one_read(name):
    scheme = make_scheme(name, _disk())
    _feed(scheme, n_updates=6, flush_every=2)
    result = scheme.read_parity(7, 1, PHYS, now=1.0)
    assert result.disk_reads == 1


def test_plm_repair_reads_fewer_bytes_than_plr():
    """Cross-flush merging shrinks the reserved region PLM has to read."""
    plr = make_scheme("plr", _disk())
    plm = make_scheme("plm", _disk())
    # Overlapping same-stripe deltas across different flush batches merge in
    # PLM's staging window but not in PLR's reserved space.
    for scheme in (plr, plm):
        rng = np.random.default_rng(0)
        base = rng.integers(0, 256, PHYS, dtype=np.uint8)
        scheme.flush([LogRecord.for_chunk(1, 1, base, LOGICAL)], now=0.0)
        for _ in range(4):
            d = ParityDelta(1, 1, 0, rng.integers(0, 256, 64, dtype=np.uint8))
            scheme.flush([LogRecord.for_delta(d, 1024)], now=0.0)
        scheme.settle(now=0.0)
    r_plr = plr.read_parity(1, 1, PHYS, now=1.0)
    r_plm = plm.read_parity(1, 1, PHYS, now=1.0)
    assert r_plm.logical_bytes_read < r_plr.logical_bytes_read
    assert np.array_equal(r_plm.payload, r_plr.payload)


def test_empty_flush_is_free():
    for name in SCHEMES:
        disk = _disk()
        scheme = make_scheme(name, disk)
        assert scheme.flush([], now=0.0) == 0.0
        assert disk.stats.io_count == 0


# ------------------------------------------------------- log read path pins

#: PLR and PLR-m read the same regions: only their flushes differ
_RESERVED_READS = (
    [(1, "0.0008963199999999999"), (1, "0.000724288"), (1, "0.000757056"),
     (1, "0.000953664"), (1, "0.000625984"), (1, "0.000675136")] * 2,
    12,
    12.0,
)
#: per scheme: (disk reads, repr of duration) of every read_uptodate_parity
#: call in _drive_log_node's order, the disk's total read count and the
#: ``log_region_reads`` counter
LOG_READ_PINS = {
    "pl": (
        [(3, "0.0012963200000000001"), (3, "0.001124288"), (3, "0.001157056"),
         (3, "0.001353664"), (2, "0.0008259840000000001"), (2, "0.0008751360000000001")] * 2,
        32,
        0.0,
    ),
    "plr": _RESERVED_READS,
    "plr-m": _RESERVED_READS,
    "plm": (
        [(4, "0.0014963239999999998"), (4, "0.001324292"), (4, "0.00135706"),
         (4, "0.0015536679999999998"), (3, "0.001025988"), (3, "0.00107514")]
        + [(1, "0.00046214400000000005")] * 6,
        29,
        12.0,
    ),
}


def _drive_log_node(name):
    """Default-profile log node: six base chunks, fourteen growing deltas
    (the buffer flushes on its own threshold), every parity read, settle,
    every parity read again."""
    node = LogNode(f"log-{name}", HardwareProfile(), scheme=name)
    rng = np.random.default_rng(11)
    now = 0.0
    for sid in range(3):
        for j in (1, 2):
            base = rng.integers(0, 256, PHYS, dtype=np.uint8)
            node.append(LogRecord.for_chunk(sid, j, base, 64 << 10), now)
    for i in range(14):
        now += 1e-3
        off = (i * 48) % (PHYS - 64)
        d = ParityDelta(i % 3, 1 + i % 2, off, rng.integers(0, 256, 64, dtype=np.uint8))
        node.append(LogRecord.for_delta(d, (8 + 4 * i) << 10), now)

    def read_all(t):
        results = (node.read_uptodate_parity(sid, j, PHYS, t) for sid in range(3) for j in (1, 2))
        return [(r.disk_reads, repr(r.duration_s)) for r in results]

    reads = read_all(now + 1.0)
    node.settle(now + 1.0)
    reads += read_all(now + 2.0)
    return reads, node.disk.stats.reads, node.counters["log_region_reads"]


@pytest.mark.parametrize("name", ["pl", "plr", "plr-m", "plm"])
def test_log_read_path_durations_are_pinned(name):
    assert _drive_log_node(name) == LOG_READ_PINS[name]

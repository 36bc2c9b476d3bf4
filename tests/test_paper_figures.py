"""Reproduce the paper's worked examples bit- and count-exactly.

* Figure 1  -- chunk transfer/storage counts of the four update schemes,
* Figure 2  -- parity logging in a (2,2) code over the stream a, b, a', b',
* Figure 8  -- merge-based buffer logging collapsing three deltas into one,
* Figure 9  -- PLR / PLR-m / PLM disk IO counts for the six-update stream.
"""

import numpy as np
import pytest

from repro.analysis.transfers import (
    direct_reconstruction,
    full_stripe,
    hybrid_pl,
    in_place,
    parity_logging,
    sweep_k,
)
from repro.ec.delta import ParityDelta, apply_parity_delta, merge_parity_deltas
from repro.ec.gf256 import gf_mul_scalar
from repro.ec.rs import RSCode
from repro.logstore import make_scheme
from repro.logstore.records import LogRecord
from repro.sim.disk import DiskModel
from repro.sim.params import HardwareProfile

CHUNK = 64


# ------------------------------------------------------------------ Figure 1


def test_figure1a_in_place():
    cost = in_place(6, 3)
    assert cost.chunk_reads - 1 == 3      # "3 parity reads"
    assert cost.stored_chunks == 9        # "9 stored chunks"


def test_figure1b_full_stripe_update_heavy():
    cost = full_stripe(6, 3, new_chunks_per_stripe=6)
    assert cost.chunk_reads == 0          # "no parity reads"
    assert cost.stored_chunks == 18       # "18 stored chunks"


def test_figure1c_full_stripe_update_light():
    cost = full_stripe(6, 3, new_chunks_per_stripe=1)
    assert cost.chunk_reads == 5          # re-read the 5 unchanged chunks
    assert cost.chunk_writes == 4         # D1' + "3 parity re-computations"
    assert cost.stored_chunks == 13       # "13 stored chunks"


def test_figure1d_parity_logging():
    cost = parity_logging(6, 3)
    assert cost.chunk_reads == 1          # no parity reads, just the old data
    assert cost.stored_chunks == 12       # "12 stored chunks"


def test_full_stripe_m_bounds():
    with pytest.raises(ValueError):
        full_stripe(6, 3, 0)
    with pytest.raises(ValueError):
        full_stripe(6, 3, 7)


def test_wide_stripe_argument():
    """§2.2.1: delta-based schemes are k-invariant; full-stripe GC is not."""
    rows = sweep_k([6, 16, 128], r=4, new_chunks_per_stripe=1)

    def total(k, scheme):
        return next(r["total"] for r in rows if r["k"] == k and r["scheme"] == scheme)

    for scheme in ("in-place", "parity-logging", "hybrid-pl"):
        assert total(6, scheme) == total(16, scheme) == total(128, scheme)
    # full-stripe GC traffic grows linearly in k: (k-1) reads + 1 + r writes
    assert total(16, "full-stripe") == 20
    assert total(128, "full-stripe") == 132
    assert total(128, "direct") > total(128, "in-place")
    assert total(128, "full-stripe") > 10 * total(128, "hybrid-pl")
    assert total(128, "direct") > 10 * total(128, "hybrid-pl")
    # HybridPL moves the fewest chunks of the delta-based schemes
    assert total(6, "hybrid-pl") < total(6, "in-place")


def test_hybrid_reads_fewer_chunks_than_in_place():
    assert hybrid_pl(10, 4).chunk_reads < in_place(10, 4).chunk_reads
    assert direct_reconstruction(10, 4).chunk_reads == 9


# ------------------------------------------------------------------ Figure 2


def _code22():
    """A (2,2) code shaped like the figure: P1 = a + b, P2 = a + c2*b."""
    code = RSCode(2, 2)
    assert code.coefficient(0, 0) == 1 and code.coefficient(0, 1) == 1
    return code


def test_figure2_parity_logging_stream():
    """Stream a, b, a', b': logged deltas reconstruct both parities."""
    code = _code22()
    rng = np.random.default_rng(0)
    a, b, a2, b2 = (rng.integers(0, 256, CHUNK, dtype=np.uint8) for _ in range(4))
    p = code.encode(np.stack([a, b]))

    # "PL only needs to write dP1, dP2, dP1', dP2' ... without reading P1, P2"
    log: list[ParityDelta] = []
    for j in range(2):
        log.append(ParityDelta(0, j, 0, gf_mul_scalar(code.coefficient(j, 0), a ^ a2)))
    for j in range(2):
        log.append(ParityDelta(0, j, 0, gf_mul_scalar(code.coefficient(j, 1), b ^ b2)))

    # "obtain the up-to-date chunk of the first parity via P1 + dP1 + dP1'"
    expect = code.encode(np.stack([a2, b2]))
    for j in range(2):
        chunk = p[j].copy()
        for d in log:
            if d.parity_index == j:
                apply_parity_delta(chunk, d)
        assert np.array_equal(chunk, expect[j])


def test_figure2_xor_parity_deltas_equal_data_delta():
    """For P1 (coefficients 1), dP1 = a' - a exactly as the figure states."""
    code = _code22()
    rng = np.random.default_rng(1)
    a, a2 = (rng.integers(0, 256, CHUNK, dtype=np.uint8) for _ in range(2))
    assert np.array_equal(code.parity_delta(0, 0, a ^ a2), a ^ a2)


# ------------------------------------------------------------------ Figure 8


def test_figure8_merge_based_buffer_logging():
    """Stream a, b, a', b', a'': three deltas merge into one that equals
    (a'' - a) + c*(b' - b) for the parity a + c*b."""
    code = _code22()
    rng = np.random.default_rng(2)
    a, b, a1, b1, a2 = (rng.integers(0, 256, CHUNK, dtype=np.uint8) for _ in range(5))
    c = code.coefficient(1, 1)
    deltas = [
        ParityDelta(0, 1, 0, gf_mul_scalar(code.coefficient(1, 0), a ^ a1)),
        ParityDelta(0, 1, 0, gf_mul_scalar(c, b ^ b1)),
        ParityDelta(0, 1, 0, gf_mul_scalar(code.coefficient(1, 0), a1 ^ a2)),
    ]
    merged = merge_parity_deltas(deltas)
    assert merged.merged_count == 3
    expect = gf_mul_scalar(code.coefficient(1, 0), a ^ a2) ^ gf_mul_scalar(c, b ^ b1)
    assert np.array_equal(merged.payload, expect)
    # and applying it brings the parity fully up to date
    parity = code.encode(np.stack([a, b]))[1].copy()
    apply_parity_delta(parity, merged)
    assert np.array_equal(parity, code.encode(np.stack([a2, b1]))[1])


# ------------------------------------------------------------------ Figure 9


def _figure9_records():
    """The figure's log-node input: base parities a+2b and c+2d, then deltas
    for the update order a->a', c->c', c'->c'', b->b', a'->a'', b'->b''."""
    code = _code22()
    rng = np.random.default_rng(3)
    a, b, c, d, a1, a2, b1, b2, c1, c2 = (
        rng.integers(0, 256, CHUNK, dtype=np.uint8) for _ in range(10)
    )
    coeff_a = code.coefficient(1, 0)
    coeff_b = code.coefficient(1, 1)
    p_ab = code.encode(np.stack([a, b]))[1]
    p_cd = code.encode(np.stack([c, d]))[1]

    def delta(sid, coeff, old, new):
        return LogRecord.for_delta(
            ParityDelta(sid, 1, 0, gf_mul_scalar(coeff, old ^ new)), CHUNK
        )

    base = [
        LogRecord.for_chunk(0, 1, p_ab, CHUNK),
        LogRecord.for_chunk(1, 1, p_cd, CHUNK),
    ]
    updates = [
        delta(0, coeff_a, a, a1),    # a -> a'
        delta(1, coeff_a, c, c1),    # c -> c'
        delta(1, coeff_a, c1, c2),   # c' -> c''
        delta(0, coeff_b, b, b1),    # b -> b'
        delta(0, coeff_a, a1, a2),   # a' -> a''
        delta(0, coeff_b, b1, b2),   # b' -> b''
    ]
    final = {
        0: code.encode(np.stack([a2, b2]))[1],
        1: code.encode(np.stack([c2, d]))[1],
    }
    return base, updates, final


def _check_final(scheme, final):
    for sid, expect in final.items():
        got = scheme.read_parity(sid, 1, CHUNK, now=1.0)
        assert np.array_equal(got.payload, expect)


def test_figure9a_plr_eight_writes():
    disk = DiskModel(HardwareProfile())
    scheme = make_scheme("plr", disk)
    base, updates, final = _figure9_records()
    for rec in base + updates:
        scheme.flush([rec], now=0.0)
    assert disk.stats.writes == 8        # "8 disk writes"
    _check_final(scheme, final)


def test_figure9b_plrm_five_writes():
    disk = DiskModel(HardwareProfile())
    scheme = make_scheme("plr-m", disk)
    base, updates, final = _figure9_records()
    # the figure's three buffer batches
    scheme.flush([base[0], updates[0], base[1]], now=0.0)   # -> a'+2b, c+2d
    scheme.flush([updates[1], updates[2], updates[3]], now=0.0)  # -> c''-c, 2(b'-b)
    scheme.flush([updates[4], updates[5]], now=0.0)         # -> (a''-a')+2(b''-b')
    assert disk.stats.writes == 5        # "5 disk writes"
    _check_final(scheme, final)


def test_figure9c_plm_three_writes_one_read():
    disk = DiskModel(HardwareProfile())
    scheme = make_scheme("plm", disk)
    scheme.staging_threshold_bytes = 1 << 30  # merge only when told to
    base, updates, final = _figure9_records()
    scheme.flush(base + updates, now=0.0)     # one sequential staging write
    scheme.settle(now=0.0)                    # read back + 2 merged writes
    assert disk.stats.writes == 3        # "3 disk writes"
    assert disk.stats.reads == 1         # "+ 1 disk read"
    _check_final(scheme, final)

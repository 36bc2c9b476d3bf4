"""Popularity-aware HybridPL (the paper's §9 future work).

    "We also plan to re-organize HybridPL's architecture to proactively
    identify the popularity of incoming data for better update efficiency."

This module implements that plan as :class:`AdaptiveLogECMem`: the proxy
tracks per-object update popularity and, for *hot* objects, coalesces the
log-bound data deltas in a small proxy-side buffer instead of broadcasting
each one.  Consecutive deltas to the same (stripe, data chunk) merge by
Property 2, so a hot object updated n times inside the window ships one
merged delta instead of n -- fewer log-node messages, fewer buffered records,
fewer disk IOs.

Consistency is preserved:

* data chunks and the XOR parity are still updated in place on every update,
  so single-failure repairs never see stale state;
* multi-failure repairs fold the proxy's pending deltas on top of whatever
  the log nodes materialise (the proxy knows exactly what it has not shipped);
* ``finalize``/eviction flushes everything, so settled state equals plain
  LogECMem's bit-for-bit (the scrubber asserts this in tests).
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.core.config import StoreConfig
from repro.core.interface import OpResult
from repro.core.logecmem import LogECMem
from repro.ec.delta import DeltaRecord, apply_parity_delta


def choose_log_scheme(
    current: str,
    sync_stalls: int,
    random_writes: float,
    flush_records: float,
) -> str:
    """Pick the log layout a struggling log node should migrate to.

    The decision mirrors *Adaptive Logging*'s workload-driven layout choice,
    driven by the two disk pathologies this simulation models:

    * **Backpressure stalls** (``sync_stalls > 0``): the disk cannot keep up
      with the flush stream, so minimise write cost -- ``pl`` turns every
      flush into one sequential append, the cheapest write pattern of the
      four schemes.
    * **Random-write-heavy otherwise** (more random writes than flushed
      records means reserved-region layouts are seeking per record):
      ``plm``'s staging extent batches those seeks into sequential runs and
      lazily merges, trading repair locality for write absorption.

    Returns the current scheme when nothing is wrong or the node already
    runs the preferred layout, so callers can treat "no change" as a no-op.
    """
    if sync_stalls > 0 and current != "pl":
        return "pl"
    if sync_stalls == 0 and random_writes > flush_records and current not in ("pl", "plm"):
        return "plm"
    return current


class AdaptiveLogECMem(LogECMem):
    """LogECMem with popularity-driven proxy-side delta coalescing."""

    name = "adaptive-logecmem"
    #: updates seen before a key counts as hot
    hot_threshold = 2
    #: merged deltas shipped after this many folds
    coalesce_updates = 8
    #: max coalesced entries held at the proxy
    pending_capacity = 256

    def __init__(self, config: StoreConfig):
        super().__init__(config)
        self.popularity: Counter[str] = Counter()
        #: (stripe_id, seq) -> [merged chunk-sized data delta, folds]
        self._pending_deltas: dict[tuple[int, int], list] = {}
        self.coalesced_updates = 0
        self.flushes = 0

    # ------------------------------------------------------------------ update

    def _update_impl(self, key: str, tombstone: bool) -> OpResult:
        self._locate(key)  # a missing key raises before it is counted
        self.popularity[key] += 1
        return super()._update_impl(key, tombstone)

    def _ship_delta(self, key, tombstone, record, dram_sizes, dram_nodes):
        """Cold keys and tombstones broadcast as usual; a hot key's delta is
        coalesced at the proxy and shipped later by :meth:`_flush_entry`."""
        if tombstone or self.popularity[key] < self.hot_threshold:
            return super()._ship_delta(key, tombstone, record, dram_sizes, dram_nodes)
        # hot key: the new object and XOR parity go out now; the log-bound
        # data delta folds into the proxy's buffer (Property 2)
        writes_s = self.net.parallel_puts(dram_sizes, node_ids=dram_nodes)
        slot_key = (record.stripe_id, record.data_index)
        entry = self._pending_deltas.get(slot_key)
        flush_s = 0.0
        if entry is None:
            if len(self._pending_deltas) >= self.pending_capacity:
                flush_s += self._flush_all()
            entry = [np.zeros(self.cfg.phys_chunk_size(), dtype=np.uint8), 0]
            self._pending_deltas[slot_key] = entry
        apply_parity_delta(entry[0], record)
        entry[1] += 1
        self.coalesced_updates += 1
        self.counters.add("coalesced_updates")
        if entry[1] >= self.coalesce_updates:
            flush_s += self._flush_entry(*slot_key)
        return writes_s, flush_s, 0

    # ------------------------------------------------------------------- flush

    def _flush_entry(self, sid: int, seq: int) -> float:
        """Ship one coalesced delta through the ordinary broadcast."""
        entry = self._pending_deltas.pop((sid, seq), None)
        if entry is None:
            return 0.0
        nz = np.nonzero(entry[0])[0]
        if nz.size == 0:
            return 0.0  # deltas cancelled out entirely
        lo, hi = int(nz[0]), int(nz[-1]) + 1
        record = DeltaRecord(sid, seq, lo, entry[0][lo:hi])
        logical = max(1, round(record.length / self.cfg.payload_scale))
        writes_s, stall_s, _ = self._broadcast_delta(record, logical)
        self.flushes += 1
        self.counters.add("coalesce_flushes")
        return writes_s + stall_s

    def _flush_all(self) -> float:
        total = 0.0
        for sid, seq in sorted(self._pending_deltas):
            total += self._flush_entry(sid, seq)
        return total

    # ------------------------------------------------------------------ repair

    def _fetch_logged_parities(self, sid, needed, exclude):
        """Fold un-shipped deltas on top of the materialised parities."""
        latency, out = super()._fetch_logged_parities(sid, needed, exclude)
        for (psid, seq), entry in self._pending_deltas.items():
            if psid != sid:
                continue
            record = DeltaRecord(sid, seq, 0, entry[0])
            for gi, payload in out.items():
                j = gi - self.cfg.k
                apply_parity_delta(payload, record, self.code.coefficient(j, seq))
        return latency, out

    def finalize(self) -> None:
        self._flush_all()
        super().finalize()

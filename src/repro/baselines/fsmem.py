"""FSMem: Memcached + full-stripe updates with deferred GC (§2.2, §6.1).

An update never reads or patches parities: the new value is appended to the
encoding queues and becomes part of a brand-new stripe (BCStore-style).  The
costs show up elsewhere, exactly as the paper observes:

* **memory** -- the old versions (data *and* their stripes' parities) linger
  as stale items until garbage collection, so resident bytes grow with the
  update ratio (Table 1 / Figure 12);
* **GC re-computation** -- reclaiming a stripe with m updated chunks means
  reading its k-m still-active chunks and re-encoding (Figure 1(c)); with a
  large k and update-light workloads that dominates the amortised update
  cost (Figures 11 and 13).

GC runs deferred, once, at :meth:`FSMem.finalize` -- the paper's measured
regime.  It charges the re-computation *cost* only: stale items stay in the
memtables, because memcached slabs hold freed items until reuse and memory
is measured before reclamation.
"""

from __future__ import annotations

from repro.core.interface import OpResult
from repro.core.striped import StripedStoreBase


class FSMem(StripedStoreBase):
    """Full-stripe-update baseline with deferred garbage collection."""

    name = "fsmem"
    parity_in_dram = True

    def __init__(self, config):
        super().__init__(config)
        #: stripe id -> set of data chunk seq numbers replaced by updates
        self.stale_chunks: dict[int, set[int]] = {}
        self._stale_version_bytes = 0  # every superseded version, never reclaimed
        self.gc_total_s = 0.0
        self.gc_deferred_s = 0.0  # the finalize-time share (amortised by the harness)
        self.gc_chunk_reads = 0

    # ------------------------------------------------------------------ update

    def _update_impl(self, key: str, tombstone: bool) -> OpResult:
        cfg = self.cfg
        sid, seq, node_id, chunk, slot = self._locate(key)
        new_version, new_value, span, latency = self._begin_update(key, slot, tombstone)
        if sid is None:
            # object not sealed yet: replace it inside the open unit
            return self._overwrite_unsealed(
                key, node_id, chunk, slot, new_version, new_value, span, latency,
                read_old=False,
            )

        # full-stripe path: the new version enqueues toward a NEW stripe; the
        # old chunk is marked stale (and its bytes stay resident until GC)
        self.versions[key] = new_version
        new_node = self._select_queue(f"{key}#v{new_version}")
        latency += self._enqueue(key, new_node, new_value)
        self.cluster.dram_nodes[new_node].table.set(
            f"{key}@v{new_version}", cfg.value_size
        )
        put_s = self.net.parallel_puts([cfg.value_size], node_ids=[new_node])
        span.child("put_object", put_s, node=new_node)
        latency += put_s
        self.stale_chunks.setdefault(sid, set()).add(seq)
        self._stale_version_bytes += cfg.value_size
        seal_s = self._maybe_seal()
        if seal_s > 0:
            span.child("seal_stripe", seal_s)
        latency += seal_s
        self.tracer.finish(span, latency)
        return OpResult(latency_s=latency)

    # ---------------------------------------------------------------------- GC

    def _run_gc(self) -> float:
        """Re-encode every stripe holding stale chunks (Figure 1(b)/(c)).

        A stripe with m stale data chunks needs its k-m active chunks read
        back and a fresh parity set computed; a fully-replaced stripe is
        released without any reads.  Returns total GC seconds."""
        cfg = self.cfg
        total = 0.0
        for _sid, stale in sorted(self.stale_chunks.items()):
            m = len(stale)
            active = cfg.k - m
            if active > 0:
                # log-structured reclamation: read the live chunks back to the
                # proxy, re-encode, write the fresh parity set (live data
                # chunks are re-referenced into the new stripe node-locally)
                total += self.net.sequential_gets([cfg.chunk_size] * active)
                self.gc_chunk_reads += active
                total += cfg.profile.encode_s(cfg.k * cfg.chunk_size)
                total += self.net.parallel_puts([cfg.chunk_size] * cfg.r)
            self.counters.add("gc_stripes")
        self.stale_chunks.clear()
        self.gc_total_s += total
        return total

    def finalize(self) -> None:
        """Deferred GC: charge the whole-run re-computation cost."""
        if self.stale_chunks:
            self.gc_deferred_s += self._run_gc()
        super().finalize()

    # ------------------------------------------------------------------ metrics

    @property
    def stale_logical_bytes(self) -> int:
        """Bytes held by superseded object versions (Table 1's overhead).

        Every sealed update leaves its previous version resident, so this
        equals (#sealed updates) * value_size."""
        return self._stale_version_bytes

"""IPMem: Memcached + erasure coding with in-place parity updates (§6.1).

All k+r chunks of a stripe live on DRAM nodes.  An update reads the old data
chunk *and all r old parity chunks*, computes the parity deltas at the proxy
(Property 1), and writes everything back in place.  Those r parity reads are
exactly what LogECMem eliminates for the non-XOR parities.
"""

from __future__ import annotations

import numpy as np

from repro.core.interface import OpResult
from repro.core.striped import StripedStoreBase
from repro.ec.gf256 import gf_mul_scalar


class IPMem(StripedStoreBase):
    """In-place erasure-coded update baseline."""

    name = "ipmem"
    parity_in_dram = True

    def _update_impl(self, key: str, tombstone: bool) -> OpResult:
        cfg = self.cfg
        sid, seq, node_id, chunk, slot = self._locate(key)
        if not self._dram_reachable(node_id):
            from repro.core.striped import ChunkUnavailableError

            raise ChunkUnavailableError(
                f"cannot update {key!r}: its node {node_id} is down or "
                f"unreachable (repair first)"
            )
        new_version = self.versions[key] + 1
        new_value = (
            np.zeros(slot.phys_length, dtype=np.uint8)
            if tombstone
            else self._new_value(key, new_version)
        )
        span = self.tracer.start("update", key=key)
        latency = self.net.client_hop(64 + cfg.value_size)
        span.child("client_hop", latency)
        if sid is None:
            chunk.write_slot(slot, new_value)
            self.versions[key] = new_version
            get_s = self.net.sequential_gets([cfg.value_size], node_ids=[node_id])
            span.child("read_old", get_s, node=node_id)
            put_s = self.net.parallel_puts([cfg.value_size], node_ids=[node_id])
            span.child("put_object", put_s, node=node_id)
            latency += get_s + put_s
            self.tracer.finish(span, latency)
            return OpResult(latency_s=latency)

        client_s = latency
        rec = self.stripe_index.get(sid)
        parity_nodes = rec.chunk_nodes[cfg.k :]

        # read old data chunk object and ALL r old parity chunks
        old = chunk.read_slot(slot).copy()
        reads_s = self.net.sequential_gets(
            [cfg.value_size] + [cfg.chunk_size] * cfg.r,
            node_ids=[node_id] + parity_nodes,
        )
        span.child("read_old_parities", reads_s, node=node_id)
        self.counters.add("parity_chunk_reads", cfg.r)

        # deltas for every parity at the proxy, then in-place writes
        delta = old ^ new_value
        compute_s = cfg.profile.encode_s((1 + cfg.r) * cfg.value_size)
        span.child("encode_delta", compute_s)
        chunk.write_slot(slot, new_value)
        self._set_checksum(sid, seq, chunk.buffer)
        for j in range(cfg.r):
            parity = self.parity_chunks[(sid, j)]
            coeff = self.code.coefficient(j, seq)
            parity[slot.phys_offset : slot.phys_end] ^= gf_mul_scalar(coeff, delta)
            self._set_checksum(sid, cfg.k + j, parity)
        writes_s = self.net.parallel_puts(
            [cfg.value_size] + [cfg.chunk_size] * cfg.r,
            node_ids=[node_id] + parity_nodes,
        )
        span.child("ship_delta", writes_s, fanout=1 + cfg.r)
        self.versions[key] = new_version
        latency = client_s + reads_s + compute_s + writes_s
        self.tracer.finish(span, latency)
        return OpResult(latency_s=latency)

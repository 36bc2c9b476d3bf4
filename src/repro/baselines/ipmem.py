"""IPMem: Memcached + erasure coding with in-place parity updates (§6.1).

All k+r chunks of a stripe live on DRAM nodes.  An update reads the old data
chunk *and all r old parity chunks*, computes the parity deltas at the proxy
(Property 1), and writes everything back in place.  Those r parity reads are
exactly what LogECMem eliminates for the non-XOR parities.
"""

from __future__ import annotations

from repro.core.interface import OpResult
from repro.core.striped import StripedStoreBase


class IPMem(StripedStoreBase):
    """In-place erasure-coded update baseline."""

    name = "ipmem"
    parity_in_dram = True

    def _update_impl(self, key: str, tombstone: bool) -> OpResult:
        cfg = self.cfg
        sid, seq, node_id, chunk, slot = self._locate(key)
        self._require_reachable(key, node_id, "its node")
        version, value, span, client_s = self._begin_update(key, slot, tombstone)
        if sid is None:
            return self._overwrite_unsealed(
                key, node_id, chunk, slot, version, value, span, client_s
            )
        parity_nodes = self.stripe_index.get(sid).chunk_nodes[cfg.k :]

        # read old data chunk object and ALL r old parity chunks
        reads_s = self.net.sequential_gets(
            [cfg.value_size] + [cfg.chunk_size] * cfg.r,
            node_ids=[node_id] + parity_nodes,
        )
        span.child("read_old_parities", reads_s, node=node_id)
        self.counters.add("parity_chunk_reads", cfg.r)

        # deltas for every parity at the proxy, then in-place writes
        compute_s = cfg.profile.encode_s((1 + cfg.r) * cfg.value_size)
        span.child("encode_delta", compute_s)
        self._patch_in_place(sid, seq, chunk, slot, version, value, range(cfg.r))
        writes_s = self.net.parallel_puts(
            [cfg.value_size] + [cfg.chunk_size] * cfg.r,
            node_ids=[node_id] + parity_nodes,
        )
        span.child("ship_delta", writes_s, fanout=1 + cfg.r)
        self.versions[key] = version
        latency = client_s + reads_s + compute_s + writes_s
        self.tracer.finish(span, latency)
        return OpResult(latency_s=latency)

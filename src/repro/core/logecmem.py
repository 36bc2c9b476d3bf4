"""LogECMem: the HybridPL architecture as a KV store (§3-§5).

Layout (Figure 5): ``k+1`` DRAM nodes hold all data chunks and the XOR parity
chunk of every stripe; ``r-1`` log nodes hold the remaining parity chunks and
their delta logs.  Updates follow the workflow of Figure 7:

1. look up Stripe ID / sequence number / offset / length in the Object Index;
2. read the old object and the XOR parity chunk (the only parity read);
3. compute the delta, update the data chunk and XOR parity in place, and
   broadcast the *data delta* to every log node;
4. each log node derives its parity delta locally (Property 1) and buffers it
   (buffer logging) -- the update completes on DRAM acknowledgements.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import StoreConfig
from repro.core.interface import OpResult, StoreUnavailableError
from repro.core.striped import StripedStoreBase
from repro.ec.delta import ParityDelta
from repro.ec.gf256 import gf_mul_scalar
from repro.logstore.records import LogRecord


class LogECMem(StripedStoreBase):
    """Erasure-coded in-memory KV store with hybrid parity logging."""

    name = "logecmem"
    parity_in_dram = False

    def __init__(self, config: StoreConfig):
        if config.r < 2:
            raise ValueError("LogECMem needs r >= 2 (one XOR parity + logged parities)")
        super().__init__(config)

    # ------------------------------------------------------------------ layout

    def _node_counts(self) -> tuple[int, int]:
        return self.cfg.k + 1, self.cfg.n_log_nodes

    def _seal_possible(self) -> bool:
        """k data nodes + 1 XOR node in DRAM, plus at least one log node."""
        return (
            len(self.cluster.alive_dram_ids()) >= self.cfg.k + 1
            and len(self.cluster.alive_log_ids()) >= 1
        )

    def _place_parities(self, stripe_id: int, data_nodes: list[str]) -> list[str]:
        # XOR parity -> an alive DRAM node without a data chunk of this stripe
        candidates = [
            nid for nid in self.cluster.alive_dram_ids() if nid not in data_nodes
        ]
        if not candidates:
            raise StoreUnavailableError(
                f"stripe {stripe_id}: no DRAM node free for the XOR parity"
            )
        xor_node = candidates[stripe_id % len(candidates)]
        # logged parities rotate over the alive, reachable log nodes
        log_ids = [
            nid for nid in self.cluster.alive_log_ids() if self.net.reachable(nid)
        ]
        if not log_ids:
            raise StoreUnavailableError(
                f"stripe {stripe_id}: no alive log node for parities"
            )
        logged = [log_ids[(stripe_id + j) % len(log_ids)] for j in range(self.cfg.r - 1)]
        return [xor_node] + logged

    def _store_parities(
        self, stripe_id: int, parity_nodes: list[str], parities: np.ndarray
    ) -> float:
        cfg = self.cfg
        # XOR parity: a DRAM item, in-place updatable
        self.cluster.dram_nodes[parity_nodes[0]].table.set(
            f"stripe:{stripe_id}:p0", cfg.chunk_size
        )
        self.parity_chunks[(stripe_id, 0)] = parities[0].copy()
        # logged parities: buffered at their log nodes (fast write, §4.1)
        stall = 0.0
        now = self.cluster.clock.now
        for j in range(1, cfg.r):
            node = self.cluster.log_nodes[parity_nodes[j]]
            rec = LogRecord.for_chunk(stripe_id, j, parities[j], cfg.chunk_size)
            stall = max(stall, node.append(rec, now))
        return stall

    # ------------------------------------------------------------------ update

    def _require_update_nodes(self, key: str, sid: int | None, node_id: str) -> None:
        """In-place update needs the object's home node and the XOR parity
        node; until they are repaired the update cannot land (reads still
        degrade fine)."""
        from repro.core.striped import ChunkUnavailableError

        if not self._dram_reachable(node_id):
            raise ChunkUnavailableError(
                f"cannot update {key!r}: its node {node_id} is down or "
                f"unreachable (repair first)"
            )
        if sid is not None:
            xor_node = self.stripe_index.get(sid).xor_parity_node()
            if not self._dram_reachable(xor_node):
                raise ChunkUnavailableError(
                    f"cannot update {key!r}: XOR parity node {xor_node} is down "
                    f"or unreachable"
                )

    def _update_impl(self, key: str, tombstone: bool) -> OpResult:
        cfg = self.cfg
        sid, seq, node_id, chunk, slot = self._locate(key)
        self._require_update_nodes(key, sid, node_id)
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
            # stripe not sealed yet: plain in-place object overwrite
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
        xor_node = rec.chunk_nodes[cfg.k]

        # (1)-(2): metadata lookup, then read old object + XOR parity chunk
        old = chunk.read_slot(slot).copy()
        reads_s = self.net.sequential_gets(
            [cfg.value_size, cfg.chunk_size], node_ids=[node_id, xor_node]
        )
        span.child("read_old_xor", reads_s, node=node_id, xor_node=xor_node)
        self.counters.add("parity_chunk_reads")

        # (3): delta, in-place data + XOR parity update
        delta = old ^ new_value
        compute_s = cfg.profile.encode_s(2 * cfg.value_size)
        span.child("encode_delta", compute_s)
        chunk.write_slot(slot, new_value)
        xor = self.parity_chunks[(sid, 0)]
        xor[slot.phys_offset : slot.phys_end] ^= delta
        self._set_checksum(sid, seq, chunk.buffer)
        self._set_checksum(sid, cfg.k, xor)

        # (3)-(5): fan out new object + new XOR parity + data delta broadcast;
        # only reachable, alive log nodes receive their delta -- the others
        # are flagged for recovery and cost nothing on the write path
        log_parity_nodes = rec.chunk_nodes[cfg.k + 1 :]
        deliverable: list[tuple[int, str]] = []
        for j, nid in enumerate(log_parity_nodes, start=1):
            log_node = self.cluster.log_nodes[nid]
            if not log_node.alive or not self.net.reachable(nid):
                # the delta cannot be delivered; the node's persisted parity
                # goes stale and must be rebuilt (recover_log_node) before
                # any repair reads it -- the chaos harness schedules that
                if not log_node.needs_recovery:
                    log_node.needs_recovery = True
                    self.cluster.journal.emit(
                        "stale_mark", node=nid, reason="missed_delta", stripe=sid
                    )
                self.counters.add("parity_deltas_skipped")
                continue
            deliverable.append((j, nid))
        writes_s = self.net.parallel_puts(
            [cfg.value_size, cfg.chunk_size] + [cfg.value_size] * len(deliverable),
            node_ids=[node_id, xor_node] + [nid for _, nid in deliverable],
        )
        span.child("ship_delta", writes_s, fanout=2 + len(deliverable))
        stall_s = 0.0
        now = self.cluster.clock.now
        for j, nid in deliverable:
            coeff = self.code.coefficient(j, seq)
            pd = ParityDelta(
                stripe_id=sid,
                parity_index=j,
                offset=slot.phys_offset,
                payload=gf_mul_scalar(coeff, delta),
                seq=new_version,
            )
            stall_s = max(
                stall_s,
                self.cluster.log_nodes[nid].append(
                    LogRecord.for_delta(pd, cfg.value_size), now
                ),
            )
            self.counters.add("parity_deltas_sent")
        span.child("log_ack", stall_s)
        self.versions[key] = new_version
        latency = client_s + reads_s + compute_s + writes_s + stall_s
        self.tracer.finish(span, latency)
        return OpResult(latency_s=latency)

    # --------------------------------------------------------------- repair I/O

    def _fetch_logged_parities(
        self, sid: int, needed: int, exclude: set[int]
    ) -> tuple[float, dict[int, np.ndarray]]:
        """Read up-to-date non-XOR parities from log nodes (§5.2).

        Cost per parity: one RPC to the log node plus its scheme-dependent
        disk work to materialise base chunk + deltas.  A log node only
        qualifies when the proxy can actually reach it *and* its parities
        are current: a node behind a partitioned link, or one marked
        ``needs_recovery`` (it missed parity deltas while down/partitioned),
        would hand back stale bytes that decode to a wrong-but-acked value."""
        cfg = self.cfg
        rec = self.stripe_index.get(sid)
        now = self.cluster.clock.now
        latency = 0.0
        out: dict[int, np.ndarray] = {}
        for j in range(1, cfg.r):
            if len(out) >= needed:
                break
            gi = cfg.k + j
            if gi in exclude:
                continue
            nid = rec.chunk_nodes[gi]
            node = self.cluster.log_nodes[nid]
            if not node.alive or not self.net.reachable(nid) or node.needs_recovery:
                continue
            result = node.read_uptodate_parity(
                sid, j, cfg.phys_chunk_size(), now
            )
            latency += self.net.rpc_to(nid, 64, cfg.chunk_size) + result.duration_s
            latency += cfg.profile.node_service_s
            self.counters.add("logged_parity_reads")
            self.counters.add("logged_parity_disk_reads", result.disk_reads)
            out[gi] = result.payload
        return latency, out

    def uptodate_logged_parity(self, sid: int, j: int) -> np.ndarray:
        """Test hook: materialised parity j (>=1) of a stripe, no cost model."""
        rec = self.stripe_index.get(sid)
        node = self.cluster.log_nodes[rec.chunk_nodes[self.cfg.k + j]]
        return node.read_uptodate_parity(
            sid, j, self.cfg.phys_chunk_size(), self.cluster.clock.now
        ).payload

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

Steps 1-3 are :class:`~repro.core.striped.StripedStoreBase` helpers shared
with IPMem; steps 3-5 are :meth:`LogECMem._broadcast_delta`.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import StoreConfig
from repro.core.interface import OpResult, StoreUnavailableError
from repro.core.striped import StripedStoreBase
from repro.ec.delta import DeltaRecord, ParityDelta
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

    def _update_impl(self, key: str, tombstone: bool) -> OpResult:
        cfg = self.cfg
        sid, seq, node_id, chunk, slot = self._locate(key)
        # in-place update needs the object's home node and the XOR parity node
        self._require_reachable(key, node_id, "its node")
        if sid is not None:
            xor_node = self.stripe_index.get(sid).xor_parity_node()
            self._require_reachable(key, xor_node, "XOR parity node")
        version, value, span, client_s = self._begin_update(key, slot, tombstone)
        if sid is None:
            return self._overwrite_unsealed(
                key, node_id, chunk, slot, version, value, span, client_s
            )

        # (1)-(2): metadata lookup, then read old object + XOR parity chunk
        reads_s = self.net.sequential_gets(
            [cfg.value_size, cfg.chunk_size], node_ids=[node_id, xor_node]
        )
        span.child("read_old_xor", reads_s, node=node_id, xor_node=xor_node)
        self.counters.add("parity_chunk_reads")

        # (3): delta, in-place data + XOR parity update
        compute_s = cfg.profile.encode_s(2 * cfg.value_size)
        span.child("encode_delta", compute_s)
        record = self._patch_in_place(sid, seq, chunk, slot, version, value, (0,))

        # (3)-(5): fan out new object + new XOR parity + data delta broadcast
        writes_s, stall_s, fanout = self._ship_delta(
            key, tombstone, record, [cfg.value_size, cfg.chunk_size], [node_id, xor_node]
        )
        span.child("ship_delta", writes_s, fanout=2 + fanout)
        span.child("log_ack", stall_s)
        self.versions[key] = version
        latency = client_s + reads_s + compute_s + writes_s + stall_s
        self.tracer.finish(span, latency)
        return OpResult(latency_s=latency)

    def _ship_delta(
        self, key: str, tombstone: bool, record: DeltaRecord, dram_sizes, dram_nodes
    ) -> tuple[float, float, int]:
        """Where an update's data delta leaves the proxy, right after the
        in-place patch; AdaptiveLogECMem holds hot keys' deltas back here."""
        return self._broadcast_delta(record, self.cfg.value_size, dram_sizes, dram_nodes)

    def _broadcast_delta(
        self, record: DeltaRecord, logical_nbytes: int, dram_sizes=(), dram_nodes=()
    ) -> tuple[float, float, int]:
        """Figure 7 steps 3-5: one parallel put carries the DRAM writes and
        the data delta to every log node of the stripe; each log node derives
        its own parity delta (Property 1) and buffers it.

        Only alive, reachable log nodes receive the delta and cost anything
        on the write path.  The others' persisted parity goes stale: they are
        marked ``needs_recovery`` (one ``stale_mark`` event per node, which
        opens the heal plane's ``stale_parity`` incident) and must be rebuilt
        by ``recover_log_node`` before any repair reads them.

        Returns (put seconds, log-ack stall seconds, log nodes reached)."""
        sid, k = record.stripe_id, self.cfg.k
        rec = self.stripe_index.get(sid)
        deliverable: list[tuple[int, str]] = []
        for j, nid in enumerate(rec.chunk_nodes[k + 1 :], start=1):
            log_node = self.cluster.log_nodes[nid]
            if log_node.alive and self.net.reachable(nid):
                deliverable.append((j, nid))
                continue
            if not log_node.needs_recovery:
                log_node.needs_recovery = True
                self.cluster.journal.emit(
                    "stale_mark", node=nid, reason="missed_delta", stripe=sid
                )
            self.counters.add("parity_deltas_skipped")
        reached = len(deliverable)
        writes_s = self.net.parallel_puts(
            [*dram_sizes, *[logical_nbytes] * reached],
            node_ids=[*dram_nodes, *[nid for _, nid in deliverable]],
        )
        stall_s = 0.0
        now = self.cluster.clock.now
        log_nodes = self.cluster.log_nodes
        coefficients = self.code.coefficients
        for j, nid in deliverable:
            delta = ParityDelta.from_data_delta(
                record, j, coefficients[j][record.data_index]
            )
            stall = log_nodes[nid].append(LogRecord(sid, j, logical_nbytes, delta=delta), now)
            if stall > stall_s:
                stall_s = stall
        if reached:
            self.counters.add("parity_deltas_sent", reached)
        return writes_s, stall_s, reached

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

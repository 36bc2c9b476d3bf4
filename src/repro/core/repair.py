"""Failure repair for LogECMem (§5).

* Multi-chunk-failure degraded reads are part of
  :meth:`repro.core.striped.StripedStoreBase.degraded_read` (they escalate to
  logged parities); Experiment 6 drives them directly.
* This module implements whole-node repair (§5.3).  The prototype repairs a
  node by running one degraded read per lost chunk -- k synchronous chunk
  GETs -- across :data:`REPAIR_STREAMS` parallel repair streams.  With
  **log-assist**, each stripe substitutes one logged parity for one DRAM
  chunk: the log nodes *pre-repair* their up-to-date parities during the
  failure-detection window (§3.1's 30-minute trigger time) using otherwise
  idle disk/NIC bandwidth, so at repair time the parity arrives in parallel
  with the k-1 serial DRAM GETs and drops one GET from every stripe's
  critical path.  The gain is therefore ~k/(k-1), largest for small k --
  matching Figure 15's trend.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.interface import DataLossError
from repro.core.logecmem import LogECMem

#: stripe repairs in flight concurrently: a repair's wall time is its serial
#: fetch + decode time over this, with and without log-assist alike
REPAIR_STREAMS = 64


@dataclass
class NodeRepairResult:
    """Outcome of repairing one failed DRAM node."""

    node_id: str
    repair_time_s: float
    stripes_repaired: int
    chunks_repaired: int
    bytes_repaired: int            # logical bytes rebuilt onto the new node
    log_assisted_stripes: int      # stripes that pulled a parity from a log node
    dram_chunk_fetches: int
    log_parity_fetches: int
    #: disk seconds the log nodes spent pre-repairing parities (must fit in
    #: the detection window; recorded for the ablation/report)
    log_prepair_s: float = 0.0
    detection_window_s: float = 30 * 60

    @property
    def throughput_GiB_per_min(self) -> float:
        if self.repair_time_s <= 0:
            return 0.0
        return (self.bytes_repaired / (1 << 30)) / (self.repair_time_s / 60.0)


def repair_node(
    store: LogECMem,
    node_id: str,
    log_assist: bool = True,
) -> NodeRepairResult:
    """Rebuild every chunk the failed DRAM node held (§5.3).

    The node must already be failed (``store.cluster.kill``).  Log buffers
    are settled first so logged parities are readable from disk state.
    """
    cfg = store.cfg
    cluster = store.cluster
    if node_id not in cluster.dram_nodes:
        raise KeyError(f"{node_id!r} is not a DRAM node")
    if cluster.dram_nodes[node_id].alive:
        raise ValueError(f"node {node_id!r} is alive; kill it before repairing")
    cluster.settle_logs()

    p = cfg.profile
    net = cluster.network
    chunk = cfg.chunk_size
    # one synchronous chunk GET on the repair path (same cost model as
    # NetworkModel.sequential_gets, without polluting run counters)
    get_s = p.rtt_s + p.transfer_s(64 + chunk) + p.rpc_overhead_s + p.node_service_s
    decode_s = p.encode_s(cfg.k * chunk)

    stripes = store.stripe_index.stripes_on_node(node_id)
    cluster.journal.emit(
        "repair_start",
        node=node_id,
        stripes=len(stripes),
        log_assist=log_assist,
        streams=REPAIR_STREAMS,
    )
    span = store.tracer.start("repair", node=node_id, log_assist=log_assist)
    fetch_serial_s = 0.0
    decode_serial_s = 0.0
    chunks = 0
    assisted = 0
    dram_fetches = 0
    log_fetches = 0
    prepair_s = 0.0
    now = cluster.clock.now

    for sid in stripes:
        rec = store.stripe_index.get(sid)
        lost = rec.chunks_on_node(node_id)
        # a log parity only assists when its node is up, reachable, and not
        # stale (needs_recovery: it missed deltas and would serve wrong bytes)
        alive_logged = [
            j
            for j in range(1, cfg.r)
            if (log_node := cluster.log_nodes.get(rec.chunk_nodes[cfg.k + j]))
            is not None
            and log_node.alive
            and net.reachable(rec.chunk_nodes[cfg.k + j])
            and not log_node.needs_recovery
        ]
        for gi in lost:
            # a survivor must be alive AND reachable -- a partitioned node
            # cannot serve repair GETs any more than client reads
            survivor_ids = [
                rec.chunk_nodes[i]
                for i in range(cfg.k + 1)
                if i != gi
                and rec.chunk_nodes[i] in cluster.dram_nodes
                and cluster.dram_nodes[rec.chunk_nodes[i]].alive
                and net.reachable(rec.chunk_nodes[i])
            ]
            if len(survivor_ids) + len(alive_logged) < cfg.k:
                raise DataLossError(
                    f"stripe {sid}: cannot gather k={cfg.k} chunks to repair {gi}"
                )
            # fetch from the fastest survivors first (deterministic: sorted
            # by slowdown factor, node id breaking ties); slowed nodes
            # stretch their GETs like any other exchange
            factors = sorted(
                (net.node_slowdown(nid), nid) for nid in survivor_ids
            )
            use_assist = (
                log_assist and alive_logged and len(survivor_ids) >= cfg.k - 1
            )
            if use_assist:
                j = alive_logged[0]
                nid = rec.chunk_nodes[cfg.k + j]
                node = cluster.log_nodes[nid]
                # pre-repair: the log node materialises the parity ahead of
                # time; its disk cost happened inside the detection window
                region = node.scheme.region(sid, j)
                region_bytes = max(chunk, region.logical_bytes)
                prepair_s += (
                    p.disk_io_overhead_s + region_bytes / p.disk_seq_bandwidth_Bps
                )
                # parity transfer overlaps the k-1 serial DRAM GETs
                parity_s = (
                    p.rtt_s + p.transfer_s(64 + chunk) + p.node_service_s
                ) * net.node_slowdown(nid)
                gets = sum(f for f, _ in factors[: cfg.k - 1]) * get_s
                fetch_serial_s += max(gets, parity_s)
                assisted += 1
                dram_fetches += cfg.k - 1
                log_fetches += 1
            else:
                fs = [f for f, _ in factors[: cfg.k]]
                fs += [1.0] * (cfg.k - len(fs))  # remainder from log nodes
                fetch_serial_s += sum(fs) * get_s
                dram_fetches += cfg.k
            decode_serial_s += decode_s
            chunks += 1

    repair_time = (fetch_serial_s + decode_serial_s) / REPAIR_STREAMS
    span.child("fetch_chunks", fetch_serial_s / REPAIR_STREAMS, chunks=chunks)
    span.child("decode", decode_serial_s / REPAIR_STREAMS)
    store.counters.add("node_repairs")
    store.counters.add("node_repair_chunks", chunks)
    result = NodeRepairResult(
        node_id=node_id,
        repair_time_s=repair_time,
        stripes_repaired=len(stripes),
        chunks_repaired=chunks,
        bytes_repaired=chunks * chunk,
        log_assisted_stripes=assisted,
        dram_chunk_fetches=dram_fetches,
        log_parity_fetches=log_fetches,
        log_prepair_s=prepair_s,
    )
    store.tracer.finish(span, repair_time)
    cluster.clock.advance_to(now + repair_time)
    # emitted after advance_to so the event's timestamp is the completion time
    cluster.journal.emit(
        "repair_done",
        node=node_id,
        stripes=result.stripes_repaired,
        chunks=result.chunks_repaired,
        log_assisted=result.log_assisted_stripes,
        repair_time_s=repair_time,
    )
    return result

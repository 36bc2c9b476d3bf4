"""Log-node crash consistency (§3.3.2).

Buffer logging acknowledges updates once the parity delta sits in the log
node's DRAM buffer; the paper notes the scheme "need[s] to maintain the crash
consistency that can reconstruct the data from the disk logs when buffers
crash".  This module implements that reconstruction:

* :func:`crash_log_node` drops a log node's DRAM buffer -- everything
  unflushed is lost; the persisted log remains valid but *stale*;
* :func:`recover_log_node` brings the node back to consistency: for every
  stripe parity the node owns, the proxy re-derives the up-to-date parity
  from the DRAM-resident data chunks (which in-place update keeps current)
  and writes a fresh base record, superseding the stale log state.

Recovery costs are charged through the normal models (data chunk reads,
encode work, sequential log writes), so the drill is measurable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.node import LogNode
from repro.core.logecmem import LogECMem
from repro.logstore.records import LogRecord


def crash_log_node(node: LogNode) -> int:
    """Power-loss at a log node: the DRAM buffer (and, for PLM, nothing else
    -- staging is already on disk) is lost.  Returns records dropped."""
    lost = len(node.buffer.drain())
    node.sync_flush_stalls = 0
    return lost


@dataclass
class RecoveryReport:
    """Outcome of recovering one crashed log node."""

    node_id: str
    parities_rebuilt: int
    chunk_reads: int
    duration_s: float
    lost_records: int


def recover_log_node(
    store: LogECMem, node_id: str, lost_records: int = 0
) -> RecoveryReport:
    """Rebuild a crashed log node's parities from DRAM state (§3.3.2).

    Every (stripe, parity) the node owns is re-encoded from the stripe's k
    data chunks and persisted as a fresh base record; stale deltas on disk
    are superseded (dropped) so subsequent repairs read one clean chunk.
    """
    cfg = store.cfg
    node = store.cluster.log_nodes.get(node_id)
    if node is None:
        raise KeyError(f"{node_id!r} is not a log node")
    duration = 0.0
    rebuilt = 0
    reads = 0
    now = store.cluster.clock.now
    for sid in store.stripe_index.stripes_on_node(node_id):
        rec = store.stripe_index.get(sid)
        fresh = store.fresh_parities(sid)
        for j in range(1, cfg.r):
            if rec.chunk_nodes[cfg.k + j] != node_id:
                continue
            duration += store.net.sequential_gets([cfg.chunk_size] * cfg.k)
            reads += cfg.k
            duration += cfg.profile.encode_s(cfg.k * cfg.chunk_size)
            node.drop_stripe_parity(sid, j)  # supersede the stale log state
            duration += node.scheme.flush(
                [LogRecord.for_chunk(sid, j, fresh[j], cfg.chunk_size)], now
            )
            rebuilt += 1
    node.restore(store.cluster.clock.now)
    was_stale = node.needs_recovery
    node.needs_recovery = False
    store.counters.add("log_node_recoveries")
    store.cluster.journal.emit(
        "stale_recover",
        node=node_id,
        parities_rebuilt=rebuilt,
        was_stale=was_stale,
        duration_s=duration,
        lost_records=lost_records,
    )
    return RecoveryReport(
        node_id=node_id,
        parities_rebuilt=rebuilt,
        chunk_reads=reads,
        duration_s=duration,
        lost_records=lost_records,
    )

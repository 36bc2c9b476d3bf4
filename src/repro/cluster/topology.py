"""Cluster assembly and failure injection.

A :class:`Cluster` owns the simulated machines of one experiment run: DRAM
nodes, log nodes, the shared clock, the network model and the global
counters.  Stores (LogECMem and the baselines) build their placement on top
of it; experiments inject failures through :meth:`Cluster.kill`.
"""

from __future__ import annotations

from repro.cluster.hashring import ConsistentHashRing
from repro.cluster.node import DRAMNode, LogNode, Node
from repro.obs.events import EventJournal
from repro.sim.clock import SimClock
from repro.sim.disk import DiskStats
from repro.sim.network import NetworkModel
from repro.sim.params import HardwareProfile
from repro.sim.resources import Counters


class UnknownNodeError(KeyError):
    """Lookup of a node id the cluster does not contain."""


class Cluster:
    """The simulated testbed for one run."""

    def __init__(
        self,
        profile: HardwareProfile | None = None,
        n_dram: int = 1,
        n_log: int = 0,
        scheme: str = "plm",
        bytes_scale: float = 1.0,
        merge_buffer: bool = True,
    ):
        if n_dram < 1:
            raise ValueError("need at least one DRAM node")
        self.profile = profile or HardwareProfile()
        self.clock = SimClock()
        self.counters = Counters()
        #: cluster-wide flight recorder, stamped from this cluster's clock
        self.journal = EventJournal(self.clock, self.counters)
        self.network = NetworkModel(self.profile, self.counters)
        self.dram_nodes: dict[str, DRAMNode] = {}
        self.log_nodes: dict[str, LogNode] = {}
        for i in range(n_dram):
            nid = f"dram{i}"
            self.dram_nodes[nid] = DRAMNode(nid)
        for i in range(n_log):
            nid = f"log{i}"
            self.log_nodes[nid] = LogNode(
                nid,
                self.profile,
                scheme=scheme,
                bytes_scale=bytes_scale,
                merge_buffer=merge_buffer,
                journal=self.journal,
                counters=self.counters,
            )
        # the node sets are fixed from here on: sort their ids once
        self._dram_ids = tuple(sorted(self.dram_nodes))
        self._log_ids = tuple(sorted(self.log_nodes))
        self.ring = ConsistentHashRing(list(self._dram_ids))

    # -- lookup ----------------------------------------------------------------

    def node(self, node_id: str) -> Node:
        if node_id in self.dram_nodes:
            return self.dram_nodes[node_id]
        if node_id in self.log_nodes:
            return self.log_nodes[node_id]
        known = self.dram_ids() + self.log_ids()
        raise UnknownNodeError(f"unknown node {node_id!r}; cluster has {known}")

    def dram_ids(self) -> list[str]:
        return list(self._dram_ids)

    def log_ids(self) -> list[str]:
        return list(self._log_ids)

    def alive_dram_ids(self) -> list[str]:
        return [nid for nid in self._dram_ids if self.dram_nodes[nid].alive]

    def alive_log_ids(self) -> list[str]:
        return [nid for nid in self._log_ids if self.log_nodes[nid].alive]

    # -- failure injection -------------------------------------------------------

    def kill(self, node_id: str, now: float | None = None) -> bool:
        """Fail a node (contents become unavailable, not erased -- the repair
        paths must not peek at them; tests enforce this via the alive flag).

        The transition is stamped with ``now`` (default: the cluster clock)
        for downtime accounting; returns False if the node was already down.
        """
        return self.node(node_id).fail(self.clock.now if now is None else now)

    def restore(self, node_id: str, now: float | None = None) -> bool:
        """Bring a node back; stamps the transition for downtime accounting.

        Returns False if the node was already alive."""
        return self.node(node_id).restore(self.clock.now if now is None else now)

    def downtime_s(self, node_id: str) -> float:
        """Accumulated downtime of one node up to the cluster clock, open
        outage included."""
        return self.node(node_id).downtime_until(self.clock.now)

    def availability(self) -> float:
        """Fraction of node-seconds the cluster spent alive over [0, now] on
        the cluster clock."""
        t = self.clock.now
        if t <= 0:
            return 1.0
        nodes = list(self.dram_nodes.values()) + list(self.log_nodes.values())
        down = sum(n.downtime_until(t) for n in nodes)
        return max(0.0, 1.0 - down / (len(nodes) * t))

    # -- aggregate metrics ---------------------------------------------------------

    @property
    def dram_logical_bytes(self) -> int:
        """Total DRAM footprint across DRAM nodes (the paper's memory metric)."""
        return sum(n.logical_bytes for n in self.dram_nodes.values())

    def disk_stats(self) -> DiskStats:
        """Merged disk statistics across log nodes."""
        total = DiskStats()
        for node in self.log_nodes.values():
            s = node.disk.stats
            total.reads += s.reads
            total.writes += s.writes
            total.seeks += s.seeks
            total.read_bytes += s.read_bytes
            total.write_bytes += s.write_bytes
        return total

    def log_disk_logical_bytes(self) -> int:
        """Total live logical bytes on log-node disks across the cluster."""
        return sum(n.scheme.disk_logical_bytes for n in self.log_nodes.values())

    def settle_logs(self) -> None:
        """Flush all log buffers and finish lazy merges (pre-repair barrier)."""
        for node in self.log_nodes.values():
            node.settle(self.clock.now)

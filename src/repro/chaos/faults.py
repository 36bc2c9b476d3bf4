"""Fault primitives: apply a :class:`FaultEvent` to the simulated machines.

The injector is the only piece of the chaos subsystem that writes fault
state: :class:`~repro.cluster.topology.Cluster` alive flags,
:class:`~repro.sim.network.NetworkModel` degradation,
:class:`~repro.sim.disk.DiskModel` stall windows, and a log node's crash
consistency (§3.3.2) -- a log-node crash or blip drops the volatile delta
buffer and marks the persisted log stale (``needs_recovery``) whoever applies
it.  Endings of self-healing faults go on a caller-supplied
:class:`~repro.sim.events.EventQueue`; repair and recovery, which need the
store, belong to the control plane (:mod:`repro.heal.plane`).
"""

from __future__ import annotations

from repro.chaos.schedule import FaultEvent, FaultKind
from repro.cluster.topology import Cluster
from repro.core.recovery import crash_log_node
from repro.obs.events import EventJournal
from repro.sim.events import EventQueue


def check_target(cluster: Cluster, event: FaultEvent) -> None:
    """Raise ``UnknownNodeError`` for an unknown target and ``ValueError``
    for a disk stall aimed at a node without a log disk."""
    nid = event.node_id
    cluster.node(nid)
    if event.kind is FaultKind.STALL and nid not in cluster.log_nodes:
        raise ValueError(f"stall fault targets a non-log node {nid!r}")


def emit_fault_inject(journal: EventJournal, event: FaultEvent) -> None:
    """The one ``fault_inject`` record, shared by every fault applicator."""
    journal.emit("fault_inject", kind=event.kind.value, node=event.node_id,
                 duration_s=event.duration_s, magnitude=event.magnitude)


class FaultInjector:
    """Applies fault events to a cluster and records an observable timeline."""

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        self.net = cluster.network
        self.journal = cluster.journal
        #: (sim time, human-readable description) of every state transition
        self.timeline: list[tuple[float, str]] = []
        self.applied: dict[str, int] = {}

    def note(self, when: float, text: str) -> None:
        """Record one timeline entry (the control plane's actions use this too)."""
        self.timeline.append((when, text))

    def apply(self, event: FaultEvent, now: float, restore_queue: EventQueue) -> bool:
        """Fire one fault at ``now``; transient ends go on ``restore_queue``.

        Returns whether the fault took effect: False only for a crash or blip
        of a node that is already down (a log node then emits nothing)."""
        check_target(self.cluster, event)
        nid, kind = event.node_id, event.kind
        self.applied[kind.value] = self.applied.get(kind.value, 0) + 1
        log_node = self.cluster.log_nodes.get(nid)
        down = kind in (FaultKind.CRASH, FaultKind.BLIP)
        if down and not self.cluster.kill(nid, now=now):
            if log_node is None:
                emit_fault_inject(self.journal, event)
            self.note(now, f"{kind.value} {nid} (already down)")
            return False
        emit_fault_inject(self.journal, event)

        if down and log_node is not None:
            # a log node's crash-restart: the DRAM buffer is lost, the
            # persisted log survives but is stale until recovery rebuilds it
            lost = crash_log_node(log_node)
            if not log_node.needs_recovery:
                self.journal.emit(
                    "stale_mark", node=nid, reason="buffer_lost", records_lost=lost
                )
            log_node.needs_recovery = True
            self.note(now, f"{kind.value} {nid} (buffer lost: {lost} records)")
        elif kind is FaultKind.CRASH:
            self.note(now, f"crash {nid}")
        elif kind is FaultKind.BLIP:
            # a DRAM node drops out and comes back with its state intact
            self.note(now, f"blip {nid} down")
            restore_queue.schedule(
                now + event.duration_s, lambda t, n=nid: self._restore_node(n, t)
            )
        elif kind is FaultKind.STALL:
            self.cluster.log_nodes[nid].disk.inject_stall(now, event.duration_s)
            self.note(now, f"disk stall {nid} {event.duration_s:g}s")
        elif kind is FaultKind.SLOW:
            self.net.set_node_slowdown(nid, event.magnitude)
            self.note(now, f"slow {nid} x{event.magnitude:g}")
            restore_queue.schedule(
                now + event.duration_s, lambda t, n=nid: self._end_slow(n, t)
            )
        else:
            self.net.set_link_down(nid)
            self.note(now, f"partition {nid}")
            restore_queue.schedule(
                now + event.duration_s, lambda t, n=nid: self._heal_partition(n, t)
            )
        return True

    # -- transient-fault endings ------------------------------------------------

    def _restore_node(self, nid: str, when: float) -> None:
        if self.cluster.restore(nid, now=when):
            self.note(when, f"blip {nid} restored")
            self.journal.emit("fault_heal", kind="blip", node=nid)

    def _end_slow(self, nid: str, when: float) -> None:
        self.net.clear_node_slowdown(nid)
        self.note(when, f"slow {nid} ended")
        self.journal.emit("fault_heal", kind="slow", node=nid)

    def _heal_partition(self, nid: str, when: float) -> None:
        self.net.restore_link(nid)
        self.note(when, f"partition {nid} healed")
        self.journal.emit("fault_heal", kind="partition", node=nid)

"""Network cost model.

Latency of a message = one-way propagation (``rtt_s``) + wire time
(bytes / bandwidth).  The two proxy behaviours the paper's prototype exhibits
are modelled explicitly:

* :meth:`NetworkModel.sequential_gets` -- libmemcached-style synchronous GETs,
  one full round trip per chunk read.  This is why parity *reads* dominate
  in-place update latency and why eliminating them (parity logging) pays.
* :meth:`NetworkModel.parallel_puts` -- fan-out writes that share one round
  trip; the proxy NIC serialises the outgoing payload bytes.
"""

from __future__ import annotations

from repro.sim.params import HardwareProfile
from repro.sim.resources import Counters


class LinkDownError(RuntimeError):
    """An exchange was attempted over a partitioned proxy<->node link."""


class NetworkModel:
    """Latency/byte accounting for proxy-centred message exchanges.

    Besides the cost primitives, the model carries per-node *degradation
    state* for fault injection: a latency multiplier (straggler/slow node)
    and a link-down flag (network partition between proxy and node).  The
    request paths consult this state to decide between the normal and the
    degraded path, and scale their per-node exchange times by the slowdown.
    """

    def __init__(self, profile: HardwareProfile, counters: Counters | None = None):
        self.profile = profile
        self.counters = counters if counters is not None else Counters()
        self._slowdowns: dict[str, float] = {}
        self._down_links: set[str] = set()

    # -- per-node degradation state ------------------------------------------

    def set_node_slowdown(self, node_id: str, factor: float) -> None:
        """Multiply all exchanges with ``node_id`` by ``factor`` (>= 1)."""
        if factor < 1.0:
            raise ValueError(f"slowdown factor must be >= 1, got {factor}")
        if factor == 1.0:
            self._slowdowns.pop(node_id, None)
        else:
            self._slowdowns[node_id] = factor

    def clear_node_slowdown(self, node_id: str) -> None:
        self._slowdowns.pop(node_id, None)

    def node_slowdown(self, node_id: str) -> float:
        return self._slowdowns.get(node_id, 1.0)

    def set_link_down(self, node_id: str) -> None:
        self._down_links.add(node_id)

    def restore_link(self, node_id: str) -> None:
        self._down_links.discard(node_id)

    def link_down(self, node_id: str) -> bool:
        return node_id in self._down_links

    def reachable(self, node_id: str) -> bool:
        return node_id not in self._down_links

    def rpc_to(self, node_id: str, request_bytes: int, response_bytes: int) -> float:
        """One request/response with ``node_id``, honouring degradation state."""
        if self.link_down(node_id):
            raise LinkDownError(f"link to {node_id} is partitioned")
        return self.rpc(request_bytes, response_bytes) * self.node_slowdown(node_id)

    # -- primitives ---------------------------------------------------------

    def rpc(self, request_bytes: int, response_bytes: int) -> float:
        """One synchronous request/response exchange."""
        p = self.profile
        nbytes = request_bytes + response_bytes
        self.counters.add_net(1, nbytes)
        return p.rtt_s + p.transfer_s(nbytes) + p.rpc_overhead_s

    # -- proxy access patterns ----------------------------------------------

    def _check_targets(self, sizes: list[int], node_ids: list[str] | None) -> float:
        """Validate per-exchange targets; returns the critical-path slowdown.

        ``node_ids`` (when given) names the destination of each exchange in
        ``sizes``.  A partitioned link fails the whole batch -- the proxy
        cannot complete the exchange -- and the slowest named node bounds the
        batch's critical path (for serial GETs the per-node factor is applied
        per exchange by the caller instead).  With no link down and no
        slowdown registered there is nothing to look up per node.
        """
        if node_ids is None:
            return 1.0
        if len(node_ids) != len(sizes):
            raise ValueError(
                f"node_ids ({len(node_ids)}) must match sizes ({len(sizes)})"
            )
        down = self._down_links
        if down:
            for nid in node_ids:
                if nid in down:
                    raise LinkDownError(f"link to {nid} is partitioned")
        slow = self._slowdowns
        if not slow:
            return 1.0
        return max((slow.get(nid, 1.0) for nid in node_ids), default=1.0)

    def sequential_gets(
        self, sizes: list[int], node_ids: list[str] | None = None
    ) -> float:
        """Synchronous GETs issued one after another (libmemcached pattern).

        Each read pays a full round trip, the response wire time, the proxy's
        per-RPC overhead, and the remote node's service time.  With
        ``node_ids`` each GET honours its target's degradation state: a
        slowed node stretches its own round trip, a partitioned link raises
        :class:`LinkDownError`.
        """
        service_s = self.profile.node_service_s
        self._check_targets(sizes, node_ids)
        slow = self._slowdowns
        total = 0.0
        if node_ids is None or not slow:  # every factor is 1.0, and x * 1.0 == x
            for nbytes in sizes:
                total += self.rpc(64, nbytes) + service_s
        else:
            for nid, nbytes in zip(node_ids, sizes):
                total += (self.rpc(64, nbytes) + service_s) * slow.get(nid, 1.0)
        self.counters.add("chunk_reads", len(sizes))
        return total

    def parallel_puts(
        self, sizes: list[int], node_ids: list[str] | None = None
    ) -> float:
        """Fan-out writes sharing one round trip.

        The proxy NIC serialises all outgoing payloads; remote service times
        overlap, so one node-service term remains on the critical path.  One
        per-RPC dispatch overhead is paid per destination (the proxy still
        serialises sends into the kernel).  With ``node_ids`` the slowest
        destination bounds the shared round trip (the fan-out completes when
        the last ACK arrives) and a partitioned destination fails the batch.
        """
        if not sizes:
            return 0.0
        p = self.profile
        factor = self._check_targets(sizes, node_ids)
        n = len(sizes)
        payload = sum(sizes)
        self.counters.add_net(n, payload + 64 * n)
        self.counters.add("chunk_writes", n)
        t = p.rtt_s + p.transfer_s(payload) + p.rpc_overhead_s * n + p.node_service_s
        return t * factor

    def client_hop(self, nbytes: int) -> float:
        """Client <-> proxy round trip carrying ``nbytes`` total.

        Pays the same per-RPC dispatch overhead (and counts toward
        ``net_rpcs``) as every other round trip -- the proxy parses and
        serialises the client's request like any other.
        """
        p = self.profile
        self.counters.add_net(1, nbytes)
        return p.rtt_s + p.transfer_s(nbytes) + p.rpc_overhead_s

"""(r+1)-way replication and vanilla Memcached (§6.1).

Replication tolerates r failures like a (k, r) code but stores r+1 full
copies.  Writes and updates fan out to every replica; degraded reads just
try the next replica, which is why the paper shows replication with the
lowest degraded latency and by far the highest memory overhead.

Vanilla Memcached is the same mechanism at one copy: the paper's lower-bound
baseline, fastest basic I/O because nothing is encoded or replicated, but a
failed node simply loses data.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.topology import Cluster
from repro.core.config import StoreConfig
from repro.core.interface import DataLossError, KVStore, OpResult
from repro.kvstore.chunk import make_value
from repro.obs import init_observability


class ReplicatedStore(KVStore):
    """Full-copy replication across r+1 nodes chosen on the hash ring."""

    name = "replication"
    #: copies per object; None = r + 1
    fixed_copies: int | None = None

    def __init__(self, config: StoreConfig):
        self.cfg = config
        self.copies = self.fixed_copies or config.r + 1
        self.cluster = Cluster(profile=config.profile, n_dram=config.n, n_log=0)
        if self.copies > config.n:
            raise ValueError(
                f"{self.copies}-way replication needs at least {self.copies} nodes"
            )
        self.net = self.cluster.network
        self.counters = self.cluster.counters
        self.versions: dict[str, int] = {}
        self.placement: dict[str, list[str]] = {}
        #: the current version's bytes, held proxy-side like the striped
        #: stores' ``data_chunks`` (memtables carry the memory accounting);
        #: one array stands for all r+1 identical copies
        self.values: dict[str, np.ndarray] = {}
        self._value_phys_len = max(1, round(config.value_size * config.payload_scale))
        init_observability(self)

    def _commit(self, key: str, replicas: list[str], version: int) -> None:
        """Make ``version`` the stored object on every replica.  Runs after
        the network was charged: a partitioned link raises out of
        ``parallel_puts`` and must leave the previous version (or absence)
        intact."""
        self.placement[key] = replicas
        self.versions[key] = version
        self.values[key] = make_value(key, version, self._value_phys_len)
        for nid in replicas:
            self.cluster.dram_nodes[nid].table.set(key, self.cfg.value_size)

    def _put(self, op: str, key: str, replicas: list[str]):
        """Span and cost of shipping one full object to ``replicas``."""
        span = self.tracer.start(op, key=key)
        client_s = self.net.client_hop(64 + self.cfg.value_size)
        span.child("client_hop", client_s)
        put_s = self.net.parallel_puts(
            [self.cfg.value_size] * self.copies, node_ids=replicas
        )
        span.child("put_replicas", put_s, fanout=self.copies)
        return span, client_s + put_s

    def write(self, key: str) -> OpResult:
        if key in self.versions:
            raise KeyError(f"object {key!r} already exists; use update()")
        replicas = self.cluster.ring.lookup_many(key, self.copies)
        span, latency = self._put("write", key, replicas)
        self._commit(key, replicas, 0)
        self.counters.add("op_write")
        self.tracer.finish(span, latency)
        return OpResult(latency_s=latency)

    def read(self, key: str) -> OpResult:
        if key not in self.versions:
            raise KeyError(f"object {key!r} does not exist")
        primary = self.placement[key][0]
        if not self.cluster.dram_nodes[primary].alive or not self.net.reachable(
            primary
        ):
            result = self.degraded_read(key)
            result.degraded = True
            return result
        span = self.tracer.start("read", key=key)
        client_s = self.net.client_hop(64 + self.cfg.value_size)
        span.child("client_hop", client_s)
        get_s = self.net.sequential_gets([self.cfg.value_size], node_ids=[primary])
        span.child("fetch_object", get_s, node=primary)
        self.counters.add("op_read")
        self.tracer.finish(span, client_s + get_s)
        return OpResult(latency_s=client_s + get_s, value=self.values[key].copy())

    def update(self, key: str) -> OpResult:
        if key not in self.versions:
            raise KeyError(f"object {key!r} does not exist")
        replicas = self.placement[key]
        span, latency = self._put("update", key, replicas)
        self._commit(key, replicas, self.versions[key] + 1)
        self.counters.add("op_update")
        self.tracer.finish(span, latency)
        return OpResult(latency_s=latency)

    def delete(self, key: str) -> OpResult:
        if key not in self.versions:
            raise KeyError(f"object {key!r} does not exist")
        replicas = self.placement[key]
        span = self.tracer.start("delete", key=key)
        client_s = self.net.client_hop(64)
        span.child("client_hop", client_s)
        put_s = self.net.parallel_puts([64] * self.copies, node_ids=replicas)
        span.child("put_tombstone", put_s, fanout=self.copies)
        for nid in replicas:
            self.cluster.dram_nodes[nid].table.delete(key)
        del self.versions[key], self.placement[key], self.values[key]
        self.counters.add("op_delete")
        self.tracer.finish(span, client_s + put_s)
        return OpResult(latency_s=client_s + put_s)

    def degraded_read(self, key: str) -> OpResult:
        """Failed GET on the primary, then a plain read from the next live
        replica -- no decoding, hence the paper's low degraded latency."""
        if key not in self.versions:
            raise KeyError(f"object {key!r} does not exist")
        span = self.tracer.start("degraded_read", key=key)
        latency = self.net.client_hop(64 + self.cfg.value_size)
        span.child("client_hop", latency)
        failed_s = self.net.rpc(64, 0)  # the failed attempt
        span.child("failed_attempt", failed_s)
        latency += failed_s
        for nid in self.placement[key][1:]:
            if self.cluster.dram_nodes[nid].alive and self.net.reachable(nid):
                get_s = self.net.sequential_gets(
                    [self.cfg.value_size], node_ids=[nid]
                )
                span.child("fetch_replica", get_s, node=nid)
                latency += get_s
                self.counters.add("op_degraded_read")
                self.tracer.finish(span, latency)
                return OpResult(
                    latency_s=latency, value=self.values[key].copy(), degraded=True
                )
            failed_s = self.net.rpc(64, 0)
            span.child("failed_attempt", failed_s)
            latency += failed_s
        raise DataLossError(f"all {self.copies} replicas of {key!r} are down")

    @property
    def memory_logical_bytes(self) -> int:
        return self.cluster.dram_logical_bytes

    def expected_value(self, key: str) -> np.ndarray:
        """The oracle: re-derived from (key, version), never the stored copy."""
        return make_value(key, self.versions[key], self._value_phys_len)


class VanillaMemcached(ReplicatedStore):
    """One copy per object, spread by consistent hashing: no redundancy, so
    a read of a failed or unreachable node raises :class:`DataLossError`."""

    name = "vanilla"
    fixed_copies = 1

"""Vanilla Memcached: single-copy, no reliability assurance (§6.1).

The paper's lower-bound baseline: fastest basic I/O because nothing is
encoded or replicated, but a failed node simply loses data.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.topology import Cluster
from repro.core.config import StoreConfig
from repro.core.interface import DataLossError, KVStore, OpResult
from repro.kvstore.chunk import make_value
from repro.obs import init_observability


class VanillaMemcached(KVStore):
    """One copy per object, spread by consistent hashing."""

    name = "vanilla"

    def __init__(self, config: StoreConfig):
        self.cfg = config
        self.cluster = Cluster(profile=config.profile, n_dram=config.n, n_log=0)
        self.net = self.cluster.network
        self.counters = self.cluster.counters
        self.versions: dict[str, int] = {}
        self.placement: dict[str, str] = {}
        #: the current version's bytes, held proxy-side like the striped
        #: stores' ``data_chunks`` (memtables carry the memory accounting)
        self.values: dict[str, np.ndarray] = {}
        self._value_phys_len = max(1, round(config.value_size * config.payload_scale))
        init_observability(self)

    def _commit(self, key: str, node_id: str, version: int) -> None:
        """Make ``version`` the stored object.  Runs after the network was
        charged: a partitioned link raises out of ``parallel_puts`` and must
        leave the previous version (or absence) intact."""
        self.placement[key] = node_id
        self.versions[key] = version
        self.values[key] = make_value(key, version, self._value_phys_len)
        self.cluster.dram_nodes[node_id].table.set(key, self.cfg.value_size)

    def _put(self, op: str, key: str, node_id: str):
        """Span and cost of shipping one full object to ``node_id``."""
        span = self.tracer.start(op, key=key)
        client_s = self.net.client_hop(64 + self.cfg.value_size)
        span.child("client_hop", client_s)
        put_s = self.net.parallel_puts([self.cfg.value_size], node_ids=[node_id])
        span.child("put_object", put_s, node=node_id)
        return span, client_s + put_s

    def write(self, key: str) -> OpResult:
        if key in self.versions:
            raise KeyError(f"object {key!r} already exists; use update()")
        node_id = self.cluster.ring.lookup(key)
        span, latency = self._put("write", key, node_id)
        self._commit(key, node_id, 0)
        self.counters.add("op_write")
        self.tracer.finish(span, latency)
        return OpResult(latency_s=latency)

    def read(self, key: str) -> OpResult:
        if key not in self.versions:
            raise KeyError(f"object {key!r} does not exist")
        node_id = self.placement[key]
        if not self.cluster.dram_nodes[node_id].alive:
            raise DataLossError(f"vanilla store lost {key!r} (no redundancy)")
        span = self.tracer.start("read", key=key)
        client_s = self.net.client_hop(64 + self.cfg.value_size)
        span.child("client_hop", client_s)
        get_s = self.net.sequential_gets([self.cfg.value_size], node_ids=[node_id])
        span.child("fetch_object", get_s, node=node_id)
        self.counters.add("op_read")
        self.tracer.finish(span, client_s + get_s)
        return OpResult(latency_s=client_s + get_s, value=self.values[key].copy())

    def update(self, key: str) -> OpResult:
        if key not in self.versions:
            raise KeyError(f"object {key!r} does not exist")
        node_id = self.placement[key]
        span, latency = self._put("update", key, node_id)
        self._commit(key, node_id, self.versions[key] + 1)
        self.counters.add("op_update")
        self.tracer.finish(span, latency)
        return OpResult(latency_s=latency)

    def delete(self, key: str) -> OpResult:
        if key not in self.versions:
            raise KeyError(f"object {key!r} does not exist")
        node_id = self.placement[key]
        span = self.tracer.start("delete", key=key)
        client_s = self.net.client_hop(64)
        span.child("client_hop", client_s)
        put_s = self.net.parallel_puts([64], node_ids=[node_id])
        span.child("put_tombstone", put_s, node=node_id)
        self.cluster.dram_nodes[node_id].table.delete(key)
        del self.versions[key], self.placement[key], self.values[key]
        self.counters.add("op_delete")
        self.tracer.finish(span, client_s + put_s)
        return OpResult(latency_s=client_s + put_s)

    def degraded_read(self, key: str) -> OpResult:
        raise DataLossError("vanilla Memcached has no redundancy to read from")

    @property
    def memory_logical_bytes(self) -> int:
        return self.cluster.dram_logical_bytes

    def expected_value(self, key: str) -> np.ndarray:
        """The oracle: re-derived from (key, version), never the stored copy."""
        return make_value(key, self.versions[key], self._value_phys_len)

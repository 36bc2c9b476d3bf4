"""Shared machinery for the erasure-coded stores (LogECMem, IPMem, FSMem).

Implements §4.1's write path -- per-DRAM-node encoding queues that gather
object values into fixed-size units, stripe sealing (encode + distribute),
the Object/Stripe indices -- plus reads and degraded reads.  Subclasses
provide the update policy (in-place + parity logging, pure in-place, or
full-stripe) and the parity placement (DRAM vs log nodes).

Ground-truth chunk bytes live in proxy-side registries (``data_chunks``,
``parity_chunks``); DRAM-node memtables carry the *memory accounting* items.
Access to chunk bytes always goes through helpers that refuse to touch a
failed node, so repair paths provably reconstruct rather than cheat.
"""

from __future__ import annotations

import zlib
from collections import deque

import numpy as np

from repro.cluster.topology import Cluster
from repro.core.config import StoreConfig
from repro.core.interface import (
    DataLossError,
    KVStore,
    OpResult,
    StoreUnavailableError,
)
from repro.devtools.simsan import runtime as _san
from repro.ec.delta import DeltaRecord, apply_parity_delta, compute_delta
from repro.ec.rs import RSCode
from repro.kvstore.chunk import Chunk, ChunkSlot, make_value
from repro.kvstore.object_index import ObjectIndex, ObjectLocation
from repro.kvstore.stripe_index import StripeIndex, StripeRecord
from repro.obs import init_observability

#: reads against a node slower than this multiple of nominal latency switch
#: to the degraded path (decode from survivors beats waiting on a straggler);
#: 1.0 would degrade on any slowdown, inf never does
DEGRADED_SLOWDOWN = 4.0


class ChunkUnavailableError(StoreUnavailableError):
    """A chunk's node is down (or the read was forced degraded)."""


class StripedStoreBase(KVStore):
    """Queues, sealing, placement, read and degraded-read paths."""

    #: True if all r parity chunks live on DRAM nodes (IPMem/FSMem)
    parity_in_dram: bool = True

    def __init__(self, config: StoreConfig):
        self.cfg = config
        self.code = RSCode(config.k, config.r)
        #: physical bytes of one object value, as a chunk packs it
        self._value_phys_len = Chunk(config.chunk_size, config.payload_scale)._phys_len(
            config.value_size
        )
        n_dram, n_log = self._node_counts()
        self.cluster = Cluster(
            profile=config.profile,
            n_dram=n_dram,
            n_log=n_log,
            scheme=config.scheme,
            bytes_scale=1.0 / config.payload_scale,
            merge_buffer=config.merge_buffer,
        )
        self.net = self.cluster.network
        self.counters = self.cluster.counters
        self.object_index = ObjectIndex()
        self.stripe_index = StripeIndex()
        # ground-truth chunk bytes, held by the proxy-side registry
        self.data_chunks: dict[tuple[int, int], Chunk] = {}
        self.parity_chunks: dict[tuple[int, int], np.ndarray] = {}
        #: CRC32 per DRAM-resident chunk, (stripe_id, global index) -> crc;
        #: degraded reads verify survivors against these before decoding
        self.checksums: dict[tuple[int, int], int] = {}
        self.versions: dict[str, int] = {}
        self.deleted: set[str] = set()
        # encoding queues: one open unit + a FIFO of sealed units per node
        self._open_units: dict[str, Chunk] = {}
        self._full_units: dict[str, deque[tuple[int, Chunk]]] = {
            nid: deque() for nid in self.cluster.dram_ids()
        }
        self._unit_seq = 0
        self._next_stripe_id = 0
        # objects written but whose stripe has not sealed yet
        self._pending: dict[str, tuple[str, Chunk, ChunkSlot]] = {}
        # write generations: a delete-then-rewrite leaves the old (zeroed)
        # slot in the sealing pipeline; stamping every enqueued slot with the
        # key's generation lets _seal_stripe tell the live slot from stale
        # ones, whichever order the units reach a stripe
        self._write_gen: dict[str, int] = {}
        self._slot_gen: dict[tuple[int, int], int] = {}
        init_observability(self)

    # ------------------------------------------------------------- layout hooks

    def _node_counts(self) -> tuple[int, int]:
        """(DRAM nodes, log nodes) -- overridden by LogECMem."""
        return self.cfg.n, 0

    def _place_parities(self, stripe_id: int, data_nodes: list[str]) -> list[str]:
        """Node ids for parity chunks j=0..r-1 (DRAM layout by default)."""
        candidates = [
            nid
            for nid in self.cluster.alive_dram_ids()
            if nid not in data_nodes and self.net.reachable(nid)
        ]
        if len(candidates) < self.cfg.r:
            raise StoreUnavailableError(
                f"stripe {stripe_id}: only {len(candidates)} parity candidates "
                f"for r={self.cfg.r}"
            )
        rot = stripe_id % len(candidates)
        ordered = candidates[rot:] + candidates[:rot]
        return ordered[: self.cfg.r]

    def _store_parities(
        self, stripe_id: int, parity_nodes: list[str], parities: np.ndarray
    ) -> float:
        """Persist parity chunks; returns critical-path seconds beyond the
        fan-out put (log-node backpressure for LogECMem)."""
        for j, nid in enumerate(parity_nodes):
            self.cluster.dram_nodes[nid].table.set(
                f"stripe:{stripe_id}:p{j}", self.cfg.chunk_size
            )
            self.parity_chunks[(stripe_id, j)] = parities[j].copy()
        return 0.0

    # ---------------------------------------------------------------- write path

    def _new_value(self, key: str, version: int) -> np.ndarray:
        return make_value(key, version, self._value_phys_len)

    def write(self, key: str) -> OpResult:
        if key in self.versions and key not in self.deleted:
            raise KeyError(f"object {key!r} already exists; use update()")
        value = self._new_value(key, 0)
        self.versions[key] = 0
        self.deleted.discard(key)
        node_id = self._select_queue(key)
        p = self.cfg.profile
        span = self.tracer.start("write", key=key)
        client_s = self.net.client_hop(64 + self.cfg.value_size)
        span.child("client_hop", client_s)
        latency = client_s
        latency += self._enqueue(key, node_id, value)
        # the object itself is stored on its DRAM node right away
        self.cluster.dram_nodes[node_id].table.set(key, self.cfg.value_size)
        put_s = self.net.parallel_puts([self.cfg.value_size], node_ids=[node_id])
        span.child("put_object", put_s, node=node_id)
        memcpy_s = p.memcpy_s(self.cfg.value_size)
        span.child("memcpy", memcpy_s)
        latency += put_s + memcpy_s
        seal_s = self._maybe_seal()
        if seal_s > 0:
            span.child("seal_stripe", seal_s)
        latency += seal_s
        self.counters.add("op_write")
        self.tracer.finish(span, latency)
        return OpResult(latency_s=latency)

    def _select_queue(self, key: str) -> str:
        """Pick the object's DRAM node by key hash with two-choice balancing.

        Stripe formation waits for k of the n queues to fill, so queue
        imbalance directly stalls sealing (worst with wide stripes, where
        k of k+1 queues must be ready).  Power-of-two-choices keeps the
        placement key-driven while bounding the imbalance.  Failed nodes
        never receive new objects: the ring walk skips them.
        """
        ring = self.cluster.ring
        candidates = [
            nid
            for nid in ring.lookup_many(key, min(len(ring), 4))
            if self._dram_reachable(nid)
        ][:2]
        if not candidates:
            alive = [
                nid for nid in self.cluster.alive_dram_ids() if self.net.reachable(nid)
            ]
            if not alive:
                raise StoreUnavailableError("no reachable DRAM node to accept writes")
            candidates = alive[:2]
        if len(candidates) == 1:
            return candidates[0]
        a, b = candidates
        return a if self._queue_depth(a) <= self._queue_depth(b) else b

    def _queue_depth(self, node_id: str) -> float:
        depth = float(len(self._full_units[node_id]))
        unit = self._open_units.get(node_id)
        if unit is not None:
            depth += 1 - unit.free_logical() / unit.logical_size
        return depth

    def _enqueue(self, key: str, node_id: str, value: np.ndarray) -> float:
        """Append an object to ``node_id``'s open encoding unit."""
        unit = self._open_units.get(node_id)
        if unit is None or not unit.fits(self.cfg.value_size):
            if unit is not None:
                self._seal_unit(node_id, unit)
            unit = Chunk(self.cfg.chunk_size, self.cfg.payload_scale)
            self._open_units[node_id] = unit
        slot = unit.append(key, self.cfg.value_size, value)
        prev_gen = self._write_gen.get(key, 0)
        gen = prev_gen + 1
        san = _san.ACTIVE
        if san is not None:
            san.on_write_gen(key, gen, prev_gen)
        self._write_gen[key] = gen
        self._slot_gen[(id(unit), slot.offset)] = gen
        self._pending[key] = (node_id, unit, slot)
        if not unit.fits(self.cfg.value_size):
            self._seal_unit(node_id, unit)
            del self._open_units[node_id]
        return 0.0

    def _seal_unit(self, node_id: str, unit: Chunk) -> None:
        self._full_units[node_id].append((self._unit_seq, unit))
        self._unit_seq += 1

    def _seal_possible(self) -> bool:
        """Can a new stripe be placed with the currently-alive nodes?"""
        return len(self.cluster.alive_dram_ids()) >= self.cfg.n

    def _maybe_seal(self) -> float:
        """Form a stripe whenever k distinct *alive* nodes have a sealed unit.

        Units parked on a failed node -- and whole stripes, when too few
        nodes are alive to place one -- wait for recovery (their objects stay
        readable through the replicated proxy buffers, §3.2)."""
        latency = 0.0
        while True:
            if not self._seal_possible():
                return latency
            ready = [
                nid
                for nid, q in self._full_units.items()
                if q and self.cluster.dram_nodes[nid].alive
            ]
            if len(ready) < self.cfg.k:
                return latency
            # take the k nodes whose head unit is oldest (FIFO across nodes)
            ready.sort(key=lambda nid: self._full_units[nid][0][0])
            chosen = ready[: self.cfg.k]
            units = [self._full_units[nid].popleft()[1] for nid in chosen]
            latency += self._seal_stripe(chosen, units)

    def _seal_stripe(self, data_nodes: list[str], units: list[Chunk]) -> float:
        cfg = self.cfg
        sid = self._next_stripe_id
        self._next_stripe_id += 1
        data = np.stack([u.buffer for u in units])
        parities = self.code.encode(data)
        parity_nodes = self._place_parities(sid, data_nodes)
        record = StripeRecord(
            stripe_id=sid,
            k=cfg.k,
            r=cfg.r,
            chunk_nodes=list(data_nodes) + parity_nodes,
            chunk_keys=[[s.key for s in u.slots] for u in units],
        )
        self.stripe_index.put(record)
        for i, unit in enumerate(units):
            self.data_chunks[(sid, i)] = unit
            for slot in unit.slots:
                gen = self._slot_gen.pop((id(unit), slot.offset), None)
                live = self._write_gen.get(slot.key)
                superseded = gen is not None and gen != live
                san = _san.ACTIVE
                if san is not None:
                    san.on_seal(slot.key, gen, live, applied=not superseded)
                if superseded:
                    # superseded: the key was deleted and re-written into a
                    # newer unit, so this slot is tombstone garbage -- leave
                    # the index and the live pending entry alone
                    continue
                self.object_index.put(
                    slot.key,
                    ObjectLocation(
                        stripe_id=sid, seq_no=i, offset=slot.offset, length=slot.length
                    ),
                )
                self._pending.pop(slot.key, None)
        # encode cost + parity distribution are the sealing write's burden
        latency = cfg.profile.encode_s(cfg.k * cfg.chunk_size)
        latency += self._store_parities(sid, parity_nodes, parities)
        latency += self.net.parallel_puts(
            [cfg.chunk_size] * cfg.r, node_ids=parity_nodes
        )
        for i in range(cfg.k):
            self._set_checksum(sid, i, units[i].buffer)
        for j in range(cfg.r):
            payload = self.parity_chunks.get((sid, j))
            if payload is not None:
                self._set_checksum(sid, cfg.k + j, payload)
        self.counters.add("stripes_sealed")
        return latency

    # ------------------------------------------------------------- integrity

    def _set_checksum(self, sid: int, gi: int, buf: np.ndarray) -> None:
        # crc32 reads the (C-contiguous) chunk buffer in place, no bytes copy
        self.checksums[(sid, gi)] = zlib.crc32(buf)

    def _checksum_ok(self, sid: int, gi: int, buf: np.ndarray) -> bool:
        stored = self.checksums.get((sid, gi))
        return stored is None or stored == zlib.crc32(buf)

    # ----------------------------------------------------------------- read path

    def _dram_reachable(self, node_id: str) -> bool:
        """A DRAM node the proxy can actually talk to: alive and link up."""
        return self.cluster.dram_nodes[node_id].alive and self.net.reachable(node_id)

    def _degraded_reason(self, node_id: str) -> str | None:
        """Why a read of ``node_id`` must take the degraded path (None = it
        need not): the node is down, its link is partitioned, or it is slower
        than :data:`DEGRADED_SLOWDOWN`."""
        if not self.cluster.dram_nodes[node_id].alive:
            return "node_down"
        if self.net.link_down(node_id):
            return "link_down"
        if self.net.node_slowdown(node_id) > DEGRADED_SLOWDOWN:
            return "slow_node"
        return None

    def _locate(self, key: str):
        """(stripe_id|None, seq|None, node_id, chunk, slot) of a live object."""
        if key in self.deleted or key not in self.versions:
            raise KeyError(f"object {key!r} does not exist")
        pend = self._pending.get(key)
        if pend is not None:
            node_id, unit, slot = pend
            return None, None, node_id, unit, slot
        loc = self.object_index.lookup(key)
        rec = self.stripe_index.get(loc.stripe_id)
        node_id = rec.chunk_nodes[loc.seq_no]
        chunk = self.data_chunks[(loc.stripe_id, loc.seq_no)]
        slot = chunk.slot_for(key)
        return loc.stripe_id, loc.seq_no, node_id, chunk, slot

    def read(self, key: str) -> OpResult:
        sid, seq, node_id, chunk, slot = self._locate(key)
        reason = self._degraded_reason(node_id)
        if reason is not None:
            result = self.degraded_read(key)
            result.degraded = True
            result.info.setdefault("degraded_reason", reason)
            return result
        span = self.tracer.start("read", key=key)
        client_s = self.net.client_hop(64 + self.cfg.value_size)
        span.child("client_hop", client_s)
        # a tolerably-slow node inflates the GET but not the client hop;
        # sequential_gets applies the node's slowdown itself now
        get_s = self.net.sequential_gets([self.cfg.value_size], node_ids=[node_id])
        span.child("fetch_object", get_s, node=node_id)
        latency = client_s + get_s
        self.counters.add("op_read")
        self.tracer.finish(span, latency)
        return OpResult(latency_s=latency, value=chunk.read_slot(slot).copy())

    # ------------------------------------------------------------- degraded path

    def _available_dram_chunks(self, sid: int, exclude: set[int]) -> dict[int, np.ndarray]:
        """Global-index -> physical bytes for stripe chunks on live DRAM nodes."""
        rec = self.stripe_index.get(sid)
        out: dict[int, np.ndarray] = {}
        for gi in range(rec.n):
            if gi in exclude:
                continue
            nid = rec.chunk_nodes[gi]
            if nid not in self.cluster.dram_nodes or not self._dram_reachable(nid):
                continue
            if gi < self.cfg.k:
                buf = self.data_chunks[(sid, gi)].buffer
            else:
                buf = self.parity_chunks.get((sid, gi - self.cfg.k))
                if buf is None:
                    continue
            if not self._checksum_ok(sid, gi, buf):
                # silent corruption: treat the chunk as unavailable and let
                # the decode escalate to other survivors / logged parities
                self.counters.add("corrupt_chunks_detected")
                continue
            out[gi] = buf
        return out

    def _fetch_logged_parities(
        self, sid: int, needed: int, exclude: set[int]
    ) -> tuple[float, dict[int, np.ndarray]]:
        """Fetch up-to-date logged parities (LogECMem only; no-op here)."""
        return 0.0, {}

    def degraded_read(self, key: str) -> OpResult:
        """Re-obtain an object whose data chunk is unavailable (§4.1, §5.2).

        Works whether the chunk's node actually failed or the read is forced
        degraded (transient unavailability), and escalates from the XOR fast
        path to logged parities when the stripe has multiple failures."""
        sid, seq, node_id, chunk, slot = self._locate(key)
        cfg = self.cfg
        span = self.tracer.start("degraded_read", key=key)
        if sid is None:
            # Object still in an unsealed encoding unit: those buffers are
            # replicated with the proxy's hot backups (§3.2), so the read is
            # served from the proxy, not decoded.
            client_s = self.net.client_hop(64 + cfg.value_size)
            span.child("client_hop", client_s)
            proxy_s = self.net.rpc(64, cfg.value_size)
            span.child("fetch_proxy_buffer", proxy_s)
            self.counters.add("op_degraded_read")
            self.tracer.finish(span, client_s + proxy_s)
            return OpResult(
                latency_s=client_s + proxy_s,
                value=chunk.read_slot(slot).copy(),
                degraded=True,
            )
        latency = self.net.client_hop(64 + cfg.value_size)
        span.child("client_hop", latency)
        exclude = {seq}  # the requested chunk counts as unavailable
        rec = self.stripe_index.get(sid)
        available = self._available_dram_chunks(sid, exclude)
        k, n = cfg.k, cfg.k + cfg.r
        self.counters.add("op_degraded_read")

        fetch: dict[int, np.ndarray] = {}
        if len(available) >= k:
            # single-failure fast path (§3.3.1): k-1 data + XOR if possible,
            # otherwise any k DRAM-resident chunks (IPMem/FSMem layouts).
            prefer = [i for i in range(k) if i in available and i != seq] + [
                i for i in range(k, n) if i in available
            ]
            for gi in prefer[:k]:
                fetch[gi] = available[gi]
            survivors_s = self.net.sequential_gets(
                [cfg.chunk_size] * k,
                node_ids=[rec.chunk_nodes[gi] for gi in prefer[:k]],
            )
            span.child("fetch_survivors", survivors_s, chunks=k)
            latency += survivors_s
        else:
            fetch.update(available)
            survivors_s = self.net.sequential_gets(
                [cfg.chunk_size] * len(available),
                node_ids=[rec.chunk_nodes[gi] for gi in available],
            )
            span.child("fetch_survivors", survivors_s, chunks=len(available))
            latency += survivors_s
            log_latency, logged = self._fetch_logged_parities(
                sid, k - len(available), exclude
            )
            span.child("fetch_logged_parity", log_latency, chunks=len(logged))
            latency += log_latency
            fetch.update(logged)
            if len(fetch) < k:
                raise DataLossError(
                    f"stripe {sid}: only {len(fetch)} of required {k} chunks available"
                )
            self.counters.add("multi_failure_repairs")
        decode_s = cfg.profile.encode_s(k * cfg.chunk_size)  # decode work
        span.child("decode", decode_s)
        latency += decode_s
        if set(range(k)) - {seq} <= set(fetch) and k in fetch:
            rebuilt = self.code.repair_with_xor(seq, fetch)
        else:
            rebuilt = self.code.decode(fetch, wanted=[seq])[seq]
        value = rebuilt[slot.phys_offset : slot.phys_end].copy()
        self.tracer.finish(span, latency)
        return OpResult(latency_s=latency, value=value, degraded=True)

    # -------------------------------------------------------------------- delete

    def delete(self, key: str) -> OpResult:
        """§4.1: delete = update the value to zero bytes; space is reclaimed
        later by GC (not during the measured run)."""
        result = self._update_impl(key, tombstone=True)
        self.deleted.add(key)
        self.counters.add("op_delete")
        return result

    def update(self, key: str) -> OpResult:
        if key in self.deleted or key not in self.versions:
            raise KeyError(f"object {key!r} does not exist")
        result = self._update_impl(key, tombstone=False)
        self.counters.add("op_update")
        return result

    def _update_impl(self, key: str, tombstone: bool) -> OpResult:
        raise NotImplementedError

    # ----------------------------------------------- Figure 7, shared by stores

    def _require_reachable(self, key: str, node_id: str, what: str) -> None:
        """An in-place update cannot land on a node that is down or
        partitioned (reads still degrade fine); it waits for repair."""
        if not self._dram_reachable(node_id):
            raise ChunkUnavailableError(
                f"cannot update {key!r}: {what} {node_id} is down or "
                f"unreachable (repair first)"
            )

    def _begin_update(self, key: str, slot: ChunkSlot, tombstone: bool):
        """Mint the next version's bytes (zeros for a tombstone) and open the
        update span with the client hop charged.  Returns
        ``(version, value, span, client seconds)``."""
        version = self.versions[key] + 1
        value = (
            np.zeros(slot.phys_length, dtype=np.uint8)
            if tombstone
            else self._new_value(key, version)
        )
        span = self.tracer.start("update", key=key)
        client_s = self.net.client_hop(64 + self.cfg.value_size)
        span.child("client_hop", client_s)
        return version, value, span, client_s

    def _overwrite_unsealed(
        self, key, node_id, chunk, slot, version, value, span, latency, read_old=True
    ) -> OpResult:
        """The object still sits in an open encoding unit (no stripe, no
        parity yet): a plain overwrite on its node.  ``read_old=False`` is
        FSMem, which never reads the version it replaces."""
        cfg = self.cfg
        chunk.write_slot(slot, value)
        self.versions[key] = version
        get_s = 0.0
        if read_old:
            get_s = self.net.sequential_gets([cfg.value_size], node_ids=[node_id])
            span.child("read_old", get_s, node=node_id)
        put_s = self.net.parallel_puts([cfg.value_size], node_ids=[node_id])
        span.child("put_object", put_s, node=node_id)
        latency += get_s + put_s
        self.tracer.finish(span, latency)
        return OpResult(latency_s=latency)

    def _patch_in_place(
        self, sid, seq, chunk, slot, version, value, dram_parities
    ) -> DeltaRecord:
        """Figure 7 step 3: compute the data delta, overwrite the object and
        patch each DRAM-resident parity in ``dram_parities`` with its
        coefficient-scaled delta (Property 1).  Returns the data delta as the
        record the proxy ships on."""
        delta = compute_delta(chunk.read_slot(slot), value)
        record = DeltaRecord(sid, seq, slot.phys_offset, delta, seq=version)
        chunk.write_slot(slot, value)
        self._set_checksum(sid, seq, chunk.buffer)
        for j in dram_parities:
            parity = self.parity_chunks[(sid, j)]
            apply_parity_delta(parity, record, self.code.coefficients[j][seq])
            self._set_checksum(sid, self.cfg.k + j, parity)
        return record

    # -------------------------------------------------------------------- metrics

    @property
    def memory_logical_bytes(self) -> int:
        return self.cluster.dram_logical_bytes

    def expected_value(self, key: str) -> np.ndarray:
        if key in self.deleted:
            return np.zeros(self._value_phys_len, dtype=np.uint8)
        return self._new_value(key, self.versions[key])

    def finalize(self) -> None:
        self.cluster.settle_logs()

    # ------------------------------------------------------------------ invariants

    def fresh_parities(self, stripe_id: int) -> np.ndarray:
        """The parity oracle: ``encode`` of the stripe's current data chunks,
        (r, L).  Every "is this parity right" check compares against it."""
        return self.code.encode(
            np.stack([self.data_chunks[(stripe_id, i)].buffer for i in range(self.cfg.k)])
        )

    def verify_stripe(self, stripe_id: int) -> bool:
        """Test hook: DRAM parity chunks match a fresh encode of the data."""
        parities = self.fresh_parities(stripe_id)
        for j in range(self.cfg.r):
            stored = self.parity_chunks.get((stripe_id, j))
            if stored is not None and not np.array_equal(stored, parities[j]):
                return False
        return True

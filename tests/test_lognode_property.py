"""Model-based test of one log node's log path, under every log scheme.

A hypothesis rule machine drives four :class:`LogNode` s -- one per scheme
(PL, PLR, PLR-m, PLM), all with buffer merging on or all with it off -- through
the same history of base-chunk appends, parity-delta appends at random
offsets and lengths, flushes, settles, stripe drops and crashes (the DRAM
buffer is lost, then every pair is rebased the way ``recover_log_node``
rebases it).  After every step:

* ``read_uptodate_parity`` of every live (stripe, parity) equals a dict
  oracle -- the base XOR the deltas that survived -- on all four nodes;
* each scheme's ``disk_logical_bytes``, and PLM's ``staging_bytes``, equal the
  logical sizes of the records the oracle says are live there.

The size oracle needs no merge code of its own: every delta is minted at one
logical density (``DENSITY`` logical bytes per physical byte), so a Property 2
merge of any group of records is ``BASE_LOGICAL`` if the group holds the base
chunk and ``DENSITY`` times the group's byte span otherwise.  Which records form
a group is the layout's business: PL and PLR persist each flushed record,
PLR-m merges per flush batch, PLM stages flushed records and merges per lazy
merge; merge-based buffer logging first collapses a pair's buffered records
into one record per flush batch.
"""

from dataclasses import dataclass, replace

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.cluster.node import LogNode
from repro.core.recovery import crash_log_node
from repro.ec.delta import ParityDelta
from repro.logstore.records import LogRecord
from repro.sim.params import HardwareProfile

SCHEMES = ("pl", "plr", "plr-m", "plm")
PHYS = 32  # physical parity chunk bytes
DENSITY = 16  # logical bytes per physical byte, the same for every record
BASE_LOGICAL = PHYS * DENSITY
PAIRS = [(sid, j) for sid in range(3) for j in (1, 2)]

#: small enough that appends flush the buffer and flushes trigger lazy merges
PROFILE = replace(
    HardwareProfile(),
    log_buffer_bytes=4 * BASE_LOGICAL,
    log_flush_threshold_bytes=3 * BASE_LOGICAL,
    log_staging_threshold_bytes=6 * BASE_LOGICAL,
)


@dataclass
class _Rec:
    """The oracle's view of one record handed to the log nodes."""

    is_chunk: bool
    lo: int
    payload: np.ndarray
    logical: int
    batch: int | None = None  # flush batch; None while in the DRAM buffer
    epoch: int | None = None  # PLM lazy merge that wrote it to its region

    @property
    def hi(self) -> int:
        return self.lo + self.payload.size

    def record(self, sid: int, j: int) -> LogRecord:
        payload = self.payload.copy()
        if self.is_chunk:
            return LogRecord.for_chunk(sid, j, payload, self.logical)
        return LogRecord.for_delta(ParityDelta(sid, j, self.lo, payload), self.logical)


def _merged_size(group: list[_Rec]) -> int:
    """Logical size of the Property 2 merge of ``group``."""
    if any(r.is_chunk for r in group):
        return BASE_LOGICAL
    if len(group) == 1:
        return group[0].logical
    return DENSITY * (max(r.hi for r in group) - min(r.lo for r in group))


def _groups(recs: list[_Rec], key) -> list[list[_Rec]]:
    out: dict = {}
    for r in recs:
        out.setdefault(key(r), []).append(r)
    return list(out.values())


class LogNodeMachine(RuleBasedStateMachine):
    @initialize(merge=st.booleans())
    def build(self, merge):
        self.merge = merge
        self.nodes = {
            name: LogNode(f"log-{name}", PROFILE, scheme=name, merge_buffer=merge)
            for name in SCHEMES
        }
        self.now = 0.0
        self.value: dict[tuple[int, int], np.ndarray] = {}  # base ^ every delta
        self.recs: dict[tuple[int, int], list[_Rec]] = {}  # live records per pair
        self.flushed: list[tuple[tuple[int, int], _Rec]] = []  # PL never reclaims
        self.batches = 0
        self.epochs = 0

    # ---------------------------------------------------------------- helpers

    def _tick(self) -> float:
        self.now += 1e-3
        return self.now

    def _flush_unit(self, rec: _Rec):
        """What one flushed record is grouped with before it reaches disk:
        merge-based buffer logging collapses a pair's batch into one record."""
        return rec.batch if self.merge else id(rec)

    def _after_step(self, lazy_merges_before: int) -> None:
        """Flushes drain the whole buffer, so an empty buffer means every
        record so far is on disk; a lazy merge empties PLM's staging."""
        emptied = [len(n.buffer) == 0 for n in self.nodes.values()]
        assert len(set(emptied)) == 1, "buffers flushed at different points"
        if emptied[0]:
            batch = None
            for pair, recs in self.recs.items():
                for r in recs:
                    if r.batch is None:
                        if batch is None:
                            self.batches += 1
                            batch = self.batches
                        r.batch = batch
                        self.flushed.append((pair, r))
        if self.nodes["plm"].scheme.lazy_merges > lazy_merges_before:
            self.epochs += 1
            for recs in self.recs.values():
                for r in recs:
                    if r.batch is not None and r.epoch is None:
                        r.epoch = self.epochs

    def _append_all(self, pair, rec: _Rec) -> None:
        """Hand every node its own copy of ``rec`` (as the proxy's broadcast
        does), so no node can see another's buffer through shared bytes."""
        before = self.nodes["plm"].scheme.lazy_merges
        now = self._tick()
        for node in self.nodes.values():
            node.append(rec.record(*pair), now)
        self.recs.setdefault(pair, []).append(rec)
        self._after_step(before)

    # ------------------------------------------------------------------ rules

    @rule(pair=st.sampled_from(PAIRS), data=st.data())
    def append_base(self, pair, data):
        if pair in self.recs:
            return  # a base only lands where nothing is live (seal, recovery)
        payload = np.frombuffer(
            data.draw(st.binary(min_size=PHYS, max_size=PHYS)), dtype=np.uint8
        ).copy()
        self.value[pair] = payload.copy()
        self._append_all(pair, _Rec(True, 0, payload, BASE_LOGICAL))

    @rule(pair=st.sampled_from(PAIRS), data=st.data())
    def append_delta(self, pair, data):
        if pair not in self.recs:
            return  # deltas follow their stripe's base chunk
        offset = data.draw(st.integers(0, PHYS - 1))
        length = data.draw(st.integers(1, PHYS - offset))
        payload = np.frombuffer(
            data.draw(st.binary(min_size=length, max_size=length)), dtype=np.uint8
        ).copy()
        self.value[pair][offset : offset + length] ^= payload
        self._append_all(pair, _Rec(False, offset, payload, DENSITY * length))

    @rule()
    def flush(self):
        before = self.nodes["plm"].scheme.lazy_merges
        now = self._tick()
        for node in self.nodes.values():
            node.scheme.flush(node.buffer.drain(), now)
        self._after_step(before)

    @rule()
    def settle(self):
        before = self.nodes["plm"].scheme.lazy_merges
        now = self._tick()
        for node in self.nodes.values():
            node.settle(now)
        self._after_step(before)
        assert self.nodes["plm"].scheme.staging_bytes == 0

    @rule(pair=st.sampled_from(PAIRS))
    def drop(self, pair):
        for node in self.nodes.values():
            node.drop_stripe_parity(*pair)
        self.recs.pop(pair, None)
        self.value.pop(pair, None)

    @rule()
    def crash(self):
        """The DRAM buffers are lost; the disk holds what was flushed.  Then
        every live pair is rebased from the true parity (the data chunks
        kept every update), superseding the stale log state."""
        lost = {name: crash_log_node(node) for name, node in self.nodes.items()}
        assert len(set(lost.values())) == 1
        now = self._tick()
        for pair, recs in list(self.recs.items()):
            survived = [r for r in recs if r.batch is not None]
            if not survived or not survived[0].is_chunk:
                continue  # its base never reached disk: nothing to read back
            want = survived[0].payload.copy()
            for r in survived[1:]:
                want[r.lo : r.hi] ^= r.payload
            for node in self.nodes.values():
                got = node.read_uptodate_parity(*pair, PHYS, now).payload
                assert np.array_equal(got, want), (node.scheme.name, pair)
        before = self.nodes["plm"].scheme.lazy_merges
        for pair in sorted(self.recs):
            self.recs[pair] = [_Rec(True, 0, self.value[pair].copy(), BASE_LOGICAL)]
        for node in self.nodes.values():
            for pair in self.recs:
                node.drop_stripe_parity(*pair)
            node.scheme.flush([recs[0].record(*pair) for pair, recs in self.recs.items()], now)
        self._after_step(before)

    # ------------------------------------------------------------- invariants

    @invariant()
    def reads_match_oracle(self):
        now = self._tick()
        for pair, want in self.value.items():
            for name, node in self.nodes.items():
                got = node.read_uptodate_parity(*pair, PHYS, now).payload
                assert np.array_equal(got, want), (name, pair)

    @invariant()
    def logical_bytes_match_live_records(self):
        unit = self._flush_unit
        per_pair = [[r for r in recs if r.batch is not None] for recs in self.recs.values()]

        pl = sum(
            _merged_size([r for _, r in g])
            for g in _groups(self.flushed, lambda pr: (pr[0], unit(pr[1])))
        )
        plr = sum(_merged_size(g) for recs in per_pair for g in _groups(recs, unit))
        plrm = sum(
            _merged_size(g) for recs in per_pair for g in _groups(recs, lambda r: r.batch)
        )
        staged = sum(
            _merged_size(g)
            for recs in per_pair
            for g in _groups([r for r in recs if r.epoch is None], unit)
        )
        merged = sum(
            _merged_size(g)
            for recs in per_pair
            for g in _groups([r for r in recs if r.epoch is not None], lambda r: r.epoch)
        )
        assert self.nodes["pl"].scheme.disk_logical_bytes == pl
        assert self.nodes["plr"].scheme.disk_logical_bytes == plr
        assert self.nodes["plr-m"].scheme.disk_logical_bytes == plrm
        assert self.nodes["plm"].scheme.staging_bytes == staged
        assert self.nodes["plm"].scheme.disk_logical_bytes == staged + merged


LogNodeMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestLogNodeMachine = LogNodeMachine.TestCase

"""Stateful property-based testing of LogECMem.

A hypothesis rule machine drives an arbitrary interleaving of writes,
updates, deletes, node kills/restores (within the code's tolerance), log
flushes, GC and scrubs against a model (a plain dict of expected versions),
checking after every step that:

* every live object reads back its expected bytes (model equivalence),
* the memory accounting invariant holds on every node,
* and at teardown, with all nodes restored, the scrubber finds every parity
  re-derivable.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.config import StoreConfig
from repro.core.gc import collect_garbage
from repro.core.logecmem import LogECMem
from repro.core.scrub import scrub
from repro.core.striped import ChunkUnavailableError
from tests.helpers import accounting_ok

KEYS = [f"user{i}" for i in range(12)]


class LogECMemMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.store = LogECMem(
            StoreConfig(k=3, r=3, value_size=1024, payload_scale=1 / 8)
        )
        self.model: dict[str, int] = {}  # key -> version
        self.killed: set[str] = set()

    # ------------------------------------------------------------------ rules

    @rule(key=st.sampled_from(KEYS))
    def write(self, key):
        if key in self.model:
            return
        self.store.write(key)
        self.model[key] = 0

    @rule(key=st.sampled_from(KEYS))
    def update(self, key):
        if key not in self.model:
            return
        try:
            self.store.update(key)
        except ChunkUnavailableError:
            return  # home/XOR node down: correctly refused, model unchanged
        self.model[key] += 1

    @rule(key=st.sampled_from(KEYS))
    def delete(self, key):
        if key not in self.model:
            return
        try:
            self.store.delete(key)
        except ChunkUnavailableError:
            return
        del self.model[key]

    @rule(idx=st.integers(min_value=0, max_value=3))
    def kill_dram(self, idx):
        nid = f"dram{idx}"
        # stay within single-DRAM-failure tolerance so reads always succeed
        # without touching log disks mid-machine
        if self.killed or nid in self.killed:
            return
        self.store.cluster.kill(nid)
        self.killed.add(nid)

    @rule()
    def restore_all(self):
        for nid in list(self.killed):
            self.store.cluster.restore(nid)
        self.killed.clear()

    @rule()
    def settle_logs(self):
        self.store.finalize()

    @precondition(lambda self: not self.killed)
    @rule()
    def run_gc(self):
        collect_garbage(self.store)

    # -------------------------------------------------------------- invariants

    @invariant()
    def reads_match_model(self):
        for key, version in self.model.items():
            res = self.store.read(key)
            expect = self.store.expected_value(key)
            assert np.array_equal(res.value, expect), (key, version)

    @invariant()
    def deleted_keys_absent(self):
        for key in KEYS:
            if key not in self.model:
                try:
                    self.store.read(key)
                except KeyError:
                    continue
                # a never-written key may legitimately be absent from both
                raise AssertionError(f"deleted key {key!r} still readable")

    @invariant()
    def memory_accounting_consistent(self):
        for node in self.store.cluster.dram_nodes.values():
            assert accounting_ok(node.table), node.node_id

    def teardown(self):
        for nid in list(self.killed):
            self.store.cluster.restore(nid)
        self.store.finalize()
        report = scrub(self.store)
        assert report.clean, report.mismatches


TestLogECMemStateful = LogECMemMachine.TestCase
TestLogECMemStateful.settings = settings(
    max_examples=12, stateful_step_count=25, deadline=None
)

"""The control plane: detect -> propose -> verify -> execute on the sim clock.

:class:`ControlPlane` wires the four stages together and is the only piece
that mutates cluster state.  The chaos harness polls it from its event pump
(every clock advance), so the plane observes faults with the same visibility
a real sidecar daemon would have: the flight recorder, the counter bag and
the node/link state -- never the fault schedule itself.

Execution protocol (what the journal shows for every action, matched by
``seq``)::

    heal_detect -> heal_propose -> heal_verify(pre) -> heal_execute
                                   -> heal_verify(post) [-> heal_rollback]

The verifier gates on *new* violations: a reversible action (traffic
backoff) is undone on failure (``heal_rollback`` mode ``revert``); an
irreversible one escalates (mode ``escalate``).  Actions whose preconditions
are not met (e.g. recovering a log node behind a still-open partition) are
deferred at their original queue position; exhausted deferrals are abandoned
(mode ``abandon``).  Everything the plane does lands in the shared counter
bag (``heal_*``), so same-seed runs are byte-identical.

The plane takes no options: its timings and bounds are the module constants
below, one value each.
"""

from __future__ import annotations

import math

from repro.chaos.policy import RetryPolicy
from repro.core.adaptive import choose_log_scheme
from repro.core.interface import DataLossError, KVStore
from repro.heal.detector import Detector
from repro.heal.incidents import Action
from repro.heal.proposer import Proposer
from repro.heal.scheduler import ActionScheduler
from repro.heal.verifier import Verifier

#: minimum simulated time between two released actions
MIN_GAP_S = 5e-4
#: how long a blipped node may stay down before ``observe`` escalates
BLIP_GRACE_S = 2e-3
#: deferrals an action may take before it is abandoned
MAX_DEFERS = 8
#: how long a deferred action waits before its preconditions are re-checked
DEFER_BACKOFF_S = 2e-3
#: multiplier a traffic backoff applies to the retry policy's timeouts
BACKOFF_FACTOR = 2.0
#: bound on the end-of-run drain loop, so a pathological queue cannot spin
QUIESCE_STEPS = 256


class ControlPlane:
    """Autonomous remediation loop over one store's cluster."""

    def __init__(self):
        self.proposer = Proposer(blip_grace_s=BLIP_GRACE_S)
        self.scheduler = ActionScheduler(min_gap_s=MIN_GAP_S, max_defers=MAX_DEFERS)
        self.verifier = Verifier()
        self.store: KVStore | None = None
        self.detector: Detector | None = None
        self.policy: RetryPolicy | None = None
        self._note = lambda when, text: None
        self._busy = False
        self._backoffs: dict[str, float] = {}
        self.executed: list[dict] = []
        self.rollbacks = 0
        self.escalations = 0

    # ------------------------------------------------------------------ wiring

    def attach(self, store: KVStore, policy: RetryPolicy | None = None, note=None):
        """Bind to a store's cluster (once, before the run starts)."""
        if self.store is not None:
            raise RuntimeError("control plane is already attached")
        self.store = store
        self.detector = Detector(store.cluster)
        self.policy = policy
        if note is not None:
            self._note = note
        return self

    @property
    def clock(self):
        return self.store.cluster.clock

    @property
    def journal(self):
        return self.store.cluster.journal

    @property
    def counters(self):
        return self.store.cluster.counters

    @property
    def pending(self) -> int:
        return len(self.scheduler)

    # ------------------------------------------------------------------- loop

    def poll(self, now: float) -> None:
        """One control-plane tick: classify, plan, and run what is due."""
        if self.store is None or self._busy:
            return
        self._busy = True
        try:
            fresh, resolved = self.detector.poll(now)
            for inc in fresh:
                self.journal.emit(
                    "heal_detect", kind=inc.kind, node=inc.node_id, seq=inc.seq
                )
                self._note(now, f"heal: detected {inc.kind} on {inc.node_id}")
                for action in self.proposer.propose(inc, now):
                    self._propose(action)
            for inc in resolved:
                for action in self.proposer.on_resolved(inc, now):
                    self._propose(action)
            while True:
                action = self.scheduler.next_ready(self.clock.now)
                if action is None:
                    break
                self._execute(action, self.clock.now)
        finally:
            self._busy = False

    def quiesce(self, wait) -> bool:
        """Drain the action queue after the workload ends.

        ``wait(dt)`` must advance the simulated clock and re-poll the plane
        (the harness's ``_wait`` does).  Returns True once the queue is
        empty; :data:`QUIESCE_STEPS` bounds the loop."""
        for _ in range(QUIESCE_STEPS):
            if not self.pending:
                return True
            target = self.scheduler.next_release_s(self.clock.now)
            if not math.isfinite(target):
                return True
            wait(max(target - self.clock.now, MIN_GAP_S, 1e-9))
        return not self.pending

    # ------------------------------------------------------------ the pipeline

    def _propose(self, action: Action) -> None:
        self.journal.emit(
            "heal_propose",
            action=action.kind,
            node=action.node_id,
            seq=action.seq,
            incident=action.incident_kind,
            not_before_s=action.not_before_s,
        )
        self.scheduler.push(action)

    def _execute(self, action: Action, now: float) -> None:
        if self._defer_needed(action):
            self.counters.add("heal_actions_deferred")
            if not self.scheduler.defer(action, now + DEFER_BACKOFF_S):
                self._abandon(action, now)
            return
        pre = self.verifier.check(self.store, action, "pre")
        self.journal.emit(
            "heal_verify",
            action=action.kind,
            node=action.node_id,
            seq=action.seq,
            stage="pre",
            ok=pre.ok,
            violations=len(pre.violations),
        )
        result = self._perform(action, now)
        self.counters.add("heal_actions_executed")
        self.journal.emit(
            "heal_execute",
            action=action.kind,
            node=action.node_id,
            seq=action.seq,
            **result,
        )
        post = self.verifier.check(self.store, action, "post")
        new = self.verifier.new_violations(pre, post)
        self.journal.emit(
            "heal_verify",
            action=action.kind,
            node=action.node_id,
            seq=action.seq,
            stage="post",
            ok=not new,
            violations=len(post.violations),
        )
        if new:
            self._rollback(action, new)
        if result.get("status") == "escalate":
            for follow in self.proposer.escalate(action):
                self._propose(follow)
        self.executed.append(
            {
                "action": action.to_dict(),
                "result": result,
                "pre": pre.to_dict(),
                "post": post.to_dict(),
                "new_violations": new,
            }
        )

    def _abandon(self, action: Action, now: float) -> None:
        self.escalations += 1
        self.counters.add("heal_escalations")
        self.journal.emit(
            "heal_rollback",
            action=action.kind,
            node=action.node_id,
            seq=action.seq,
            mode="abandon",
        )
        self._note(
            now, f"heal: abandoned {action.kind} on {action.node_id} "
            f"after {action.defers} deferrals"
        )

    def _rollback(self, action: Action, new_violations: list[str]) -> None:
        if action.reversible:
            self._undo(action)
            self.rollbacks += 1
            self.counters.add("heal_rollbacks")
            mode = "revert"
        else:
            self.escalations += 1
            self.counters.add("heal_escalations")
            mode = "escalate"
        self.journal.emit(
            "heal_rollback",
            action=action.kind,
            node=action.node_id,
            seq=action.seq,
            mode=mode,
            new_violations=len(new_violations),
        )

    # -------------------------------------------------------------- executors

    def _defer_needed(self, action: Action) -> bool:
        cluster = self.store.cluster
        if action.kind == "recover_log":
            # recovery re-encodes over the network; an open partition on the
            # target makes that impossible -- wait for the link to heal
            return not cluster.network.reachable(action.node_id)
        if action.kind in ("scheme_switch", "flush_logs"):
            node = cluster.log_nodes.get(action.node_id)
            return node is not None and not node.alive
        return False

    def _perform(self, action: Action, now: float) -> dict:
        handler = getattr(self, f"_do_{action.kind}")
        return handler(action, now)

    def _do_repair_node(self, action: Action, now: float) -> dict:
        cluster = self.store.cluster
        node = cluster.dram_nodes.get(action.node_id)
        if node is None or node.alive:
            return {"status": "noop"}
        if hasattr(self.store, "uptodate_logged_parity"):
            from repro.core.repair import repair_node

            try:
                result = repair_node(self.store, action.node_id, log_assist=True)
            except DataLossError as exc:
                self._note(now, f"heal: repair {action.node_id} FAILED: {exc}")
                return {"status": "failed", "error": type(exc).__name__}
            cluster.restore(action.node_id, now=self.clock.now)
            self._note(
                now,
                f"heal: repaired {action.node_id} "
                f"({result.chunks_repaired} chunks in "
                f"{result.repair_time_s * 1e3:.2f}ms)",
            )
            return {
                "status": "done",
                "duration_s": result.repair_time_s,
                "chunks": result.chunks_repaired,
                "log_assisted": result.log_assisted_stripes,
            }
        # baselines: a replacement node comes online with re-synced state
        cluster.restore(action.node_id, now=now)
        self._note(now, f"heal: replaced {action.node_id}")
        return {"status": "done", "duration_s": 0.0}

    def _do_recover_log(self, action: Action, now: float) -> dict:
        if not hasattr(self.store, "uptodate_logged_parity"):
            return {"status": "noop"}
        node = self.store.cluster.log_nodes.get(action.node_id)
        if node is None or (node.alive and not node.needs_recovery):
            return {"status": "noop"}
        from repro.core.recovery import recover_log_node

        report = recover_log_node(self.store, action.node_id)
        self._note(
            now,
            f"heal: recovered {action.node_id} "
            f"({report.parities_rebuilt} parities rebuilt)",
        )
        return {
            "status": "done",
            "duration_s": report.duration_s,
            "parities": report.parities_rebuilt,
        }

    def _do_observe(self, action: Action, now: float) -> dict:
        cluster = self.store.cluster
        node = cluster.dram_nodes.get(action.node_id) or cluster.log_nodes.get(
            action.node_id
        )
        if node is not None and not node.alive:
            # the grace period expired and the blip did not restore itself
            self._note(
                now, f"heal: {action.node_id} still down after grace; escalating"
            )
            return {"status": "escalate"}
        return {"status": "done"}

    def _do_traffic_backoff(self, action: Action, now: float) -> dict:
        f = self._widen(action.node_id)
        if f is None:
            return {"status": "noop"}
        self._note(now, f"heal: traffic backoff x{f:g} for {action.node_id}")
        return {"status": "done", "factor": f}

    def _do_release_backoff(self, action: Action, now: float) -> dict:
        f = self._narrow(action.node_id)
        if f is None:
            return {"status": "noop"}
        self._note(now, f"heal: traffic backoff released for {action.node_id}")
        return {"status": "done", "factor": f}

    def _do_scheme_switch(self, action: Action, now: float) -> dict:
        node = self.store.cluster.log_nodes.get(action.node_id)
        if node is None or not node.alive:
            return {"status": "noop"}
        counters = self.counters
        target = choose_log_scheme(
            node.scheme.name,
            sync_stalls=node.sync_flush_stalls,
            random_writes=counters["log_random_writes"],
            flush_records=counters["log_flush_records"],
        )
        if target == node.scheme.name:
            return {"status": "noop"}
        source = node.scheme.name
        duration = node.switch_scheme(target, self.clock.now)
        self._note(
            now, f"heal: {action.node_id} switched {source}->{target} "
            f"in {duration * 1e3:.2f}ms"
        )
        return {"status": "done", "duration_s": duration, "to": target}

    def _do_flush_logs(self, action: Action, now: float) -> dict:
        node = self.store.cluster.log_nodes.get(action.node_id)
        if node is None or not node.alive:
            return {"status": "noop"}
        duration = node.settle(self.clock.now)
        return {"status": "done", "duration_s": duration}

    # ------------------------------------------------------ backoff arithmetic

    def _widen(self, node_id: str) -> float | None:
        """Scale the retry policy's timeouts up for ``node_id``; returns the
        factor, or None without a policy or when already widened."""
        if self.policy is None or node_id in self._backoffs:
            return None
        f = BACKOFF_FACTOR
        self.policy.timeout_s *= f
        self.policy.backoff_base_s *= f
        self._backoffs[node_id] = f
        return f

    def _narrow(self, node_id: str) -> float | None:
        """Undo ``node_id``'s widening; returns the factor, or None."""
        f = self._backoffs.pop(node_id, None)
        if f is None or self.policy is None:
            return None
        self.policy.timeout_s /= f
        self.policy.backoff_base_s /= f
        return f

    def _undo(self, action: Action) -> None:
        if action.kind == "traffic_backoff":
            self._narrow(action.node_id)
        elif action.kind == "release_backoff":
            self._widen(action.node_id)

    # --------------------------------------------------------------- reporting

    def report(self) -> dict:
        """Deterministic summary of everything the plane did this run."""
        detector = self.detector
        return {
            "incidents": [i.to_dict() for i in (detector.incidents if detector else [])],
            "incidents_suppressed": detector.suppressed if detector else 0,
            "actions_proposed": len(self.proposer.proposed),
            "actions_executed": len(self.executed),
            "actions_deferred": self.scheduler.deferred,
            "rollbacks": self.rollbacks,
            "escalations": self.escalations,
            "backoffs_active": sorted(self._backoffs),
            "executed": self.executed,
        }

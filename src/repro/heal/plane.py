"""The control plane: one loop that detects, proposes, checks and executes.

:class:`ControlPlane` is the only piece that mutates cluster state.  The chaos
harness polls it from its event pump (every clock advance), so the plane
observes faults with the same visibility a real sidecar daemon would have:
the flight recorder, the counter bag and the node/link state -- never the
fault schedule itself.  Each poll

* **detects**: folds the journal events emitted since the last poll, plus
  log-node ``sync_flush_stalls`` movement (a degradation no single event
  announces), into typed :class:`~repro.heal.incidents.Incident`\\ s.  The
  cursor counts total emitted events, so ring eviction cannot skip any, and
  the plane's own ``heal_*`` traffic is never classified.  One incident per
  (kind, node) is open at a time; duplicates are suppressed and counted;
* **proposes**: answers each fresh incident from :data:`PLAYBOOK` and each
  resolved one from :data:`ON_RESOLVE`;
* **executes** what the per-node-FIFO
  :class:`~repro.heal.scheduler.ActionScheduler` releases, bracketed by two
  :func:`scoped_check` sweeps.

Execution protocol (what the journal shows for every action, matched by
``seq``)::

    heal_detect -> heal_propose -> heal_verify(pre) -> heal_execute
                                   -> heal_verify(post) [-> heal_rollback]

The gate is on *new* violations: pre-existing damage (the very incident being
repaired) never blocks its own remediation.  A reversible action (traffic
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

from repro.chaos.invariants import (
    check_durability,
    check_log_replay,
    check_parity_consistency,
)
from repro.chaos.policy import RetryPolicy
from repro.core.adaptive import choose_log_scheme
from repro.core.interface import DataLossError, KVStore
from repro.heal.incidents import Action, Incident
from repro.heal.scheduler import ActionScheduler

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
#: sample size of one scoped check: live keys, stripes, and logged parities
#: of the acted-on node each
CHECK_SAMPLE = 6

#: fault_inject kind -> incident kind.  A crash or blip on a *log* node is
#: ``stale_parity`` instead: its buffer is lost, its persisted log is stale.
FAULT_INCIDENTS = {
    "crash": "node_crash",
    "blip": "node_blip",
    "slow": "straggler",
    "partition": "partition",
    "stall": "disk_stall",
}

#: closing event -> incident kinds it resolves on its node; a ``fault_heal``
#: is keyed by the kind of fault that healed.  ``disk_stall`` and
#: ``buffer_overrun`` have no closing event: ``_detect`` resolves them by
#: time, and neither resolution retries the repairs waiting for one
CLOSERS = {
    "blip": ("node_blip", "stale_parity"),
    "slow": ("straggler",),
    "partition": ("partition",),
    "repair_done": ("node_crash", "node_blip"),
    "stale_recover": ("stale_parity",),
}

#: the repair playbook -- the chaos harness only injects faults: incident
#: kind -> (action kind, not-before rule).  The rule maps (incident, now) to
#: the action's earliest release; None releases it at once
PLAYBOOK = {
    # log-assisted rebuild (§5.3)
    "node_crash": ("repair_node", None),
    # a blip restores itself; still down after the grace, observe escalates
    "node_blip": ("observe", lambda inc, now: now + BLIP_GRACE_S),
    # re-encode the stale logged parities from DRAM (§3.3.2)
    "stale_parity": ("recover_log", None),
    # shedding pressure at the proxy is the only reversible lever against
    # pure degradation
    "straggler": ("traffic_backoff", None),
    "partition": ("traffic_backoff", None),
    # switching layouts mid-stall would pay the stall itself: wait for the
    # injected window to pass, then migrate (choose_log_scheme picks)
    "disk_stall": (
        "scheme_switch",
        lambda inc, now: now + inc.details.get("duration_s", 0.0),
    ),
    # settle the buffer so backpressure drains off the write path
    "buffer_overrun": ("flush_logs", None),
}

#: incident kind -> follow-ups once it resolves.  ``recover_log`` is only
#: proposed for a log node: it picks up the deltas a partition made it miss
#: (a no-op if nothing went stale; the one proposed at detection may have run
#: out of deferrals if the link stayed down long enough)
ON_RESOLVE = {
    "partition": ("recover_log", "release_backoff"),
    "straggler": ("release_backoff",),
}

#: action kind -> what it escalates to when it returns ``escalate``
ESCALATE = {"observe": "repair_node"}

#: reversible action kinds (``_undo`` knows how to revert each)
_REVERSIBLE = ("traffic_backoff", "release_backoff")

#: action kinds whose scoped check includes the log-replay sweep
_LOG_ACTIONS = ("flush_logs", "recover_log", "scheme_switch")


def scoped_check(store, action: Action, stage: str) -> dict:
    """One scoped invariant sweep around ``action`` (``stage`` "pre"/"post").

    Scoped because the full sweep reconstructs every object and verifies
    every stripe, which would dwarf the action being checked: durability on
    the first :data:`CHECK_SAMPLE` live keys, parity consistency on the first
    :data:`CHECK_SAMPLE` stripes and, for log-affecting actions, log replay
    on up to :data:`CHECK_SAMPLE` parities of the acted-on node.  The
    checkers reuse the stores' real read machinery and so perturb cost
    counters; that perturbation is deterministic and part of the seeded run.
    """
    check = {
        "stage": stage,
        "objects_checked": 0,
        "stripes_checked": 0,
        "parities_checked": 0,
        "violations": [],
    }
    if not hasattr(store, "stripe_index"):
        return check  # baselines without striped machinery: nothing checkable
    keys = sorted(k for k in store.versions if k not in store.deleted)
    check["objects_checked"], found = check_durability(store, keys[:CHECK_SAMPLE])
    check["stripes_checked"], more = check_parity_consistency(
        store, limit=CHECK_SAMPLE
    )
    found += more
    if action.kind in _LOG_ACTIONS:
        check["parities_checked"], more = check_log_replay(
            store, node_id=action.node_id, limit=CHECK_SAMPLE
        )
        found += more
    check["violations"] = sorted(x.describe() for x in found)
    return check


class ControlPlane:
    """Autonomous remediation loop over one store's cluster."""

    def __init__(self):
        self.scheduler = ActionScheduler(min_gap_s=MIN_GAP_S, max_defers=MAX_DEFERS)
        self.store: KVStore | None = None
        self.policy: RetryPolicy | None = None
        self._note = lambda when, text: None
        self._busy = False
        self._backoffs: dict[str, float] = {}
        #: journal cursor in total-emitted-event space (survives ring eviction)
        self._seen = 0
        #: last-seen sync_flush_stalls per log node (a crash resets the field)
        self._stall_marks: dict[str, int] = {}
        #: the open incident per (kind, node); resolving one removes it
        self._open: dict[tuple[str, str], Incident] = {}
        self.incidents: list[Incident] = []
        self.suppressed = 0
        #: actions proposed so far, which is also the next action's seq
        self.proposed = 0
        self.executed: list[dict] = []
        self.rollbacks = 0
        self.escalations = 0
        #: (node, incident kind) of DRAM repairs that could not gather k
        #: chunks: more than r sources were out at once, so they wait for a
        #: closing event -- one more source may be back -- and are retried
        self._unrepaired: list[tuple[str, str]] = []

    # ------------------------------------------------------------------ wiring

    def attach(self, store: KVStore, policy: RetryPolicy | None = None, note=None):
        """Bind to a store's cluster (once, before the run starts)."""
        if self.store is not None:
            raise RuntimeError("control plane is already attached")
        self.store = store
        cluster = store.cluster
        self.clock, self.journal, self.counters = cluster.clock, cluster.journal, cluster.counters
        self._seen = sum(self.journal.counts.values())
        self._stall_marks = {
            nid: node.sync_flush_stalls for nid, node in cluster.log_nodes.items()
        }
        self.policy = policy
        if note is not None:
            self._note = note
        return self

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
            fresh, resolved, closed = self._detect(now)
            for inc in fresh:
                self.journal.emit(
                    "heal_detect", kind=inc.kind, node=inc.node_id, seq=inc.seq
                )
                self._note(now, f"heal: detected {inc.kind} on {inc.node_id}")
                kind, rule = PLAYBOOK[inc.kind]
                self._propose(kind, inc.node_id, inc.kind, rule(inc, now) if rule else 0.0)
            for inc in resolved:
                for kind in ON_RESOLVE.get(inc.kind, ()):
                    if kind != "recover_log" or inc.node_id in self.store.cluster.log_nodes:
                        self._propose(kind, inc.node_id, inc.kind)
            if closed:
                retry, self._unrepaired = self._unrepaired, []
                for node_id, incident_kind in retry:
                    self._propose("repair_node", node_id, incident_kind)
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

    # -------------------------------------------------------------- detection

    def _detect(self, now: float) -> tuple[list[Incident], list[Incident], bool]:
        """Classify everything new; returns (fresh incidents, resolutions,
        whether any closing event -- a node or link back -- was seen)."""
        fresh: list[Incident] = []
        resolved: list[Incident] = []
        closed = False
        cluster = self.store.cluster
        # a stall announces no end: it resolves once its injected window has
        # passed (the rule analysis/timeline closes a stall window by)
        for inc in [i for i in self._open.values() if i.kind == "disk_stall"]:
            if now >= inc.details["at_s"] + inc.details["duration_s"]:
                resolved += self._resolve(inc.key, now)
        for ev in self._fresh_events():
            kind, attrs = ev.kind, ev.attrs
            if kind == "fault_inject":
                fkind = attrs["kind"]
                if attrs["node"] in cluster.log_nodes and fkind in ("crash", "blip"):
                    ikind = "stale_parity"
                else:
                    ikind = FAULT_INCIDENTS[fkind]
                fresh += self._raise(ikind, attrs["node"], now, fault=fkind, at_s=ev.t_s,
                                     duration_s=attrs.get("duration_s", 0.0),
                                     magnitude=attrs.get("magnitude", 0.0))
            elif kind == "stale_mark" and attrs.get("reason") == "missed_delta":
                fresh += self._raise(
                    "stale_parity", attrs["node"], now, fault="missed_delta", at_s=ev.t_s
                )
            else:
                closer = attrs.get("kind") if kind == "fault_heal" else kind
                node = attrs.get("node", "_cluster")
                closed = closed or closer in CLOSERS
                for ikind in CLOSERS.get(closer, ()):
                    resolved += self._resolve((ikind, node), now)

        # counter-derived detection: backpressure stalls between polls; a
        # poll that sees none ends the node's overrun
        for nid in sorted(cluster.log_nodes):
            last = self._stall_marks.get(nid, 0)
            cur = cluster.log_nodes[nid].sync_flush_stalls
            self._stall_marks[nid] = cur
            if cur > last:
                fresh += self._raise("buffer_overrun", nid, now, stalls=cur - last)
            else:
                resolved += self._resolve(("buffer_overrun", nid), now)
        return fresh, resolved, closed

    def _fresh_events(self):
        """Journal events emitted since the last poll, heal_* excluded."""
        total = sum(self.journal.counts.values())
        new = total - self._seen
        self._seen = total
        if new <= 0:
            return []
        retained = self.journal.events()
        return [
            ev
            for ev in retained[max(0, len(retained) - new) :]
            if not ev.kind.startswith("heal_")
        ]

    def _resolve(self, key: tuple[str, str], now: float) -> list[Incident]:
        """Close the open incident for ``key`` (kind, node), if there is one."""
        inc = self._open.pop(key, None)
        if inc is None:
            return []
        inc.resolved = True
        inc.resolved_s = now
        return [inc]

    def _raise(self, kind: str, node: str, now: float, **details) -> list[Incident]:
        """Open an incident, or suppress it while one for (kind, node) is open."""
        if (kind, node) in self._open:
            self.suppressed += 1
            self.counters.add("heal_incidents_suppressed")
            return []
        inc = Incident(kind, node, detected_s=now, seq=len(self.incidents), details=details)
        self._open[inc.key] = inc
        self.incidents.append(inc)
        self.counters.add("heal_incidents")
        return [inc]

    # ------------------------------------------------------------ the pipeline

    def _emit(self, event: str, action: Action, **attrs) -> None:
        self.journal.emit(
            event, action=action.kind, node=action.node_id, seq=action.seq, **attrs
        )

    def _propose(
        self, kind: str, node_id: str, incident_kind: str, not_before_s: float = 0.0
    ) -> None:
        action = Action(kind, node_id, seq=self.proposed, incident_kind=incident_kind,
                        not_before_s=not_before_s, reversible=kind in _REVERSIBLE)
        self.proposed += 1
        self._emit("heal_propose", action, incident=incident_kind, not_before_s=not_before_s)
        self.scheduler.push(action)

    def _execute(self, action: Action, now: float) -> None:
        if self._defer_needed(action):
            self.counters.add("heal_actions_deferred")
            if not self.scheduler.defer(action, now + DEFER_BACKOFF_S):
                self._abandon(action, now)
            return
        pre = scoped_check(self.store, action, "pre")
        self._emit("heal_verify", action, stage="pre", ok=not pre["violations"],
                   violations=len(pre["violations"]))
        result = getattr(self, f"_do_{action.kind}")(action, now)
        self.counters.add("heal_actions_executed")
        self._emit("heal_execute", action, **result)
        post = scoped_check(self.store, action, "post")
        before = set(pre["violations"])
        new = [x for x in post["violations"] if x not in before]
        self._emit("heal_verify", action, stage="post", ok=not new,
                   violations=len(post["violations"]))
        if new:
            self._rollback(action, new)
        if result.get("status") == "escalate" and action.kind in ESCALATE:
            self._propose(ESCALATE[action.kind], action.node_id, action.incident_kind)
        self.executed.append(
            {
                "action": action.to_dict(),
                "result": result,
                "pre": pre,
                "post": post,
                "new_violations": new,
            }
        )

    def _abandon(self, action: Action, now: float) -> None:
        self.escalations += 1
        self.counters.add("heal_escalations")
        self._emit("heal_rollback", action, mode="abandon")
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
        self._emit(
            "heal_rollback", action, mode=mode, new_violations=len(new_violations)
        )

    # -------------------------------------------------------------- executors

    def _defer_needed(self, action: Action) -> bool:
        # recovery re-encodes over the network; an open partition on the
        # target makes that impossible -- wait for the link to heal.  Nothing
        # else waits: a scheme_switch or flush_logs whose log node is down
        # resolves noop at once, since deferring it would hold that node's
        # recover_log behind it (per-node FIFO)
        return action.kind == "recover_log" and not self.store.cluster.network.reachable(
            action.node_id
        )

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
                self._unrepaired.append((action.node_id, action.incident_kind))
                self._note(now, f"heal: repair {action.node_id} FAILED: {exc}")
                return {"status": "failed", "error": type(exc).__name__}
            # the node rejoins once the rebuild finishes: its downtime
            # includes the repair window
            cluster.restore(action.node_id, now=now + result.repair_time_s)
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
        return {
            "incidents": [i.to_dict() for i in self.incidents],
            "incidents_suppressed": self.suppressed,
            "actions_proposed": self.proposed,
            "actions_executed": len(self.executed),
            "actions_deferred": self.scheduler.deferred,
            "rollbacks": self.rollbacks,
            "escalations": self.escalations,
            "backoffs_active": sorted(self._backoffs),
            "executed": self.executed,
        }

"""Stage 2: map classified incidents to remediation action plans.

The mapping is the whole repair playbook -- the chaos harness only injects
faults -- plus the adaptive pieces this subsystem adds:

* ``node_crash``     -> ``repair_node`` (log-assisted rebuild, §5.3);
* ``node_blip``      -> ``observe`` after a grace period -- a blip restores
  itself; if the node is still down when the grace expires, the observation
  escalates to a ``repair_node``;
* ``stale_parity``   -> ``recover_log`` (re-encode from DRAM, §3.3.2);
* ``straggler`` / ``partition`` -> ``traffic_backoff`` (widen the proxy's
  retry knobs, reversible); resolution proposes the matching
  ``release_backoff``, and a healed *log-node* partition first proposes a
  ``recover_log`` for the deltas it missed (a no-op if nothing went stale;
  the one proposed at detection ran out of deferrals if the link stayed
  down long enough);
* ``disk_stall``     -> ``scheme_switch`` once the stall window has passed,
  target layout chosen by :func:`repro.core.adaptive.choose_log_scheme`;
* ``buffer_overrun`` -> ``flush_logs`` (settle the buffer so backpressure
  drains off the write path).
"""

from __future__ import annotations

from repro.heal.incidents import Action, Incident


class Proposer:
    """Incident -> ordered action plan; owns the global action sequence."""

    def __init__(self, blip_grace_s: float = 2e-3):
        self.blip_grace_s = blip_grace_s
        self._seq = 0
        self.proposed: list[Action] = []
        #: the cluster's log-node ids, set when the plane attaches
        self.log_nodes: frozenset[str] = frozenset()

    def _action(self, kind: str, incident: Incident, **kwargs) -> Action:
        action = Action(
            kind=kind,
            node_id=incident.node_id,
            seq=self._seq,
            incident_kind=incident.kind,
            **kwargs,
        )
        self._seq += 1
        self.proposed.append(action)
        return action

    def propose(self, incident: Incident, now: float) -> list[Action]:
        kind = incident.kind
        if kind == "node_crash":
            return [self._action("repair_node", incident)]
        if kind == "node_blip":
            return [
                self._action(
                    "observe", incident, not_before_s=now + self.blip_grace_s
                )
            ]
        if kind == "stale_parity":
            return [self._action("recover_log", incident)]
        if kind in ("straggler", "partition", "slo_burn"):
            # slo_burn shares the backoff playbook: shedding pressure at the
            # proxy is the only reversible lever against pure degradation
            return [self._action("traffic_backoff", incident, reversible=True)]
        if kind == "disk_stall":
            # switching layouts mid-stall would pay the stall itself; wait
            # for the injected window to pass, then migrate
            delay = incident.details.get("duration_s", 0.0)
            return [
                self._action("scheme_switch", incident, not_before_s=now + delay)
            ]
        if kind == "buffer_overrun":
            return [self._action("flush_logs", incident)]
        raise ValueError(f"unhandled incident kind {kind!r}")  # pragma: no cover

    def on_resolved(self, incident: Incident, now: float) -> list[Action]:
        """Follow-up actions once an incident's fault healed."""
        plan = []
        if incident.kind == "partition" and incident.node_id in self.log_nodes:
            plan.append(self._action("recover_log", incident))
        if incident.kind in ("straggler", "partition", "slo_burn"):
            plan.append(self._action("release_backoff", incident, reversible=True))
        return plan

    def escalate(self, action: Action) -> list[Action]:
        """What a failed/expired action escalates to (may be nothing)."""
        if action.kind == "observe":
            follow = Action(
                kind="repair_node",
                node_id=action.node_id,
                seq=self._seq,
                incident_kind=action.incident_kind,
            )
            self._seq += 1
            self.proposed.append(follow)
            return [follow]
        return []

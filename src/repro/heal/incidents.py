"""Typed incident and action taxonomies for the self-healing control plane.

An :class:`Incident` is a *classified degradation*: the control plane
reduces raw journal events and counter movements to one of
:data:`INCIDENT_KINDS`.  An :class:`Action` is one *remediation step* its
playbook derived from an incident; the scheduler orders actions and the plane
executes them under scoped invariant checks.  Both taxonomies are closed
tuples declared in :mod:`repro.obs.names` (beside ``EVENT_KINDS``):
constructors reject unknown kinds so a typo in the plane's tables is a test
failure, not a silently-new category.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.names import ACTION_KINDS, INCIDENT_KINDS



@dataclass
class Incident:
    """One classified degradation, keyed by (kind, node) for deduplication."""

    kind: str
    node_id: str
    detected_s: float
    seq: int
    details: dict = field(default_factory=dict)
    resolved: bool = False
    resolved_s: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in INCIDENT_KINDS:
            raise ValueError(
                f"unknown incident kind {self.kind!r}; taxonomy: {INCIDENT_KINDS}"
            )

    @property
    def key(self) -> tuple[str, str]:
        return (self.kind, self.node_id)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "node": self.node_id,
            "detected_s": round(self.detected_s, 9),
            "seq": self.seq,
            "details": {
                k: round(v, 9) if isinstance(v, float) else v
                for k, v in sorted(self.details.items())
            },
            "resolved": self.resolved,
            "resolved_s": (
                round(self.resolved_s, 9) if self.resolved_s is not None else None
            ),
        }


@dataclass
class Action:
    """One remediation step; ``seq`` is the global proposal order the
    scheduler must preserve per node."""

    kind: str
    node_id: str
    seq: int
    incident_kind: str = ""
    not_before_s: float = 0.0
    reversible: bool = False
    details: dict = field(default_factory=dict)
    defers: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ACTION_KINDS:
            raise ValueError(
                f"unknown action kind {self.kind!r}; taxonomy: {ACTION_KINDS}"
            )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "node": self.node_id,
            "seq": self.seq,
            "incident": self.incident_kind,
            "not_before_s": round(self.not_before_s, 9),
            "reversible": self.reversible,
            "defers": self.defers,
            "details": {
                k: round(v, 9) if isinstance(v, float) else v
                for k, v in sorted(self.details.items())
            },
        }

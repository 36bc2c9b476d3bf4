"""Stage 3: invariant gating around every executed action.

Each action is bracketed by two *scoped* invariant sweeps built from the
checkers in :mod:`repro.chaos.invariants` -- scoped because the full sweep
reconstructs every object and verifies every stripe, which would dwarf the
action being verified.  A :class:`Verification` samples:

* durability on the first :data:`VERIFY_KEYS` live keys (degraded
  reconstruction end to end);
* parity consistency on the first :data:`VERIFY_STRIPES` stripes;
* log replay on up to :data:`VERIFY_PARITIES` logged parities *of the
  acted-on node* (only for log-affecting actions).

The gate compares violation *sets*: an action fails verification only if the
post-check shows violations the pre-check did not -- pre-existing damage
(e.g. the very incident being repaired) never blocks its own remediation.
The checkers reuse the stores' real read machinery and so perturb cost
counters; that perturbation is deterministic and is part of the seeded run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chaos.invariants import (
    check_durability,
    check_log_replay,
    check_parity_consistency,
)
from repro.heal.incidents import Action

#: action kinds whose verification includes the log-replay check
_LOG_ACTIONS = ("flush_logs", "recover_log", "scheme_switch")

#: sample sizes of one scoped sweep
VERIFY_KEYS = 6
VERIFY_STRIPES = 6
VERIFY_PARITIES = 6


@dataclass
class Verification:
    """One scoped invariant sweep around an action."""

    stage: str  # "pre" | "post"
    objects_checked: int = 0
    stripes_checked: int = 0
    parities_checked: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "objects_checked": self.objects_checked,
            "stripes_checked": self.stripes_checked,
            "parities_checked": self.parities_checked,
            "violations": sorted(self.violations),
        }


class Verifier:
    """Scoped pre/post invariant checks with a new-violation gate."""

    def check(self, store, action: Action, stage: str) -> Verification:
        v = Verification(stage=stage)
        if not hasattr(store, "stripe_index"):
            return v  # baselines without striped machinery: nothing checkable
        keys = sorted(k for k in store.versions if k not in store.deleted)
        v.objects_checked, found = check_durability(store, keys[:VERIFY_KEYS])
        v.stripes_checked, more = check_parity_consistency(store, limit=VERIFY_STRIPES)
        found += more
        if action.kind in _LOG_ACTIONS:
            v.parities_checked, more = check_log_replay(
                store, node_id=action.node_id, limit=VERIFY_PARITIES
            )
            found += more
        v.violations = [x.describe() for x in found]
        return v

    @staticmethod
    def new_violations(pre: Verification, post: Verification) -> list[str]:
        """Violations the action *introduced* (present post, absent pre)."""
        before = set(pre.violations)
        return sorted(x for x in post.violations if x not in before)

"""Stage 4: rate-limited action scheduling that cannot starve the workload.

The scheduler holds proposed actions in global proposal order (``seq``) and
releases at most one per ``min_gap_s`` of simulated time, so remediation IO
interleaves with foreground requests instead of monopolising the clock.  Two
ordering guarantees hold no matter how actions are deferred or delayed:

* **per-node FIFO** -- an action for node N never runs before an earlier
  (lower-seq) still-queued action for N.  ``next_ready`` scans in seq order
  and *blocks* a node the moment it passes over one of its actions, so a
  later same-node action can never overtake (the hypothesis property test
  drives this);
* **deferral keeps the slot** -- a deferred action re-enters at its original
  seq with a later ``not_before_s``, so deferral delays a node's plan without
  reordering it.
"""

from __future__ import annotations

import math
from bisect import insort

from repro.heal.incidents import Action


class ActionScheduler:
    """Seq-ordered queue with a minimum simulated-time gap between releases."""

    def __init__(self, min_gap_s: float = 5e-4, max_defers: int = 8):
        if min_gap_s < 0:
            raise ValueError(f"min_gap_s must be >= 0, got {min_gap_s}")
        self.min_gap_s = min_gap_s
        self.max_defers = max_defers
        self._queue: list[tuple[int, Action]] = []  # kept sorted by seq
        self._last_release_s = -math.inf
        self.deferred = 0

    def __len__(self) -> int:
        return len(self._queue)

    def push(self, action: Action) -> None:
        insort(self._queue, (action.seq, action))

    def next_ready(self, now: float) -> Action | None:
        """Pop the first runnable action, or None.

        Runnable = its ``not_before_s`` has passed, the rate gap since the
        last release has elapsed, and no earlier action for the same node is
        still queued ahead of it."""
        if now - self._last_release_s < self.min_gap_s:
            return None
        blocked: set[str] = set()
        for i, (_, action) in enumerate(self._queue):
            if action.node_id in blocked:
                continue
            if action.not_before_s <= now:
                del self._queue[i]
                self._last_release_s = now
                return action
            blocked.add(action.node_id)
        return None

    def defer(self, action: Action, until_s: float) -> bool:
        """Re-queue at the original seq with a later release time.

        Returns False once the action has exhausted ``max_defers`` -- the
        caller must escalate instead of queueing it again."""
        action.defers += 1
        self.deferred += 1
        if action.defers > self.max_defers:
            return False
        action.not_before_s = until_s
        self.push(action)
        return True

    def next_release_s(self, now: float) -> float:
        """Earliest simulated time anything could become runnable (for the
        end-of-run quiesce loop); ``inf`` when the queue is empty."""
        if not self._queue:
            return math.inf
        earliest = min(a.not_before_s for _, a in self._queue)
        return max(earliest, self._last_release_s + self.min_gap_s, now)

"""Proxy-side robustness policies: timeouts, bounded retries, degraded reads.

The stores already *contain* the degraded mechanisms (XOR fast path, RS
decode from survivors, logged-parity escalation); what a production proxy
adds on top is the *policy* around them:

* reads against a down/partitioned/straggling node take the degraded path
  (the store decides via :meth:`~repro.core.striped.StripedStoreBase.read`);
  when the proxy only discovers the problem by timing out -- partition or
  straggler, as opposed to a failure-detector notification -- the timeout
  itself lands on the request's critical path;
* writes/updates that hit an unavailable node retry with exponential
  backoff + seeded jitter, bounded by ``max_retries``; transient faults heal
  between attempts (the harness advances simulated time during backoff),
  permanent ones exhaust the budget and the op is *not* acked.

Every acked op's result is real: an op is counted lost only if it was acked
and later becomes unrecoverable -- the invariant the checker enforces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.bench.runner import apply
from repro.core.interface import (
    DataLossError,
    KVStore,
    OpResult,
    StoreUnavailableError,
)
from repro.obs.events import NULL_JOURNAL
from repro.sim.network import LinkDownError
from repro.workloads.ycsb import Request

#: degraded reasons the proxy only learns about by timing out
TIMEOUT_REASONS = ("link_down", "slow_node")

#: the errors a retry can plausibly outlast: unavailability (node down,
#: link partitioned, no placement -- ChunkUnavailableError and the
#: write-path errors are StoreUnavailableError subtypes/instances) and
#: too-many-chunks-missing, which a healing blip can also undo.  Anything
#: else (KeyError, a genuine internal bug) propagates: converting it into
#: silent retries would hide defects in the run.
RETRYABLE_ERRORS = (LinkDownError, DataLossError, StoreUnavailableError)


@dataclass
class RetryPolicy:
    """Bounded retries with exponential backoff and seeded jitter."""

    timeout_s: float = 2e-3          # GET timeout before declaring a node slow/gone
    max_retries: int = 4
    backoff_base_s: float = 1e-3
    backoff_cap_s: float = 16e-3
    jitter_fraction: float = 0.25    # uniform +/- fraction of the nominal backoff
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if not 0 <= self.jitter_fraction <= 1:
            raise ValueError(
                f"jitter_fraction must be in [0, 1], got {self.jitter_fraction}"
            )
        self._rng = np.random.default_rng(self.seed)

    def backoff_s(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (0-based), jittered, capped."""
        nominal = min(self.backoff_base_s * (2.0**attempt), self.backoff_cap_s)
        if self.jitter_fraction == 0:
            return nominal
        spread = self.jitter_fraction * nominal
        return float(nominal + self._rng.uniform(-spread, spread))


@dataclass
class OpOutcome:
    """What the proxy reports for one request under chaos.

    ``latency_s`` is the client-observed latency and *includes* ``waited_s``,
    the backoff time spent between attempts.  The driver already advances the
    simulated clock during each backoff (via the proxy's ``wait`` hook), so
    it must advance only ``latency_s - waited_s`` when the op completes --
    otherwise every retry's wait would be counted twice."""

    op: str
    key: str
    acked: bool
    latency_s: float
    waited_s: float = 0.0
    degraded: bool = False
    degraded_reason: str | None = None
    retries: int = 0
    error: str | None = None
    result: OpResult | None = field(default=None, repr=False)
    #: simulated time the proxy started the op (for fault-window attribution)
    at_s: float = 0.0

    @property
    def service_s(self) -> float:
        """Latency excluding backoff waits: what still has to elapse on the
        clock once the proxy stops sleeping."""
        return max(0.0, self.latency_s - self.waited_s)


class RobustProxy:
    """Executes requests against a store with retry/timeout/degraded policy.

    ``wait`` is called with every backoff interval so the driver can advance
    simulated time (and fire scheduled fault endings) while the proxy sleeps
    -- this is what lets a blip heal between two attempts.
    """

    def __init__(
        self,
        store: KVStore,
        policy: RetryPolicy | None = None,
        wait: Callable[[float], None] | None = None,
    ):
        self.store = store
        self.policy = policy or RetryPolicy()
        self.wait = wait or (lambda dt: None)
        cluster = getattr(store, "cluster", None)
        self._clock = None if cluster is None else cluster.clock
        self.journal = NULL_JOURNAL if cluster is None else cluster.journal
        self.retries = 0
        self.timeouts = 0
        self.degraded_served = 0
        self.failed_ops = 0

    def execute(self, req: Request) -> OpOutcome:
        policy = self.policy
        waited_s = 0.0
        error: Exception | None = None
        started_s = 0.0 if self._clock is None else self._clock.now
        for attempt in range(policy.max_retries + 1):
            try:
                res = apply(self.store, req)
            except RETRYABLE_ERRORS as exc:
                error = exc
                if attempt == policy.max_retries:
                    break
                backoff = policy.backoff_s(attempt)
                waited_s += backoff
                self.retries += 1
                self.journal.emit(
                    "retry",
                    op=req.op.value,
                    key=req.key,
                    attempt=attempt,
                    error=type(exc).__name__,
                )
                self.journal.emit(
                    "backoff",
                    op=req.op.value,
                    key=req.key,
                    attempt=attempt,
                    backoff_s=backoff,
                )
                self.wait(backoff)  # faults may heal while the proxy sleeps
                continue
            latency = res.latency_s + waited_s
            reason = res.info.get("degraded_reason")
            if res.degraded:
                self.degraded_served += 1
                if reason in TIMEOUT_REASONS:
                    # the proxy only found out by timing out the normal GET
                    self.timeouts += 1
                    latency += policy.timeout_s
            return OpOutcome(
                op=req.op.value,
                key=req.key,
                acked=True,
                latency_s=latency,
                waited_s=waited_s,
                degraded=res.degraded,
                degraded_reason=reason,
                retries=attempt,
                result=res,
                at_s=started_s,
            )
        self.failed_ops += 1
        return OpOutcome(
            op=req.op.value,
            key=req.key,
            acked=False,
            latency_s=waited_s,
            waited_s=waited_s,
            retries=policy.max_retries,
            error=f"{type(error).__name__}: {error}",
            at_s=started_s,
        )

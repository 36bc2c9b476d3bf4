"""Invariant checkers: what must hold no matter which faults fired.

Three properties, straight from the paper's correctness argument:

1. **Acked durability** -- every object whose write/update was acknowledged
   is reconstructible, bit-exactly, from the chunks that are *currently
   reachable* (live DRAM survivors, escalating to up-to-date logged
   parities).  This is the MDS property plus parity-logging consistency,
   checked end to end.
2. **Stripe parity consistency** -- each stripe's DRAM-resident parity
   chunks equal a fresh encode of its data chunks (in-place updates touched
   data and XOR parity together; repair must preserve this).
3. **Log replay** -- for every logged parity on a live log node, replaying
   base + deltas (disk state overlaid with the DRAM buffer) reproduces the
   same bytes a fresh encode gives (§3.3.2's crash-consistency claim).

Checks use the stores' real reconstruction machinery, so a bug in the
degraded path is itself a violation, not a silent pass.  They mutate cost
counters/disk stats as a side effect; run them after metrics are captured.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.interface import KVStore


@dataclass
class InvariantViolation:
    """One broken invariant, with enough detail to debug the run."""

    kind: str     # "unrecoverable" | "mismatch" | "parity_inconsistent" | "log_replay"
    subject: str  # key or stripe id
    detail: str

    def describe(self) -> str:
        return f"[{self.kind}] {self.subject}: {self.detail}"


@dataclass
class InvariantReport:
    """Outcome of one full invariant sweep."""

    objects_checked: int = 0
    stripes_checked: int = 0
    logged_parities_checked: int = 0
    violations: list[InvariantViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "objects_checked": self.objects_checked,
            "stripes_checked": self.stripes_checked,
            "logged_parities_checked": self.logged_parities_checked,
            "violations": [v.describe() for v in self.violations],
        }


def _reconstruct(store: KVStore, key: str) -> np.ndarray:
    """Rebuild ``key``'s bytes from currently-reachable chunks only.

    A healthy home node serves its own chunk directly; otherwise the object
    is decoded from reachable DRAM survivors, escalating to logged parities,
    through the store's own survivor-selection helpers.
    """
    sid, seq, node_id, chunk, slot = store._locate(key)
    if sid is None:
        # unsealed: replicated proxy buffer is the ground truth
        return chunk.read_slot(slot).copy()
    if store._degraded_reason(node_id) is None:
        return chunk.read_slot(slot).copy()
    k = store.cfg.k
    available = store._available_dram_chunks(sid, exclude={seq})
    fetch = dict(list(available.items())[:k])
    if len(fetch) < k:
        _, logged = store._fetch_logged_parities(sid, k - len(fetch), exclude={seq})
        fetch.update(logged)
    if len(fetch) < k:
        raise RuntimeError(
            f"only {len(fetch)} of k={k} chunks reachable for stripe {sid}"
        )
    rebuilt = store.code.decode(fetch, wanted=[seq])[seq]
    return rebuilt[slot.phys_offset : slot.phys_end].copy()


def check_durability(
    store: KVStore, keys: list[str] | None = None
) -> tuple[int, list[InvariantViolation]]:
    """Invariant 1: every live object reconstructs to its expected bytes."""
    if keys is None:
        keys = sorted(k for k in store.versions if k not in store.deleted)
    violations: list[InvariantViolation] = []
    checked = 0
    for key in keys:
        if key in store.deleted or key not in store.versions:
            continue
        checked += 1
        expected = store.expected_value(key)
        try:
            actual = _reconstruct(store, key)
        except Exception as exc:
            violations.append(
                InvariantViolation("unrecoverable", key, f"{type(exc).__name__}: {exc}")
            )
            continue
        if not np.array_equal(actual, expected):
            violations.append(
                InvariantViolation(
                    "mismatch", key, "reconstructed bytes differ from acked version"
                )
            )
    return checked, violations


def check_parity_consistency(
    store: KVStore, limit: int | None = None
) -> tuple[int, list[InvariantViolation]]:
    """Invariant 2: DRAM parity chunks match a fresh encode per stripe
    (the first ``limit`` stripes; every stripe by default)."""
    violations: list[InvariantViolation] = []
    checked = 0
    for sid in sorted(store.stripe_index.stripe_ids())[:limit]:
        checked += 1
        if not store.verify_stripe(sid):
            violations.append(
                InvariantViolation(
                    "parity_inconsistent",
                    f"stripe {sid}",
                    "DRAM parity != encode(data chunks)",
                )
            )
    return checked, violations


def check_log_replay(
    store: KVStore, node_id: str | None = None, limit: int | None = None
) -> tuple[int, list[InvariantViolation]]:
    """Invariant 3: logged parities replay to the up-to-date encode.

    ``node_id`` scopes the sweep to one log node's parities and ``limit``
    stops it after that many (the heal plane's ``scoped_check`` brackets an action with six
    on the acted-on node; ``check_store`` sweeps everything)."""
    if not hasattr(store, "uptodate_logged_parity"):
        return 0, []
    cfg = store.cfg
    violations: list[InvariantViolation] = []
    checked = 0
    for sid in sorted(store.stripe_index.stripe_ids()):
        rec = store.stripe_index.get(sid)
        fresh = None  # encoded once per stripe, and only if a parity is checked
        for j in range(1, cfg.r):
            nid = rec.chunk_nodes[cfg.k + j]
            node = store.cluster.log_nodes.get(nid)
            if node_id is not None and nid != node_id:
                continue
            if node is None or not node.alive:
                continue  # a down log node has nothing to replay
            if checked == limit:
                return checked, violations
            checked += 1
            if fresh is None:
                fresh = store.fresh_parities(sid)
            detail = None
            try:
                if not np.array_equal(store.uptodate_logged_parity(sid, j), fresh[j]):
                    detail = "replayed parity != encode(data chunks)"
            except Exception as exc:
                detail = f"replay failed: {type(exc).__name__}: {exc}"
            if detail is not None:
                violations.append(
                    InvariantViolation("log_replay", f"stripe {sid} parity {j}", detail)
                )
    return checked, violations


def check_store(store: KVStore) -> InvariantReport:
    """Run every applicable invariant; stores without stripes (vanilla,
    replication) only get the durability check when they expose the striped
    machinery, otherwise the sweep is empty."""
    report = InvariantReport()
    if hasattr(store, "stripe_index"):
        report.objects_checked, v1 = check_durability(store)
        report.stripes_checked, v2 = check_parity_consistency(store)
        report.logged_parities_checked, v3 = check_log_replay(store)
        report.violations = v1 + v2 + v3
    return report

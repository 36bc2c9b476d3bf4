"""Stripe scrubbing: background consistency verification.

A scrubber walks every stripe and re-derives the parity set from the data
chunks, comparing against what the DRAM nodes and log nodes actually hold
(including materialising logged parities through base-chunk + delta replay).
Production erasure-coded stores run this continuously; here it doubles as
the end-to-end integrity oracle for the fuzz/integration tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class ScrubReport:
    """Outcome of one scrub pass."""

    stripes_checked: int = 0
    parities_checked: int = 0
    mismatches: list[tuple[int, int]] = field(default_factory=list)  # (stripe, parity)
    skipped_unavailable: int = 0

    @property
    def clean(self) -> bool:
        return not self.mismatches


def scrub(store) -> ScrubReport:
    """Verify every reachable stripe of a striped store.

    ``store`` is any :class:`~repro.core.striped.StripedStoreBase`.  Parities
    on failed nodes are skipped (counted in ``skipped_unavailable``); for
    LogECMem, logged parities are materialised through the log nodes' real
    read path.
    """
    report = ScrubReport()
    cfg = store.cfg
    for sid in sorted(store.stripe_index.stripe_ids()):
        rec = store.stripe_index.get(sid)
        expect = store.fresh_parities(sid)
        report.stripes_checked += 1
        for j in range(cfg.r):
            logged = (sid, j) not in store.parity_chunks  # lives at a log node
            nodes = store.cluster.log_nodes if logged else store.cluster.dram_nodes
            node = nodes.get(rec.chunk_nodes[cfg.k + j])
            if node is None or not node.alive:
                report.skipped_unavailable += 1
                continue
            report.parities_checked += 1
            try:
                stored = (
                    store.uptodate_logged_parity(sid, j)
                    if logged
                    else store.parity_chunks[(sid, j)]
                )
            except KeyError:
                # base parity lost (e.g. buffer crash before first flush)
                report.mismatches.append((sid, j))
                continue
            if not np.array_equal(stored, expect[j]):
                report.mismatches.append((sid, j))
    store.cluster.journal.emit(
        "scrub_pass",
        stripes_checked=report.stripes_checked,
        parities_checked=report.parities_checked,
        mismatches=len(report.mismatches),
        skipped_unavailable=report.skipped_unavailable,
    )
    return report

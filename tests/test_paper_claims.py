"""The paper's headline claims as a tier-1 gate (ROADMAP item 2(e)).

``analysis.paper_check.verify_all`` runs the scaled experiments once and
holds each who-wins / crossover number against the paper's with a tolerance;
a perf or design refactor that bends one fails here, not in a benchmark no
job runs.  ``benchmarks/bench_paper_claims.py`` prints the same table.
"""

from repro.analysis.paper_check import verify_all


def test_every_headline_claim_holds_at_the_tier1_scale():
    claims = verify_all(n_objects=1200, n_requests=1200)
    assert len(claims) >= 11
    failed = [
        f"{c.claim} [{c.source}]: paper {c.paper:g}, ours {c.ours:.4g}, "
        f"tolerance ±{c.tolerance:g}"
        for c in claims
        if not c.passed
    ]
    assert not failed, "\n".join(failed)

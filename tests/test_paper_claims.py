"""The paper's headline claims as a tier-1 gate, and EXPERIMENTS.md's
contract table as their generated output.

The claims are the checks of ``bench.experiments.ARTIFACTS`` that carry a
paper section; ``tests/test_bench.py`` runs the claim-carrying artifacts at
1200 objects / 1200 requests, seed 42.  A perf or design refactor that bends
a claim fails here, and one that moves a headline number fails the contract
test until EXPERIMENTS.md is regenerated.
"""

import re
from pathlib import Path

from repro.analysis.paper_check import render_checks
from repro.bench import experiments as exps
from tests.test_bench import tier1_run

EXPERIMENTS_MD = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"


def _claims():
    return [c for name in exps.ARTIFACTS for c in tier1_run()[name].checks if c.source]


def test_every_headline_claim_holds_at_the_tier1_scale():
    claims = _claims()
    assert len(claims) == 11
    failed = [
        f"{c.name} [{c.source}]: paper {c.paper:g}, ours {c.ours:.4g}, "
        f"tolerance ±{c.tolerance:g}"
        for c in claims
        if not c.passed
    ]
    assert not failed, "\n".join(failed)


def test_experiments_md_contract_block_is_the_tier1_check_table():
    table = render_checks(_claims(), "Reproduction contract: headline claims")
    block = re.search(r"## The reproduction contract.*?```text\n(.*?)```",
                      EXPERIMENTS_MD.read_text(), flags=re.DOTALL)
    assert block is not None, "EXPERIMENTS.md has no contract block"
    # compared line by line without trailing blanks, which editors strip
    assert [line.rstrip() for line in block.group(1).splitlines()] == [
        line.rstrip() for line in table.splitlines()
    ], "EXPERIMENTS.md's contract block is stale; replace it with:\n" + table

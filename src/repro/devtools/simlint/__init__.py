"""simlint: AST-based determinism & sim-hygiene analysis for this repo.

Every reported number depends on the simulation being byte-deterministic;
simlint enforces that contract mechanically (see docs/INTERNALS.md, "The
determinism contract").  Run it as ``python -m repro lint``.
"""

from repro.devtools.simlint.config import DEFAULT_SCAN_PATHS, LintConfig
from repro.devtools.simlint.engine import (
    LintError,
    LintResult,
    lint_paths,
    render_json,
    render_text,
    run_lint,
)
from repro.devtools.simlint.findings import Finding
from repro.devtools.simlint.registry import Registry, load_registry
from repro.devtools.simlint.rules import RULE_DOCS, run_rules

__all__ = [
    "DEFAULT_SCAN_PATHS",
    "Finding",
    "LintConfig",
    "LintError",
    "LintResult",
    "Registry",
    "RULE_DOCS",
    "lint_paths",
    "load_registry",
    "render_json",
    "render_text",
    "run_lint",
    "run_rules",
]

"""simlint driver: file collection, suppressions, baseline, rendering.

Output determinism is part of the contract (the linter polices determinism,
so it must exhibit it): files are walked in sorted order, findings sorted by
(path, line, col, rule), ids content-hashed, and JSON dumped with sorted
keys -- byte-identical across runs and ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.devtools.simlint.config import DEFAULT_SCAN_PATHS, LintConfig
from repro.devtools.simlint.findings import Finding, assign_ids
from repro.devtools.simlint.registry import Registry, load_registry
from repro.devtools.simlint.rules import run_rules

#: per-line suppression, a ``simlint:`` comment on the finding's reported
#: line carrying ``disable=SIM003`` / ``=SIM003,SIM004`` / ``=all``
_SUPPRESS_RE = re.compile(r"#\s*simlint:\s*disable=([A-Za-z0-9_,\s]+)")

BASELINE_VERSION = 1
OUTPUT_VERSION = 1


class LintError(Exception):
    """Unscannable input (missing path, syntax error): exit code 2."""


@dataclass
class LintResult:
    """Everything one lint run produced, pre-rendering."""

    findings: list[Finding] = field(default_factory=list)  # actionable
    baselined: list[Finding] = field(default_factory=list)  # known, tolerated
    suppressed: int = 0
    files_scanned: int = 0

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0


def collect_files(paths: list[Path], config: LintConfig) -> list[Path]:
    """Expand scan targets to a sorted list of .py files.

    Excluded directory names (fixtures, caches) are skipped during directory
    walks only -- a file passed explicitly is always linted, which is how CI
    points the linter at a planted-violation fixture.
    """
    out: set[Path] = set()
    for path in paths:
        if not path.exists():
            raise LintError(f"no such path: {path}")
        if path.is_file():
            out.add(path.resolve())
            continue
        for sub in path.rglob("*.py"):
            rel_parts = sub.relative_to(path).parts
            if any(part in config.exclude_dirs for part in rel_parts):
                continue
            out.add(sub.resolve())
    return sorted(out)


def _suppressed_rules(line: str) -> set[str]:
    m = _SUPPRESS_RE.search(line)
    if not m:
        return set()
    rules = {token.strip().upper() for token in m.group(1).split(",") if token.strip()}
    return {"ALL"} if "ALL" in rules else rules


def lint_file(path: Path, config: LintConfig, registry: Registry) -> tuple[list[Finding], int]:
    """(kept findings, suppressed count) for one file."""
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise LintError(f"cannot read {path}: {exc}") from exc
    relpath = config.relpath(path)
    try:
        raw = run_rules(relpath, source, config, registry)
    except SyntaxError as exc:
        raise LintError(
            f"{relpath}: syntax error at line {exc.lineno}: {exc.msg}"
        ) from exc
    lines = source.splitlines()
    kept: list[Finding] = []
    suppressed = 0
    for f in raw:
        line_text = lines[f.line - 1] if f.line <= len(lines) else ""
        rules = _suppressed_rules(line_text)
        if "ALL" in rules or f.rule in rules:
            suppressed += 1
        else:
            kept.append(f)
    return kept, suppressed


def lint_paths(
    paths: list[Path] | None,
    config: LintConfig,
    baseline_ids: frozenset[str] = frozenset(),
) -> LintResult:
    """Lint files/trees and split findings against the baseline."""
    if not paths:
        paths = [config.root / p for p in DEFAULT_SCAN_PATHS if (config.root / p).exists()]
        if not paths:
            raise LintError(
                f"no default scan paths ({'/'.join(DEFAULT_SCAN_PATHS)}) under {config.root}"
            )
    registry = load_registry(
        config.root,
        config.events_module,
        config.counters_module,
        incidents_module=config.incidents_module,
        stations_module=config.stations_module,
    )
    result = LintResult()
    all_findings: list[Finding] = []
    for path in collect_files(paths, config):
        kept, suppressed = lint_file(path, config, registry)
        all_findings.extend(kept)
        result.suppressed += suppressed
        result.files_scanned += 1
    for f in assign_ids(all_findings):
        (result.baselined if f.finding_id in baseline_ids else result.findings).append(f)
    return result


# ------------------------------------------------------------------ baseline


def load_baseline(path: Path) -> frozenset[str]:
    """Finding ids grandfathered by the committed baseline (empty if absent)."""
    if not path.exists():
        return frozenset()
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise LintError(f"unreadable baseline {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("version") != BASELINE_VERSION:
        raise LintError(f"baseline {path} has unsupported format")
    ids = doc.get("ids", [])
    if not isinstance(ids, list) or not all(isinstance(i, str) for i in ids):
        raise LintError(f"baseline {path}: 'ids' must be a list of strings")
    return frozenset(ids)


def write_baseline(path: Path, result: LintResult) -> None:
    """Persist every current finding id (active + already-baselined)."""
    ids = sorted(f.finding_id for f in [*result.findings, *result.baselined])
    doc = {"version": BASELINE_VERSION, "ids": ids}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# ----------------------------------------------------------------- rendering


def render_text(result: LintResult) -> str:
    lines = [f.render() for f in result.findings]
    lines.append(
        f"simlint: {len(result.findings)} finding(s), "
        f"{len(result.baselined)} baselined, {result.suppressed} suppressed "
        f"in {result.files_scanned} file(s)"
    )
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    doc = {
        "version": OUTPUT_VERSION,
        "findings": [f.to_dict() for f in result.findings],
        "baselined": [f.to_dict() for f in result.baselined],
        "counts": {
            "findings": len(result.findings),
            "baselined": len(result.baselined),
            "suppressed": result.suppressed,
            "files_scanned": result.files_scanned,
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ----------------------------------------------------------------- front end


def stale_baseline_ids(result: LintResult, baseline_ids: frozenset[str]) -> list[str]:
    """Baseline ids that no longer resolve to any finding in the tree.

    A stale id means the offending code was fixed (or the snippet changed,
    re-hashing the id) but the baseline entry was never pruned; left alone it
    could silently grandfather a *future* regression that happens to hash to
    the same id.  CI runs ``lint --check-baseline`` to keep the file honest.
    """
    current = {f.finding_id for f in [*result.findings, *result.baselined]}
    return sorted(baseline_ids - current)


def run_lint(
    paths: list[str] | None,
    root: Path,
    fmt: str = "text",
    baseline_path: Path | None = None,
    update_baseline: bool = False,
    check_baseline: bool = False,
    wallclock_allow: tuple[str, ...] = (),
    out=print,
) -> int:
    """The ``python -m repro lint`` entry: returns the process exit code."""
    config = LintConfig(root=root, wallclock_allow=wallclock_allow)
    if baseline_path is None:
        baseline_path = root / "simlint-baseline.json"
    try:
        baseline_ids = load_baseline(baseline_path)
        result = lint_paths([Path(p) for p in paths] if paths else None, config, baseline_ids)
    except LintError as exc:
        out(f"simlint: error: {exc}")
        return 2
    if update_baseline:
        write_baseline(baseline_path, result)
        out(f"simlint: baseline with {len(result.findings) + len(result.baselined)} "
            f"id(s) written to {baseline_path}")
        return 0
    out(render_json(result) if fmt == "json" else render_text(result))
    if check_baseline:
        stale = stale_baseline_ids(result, baseline_ids)
        if stale:
            for finding_id in stale:
                out(f"simlint: stale baseline id {finding_id} "
                    f"(no current finding resolves to it)")
            return 1
        out(f"simlint: baseline ok ({len(baseline_ids)} id(s), none stale)")
    return result.exit_code

"""simlint driver: file collection, suppressions, rendering.

Output determinism is part of the contract (the linter polices determinism,
so it must exhibit it): files are walked in sorted order, findings sorted by
(path, line, col, rule), and JSON dumped with sorted keys -- byte-identical
across runs and ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.devtools.simlint.config import DEFAULT_SCAN_PATHS, LintConfig
from repro.devtools.simlint.findings import Finding
from repro.devtools.simlint.registry import Registry, load_registry
from repro.devtools.simlint.rules import run_rules

#: per-line suppression, a ``simlint:`` comment on the finding's reported
#: line carrying ``disable=SIM003`` / ``=SIM003,SIM004`` / ``=all``
_SUPPRESS_RE = re.compile(r"#\s*simlint:\s*disable=([A-Za-z0-9_,\s]+)")

OUTPUT_VERSION = 2


class LintError(Exception):
    """Unscannable input (missing path, syntax error, broken vocabulary
    module): exit code 2."""


@dataclass
class LintResult:
    """Everything one lint run produced, pre-rendering."""

    findings: list[Finding] = field(default_factory=list)
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


def lint_paths(paths: list[Path] | None, config: LintConfig) -> LintResult:
    """Lint files/trees; findings sorted by (path, line, col, rule)."""
    if not paths:
        paths = [config.root / p for p in DEFAULT_SCAN_PATHS if (config.root / p).exists()]
        if not paths:
            raise LintError(
                f"no default scan paths ({'/'.join(DEFAULT_SCAN_PATHS)}) under {config.root}"
            )
    try:
        registry = load_registry(config.root)
    except (SyntaxError, ValueError) as exc:
        raise LintError(f"cannot load the declared vocabularies: {exc}") from exc
    result = LintResult()
    for path in collect_files(paths, config):
        kept, suppressed = lint_file(path, config, registry)
        result.findings.extend(kept)
        result.suppressed += suppressed
        result.files_scanned += 1
    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return result


# ----------------------------------------------------------------- rendering


def render_text(result: LintResult) -> str:
    lines = [f.render() for f in result.findings]
    lines.append(
        f"simlint: {len(result.findings)} finding(s), "
        f"{result.suppressed} suppressed in {result.files_scanned} file(s)"
    )
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    doc = {
        "version": OUTPUT_VERSION,
        "findings": [f.to_dict() for f in result.findings],
        "counts": {
            "findings": len(result.findings),
            "suppressed": result.suppressed,
            "files_scanned": result.files_scanned,
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ----------------------------------------------------------------- front end


def run_lint(
    paths: list[str] | None,
    root: Path,
    fmt: str = "text",
    out=print,
) -> int:
    """The ``python -m repro lint`` entry: returns the process exit code."""
    try:
        result = lint_paths([Path(p) for p in paths] if paths else None, LintConfig(root=root))
    except LintError as exc:
        out(f"simlint: error: {exc}")
        return 2
    out(render_json(result) if fmt == "json" else render_text(result))
    return result.exit_code

"""Experiment-result persistence.

Every experiment driver returns a list of row dicts; ``repro exp --out``
writes them as JSON documents with a small metadata header, and this module
reads them back, so runs can be archived, diffed across code versions, or
post-processed outside Python.
"""

from __future__ import annotations

import json
from pathlib import Path


def to_json(rows: list[dict], meta: dict | None = None) -> str:
    """Serialise rows (+ optional metadata) to a JSON document."""
    return json.dumps({"meta": meta or {}, "rows": rows}, indent=2, sort_keys=True)


def from_json(text: str) -> tuple[list[dict], dict]:
    """Parse a JSON result document; returns (rows, meta)."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or "rows" not in doc:
        raise ValueError("not a result document (missing 'rows')")
    return doc["rows"], doc.get("meta", {})


def _json_path(path: str | Path) -> Path:
    path = Path(path)
    if path.suffix != ".json":
        raise ValueError(f"unsupported result format {path.suffix!r} (use .json)")
    return path


def save(rows: list[dict], path: str | Path, meta: dict | None = None) -> Path:
    """Write rows (+ metadata) to the ``.json`` file ``path``."""
    path = _json_path(path)
    path.write_text(to_json(rows, meta))
    return path


def load(path: str | Path) -> list[dict]:
    """Read rows back from a ``.json`` result file."""
    rows, _ = from_json(_json_path(path).read_text())
    return rows

"""Experiment-result persistence.

Every experiment driver returns a list of row dicts; this module writes them
to JSON (full fidelity) or CSV (spreadsheet-friendly) with a small metadata
header, and reads them back, so runs can be archived, diffed across code
versions, or post-processed outside Python.
"""

from __future__ import annotations

import csv
import io
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


def _encode_cell(value) -> str:
    """One cell, typed unambiguously.

    CSV carries only strings, so types are a decode-side convention; this
    encoder makes that convention invertible: ``None`` is the empty cell,
    booleans are lowercase ``true``/``false``, numbers are their repr -- and
    any *string* the decoder would mistake for one of those (empty, numeric-
    looking, a boolean word, or already wrapped) is wrapped in literal double
    quotes, which the decoder strips.  ``from_csv(to_csv(rows))`` is then the
    identity on rows of None/bool/int/float/str (the round-trip test)."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    text = str(value)
    ambiguous = (
        text == ""
        or text.lower() in ("true", "false")
        or (text.startswith('"') and text.endswith('"') and len(text) >= 2)
    )
    if not ambiguous:
        try:
            float(text)
            ambiguous = True  # a string that looks like a number
        except ValueError:
            pass
    return f'"{text}"' if ambiguous else text


def _decode_cell(text: str | None):
    """Inverse of :func:`_encode_cell`."""
    if text is None or text == "":
        return None
    if text.startswith('"') and text.endswith('"') and len(text) >= 2:
        return text[1:-1]
    # "True"/"False" kept for files written before the lowercase convention
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def to_csv(rows: list[dict]) -> str:
    """Serialise rows to CSV with a union-of-keys header.

    Cells are typed via :func:`_encode_cell` so ``from_csv`` restores the
    original values: missing keys and ``None`` both read back as ``None``,
    booleans as booleans, numeric-looking strings as strings."""
    if not rows:
        return ""
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns)
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _encode_cell(v) for k, v in row.items()})
    return buf.getvalue()


def from_csv(text: str) -> list[dict]:
    """Parse CSV back into rows with original types restored."""
    rows: list[dict] = []
    for raw in csv.DictReader(io.StringIO(text)):
        rows.append({key: _decode_cell(value) for key, value in raw.items()})
    return rows


#: the suffixes :func:`save` and :func:`load` understand; the suffix picks
#: the format
FORMATS = (".json", ".csv")


def result_format(path: str | Path) -> str:
    """``path``'s suffix, which must be one of :data:`FORMATS`."""
    suffix = Path(path).suffix
    if suffix not in FORMATS:
        raise ValueError(f"unsupported result format {suffix!r} (use {'/'.join(FORMATS)})")
    return suffix


def save(rows: list[dict], path: str | Path, meta: dict | None = None) -> Path:
    """Write rows to ``path``; format chosen by suffix (.json or .csv)."""
    path = Path(path)
    text = to_json(rows, meta) if result_format(path) == ".json" else to_csv(rows)
    path.write_text(text)
    return path


def load(path: str | Path) -> list[dict]:
    """Read rows back from a .json or .csv result file."""
    path = Path(path)
    if result_format(path) == ".json":
        rows, _ = from_json(path.read_text())
        return rows
    return from_csv(path.read_text())

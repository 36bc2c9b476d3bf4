"""Finding records: one rule violation at one source location."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  # POSIX, relative to the lint root
    line: int
    col: int
    message: str
    snippet: str  # the offending physical line, whitespace-normalised

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def normalise_snippet(source_line: str) -> str:
    """Collapse runs of whitespace so the snippet does not depend on indentation."""
    return " ".join(source_line.split())

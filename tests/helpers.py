"""Inspection helpers the tests share: read-only views over a journal, a
span or a memtable that no code outside the tests needs."""


def of_kind(journal, kind: str) -> list:
    """The journal's retained events of one kind, oldest first."""
    return [e for e in journal.events() if e.kind == kind]


def phase_seconds(span) -> dict[str, float]:
    """A span's direct children's durations by name (repeats summed)."""
    out: dict[str, float] = {}
    for c in span.children:
        out[c.name] = out.get(c.name, 0.0) + c.duration_s
    return out


def accounting_ok(table) -> bool:
    """A memtable's running total equals the total recomputed from its items."""
    return table.logical_bytes == sum(item.footprint for _, item in table.items())

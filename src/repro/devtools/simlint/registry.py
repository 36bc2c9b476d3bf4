"""Cross-module name resolution for SIM004 and SIM008.

Every closed vocabulary -- the event taxonomy (``EVENT_KINDS``), the counter
registry (``COUNTER_NAMES`` / ``COUNTER_PREFIXES``), the self-healing
taxonomies (``INCIDENT_KINDS`` / ``ACTION_KINDS``) and the engine station
namespace (``STATION_NAMES`` / ``STATION_PREFIXES``) -- is declared in
:data:`NAMES_MODULE` and *parsed out of its AST*, never imported: linting
must not execute repo code, and must work on a tree that currently fails to
import.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

#: the module that declares every closed vocabulary, relative to the root
NAMES_MODULE = "src/repro/obs/names.py"


@dataclass(frozen=True)
class Registry:
    """Declared names SIM004/SIM008 resolve literals against.

    The empty registry (every set ``None``) stands for a tree without
    :data:`NAMES_MODULE`: both checks are skipped there, never spuriously
    fired.
    """

    event_kinds: frozenset[str] | None = None
    counter_names: frozenset[str] | None = None
    counter_prefixes: tuple[str, ...] = ()
    incident_kinds: frozenset[str] | None = None
    action_kinds: frozenset[str] | None = None
    station_names: frozenset[str] | None = None
    station_prefixes: tuple[str, ...] = ()


def _assigned_value(tree: ast.Module, name: str) -> ast.expr | None:
    """The value expression of a module-level ``name = ...`` statement."""
    for node in tree.body:
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        for t in targets:
            if isinstance(t, ast.Name) and t.id == name:
                return node.value
    return None


def _string_elts(value: ast.expr | None) -> list[str] | None:
    """String constants inside a set/tuple/list display or a ``frozenset``/
    ``set``/``tuple`` call wrapping one."""
    if value is None:
        return None
    if (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id in ("frozenset", "set", "tuple")
        and len(value.args) == 1
    ):
        value = value.args[0]
    if isinstance(value, (ast.Set, ast.Tuple, ast.List)):
        out = []
        for elt in value.elts:
            if not (isinstance(elt, ast.Constant) and isinstance(elt.value, str)):
                return None
            out.append(elt.value)
        return out
    return None


def load_registry(root: Path) -> Registry:
    """Extract the declared vocabularies from ``root``'s :data:`NAMES_MODULE`.

    Raises ``SyntaxError`` or ``ValueError`` when the module exists but does
    not parse, or lacks one of the seven declarations as a literal display
    of strings."""
    path = root / NAMES_MODULE
    if not path.exists():
        return Registry()
    tree = ast.parse(path.read_text(encoding="utf-8"))

    def declared(name: str) -> list[str]:
        elts = _string_elts(_assigned_value(tree, name))
        if elts is None:
            raise ValueError(f"{NAMES_MODULE} declares no literal {name}")
        return elts

    return Registry(
        event_kinds=frozenset(declared("EVENT_KINDS")),
        counter_names=frozenset(declared("COUNTER_NAMES")),
        counter_prefixes=tuple(declared("COUNTER_PREFIXES")),
        incident_kinds=frozenset(declared("INCIDENT_KINDS")),
        action_kinds=frozenset(declared("ACTION_KINDS")),
        station_names=frozenset(declared("STATION_NAMES")),
        station_prefixes=tuple(declared("STATION_PREFIXES")),
    )

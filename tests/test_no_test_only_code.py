"""No public definition in ``src/`` that only the tests reach.

A public ``def`` or ``class`` (name not starting with ``_``) must be named
somewhere in ``src/``, ``perf/``, ``examples/`` or the CI workflow besides
its own definition: as a name, an attribute, an imported name, or the string
of a ``getattr``-family call.  Names are matched, not resolved, so a use of
``.run`` anywhere keeps every ``run`` method -- the check is a floor, not a
call graph.  Two uses do not count: a package ``__init__.py`` importing a
name to re-export it, and a use inside a definition the check itself flags
(iterated, so a chain only a test enters is flagged whole).  Code that only
a test calls is a model the product does not have; delete it with its test,
or move it into the tests as a helper.
"""

from __future__ import annotations

import ast
import functools
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
USE_DIRS = ("src", "perf", "examples")
CI = ROOT / ".github" / "workflows" / "ci.yml"
_ATTR_CALLS = frozenset({"getattr", "hasattr", "setattr", "delattr"})

#: kept although nothing outside the tests names them, each for its reason
ALLOWED = {
    "collect_garbage": "the §4.1 tombstone collector; the ROADMAP keeps it as item 1(a)'s gc rule",
    "xor_parity": "RSCode.xor_parity is a timed target of perf/trace.py, named there as a string",
    "next_time": "EventQueue.next_time is the documented manual-pump API",
    # the scalar field ops: tests/test_ec_gf256.py checks the log/exp, inverse
    # and product tables (and so gf_mul_scalar's rows) against them
    "gf_add": "GF(256) scalar reference the table tests check against",
    "gf_mul": "GF(256) scalar reference the table tests check against",
    "gf_pow": "GF(256) scalar reference the table tests check against",
    "gf_inv": "GF(256) scalar reference the table tests check against",
    "gf_div": "GF(256) scalar reference the table tests check against",
    # the one-draw-at-a-time latest chooser: tests/test_presets_trace.py
    # replays preset D through it to check the array path draw for draw
    "LatestGenerator": "scalar reference for preset D's array-drawn latest keys",
    "grow": "LatestGenerator/ZipfianGenerator.grow, the scalar reference's insert step",
}
#: dispatch by composed name (ast.NodeVisitor's ``visit_<Node>``); ``_do_*``
#: handlers are private and never scanned
DISPATCHED = re.compile(r"visit_[A-Z]\w*")


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _used_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.rpartition(".")[2]
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _ATTR_CALLS
        and len(node.args) > 1
        and isinstance(node.args[1], ast.Constant)
        and isinstance(node.args[1].value, str)
    ):
        return node.args[1].value
    return None


def _collect(
    node: ast.AST,
    owners: tuple[str, ...],
    where: str | None,
    reexports: bool,
    uses: set[tuple[str, tuple[str, ...]]],
    defined: dict[str, list[str]],
) -> None:
    """Record every use under ``node`` with the public definitions of
    ``src/`` that enclose it (``where`` is set only while walking src/)."""
    name = _used_name(node)
    if name is not None and not (reexports and isinstance(node, ast.alias)):
        uses.add((name, owners))
    if where is not None and isinstance(node, _DEFS) and not node.name.startswith("_"):
        defined.setdefault(node.name, []).append(f"{where}:{node.lineno}")
        owners = (*owners, node.name)
    for child in ast.iter_child_nodes(node):
        _collect(child, owners, where, reexports, uses, defined)


@functools.cache
def _scan() -> tuple[dict[str, list[str]], frozenset[tuple[str, tuple[str, ...]]]]:
    """Public definitions in src/ (name -> where), and every use with the
    public definitions enclosing it.  A package ``__init__.py`` re-exporting
    a name does not use it."""
    defined: dict[str, list[str]] = {}
    uses = {(name, ()) for name in re.findall(r"\w+", CI.read_text())}
    for directory in USE_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            where = str(path.relative_to(ROOT)) if directory == "src" else None
            _collect(tree, (), where, path.name == "__init__.py", uses, defined)
    return defined, frozenset(uses)


def _used(keep) -> frozenset[str]:
    """Every name used from live code.  A use counts when no public
    definition enclosing it is dead; a definition is live when ``keep``
    says so or a counting use names it.  Iterated to a fixpoint, so code
    that only dead code calls is dead too."""
    defined, uses = _scan()
    kept = {name for name in defined if keep(name)}
    used: frozenset[str] = frozenset()
    while True:
        live = kept | (used & defined.keys())
        now_used = frozenset(name for name, owners in uses if live.issuperset(owners))
        if now_used == used:
            return used
        used = now_used


def _dispatched(name: str) -> bool:
    return DISPATCHED.fullmatch(name) is not None


def test_every_public_definition_has_a_caller_outside_the_tests():
    defined, _ = _scan()
    used = _used(lambda name: name in ALLOWED or _dispatched(name))
    test_only = {
        name: where
        for name, where in sorted(defined.items())
        if name not in used and name not in ALLOWED and not _dispatched(name)
    }
    assert not test_only, (
        "public definitions named nowhere outside tests/ (delete them with their "
        f"tests, or move them into the tests as helpers): {test_only}"
    )


def test_the_allow_list_holds_only_live_test_only_definitions():
    """An allowed name that is gone from src/, or that gained a caller
    besides the allowed definitions themselves, leaves the list."""
    defined, _ = _scan()
    assert set(ALLOWED) <= set(defined)
    assert not set(ALLOWED) & _used(_dispatched)

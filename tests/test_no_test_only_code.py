"""No public definition in ``src/`` that only the tests reach.

A public ``def`` or ``class`` (name not starting with ``_``) must be named
somewhere in ``src/``, ``perf/``, ``examples/`` or the CI workflow besides
its own definition: as a name, an attribute, an imported name, or the string
of a ``getattr``-family call.  Names are matched, not resolved, so a use of
``.run`` anywhere keeps every ``run`` method -- the check is a floor, not a
call graph.  Code that only a test calls is a model the product does not
have; delete it with its test, or move it into the tests as a helper.
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
}
#: dispatch by composed name (ast.NodeVisitor's ``visit_<Node>``); ``_do_*``
#: handlers are private and never scanned
DISPATCHED = re.compile(r"visit_[A-Z]\w*")


def _uses(tree: ast.AST, out: set[str]) -> None:
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _ATTR_CALLS
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            out.add(node.args[1].value)


@functools.cache
def _scan() -> tuple[dict[str, list[str]], frozenset[str]]:
    """Public definitions in src/ (name -> where) and every name used."""
    defined: dict[str, list[str]] = {}
    used: set[str] = set(re.findall(r"\w+", CI.read_text()))
    for directory in USE_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            _uses(tree, used)
            if directory != "src":
                continue
            for node in ast.walk(tree):
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ) and not node.name.startswith("_"):
                    where = f"{path.relative_to(ROOT)}:{node.lineno}"
                    defined.setdefault(node.name, []).append(where)
    return defined, frozenset(used)


def test_every_public_definition_has_a_caller_outside_the_tests():
    defined, used = _scan()
    test_only = {
        name: where
        for name, where in sorted(defined.items())
        if name not in used and name not in ALLOWED and not DISPATCHED.fullmatch(name)
    }
    assert not test_only, (
        "public definitions named nowhere outside tests/ (delete them with their "
        f"tests, or move them into the tests as helpers): {test_only}"
    )


def test_the_allow_list_holds_only_live_test_only_definitions():
    """An allowed name that is gone from src/, or that gained a caller,
    leaves the list."""
    defined, used = _scan()
    assert set(ALLOWED) <= set(defined)
    assert not set(ALLOWED) & used

"""Tree hygiene: no module without a caller, no ``--out`` without a file.

Two properties ROADMAP item 5(b) used to state in prose:

* every ``src/repro`` module is imported by something that is not a test --
  another ``src/`` module (a package ``__init__`` re-export counts), the
  benchmark under ``perf/`` or ``examples/``;
* a verb that accepts ``--out`` writes the file, and a verb that writes
  nothing rejects the flag (argparse's exit 2) instead of ignoring it.
"""

import argparse
import ast
from pathlib import Path

import pytest

from repro.cli import main
from tests.test_cli import _verbs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: modules allowed to have no importer outside tests/, each with its reason
ORPHANS_ALLOWED = {
    # paper §4.1 (tombstone GC of deleted objects): part of the system the
    # paper describes, driven as a rule of tests/test_stateful.py and due to
    # join ROADMAP item 1's state machine; no experiment calls it yet
    "repro.core.gc",
}

#: verbs that write nothing: ``--out`` must be an error there, not a no-op
NO_OUT_VERBS = ("run", "inspect")


def _module_name(path: Path) -> str:
    return ".".join(path.relative_to(SRC).with_suffix("").parts)


def _imports(path: Path) -> set[str]:
    """Every dotted name ``path`` imports, at any depth (lazy imports inside
    functions count).  ``from a.b import c`` yields both ``a.b`` and
    ``a.b.c``: ``c`` may be a submodule."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"{path}: relative import (resolve it here first)"
            found.add(node.module)
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
    return found


def test_every_src_module_has_an_importer_outside_tests():
    modules = {
        _module_name(p): p
        for p in sorted(SRC.glob("repro/**/*.py"))
        if p.name not in ("__init__.py", "__main__.py")
    }
    imported: set[str] = set()
    for top in ("src", "perf", "examples"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if "tests" in path.relative_to(ROOT).parts:  # perf/tests are tests too
                continue
            names = _imports(path)
            if path in modules.values():
                names.discard(_module_name(path))
            imported |= names
    orphans = sorted(set(modules) - imported)
    assert orphans == sorted(ORPHANS_ALLOWED), (
        "src/ modules only tests import (give each a caller or delete it "
        f"with its tests): {sorted(set(orphans) - ORPHANS_ALLOWED)}; "
        f"allow-list entries that now have a caller: "
        f"{sorted(ORPHANS_ALLOWED - set(orphans))}"
    )


def _has(parser: argparse.ArgumentParser, flag: str) -> bool:
    return any(flag in a.option_strings for a in parser._actions)


OUT_VERBS = sorted(v for v, p in _verbs().items() if _has(p, "--out"))


@pytest.mark.parametrize("verb", OUT_VERBS)
def test_out_flag_writes_a_non_empty_file(verb, tmp_path):
    parser = _verbs()[verb]
    target = tmp_path / "x.json"
    argv = [verb]
    if verb == "exp":  # --out names a directory: rows + REPORT.txt go in it
        argv.append("tab2")
    if verb == "profile":
        argv.append("exp1")
    if _has(parser, "--objects"):
        argv += ["--objects", "60", "--requests", "60"]
    try:
        main([*argv, "--out", str(target)], out=lambda text: None)
    except SystemExit as exc:
        # heal/chaos gate their own result with exit 1 after writing
        assert exc.code != 2, f"{verb} rejected --out"
    if verb == "exp":
        target = target / "REPORT.txt"
    assert target.is_file() and target.stat().st_size > 0, (
        f"`repro {verb} --out` exited cleanly and wrote nothing"
    )


@pytest.mark.parametrize("verb", NO_OUT_VERBS)
def test_verbs_that_write_nothing_reject_out(verb, tmp_path, capsys):
    target = tmp_path / "x.json"
    with pytest.raises(SystemExit) as exc:
        main([verb, "--out", str(target)], out=lambda text: None)
    assert exc.value.code == 2
    assert "unrecognized arguments: --out" in capsys.readouterr().err
    assert not target.exists()

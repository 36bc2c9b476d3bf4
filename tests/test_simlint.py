"""simlint rule engine: per-rule fixtures, inline suppressions, output
shape, and the meta-test that the repo's own tree is clean (which is what
lets CI gate on the linter at all)."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.devtools.simlint import (
    Finding,
    LintConfig,
    Registry,
    lint_paths,
    load_registry,
    render_json,
    run_rules,
)
from repro.devtools.simlint.engine import lint_file
from repro.devtools.simlint.registry import NAMES_MODULE
from repro.obs import names

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURE = REPO_ROOT / "tests" / "testdata" / "simlint" / "all_rules.py"

REGISTRY = Registry(
    event_kinds=frozenset({"log_flush", "repair_done"}),
    counter_names=frozenset({"net_rpcs"}),
    counter_prefixes=("events_",),
    incident_kinds=frozenset({"node_crash", "disk_stall"}),
    action_kinds=frozenset({"repair_node", "observe"}),
    station_names=frozenset({"delay", "proxy_cpu"}),
    station_prefixes=("disk:", "nic:"),
)


def lint_source(source, relpath="mod.py"):
    return run_rules(relpath, textwrap.dedent(source), LintConfig(root=Path(".")), REGISTRY)


def rules_of(findings):
    return [f.rule for f in findings]


# ------------------------------------------------------------ rule positives


def test_sim001_wall_clock_variants():
    src = """\
        import time
        from time import perf_counter
        from datetime import datetime

        def f():
            a = time.time()
            b = perf_counter()
            c = datetime.now()
            return a, b, c
        """
    assert rules_of(lint_source(src)) == ["SIM001", "SIM001", "SIM001"]


def test_sim001_ignores_unrelated_time_attribute():
    # a local object named ``time`` is not the stdlib module
    src = "def f(time):\n    return time.time()\n"
    assert lint_source(src) == []


def test_sim002_global_random_flagged_seeded_generator_allowed():
    src = """\
        import random
        import numpy as np

        def bad():
            return random.random() + np.random.rand()

        def good(seed):
            rng = np.random.default_rng(seed)
            r = random.Random(seed)
            return rng.random() + r.random()
        """
    assert rules_of(lint_source(src)) == ["SIM002", "SIM002"]


def test_sim002_from_import_and_seed_call():
    src = """\
        from random import shuffle
        import numpy.random

        def f(xs):
            numpy.random.seed(0)
            shuffle(xs)
        """
    assert rules_of(lint_source(src)) == ["SIM002", "SIM002"]


def test_sim003_iteration_pop_and_aggregation():
    src = """\
        def f(xs):
            out = [x for x in set(xs)]
            for x in {1, 2}:
                out.append(x)
            victims = set(xs)
            victims.pop()
            return min(set(xs)), out
        """
    assert rules_of(lint_source(src)) == ["SIM003"] * 4


def test_sim003_sorted_set_is_the_sanctioned_form():
    src = """\
        def f(xs):
            for x in sorted(set(xs)):
                pass
            return sum(sorted(set(xs))) + max(xs) + (3 in set(xs))
        """
    assert lint_source(src) == []


def test_sim003_pop_on_reassigned_name_not_flagged():
    src = """\
        def f(xs):
            victims = set(xs)
            victims = list(xs)
            victims.pop()
        """
    assert lint_source(src) == []


def test_sim004_event_and_counter_literals():
    src = """\
        def f(self):
            self.journal.emit("log_flush", node="n1")      # declared
            self.journal.emit("made_up_kind")              # not declared
            self.counters.add("net_rpcs")                  # declared
            self.counters.add("events_repair_done")        # prefix family
            self.counters.add("made_up_counter", 2)        # not declared
            self.counters.add(dynamic_name)                # non-literal: skipped
        """
    assert rules_of(lint_source(src)) == ["SIM004", "SIM004"]


def test_sim004_skipped_without_registry():
    empty = Registry()
    config = LintConfig(root=Path("."))
    src = 'def f(j):\n    j.journal.emit("anything")\n'
    assert run_rules("m.py", src, config, empty) == []


def test_sim005_clock_mutation_and_negative_advance():
    src = """\
        def f(store):
            store.clock.now = 5.0
            store.cluster.clock.now += 1.0
            store.clock.advance(-2.0)
            store.clock.advance(2.0)
            store.clock.advance_to(9.0)
        """
    assert rules_of(lint_source(src)) == ["SIM005"] * 3


def test_sim005_clock_module_itself_is_exempt():
    src = "class SimClock:\n    def reset(clock):\n        clock.now = 0.0\n"
    assert lint_source(src, relpath="src/repro/sim/clock.py") == []


def test_sim006_defaults_and_field_default():
    src = """\
        from dataclasses import dataclass, field

        def f(a=[], b={}, *, c=set(), d=None):
            return a, b, c, d

        @dataclass
        class R:
            tags: list = field(default=[])
            safe: list = field(default_factory=list)
        """
    assert rules_of(lint_source(src)) == ["SIM006"] * 4


def test_sim007_accumulation_over_known_set_var():
    src = """\
        def f(xs):
            weights = set(xs)
            total = 0.0
            for w in weights:
                total += w
            return total + sum(v for v in weights) + sum(weights)
        """
    assert rules_of(lint_source(src)) == ["SIM007"] * 3


def test_sim007_ordered_or_unproven_iterables_are_clean():
    src = """\
        def f(xs, mystery):
            weights = sorted(set(xs))
            total = 0.0
            for w in weights:
                total += w
            for m in mystery:        # type unknown: never guessed
                total += m
            return total + sum(weights)
        """
    assert lint_source(src) == []


def test_sim007_nested_set_loops_report_each_accumulation_once():
    src = """\
        def f(xs, ys):
            a = set(xs)
            b = set(ys)
            total = 0.0
            for x in a:
                for y in b:
                    total += x * y
        """
    assert rules_of(lint_source(src)) == ["SIM007"]


def test_sim008_constructor_literals_checked_against_taxonomies():
    src = """\
        def f(Incident, Action, Station, Stage):
            Incident(kind="node_crash", node_id="n0")     # declared
            Incident(kind="gremlin", node_id="n0")        # not declared
            Action("observe", node_id="n0")               # declared
            Action("reboot_universe", node_id="n0")       # not declared
            Station("proxy_cpu")                          # declared
            Station(name="warp_core")                     # not declared
            Stage("disk:l0", 1e-4)                        # prefix family
            Stage("teleporter", 1e-4)                     # not declared
            Stage(kind_var, 1e-4)                         # non-literal: skipped
        """
    assert rules_of(lint_source(src)) == ["SIM008"] * 4


def test_sim008_skipped_without_registry():
    config = LintConfig(root=Path("."))
    src = 'def f(Incident):\n    Incident(kind="anything")\n'
    assert run_rules("m.py", src, config, Registry()) == []


def test_sim009_scheduled_lambda_capturing_loop_var():
    src = """\
        def f(queue, events):
            for ev in events:
                queue.schedule(0.1, lambda t: ev.fire(t))
            for a, b in pairs:
                queue.schedule(0.2, callback=lambda t: handle(a, b))
        """
    assert rules_of(lint_source(src)) == ["SIM009"] * 2


def test_sim009_default_bound_lambda_is_the_sanctioned_form():
    src = """\
        def f(queue, events, fixed):
            for ev in events:
                queue.schedule(0.1, lambda t, e=ev: e.fire(t))
                queue.schedule(0.1, lambda t: handle(fixed))
            queue.schedule(0.2, lambda t: handle(ev_like))
        """
    assert lint_source(src) == []


# ---------------------------------------------------------- suppressions


def test_inline_suppression_and_all(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text(
        "def f(xs):\n"
        "    for x in set(xs):  # simlint: disable=SIM003\n"
        "        pass\n"
        "    for y in set(xs):  # simlint: disable=all\n"
        "        pass\n"
        "    for z in set(xs):  # simlint: disable=SIM001\n"
        "        pass\n"
    )
    config = LintConfig(root=tmp_path)
    kept, suppressed = lint_file(mod, config, REGISTRY)
    assert suppressed == 2
    assert rules_of(kept) == ["SIM003"] and kept[0].line == 6


def test_registry_extraction_matches_runtime_declarations():
    """The registry ``python -m repro lint`` parses holds every vocabulary
    the runtime validates against, from the one module both read."""
    reg = load_registry(REPO_ROOT)
    assert reg.event_kinds == names.EVENT_KINDS
    assert reg.counter_names == names.COUNTER_NAMES
    assert reg.counter_prefixes == names.COUNTER_PREFIXES
    assert reg.incident_kinds == frozenset(names.INCIDENT_KINDS)
    assert reg.action_kinds == frozenset(names.ACTION_KINDS)
    assert reg.station_names == names.STATION_NAMES
    assert reg.station_prefixes == names.STATION_PREFIXES


def test_registry_is_whole_or_absent(tmp_path):
    """A tree without the vocabulary module gets the empty registry (both
    checks off); a module missing one declaration fails the run with exit 2
    instead of switching that check off."""
    assert load_registry(tmp_path) == Registry()
    source = (REPO_ROOT / NAMES_MODULE).read_text(encoding="utf-8")
    broken = tmp_path / NAMES_MODULE
    broken.parent.mkdir(parents=True)
    broken.write_text(source.replace("STATION_NAMES =", "STATION_NAMEZ ="))
    with pytest.raises(ValueError, match="STATION_NAMES"):
        load_registry(tmp_path)
    (tmp_path / "m.py").write_text("x = 1\n")
    proc = _run_lint_cli(["m.py"], cwd=tmp_path)
    assert proc.returncode == 2, proc.stdout.decode() + proc.stderr.decode()


# --------------------------------------------------------------- whole tree


def _run_lint_cli(args, hashseed=None, cwd=REPO_ROOT):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    if hashseed is not None:
        env["PYTHONHASHSEED"] = str(hashseed)
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *args],
        capture_output=True, cwd=cwd, env=env,
    )


def test_meta_repo_tree_is_clean():
    proc = _run_lint_cli([])
    assert proc.returncode == 0, proc.stdout.decode() + proc.stderr.decode()
    assert b"0 finding(s)" in proc.stdout


def test_all_rules_fixture_fails_and_covers_every_rule():
    proc = _run_lint_cli([str(FIXTURE), "--format", "json"])
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    fired = {f["rule"] for f in doc["findings"]}
    assert fired == {f"SIM00{i}" for i in range(1, 10)}


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_output_byte_identical_across_runs_and_hash_seeds(fmt):
    outs = {
        _run_lint_cli([str(FIXTURE), "--format", fmt], hashseed=seed).stdout
        for seed in (0, 42, 0)
    }
    assert len(outs) == 1


def test_exit_code_2_on_missing_path_and_syntax_error(tmp_path):
    proc = _run_lint_cli(["does/not/exist.py"])
    assert proc.returncode == 2
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n")
    proc = _run_lint_cli([str(bad)])
    assert proc.returncode == 2
    assert b"syntax error" in proc.stdout


def test_rules_catalogue_flag():
    proc = _run_lint_cli(["--rules"])
    assert proc.returncode == 0
    for rule in (b"SIM001", b"SIM006"):
        assert rule in proc.stdout


def test_findings_render_and_dict_shape(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "bad.py").write_text("def f(xs):\n    for x in set(xs):\n        pass\n")
    result = lint_paths(None, LintConfig(root=tmp_path))
    [f] = result.findings
    assert isinstance(f, Finding) and result.exit_code == 1
    assert f.to_dict() == {
        "rule": "SIM003", "path": "src/bad.py", "line": 2, "col": 14,
        "message": f.message, "snippet": "for x in set(xs):",
    }
    assert f.render() == f"src/bad.py:2:14: SIM003 {f.message}"
    doc = json.loads(render_json(result))
    assert doc["version"] == 2 and set(doc) == {"version", "findings", "counts"}
    assert doc["counts"] == {"findings": 1, "suppressed": 0, "files_scanned": 1}

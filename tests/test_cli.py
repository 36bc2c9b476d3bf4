"""Tests for the command-line reproduction driver."""

import argparse
import json
import re
from pathlib import Path

import pytest

from repro.bench import experiments as exps
from repro.cli import build_parser, main
from tests.test_bench import tier1_run


def _run(argv):
    lines: list[str] = []
    rc = main(argv, out=lambda text: lines.append(str(text)))
    return rc, "\n".join(lines)


def test_table2_command():
    rc, out = _run(["exp", "tab2"])
    assert rc == 0
    assert "1.03e+09" in out
    assert "(15,3)" in out
    assert "Checks: Table 2 (MTTDL)" in out and "FAIL" not in out


def test_observation1_command():
    rc, out = _run(["exp", "fig3", "--objects", "3000", "--requests", "3000"])
    assert rc == 0
    assert "updated stripes by # new chunks, (15,3) code" in out


def test_observation2_command():
    assert "1.50M" in tier1_run()["tab1"].text


def test_run_command_ratio():
    rc, out = _run(["run", "--store", "logecmem", "--ratio", "80:20",
                    "--objects", "200", "--requests", "200"])
    assert rc == 0
    assert "update" in out
    assert "memory:" in out


def test_run_command_preset():
    rc, out = _run(["run", "--store", "fsmem", "--preset", "B",
                    "--objects", "150", "--requests", "150"])
    assert rc == 0
    assert "YCSB-B" in out


def test_run_command_scheme_choice():
    rc, out = _run(["run", "--scheme", "plr", "--objects", "150",
                    "--requests", "150"])
    assert rc == 0


def test_exp2_command_small():
    text = tier1_run()["fig11"].text
    assert "logecmem" in text
    assert "update_latency_us" in text


def test_exp7_command_small():
    assert "throughput_GiB_per_min" in tier1_run()["fig15"].text


def test_exp7_out_saves_rows(tmp_path):
    rc, out = _run(["exp", "fig15", "--objects", "480", "--requests", "240",
                    "--out", str(tmp_path)])
    assert rc == 0
    assert "report written" in out
    rows = json.loads((tmp_path / "fig15.json").read_text())["rows"]
    assert len(rows) == 8  # 4 codes x (with/without log-assist)
    assert {"k", "log_assist", "throughput_GiB_per_min"} <= set(rows[0])


def test_tradeoff_command_small():
    text = tier1_run()["fig16"].text
    assert "Table 3 rankings" in text
    assert "best" in text


def _small_table(monkeypatch) -> list:
    """Cut the artifact table to the two analytic rows plus two entries that
    share one counting driver (as fig11 and fig12 share theirs); returns the
    driver's call log."""
    calls: list = []

    def driver(n_objects, n_requests, seed):
        calls.append((n_objects, n_requests, seed))
        return [{"objects": n_objects}]

    shared = {name: exps.Artifact(f"shared {name}", 10, 10, driver, str, lambda rows: [])
              for name in ("a", "b")}
    monkeypatch.setattr(exps, "ARTIFACTS", {
        "tab2": exps.ARTIFACTS["tab2"], "wide-stripe": exps.ARTIFACTS["wide-stripe"], **shared,
    })
    return calls


def test_report_command_writes_everything(tmp_path, monkeypatch):
    _small_table(monkeypatch)
    rc, out = _run(["exp", "all", "--out", str(tmp_path)])
    assert rc == 0
    report = (tmp_path / "REPORT.txt").read_text()
    for heading in ("Table 2: MTTDL", "Wide stripes", "Checks: shared b",
                    "Reproduction contract: headline claims"):
        assert heading in report
    assert sorted(p.name for p in tmp_path.glob("*.json")) == [
        "a.json", "b.json", "tab2.json", "wide-stripe.json"]


def test_report_runs_a_shared_driver_once(tmp_path, monkeypatch):
    """fig11 and fig12 print two column subsets of the same sweep: ``exp``
    must run it once and save identical rows under both names."""
    assert exps.ARTIFACTS["fig11"].driver is exps.ARTIFACTS["fig12"].driver
    calls = _small_table(monkeypatch)
    rc, _ = _run(["exp", "all", "--out", str(tmp_path)])
    assert rc == 0
    assert calls == [(10, 10, 42)]
    rows = {name: json.loads((tmp_path / f"{name}.json").read_text())["rows"]
            for name in ("a", "b")}
    assert rows["a"] == rows["b"] == [{"objects": 10}]


def test_a_scale_too_small_for_the_checks_fails_them_without_a_traceback():
    lines: list[str] = []
    with pytest.raises(SystemExit) as exc:
        main(["exp", "fig15", "--objects", "1", "--requests", "0"], out=lines.append)
    assert exc.value.code == 1
    assert any(line.startswith("FAIL fig15: runs at this scale") for line in lines)


def test_a_perturbed_driver_row_exits_1_with_its_fail_line(monkeypatch):
    tab2 = exps.ARTIFACTS["tab2"]

    def perturbed(**scale):
        rows = tab2.driver(**scale)
        rows[0]["mttdl_years"] *= 1.1  # (6,3) at B=1 Gb/s
        return rows

    monkeypatch.setitem(exps.ARTIFACTS, "tab2", tab2._replace(driver=perturbed))
    lines: list[str] = []
    with pytest.raises(SystemExit) as exc:
        main(["exp", "tab2"], out=lines.append)
    assert exc.value.code == 1
    assert "FAIL tab2: Table 2: MTTDL of (6,3) at B=1 Gb/s (1e9 years)" in lines
    assert "FAIL tab2: every cell within 1% of the paper" in lines


def test_load_command_writes_curve(tmp_path):
    import json

    path = tmp_path / "load.json"
    rc, out = _run(["load", "--objects", "120", "--requests", "120",
                    "--concurrency", "1,8", "--out", str(path)])
    assert rc == 0
    assert "hottest station" in out
    assert "knee:" in out
    doc = json.loads(path.read_text())
    assert {"meta", "jobs", "curve", "knee"} <= set(doc)
    assert [pt["concurrency"] for pt in doc["curve"]] == [1, 8]


def test_load_command_chaos_flag():
    rc, out = _run(["load", "--objects", "100", "--requests", "100",
                    "--concurrency", "8", "--chaos", "--faults", "2"])
    assert rc == 0
    assert "chaos:" in out


def test_load_command_rejects_bad_concurrency():
    with pytest.raises(SystemExit):
        _run(["load", "--concurrency", "1,two"])
    with pytest.raises(SystemExit):
        _run(["load", "--concurrency", "0"])


def _verbs() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


README_VERBS = set(
    re.findall(
        r"^python -m repro (\w+)",
        (Path(__file__).parent.parent / "README.md").read_text(),
        flags=re.MULTILINE,
    )
)


@pytest.mark.parametrize("verb", sorted(_verbs()))
def test_every_verb_has_help_a_handler_and_a_readme_line(verb, capsys):
    parser = _verbs()[verb]
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["--help"])
    assert exc.value.code == 0
    assert f"repro {verb}" in capsys.readouterr().out
    assert callable(parser.get_default("handler"))
    assert verb in README_VERBS, f"README.md has no `python -m repro {verb}` line"


def test_verb_table_is_the_full_front_door():
    assert len(_verbs()) == 10
    (name,) = (a for a in _verbs()["exp"]._actions if a.dest == "name")
    assert list(name.choices) == [*exps.ARTIFACTS, "all"]
    assert README_VERBS <= set(_verbs())  # and the README invents none


def test_per_verb_defaults_do_not_leak_between_verbs():
    """Parent parsers are built fresh per verb: argparse shares a parent's
    action objects, so a shared one would leak the last default set."""
    parse = build_parser().parse_args
    assert parse(["run"]).ratio is None
    assert parse(["chaos"]).ratio == "50:50"
    assert (parse(["load"]).faults, parse(["watch"]).faults) == (4.0, 2.0)
    assert (parse(["chaos"]).faults, parse(["heal"]).faults) == (4.0, 6.0)
    assert (parse(["exp", "fig10"]).objects, parse(["exp", "fig10"]).out) == (None, None)
    profile = parse(["profile", "exp1"])
    assert (profile.objects, profile.requests, profile.out) == (600, 600, "BENCH_PR3.json")
    assert (parse(["sanitize"]).objects, parse(["sanitize"]).out) == (200, None)
    assert parse(["sanitize"]).slices == ("engine", "chaos", "heal")
    assert parse(["load"]).concurrency == (1, 4, 16, 64)


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--ratio", "7"],
        ["run", "--ratio", "60:50"],
        ["load", "--think-us", "-5"],
        ["exp", "fig15", "--objects", "0"],
        ["sanitize", "--slices", "bogus"],
        ["run", "--ratio", "50:50", "--preset", "A"],
        ["chaos", "--ratio", "50-50"],
        ["watch", "--requests", "-1"],
        ["chaos", "--value-size", "0"],
        ["watch", "--concurrency", "0"],
        ["watch", "--width", "0"],
        ["load", "--queue-cap", "-1"],
        ["run", "--code", "1,1"],
        ["chaos", "--code", "300,3"],
        ["heal", "--store", "logecmem", "--code", "6,1"],
        ["run", "--preset", "Z"],
        ["inspect", "--stripe", "99999", "--objects", "60", "--requests", "60"],
        ["exp", "fig15", "--out", __file__, "--objects", "60", "--requests", "60"],
        ["exp", "fig99"],
        ["exp", "all", "--out", __file__],
    ],
)
def test_bad_arguments_exit_2_with_an_argparse_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        _run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument" in err and "Traceback" not in err


#: numeric options that may take -1 past the parser, each with its reason
NEGATIVE_ALLOWED = {
    "--stripe",  # checked at run time, against the stripes the run sealed
    "--shuffle-seed",  # any int seeds simsan's shuffled tie-break
}

#: positionals that make a verb parse (and run cheaply when it does run)
POSITIONALS = {"exp": ["tab2"], "profile": ["exp1"]}


def _numeric_options() -> list[tuple[str, str]]:
    """``(verb, option)`` for every option whose type parses to an int or
    float, across every verb of the front door."""
    found = []
    for verb, parser in sorted(_verbs().items()):
        for action in parser._actions:
            if not action.option_strings or action.type is None:
                continue
            try:
                value = action.type("7")
            except (argparse.ArgumentTypeError, ValueError):
                continue
            if isinstance(value, (int, float)):
                found.append((verb, action.option_strings[0]))
    return found


@pytest.mark.parametrize("verb,option", _numeric_options())
def test_every_numeric_option_rejects_minus_one_at_parse_time(verb, option, capsys):
    parser = _verbs()[verb]
    argv = [verb, *POSITIONALS.get(verb, []), option, "-1"]
    for scale in ("--objects", "--requests"):
        if scale != option and any(scale in a.option_strings for a in parser._actions):
            argv += [scale, "24"]
    try:  # anything but SystemExit propagates and fails the test
        main(argv, out=lambda text: None)
        code = 0
    except SystemExit as exc:
        code = exc.code
    if option not in NEGATIVE_ALLOWED:
        assert code == 2, f"`repro {' '.join(argv)}` exited {code}, not 2"
        assert f"error: argument {option}" in capsys.readouterr().err


def test_load_with_zero_requests_is_valid():
    rc, out = _run(["load", "--objects", "40", "--requests", "0",
                    "--concurrency", "1,4"])
    assert rc == 0
    assert "hottest station" in out


def test_bad_code_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--code", "six-three"])


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])

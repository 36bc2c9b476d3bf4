"""Tests for the command-line reproduction driver."""

import argparse
import json
import re
from pathlib import Path

import pytest

from repro.bench import experiments as exps
from repro.cli import EXPERIMENTS, build_parser, main


def _run(argv):
    lines: list[str] = []
    rc = main(argv, out=lambda text: lines.append(str(text)))
    return rc, "\n".join(lines)


def test_table2_command():
    rc, out = _run(["table2"])
    assert rc == 0
    assert "1.03e+09" in out
    assert "(15,3)" in out


def test_observation1_command():
    rc, out = _run(["observation1", "--code", "6,3", "--ratio", "50:50",
                    "--objects", "3000", "--requests", "3000"])
    assert rc == 0
    assert "# updated stripes" in out


def test_observation2_command():
    rc, out = _run(["observation2"])
    assert rc == 0
    assert "1.50M" in out


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
    rc, out = _run(["exp2", "--objects", "240", "--requests", "240"])
    assert rc == 0
    assert "logecmem" in out
    assert "update_latency_us" in out


def test_exp7_command_small():
    rc, out = _run(["exp7", "--objects", "240", "--requests", "120"])
    assert rc == 0
    assert "throughput_GiB_per_min" in out


def test_exp7_out_saves_rows(tmp_path):
    from repro.bench import results

    path = tmp_path / "exp7.csv"
    rc, out = _run(["exp7", "--objects", "240", "--requests", "120",
                    "--out", str(path)])
    assert rc == 0
    assert "saved" in out
    rows = results.load(path)
    assert len(rows) == 8  # 4 codes x (with/without log-assist)
    assert {"k", "log_assist", "throughput_GiB_per_min"} <= set(rows[0])


def test_tradeoff_command_small():
    rc, out = _run(["tradeoff", "--objects", "300", "--requests", "300"])
    assert rc == 0
    assert "Table 3 rankings" in out
    assert "best" in out


def test_report_command_writes_everything(tmp_path):
    rc, out = _run(["report", "--dir", str(tmp_path), "--objects", "200",
                    "--requests", "200"])
    assert rc == 0
    report = (tmp_path / "REPORT.txt").read_text()
    for heading in ("Table 2", "Observation 1", "Experiment 7", "Table 3"):
        assert heading in report
    assert len(list(tmp_path.glob("exp*.json"))) == 7


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
    assert len(_verbs()) == 22
    assert set(EXPERIMENTS) <= set(_verbs())
    assert README_VERBS <= set(_verbs())  # and the README invents none


def test_per_verb_defaults_do_not_leak_between_verbs():
    """Parent parsers are built fresh per verb: argparse shares a parent's
    action objects, so a shared one would leak the last default set."""
    parse = build_parser().parse_args
    assert parse(["run"]).ratio is None
    assert parse(["chaos"]).ratio == "50:50"
    assert parse(["observation1"]).ratio == "95:5"
    assert (parse(["load"]).faults, parse(["watch"]).faults) == (4.0, 2.0)
    assert (parse(["chaos"]).faults, parse(["heal"]).faults) == (4.0, 6.0)
    assert (parse(["exp1"]).objects, parse(["exp1"]).out) == (1500, None)
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
        ["exp7", "--objects", "0"],
        ["sanitize", "--slices", "bogus"],
        ["run", "--ratio", "50:50", "--preset", "A"],
        ["observation1", "--ratio", "50-50"],
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
        ["exp7", "--out", "x.txt", "--objects", "60", "--requests", "60"],
    ],
)
def test_bad_arguments_exit_2_with_an_argparse_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        _run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument" in err and "Traceback" not in err


def test_load_with_zero_requests_is_valid():
    rc, out = _run(["load", "--objects", "40", "--requests", "0",
                    "--concurrency", "1,4"])
    assert rc == 0
    assert "hottest station" in out


def test_report_runs_a_shared_driver_once(tmp_path, monkeypatch):
    """exp2 and exp3 print two column subsets of the same sweep: ``report``
    must run it once and save identical rows under both names."""
    assert exps.experiment3 is exps.experiment2
    sweeps = []
    real_sweep = exps.update_memory_sweep

    def counting_sweep(codes, **kw):
        sweeps.append(codes)
        return real_sweep(codes, **kw)

    monkeypatch.setattr(exps, "update_memory_sweep", counting_sweep)
    rc, _ = _run(["report", "--dir", str(tmp_path), "--objects", "120",
                  "--requests", "120"])
    assert rc == 0
    assert len(sweeps) == 3  # exp2+exp3, exp4, tradeoff
    rows = {
        name: json.loads((tmp_path / f"{name}.json").read_text())["rows"]
        for name in ("exp2", "exp3")
    }
    assert rows["exp2"] == rows["exp3"]


def test_bad_code_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--code", "six-three"])


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])

"""Tests for the artifact tables ``repro exp`` prints (Experiments 1 and
3-6) and the determinism of the pipeline across runs."""


from repro.cli import main
from repro.kvstore.chunk import make_value
from tests.test_bench import tier1_run


def _run(argv):
    """``main``'s exit code (1 when a check fails) and everything it printed."""
    lines: list[str] = []
    try:
        rc = main(argv, out=lambda text: lines.append(str(text)))
    except SystemExit as exc:
        rc = exc.code
    return rc, "\n".join(lines)


SMALL = ["--objects", "240", "--requests", "120"]


def test_exp1_command():
    text = tier1_run()["fig10"].text
    assert "read_latency_us" in text and "throughput_kops" in text
    assert "vanilla" in text and "logecmem" in text


def test_exp3_command():
    assert "memory_GiB" in tier1_run()["fig12"].text


def test_exp4_command():
    assert "128" in tier1_run()["fig13"].text  # the (128,4) code appears


def test_exp5_command():
    text = tier1_run()["fig14ab"].text
    assert "disk_ios" in text
    for scheme in ("pl", "plr", "plr-m", "plm"):
        assert scheme in text


def test_exp6_command():
    assert "degraded_latency_us" in tier1_run()["fig14cd"].text


def test_cli_output_deterministic():
    assert _run(["exp", "fig15"] + SMALL) == _run(["exp", "fig15"] + SMALL)


def test_cli_seed_changes_rows():
    scale = ["--objects", "3000", "--requests", "3000"]
    _, out1 = _run(["exp", "fig3"] + scale + ["--seed", "1"])
    _, out2 = _run(["exp", "fig3"] + scale + ["--seed", "2"])
    assert out1 != out2


def test_make_value_stable_hash():
    """The value generator must not depend on Python's salted hash()."""
    v = make_value("user42", 7, 8)
    assert v.tolist() == [119, 62, 38, 164, 166, 100, 56, 99]

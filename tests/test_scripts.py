"""Smoke runs of the worked examples under scripts/."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_warm_start_demo_warm_beats_cold(capsys):
    assert _load_script("warm_start_demo").main(["--trials", "2"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert len(rows) == 4  # one row per drift size
    for row in rows:
        _, warm, cold, _ = (float(x) for x in row.split())
        assert warm < cold


def test_compare_optimizers_runs_every_rule(tmp_path, capsys):
    names = ("sgd", "sr", "minsr", "spring", "wssr", "rssr")
    argv = ["--steps", "2", "--optimizers", ",".join(names), "--out", str(tmp_path)]
    assert _load_script("compare_optimizers").main(argv) == 0
    out = capsys.readouterr().out
    assert "aborted" not in out
    rows = [line.split() for line in out.splitlines()[2:]]
    assert [row[0] for row in rows] == list(names)


def test_trajectory_digest_split_matches_straight(capsys):
    argv = ["--optimizers", "wssr,minsr-eps0,sr-pinv", "--steps", "2"]
    assert _load_script("trajectory_digest").main(argv) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert [row[0] for row in rows] == ["wssr", "minsr-eps0", "sr-pinv"]
    for row in rows:
        assert row[1] == "trace" and row[3] == "checkpoint" and row[5] == "theta"
        assert len(row[2]) == len(row[4]) == len(row[6]) == 64


CODE_LINES_FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment counts: the line holds code

# a comment line


def f(x):
    """Docstring."""
    text = """a string that
    spans two lines"""
    return (x +
            1)
'''


def test_code_lines_skips_docstrings_comments_and_blanks(tmp_path, capsys):
    code_lines = _load_script("code_lines")
    # import, def, the two string lines, return and its continuation
    assert code_lines.count_code_lines(CODE_LINES_FIXTURE) == 6
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(CODE_LINES_FIXTURE, encoding="utf-8")
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path / "pkg"), str(tmp_path / "pkg" / "b.py")]) == 0
    counts = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert counts == ["7", "1", "8"]

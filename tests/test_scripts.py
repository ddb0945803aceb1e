"""Smoke runs of the worked examples under scripts/."""

import importlib.util
import math
from pathlib import Path

import pytest

from vmcsr.config import parse_config_text

TESTS = Path(__file__).resolve().parent
SCRIPTS = TESTS.parent / "scripts"


def _load_script(name, directory=SCRIPTS):
    spec = importlib.util.spec_from_file_location(name, directory / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_optimizers_runs_every_rule(tmp_path, capsys):
    names = ("sgd", "sr", "minsr", "spring", "wssr", "rssr")
    argv = ["--steps", "2", "--optimizers", ",".join(names), "--out", str(tmp_path)]
    assert _load_script("compare_optimizers").main(argv) == 0
    out = capsys.readouterr().out
    assert "aborted" not in out
    rows = [line.split() for line in out.splitlines()[2:]]
    assert [row[0] for row in rows] == list(names)


def test_compare_optimizers_prints_one_ratio_per_seed(tmp_path, capsys):
    argv = ["--ratio-seeds", "11", "12", "--steps", "2", "--out", str(tmp_path)]
    assert _load_script("compare_optimizers").main(argv) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert [row[:3] for row in rows] == [["seed", "11:", "ratio"], ["seed", "12:", "ratio"]]
    for row in rows:
        assert row[2::2] == ["ratio", "clipped", "mad", "mean-diff"]
        ratios, mean_diff = [float(x) for x in row[3:9:2]], float(row[9])
        assert all(r > 0.0 for r in ratios) and math.isfinite(mean_diff)


@pytest.mark.parametrize("name, delta", [("wssr", 0.95), ("wssr", 0.0), ("sgd", 0.95)])
def test_compare_optimizers_runs_criterion_9s_configuration(name, delta):
    """At its default steps, seed and window the script races the exact
    configuration of acceptance criterion 9, for each of that criterion's runs."""
    template = _load_script("compare_optimizers").TEMPLATE
    starved = _load_script("test_acceptance", TESTS).STARVED_HELIUM
    script = template.format(name=name, delta=delta, steps=2000, seed=11, window=100,
                             out="out")
    criterion = starved.format(name=name, delta=str(delta), out="out")
    assert parse_config_text(script) == parse_config_text(criterion)


def test_trajectory_digest_split_matches_straight(capsys):
    argv = ["--optimizers", "wssr,wssr-full,minsr-eps0,sr-pinv,minsr-be-p,minsr-lih",
            "--steps", "2"]
    assert _load_script("trajectory_digest").main(argv) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert [row[0] for row in rows] == [
        "wssr", "wssr-full", "minsr-eps0", "sr-pinv", "minsr-be-p", "minsr-lih"
    ]
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

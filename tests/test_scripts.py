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

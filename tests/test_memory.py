"""Peak memory of two default optimizer steps on every preset, and of a
default Li2 sr step.

The second step is a steady one: it runs the warm-started update and
finds whatever the first step left behind, so both are inside the peak.
Each run goes in its own process, so the peak resident set that the
process reports for itself belongs to that run alone.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from vmcsr.system import preset_names

SRC = Path(__file__).resolve().parent.parent / "src"
PEAK_RSS_BUDGET_KB = 3 << 20  # 3 GiB

CONFIG = """\
[system]
preset = {preset}

[sampler]
burn_in = 10

[run]
steps = 2
out_dir = {out}
"""

CHILD = """\
import resource, sys
from vmcsr.cli import main
code = main(["run", "--config", sys.argv[1]])
print("peak_rss_kb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
sys.exit(code)
"""


def peak_rss_kb(tmp_path, text):
    """Run the config text in a fresh process; its peak RSS in kB."""
    config = tmp_path / "run.ini"
    config.write_text(text, encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", CHILD, str(config)],
        env=env, capture_output=True, text=True, check=False,
    )
    assert child.returncode == 0, child.stderr
    return int(child.stdout.split("peak_rss_kb")[-1])


@pytest.mark.slow
@pytest.mark.parametrize("preset", preset_names())
def test_default_step_peak_rss_within_budget(tmp_path, preset):
    peak_kb = peak_rss_kb(tmp_path, CONFIG.format(preset=preset, out=tmp_path / "out"))
    assert peak_kb <= PEAK_RSS_BUDGET_KB, f"{preset}: peak RSS {peak_kb / 1024:.0f} MB"


@pytest.mark.slow
def test_default_li2_sr_step_completes(tmp_path):
    # 21960 parameters over 2048 samples: the solve runs on the 2048²
    # Gram O^T O, where S = O O^T would be 21960² (3.9 GB)
    text = CONFIG.format(preset="li2", out=tmp_path / "out").replace(
        "steps = 2", "steps = 1") + "\n[optimizer]\nname = sr\n"
    peak_kb = peak_rss_kb(tmp_path, text)
    print(f"li2 sr, one default step: peak RSS {peak_kb / 1024:.0f} MB")

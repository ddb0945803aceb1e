"""Tests of the benchmark itself, on smoke-sized workloads."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import SpanTree, per_layer_metrics  # noqa: E402
from run import END_TO_END  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
COUNT = re.compile(r"\.(calls|configs|zero_pivots|bytes)(\.|$)")


def bench(workload, trace, seed=3, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_declared_metrics_match_the_code_and_are_well_formed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == per_layer_metrics()
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric["name"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_passes_its_checks(workload):
    result = last_json(bench(workload, trace=0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert [name for name, _ in END_TO_END] == list(result["metrics"])
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name) and metric["value"] > 0, (name, metric)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_smoke_run_nests_spans_and_repeats_counts(workload):
    results = []
    for _ in range(2):
        proc = bench(workload, trace=1)
        results.append(last_json(proc))
        details = json.loads(proc.stdout.strip().splitlines()[-2])["details"]
        with open(ROOT / details["spans_file"], encoding="utf-8") as fh:
            tree = SpanTree(json.loads(line) for line in fh)
        for span in tree.spans:
            children = tree.children[span["id"]]
            assert sum(tree.duration(c) for c in children) <= tree.duration(span)
            for child in children:
                assert span["start"] <= child["start"] <= child["end"] <= span["end"]
    first, second = results
    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == [name for name, _, _ in per_layer_metrics()]
    counts = [name for name in first["metrics"] if COUNT.search(name)]
    assert counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["wavefunction.log_abs_batch.configs.stencil"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns(".runs", "__pycache__"))
    proc = bench("he-s-wssr", trace=0, cwd=tmp_path,
                 script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

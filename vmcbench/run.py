"""vmcsr benchmark: time optimizer runs end to end, or trace them per layer.

    python3 vmcbench/run.py --workload he-s-wssr --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Every measured run is a fresh process
(``child.py``) that writes a generated INI and drives ``parse_config`` and
``run``. Each invocation first makes one untimed smoke-sized run. With
``--trace 0`` it then runs the workload from scratch with tracing off, at
least the workload's ``runs`` times and until ``--seconds`` have passed.
Every repeat must match the first run bit for bit (every trace column but
``wall_ms``, and the final checkpoint). Each run gives one ``setup_s``
(process start to a ready walker ensemble), one ``first_step_s`` (step 1,
burn-in included), one ``run_s`` and one ``peak_rss_mb``; the invocation
reports the median of each, so a burst of load on the host moves at most
one sample. ``step_s.p50`` and ``step_s.tail`` pool the ``wall_ms`` of
steps >= 2 of every run.

With ``--trace 1`` the invocation runs the workload from scratch untraced
and then traced; it checks the two agree bit for bit and prints the
per-layer metrics of the traced run.

Every run is checked (exit code, one finite trace row per step, acceptance
band, variational bound, checkpoint read-back). A run that fails a check
counts all its steps as failed; an abort counts the steps it did not reach.
The last line of stdout is the JSON result.
"""

import argparse
import csv
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import aggregate, check_prediction, per_layer_metrics, phase_shares
from workloads import (
    ACCEPTANCE_BAND,
    ENERGY_MARGIN_FLOOR,
    ENERGY_MARGIN_STDERR,
    ENERGY_TAIL_STEPS,
    WORKLOADS,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS_DIR = HERE / ".runs"
MAX_BLAS_THREADS = 2
# The whole invocation ends within this many seconds; a child still running
# at the deadline is killed and its steps count as failed.
TIME_LIMIT_S = 170.0
TAIL_BEYOND = 10

END_TO_END = (
    ("setup_s", "s"),
    ("first_step_s", "s"),
    ("step_s.p50", "s"),
    ("step_s.tail", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
)


class Invocation:
    """One benchmark invocation: its run directory, deadline and children."""

    def __init__(self, workload, seed, smoke, trace):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.deadline = time.monotonic() + TIME_LIMIT_S
        tag = f"{workload.name}-seed{seed}-trace{trace}{'-smoke' if smoke else ''}"
        self.dir = RUNS_DIR / tag
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        threads = min(MAX_BLAS_THREADS, len(os.sched_getaffinity(0)))
        self.env = dict(os.environ)
        self.env.update({
            "PYTHONPATH": str(ROOT / "src"),
            "OPENBLAS_NUM_THREADS": str(threads),
            "OMP_NUM_THREADS": str(threads),
        })
        self.environment = None

    def write_ini(self, label, smoke=None):
        out_dir = self.dir / label
        out_dir.mkdir(exist_ok=True)
        ini = self.dir / f"{label}.ini"
        smoke = self.smoke if smoke is None else smoke
        ini.write_text(self.workload.ini_text(self.seed, out_dir, smoke=smoke),
                       encoding="utf-8")
        return ini, out_dir

    def child(self, mode, label, ini, **options):
        """Run child.py; returns (result dict or None, error)."""
        result_path = self.dir / f"{label}.result.json"
        cmd = [sys.executable, str(HERE / "child.py"), mode, "--root", str(ROOT),
               "--ini", str(ini), "--result", str(result_path)]
        for key, value in options.items():
            cmd += [f"--{key.replace('_', '-')}", str(value)]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return None, "time limit reached before the run started"
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, env=self.env, cwd=str(ROOT),
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                text=True)
        try:
            _, stderr = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None, "killed at the time limit"
        if proc.returncode != 0:
            tail = stderr.strip().splitlines()[-1:] or [""]
            return None, f"child exited {proc.returncode}: {tail[0]}"
        result = json.loads(result_path.read_text(encoding="utf-8"))
        if "ready_monotonic" in result:
            result["setup_s"] = result["ready_monotonic"] - spawned
        self.environment = result.get("environment")
        return result, None


def read_trace(path):
    """Rows of trace.csv as dicts of the exact text of each cell."""
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def check_run(workload, result, rows, steps):
    """Correctness failures of one finished run (empty when it passed)."""
    failures = []
    if result["exit_code"] != 0 or result["aborted"]:
        failures.append(f"run exited {result['exit_code']}: {result['message']}")
    if [int(r["step"]) for r in rows] != list(range(1, steps + 1)):
        failures.append(f"trace steps {[r['step'] for r in rows]} are not 1..{steps}")
    columns = ("raw_energy", "clipped_energy", "energy_variance")
    if not all(math.isfinite(float(r[c])) for r in rows for c in columns):
        failures.append("non-finite energy in the trace")
    lo, hi = ACCEPTANCE_BAND
    rates = [float(r["acceptance_rate"]) for r in rows]
    if not all(lo <= rate <= hi for rate in rates):
        failures.append(f"acceptance {min(rates, default=0):.3f}..{max(rates, default=0):.3f} "
                        f"outside [{lo}, {hi}]")
    tail = rows[-ENERGY_TAIL_STEPS:]
    if tail and not failures:
        mean = statistics.fmean(float(r["raw_energy"]) for r in tail)
        variance = statistics.fmean(float(r["energy_variance"]) for r in tail)
        stderr = math.sqrt(variance / (result["samples_per_step"] * len(tail)))
        margin = max(ENERGY_MARGIN_FLOOR, ENERGY_MARGIN_STDERR * stderr)
        if mean < workload.reference_energy - margin:
            failures.append(f"mean energy {mean:.6f} of the last {len(tail)} steps is below "
                            f"the exact {workload.reference_energy} by more than {margin:.4f}")
    checkpoint = result["checkpoint"]
    if not checkpoint["ok"]:
        failures.append(f"final checkpoint: {checkpoint['error']}")
    return failures


def compare_repeat(rows, rows_ref, ckpt, ckpt_ref):
    """Failures where a repeat differs from the reference run."""
    failures = []
    for row, ref in zip(rows, rows_ref):
        diff = [k for k in ref if k != "wall_ms" and row.get(k) != ref[k]]
        if diff:
            failures.append(f"step {ref['step']} differs from the first run in {diff}")
            break
    if len(rows) != len(rows_ref):
        failures.append(f"{len(rows)} trace rows, the first run has {len(rows_ref)}")
    if Path(ckpt).read_bytes() != Path(ckpt_ref).read_bytes():
        failures.append("final checkpoint bytes differ from the first run")
    return failures


def tail_percentile(runs, steps):
    """The percentile reported as step_s.tail for `runs` runs of `steps` steps.

    It is the highest percentile with TAIL_BEYOND samples beyond it among
    the steps >= 2 of the workload's minimum number of runs. Further runs,
    made while --seconds lasts, estimate the same percentile from more
    samples, so the figure means the same on every commit.
    """
    n = runs * (steps - 1)
    if n <= TAIL_BEYOND:
        return 100.0
    return 100.0 * (n - 1 - TAIL_BEYOND) / (n - 1)


def percentile(samples, p):
    """Linear interpolation between closest ranks (numpy's default)."""
    ordered = sorted(samples)
    pos = round(p / 100.0 * (len(ordered) - 1), 9)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])


class Ledger:
    """Steps attempted and failed, and the reasons, over one invocation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, label, steps, result, failures, error=None):
        self.attempted += steps
        if error is not None:
            self.failed += steps
            self.failures.append(f"{label}: {error}")
        elif failures:
            self.failed += steps
            self.failures += [f"{label}: {f}" for f in failures]
        elif result["aborted"]:
            self.failed += steps - result["steps_completed"]


def fresh_run(inv, label, steps, mode="run", **options):
    """A from-scratch run in its own directory; returns (result, rows, failures, error)."""
    ini, out_dir = inv.write_ini(label)
    result, error = inv.child(mode, label, ini, **options)
    if error is not None:
        return None, [], [], error
    rows = read_trace(out_dir / "trace.csv")
    return result, rows, check_run(inv.workload, result, rows, steps), None


def warm_up(inv, ledger):
    """One untimed smoke-sized run, so the first timed run starts warm."""
    ini, _ = inv.write_ini("warmup", smoke=True)
    _, error = inv.child("run", "warmup", ini)
    if error is not None:
        ledger.failures.append(f"warmup: {error}")


def measure(inv, seconds, ledger):
    """End-to-end metrics of one workload with tracing off."""
    min_runs = inv.workload.runs
    steps = inv.workload.steps(inv.smoke)
    per_run = {"setup_s": [], "first_step_s": [], "run_s": [], "peak_rss_mb": []}
    samples = []
    reference = None
    warm_up(inv, ledger)
    measure_start = time.monotonic()
    while True:  # fresh runs: at least min_runs, and until --seconds have passed
        started = time.monotonic()
        label = f"run{len(per_run['run_s'])}"
        result, rows, failures, error = fresh_run(inv, label, steps)
        if error is None and reference is not None:
            failures += compare_repeat(rows, reference, inv.dir / label / "checkpoint.bin",
                                       inv.dir / "run0" / "checkpoint.bin")
        ledger.record(label, steps, result, failures, error)
        if error is not None or result["aborted"] or not rows:
            break
        if reference is None:
            reference = rows
            checkpoint_read_s = result["checkpoint"].get("read_s")
        per_run["setup_s"].append(result.get("setup_s"))
        per_run["first_step_s"].append(float(rows[0]["wall_ms"]) / 1e3)
        per_run["run_s"].append(result["run_s"])
        per_run["peak_rss_mb"].append(result["peak_rss_mb"])
        samples += [float(r["wall_ms"]) / 1e3 for r in rows[1:]]
        done = len(per_run["run_s"])
        now = time.monotonic()
        if done >= min_runs and (now - measure_start >= seconds
                                 or now + (now - started) > inv.deadline):
            break

    if len(per_run["run_s"]) < min_runs or None in per_run["setup_s"]:
        return {"runs": len(per_run["run_s"])}, None
    tail_p = tail_percentile(min_runs, steps)
    metrics = {name: statistics.median(values) for name, values in per_run.items()}
    metrics["step_s.p50"] = statistics.median(samples)
    metrics["step_s.tail"] = percentile(samples, tail_p)
    details = {
        "runs": len(per_run["run_s"]),
        "per_run": per_run,
        "step_samples": len(samples),
        "tail_percentile": tail_p,
        "checkpoint_read_s": checkpoint_read_s,
    }
    return details, metrics


def trace(inv, ledger):
    """Per-layer metrics from a traced run checked against an untraced one."""
    steps = inv.workload.steps(inv.smoke)
    warm_up(inv, ledger)
    plain, rows, failures, error = fresh_run(inv, "untraced", steps)
    ledger.record("untraced", steps, plain, failures, error)
    spans_path = inv.dir / "spans.jsonl"
    traced, traced_rows, failures, error = fresh_run(
        inv, "traced", steps, mode="traced", spans=spans_path, workload=inv.workload.name)
    if error is None and plain is not None:
        failures += compare_repeat(traced_rows, rows, inv.dir / "traced" / "checkpoint.bin",
                                   inv.dir / "untraced" / "checkpoint.bin")
    ledger.record("traced", steps, traced, failures, error)
    if traced is None or plain is None:
        return {}, None

    with open(spans_path, encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    metrics = aggregate(spans)
    last = traced_rows[-1] if traced_rows else {}
    metrics["optimizers.wssr.effective_rank"] = int(last.get("effective_rank", 0))
    metrics["optimizers.wssr.r_max"] = int(last.get("r_max", 0))
    metrics["optimizers.wssr.ssi_iterations"] = sum(int(r["ssi_iterations"]) for r in traced_rows)
    metrics["tracing_overhead"] = traced["run_s"] / plain["run_s"]
    shares = phase_shares(spans)
    details = {
        "spans": len(spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "shares": shares,
        "predictions": [check_prediction(p, shares) for p in inv.workload.predictions],
    }
    return details, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description="vmcsr benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="a few walkers and steps, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (ROOT / "src" / "vmcsr" / "__init__.py").is_file():
        print(f"no vmcsr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # The build: byte-compile the package so no measured run pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
                   check=True, stdout=subprocess.DEVNULL)

    inv = Invocation(WORKLOADS[args.workload], args.seed, args.smoke, args.trace)
    ledger = Ledger()
    if args.trace:
        details, metrics = trace(inv, ledger)
        declared = [(name, unit) for name, unit, _ in per_layer_metrics()]
    else:
        details, metrics = measure(inv, args.seconds, ledger)
        declared = END_TO_END
    metrics = metrics or {}
    correct = not ledger.failures and all(metrics.get(name) is not None for name, _ in declared)
    print(json.dumps({"environment": inv.environment}))
    print(json.dumps({"details": details, "failures": ledger.failures}))
    print(json.dumps({
        "correct": correct,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed if ledger.attempted else 1,
        "metrics": {name: {"value": metrics.get(name), "unit": unit} for name, unit in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

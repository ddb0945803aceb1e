"""Digest each optimizer's trajectory, to compare two versions bit for bit.

For every row, one per optimizer plus the pseudo-solve branches of sr
(reg_mode = pseudo_inverse) and minsr (tikhonov_eps = 0), a fixed small
helium run (ell_max = 0, 16 walkers, seed 3) goes through the command
line twice: straight through, and split in two with --resume at the
halfway step. Each output line names the row, a SHA-256 of the trace
rows without the wall_ms column, a SHA-256 of the final checkpoint file
and a SHA-256 of the final theta array's bytes; the last still compares
two versions whose checkpoint layouts differ. The exit status is 1 if
a split run's digests differ from its straight run's.

The vmcsr on the import path is the one that runs, so checking a change
against its parent is one diff:

    PYTHONPATH=src python scripts/trajectory_digest.py > change.txt
    PYTHONPATH=/path/to/parent/src python scripts/trajectory_digest.py > parent.txt
    diff parent.txt change.txt
"""

import argparse
import contextlib
import csv
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from vmcsr.checkpoint import read_checkpoint
from vmcsr.cli import main as vmcsr_main

# row name -> (optimizer, extra INI sections)
ROWS = {
    "sgd": ("sgd", ""),
    "sr": ("sr", ""),
    "sr-pinv": ("sr", "[sr]\nreg_mode = pseudo_inverse\n"),
    "minsr": ("minsr", ""),
    "minsr-eps0": ("minsr", "[minsr]\ntikhonov_eps = 0\n"),
    "spring": ("spring", ""),
    "wssr": ("wssr", ""),
    "rssr": ("rssr", ""),
}

CONFIG = """\
[system]
preset = he

[wavefunction]
ell_max = 0

[sampler]
walkers = 16
burn_in = 100
thinning = 2

[optimizer]
name = {name}

[wssr]
rank_init = 6

[run]
seed = 3
{extra}"""


def _vmcsr(*argv):
    """Run the vmcsr command line quietly; fail loudly on a nonzero exit."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = vmcsr_main(list(argv))
    if code != 0:
        raise SystemExit(f"vmcsr {' '.join(argv)} exited with {code}")


def _digests(out_dir):
    """(trace digest without wall_ms, checkpoint digest, theta digest) of
    one run."""
    with open(out_dir / "trace.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    keep = [i for i, column in enumerate(rows[0]) if column != "wall_ms"]
    trace = "\n".join(",".join(row[i] for i in keep) for row in rows)
    checkpoint = out_dir / "checkpoint.bin"
    _, arrays, _ = read_checkpoint(checkpoint)
    return (hashlib.sha256(trace.encode()).hexdigest(),
            hashlib.sha256(checkpoint.read_bytes()).hexdigest(),
            hashlib.sha256(arrays["theta"].tobytes()).hexdigest())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--optimizers", default=",".join(ROWS),
                        help="comma-separated rows to digest: " + ", ".join(ROWS))
    parser.add_argument("--steps", type=int, default=6,
                        help="steps per run (at least 2); the split is at half")
    args = parser.parse_args(argv)
    if args.steps < 2:
        parser.error("--steps must be at least 2")
    names = [n.strip() for n in args.optimizers.split(",") if n.strip()]
    unknown = sorted(set(names) - set(ROWS))
    if unknown:
        parser.error(f"unknown rows: {', '.join(unknown)}")
    split = args.steps // 2

    print(f"# he ell_max=0, 16 walkers, seed 3, {args.steps} steps, "
          f"split {split} + resume")
    mismatched = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            root = Path(tmp) / name
            root.mkdir()
            ini = root / "run.ini"
            ini.write_text(CONFIG.format(name=ROWS[name][0], extra=ROWS[name][1]),
                           encoding="utf-8")
            straight, halves = root / "straight", root / "split"
            _vmcsr("run", "--config", str(ini), "--steps", str(args.steps),
                   "--out", str(straight))
            _vmcsr("run", "--config", str(ini), "--steps", str(split),
                   "--out", str(halves))
            _vmcsr("run", "--config", str(ini), "--steps", str(args.steps),
                   "--out", str(halves), "--resume", str(halves / "checkpoint.bin"))
            digests = _digests(straight)
            print("{:<10} trace {} checkpoint {} theta {}".format(name, *digests))
            if _digests(halves) != digests:
                mismatched.append(name)
    if mismatched:
        print(f"split run differs from straight run: {', '.join(mismatched)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Digest each optimizer's trajectory, to compare two versions bit for bit.

For every row, one per optimizer plus the pseudo-solve branches of sr
(reg_mode = pseudo_inverse) and minsr (tikhonov_eps = 0) and a wssr run
whose block is the whole row space (wssr-full), a fixed small helium run
(ell_max = 0, 16 walkers, seed 3) goes through the command line. The
He rows' 144 parameters outnumber their 16 samples, so sr solves on the
batch side; sr-tall takes 160 samples, so its solve forms S. The
minsr-be-p row runs beryllium with the p shell (ell_max = 1) instead, so
orbitals that share a zeta and pooled sums over four electrons are
covered, as do the sr-be-p, sr-scale-be-p and sr-pinv-be-p rows, one
per sr regularization on the batch side (He's dead parameters fail
diagonal_scale). The minsr-lih row runs LiH, the one row with two nuclei
and so a nonzero internuclear repulsion. The wssr-1024w row runs 1024
walkers: its finite-difference stencil holds 13 x 1024 configurations,
more than one amplitude chunk, so it checks that chunk boundaries do not
move a value. Each run goes through twice:
straight through, and split in two with --resume at the halfway step.
Each output line names the row, a SHA-256 of the trace rows without the
wall_ms column, a SHA-256 of the final checkpoint file and a SHA-256 of
the final theta array's bytes; the last still compares two versions
whose checkpoint layouts differ.
The exit status is 1 if a split run's digests differ from its straight
run's.

The vmcsr on the import path is the one that runs, so checking a change
against its parent is one diff:

    PYTHONPATH=src python scripts/trajectory_digest.py > change.txt
    PYTHONPATH=/path/to/parent/src python scripts/trajectory_digest.py > parent.txt
    diff parent.txt change.txt

Digests depend on the BLAS thread count (the wssr-full row's differ
between OPENBLAS_NUM_THREADS=1 and 2 on the same version), so two
versions' digests compare only when both runs use one thread count.
"""

import argparse
import configparser
import contextlib
import csv
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from vmcsr.checkpoint import read_checkpoint
from vmcsr.cli import main as vmcsr_main

BE_P = {"system": {"preset": "be"}, "wavefunction": {"ell_max": "1"}}

# row name -> (optimizer, INI values over BASE). The wssr row's block
# stays below the 144-row parameter count; wssr-full's batch of 160 makes
# every block the whole row space, the route through the eigh of the
# 144 x 144 Gram matrix.
ROWS = {
    "sgd": ("sgd", {}),
    "sr": ("sr", {}),
    "sr-pinv": ("sr", {"sr": {"reg_mode": "pseudo_inverse"}}),
    "minsr": ("minsr", {}),
    "minsr-eps0": ("minsr", {"minsr": {"tikhonov_eps": "0"}}),
    "spring": ("spring", {}),
    "wssr": ("wssr", {}),
    "rssr": ("rssr", {}),
    "wssr-full": ("wssr", {"sampler": {"samples_per_step": "160"},
                           "wssr": {"rank_init": "400"}}),
    "minsr-be-p": ("minsr", BE_P),
    "minsr-lih": ("minsr", {"system": {"preset": "lih"}}),
    "wssr-1024w": ("wssr", {"sampler": {"walkers": "1024"}}),
    "sr-tall": ("sr", {"sampler": {"samples_per_step": "160"}}),
    "sr-be-p": ("sr", BE_P),
    "sr-scale-be-p": ("sr", {**BE_P, "sr": {"reg_mode": "diagonal_scale"}}),
    "sr-pinv-be-p": ("sr", {**BE_P, "sr": {"reg_mode": "pseudo_inverse"}}),
}

BASE = {
    "system": {"preset": "he"},
    "wavefunction": {"ell_max": "0"},
    "sampler": {"walkers": "16", "burn_in": "100", "thinning": "2"},
    "wssr": {"rank_init": "6"},
    "run": {"seed": "3"},
}


def _write_ini(path, name):
    """The row's config file: BASE, its optimizer, then its own values."""
    optimizer, values = ROWS[name]
    parser = configparser.ConfigParser(interpolation=None)
    for layer in (BASE, {"optimizer": {"name": optimizer}}, values):
        parser.read_dict(layer)
    with open(path, "w", encoding="utf-8") as handle:
        parser.write(handle)


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

    print(f"# he ell_max=0 (*-be-p: be ell_max=1, minsr-lih: lih), 16 walkers "
          f"(wssr-1024w: 1024; sr-tall: 160 samples), seed 3, {args.steps} steps, "
          f"split {split} + resume")
    mismatched = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            root = Path(tmp) / name
            root.mkdir()
            ini = root / "run.ini"
            _write_ini(ini, name)
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

"""Race the update rules on a parameter-starved helium target.

The setup deliberately gives the ansatz far more parameters (544) than
each step draws samples (96), so plain per-batch curvature estimates are
noisy and history averaging has something to earn. With --quick the run
shrinks to a smoke test; the full default takes a few minutes per
optimizer on a laptop core.

At the default steps and seed this is the configuration of acceptance
criterion 9. --ratio-seeds replaces the race with that criterion's
stability statistic at each seed given: wssr run memoryless (delta 0)
and averaged (delta 0.95), and the ratio of the variances of their last
200 raw energies (inf when the memoryless run aborts). Each row goes on
with robust spreads over the same 200 steps: the ratio of the variances
of the clipped energies, the ratio of the median absolute deviations of
the raw energies, and the memoryless minus the averaged mean raw energy.

Usage:
    python scripts/compare_optimizers.py --out /tmp/vmc_compare
    python scripts/compare_optimizers.py --quick --optimizers wssr,sgd
    python scripts/compare_optimizers.py --ratio-seeds 11 12 13 14
"""

import argparse
import math
import sys
import time

import numpy as np

from vmcsr.config import parse_config_text
from vmcsr.runner import run
from vmcsr.trace import smooth_trace

# criterion 9's statistics read the last TAIL steps of each run
TAIL = 200

TEMPLATE = """\
[system]
preset = he

[wavefunction]
correlation_order = 2
radial_powers = 0, 1, 2, 3
ell_max = 0

[sampler]
walkers = 512
burn_in = 400
thinning = 2
samples_per_step = 96

[optimizer]
name = {name}

[wssr]
delta = {delta}
rank_init = 64

[run]
steps = {steps}
seed = {seed}
smooth_window = {window}
out_dir = {out}
"""


def _tail(result):
    """Over a run's last TAIL steps: the variances of the raw and of the
    clipped energies, and the median absolute deviation and the mean of
    the raw energies (inf, inf, inf, nan if the run aborted)."""
    if result.aborted:
        return math.inf, math.inf, math.inf, math.nan
    raw = np.array([rec.raw_energy for rec in result.records[-TAIL:]])
    clipped = np.array([rec.clipped_energy for rec in result.records[-TAIL:]])
    mad = np.median(np.abs(raw - np.median(raw)))
    return float(np.var(raw)), float(np.var(clipped)), float(mad), float(np.mean(raw))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="vmc_compare", help="output directory root")
    parser.add_argument("--steps", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--delta", type=float, default=0.95,
                        help="history weight for the averaged methods")
    parser.add_argument("--optimizers", default="wssr,rssr,spring,minsr,sgd",
                        help="comma-separated subset to race")
    parser.add_argument("--quick", action="store_true",
                        help="100 steps instead of the full schedule")
    parser.add_argument("--ratio-seeds", type=int, nargs="+", metavar="S",
                        help="print criterion 9's memoryless/averaged variance "
                             "ratio at each seed S instead of racing")
    args = parser.parse_args(argv)

    steps = 100 if args.quick else args.steps
    window = max(1, min(100, steps // 4))

    def race(name, delta, seed, out):
        text = TEMPLATE.format(name=name, delta=delta, steps=steps, seed=seed,
                               window=window, out=out)
        return run(parse_config_text(text))

    if args.ratio_seeds:
        print(f"helium, {steps} steps, wssr, last {TAIL} steps, memoryless (delta 0) "
              f"over averaged (delta 0.95): raw and clipped energy variance ratios, "
              f"median-absolute-deviation ratio, mean raw energy difference (Ha)")
        for seed in args.ratio_seeds:
            mem, avg = (_tail(race("wssr", delta, seed, f"{args.out}/seed{seed}-delta{delta}"))
                        for delta in (0.0, 0.95))
            if math.isinf(avg[0]):
                print(f"seed {seed:>4}: averaged run aborted")
            else:
                print(f"seed {seed:>4}: ratio {mem[0] / avg[0]:.4g} clipped {mem[1] / avg[1]:.4g} "
                      f"mad {mem[2] / avg[2]:.4g} mean-diff {mem[3] - avg[3]:.4g}")
        return 0

    names = [n.strip() for n in args.optimizers.split(",") if n.strip()]

    print(f"helium, {steps} steps, seed {args.seed}, 544 params / 96 samples per step")
    print(f"{'optimizer':>10} {'smoothed E':>12} {'tail var':>10} "
          f"{'accept':>7} {'seconds':>8}")
    for name in names:
        t0 = time.perf_counter()
        result = race(name, args.delta, args.seed, f"{args.out}/{name}")
        elapsed = time.perf_counter() - t0
        if result.aborted:
            print(f"{name:>10} {'aborted at step ' + str(result.steps_completed):>31}")
            continue
        energies = np.array([rec.raw_energy for rec in result.records])
        tail = energies[-max(10, steps // 10):]
        smoothed = smooth_trace(energies, window)[-1]
        accept = result.records[-1].acceptance_rate
        print(f"{name:>10} {smoothed:>12.5f} {float(np.var(tail)):>10.2e} "
              f"{accept:>7.3f} {elapsed:>8.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

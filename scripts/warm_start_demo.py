"""Show what warm starting buys on slowly drifting matrices.

Builds a matrix with a clean spectral gap, perturbs it by a small
relative amount (the optimization-time regime: consecutive covariance
factors differ by a correction of roughly the learning-rate scale), and
factorizes the perturbed matrix twice -- once from a random block, once
seeded with the previous left singular vectors. Prints the iteration
counts side by side for a range of drift sizes.

Usage:
    python scripts/warm_start_demo.py
    python scripts/warm_start_demo.py --trials 50 --tol 1e-10
"""

import argparse
import sys

import numpy as np

from vmcsr.svdengine import qr_orthonormalize, ssi_svd


def drifting_pair(rng, drift, m=80, n=60):
    u, _ = qr_orthonormalize(rng.standard_normal((m, 14)))
    v, _ = qr_orthonormalize(rng.standard_normal((n, 14)))
    spectrum = np.array(
        [8, 6.5, 5, 4, 3, 2.4, 1.2, 0.9, 0.7, 0.5, 0.4, 0.3, 0.2, 0.1]
    )
    base = u @ np.diag(spectrum) @ v.T
    noise = rng.standard_normal((m, n))
    noise *= drift * np.linalg.norm(base) / np.linalg.norm(noise)
    return base, base + noise


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--rank", type=int, default=6)
    parser.add_argument("--tol", type=float, default=1e-8,
                        help="subspace residual at which iteration stops")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    print(f"rank {args.rank}, residual tolerance {args.tol:g}, "
          f"{args.trials} trials per drift size")
    print(f"{'drift':>8} {'warm (mean)':>12} {'cold (mean)':>12} {'ratio':>7}")
    for drift in (1e-5, 1e-4, 1e-3, 1e-2):
        warm_counts, cold_counts = [], []
        for trial in range(args.trials):
            rng = np.random.default_rng((args.seed, trial))
            base, drifted = drifting_pair(rng, drift)
            settled, _ = ssi_svd(base, args.rank, max_iters=500,
                                 residual_tol=args.tol)
            _, cold = ssi_svd(drifted, args.rank, max_iters=500,
                              residual_tol=args.tol)
            _, warm = ssi_svd(drifted, args.rank, max_iters=500,
                              residual_tol=args.tol, u_init=settled.u)
            warm_counts.append(warm)
            cold_counts.append(cold)
        mean_warm = float(np.mean(warm_counts))
        mean_cold = float(np.mean(cold_counts))
        print(f"{drift:>8.0e} {mean_warm:>12.1f} {mean_cold:>12.1f} "
              f"{mean_warm / mean_cold:>7.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

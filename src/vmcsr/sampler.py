"""Metropolis-Hastings walker ensemble over electron configurations.

All-electron Gaussian moves accepted on the squared-amplitude ratio.
The whole ensemble draws from one RNG stream spawned from the run seed:
each sweep takes one (walkers, N, 3) array of proposal noise and one
vector of acceptance uniforms. Results are bitwise reproducible, and a
run resumes from the stream's saved state.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalAbort
from .estimators import SampleBatch
from .system import local_energy_batch

TARGET_ACCEPTANCE = 0.5
ADAPT_INTERVAL = 50
PROPOSAL_STD_BOUNDS = (1e-3, 10.0)


@dataclass
class WalkerEnsemble:
    """Mutable ensemble state advanced in place by metropolis_step."""

    positions: np.ndarray        # (walkers, N, 3)
    log_abs: np.ndarray          # (walkers,) cached log-amplitudes
    rng: np.random.Generator     # the one ensemble-wide stream
    proposal_std: float
    accepted: int = 0            # ensemble-wide move counters
    proposed: int = 0
    burned_in: bool = False

    def __post_init__(self):
        # 0 is the degenerate limit metropolis_step documents, not an error
        if not 0.0 <= self.proposal_std < math.inf:
            raise ValueError(
                f"proposal_std must be finite and >= 0, got {self.proposal_std!r}"
            )

    @property
    def n_walkers(self):
        return self.positions.shape[0]

    @classmethod
    def create(cls, system, wavefunction, n_walkers, seed, proposal_std):
        """Walkers jittered around nuclei, drawing from one spawned stream.

        Electrons are parked on nuclei in charge-proportional order, then
        displaced by unit Gaussians. The stream is a spawned child of the
        run seed, apart from the seed's own stream (parameter noise).
        """
        if n_walkers < 1:
            raise ValueError("need at least one walker")
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])

        sites = []
        for idx, z in enumerate(system.nuclear_charges):
            sites.extend([idx] * z)
        n = system.n_electrons
        anchors = np.array(
            [system.nuclear_positions[sites[i % len(sites)]] for i in range(n)]
        )
        positions = anchors + rng.standard_normal((n_walkers, n, 3))
        log_abs = np.asarray(wavefunction.log_abs_batch(positions), dtype=np.float64)
        if np.any(np.isnan(log_abs)):
            raise NumericalAbort("NaN log-amplitude at walker initialization")
        return cls(
            positions=positions,
            log_abs=log_abs,
            rng=rng,
            proposal_std=float(proposal_std),
        )


def metropolis_step(ensemble, wavefunction):
    """One all-electron Metropolis move per walker, in place.

    Proposals are x + std * xi with xi standard normal; acceptance uses
    min(1, exp(2 * (log|psi'| - log|psi|))). A proposal on a node
    (log-amplitude -inf) is always rejected. std = 0 is allowed for the
    degenerate limit: the move is the identity and always accepted.

    Returns the ensemble (the same, mutated, object).
    """
    std = ensemble.proposal_std
    w = ensemble.n_walkers
    n = ensemble.positions.shape[1]

    noise = ensemble.rng.standard_normal((w, n, 3))
    uniforms = ensemble.rng.random(w)
    proposals = ensemble.positions + std * noise
    new_log = np.asarray(wavefunction.log_abs_batch(proposals), dtype=np.float64)
    if np.any(np.isnan(new_log)):
        raise NumericalAbort(
            f"NaN log-amplitude in proposals (step spread {std:g}); "
            f"walker positions span |x| <= {np.max(np.abs(proposals)):.3e}"
        )

    # a NaN ratio (a node on both sides) compares False: rejected
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = 2.0 * (new_log - ensemble.log_abs)
        accept = np.log(uniforms) < log_ratio

    np.copyto(ensemble.positions, proposals, where=accept[:, None, None])
    np.copyto(ensemble.log_abs, new_log, where=accept)
    ensemble.proposed += w
    ensemble.accepted += int(np.count_nonzero(accept))
    return ensemble


def burn_in(ensemble, wavefunction, steps):
    """Equilibrate once per run, tuning the proposal spread.

    The spread is nudged multiplicatively toward the target acceptance on
    fixed windows, clamped to sane bounds, and frozen afterwards (the
    burned_in flag); later sampling never adapts again, so the chain
    kernel is fixed when measurements start.
    """
    if ensemble.burned_in or steps <= 0:
        ensemble.burned_in = True
        return ensemble
    done = 0
    while done < steps:
        chunk = min(ADAPT_INTERVAL, steps - done)
        before_acc = ensemble.accepted
        for _ in range(chunk):
            metropolis_step(ensemble, wavefunction)
        done += chunk
        window_rate = (ensemble.accepted - before_acc) / (chunk * ensemble.n_walkers)
        factor = float(np.exp(window_rate - TARGET_ACCEPTANCE))
        lo, hi = PROPOSAL_STD_BOUNDS
        ensemble.proposal_std = float(np.clip(ensemble.proposal_std * factor, lo, hi))
    ensemble.burned_in = True
    return ensemble


def sample_batch(ensemble, wavefunction, system, n_samples, burn_in_steps, thinning):
    """Collect decorrelated samples with energies and log-derivatives.

    Burn-in runs only if the ensemble has not equilibrated yet (once per
    run); afterwards each collection round advances every walker
    `thinning` steps and takes the current states in fixed walker order.

    Args:
      n_samples: batch size; walker count should divide it (rounds take
        whole ensembles, a final partial round takes the leading walkers).

    Returns:
      SampleBatch with raw local energies (clipping happens downstream).
    """
    remaining = int(n_samples)
    if remaining < 1:
        raise ValueError("need at least one sample")
    burn_in(ensemble, wavefunction, burn_in_steps)

    collected = []
    while remaining > 0:
        for _ in range(thinning):
            metropolis_step(ensemble, wavefunction)
        take = min(remaining, ensemble.n_walkers)
        collected.append(ensemble.positions[:take].copy())
        remaining -= take
    positions = np.concatenate(collected, axis=0)

    energies = local_energy_batch(system, wavefunction, positions)
    logderivs = wavefunction.grad_theta_batch(positions)
    return SampleBatch(
        positions=positions,
        local_energies=np.asarray(energies, dtype=np.float64),
        theta_logderivs=np.asarray(logderivs, dtype=np.float64),
    )

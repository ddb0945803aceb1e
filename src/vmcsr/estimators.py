"""Batch estimators: outlier clipping, centered log-derivative matrix,
energy residuals, and the stochastic loss gradient.

Columns of the derivative matrix and entries of the residual vector are
scaled by 1/sqrt(batch size), so the covariance S = O O^T and its small
companion T = O^T O come out normalized and share their nonzero spectra.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBatch


@dataclass(frozen=True)
class SampleBatch:
    """Decorrelated draws with their local energies and log-derivatives."""

    positions: np.ndarray          # (batch, N, 3)
    local_energies: np.ndarray     # (batch,) raw values
    theta_logderivs: np.ndarray    # (batch, n_params)

    def __post_init__(self):
        n = self.positions.shape[0]
        if self.local_energies.shape != (n,) or self.theta_logderivs.shape[0] != n:
            raise ValueError("batch fields disagree on the sample count")

    @property
    def size(self):
        return self.positions.shape[0]


@dataclass(frozen=True)
class EstimatorBundle:
    """Everything one optimizer step consumes."""

    loss: float                # mean clipped energy
    raw_loss: float            # mean energy before clipping
    o_matrix: np.ndarray       # (n_params, batch), centered, 1/sqrt(batch)
    l_vector: np.ndarray       # (batch,), clipped residuals, 1/sqrt(batch)
    gradient: np.ndarray       # (n_params,) = 2 * O @ L


def clip_local_energies(energies, n_std):
    """Clamp outliers to mean +- n_std * population standard deviation.

    The window statistics come from the batch itself (ddof = 0). An
    infinite n_std disables clipping; a constant batch passes through
    unchanged.
    """
    energies = np.asarray(energies, dtype=np.float64)
    if energies.size < 2:
        raise DegenerateBatch("clipping window needs at least two samples")
    if not np.isfinite(n_std):
        return energies.copy()
    if n_std < 0:
        raise ValueError("clipping width must be nonnegative")
    center = float(np.mean(energies))
    spread = float(np.std(energies))
    if spread == 0.0:
        return energies.copy()
    return np.clip(energies, center - n_std * spread, center + n_std * spread)


def assemble(batch, clip_n_std):
    """Build the centered estimator bundle from one sample batch.

    The gradient 2 * O @ L algebraically equals the literal per-sample sum
    (2/batch) * sum_n (E_n - mean E) * dlogpsi_n because centering O
    leaves the product with the already-centered L unchanged.

    Raises:
      DegenerateBatch: fewer than two samples (nothing to center).
    """
    if batch.size < 2:
        raise DegenerateBatch("need at least two samples to center the batch")
    derivs = np.asarray(batch.theta_logderivs, dtype=np.float64)
    clipped = clip_local_energies(batch.local_energies, clip_n_std)
    loss = float(np.mean(clipped))
    raw_loss = float(np.mean(batch.local_energies))
    # one temporary: the centred derivatives, scaled in place and used
    # through their transpose (a Fortran-ordered view)
    scale = 1.0 / np.sqrt(batch.size)
    o_matrix = (derivs - np.mean(derivs, axis=0)).T
    o_matrix *= scale
    l_vector = (clipped - loss) * scale
    gradient = 2.0 * (o_matrix @ l_vector)
    return EstimatorBundle(
        loss=loss,
        raw_loss=raw_loss,
        o_matrix=o_matrix,
        l_vector=l_vector,
        gradient=gradient,
    )


def s_matrix(bundle):
    """Parameter-space covariance O @ O^T (n_params x n_params)."""
    return bundle.o_matrix @ bundle.o_matrix.T


def t_matrix(bundle):
    """Sample-space companion O^T @ O (batch x batch); same nonzero spectrum."""
    return bundle.o_matrix.T @ bundle.o_matrix

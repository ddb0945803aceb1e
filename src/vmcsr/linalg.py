"""Dense linear-algebra kernels: QR orthonormalization, SVD, SPD solves.

Contracts here are deliberately strict (sign conventions, typed errors,
residual tolerances) because the truncated-SVD engine and the optimizers
build on them directly.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_solve, cholesky

from .errors import NotPositiveDefinite, ZeroMatrix

ZERO_MATRIX_NORM = 1e-300
DEFICIENT_COLUMN_REL = 1e-12


def _as_matrix(a):
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    return a


def qr_orthonormalize(a):
    """Thin QR with orthonormal Q and a nonnegative diagonal of R.

    One path for every input: LAPACK Householder QR, a column sign fix
    that makes diag(R) nonnegative, and every diagonal of R at or below
    1e-12 * ||A||_F set to exactly zero. A column of Q at such a zero
    pivot is Householder's orthonormal completion direction, so Q stays
    orthonormal and Q R still reconstructs A to tolerance.

    Args:
      a: (m, n) array, m >= n.

    Returns:
      (q, r): q of shape (m, n) with orthonormal columns, r of shape
      (n, n) upper triangular with diag(r) >= 0 and q @ r == a.

    Raises:
      ZeroMatrix: if ||a||_F < 1e-300.
    """
    a = _as_matrix(a)
    m, n = a.shape
    if m < n:
        raise ValueError(f"need at least as many rows as columns, got {a.shape}")
    fro = float(np.linalg.norm(a))
    if fro < ZERO_MATRIX_NORM:
        raise ZeroMatrix(f"cannot orthonormalize a numerically zero matrix (norm {fro:.3e})")

    q, r = np.linalg.qr(a, mode="reduced")
    signs = np.where(np.diagonal(r) < 0.0, -1.0, 1.0)
    q = q * signs
    r = r * signs[:, None]
    deficient = np.flatnonzero(np.diagonal(r) <= DEFICIENT_COLUMN_REL * fro)
    r[deficient, deficient] = 0.0
    return q, r


def exact_svd(a):
    """Economy SVD a = u @ diag(sigma) @ vt with sigma nonincreasing.

    A wide input is factored through its transpose: LAPACK's divide and
    conquer is markedly faster on the tall orientation.

    Args:
      a: (m, n) array.

    Returns:
      (u, sigma, vt) with shapes (m, k), (k,), (k, n), k = min(m, n).
    """
    a = _as_matrix(a)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    if a.shape[0] < a.shape[1]:
        v, sigma, ut = np.linalg.svd(a.T, full_matrices=False)
        return ut.T, sigma, v.T
    return np.linalg.svd(a, full_matrices=False)


@dataclass(frozen=True)
class SpdFactorization:
    """Cholesky factor of a diagonally shifted symmetric matrix."""

    chol_lower: np.ndarray  # lower triangular, T + shift*I = L @ L.T

    def solve(self, b):
        """Solve (T + shift*I) x = b for one or many right-hand sides."""
        return cho_solve((self.chol_lower, True), np.asarray(b, dtype=np.float64))


def spd_factorize(t, shift=0.0):
    """Cholesky-factorize T + shift*I.

    Args:
      t: (n, n) symmetric array (checked to 1e-10 relative).
      shift: nonnegative diagonal regularization.

    Raises:
      NotPositiveDefinite: if the shifted matrix has a nonpositive pivot.
    """
    t = np.asarray(t, dtype=np.float64)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ValueError(f"expected a square matrix, got {t.shape}")
    if shift < 0.0:
        raise ValueError("shift must be nonnegative")
    scale = max(float(np.max(np.abs(t))), 1.0)
    if float(np.max(np.abs(t - t.T))) > 1e-10 * scale:
        raise ValueError("matrix is not symmetric to tolerance")
    shifted = t
    if shift:
        shifted = t.copy()
        shifted[np.diag_indices_from(shifted)] += shift
    try:
        lower = cholesky(shifted, lower=True)
    except LinAlgError as exc:
        raise NotPositiveDefinite(
            f"shifted matrix (shift={shift:g}) is not positive definite"
        ) from exc
    return SpdFactorization(chol_lower=lower)

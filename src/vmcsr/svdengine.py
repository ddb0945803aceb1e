"""Truncated SVD engine for the streamed log-derivative matrix.

One engine: block subspace iteration on the Gram operator, warm-startable
from the previous step's left singular vectors and stopped once its block
spans an invariant subspace or its budget is spent. It finishes with a
Rayleigh-Ritz step, the dense SVD of the small projected matrix q.T @ ohat,
which is exact for any basis of an invariant span. rssr's Gaussian
range sketch is one budgeted pass of the same engine from an oversampled
Gaussian block (Halko, Martinsson & Tropp, SIAM Review 53 (2011),
Alg. 5.1). Both uses are checked against the dense SVD in the test
suite.

The dense kernels live here too: the sign-fixed QR that orthonormalizes
every block, a start block included, and the dense SVD, the
finish shared by the exact truncation and the Rayleigh-Ritz step. Both
treat a value at or below DEFICIENT_COLUMN_REL * ||ohat||_F as zero.

The one exact factorization on the optimizer's path is gram_svd: the
eigendecomposition of the Gram matrix of the smaller side (ohat @ ohat.T
or ohat.T @ ohat), the other factor from one product. wssr and rssr take
it at their first step and whenever a block would span the whole row
space. Squaring the spectrum costs half the digits, so there a singular
value at or below GRAM_ZERO_REL * ||ohat||_F is zero. The dense
exact_truncated_svd stays as the oracle the tests compare against.

Every entry point checks its arguments once, through _checked. A shape,
rank or block width the matrix cannot hold, or a non-finite entry, is a
caller's mistake and raises ValueError. A matrix whose Frobenius norm is
below ZERO_MATRIX_NORM carries no signal to factorize and raises
DegenerateInput, a NumericalError like every failure on the data itself.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput

_COLD_START_SEED = 0x5EED
# Below this Frobenius norm a matrix is numerically zero.
ZERO_MATRIX_NORM = 1e-300
# A QR pivot or singular value at or below this fraction of the matrix's
# Frobenius norm is an exact zero.
DEFICIENT_COLUMN_REL = 1e-12
# A singular value read off the Gram matrix at or below this fraction of
# the Frobenius norm is zero: sqrt(eps), where the squared spectrum runs
# out of digits.
GRAM_ZERO_REL = math.sqrt(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class TruncatedSvd:
    """Rank-r factors: a ~= u @ diag(sigma) @ v."""

    u: np.ndarray      # (m, r), orthonormal columns
    sigma: np.ndarray  # (r,), strictly positive, nonincreasing
    v: np.ndarray      # (r, n), orthonormal rows

    def __post_init__(self):
        r = self.sigma.shape[0]
        if self.u.ndim != 2 or self.v.ndim != 2 or self.sigma.ndim != 1:
            raise ValueError("malformed factor shapes")
        if self.u.shape[1] != r or self.v.shape[0] != r:
            raise ValueError(
                f"inconsistent ranks: u {self.u.shape}, sigma {r}, v {self.v.shape}"
            )
        if r and (np.any(self.sigma <= 0.0) or np.any(np.diff(self.sigma) > 0.0)):
            raise ValueError("sigma must be strictly positive and nonincreasing")

    @property
    def rank(self):
        return self.sigma.shape[0]


def qr_orthonormalize(a):
    """Thin QR with orthonormal Q and a nonnegative diagonal of R.

    One path for every input: LAPACK Householder QR, a column sign fix
    that makes diag(R) nonnegative, and every diagonal of R at or below
    DEFICIENT_COLUMN_REL * ||A||_F set to exactly zero. A column of Q at
    such a zero pivot is Householder's orthonormal completion direction,
    so Q stays orthonormal and Q R still reconstructs A to tolerance.

    Args:
      a: (m, n) array, 1 <= n <= m.

    Returns:
      (q, r): q of shape (m, n) with orthonormal columns, r of shape
      (n, n) upper triangular with diag(r) >= 0 and q @ r == a.

    Raises:
      ValueError: unless a is a finite matrix with 1 <= n <= m.
      DegenerateInput: if ||a||_F < ZERO_MATRIX_NORM.
    """
    a, fro = _checked(a, np.shape(a)[-1])
    q, r = np.linalg.qr(a, mode="reduced")
    signs = np.where(np.diagonal(r) < 0.0, -1.0, 1.0)
    q *= signs
    r *= signs[:, None]
    deficient = np.flatnonzero(np.diagonal(r) <= DEFICIENT_COLUMN_REL * fro)
    r[deficient, deficient] = 0.0
    return q, r


def _checked(a, rank, block=None):
    """a as a float64 matrix and its Frobenius norm: the one argument
    check of every entry point.

    Args:
      a: the (m, n) matrix.
      rank: triplets wanted (for the QR, its column count), within
        [1, min(m, n)].
      block: optional (m, width) start block, rank <= width <= min(m, n).
        None means a block of width `rank`.

    Raises:
      ValueError: if a is not a matrix, rank or the block's shape lies
        outside those bounds, or a has a non-finite entry.
      DegenerateInput: if ||a||_F < ZERO_MATRIX_NORM.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"need a matrix, got shape {a.shape}")
    width = rank
    if block is not None:
        if block.ndim != 2 or block.shape[0] != a.shape[0]:
            raise ValueError(f"start block must have {a.shape[0]} rows, got shape {block.shape}")
        width = block.shape[1]
    if not 1 <= rank <= width <= min(a.shape):
        raise ValueError(
            f"rank {rank} in a block of width {width} outside [1, {min(a.shape)}] "
            f"for shape {a.shape}"
        )
    fro = float(np.linalg.norm(a))
    if not math.isfinite(fro):
        raise ValueError("matrix has non-finite entries")
    if fro < ZERO_MATRIX_NORM:
        raise DegenerateInput(f"cannot factorize a numerically zero matrix (norm {fro:.3e})")
    return a, fro


def _finish(a, fro, rank, basis=None):
    """Dense SVD of a, truncated to its leading `rank` triplets.

    fro is the Frobenius norm of ohat, and singular values at or below
    DEFICIENT_COLUMN_REL * fro are dropped as exact zeros, the threshold
    qr_orthonormalize applies to its pivots. A wide a is factored through
    its transpose: LAPACK's divide and conquer is markedly faster on the
    tall orientation. With a basis, a is the projection basis.T @ ohat
    and the left vectors come back as basis @ u (the Rayleigh-Ritz
    finish).
    """
    if a.shape[0] < a.shape[1]:
        v, sigma, ut = np.linalg.svd(a.T, full_matrices=False)
        u, vt = ut.T, v.T
    else:
        u, sigma, vt = np.linalg.svd(a, full_matrices=False)
    k = int(np.count_nonzero(sigma[:rank] > DEFICIENT_COLUMN_REL * fro))
    if k == 0:
        raise DegenerateInput("factorization produced no positive singular values")
    u = u[:, :k]
    return TruncatedSvd(u=u if basis is None else basis @ u, sigma=sigma[:k], v=vt[:k, :])


def exact_truncated_svd(ohat, rank):
    """Dense SVD truncated to the leading triplets (dropping zeros).

    Raises:
      ValueError: unless 1 <= rank <= min(ohat.shape) and ohat is finite.
      DegenerateInput: if ohat is numerically zero.
    """
    ohat, fro = _checked(ohat, rank)
    return _finish(ohat, fro, rank)


def gram_svd(ohat, rank):
    """The leading `rank` triplets, through the Gram matrix of the smaller side.

    Takes the eigendecomposition of G = ohat @ ohat.T (m x m) when
    m <= n, else of G = ohat.T @ ohat (n x n), in place of a dense SVD:
    sigma is the square root of G's eigenvalues, descending, and their
    eigenvectors are one factor, u when m <= n and v otherwise. The other
    factor comes from one product, v = sigma^-1 u.T @ ohat or
    u = ohat @ v.T sigma^-1. A singular value at or below
    GRAM_ZERO_REL * ||ohat||_F is dropped as zero, so at ratios
    sigma / sigma_1 above about 1e-3 the values agree with the dense SVD
    to about 1e-10 relative.

    Raises:
      ValueError: unless 1 <= rank <= min(ohat.shape) and ohat is finite.
      DegenerateInput: if ohat is numerically zero, or its Gram matrix
        underflows to zero.
    """
    ohat, fro = _checked(ohat, rank)
    wide = ohat.shape[0] <= ohat.shape[1]
    lam, w = np.linalg.eigh(ohat @ ohat.T if wide else ohat.T @ ohat)
    sigma = np.sqrt(np.maximum(lam[::-1], 0.0))
    k = int(np.count_nonzero(sigma[:rank] > GRAM_ZERO_REL * fro))
    if k == 0:
        raise DegenerateInput("Gram matrix underflowed: no singular value left")
    w = np.ascontiguousarray(w[:, ::-1][:, :k])
    sigma = sigma[:k]
    if wide:
        v = w.T @ ohat
        v /= sigma[:, None]
        return TruncatedSvd(u=w, sigma=sigma, v=v)
    u = ohat @ w
    u /= sigma
    return TruncatedSvd(u=u, sigma=sigma, v=np.ascontiguousarray(w.T))


def ssi_svd(ohat, rank, *, max_iters, residual_tol, u_init=None):
    """Dominant singular triplets by warm-startable block subspace iteration.

    Each iteration orthonormalizes the current block q and pulls it
    through the transpose (b_t = ohat.T @ q). An iteration the budget
    lets continue pushes it back (ohat @ b_t), which is both the next
    block and the product the subspace residual reads. After the loop,
    the Rayleigh-Ritz finish factors the projected matrix
    b_t.T = q.T @ ohat densely: u = q @ u_b, v = vt, truncated to `rank`.
    The finish is exact whenever span(q) is invariant, whatever basis of
    it the block holds.

    Args:
      ohat: (m, n) matrix.
      rank: number of triplets to compute, within [1, min(m, n)].
      max_iters: iteration budget; the loop exits as soon as the subspace
        residual of the block drops below residual_tol.
      residual_tol: early-exit threshold on the subspace residual
        ||G q - q (q^T G q)||_F / ||ohat||_F^2 with G = ohat @ ohat.T,
        which is zero exactly when span(q) is invariant. The last
        iteration the budget allows forms no residual.
      u_init: optional (m, width) warm-start block with
        rank <= width <= min(m, n); extra columns oversample. Any block
        of full column rank will do: the QR that opens the iteration is
        its one orthonormalization, so callers pass it as it stands.
        None means a seeded random cold start of width `rank`.

    Returns:
      (TruncatedSvd, iterations_used). The returned rank can be below
      `rank` when the matrix rank is smaller (zeros are dropped).

    Raises:
      ValueError: for a rank or block outside those bounds, or a
        non-finite entry.
      DegenerateInput: if ohat is numerically zero.
    """
    block = None if u_init is None else np.asarray(u_init, dtype=np.float64)
    ohat, fro = _checked(ohat, rank, block)
    if block is None:
        block = np.random.default_rng(_COLD_START_SEED).standard_normal((ohat.shape[0], rank))

    fro2 = fro**2
    q, _ = qr_orthonormalize(block)
    u = ohat @ (ohat.T @ q)
    iterations = 0
    while True:
        # the last block dies as the next is formed: neither the last q
        # nor u is held through the QR or the products after it
        del q
        q, _ = qr_orthonormalize(u)
        del u
        iterations += 1
        b_t = ohat.T @ q
        if iterations >= max_iters:
            break
        # the residual's products are the next iteration's block
        u = ohat @ b_t
        residual = q @ (q.T @ u)
        np.subtract(u, residual, out=residual)
        converged = float(np.linalg.norm(residual)) / fro2 < residual_tol
        # one block fewer held through the next QR
        del residual
        if converged:
            break

    return _finish(b_t.T, fro, rank, basis=q), iterations


def subspace_drift(u_prev, sigma_prev, u, sigma):
    """Change in singular values and in the left-subspace projector.

    Both factor pairs (left vectors as columns, singular values) are
    truncated to the smaller rank. The projector change
    ||P_prev - P_curr||_2 equals the largest principal-angle sine,
    computed from the cross-product u_prev.T @ u without forming either
    projector; the sine is taken from the out-of-span component
    u - u_prev @ cross, which stays accurate for nearly identical
    subspaces; its 2-norm is the square root of the top eigenvalue of its
    r x r Gram, not a dense SVD of the m x r block. Drifts below rounding
    (1e-12) report as exact zero.

    Returns:
      (sigma_drift, projector_drift) floats.
    """
    r = min(sigma_prev.shape[0], sigma.shape[0])
    if u_prev.shape[0] != u.shape[0]:
        raise ValueError("factor sets live in different row spaces")
    if r == 0:
        return 0.0, 0.0
    sigma_drift = float(np.linalg.norm(sigma_prev[:r] - sigma[:r]))
    u1 = u_prev[:, :r]
    u2 = u[:, :r]
    out_of_span = u2 - u1 @ (u1.T @ u2)
    top = np.linalg.eigvalsh(out_of_span.T @ out_of_span)[-1]
    projector_drift = math.sqrt(max(float(top), 0.0))
    if sigma_drift < 1e-12:
        sigma_drift = 0.0
    if projector_drift < 1e-12:
        projector_drift = 0.0
    return sigma_drift, projector_drift

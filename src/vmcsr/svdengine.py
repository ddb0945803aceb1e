"""Truncated SVD engines for the streamed log-derivative matrix.

Two routes to the dominant singular triplets of a dense matrix: block
subspace iteration that can be warm-started from the previous step's left
singular vectors, and a one-pass Gaussian range sketch. Both are checked
against the dense SVD in the test suite.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, RankTooLarge
from .linalg import exact_svd, qr_orthonormalize

DEFAULT_RESIDUAL_EXIT = 1e-10
_COLD_START_SEED = 0x5EED


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

    def reconstruct(self):
        return (self.u * self.sigma) @ self.v


@dataclass(frozen=True)
class SsiReport:
    """Telemetry from one factorization call."""

    iterations_used: int
    subspace_residual: float
    warm_started: bool


def subspace_residual(ohat, u_orthonormal):
    """Invariance defect of a left subspace under the Gram operator.

    ||G U - U (U^T G U)||_F / ||ohat||_F^2 with G = ohat @ ohat.T; zero
    exactly when span(U) is an invariant subspace, i.e. a set of left
    singular directions.
    """
    fro2 = float(np.linalg.norm(ohat)) ** 2
    if fro2 == 0.0:
        raise DegenerateInput("residual undefined for a zero matrix")
    w = ohat @ (ohat.T @ u_orthonormal)
    return float(np.linalg.norm(w - u_orthonormal @ (u_orthonormal.T @ w)) / fro2)


def _positive_prefix(sigma, limit):
    k = int(np.sum(sigma[:limit] > 0.0))
    return max(k, 0)


def exact_truncated_svd(ohat, rank):
    """Dense SVD truncated to the leading triplets (dropping exact zeros)."""
    ohat = np.asarray(ohat, dtype=np.float64)
    m, n = ohat.shape
    if rank < 1 or rank > min(m, n):
        raise RankTooLarge(f"rank {rank} outside [1, {min(m, n)}] for shape {ohat.shape}")
    if float(np.linalg.norm(ohat)) == 0.0:
        raise DegenerateInput("cannot factorize an all-zero matrix")
    u, sigma, vt = exact_svd(ohat)
    k = _positive_prefix(sigma, rank)
    return TruncatedSvd(u=u[:, :k], sigma=sigma[:k], v=vt[:k, :])


def ssi_svd(ohat, rank, max_iters=3, u_init=None, residual_tol=DEFAULT_RESIDUAL_EXIT):
    """Dominant singular triplets by warm-startable block subspace iteration.

    Each iteration orthonormalizes the current block, pulls it through the
    transpose (v = ohat.T @ q), and pushes it back (u = ohat @ v). After
    the loop, the QR of the final v block yields the singular values as
    |diag(R)| and the right vectors as its Q columns; triplets are sorted
    descending and the returned u is re-orthonormalized.

    Args:
      ohat: (m, n) matrix.
      rank: number of triplets to compute, within [1, min(m, n)].
      max_iters: iteration budget; the loop exits as soon as the subspace
        residual of the refined block drops below residual_tol. The exit
        additionally requires the block Rayleigh quotient to be diagonal
        to the same relative tolerance: an invariant span with still-mixed
        columns (every full-rank cold start) would otherwise satisfy the
        residual while the QR-diagonal sigma extraction is meaningless.
      u_init: optional (m, rank) warm-start block (orthonormalized
        defensively). None means a seeded random cold start.
      residual_tol: early-exit threshold on the subspace residual.

    Returns:
      (TruncatedSvd, SsiReport). The returned rank can be below `rank`
      when the matrix rank is smaller (exact zeros are dropped).
    """
    ohat = np.asarray(ohat, dtype=np.float64)
    m, n = ohat.shape
    if rank < 1 or rank > min(m, n):
        raise RankTooLarge(f"rank {rank} outside [1, {min(m, n)}] for shape {ohat.shape}")
    fro = float(np.linalg.norm(ohat))
    if fro == 0.0:
        raise DegenerateInput("cannot factorize an all-zero matrix")

    warm = u_init is not None
    if warm:
        block = np.asarray(u_init, dtype=np.float64)
        if block.shape != (m, rank):
            raise ValueError(f"u_init must have shape {(m, rank)}, got {block.shape}")
    else:
        block = np.random.default_rng(_COLD_START_SEED).standard_normal((m, rank))

    fro2 = fro**2
    q, _ = qr_orthonormalize(block)
    v = ohat.T @ q               # (n, rank)
    u = ohat @ v                 # (m, rank)
    iterations = 0
    while True:
        q, _ = qr_orthonormalize(u)
        iterations += 1
        # the residual's products are the next iteration's v and u
        v_next = ohat.T @ q
        w = ohat @ v_next
        quotient = q.T @ w
        residual = float(np.linalg.norm(w - q @ quotient)) / fro2
        mixing = float(np.linalg.norm(quotient - np.diag(np.diagonal(quotient)))) / fro2
        if max(residual, mixing) < residual_tol or iterations >= max_iters:
            break
        v, u = v_next, w

    q_v, r_v = qr_orthonormalize(v)
    sigma_raw = np.diagonal(r_v).copy()          # >= 0 by the QR sign convention
    order = np.argsort(-sigma_raw, kind="stable")
    sigma = sigma_raw[order]
    k = _positive_prefix(sigma, rank)
    if k == 0:
        raise DegenerateInput("iteration produced no positive singular values")
    u_final, _ = qr_orthonormalize(u[:, order[:k]])
    factors = TruncatedSvd(u=u_final, sigma=sigma[:k], v=q_v[:, order[:k]].T)
    report = SsiReport(
        iterations_used=iterations,
        subspace_residual=residual,
        warm_started=warm,
    )
    return factors, report


def randomized_svd(ohat, rank, oversample=10, rng_seed=0):
    """Rank-r factors from a Gaussian range sketch.

    One power pass through the Gram operator: y = ohat @ (ohat.T @ omega)
    with omega standard normal of width rank + oversample, so the captured
    range aligns with the dominant left singular subspace; the projected
    matrix b = q.T @ ohat is then factorized densely and truncated.

    Args:
      ohat: (m, n) matrix.
      rank: triplets to return.
      oversample: extra sketch columns (rank + oversample <= min(m, n)).
      rng_seed: seed for the Gaussian sketch; fixed seed, fixed output.

    Returns:
      TruncatedSvd of rank at most `rank`.
    """
    ohat = np.asarray(ohat, dtype=np.float64)
    m, n = ohat.shape
    width = rank + oversample
    if rank < 1 or oversample < 0 or width > min(m, n):
        raise RankTooLarge(
            f"rank+oversample {width} outside [1, {min(m, n)}] for shape {ohat.shape}"
        )
    if float(np.linalg.norm(ohat)) == 0.0:
        raise DegenerateInput("cannot factorize an all-zero matrix")

    omega = np.random.default_rng(rng_seed).standard_normal((m, width))
    y = ohat @ (ohat.T @ omega)
    q, _ = qr_orthonormalize(y)
    b = q.T @ ohat                               # (width, n)
    u_b, sigma, vt = exact_svd(b)
    k = _positive_prefix(sigma, rank)
    if k == 0:
        raise DegenerateInput("sketch captured no positive singular values")
    return TruncatedSvd(u=q @ u_b[:, :k], sigma=sigma[:k], v=vt[:k, :])


def subspace_drift(prev, curr):
    """Change in singular values and in the left-subspace projector.

    Both factor sets are truncated to the smaller rank. The projector
    change ||P_prev - P_curr||_2 equals the largest principal-angle sine,
    computed from the cross-product prev.u.T @ curr.u without forming
    either projector; the sine is taken from the out-of-span component
    curr.u - prev.u @ cross, which stays accurate for nearly identical
    subspaces. Drifts below rounding (1e-12) report as exact zero.

    Returns:
      (sigma_drift, projector_drift) floats.
    """
    r = min(prev.rank, curr.rank)
    if prev.u.shape[0] != curr.u.shape[0]:
        raise ValueError("factor sets live in different row spaces")
    if r == 0:
        return 0.0, 0.0
    sigma_drift = float(np.linalg.norm(prev.sigma[:r] - curr.sigma[:r]))
    u1 = prev.u[:, :r]
    u2 = curr.u[:, :r]
    out_of_span = u2 - u1 @ (u1.T @ u2)
    projector_drift = float(np.linalg.norm(out_of_span, ord=2))
    if sigma_drift < 1e-12:
        sigma_drift = 0.0
    if projector_drift < 1e-12:
        projector_drift = 0.0
    return sigma_drift, projector_drift

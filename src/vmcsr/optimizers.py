"""Parameter-update rules for the stochastic ground-state search.

Plain gradient descent, covariance-preconditioned descent in three
regularized flavors, its batch-sized dual form, the momentum-corrected
variant of that dual form, and the warm-started low-rank scheme that
averages the preconditioner across steps with a decaying weight.  The
low-rank scheme keeps a thin factorization refreshed by warm-started
subspace iteration (its ablation: one pass from a random block) and
applies the inverse through two projections; it forms the
parameter-square matrix only when its rank budget spans every parameter,
and then factors it exactly. The three dense preconditioners share one
regularized solve and its Cholesky factorization, both in place on the
matrix each has just built, and each builds the Gram matrix of O's
smaller side, so a dense step holds O and one min(n_params, batch)²
matrix. The factor and solve are scipy's, and only these three rules
load scipy.
"""

import ctypes
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NotPositiveDefinite
from .estimators import s_matrix, t_matrix
from .svdengine import (
    exact_truncated_svd,  # noqa: F401  (unused; vmcbench/tracer.py patches it here)
    gram_svd,
    qr_orthonormalize,  # noqa: F401  (unused; vmcbench/tracer.py patches it here)
    ssi_svd,
    subspace_drift,
)


def _single_thread_scipy_lapack(maps="/proc/self/maps"):
    """Run the OpenBLAS bundled with scipy on one thread.

    numpy's and scipy's wheels each load their own OpenBLAS, each with a
    pool sized by OPENBLAS_NUM_THREADS. scipy runs only the Cholesky
    factor and solve of the three dense preconditioners; with two pools,
    its idle workers spin on cores numpy's pool needs and its small
    factors wait on sleeping workers, so both libraries slow down. Only
    scipy's library exports scipy_openblas_set_num_threads (numpy's has
    the 64_ suffix), so numpy keeps its pool. openblas_set_num_threads is
    never called: where the two share one library it would pin numpy's
    pool too. Without the symbol, or without a readable map of loaded
    libraries, nothing changes. One thread can round a factor
    differently, and it makes large factors slower.
    """
    try:
        with open(maps, encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return
    for path in paths:
        try:
            set_threads = ctypes.CDLL(path).scipy_openblas_set_num_threads
        except (AttributeError, OSError):
            continue
        set_threads.argtypes, set_threads.restype = (ctypes.c_int,), None
        set_threads(1)
        return


@functools.cache
def dense_cholesky():
    """scipy's (cho_factor, cho_solve, LinAlgError), imported on first call.

    Only sr, minsr and spring factor a dense matrix, so only they load
    scipy and its second OpenBLAS; the other rules run on numpy's alone.
    The first call pins scipy's pool to one thread before any factor runs.
    """
    from scipy.linalg import LinAlgError, cho_factor, cho_solve

    _single_thread_scipy_lapack()
    return cho_factor, cho_solve, LinAlgError


SR_REG_MODES = ("diagonal_shift", "diagonal_scale", "pseudo_inverse")

# Relative eigenvalue cutoff for the unshifted dual solve; the dual matrix
# is singular whenever the batch outnumbers the parameter count.
PSEUDO_SOLVE_RTOL = 1e-12
# Iteration budget of the warm-started subspace iteration per step, and
# the subspace residual below which it stops early.
SSI_MAX_ITERS = 3
SSI_RESIDUAL_TOL = 1e-10
# Gaussian columns beyond the requested rank in rssr's one-pass sketch.
SKETCH_OVERSAMPLE = 10


def _require(options, name, ok, rule):
    """Raise ValueError naming the field unless ok. Every check is written
    so that NaN fails it (a comparison with NaN is False)."""
    if not ok:
        raise ValueError(f"{name}: must {rule}, got {getattr(options, name)!r}")


def _key(default, help_text):
    """A field of an INI section: its default, and its --help line as metadata."""
    return field(default=default, metadata={"help": help_text})


# Hyperparameters of each update rule, one frozen dataclass per method.
# A field is the only place its key's default and --help text are written
# and __post_init__ the only place its range is checked; the configuration
# layer builds these from their fields.


@dataclass(frozen=True)
class SrOptions:
    """Settings of full_sr_update ([sr])."""

    reg_mode: str = _key("diagonal_shift", "one of " + ", ".join(SR_REG_MODES))
    reg_eps: float = _key(1e-3, "regularization strength / pseudo-inverse cutoff")

    def __post_init__(self):
        _require(self, "reg_mode", self.reg_mode in SR_REG_MODES,
                 "be one of " + ", ".join(SR_REG_MODES))
        _require(self, "reg_eps", 0.0 <= self.reg_eps < math.inf, "be finite and >= 0")


@dataclass(frozen=True)
class MinsrOptions:
    """Settings of minsr_update ([minsr])."""

    tikhonov_eps: float = _key(1e-3, "shift on the sample-side Gram matrix (0 = pseudo-solve)")

    def __post_init__(self):
        _require(self, "tikhonov_eps", 0.0 <= self.tikhonov_eps < math.inf,
                 "be finite and >= 0")


@dataclass(frozen=True)
class SpringOptions:
    """Settings of spring_update ([spring])."""

    mu: float = _key(0.99, "momentum weight on the previous update")
    tikhonov_eps: float = _key(1e-3, "shift on the regularized Gram matrix")

    def __post_init__(self):
        _require(self, "mu", 0.0 <= self.mu < 1.0, "lie in [0, 1)")
        _require(self, "tikhonov_eps", 0.0 <= self.tikhonov_eps < math.inf,
                 "be finite and >= 0")


@dataclass(frozen=True)
class WssrOptions:
    """Settings of wssr_step ([wssr]; rssr shares them)."""

    delta: float = _key(0.95, "weight of the averaged history vs the fresh batch")
    sigma_floor: float = _key(1e-3, "preconditioner floor outside the kept subspace")
    r_reg: float = _key(1e-6, "relative squared-singular-value cutoff for the kept rank")
    eps_grow: float = _key(0.1, "rank budget growth factor when the cutoff binds")
    rank_init: int = _key(400, "initial rank budget")

    def __post_init__(self):
        _require(self, "delta", 0.0 <= self.delta < 1.0, "lie in [0, 1)")
        _require(self, "sigma_floor", self.sigma_floor > 0.0, "be > 0")
        _require(self, "r_reg", 0.0 < self.r_reg < 1.0, "lie in (0, 1)")
        _require(self, "eps_grow", 0.0 <= self.eps_grow < math.inf, "be finite and >= 0")
        _require(self, "rank_init", self.rank_init >= 1, "be >= 1")


def sgd_update(theta, bundle, eta):
    """theta - eta * gradient."""
    return np.asarray(theta, dtype=np.float64) - eta * bundle.gradient


def spd_factorize(t):
    """Cholesky-factorize a symmetric matrix in place.

    The caller owns t and has already regularized it; the factor
    overwrites t, so no second n x n array is made. t must be exactly
    symmetric, as O @ O.T and O.T @ O are when numpy builds them: LAPACK
    reads the lower triangle of t.T, which is the upper triangle of t.

    Args:
      t: (n, n) float64 array, factored in place when C-contiguous.

    Returns:
      (c, lower) for scipy.linalg.cho_solve; c is t.T, holding the factor.

    Raises:
      NotPositiveDefinite: if the matrix has a nonpositive pivot.
    """
    cho_factor, _, linalg_error = dense_cholesky()
    try:
        return cho_factor(t.T, lower=True, overwrite_a=True)
    except linalg_error as exc:
        raise NotPositiveDefinite(str(exc)) from exc


def _regularized_solve(matrix, rhs, shift, rtol=None):
    """Solve (matrix + shift I) x = rhs, regularizing matrix in place.

    matrix is the caller's own freshly built symmetric array (S or T) and
    is overwritten. The shifted matrix is Cholesky-factored in place;
    with a cutoff rtol it is instead pseudo-solved, inverting only the
    eigenvalues with |lam| >= rtol * |lam_max| and zeroing the rest.

    Raises:
      NotPositiveDefinite: the shifted matrix is not positive definite.
    """
    matrix[np.diag_indices_from(matrix)] += shift
    if rtol is not None:
        eigvals, eigvecs = np.linalg.eigh(matrix)
        lam_max = float(np.max(np.abs(eigvals))) if eigvals.size else 0.0
        if lam_max == 0.0:
            return np.zeros_like(rhs)
        inv = np.where(np.abs(eigvals) >= rtol * lam_max, 1.0, 0.0)
        inv = np.divide(inv, eigvals, out=np.zeros_like(eigvals), where=inv > 0.0)
        return eigvecs @ (inv * (eigvecs.T @ rhs))
    _, cho_solve, _ = dense_cholesky()
    return cho_solve(spd_factorize(matrix), rhs)


def _indefinite(mode, eps):
    return NotPositiveDefinite(
        f"regularized matrix is not positive definite ({mode}, eps={eps:g})")


def full_sr_update(theta, bundle, eta, options=SrOptions()):
    """Covariance-preconditioned step: S_reg x = gradient with S = O O^T.

    options.reg_mode picks the regularization: 'diagonal_shift' adds
    reg_eps * I, 'diagonal_scale' adds reg_eps * D for D = diag(S),
    'pseudo_inverse' inverts only eigenvalues at least
    reg_eps * |lam_max| in magnitude and zeroes the rest.

    The solve runs on O's smaller side. With no more parameters than
    samples it forms S. Otherwise it takes the batch-sized dual through
    (O O^T + eps I)^-1 O = O (O^T O + eps I)^-1, the minsr solve with
    tikhonov_eps = reg_eps. The pseudo-inverse uses f(O O^T) O =
    O f(O^T O), whose nonzero spectra, and so the cutoff, agree. On
    either side the diagonal scale solves with Ohat = D^-1/2 O, since
    S + eps D = D^1/2 (Ohat Ohat^T + eps I) D^1/2; it scales
    bundle.o_matrix in place, which then holds Ohat. At reg_eps = 0 a
    diagonal mode's S has rank at most batch < n_params, so the dual
    refuses it as the factor of S would.

    Raises:
      NotPositiveDefinite: a diagonal mode's S_reg is not positive
        definite: a factor failed, D has a zero entry, or reg_eps = 0
        with more parameters than samples.
    """
    theta = np.asarray(theta, dtype=np.float64)
    mode, eps = options.reg_mode, options.reg_eps
    o = bundle.o_matrix
    primal = o.shape[0] <= o.shape[1]
    shift, rtol = (0.0, eps) if mode == "pseudo_inverse" else (eps, None)
    if rtol is None and eps == 0.0 and not primal:
        raise _indefinite(mode, eps)
    scale = 1.0
    if mode == "diagonal_scale":
        d = np.einsum("ij,ij->i", o, o)
        if not np.all(d > 0.0):
            raise _indefinite(mode, eps)
        scale = 1.0 / np.sqrt(d)
        o *= scale[:, None]
    gram, rhs = (s_matrix, scale * bundle.gradient) if primal else (t_matrix, bundle.l_vector)
    try:
        x = _regularized_solve(gram(bundle), rhs, shift, rtol)
    except NotPositiveDefinite as exc:
        raise _indefinite(mode, eps) from exc
    return theta - (eta * (scale * x) if primal else eta * 2.0 * (scale * (o @ x)))


def _dual_solve(t, eps, rhs):
    """(T + eps I)^-1 rhs with T overwritten, or the eigenvalue
    pseudo-solve when eps = 0 (T is singular whenever the batch exceeds
    the rank)."""
    try:
        return _regularized_solve(t, rhs, eps, None if eps > 0.0 else PSEUDO_SOLVE_RTOL)
    except NotPositiveDefinite as exc:
        raise _indefinite("diagonal_shift", eps) from exc


def minsr_update(theta, bundle, eta, options=MinsrOptions()):
    """Dual-form preconditioned step: 2 O (T + eps I)^-1 L.

    Solves in the batch dimension instead of the parameter dimension;
    with eps = 0 the pseudo-solve reproduces the full covariance step on
    full-rank instances.

    Raises:
      NotPositiveDefinite: the shifted dual factorization failed.
    """
    theta = np.asarray(theta, dtype=np.float64)
    x = _dual_solve(t_matrix(bundle), options.tikhonov_eps, bundle.l_vector)
    return theta - eta * 2.0 * (bundle.o_matrix @ x)


@dataclass(frozen=True)
class SpringState:
    """Carry-over for the momentum-corrected dual update (zeros at first)."""

    prev_update: np.ndarray


def spring_update(theta, bundle, eta, state, options=SpringOptions()):
    """Dual step with the previous update recycled as momentum.

    The residual target removes the part of the momentum already
    explained by the current batch: Ltilde = L - mu * O^T prev_update.
    The dual matrix gets the Tikhonov shift only: the constant 1/batch
    that SPRING adds to every entry compensates for an uncentred O, and
    assemble has centred it (T 1 = 0), so the constant would change the
    step by rounding alone. The step is phi + mu * prev_update with
    phi = -eta * 2 O (T_reg)^-1 Ltilde; the factor 2 matches the
    gradient convention of the dual step, so mu = 0 recovers it exactly.

    Returns:
      (theta', state') with state'.prev_update = theta' - theta.
    """
    theta = np.asarray(theta, dtype=np.float64)
    o = bundle.o_matrix
    mu = options.mu
    ltilde = bundle.l_vector - mu * (o.T @ state.prev_update)
    x = _dual_solve(t_matrix(bundle), options.tikhonov_eps, ltilde)
    phi = -eta * 2.0 * (o @ x)
    delta = phi + mu * state.prev_update
    return theta + delta, SpringState(prev_update=delta)


@dataclass(frozen=True)
class WssrState:
    """Carry-over for the warm-started low-rank scheme.

    The averaged matrix kept from the previous step is held as its thin
    factorization: u_prev the left vectors (parameter count x effective
    rank; zero columns before the first step), which also warm-start the
    next factorization, sigma the singular values, and lbar the matching
    residual history. r_max is the rank requested from the factorizer;
    it only ever grows, and u_prev is never wider, so the next step's
    block holds every carried vector.
    """

    u_prev: np.ndarray
    sigma: np.ndarray
    lbar: np.ndarray
    r_max: int

    def __post_init__(self):
        if self.u_prev.ndim != 2 or self.sigma.ndim != 1 or self.lbar.ndim != 1:
            raise ValueError("malformed history shapes")
        if not self.u_prev.shape[1] == self.sigma.shape[0] == self.lbar.shape[0]:
            raise ValueError("history rank mismatch between u_prev, sigma and lbar")
        if self.r_max < 1:
            raise ValueError("r_max must be at least 1")
        if self.u_prev.shape[1] > self.r_max:
            raise ValueError(f"history rank {self.u_prev.shape[1]} exceeds r_max {self.r_max}")

    @property
    def obar(self):
        """The history factor U * sigma (parameter count x effective rank)."""
        return self.u_prev * self.sigma

    @classmethod
    def initial(cls, n_params, rank_init):
        return cls(
            u_prev=np.zeros((n_params, 0)),
            sigma=np.zeros(0),
            lbar=np.zeros(0),
            r_max=int(rank_init),
        )


@dataclass(frozen=True)
class WssrDiagnostics:
    """Per-step telemetry: exactly the trace's rank columns, by name."""

    effective_rank: int
    r_max: int
    ssi_iterations: int
    sigma_drift: float
    projector_drift: float


def _per_step_seed(rng_seed, step):
    return int(np.random.SeedSequence((int(rng_seed), int(step))).generate_state(1)[0])


def wssr_step(theta, bundle, eta, state, options=WssrOptions(), rng_seed=0,
              *, step=0, sketch=False):
    """One step of the warm-started low-rank preconditioned descent.

    The current batch columns are appended to the carried history with
    sqrt(delta) / sqrt(1 - delta) weights, the stacked matrix is
    factorized to the working rank, the kept rank is cut where the
    squared spectrum falls below r_reg relative to its top, and the update
    applies the inverse through the kept subspace while the orthogonal
    complement is scaled by the floor:

        theta' = theta - eta * (U sigma^-2 U^T + floor^-1 (I - U U^T)) gbar

    with gbar built from the stacked matrices before truncation.  The
    working rank grows by eps_grow for the next step whenever the cut
    was binding at r_max (never beyond the parameter count).  delta,
    r_reg, sigma_floor and eps_grow come from options.

    Two routes. The first step (the history is empty: u_prev has no
    columns, and after any step it keeps at least the leading mode), and
    any step whose block is the whole row space of ohat (requested == m),
    where iterating could only reproduce the exact factors, take them
    from the eigendecomposition of the Gram matrix of ohat's smaller side
    (gram_svd). Every other step makes one ssi_svd call from a start
    block of Gaussian columns seeded by (rng_seed, step), where step is
    the number of steps completed before this one. wssr puts u_prev
    first and widens it to the working rank (requested is never below
    u_prev's width, since r_max never is), then runs at most
    SSI_MAX_ITERS iterations. With sketch=True (rssr, the
    cold-restart ablation) the block is Gaussian columns alone,
    SKETCH_OVERSAMPLE wider than requested where ohat allows, and the
    budget is one pass: the randomized range finder of Halko, Martinsson
    & Tropp (2011). ssi_svd's opening QR is the block's one
    orthonormalization. No route takes a dense SVD of the whole stack.

    Returns:
      (theta', state', WssrDiagnostics).
    """
    theta = np.asarray(theta, dtype=np.float64)
    o = bundle.o_matrix
    m = o.shape[0]
    sq_old = math.sqrt(options.delta)
    sq_new = math.sqrt(1.0 - options.delta)
    # [sq_old * (u_prev * sigma), sq_new * o], each block written in place
    r = state.u_prev.shape[1]
    ohat = np.empty((m, r + o.shape[1]))
    np.multiply(state.u_prev, state.sigma, out=ohat[:, :r])
    ohat[:, :r] *= sq_old
    np.multiply(sq_new, o, out=ohat[:, r:])
    lhat = np.concatenate([sq_old * state.lbar, sq_new * bundle.l_vector])

    requested = min(state.r_max, m, ohat.shape[1])
    if requested == m or r == 0:
        factors, iterations = gram_svd(ohat, requested), 0
    else:
        rng = np.random.default_rng(_per_step_seed(rng_seed, step))
        if sketch:
            block = rng.standard_normal((m, min(requested + SKETCH_OVERSAMPLE, min(ohat.shape))))
            budget = 1
        else:
            block = np.concatenate([state.u_prev, rng.standard_normal((m, requested - r))], axis=1)
            budget = SSI_MAX_ITERS
        factors, iterations = ssi_svd(
            ohat, requested, max_iters=budget, residual_tol=SSI_RESIDUAL_TOL, u_init=block)

    top_sq = factors.sigma[0] ** 2
    # the leading mode always passes, since r_reg < 1 and sigma[0] > 0
    r_eff = int(np.count_nonzero(factors.sigma**2 >= options.r_reg * top_sq))
    next_r_max = state.r_max
    # r_eff <= factors.rank <= requested <= r_max, so this is a binding cut
    if r_eff == state.r_max:
        next_r_max = math.ceil(min((1.0 + options.eps_grow) * state.r_max, m))

    u = factors.u[:, :r_eff]
    sigma = factors.sigma[:r_eff]
    gbar = ohat @ lhat

    coeffs = u.T @ gbar
    update = u @ (coeffs / sigma**2) + (gbar - u @ coeffs) / options.sigma_floor
    theta_next = theta - eta * update

    sigma_drift, projector_drift = subspace_drift(state.u_prev, state.sigma, u, sigma)

    state_next = WssrState(
        # C order, as a checkpoint restores it: a Fortran-ordered u_prev
        # would make ohat Fortran-ordered next step, and a resumed run
        # would round differently from a straight one
        u_prev=np.ascontiguousarray(u),
        sigma=sigma,
        lbar=factors.v[:r_eff, :] @ lhat,
        r_max=next_r_max,
    )
    diagnostics = WssrDiagnostics(
        effective_rank=r_eff,
        r_max=state.r_max,
        ssi_iterations=iterations,
        sigma_drift=sigma_drift,
        projector_drift=projector_drift,
    )
    return theta_next, state_next, diagnostics


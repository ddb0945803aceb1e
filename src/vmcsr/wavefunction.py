"""Pooled-backflow determinant ansatz with a pair-cusp Jastrow factor.

The trial amplitude is det(M) * exp(gamma). Row i of M belongs to electron
i; column k mixes pooled many-body features with its own coefficient
vector. A feature is a one-body Slater orbital evaluated at the
highlighted electron times a product of orbital sums over the remaining
electrons, which keeps every feature (hence the determinant's
antisymmetry) intact under permutations of the non-highlighted electrons.
Every head orbital pairs with the same list of tails, so the
coefficients form one blocked tensor of shape (N, n_orb, n_tails) and M
is one matrix product followed by a contraction over tails. Parameters
enter only through the linear mixing, so the log-derivative with respect
to them is an inverse-matrix contraction.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import NodeProximity
from .system import SPIN_UP, vector_length

SPIN_GATES = ("up", "down", "either")
_SPIN_ORDER = {"up": 0, "down": 1, "either": 2}

# real solid harmonics of degree one, conventional order m = -1, 0, 1
_M_TO_AXIS = {-1: 1, 0: 2, 1: 0}  # y, z, x

JASTROW_OPPOSITE_SPIN = 0.5
JASTROW_SAME_SPIN = 0.25

DEFAULT_FD_STEP = 1e-4
# Below this log-amplitude a configuration is treated as on a node: the
# determinant's inverse and the stencil's differences are unreliable there.
LOG_ABS_UNDERFLOW = -700.0

# Every per-configuration batch is evaluated in walker chunks sized so
# that the arrays orbital_matrix_batch builds for a chunk together take
# at most this many bytes: per configuration the (N, n_orb) orbital
# values, the (N, n_tails) tail products, the (N, N, n_tails) mixed
# coefficients and the (N, N) matrix. Chunk boundaries depend on this
# budget and the shapes only.
EVAL_CHUNK_BYTES = 4 << 20


@dataclass(frozen=True)
class SlaterOrbital:
    """One-body basis function r^n exp(-zeta r) * solid harmonic * spin gate."""

    center: int
    n: int
    ell: int
    m: int
    zeta: float
    spin: str = "either"

    def __post_init__(self):
        if self.center < 0:
            raise ValueError("center must index a nucleus")
        if self.n < 0:
            raise ValueError("radial power must be nonnegative")
        if self.ell not in (0, 1):
            raise ValueError("only s and p orbitals are supported (ell <= 1)")
        if abs(self.m) > self.ell:
            raise ValueError(f"order {self.m} invalid for degree {self.ell}")
        if not (self.zeta > 0.0 and np.isfinite(self.zeta)):
            raise ValueError("zeta must be positive and finite")
        if self.spin not in SPIN_GATES:
            raise ValueError(f"spin gate must be one of {SPIN_GATES}")

    def sort_key(self):
        return (self.n, self.ell, self.m, _SPIN_ORDER[self.spin], self.zeta, self.center)

    def admits(self, spin_label):
        if self.spin == "either":
            return True
        return (self.spin == "up") == (spin_label == SPIN_UP)


@dataclass(frozen=True)
class OneBodyBasisSpec:
    """Canonically ordered collection of one-body orbitals.

    The constructor sorts by (n, ell, m, spin, zeta, center) so any row
    order in a config file produces the same feature indexing.
    """

    orbitals: tuple

    def __post_init__(self):
        orbs = tuple(sorted(self.orbitals, key=SlaterOrbital.sort_key))
        if not orbs:
            raise ValueError("basis must contain at least one orbital")
        object.__setattr__(self, "orbitals", orbs)

    def __len__(self):
        return len(self.orbitals)


def default_basis(system, radial_powers, ell_max):
    """Per-center Slater set: zeta in dedup{Z, Z/2, 1}, s powers, p shell.

    Spin-gated copies are emitted only for spin channels that hold
    electrons, so single-channel systems do not carry dead columns.
    """
    orbitals = []
    gates = []
    if system.n_up:
        gates.append("up")
    if system.n_down:
        gates.append("down")
    for center, z in enumerate(system.nuclear_charges):
        zetas = sorted({float(z), float(z) / 2.0, 1.0})
        for zeta in zetas:
            for gate in gates:
                for n in radial_powers:
                    orbitals.append(SlaterOrbital(center, n, 0, 0, zeta, gate))
                if ell_max >= 1:
                    for m in (-1, 0, 1):
                        orbitals.append(SlaterOrbital(center, 0, 1, m, zeta, gate))
    return OneBodyBasisSpec(orbitals=tuple(orbitals))


def build_tuple_index(basis, correlation_order):
    """Tail list: the sorted orbital multisets of length 0 to correlation_order - 1.

    A tail is a nondecreasing index tuple, so each multiset appears exactly
    once. Ordering is deterministic: the empty tail first (index 0), then
    by length, then lexicographic. Every head orbital pairs with every
    tail, so the coefficients of one determinant column form an
    (n_orb, n_tails) block.
    """
    if correlation_order < 1:
        raise ValueError("correlation order must be at least 1")
    return tuple(
        tail
        for length in range(correlation_order)
        for tail in itertools.combinations_with_replacement(range(len(basis)), length)
    )


def orbital_values(basis, nuclear_positions, positions, spins):
    """Evaluate every orbital at every electron.

    Each distinct ungated function is evaluated once, with one exponential
    per (center, zeta); the spin gates are then one multiply by an
    (N, n_orb) 0/1 mask, and orbital_matrix_batch adds the pooled sums
    electron by electron. These are the floating-point operations of one
    exponential and one gate per orbital and of numpy's axis-1 sum, in
    the same order, so every value is unchanged bit for bit.

    Args:
      basis: OneBodyBasisSpec.
      nuclear_positions: (n_nuclei, 3).
      positions: (W, N, 3).
      spins: (N,) labels gating the per-electron value.

    Returns:
      (W, N, n_orb) array.
    """
    positions = np.asarray(positions, dtype=np.float64)
    w, n, _ = positions.shape
    values = np.empty((w, n, len(basis)))

    delta, radius, decay, ungated = {}, {}, {}, {}
    for idx, orb in enumerate(basis.orbitals):
        c = orb.center
        key = (c, orb.n, orb.ell, orb.m, orb.zeta)
        if key not in ungated:
            if c not in delta:
                delta[c] = positions - nuclear_positions[c][None, None, :]
                radius[c] = vector_length(delta[c])
            if (c, orb.zeta) not in decay:
                decay[c, orb.zeta] = np.exp(-orb.zeta * radius[c])
            val = decay[c, orb.zeta]
            if orb.n:
                val = val * radius[c] ** orb.n
            if orb.ell == 1:
                val = val * delta[c][..., _M_TO_AXIS[orb.m]]
            ungated[key] = val
        values[:, :, idx] = ungated[key]

    up_mask = (np.asarray(spins) == SPIN_UP).astype(np.float64)
    gate_vec = {"up": up_mask, "down": 1.0 - up_mask, "either": np.ones(n)}
    values *= np.stack([gate_vec[orb.spin] for orb in basis.orbitals], axis=1)
    return values


def _cusp_pairs(spins):
    """(i, j, c_ij) over the electron pairs i < j: the Jastrow's pair
    indices and their cusp coefficients."""
    spins = np.asarray(spins)
    iu, ju = np.triu_indices(len(spins), k=1)
    coeff = np.where(spins[iu] == spins[ju], JASTROW_SAME_SPIN, JASTROW_OPPOSITE_SPIN)
    return iu, ju, coeff


def jastrow_log_batch(positions, spins):
    """Pair-cusp log factor sum_{i<j} -c_ij / (1 + r_ij).

    c_ij is 1/2 for opposite spins and 1/4 for same spins, the slopes that
    cancel the electron-electron Coulomb singularities of the local
    energy at coalescence.
    """
    return _pair_cusp_log(positions, _cusp_pairs(spins))


def _pair_cusp_log(positions, pairs):
    """jastrow_log_batch with the pairs of _cusp_pairs(spins) given."""
    positions = np.asarray(positions, dtype=np.float64)
    iu, ju, coeff = pairs
    if not iu.size:
        return np.zeros(positions.shape[0])
    diff = positions[:, iu, :] - positions[:, ju, :]
    dist = vector_length(diff)
    return -np.sum(coeff[None, :] / (1.0 + dist), axis=1)


@dataclass
class AceWavefunction:
    """Determinant over pooled orbital products times a Jastrow factor.

    theta is A.ravel() for the coefficient tensor A of shape
    (N, n_orb, n_tails): A[k, h, t] weights, in determinant column k, head
    orbital h at the highlighted electron times the product over tail t of
    orbital sums over the other electrons. So with T[i, t] that product
    (T[i, 0] = 1 for the empty tail),
    M[i, k] = sum_{h, t} phi_h(r_i) A[k, h, t] T[i, t].
    """

    system: object
    basis: OneBodyBasisSpec
    correlation_order: int = 2
    jastrow_enabled: bool = True
    theta: np.ndarray = None
    tails: tuple = field(init=False, repr=False)

    def __post_init__(self):
        n_nuclei = len(self.system.nuclear_charges)
        center = max(orbital.center for orbital in self.basis.orbitals)
        if center >= n_nuclei:
            raise ValueError(f"basis: center {center} out of range for {n_nuclei} nuclei")
        self.tails = build_tuple_index(self.basis, self.correlation_order)
        # orbital indices of the tails of each length >= 2, in tail order;
        # the length-1 tails are the orbitals themselves, in basis order
        self._tail_orbitals = [
            np.array([tail for tail in self.tails if len(tail) == length], dtype=np.intp)
            for length in range(2, self.correlation_order)
        ]
        self._jastrow_pairs = _cusp_pairs(self.system.spins)
        if self.theta is None:
            self.theta = initial_theta(self.system, self.basis, len(self.tails))
        self.set_theta(self.theta)

    @property
    def n_params(self):
        return self.system.n_electrons * len(self.basis) * len(self.tails)

    @property
    def coefficients(self):
        """(N, n_orb, n_tails) view of theta; A[k] belongs to determinant column k."""
        return self.theta.reshape(self.system.n_electrons, len(self.basis), len(self.tails))

    def set_theta(self, theta):
        theta = np.ascontiguousarray(theta, dtype=np.float64)
        if theta.shape != (self.n_params,):
            raise ValueError(f"theta must have length {self.n_params}, got {theta.shape}")
        self.theta = theta

    def orbital_matrix_batch(self, positions):
        """(M, phi, T): the (W, N, N) orbital matrix, the (W, N, n_orb)
        orbital values and the (W, N, n_tails) tail products."""
        phi = orbital_values(
            self.basis, self.system.nuclear_positions, positions, self.system.spins
        )
        w, n, n_orb = phi.shape
        products = np.empty((w, n, len(self.tails)))
        products[..., 0] = 1.0
        # the pooled sums over j != i are the length-1 tails, written in
        # place: the rows added in electron order, then i taken out
        pooled = products[..., 1 : 1 + n_orb]
        if self.correlation_order > 1:
            total = phi[:, 0].copy()
            for j in range(1, n):
                total += phi[:, j]
            np.subtract(total[:, None, :], phi, out=pooled)
        lo = 1 + n_orb
        for orbs in self._tail_orbitals:
            # T[i, t] for the tails t = (a, b, ...): pooled_a * pooled_b * ...
            out = products[..., lo : lo + len(orbs)]
            np.multiply(pooled[..., orbs[:, 0]], pooled[..., orbs[:, 1]], out=out)
            for column in orbs[:, 2:].T:
                out *= pooled[..., column]
            lo += len(orbs)
        # mixed[w, i, k, t] = sum_h phi[w, i, h] A[k, h, t]
        blocks = self.coefficients.transpose(1, 0, 2).reshape(n_orb, -1)
        mixed = (phi.reshape(w * n, n_orb) @ blocks).reshape(w, n, n, -1)
        # matrix[w, i, k] = sum_t mixed[w, i, k, t] T[w, i, t]
        matrix = (mixed @ products[..., None])[..., 0]
        return matrix, phi, products

    def _chunks(self, n_configs):
        """Consecutive slices covering n_configs rows, each within EVAL_CHUNK_BYTES.

        One configuration costs 8 * (N n_orb + N n_tails + N^2 n_tails + N^2)
        bytes across orbital_matrix_batch's arrays: phi, the tail
        products, the mixed coefficients and M.
        """
        n, n_orb, n_tails = self.system.n_electrons, len(self.basis), len(self.tails)
        per_config = 8 * n * (n_orb + n_tails + n * n_tails + n)
        size = max(1, EVAL_CHUNK_BYTES // per_config)
        return [slice(lo, min(lo + size, n_configs)) for lo in range(0, n_configs, size)]

    # amplitudes

    def log_abs_sign_batch(self, positions):
        """Batched (log|psi|, sign). A vanishing determinant returns the
        sentinel (-inf, 0) rather than raising."""
        positions = np.asarray(positions, dtype=np.float64)
        w = positions.shape[0]
        log_abs, sign = np.empty(w), np.empty(w)
        for chunk in self._chunks(w):
            matrix, _, _ = self.orbital_matrix_batch(positions[chunk])
            sign[chunk], log_abs[chunk] = np.linalg.slogdet(matrix)
            if self.jastrow_enabled:
                log_abs[chunk] += _pair_cusp_log(positions[chunk], self._jastrow_pairs)
        return log_abs, sign

    def log_abs_batch(self, positions):
        return self.log_abs_sign_batch(positions)[0]

    # derivatives

    def grad_theta_batch(self, positions):
        """d log|psi| / d theta, shape (W, n_params).

        The Jastrow carries no parameters, so only the determinant
        contributes: the derivative by A[k, h, t] is
        sum_i inv(M)[k, i] * phi_h(r_i) * T[i, t].
        """
        positions = np.asarray(positions, dtype=np.float64)
        w = positions.shape[0]
        chunks = self._chunks(w)
        if len(chunks) == 1:
            # one chunk: return its own array rather than copy it into a
            # freshly paged-in output
            return self._grad_theta_chunk(positions)
        grad = np.empty((w, self.n_params))
        for chunk in chunks:
            grad[chunk] = self._grad_theta_chunk(positions[chunk])
        return grad

    def _grad_theta_chunk(self, positions):
        matrix, phi, products = self.orbital_matrix_batch(positions)
        # a singular matrix has sign 0 and logdet -inf
        _refuse_node(np.linalg.slogdet(matrix)[1],
                     "parameter gradient requested on top of a node")
        inv = np.linalg.inv(matrix)
        grad = np.einsum("wki,wih,wit->wkht", inv, phi, products, optimize=True)
        return grad.reshape(positions.shape[0], self.n_params)

    def gradient_and_laplacian_batch(self, positions):
        """Electron-coordinate gradient and summed Laplacian of log|psi|."""
        return fd_gradient_and_laplacian(self.log_abs_batch, positions, DEFAULT_FD_STEP)

def initial_theta(system, basis, n_tails, noise_scale=1e-2, seed=0):
    """Near-Slater start: unit weight on one bare orbital per column.

    Column k takes the next unused orbital h whose spin gate admits
    electron k (electrons ordered up-first) and puts 1 at A[k, h, 0], the
    empty tail. That keeps the determinant block-diagonal by spin and
    nonsingular at generic configurations. Gaussian noise of scale
    noise_scale covers all of A; zero noise gives the bare product state
    exactly.
    """
    n_electrons = system.n_electrons
    shape = (n_electrons, len(basis), n_tails)
    rng = np.random.default_rng(seed)
    coeff = noise_scale * rng.standard_normal(shape)
    if noise_scale == 0.0:
        coeff = np.zeros(shape)

    used = set()
    for k, spin in enumerate(system.spins):
        choice = next(
            (h for h, orb in enumerate(basis.orbitals) if h not in used and orb.admits(spin)),
            None,
        )
        if choice is None:
            raise ValueError(
                f"basis has no unused orbital admitting electron {k}; add orbitals"
            )
        used.add(choice)
        coeff[k, choice, 0] += 1.0
    return coeff.ravel()


def _refuse_node(log_abs, message):
    """Raise NodeProximity(message) unless every log-amplitude is finite
    and at least LOG_ABS_UNDERFLOW."""
    if not np.all(np.isfinite(log_abs) & (log_abs >= LOG_ABS_UNDERFLOW)):
        raise NodeProximity(message)


def fd_gradient_and_laplacian(log_abs_fn, positions, step):
    """Central-difference gradient and Laplacian of a batched log-amplitude.

    All 6N + 1 stencil evaluations are stacked into one call so the
    underlying pipeline runs batched.

    Args:
      log_abs_fn: callable (B, N, 3) -> (B,).
      positions: (W, N, 3).
      step: stencil half-width in Bohr.

    Returns:
      (grad (W, N, 3), laplacian_sum (W,)).

    Raises:
      NodeProximity: some base-point log-amplitude is non-finite or below
        -700.
    """
    positions = np.asarray(positions, dtype=np.float64)
    w, n, _ = positions.shape
    # row 0 is the base point; rows 2k+1 and 2k+2 shift coordinate k
    # (electron k // 3, axis k % 3) by +step and -step
    offsets = step * np.eye(3 * n)
    shifts = np.zeros((6 * n + 1, 3 * n))
    shifts[1::2] = offsets
    shifts[2::2] = -offsets
    stacked = positions + shifts.reshape(-1, 1, n, 3)
    values = np.asarray(log_abs_fn(stacked.reshape(-1, n, 3))).reshape(-1, w)

    base = values[0]
    _refuse_node(base, "log-amplitude underflow; derivatives unreliable near a node")
    plus = values[1::2]
    minus = values[2::2]
    grad = np.ascontiguousarray(((plus - minus) / (2.0 * step)).T).reshape(w, n, 3)
    lap = np.sum((plus - 2.0 * base + minus) / (step * step), axis=0)
    return grad, lap

"""Molecular geometry and the local-energy functional, in Hartree atomic units.

Electrons carry a fixed spin label (all up electrons first); nuclei are
clamped point charges. Energies are evaluated for a batch of
configurations, positions of shape (W, N, 3); one configuration x is the
batch x[None]. The kinetic part of the local energy is evaluated through
the log-derivative identity, so any object exposing the batched
coordinate gradient and Laplacian of log|psi| can be plugged in. The
provider owns the node guard: the finite-difference one
(wavefunction.fd_gradient_and_laplacian) raises NodeProximity where
log|psi| underflows.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import CoalescencePoint

COALESCENCE_GUARD = 1e-12

SPIN_UP = 0
SPIN_DOWN = 1


@dataclass(frozen=True)
class MolecularSystem:
    """Clamped nuclei plus electron counts per spin channel.

    nuclear_repulsion, the internuclear Coulomb constant
    sum_{I<J} Z_I Z_J / R_IJ, is computed once at construction, which
    refuses nuclei closer than COALESCENCE_GUARD.
    """

    nuclear_charges: tuple
    nuclear_positions: np.ndarray  # (n_nuclei, 3), Bohr
    n_up: int
    n_down: int
    nuclear_repulsion: float = field(init=False, repr=False)

    def __post_init__(self):
        charges = tuple(int(z) for z in self.nuclear_charges)
        object.__setattr__(self, "nuclear_charges", charges)
        pos = np.asarray(self.nuclear_positions, dtype=np.float64).reshape(len(charges), 3)
        object.__setattr__(self, "nuclear_positions", pos)
        if not charges or any(z < 1 for z in charges):
            raise ValueError("need at least one nucleus, every charge >= 1")
        if self.n_up < 0 or self.n_down < 0 or self.n_up + self.n_down < 1:
            raise ValueError("need at least one electron")
        if not np.all(np.isfinite(pos)):
            raise ValueError("nuclear positions must be finite")
        repulsion = 0.0
        for i in range(len(charges)):
            for j in range(i + 1, len(charges)):
                dist = float(np.linalg.norm(pos[i] - pos[j]))
                if dist < COALESCENCE_GUARD:
                    raise ValueError(f"nuclei {i} and {j} coincide")
                repulsion += charges[i] * charges[j] / dist
        object.__setattr__(self, "nuclear_repulsion", repulsion)

    @property
    def n_electrons(self):
        return self.n_up + self.n_down

    @property
    def spins(self):
        """(N,) spin labels, up electrons first."""
        return np.concatenate(
            [np.full(self.n_up, SPIN_UP, dtype=np.int64),
             np.full(self.n_down, SPIN_DOWN, dtype=np.int64)]
        )


def vector_length(d):
    """Euclidean length of each 3-vector on d's last axis.

    The three squares are added as (x + y) + z, the order of numpy's sum
    over a length-3 axis, so the result equals
    np.sqrt(np.sum(d * d, axis=-1)) bit for bit without the reduction.
    """
    x, y, z = d[..., 0], d[..., 1], d[..., 2]
    return np.sqrt(x * x + y * y + z * z)


def potential_energy_batch(system, positions):
    """Coulomb potential for a batch of configurations, the internuclear
    constant included.

    Args:
      system: MolecularSystem.
      positions: (W, N, 3) electron coordinates.

    Returns:
      (W,) potential energies.

    Raises:
      CoalescencePoint: an electron closer than COALESCENCE_GUARD to a
        nucleus or to another electron. Coincident nuclei are refused
        when the MolecularSystem is built.
    """
    positions = np.asarray(positions, dtype=np.float64)
    w, n, _ = positions.shape
    charges = np.asarray(system.nuclear_charges, dtype=np.float64)

    delta = positions[:, :, None, :] - system.nuclear_positions[None, None, :, :]
    dist_en = vector_length(delta)  # (W, N, n_nuclei)
    if np.any(dist_en < COALESCENCE_GUARD):
        raise CoalescencePoint("electron on top of a nucleus")
    # terms are sorted before each reduction so electron relabeling cannot
    # change the rounding: permutation symmetry holds bitwise
    attraction = np.sort((-charges[None, None, :] / dist_en).reshape(w, -1), axis=1)
    energy = np.sum(attraction, axis=1)

    iu, ju = np.triu_indices(n, k=1)
    if iu.size:
        diff = positions[:, iu, :] - positions[:, ju, :]
        dist_ee = vector_length(diff)  # (W, n_pairs)
        if np.any(dist_ee < COALESCENCE_GUARD):
            raise CoalescencePoint("two electrons coincide")
        energy += np.sum(np.sort(1.0 / dist_ee, axis=1), axis=1)

    return energy + system.nuclear_repulsion


def local_energy_batch(system, wavefunction, positions):
    """Local energy E_L = -(1/2) sum_i [lap_i log|psi| + |grad_i log|psi||^2] + V.

    The identity evaluates the kinetic term from log-amplitude derivatives
    only, so it stays finite wherever the amplitude does. At an exact
    eigenstate the result is constant across configurations (the
    zero-variance property the tests pin down).

    Args:
      system: MolecularSystem.
      wavefunction: object with
        gradient_and_laplacian_batch(positions) -> ((W, N, 3), (W,)).
      positions: (W, N, 3).

    Returns:
      (W,) local energies.

    Raises:
      NodeProximity: from the provider, near a node.
    """
    positions = np.asarray(positions, dtype=np.float64)
    grad, lap = wavefunction.gradient_and_laplacian_batch(positions)
    kinetic = -0.5 * (lap + np.sum(grad * grad, axis=(1, 2)))
    return kinetic + potential_energy_batch(system, positions)


_PRESET_TABLE = {
    "h": ((1,), [(0.0, 0.0, 0.0)], 1, 0),
    "he": ((2,), [(0.0, 0.0, 0.0)], 1, 1),
    "be": ((4,), [(0.0, 0.0, 0.0)], 2, 2),
    "o": ((8,), [(0.0, 0.0, 0.0)], 5, 3),
    "ne": ((10,), [(0.0, 0.0, 0.0)], 5, 5),
    "lih": ((3, 1), [(0.0, 0.0, 0.0), (0.0, 0.0, 3.015)], 2, 2),
    "li2": ((3, 3), [(0.0, 0.0, 0.0), (0.0, 0.0, 5.051)], 3, 3),
}


def preset_names():
    return tuple(_PRESET_TABLE)


def preset_system(name):
    """Named neutral systems with standard geometries (bond lengths in Bohr).

    Open-shell atoms use maximum-multiplicity ground-state spin counts.
    """
    key = name.strip().lower()
    if key not in _PRESET_TABLE:
        raise KeyError(f"unknown preset {name!r}; choose from {', '.join(_PRESET_TABLE)}")
    charges, sites, n_up, n_down = _PRESET_TABLE[key]
    return MolecularSystem(
        nuclear_charges=charges,
        nuclear_positions=np.asarray(sites, dtype=np.float64),
        n_up=n_up,
        n_down=n_down,
    )

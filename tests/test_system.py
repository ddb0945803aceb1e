"""Geometry, Coulomb potential, and the local-energy identity."""

import numpy as np
import pytest

from vmcsr.errors import CoalescencePoint, NodeProximity
from vmcsr.system import (
    MolecularSystem,
    local_energy_batch,
    potential_energy_batch,
    preset_names,
    preset_system,
)
from vmcsr.wavefunction import AceWavefunction, default_basis, fd_gradient_and_laplacian


class AnalyticLogAmplitude:
    """Test double: analytic log|psi| with finite-difference derivatives."""

    def __init__(self, log_fn, step=1e-4):
        self.log_fn = log_fn
        self.step = step

    def log_abs_batch(self, positions):
        return self.log_fn(np.asarray(positions, dtype=np.float64))

    def gradient_and_laplacian_batch(self, positions):
        return fd_gradient_and_laplacian(self.log_abs_batch, positions, self.step)


def brute_force_potential(charges, nuclei, electrons, include_nn=True):
    """Independent pairwise-sum oracle over every charged pair."""
    total = 0.0
    for i, x in enumerate(electrons):
        for z, site in zip(charges, nuclei):
            total -= z / np.linalg.norm(np.asarray(x) - np.asarray(site))
        for j in range(i + 1, len(electrons)):
            total += 1.0 / np.linalg.norm(np.asarray(x) - np.asarray(electrons[j]))
    if include_nn:
        for a in range(len(charges)):
            for b in range(a + 1, len(charges)):
                total += charges[a] * charges[b] / np.linalg.norm(
                    np.asarray(nuclei[a]) - np.asarray(nuclei[b])
                )
    return total


def potential(system, positions):
    """Potential energy of one (N, 3) configuration, as a batch of one."""
    return potential_energy_batch(system, np.asarray(positions, dtype=np.float64)[None])[0]


class TestMolecularSystem:
    def test_coincident_nuclei_refused_at_construction(self):
        with pytest.raises(ValueError, match="nuclei 0 and 1 coincide"):
            MolecularSystem(nuclear_charges=(1, 1), nuclear_positions=np.zeros((2, 3)),
                            n_up=1, n_down=1)


class TestPotentialEnergy:
    def test_helium_axis_pair(self):
        system = preset_system("he")
        value = potential(system, [[0, 0, 1.0], [0, 0, -1.0]])
        assert value == pytest.approx(-3.5, abs=1e-14)

    def test_single_electron_at_distance_two(self):
        system = preset_system("h")
        value = potential(system, [[0.0, 0.0, 2.0]])
        assert value == pytest.approx(-0.5, abs=1e-15)

    def test_lih_matches_brute_force_oracle(self):
        system = preset_system("lih")
        rng = np.random.default_rng(17)
        electrons = rng.normal(0.0, 1.5, size=(4, 3))
        expected = brute_force_potential(
            (3, 1), [(0, 0, 0), (0, 0, 3.015)], electrons
        )
        value = potential(system, electrons)
        assert value == pytest.approx(expected, rel=1e-13)

    def test_nuclear_repulsion_term(self):
        system = preset_system("lih")
        rng = np.random.default_rng(18)
        electrons = rng.normal(0.0, 1.5, size=(4, 3))
        electronic = brute_force_potential(
            (3, 1), [(0, 0, 0), (0, 0, 3.015)], electrons, include_nn=False
        )
        value = potential(system, electrons)
        assert value - electronic == pytest.approx(3.0 / 3.015, rel=1e-13)

    def test_permutation_symmetry_is_bitwise(self):
        system = preset_system("ne")
        rng = np.random.default_rng(19)
        electrons = rng.normal(0.0, 1.0, size=(10, 3))
        base = potential_energy_batch(system, electrons[None])[0]
        for seed in range(20):
            perm = np.random.default_rng(seed).permutation(10)
            permuted = potential_energy_batch(system, electrons[perm][None])[0]
            assert permuted == base  # exact, not approximate

    def test_translation_invariance(self):
        rng = np.random.default_rng(20)
        electrons = rng.normal(0.0, 1.5, size=(4, 3))
        shift = np.array([1.7, -0.3, 2.9])
        base_sys = preset_system("lih")
        moved_sys = MolecularSystem(
            nuclear_charges=(3, 1),
            nuclear_positions=base_sys.nuclear_positions + shift,
            n_up=2,
            n_down=2,
        )
        v0 = potential(base_sys, electrons)
        v1 = potential(moved_sys, electrons + shift)
        assert v1 == pytest.approx(v0, abs=1e-8)

    def test_coalescence_guard(self):
        system = preset_system("he")
        with pytest.raises(CoalescencePoint):
            potential(system, [[0, 0, 1e-14], [0, 0, -1.0]])
        with pytest.raises(CoalescencePoint):
            potential(system, [[0, 0, 1.0], [0, 0, 1.0 + 1e-14]])


class TestLocalEnergy:
    def test_hydrogen_ground_state_constant(self):
        system = preset_system("h")
        psi = AnalyticLogAmplitude(lambda p: -np.linalg.norm(p, axis=-1)[:, 0])
        rng = np.random.default_rng(30)
        direction = rng.normal(size=(6, 1, 3))
        direction /= np.linalg.norm(direction, axis=-1, keepdims=True)
        radii = np.linspace(0.4, 2.5, 6).reshape(6, 1, 1)
        energies = local_energy_batch(system, psi, direction * radii)
        np.testing.assert_allclose(energies, -0.5, atol=1e-6)

    def test_gaussian_trial_kinetic_cancels_potential_at_unit_radius(self):
        system = preset_system("h")
        psi = AnalyticLogAmplitude(lambda p: -np.sum(p**2, axis=(1, 2)))
        point = np.array([[[1.0, 0.0, 0.0]]])
        energy = local_energy_batch(system, psi, point)[0]
        # kinetic part alone is -(1/2)(-6 + 4 r^2) = 1 at r = 1
        grad, lap = psi.gradient_and_laplacian_batch(point)
        kinetic = -0.5 * (lap + np.sum(grad**2, axis=(1, 2)))[0]
        assert kinetic == pytest.approx(1.0, abs=1e-6)
        assert energy == pytest.approx(0.0, abs=1e-6)

    def test_product_trial_on_helium_has_positive_variance(self):
        system = preset_system("he")
        psi = AnalyticLogAmplitude(
            lambda p: -2.0 * np.sum(np.linalg.norm(p, axis=-1), axis=-1)
        )
        rng = np.random.default_rng(31)
        positions = rng.normal(0.0, 0.8, size=(64, 2, 3))
        energies = local_energy_batch(system, psi, positions)
        assert np.var(energies) > 1e-3

    def test_hydrogen_zero_variance_over_shell_sample(self):
        """10^4 random configurations in a shell: the exact ground state
        gives a constant local energy to well below 1e-6."""
        system = preset_system("h")
        psi = AnalyticLogAmplitude(lambda p: -np.linalg.norm(p, axis=-1)[:, 0])
        rng = np.random.default_rng(32)
        direction = rng.normal(size=(10_000, 1, 3))
        direction /= np.linalg.norm(direction, axis=-1, keepdims=True)
        radii = rng.uniform(0.3, 3.0, size=(10_000, 1, 1))
        energies = local_energy_batch(system, psi, direction * radii)
        assert abs(np.mean(energies) + 0.5) < 1e-7
        assert np.std(energies) < 1e-6

    def test_ansatz_is_evaluated_on_the_stencil_only(self, monkeypatch):
        """W beryllium configurations cost the 6N + 1 = 25 stencil rows of
        each, and no separate evaluation for the node guard."""
        system = preset_system("be")
        wf = AceWavefunction(system=system, basis=default_basis(system, (0, 1), ell_max=1))
        evaluate = wf.log_abs_sign_batch
        counted = []

        def spy(positions):
            counted.append(positions.shape[0])
            return evaluate(positions)

        monkeypatch.setattr(wf, "log_abs_sign_batch", spy)
        positions = np.random.default_rng(33).normal(0.0, 1.5, size=(8, 4, 3))
        local_energy_batch(system, wf, positions)
        assert sum(counted) == 25 * 8

    def test_node_proximity_guard(self):
        system = preset_system("h")
        psi = AnalyticLogAmplitude(lambda p: np.full(p.shape[0], -800.0))
        with pytest.raises(NodeProximity):
            local_energy_batch(system, psi, np.array([[[0.0, 0.0, 1.0]]]))


class TestPresets:
    def test_all_presets_constructible(self):
        assert set(preset_names()) == {"h", "he", "be", "o", "ne", "lih", "li2"}
        for name in preset_names():
            system = preset_system(name)
            assert sum(system.nuclear_charges) == system.n_electrons  # neutral

    def test_oxygen_uses_ground_state_spin_split(self):
        system = preset_system("o")
        assert (system.n_up, system.n_down) == (5, 3)

    def test_neon_is_closed_shell(self):
        system = preset_system("ne")
        assert (system.n_up, system.n_down) == (5, 5)
        assert system.nuclear_charges == (10,)

    def test_diatomic_bond_lengths(self):
        lih = preset_system("lih")
        li2 = preset_system("li2")
        assert np.linalg.norm(lih.nuclear_positions[1] - lih.nuclear_positions[0]) == 3.015
        assert np.linalg.norm(li2.nuclear_positions[1] - li2.nuclear_positions[0]) == 5.051

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            preset_system("n")

    def test_spins_order_up_first(self):
        system = preset_system("o")
        np.testing.assert_array_equal(system.spins, [0, 0, 0, 0, 0, 1, 1, 1])

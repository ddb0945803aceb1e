"""Metropolis chain behavior: determinism, node rejection, stationarity."""

import numpy as np
import pytest
from scipy import stats

from vmcsr.errors import NumericalAbort
from vmcsr.sampler import (
    WalkerEnsemble,
    burn_in,
    metropolis_step,
    sample_batch,
)
from vmcsr.system import preset_system
from vmcsr.wavefunction import (
    AceWavefunction,
    OneBodyBasisSpec,
    SlaterOrbital,
    default_basis,
)


class GaussianLine:
    """Surrogate amplitude log|psi| = -x^2/4 on the first coordinate of the
    first electron, ignoring everything else.  |psi|^2 = exp(-x^2/2) is then
    a standard normal along that axis."""

    def log_abs_batch(self, positions):
        x = positions[:, 0, 0]
        return -0.25 * x * x


class HardNode:
    """Amplitude that vanishes whenever the first electron crosses x > 0."""

    def log_abs_batch(self, positions):
        x = positions[:, 0, 0]
        out = -0.5 * np.sum(positions**2, axis=(1, 2))
        return np.where(x > 0.0, -np.inf, out)


def make_line_ensemble(n_walkers, seed, spread=1.0):
    positions = np.zeros((n_walkers, 1, 3))
    positions[:, 0, 0] = np.linspace(-spread, spread, n_walkers)
    model = GaussianLine()
    return (
        WalkerEnsemble(
            positions=positions,
            log_abs=model.log_abs_batch(positions),
            rng=np.random.default_rng(seed),
            proposal_std=1.0,
        ),
        model,
    )


def hydrogen_exact():
    system = preset_system("h")
    basis = OneBodyBasisSpec(
        orbitals=(SlaterOrbital(center=0, n=0, ell=0, m=0, zeta=1.0, spin="either"),)
    )
    wavefunction = AceWavefunction(
        system=system,
        basis=basis,
        correlation_order=1,
        jastrow_enabled=False,
        theta=np.array([1.0]),
    )
    return system, wavefunction


class TestWalkerEnsemble:
    @pytest.mark.parametrize("spread", [-1.0, np.inf, np.nan])
    def test_refuses_a_negative_or_non_finite_spread(self, spread):
        with pytest.raises(ValueError, match="proposal_std must be finite and >= 0"):
            WalkerEnsemble(positions=np.zeros((2, 1, 3)), log_abs=np.zeros(2),
                           rng=np.random.default_rng(0), proposal_std=spread)

    def test_zero_spread_is_the_degenerate_limit(self):
        WalkerEnsemble(positions=np.zeros((2, 1, 3)), log_abs=np.zeros(2),
                       rng=np.random.default_rng(0), proposal_std=0.0)


class TestMetropolisStep:
    def test_zero_std_moves_nothing_and_accepts_everything(self):
        ensemble, model = make_line_ensemble(32, seed=0)
        ensemble.proposal_std = 0.0
        before = ensemble.positions.copy()
        metropolis_step(ensemble, model)
        np.testing.assert_array_equal(ensemble.positions, before)
        assert ensemble.accepted == 32
        assert ensemble.proposed == 32

    def test_node_crossings_rejected(self):
        model = HardNode()
        n = 64
        positions = np.full((n, 1, 3), -0.05)
        ensemble = WalkerEnsemble(
            positions=positions.copy(),
            log_abs=model.log_abs_batch(positions),
            rng=np.random.default_rng(3),
            proposal_std=2.0,
        )
        for _ in range(20):
            metropolis_step(ensemble, model)
        assert np.all(ensemble.positions[:, 0, 0] <= 0.0)
        assert np.all(np.isfinite(ensemble.log_abs))

    def test_same_seed_is_bitwise_deterministic(self):
        runs = []
        for _ in range(2):
            ensemble, model = make_line_ensemble(16, seed=7)
            for _ in range(25):
                metropolis_step(ensemble, model)
            runs.append((ensemble.positions.copy(), ensemble.log_abs.copy(),
                         ensemble.accepted))
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        np.testing.assert_array_equal(runs[0][1], runs[1][1])
        assert runs[0][2] == runs[1][2]

    def test_different_seed_differs(self):
        ens_a, model = make_line_ensemble(16, seed=1)
        ens_b, _ = make_line_ensemble(16, seed=2)
        for _ in range(5):
            metropolis_step(ens_a, model)
            metropolis_step(ens_b, model)
        assert not np.array_equal(ens_a.positions, ens_b.positions)

    def test_nan_amplitude_aborts(self):
        class Broken:
            def log_abs_batch(self, positions):
                return np.full(positions.shape[0], np.nan)

        ensemble, _ = make_line_ensemble(4, seed=5)
        with pytest.raises(NumericalAbort):
            metropolis_step(ensemble, Broken())


class TestStationaryDistribution:
    def test_gaussian_moments_and_histogram(self):
        n_walkers = 500
        ensemble, model = make_line_ensemble(n_walkers, seed=11, spread=2.0)
        burn_in(ensemble, model, steps=300)
        samples = []
        for _ in range(2000):
            metropolis_step(ensemble, model)
            samples.append(ensemble.positions[:, 0, 0].copy())
        stacked = np.stack(samples)  # (steps, walkers)

        # Walker means are iid across independent chains, so the spread of
        # per-walker averages gives an honest standard error.
        walker_means = stacked.mean(axis=0)
        se_mean = walker_means.std(ddof=1) / np.sqrt(n_walkers)
        assert abs(walker_means.mean()) < 3.0 * se_mean + 1e-12

        walker_vars = stacked.var(axis=0)
        se_var = walker_vars.std(ddof=1) / np.sqrt(n_walkers)
        assert abs(walker_vars.mean() - 1.0) < 3.0 * se_var

        # Chi-square against equal-probability normal bins, thinned to
        # decorrelate.  99% critical value keeps the false-alarm rate low.
        thinned = stacked[::40].ravel()
        n_bins = 20
        edges = stats.norm.ppf(np.linspace(0.0, 1.0, n_bins + 1))
        counts, _ = np.histogram(thinned, bins=edges)
        expected = len(thinned) / n_bins
        chi2 = np.sum((counts - expected) ** 2 / expected)
        assert chi2 < stats.chi2.ppf(0.99, df=n_bins - 1)

    def test_hydrogen_ground_state_radius(self):
        system, wavefunction = hydrogen_exact()
        ensemble = WalkerEnsemble.create(
            system, wavefunction, n_walkers=256, seed=21, proposal_std=0.5
        )
        batch = sample_batch(
            ensemble, wavefunction, system,
            n_samples=256 * 160, burn_in_steps=200, thinning=5,
        )
        radii = np.linalg.norm(batch.positions[:, 0], axis=1)
        # <r> = 3/2 for the exact 1s orbital.  Rows of the reshape are
        # collection rounds, columns are walkers; per-walker means over
        # independent chains give an honest standard error.
        blocks = radii.reshape(-1, 256).mean(axis=0)
        assert blocks.shape == (256,)
        se = blocks.std(ddof=1) / np.sqrt(len(blocks))
        assert abs(radii.mean() - 1.5) < 3.0 * se

    def test_hydrogen_exact_state_has_zero_variance_energy(self):
        system, wavefunction = hydrogen_exact()
        ensemble = WalkerEnsemble.create(
            system, wavefunction, n_walkers=64, seed=22, proposal_std=0.5
        )
        batch = sample_batch(
            ensemble, wavefunction, system,
            n_samples=512, burn_in_steps=100, thinning=2,
        )
        # Finite-difference Laplacian leaves truncation error ~1e-7.
        np.testing.assert_allclose(batch.local_energies, -0.5, atol=1e-5)


class TestBurnIn:
    def test_adapts_into_acceptance_window_then_freezes(self):
        ensemble, model = make_line_ensemble(200, seed=31)
        ensemble.proposal_std = 8.0  # deliberately bad starting width
        burn_in(ensemble, model, steps=600)
        assert ensemble.burned_in
        frozen = ensemble.proposal_std

        ensemble.accepted = ensemble.proposed = 0
        for _ in range(200):
            metropolis_step(ensemble, model)
        assert 0.3 < ensemble.accepted / ensemble.proposed < 0.7
        assert ensemble.proposal_std == frozen

        # A second burn-in call must be a no-op.
        burn_in(ensemble, model, steps=600)
        assert ensemble.proposal_std == frozen

    def test_zero_steps_marks_burned_in(self):
        ensemble, model = make_line_ensemble(8, seed=32)
        burn_in(ensemble, model, steps=0)
        assert ensemble.burned_in


class TestSampleBatch:
    def test_sample_count_and_shapes(self):
        system, wavefunction = hydrogen_exact()
        ensemble = WalkerEnsemble.create(
            system, wavefunction, n_walkers=32, seed=41, proposal_std=0.5
        )
        batch = sample_batch(
            ensemble, wavefunction, system,
            n_samples=100, burn_in_steps=20, thinning=2,
        )
        assert batch.size == 100
        assert batch.local_energies.shape == (100,)
        assert batch.theta_logderivs.shape == (100, wavefunction.n_params)
        assert batch.positions.shape == (100, 1, 3)

    def test_bitwise_reproducible_for_fixed_seed(self):
        system, wavefunction = hydrogen_exact()
        captured = []
        for _ in range(2):
            ensemble = WalkerEnsemble.create(
                system, wavefunction, n_walkers=16, seed=43, proposal_std=0.5
            )
            batch = sample_batch(
                ensemble, wavefunction, system,
                n_samples=48, burn_in_steps=30, thinning=3,
            )
            captured.append(batch)
        np.testing.assert_array_equal(
            captured[0].local_energies, captured[1].local_energies
        )
        np.testing.assert_array_equal(
            captured[0].theta_logderivs, captured[1].theta_logderivs
        )
        np.testing.assert_array_equal(captured[0].positions, captured[1].positions)

    def test_rejects_nonpositive_request(self):
        system, wavefunction = hydrogen_exact()
        ensemble = WalkerEnsemble.create(
            system, wavefunction, n_walkers=8, seed=44, proposal_std=0.5
        )
        positions = ensemble.positions.copy()
        proposal_std = ensemble.proposal_std
        rng_state = ensemble.rng.bit_generator.state
        with pytest.raises(ValueError):
            sample_batch(ensemble, wavefunction, system, n_samples=0,
                         burn_in_steps=1000, thinning=10)
        # refused before burn-in: the ensemble is untouched
        assert not ensemble.burned_in
        np.testing.assert_array_equal(ensemble.positions, positions)
        assert ensemble.proposal_std == proposal_std
        assert ensemble.rng.bit_generator.state == rng_state

    def test_helium_batch_is_finite(self):
        system = preset_system("he")
        basis = default_basis(system, radial_powers=(0, 1), ell_max=1)
        wavefunction = AceWavefunction(system=system, basis=basis)
        ensemble = WalkerEnsemble.create(
            system, wavefunction, n_walkers=64, seed=45, proposal_std=0.5
        )
        batch = sample_batch(
            ensemble, wavefunction, system,
            n_samples=128, burn_in_steps=50, thinning=2,
        )
        assert np.all(np.isfinite(batch.local_energies))
        assert np.all(np.isfinite(batch.theta_logderivs))

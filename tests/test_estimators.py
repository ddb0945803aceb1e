"""Clipping, centered assembly, covariance identities, gradient formula."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vmcsr.errors import DegenerateBatch
from vmcsr.estimators import (
    SampleBatch,
    assemble,
    clip_local_energies,
    s_matrix,
    t_matrix,
)


def make_batch(energies, derivs):
    energies = np.asarray(energies, dtype=np.float64)
    derivs = np.asarray(derivs, dtype=np.float64)
    positions = np.zeros((len(energies), 1, 3))
    return SampleBatch(positions=positions, local_energies=energies, theta_logderivs=derivs)


def scripted_clamp(energies, n_std):
    """Loop oracle: clamp each element to the population-stat window."""
    mean = sum(energies) / len(energies)
    var = sum((e - mean) ** 2 for e in energies) / len(energies)
    lo, hi = mean - n_std * var**0.5, mean + n_std * var**0.5
    return [min(max(e, lo), hi) for e in energies]


class TestClip:
    def test_constant_batch_unchanged(self):
        values = np.full(8, -2.9)
        np.testing.assert_array_equal(clip_local_energies(values, 5.0), values)

    def test_single_outlier_clamped(self):
        values = np.array([0.0, 0.0, 0.0, 0.0, 100.0])
        clipped = clip_local_energies(values, 1.0)
        assert np.mean(values) == 20.0 and np.std(values) == 40.0
        np.testing.assert_allclose(clipped, scripted_clamp(list(values), 1.0), atol=1e-12)
        assert clipped[-1] == pytest.approx(60.0, abs=1e-12)

    def test_infinite_width_is_identity(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=50)
        np.testing.assert_array_equal(clip_local_energies(values, np.inf), values)

    def test_random_batches_match_scripted_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            values = rng.standard_cauchy(size=32)
            for width in (0.5, 1.0, 3.0):
                np.testing.assert_allclose(
                    clip_local_energies(values, width),
                    scripted_clamp(list(values), width),
                    atol=1e-10,
                )

    def test_too_small_batch(self):
        with pytest.raises(DegenerateBatch):
            clip_local_energies(np.array([1.0]), 5.0)


class TestAssemble:
    def test_constant_logderivs_give_zero_matrix_and_gradient(self):
        rng = np.random.default_rng(2)
        derivs = np.tile(rng.normal(size=4), (6, 1))
        bundle = assemble(make_batch(rng.normal(size=6), derivs), clip_n_std=5.0)
        np.testing.assert_array_equal(bundle.o_matrix, np.zeros((4, 6)))
        np.testing.assert_array_equal(bundle.gradient, np.zeros(4))

    def test_two_sample_closed_form(self):
        a = np.array([1.0, -2.0, 0.5])
        b = np.array([0.2, 0.7, -1.1])
        e = np.array([3.0, 1.0])
        bundle = assemble(make_batch(e, np.stack([a, b])), clip_n_std=np.inf)
        half_diff = (a - b) / (2.0 * np.sqrt(2.0))
        np.testing.assert_allclose(bundle.o_matrix[:, 0], half_diff, atol=1e-15)
        np.testing.assert_allclose(bundle.o_matrix[:, 1], -half_diff, atol=1e-15)
        e_half = (e[0] - e[1]) / (2.0 * np.sqrt(2.0))
        np.testing.assert_allclose(bundle.l_vector, [e_half, -e_half], atol=1e-15)
        np.testing.assert_allclose(
            bundle.gradient, (e[0] - e[1]) * (a - b) / 2.0, atol=1e-14
        )

    def test_covariance_matches_brute_force_double_loop(self):
        rng = np.random.default_rng(3)
        derivs = rng.normal(size=(12, 5))
        bundle = assemble(make_batch(rng.normal(size=12), derivs), clip_n_std=5.0)
        centered = derivs - derivs.mean(axis=0)
        brute = np.zeros((5, 5))
        for row in centered:
            brute += np.outer(row, row)
        brute /= 12.0
        np.testing.assert_allclose(s_matrix(bundle), brute, atol=1e-12)

    def test_gradient_equals_literal_per_sample_sum(self):
        rng = np.random.default_rng(4)
        derivs = rng.normal(size=(16, 7))
        energies = rng.normal(size=16)
        bundle = assemble(make_batch(energies, derivs), clip_n_std=np.inf)
        literal = np.zeros(7)
        for e_n, d_n in zip(energies, derivs):
            literal += 2.0 * (e_n - energies.mean()) * d_n / 16.0
        np.testing.assert_allclose(bundle.gradient, literal, atol=1e-12)

    def test_centered_rows_and_residuals(self):
        rng = np.random.default_rng(5)
        bundle = assemble(make_batch(rng.normal(size=9), rng.normal(size=(9, 4))), clip_n_std=5.0)
        np.testing.assert_allclose(bundle.o_matrix.sum(axis=1), np.zeros(4), atol=1e-14)
        assert bundle.l_vector.sum() == pytest.approx(0.0, abs=1e-14)

    def test_traces_match_frobenius_norm(self):
        rng = np.random.default_rng(6)
        bundle = assemble(
            make_batch(rng.normal(size=10), rng.normal(size=(10, 6))), clip_n_std=5.0
        )
        fro2 = np.linalg.norm(bundle.o_matrix) ** 2
        assert np.trace(s_matrix(bundle)) == pytest.approx(fro2, abs=1e-12)
        assert np.trace(t_matrix(bundle)) == pytest.approx(fro2, abs=1e-12)

    def test_s_and_t_share_nonzero_spectra(self):
        rng = np.random.default_rng(7)
        bundle = assemble(
            make_batch(rng.normal(size=12), rng.normal(size=(12, 5))), clip_n_std=5.0
        )
        sigma = np.linalg.svd(bundle.o_matrix, compute_uv=False)
        s_eigs = np.sort(np.linalg.eigvalsh(s_matrix(bundle)))[::-1]
        t_eigs = np.sort(np.linalg.eigvalsh(t_matrix(bundle)))[::-1]
        k = len(sigma)
        np.testing.assert_allclose(s_eigs[:k], sigma**2, atol=1e-10)
        np.testing.assert_allclose(t_eigs[:k], sigma**2, atol=1e-10)
        np.testing.assert_allclose(t_eigs[k:], 0.0, atol=1e-10)

    def test_clipping_applies_to_residual_path_only(self):
        energies = np.array([0.0, 0.0, 0.0, 0.0, 100.0])
        derivs = np.eye(5)
        bundle = assemble(make_batch(energies, derivs), clip_n_std=1.0)
        assert bundle.raw_loss == pytest.approx(20.0)
        assert bundle.loss == pytest.approx(np.mean(scripted_clamp(list(energies), 1.0)))

    def test_degenerate_batch(self):
        with pytest.raises(DegenerateBatch):
            assemble(make_batch(np.array([1.0]), np.ones((1, 3))), clip_n_std=5.0)


class TestAssembleProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=20),
        m=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_centering_and_trace_identities_hold(self, n, m, seed):
        rng = np.random.default_rng(seed)
        bundle = assemble(
            make_batch(rng.normal(size=n), rng.normal(size=(n, m))),
            clip_n_std=np.inf,
        )
        scale = max(1.0, np.abs(bundle.o_matrix).max())
        np.testing.assert_allclose(
            bundle.o_matrix.sum(axis=1), 0.0, atol=1e-13 * scale * n
        )
        assert abs(bundle.l_vector.sum()) < 1e-12 * max(1.0, np.abs(bundle.l_vector).max()) * n
        fro2 = np.linalg.norm(bundle.o_matrix) ** 2
        assert np.trace(s_matrix(bundle)) == pytest.approx(fro2, rel=1e-10)
        assert np.trace(t_matrix(bundle)) == pytest.approx(fro2, rel=1e-10)
        np.testing.assert_allclose(
            bundle.gradient, 2.0 * bundle.o_matrix @ bundle.l_vector, atol=1e-14
        )


class TestStatisticalUnbiasedness:
    def test_harmonic_oscillator_gradient(self):
        """One-parameter Gaussian family for the 1D oscillator: the
        estimator must reproduce the analytic loss derivative within
        Monte Carlo error (exact iid sampling, no chain needed)."""
        c = 2.0
        n = 1_000_000
        rng = np.random.default_rng(8)
        x = rng.normal(0.0, np.sqrt(1.0 / (2.0 * c)), size=n)
        local = c / 2.0 + (1.0 - c * c) * x * x / 2.0
        dlog = (-x * x / 2.0)[:, None]
        # Geometry is irrelevant to this closed-form check.
        batch = SampleBatch(
            positions=np.zeros((n, 0, 3)), local_energies=local, theta_logderivs=dlog
        )
        bundle = assemble(batch, clip_n_std=np.inf)

        analytic = 0.25 - 1.0 / (4.0 * c * c)
        per_sample = 2.0 * (local - local.mean()) * dlog[:, 0]
        stderr = per_sample.std() / np.sqrt(n)
        assert abs(bundle.gradient[0] - analytic) < 3.0 * stderr

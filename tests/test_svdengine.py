"""Truncated-SVD engine checked against the dense factorization."""

import numpy as np
import pytest

from vmcsr.errors import DegenerateInput, RankTooLarge
from vmcsr.linalg import exact_svd
from vmcsr.svdengine import (
    exact_truncated_svd,
    randomized_svd,
    ssi_svd,
    subspace_drift,
)


def _orthonormal(rng, m, r):
    q, _ = np.linalg.qr(rng.standard_normal((m, r)))
    return q


def _rebuild(fact):
    return (fact.u * fact.sigma) @ fact.v


def _matrix_with_spectrum(rng, m, n, sigma):
    u = _orthonormal(rng, m, len(sigma))
    v = _orthonormal(rng, n, len(sigma))
    return (u * np.asarray(sigma)) @ v.T, u, v


class TestSsiSvd:
    def test_diagonal_matrix_dominant_pair(self):
        a = np.diag([5.0, 4.0, 3.0, 2.0, 1.0])
        fact, iterations = ssi_svd(a, rank=2, max_iters=60, residual_tol=1e-10)
        np.testing.assert_allclose(fact.sigma, [5.0, 4.0], atol=1e-8)
        np.testing.assert_allclose(np.abs(fact.u), np.eye(5)[:, :2], atol=1e-6)
        assert iterations <= 60

    def test_exact_fixed_point_converges_in_one_iteration(self):
        rng = np.random.default_rng(5)
        a, u_true, _ = _matrix_with_spectrum(rng, 30, 20, [4.0, 2.0, 1.0])
        fact, iterations = ssi_svd(a, rank=3, max_iters=1, residual_tol=1e-10, u_init=u_true)
        assert iterations == 1
        np.testing.assert_allclose(fact.sigma, [4.0, 2.0, 1.0], atol=1e-10)

    def test_rotated_warm_block_is_exact_in_one_iteration(self):
        """A block spanning the dominant subspace in mixed columns is
        invariant, so the Rayleigh-Ritz finish separates it at once."""
        rng = np.random.default_rng(6)
        sigma = [5.0, 3.0, 2.0, 0.5, 0.25, 0.1]
        a, u_true, _ = _matrix_with_spectrum(rng, 40, 25, sigma)
        rot, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        fact, iterations = ssi_svd(
            a, rank=3, max_iters=50, residual_tol=1e-10, u_init=u_true[:, :3] @ rot
        )
        assert iterations == 1
        np.testing.assert_allclose(fact.sigma, sigma[:3], atol=1e-12)
        np.testing.assert_allclose(np.abs(fact.u.T @ u_true[:, :3]), np.eye(3), atol=1e-10)

    def test_geometric_spectrum_matches_dense_svd(self):
        rng = np.random.default_rng(20)
        sigma = 2.0 ** -np.arange(1, 21)
        a, _, _ = _matrix_with_spectrum(rng, 200, 120, sigma)
        fact, _ = ssi_svd(a, rank=10, max_iters=30, residual_tol=1e-10)
        _, dense_sigma, _ = exact_svd(a)
        np.testing.assert_allclose(fact.sigma, dense_sigma[:10], atol=1e-8)

    def test_factor_contract(self):
        rng = np.random.default_rng(21)
        a, _, _ = _matrix_with_spectrum(rng, 40, 25, [3.0, 1.0, 0.3, 0.1])
        fact, _ = ssi_svd(a, rank=4, max_iters=50, residual_tol=1e-10)
        np.testing.assert_allclose(fact.u.T @ fact.u, np.eye(4), atol=1e-10)
        np.testing.assert_allclose(fact.v @ fact.v.T, np.eye(4), atol=1e-10)
        assert np.all(fact.sigma > 0.0) and np.all(np.diff(fact.sigma) <= 0.0)
        np.testing.assert_allclose(_rebuild(fact), a, atol=1e-8)

    def test_sigma_error_monotone_in_iteration_budget(self):
        rng = np.random.default_rng(33)
        worse = 0
        for trial in range(20):
            sigma = [5.0, 4.0, 2.0, 0.5, 0.2, 0.1]
            a, _, _ = _matrix_with_spectrum(rng, 25, 18, sigma)
            dense_sigma = exact_svd(a)[1][:3]
            errors = []
            for m in (1, 2, 4, 8, 16):
                fact, _ = ssi_svd(a, rank=3, max_iters=m, residual_tol=0.0)
                errors.append(np.linalg.norm(fact.sigma - dense_sigma))
            # tiny non-monotone wiggles at convergence plateau are rounding
            worse += sum(
                errors[i + 1] > errors[i] + 1e-12 for i in range(len(errors) - 1)
            )
        assert worse == 0

    def test_warm_start_beats_cold_start(self):
        rng = np.random.default_rng(44)
        wins = 0
        for trial in range(20):
            sigma = np.array([8.0, 6.0, 5.0, 1.0, 0.5, 0.25])
            a, u_true, _ = _matrix_with_spectrum(rng, 60, 40, sigma)
            perturbed = a + 1e-4 * np.linalg.norm(a) / np.sqrt(a.size) * rng.standard_normal(a.shape)
            u_warm, _, _ = exact_svd(a)
            # below the budget, the count is where the residual exit fired
            _, warm_iters = ssi_svd(perturbed, rank=3, max_iters=40,
                                    u_init=u_warm[:, :3], residual_tol=1e-8)
            _, cold_iters = ssi_svd(perturbed, rank=3, max_iters=40, residual_tol=1e-8)
            assert warm_iters < 40 and cold_iters < 40
            if warm_iters <= max(1, cold_iters // 2):
                wins += 1
        assert wins == 20

    def test_rank_bounds_enforced(self):
        a = np.eye(4)
        with pytest.raises(RankTooLarge):
            ssi_svd(a, rank=5, max_iters=3, residual_tol=1e-10)
        with pytest.raises(RankTooLarge):
            ssi_svd(a, rank=0, max_iters=3, residual_tol=1e-10)

    def test_warm_block_width_bounds(self):
        a = np.random.default_rng(67).standard_normal((12, 8))
        fact, _ = ssi_svd(  # oversampled
            a, rank=2, max_iters=3, residual_tol=1e-10, u_init=np.eye(12)[:, :8]
        )
        assert fact.rank == 2
        for width in (1, 9):
            with pytest.raises(ValueError):
                ssi_svd(a, rank=2, max_iters=3, residual_tol=1e-10,
                        u_init=np.eye(12)[:, :width])

    def test_zero_matrix_rejected(self):
        with pytest.raises(DegenerateInput):
            ssi_svd(np.zeros((6, 4)), rank=2, max_iters=3, residual_tol=1e-10)

    def test_column_permutation_leaves_sigma_unchanged(self):
        rng = np.random.default_rng(55)
        a, _, _ = _matrix_with_spectrum(rng, 30, 12, [4.0, 3.0, 2.0, 1.0])
        perm = rng.permutation(12)
        f1, _ = ssi_svd(a, rank=4, max_iters=40, residual_tol=1e-10)
        f2, _ = ssi_svd(a[:, perm], rank=4, max_iters=40, residual_tol=1e-10)
        np.testing.assert_allclose(f1.sigma, f2.sigma, atol=1e-10)

    def test_zero_rows_with_full_warm_block(self):
        """He step shape: 64 dead parameter rows leave rank 80. A block
        warm-started from the converged directions plus Gaussian fill, as
        wssr builds it, must drop the 64 zero directions."""
        rng = np.random.default_rng(77)
        a = rng.standard_normal((144, 2089))
        a[rng.choice(144, size=64, replace=False)] = 0.0
        exact = exact_truncated_svd(a, 144)
        assert exact.rank == 80
        nonzero = exact.sigma[exact.sigma > 1e-12 * exact.sigma[0]]
        u_init, _ = np.linalg.qr(
            np.concatenate([exact.u[:, :80], rng.standard_normal((144, 64))], axis=1)
        )
        fact, iterations = ssi_svd(a, rank=144, max_iters=3, residual_tol=1e-10, u_init=u_init)
        assert iterations == 1
        assert fact.rank <= 80
        np.testing.assert_allclose(fact.sigma, nonzero, rtol=1e-8)

    def test_deterministic(self):
        rng = np.random.default_rng(66)
        a = rng.standard_normal((15, 10))
        f1, n1 = ssi_svd(a, rank=3, max_iters=3, residual_tol=1e-10)
        f2, n2 = ssi_svd(a, rank=3, max_iters=3, residual_tol=1e-10)
        np.testing.assert_array_equal(f1.u, f2.u)
        np.testing.assert_array_equal(f1.sigma, f2.sigma)
        np.testing.assert_array_equal(f1.v, f2.v)
        assert n1 == n2


class TestRandomizedSvd:
    def test_exact_low_rank_recovery_any_seed(self):
        rng = np.random.default_rng(70)
        a, _, _ = _matrix_with_spectrum(rng, 50, 30, [3.0, 2.0, 1.0])
        _, dense_sigma, _ = exact_svd(a)
        for seed in (0, 1, 7, 123, 99999):
            fact = randomized_svd(a, rank=3, oversample=5, rng_seed=seed)
            np.testing.assert_allclose(fact.sigma, dense_sigma[:3], atol=1e-10)
            np.testing.assert_allclose(_rebuild(fact), a, atol=1e-9)

    def test_zero_matrix_rejected(self):
        with pytest.raises(DegenerateInput):
            randomized_svd(np.zeros((30, 20)), rank=2, oversample=5)

    def test_gap_spectrum_error_bound_over_seeds(self):
        rng = np.random.default_rng(71)
        sigma = np.concatenate([np.linspace(10.0, 5.0, 20), np.full(40, 0.05)])
        a, _, _ = _matrix_with_spectrum(rng, 300, 200, sigma)
        tail = exact_svd(a)[1][20]
        for seed in range(50):
            fact = randomized_svd(a, rank=20, oversample=10, rng_seed=seed)
            err = np.linalg.norm(a - _rebuild(fact), ord=2)
            assert err <= 10.0 * tail

    def test_sketch_width_bound(self):
        with pytest.raises(RankTooLarge):
            randomized_svd(np.eye(8), rank=4, oversample=5)

    def test_equals_one_cold_ssi_pass_from_the_same_block(self):
        # the sketch is one budgeted ssi_svd pass from its Gaussian block
        rng = np.random.default_rng(14)
        a = rng.standard_normal((60, 90))
        fact = randomized_svd(a, rank=7, oversample=4, rng_seed=5)
        omega = np.random.default_rng(5).standard_normal((60, 11))
        ref, _ = ssi_svd(a, 7, max_iters=1, residual_tol=1e-10, u_init=omega)
        for name in ("u", "sigma", "v"):
            np.testing.assert_array_equal(getattr(fact, name), getattr(ref, name))

    def test_seed_determinism(self):
        rng = np.random.default_rng(72)
        a = rng.standard_normal((40, 30))
        f1 = randomized_svd(a, rank=5, oversample=5, rng_seed=3)
        f2 = randomized_svd(a, rank=5, oversample=5, rng_seed=3)
        np.testing.assert_array_equal(f1.u, f2.u)
        np.testing.assert_array_equal(f1.sigma, f2.sigma)


class TestSubspaceDrift:
    def test_identical_factors(self):
        rng = np.random.default_rng(80)
        a, _, _ = _matrix_with_spectrum(rng, 20, 10, [2.0, 1.0, 0.5])
        fact = exact_truncated_svd(a, 3)
        assert subspace_drift(fact.u, fact.sigma, fact.u, fact.sigma) == (0.0, 0.0)

    def test_in_span_rotation_keeps_projector(self):
        rng = np.random.default_rng(81)
        u = _orthonormal(rng, 20, 3)
        sigma = np.array([2.0, 1.5, 1.0])
        rot, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        sdrift, pdrift = subspace_drift(u, sigma, u @ rot, sigma)
        assert sdrift == 0.0
        assert pdrift < 1e-7

    def test_matches_brute_force_projector_norm(self):
        rng = np.random.default_rng(82)
        u1 = _orthonormal(rng, 20, 3)
        u2 = _orthonormal(rng, 20, 3)
        sigma = np.array([3.0, 2.0, 1.0])
        sdrift, pdrift = subspace_drift(u1, sigma, u2, sigma + 0.25)
        brute = np.linalg.norm(u1 @ u1.T - u2 @ u2.T, ord=2)
        np.testing.assert_allclose(pdrift, brute, atol=1e-10)
        np.testing.assert_allclose(sdrift, np.linalg.norm(np.full(3, 0.25)), atol=1e-12)

    def test_rank_mismatch_truncates(self):
        rng = np.random.default_rng(83)
        u = _orthonormal(rng, 10, 4)
        sigma = np.array([4.0, 3.0, 2.0, 1.0])
        assert subspace_drift(u, sigma, u[:, :2], sigma[:2]) == (0.0, 0.0)


class TestExitCount:
    """The iteration count ssi_svd returns: the residual exit or the budget."""

    def test_invariant_block_exits_after_one_iteration(self):
        rng = np.random.default_rng(90)
        a, u_true, _ = _matrix_with_spectrum(rng, 25, 15, [3.0, 1.0])
        for budget in range(1, 6):
            _, iterations = ssi_svd(
                a, rank=2, max_iters=budget, residual_tol=1e-10, u_init=u_true
            )
            assert iterations == 1

    def test_generic_block_spends_the_whole_budget(self):
        rng = np.random.default_rng(91)
        a = rng.standard_normal((25, 15))
        q = _orthonormal(rng, 25, 3)
        for budget in (1, 2, 4, 8):
            _, iterations = ssi_svd(a, rank=3, max_iters=budget, residual_tol=0.0, u_init=q)
            assert iterations == budget

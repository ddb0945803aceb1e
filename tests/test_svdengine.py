"""Truncated-SVD engine and its dense kernels, checked against numpy's SVD."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vmcsr.errors import DegenerateInput
from vmcsr.optimizers import SSI_MAX_ITERS, SSI_RESIDUAL_TOL
from vmcsr.svdengine import (
    exact_truncated_svd,
    gram_svd,
    qr_orthonormalize,
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


def _assert_valid_qr(a, q, r, tol=1e-12):
    m, n = a.shape
    assert q.shape == (m, n)
    assert r.shape == (n, n)
    assert np.allclose(q.T @ q, np.eye(n), atol=tol)
    assert np.allclose(q @ r, a, atol=tol * max(1.0, np.linalg.norm(a)))
    assert np.all(np.diagonal(r) >= 0.0)
    assert np.allclose(r, np.triu(r))


class TestQrOrthonormalize:
    def test_identity_is_fixed_point(self):
        eye = np.eye(3)
        q, r = qr_orthonormalize(eye)
        np.testing.assert_allclose(q, eye, atol=1e-15)
        np.testing.assert_allclose(r, eye, atol=1e-15)

    def test_single_column_three_four(self):
        q, r = qr_orthonormalize(np.array([[3.0], [4.0]]))
        np.testing.assert_allclose(q, [[0.6], [0.8]], atol=1e-15)
        np.testing.assert_allclose(r, [[5.0]], atol=1e-15)

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(ValueError):
            qr_orthonormalize(np.array([3.0, 4.0]))

    def test_random_tall_matrix_reconstructs(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((8, 3))
        q, r = qr_orthonormalize(a)
        _assert_valid_qr(a, q, r)

    def test_rank_deficient_column_patched(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((6, 2))
        deficient = np.column_stack([a[:, 0], a[:, 0], a[:, 1]])
        q, r = qr_orthonormalize(deficient)
        _assert_valid_qr(deficient, q, r)
        assert r[1, 1] == 0.0

    def test_zero_rows_at_he_step_shape(self):
        """Transpose of a (144, 2089) log-derivative block with 64 dead
        parameter rows: rank 80, so 64 pivots must come out exactly zero."""
        rng = np.random.default_rng(8)
        o = rng.standard_normal((144, 2089))
        o[rng.choice(144, size=64, replace=False)] = 0.0
        a = o.T
        q, r = qr_orthonormalize(a)
        _assert_valid_qr(a, q, r)
        assert np.count_nonzero(np.diagonal(r) == 0.0) == 64

    def test_full_rank_matches_lapack_with_sign_fix(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((2089, 144))
        q, r = qr_orthonormalize(a)
        q_ref, r_ref = np.linalg.qr(a, mode="reduced")
        signs = np.where(np.diagonal(r_ref) < 0.0, -1.0, 1.0)
        np.testing.assert_array_equal(q, q_ref * signs)
        np.testing.assert_array_equal(r, r_ref * signs[:, None])

    def test_zero_matrix_rejected(self):
        with pytest.raises(DegenerateInput):
            qr_orthonormalize(np.zeros((4, 2)))

    def test_wide_matrix_rejected(self):
        with pytest.raises(ValueError):
            qr_orthonormalize(np.ones((2, 4)))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        m=st.integers(2, 12),
        n=st.integers(1, 6),
    )
    def test_idempotent_on_orthonormal_input(self, seed, m, n):
        """Re-orthonormalizing Q returns Q up to column signs; here signs
        already match because diag(R) >= 0 pins them."""
        n = min(m, n)
        rng = np.random.default_rng(seed)
        q, _ = qr_orthonormalize(rng.standard_normal((m, n)))
        q2, r2 = qr_orthonormalize(q)
        np.testing.assert_allclose(q2, q, atol=1e-10)
        np.testing.assert_allclose(r2, np.eye(n), atol=1e-10)


class TestExactTruncatedSvd:
    def test_diagonal_matrix(self):
        a = np.diag([3.0, 2.0, 1.0])
        fact = exact_truncated_svd(a, 3)
        np.testing.assert_allclose(fact.sigma, [3.0, 2.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(_rebuild(fact), a, atol=1e-14)

    def test_rank_one_matrix(self):
        a = np.zeros((4, 4))
        a[0, 0] = 2.0
        fact = exact_truncated_svd(a, 4)
        np.testing.assert_allclose(fact.sigma, [2.0], atol=1e-15)  # exact zeros dropped
        np.testing.assert_allclose(_rebuild(fact), a, atol=1e-15)

    def test_random_reconstruction(self):
        rng = np.random.default_rng(3)
        for m, n in ((6, 4), (4, 6)):  # tall, and wide (factored through a.T)
            a = rng.standard_normal((m, n))
            k = min(m, n)
            fact = exact_truncated_svd(a, k)
            assert fact.u.shape == (m, k) and fact.sigma.shape == (k,) and fact.v.shape == (k, n)
            np.testing.assert_allclose(fact.u.T @ fact.u, np.eye(k), atol=1e-12)
            np.testing.assert_allclose(fact.v @ fact.v.T, np.eye(k), atol=1e-12)
            rel = np.linalg.norm(_rebuild(fact) - a) / np.linalg.norm(a)
            assert rel < 1e-12

    def test_wide_input_is_factored_through_its_transpose(self):
        a = np.random.default_rng(4).standard_normal((5, 9))
        wide, tall = exact_truncated_svd(a, 5), exact_truncated_svd(a.T, 5)
        np.testing.assert_array_equal(wide.u, tall.v.T)
        np.testing.assert_array_equal(wide.sigma, tall.sigma)
        np.testing.assert_array_equal(wide.v, tall.u.T)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), m=st.integers(1, 10), n=st.integers(1, 10))
    def test_singular_values_match_gram_eigenvalues(self, seed, m, n):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, n))
        sigma = exact_truncated_svd(a, min(m, n)).sigma
        eig = np.linalg.eigvalsh(a.T @ a)[::-1]
        np.testing.assert_allclose(sigma, np.sqrt(np.clip(eig, 0.0, None))[: len(sigma)], atol=1e-10)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            exact_truncated_svd(np.array([[1.0, np.nan], [0.0, 1.0]]), 2)


class TestFullSpaceSvd:
    """gram_svd asked for every triplet of the smaller side."""

    def test_matches_dense_svd_at_he_step_shape(self):
        """(144, 2089) with 64 dead parameter rows, the shape of a He
        ell_max = 0 wssr step: the Gram route keeps the same 80 triplets."""
        rng = np.random.default_rng(8)
        a = rng.standard_normal((144, 2089))
        a[rng.choice(144, size=64, replace=False)] = 0.0
        fact, exact = gram_svd(a, 144), exact_truncated_svd(a, 144)
        assert fact.rank == exact.rank == 80
        np.testing.assert_allclose(fact.sigma, exact.sigma, rtol=1e-12)
        projector_gap = fact.u @ fact.u.T - exact.u @ exact.u.T
        assert np.linalg.norm(projector_gap, ord=2) <= 1e-10
        np.testing.assert_allclose(fact.u.T @ fact.u, np.eye(80), atol=1e-12)
        assert np.linalg.norm(_rebuild(fact) - a) <= 1e-12 * np.linalg.norm(a)

    def test_graded_spectrum_above_the_resolution_limit(self):
        """Singular values from 1 down to 1e-9: every one with
        sigma / sigma_1 >= 1e-3, all that the default r_reg keeps, matches
        the dense SVD to 1e-10 relative."""
        rng = np.random.default_rng(12)
        sigma = np.geomspace(1.0, 1e-9, 60)
        a, _, _ = _matrix_with_spectrum(rng, 60, 300, sigma)
        fact = gram_svd(a, 60)
        dense = np.linalg.svd(a, compute_uv=False)
        kept = np.count_nonzero(dense >= 1e-3 * dense[0])
        assert fact.rank >= kept
        np.testing.assert_allclose(fact.sigma[:kept], dense[:kept], rtol=1e-10)

    def test_zero_matrix_rejected(self):
        with pytest.raises(DegenerateInput):
            gram_svd(np.zeros((3, 5)), 3)

    def test_tall_matrix_served_through_its_column_gram(self):
        """A tall matrix takes the n x n Gram ohat.T @ ohat: its factors are
        those of its wide transpose, swapped."""
        rng = np.random.default_rng(9)
        a = rng.standard_normal((40, 120))
        wide, tall = gram_svd(a, 40), gram_svd(a.T, 40)
        assert tall.rank == wide.rank == 40
        np.testing.assert_allclose(tall.sigma, wide.sigma, rtol=1e-12)
        np.testing.assert_allclose(tall.v @ tall.v.T, np.eye(40), atol=1e-12)
        np.testing.assert_allclose(np.abs(np.sum(tall.u * wide.v.T, axis=0)), 1.0, rtol=1e-12)
        assert np.linalg.norm(_rebuild(tall) - a.T) <= 1e-12 * np.linalg.norm(a)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            gram_svd(np.array([[1.0, np.inf], [0.0, 1.0]]), 2)


class TestGramSvd:
    @pytest.mark.parametrize("m, n, rank, orthonormality", [
        (144, 2048, 144, 1e-12),   # He s: the whole row space
        (544, 96, 64, 1e-8),       # criterion 9's step 1: tall, narrow
        (3720, 2048, 400, 1e-12),  # Be's step 1: tall, narrow
    ], ids=["he-s", "criterion-9", "be"])
    def test_matches_the_dense_svd(self, m, n, rank, orthonormality):
        """A spectrum from 1 down to 1e-6: every sigma with
        sigma / sigma_1 >= 1e-3 matches the dense SVD to 1e-10 relative.
        u is orthonormal to rounding where it holds eigenvectors (m <= n);
        from a tall matrix it is ohat @ v / sigma, whose error grows as
        (sigma_1 / sigma_rank)^2, about 1e8 at criterion 9's block edge."""
        rng = np.random.default_rng(13)
        a, _, _ = _matrix_with_spectrum(rng, m, n, np.geomspace(1.0, 1e-6, min(m, n)))
        fact, exact = gram_svd(a, rank), exact_truncated_svd(a, rank)
        assert fact.rank == exact.rank == rank
        kept = np.count_nonzero(exact.sigma >= 1e-3 * exact.sigma[0])
        np.testing.assert_allclose(fact.sigma[:kept], exact.sigma[:kept], rtol=1e-10)
        assert np.abs(fact.u.T @ fact.u - np.eye(rank)).max() <= orthonormality


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
        dense_sigma = np.linalg.svd(a, compute_uv=False)
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
            dense_sigma = np.linalg.svd(a, compute_uv=False)[:3]
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
            u_warm, _, _ = np.linalg.svd(a, full_matrices=False)
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
        with pytest.raises(ValueError):
            ssi_svd(a, rank=5, max_iters=3, residual_tol=1e-10)
        with pytest.raises(ValueError):
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

    # One pass from an oversampled Gaussian block is the randomized range
    # finder (Halko, Martinsson & Tropp 2011), rssr's factorization.
    def test_one_gaussian_pass_recovers_exact_low_rank_any_seed(self):
        rng = np.random.default_rng(70)
        a, _, _ = _matrix_with_spectrum(rng, 50, 30, [3.0, 2.0, 1.0])
        dense_sigma = np.linalg.svd(a, compute_uv=False)
        for seed in (0, 1, 7, 123, 99999):
            omega = np.random.default_rng(seed).standard_normal((50, 3 + 5))
            fact, iterations = ssi_svd(a, 3, max_iters=1, residual_tol=0.0, u_init=omega)
            assert iterations == 1
            np.testing.assert_allclose(fact.sigma, dense_sigma[:3], atol=1e-10)
            np.testing.assert_allclose(_rebuild(fact), a, atol=1e-9)

    def test_one_gaussian_pass_gap_spectrum_error_bound_over_seeds(self):
        rng = np.random.default_rng(71)
        sigma = np.concatenate([np.linspace(10.0, 5.0, 20), np.full(40, 0.05)])
        a, _, _ = _matrix_with_spectrum(rng, 300, 200, sigma)
        tail = np.linalg.svd(a, compute_uv=False)[20]
        for seed in range(50):
            omega = np.random.default_rng(seed).standard_normal((300, 20 + 10))
            fact, _ = ssi_svd(a, 20, max_iters=1, residual_tol=0.0, u_init=omega)
            err = np.linalg.norm(a - _rebuild(fact), ord=2)
            assert err <= 10.0 * tail


# entry point -> (its call on a matrix of the shape given, that shape,
# a call with a shape, rank or block width the matrix cannot hold)
ARGUMENT_CHECKS = {
    "qr_orthonormalize": (qr_orthonormalize, (6, 4),
                          lambda: qr_orthonormalize(np.ones((4, 6)))),
    "exact_truncated_svd": (lambda a: exact_truncated_svd(a, 2), (4, 6),
                            lambda: exact_truncated_svd(np.ones((4, 6)), 5)),
    "gram_svd": (lambda a: gram_svd(a, 2), (4, 6), lambda: gram_svd(np.ones((6, 4)), 5)),
    "ssi_svd": (lambda a: ssi_svd(a, 2, max_iters=3, residual_tol=0.0), (4, 6),
                lambda: ssi_svd(np.ones((4, 6)), 2, max_iters=3, residual_tol=0.0,
                                u_init=np.eye(4)[:, :1])),
}


@pytest.mark.parametrize("entry", ARGUMENT_CHECKS)
def test_bad_arguments_are_value_errors_and_a_zero_matrix_is_degenerate(entry):
    """One check types every refusal alike: a caller's bad shape, rank,
    width or non-finite entry is a ValueError, a numerically zero matrix
    DegenerateInput."""
    factorize, shape, bad_call = ARGUMENT_CHECKS[entry]
    with pytest.raises(ValueError):
        bad_call()
    with pytest.raises(ValueError, match="non-finite"):
        factorize(np.full(shape, np.nan))
    with pytest.raises(DegenerateInput):
        factorize(np.zeros(shape))


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
        # and a tall block whose subspace has tilted only slightly
        t1 = _orthonormal(rng, 600, 40)
        t2, _ = np.linalg.qr(t1 + 1e-3 * rng.standard_normal((600, 40)))
        for a, b in ((u1, u2), (t1, t2)):
            r = a.shape[1]
            sigma = np.linspace(3.0, 1.0, r)
            sdrift, pdrift = subspace_drift(a, sigma, b, sigma + 0.25)
            brute = np.linalg.norm(a @ a.T - b @ b.T, ord=2)
            np.testing.assert_allclose(pdrift, brute, atol=1e-10)
            np.testing.assert_allclose(sdrift, np.linalg.norm(np.full(r, 0.25)), atol=1e-12)

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


@pytest.mark.slow
def test_warm_ssi_accuracy_at_the_be_step_shape():
    """The warm SSI as wssr runs it on Be (3720 parameters, a stack of
    400 history + 2048 sample columns, a block of 440), warm-started from
    the exact left vectors of a predecessor that drifts by 1% relative
    Gaussian noise. The spectrum falls from 1 to 7.6e-4 at the block edge
    with no gap there (sigma_r / sigma_r+1 = 1.005), as Be's does, so no
    small budget converges the edge; the leading 300 values must still
    match the dense SVD. Measured with OpenBLAS: 3.7e-8 relative on the
    leading 300, 1.3e-2 at the block edge."""
    m, n, block = 3720, 2448, 440
    rng = np.random.default_rng(0)
    k = np.arange(n)
    sigma = np.exp(-k / 400.0) / (1.0 + k)
    u = _orthonormal(rng, m, n)
    a = (u * sigma) @ _orthonormal(rng, n, n).T
    a += 1e-2 * np.linalg.norm(a) / np.sqrt(a.size) * rng.standard_normal(a.shape)
    fact, iterations = ssi_svd(
        a, block, max_iters=SSI_MAX_ITERS, residual_tol=SSI_RESIDUAL_TOL,
        u_init=np.ascontiguousarray(u[:, :block]),
    )
    dense = np.linalg.svd(a, compute_uv=False)[:block]
    assert iterations == SSI_MAX_ITERS and fact.rank == block
    rel = np.abs(fact.sigma - dense) / dense
    print(f"warm SSI at the Be shape: leading 300 within {rel[:300].max():.1e}, "
          f"block edge off by {rel[-1]:.1e} (relative)")
    assert rel[:300].max() < 1e-6


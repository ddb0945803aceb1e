"""Dense kernel contracts: QR sign convention, SVD ordering, SPD solves."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve

from vmcsr.errors import NotPositiveDefinite, ZeroMatrix
from vmcsr.linalg import exact_svd, qr_orthonormalize, spd_factorize


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
        with pytest.raises(ZeroMatrix):
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


class TestExactSvd:
    def test_diagonal_matrix(self):
        u, sigma, vt = exact_svd(np.diag([3.0, 2.0, 1.0]))
        np.testing.assert_allclose(sigma, [3.0, 2.0, 1.0], atol=1e-15)
        np.testing.assert_allclose((u * sigma) @ vt, np.diag([3.0, 2.0, 1.0]), atol=1e-14)

    def test_rank_one_matrix(self):
        a = np.zeros((4, 4))
        a[0, 0] = 2.0
        _, sigma, _ = exact_svd(a)
        np.testing.assert_allclose(sigma, [2.0, 0.0, 0.0, 0.0], atol=1e-15)

    def test_random_reconstruction(self):
        rng = np.random.default_rng(3)
        for m, n in ((6, 4), (4, 6)):  # tall, and wide (factored through a.T)
            a = rng.standard_normal((m, n))
            k = min(m, n)
            u, sigma, vt = exact_svd(a)
            assert u.shape == (m, k) and sigma.shape == (k,) and vt.shape == (k, n)
            assert np.all(np.diff(sigma) <= 0.0) and np.all(sigma >= 0.0)
            np.testing.assert_allclose(u.T @ u, np.eye(k), atol=1e-12)
            np.testing.assert_allclose(vt @ vt.T, np.eye(k), atol=1e-12)
            rel = np.linalg.norm((u * sigma) @ vt - a) / np.linalg.norm(a)
            assert rel < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), m=st.integers(1, 10), n=st.integers(1, 10))
    def test_singular_values_match_gram_eigenvalues(self, seed, m, n):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, n))
        _, sigma, _ = exact_svd(a)
        eig = np.linalg.eigvalsh(a.T @ a)[::-1]
        np.testing.assert_allclose(sigma, np.sqrt(np.clip(eig, 0.0, None))[: len(sigma)], atol=1e-10)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            exact_svd(np.array([[1.0, np.nan], [0.0, 1.0]]))


class TestSpdSolve:
    """spd_factorize factors the caller's own matrix in place: any shift is
    the caller's, and the factor overwrites the input."""

    def test_identity_returns_rhs(self):
        b = np.array([1.0, -2.0, 3.0])
        np.testing.assert_allclose(cho_solve(spd_factorize(np.eye(3)), b), b, atol=1e-15)

    def test_scaled_identity_halves_rhs(self):
        b = np.array([2.0, 4.0])
        x = cho_solve(spd_factorize(2.0 * np.eye(2)), b)
        np.testing.assert_allclose(x, b / 2.0, atol=1e-15)

    def test_random_spd_residual(self):
        rng = np.random.default_rng(11)
        g = rng.standard_normal((10, 10))
        t = g @ g.T + np.eye(10)
        b = rng.standard_normal(10)
        x = cho_solve(spd_factorize(t.copy()), b)
        assert np.linalg.norm(t @ x - b) < 1e-10

    def test_shift_is_applied(self):
        # the caller shifts its own matrix in place before factoring it
        rng = np.random.default_rng(12)
        g = rng.standard_normal((5, 5))
        t = g @ g.T
        b = rng.standard_normal(5)
        shifted = t.copy()
        shifted[np.diag_indices_from(shifted)] += 0.5
        x = cho_solve(spd_factorize(shifted), b)
        assert np.linalg.norm((t + 0.5 * np.eye(5)) @ x - b) < 1e-10

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            spd_factorize(np.diag([1.0, -1.0]))

    def test_matrix_rhs_gives_inverse(self):
        rng = np.random.default_rng(13)
        g = rng.standard_normal((6, 6))
        t = g @ g.T + 2.0 * np.eye(6)
        x = cho_solve(spd_factorize(t.copy()), np.eye(6))
        np.testing.assert_allclose(x @ t, np.eye(6), atol=1e-10)

    def test_factorization_reconstructs(self):
        rng = np.random.default_rng(14)
        g = rng.standard_normal((4, 4))
        t = g @ g.T + np.eye(4)
        work = t.copy()
        factor, lower = spd_factorize(work)
        assert lower and np.shares_memory(factor, work)
        chol = np.tril(factor)
        np.testing.assert_allclose(chol @ chol.T, t, atol=1e-12)
        # the input now holds the factor: t.T's lower triangle is L
        np.testing.assert_array_equal(np.tril(work.T), chol)

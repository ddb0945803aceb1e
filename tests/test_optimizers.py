"""Update rules: reduction identities, low-rank averaging, rank adaptation."""

import ctypes
import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cho_solve

from vmcsr import optimizers
from vmcsr.config import OptimizerConfig, parse_config_text
from vmcsr.errors import NotPositiveDefinite
from vmcsr.estimators import EstimatorBundle, SampleBatch, assemble, s_matrix
from vmcsr.optimizers import (
    SR_REG_MODES,
    SSI_MAX_ITERS,
    SSI_RESIDUAL_TOL,
    MinsrOptions,
    SpringOptions,
    SpringState,
    SrOptions,
    WssrOptions,
    WssrState,
    full_sr_update,
    minsr_update,
    sgd_update,
    spd_factorize,
    spring_update,
    wssr_step,
)
from vmcsr.runner import run
from vmcsr.svdengine import gram_svd, qr_orthonormalize, ssi_svd


def raw_bundle(o, l):
    """Bundle straight from an (o_matrix, l_vector) pair; the loss fields
    are irrelevant to every update rule."""
    o = np.asarray(o, dtype=np.float64)
    l = np.asarray(l, dtype=np.float64)
    return EstimatorBundle(
        loss=0.0, raw_loss=0.0, o_matrix=o, l_vector=l, gradient=2.0 * (o @ l)
    )


def centered_bundle(n_params, n_samples, seed):
    """Assembled bundle from random data, so centering identities hold."""
    rng = np.random.default_rng(seed)
    batch = SampleBatch(
        positions=np.zeros((n_samples, 0, 3)),
        local_energies=rng.normal(size=n_samples),
        theta_logderivs=rng.normal(size=(n_samples, n_params)),
    )
    return assemble(batch, clip_n_std=np.inf)


class TestSchedule:
    """The learning-rate schedule of the [optimizer] section."""

    def test_pinned_values(self):
        sched = OptimizerConfig()
        assert sched.eta(0) == 0.015
        assert sched.eta(1000) == 0.0075
        assert sched.eta(3000) == 0.00375

    def test_strictly_decreasing(self):
        sched = OptimizerConfig(alpha=0.3, beta=77.0)
        values = [sched.eta(k) for k in range(0, 500, 7)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_matches_formula(self):
        sched = OptimizerConfig(alpha=0.11, beta=13.0)
        for k in (0, 1, 5, 999):
            assert sched.eta(k) == 0.11 / (1.0 + k / 13.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(alpha=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(beta=-1.0)
        with pytest.raises(ValueError):
            OptimizerConfig().eta(-1)


@pytest.mark.parametrize(
    "cls", [OptimizerConfig, SrOptions, MinsrOptions, SpringOptions, WssrOptions]
)
def test_options_reject_nan_in_every_float_field(cls):
    floats = [f.name for f in dataclasses.fields(cls) if f.type is float]
    assert floats
    for name in floats:
        with pytest.raises(ValueError, match=f"^{name}: "):
            cls(**{name: float("nan")})


class TestSgd:
    def test_zero_gradient_is_identity(self):
        bundle = raw_bundle(np.zeros((3, 4)), np.zeros(4))
        theta = np.array([1.0, -2.0, 0.3])
        np.testing.assert_array_equal(sgd_update(theta, bundle, 0.5), theta)

    def test_arithmetic(self):
        bundle = raw_bundle(np.array([[1.0, 0.0], [0.0, -1.0]]), np.array([1.0, 1.0]))
        np.testing.assert_allclose(
            sgd_update(np.array([1.0, 1.0]), bundle, 0.1), [0.8, 1.2], atol=1e-15
        )


class TestFullSr:
    def test_identity_covariance_reduces_to_sgd(self):
        rng = np.random.default_rng(0)
        q, _ = qr_orthonormalize(rng.standard_normal((12, 5)))
        o = q.T  # orthonormal rows: S = I
        l = rng.standard_normal(12)
        bundle = raw_bundle(o, l)
        theta = rng.standard_normal(5)
        np.testing.assert_allclose(
            full_sr_update(theta, bundle, 0.05, SrOptions("pseudo_inverse", 0.5)),
            sgd_update(theta, bundle, 0.05),
            atol=1e-12,
        )

    def test_pseudo_inverse_single_mode_limit(self):
        rng = np.random.default_rng(1)
        u, _ = qr_orthonormalize(rng.standard_normal((6, 2)))
        v, _ = qr_orthonormalize(rng.standard_normal((9, 2)))
        o = 2.0 * np.outer(u[:, 0], v[:, 0]) + 1.0 * np.outer(u[:, 1], v[:, 1])
        l = rng.standard_normal(9)
        bundle = raw_bundle(o, l)
        theta = np.zeros(6)
        got = full_sr_update(theta, bundle, 1.0, SrOptions("pseudo_inverse", 1.0))
        # Only the top eigenpair (lam = 4) survives the cutoff at tol = 1.
        expected = -u[:, 0] * (u[:, 0] @ bundle.gradient) / 4.0
        np.testing.assert_allclose(got - theta, expected, atol=1e-12)

    def test_pseudo_inverse_matches_scripted_svd_cutoff(self):
        rng = np.random.default_rng(2)
        o = rng.standard_normal((6, 12))
        bundle = raw_bundle(o, rng.standard_normal(12))
        theta = rng.standard_normal(6)
        tol = 0.05
        got = full_sr_update(theta, bundle, 0.3, SrOptions("pseudo_inverse", tol))

        s = s_matrix(bundle)
        u_s, sig, vt_s = np.linalg.svd(s)
        inv = np.array(
            [1.0 / x if abs(x) >= tol * abs(sig).max() else 0.0 for x in sig]
        )
        direction = u_s @ np.diag(inv) @ vt_s @ bundle.gradient
        np.testing.assert_allclose(got, theta - 0.3 * direction, atol=1e-10)

    def test_diagonal_shift_matches_dense_solve(self):
        rng = np.random.default_rng(3)
        bundle = raw_bundle(rng.standard_normal((4, 10)), rng.standard_normal(10))
        theta = np.zeros(4)
        eps = 0.07
        got = full_sr_update(theta, bundle, 1.0, SrOptions("diagonal_shift", eps))
        s = s_matrix(bundle)
        expected = -np.linalg.solve(s + eps * np.eye(4), bundle.gradient)
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_diagonal_scale_matches_dense_solve(self):
        rng = np.random.default_rng(4)
        bundle = raw_bundle(rng.standard_normal((4, 10)), rng.standard_normal(10))
        theta = np.zeros(4)
        eps = 0.2
        # read S first: the update scales bundle.o_matrix in place
        s = s_matrix(bundle)
        got = full_sr_update(theta, bundle, 1.0, SrOptions("diagonal_scale", eps))
        s_reg = s + eps * np.diag(np.diag(s))
        expected = -np.linalg.solve(s_reg, bundle.gradient)
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_rank_deficient_unshifted_raises(self):
        rng = np.random.default_rng(5)
        bundle = raw_bundle(rng.standard_normal((6, 3)), rng.standard_normal(3))
        with pytest.raises(NotPositiveDefinite, match=r"\(diagonal_shift, eps=0\)"):
            full_sr_update(np.zeros(6), bundle, 0.1, SrOptions("diagonal_shift", 0.0))

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="diagonal_shift"):
            SrOptions("ridge", 0.1)


def wide_bundle(seed, n_params=400, batch=60):
    """Assembled bundle with more parameters than samples, whose column
    scales decay from 1 to 1e-3, so sr takes its batch-sized dual."""
    rng = np.random.default_rng(seed)
    draws = SampleBatch(
        positions=np.zeros((batch, 0, 3)),
        local_energies=rng.normal(size=batch),
        theta_logderivs=rng.normal(size=(batch, n_params)) * np.logspace(0, -3, n_params),
    )
    return assemble(draws, clip_n_std=np.inf)


def dense_primal_direction(bundle, mode, eps):
    """The parameter-side step S_reg^-1 gradient, by numpy alone."""
    s = s_matrix(bundle)
    if mode == "pseudo_inverse":
        lam, vec = np.linalg.eigh(s)
        keep = np.abs(lam) >= eps * np.abs(lam).max()
        return vec[:, keep] @ ((vec[:, keep].T @ bundle.gradient) / lam[keep])
    shift = eps * (np.diag(np.diag(s)) if mode == "diagonal_scale" else np.eye(len(s)))
    return np.linalg.solve(s + shift, bundle.gradient)


class TestFullSrDual:
    """With more parameters than samples, sr solves through the batch x
    batch Gram O^T O and never forms S."""

    # Over seeds 0-9 at this shape, under 1 and 2 BLAS threads, the
    # relative errors reached 8.7e-14 (shift), 2.3e-12 (scale, whose
    # diagonal spans six decades) and 1.3e-14 (pseudo-inverse).
    @pytest.mark.parametrize("mode, rtol", [
        ("diagonal_shift", 2e-13), ("diagonal_scale", 5e-12), ("pseudo_inverse", 2e-13),
    ])
    def test_matches_dense_primal(self, mode, rtol):
        bundle = wide_bundle(seed=31)
        want = dense_primal_direction(bundle, mode, 1e-3)
        got = -full_sr_update(np.zeros(400), bundle, 1.0, SrOptions(mode, 1e-3))
        assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)

    def test_diagonal_shift_is_minsr(self):
        theta = np.random.default_rng(32).standard_normal(400)
        got = full_sr_update(theta, wide_bundle(seed=33), 0.1, SrOptions("diagonal_shift", 1e-3))
        want = minsr_update(theta, wide_bundle(seed=33), 0.1, MinsrOptions(1e-3))
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("mode", SR_REG_MODES)
    def test_holds_no_second_o(self, mode):
        # the step's own O is the one (n_params, batch) array: the diagonal
        # scale rescales it in place, and S (400 x 400) is never formed
        bundle = wide_bundle(seed=34)
        tracemalloc.start()
        try:
            full_sr_update(np.zeros(400), bundle, 0.1, SrOptions(mode, 1e-3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * bundle.o_matrix.nbytes

    @pytest.mark.parametrize("shape", [(6, 14), (40, 12)], ids=["tall", "wide"])
    def test_zero_row_fails_diagonal_scale(self, shape):
        # a dead parameter: D = diag(S) has a zero entry on either side
        rng = np.random.default_rng(35)
        o = rng.standard_normal(shape)
        o -= o.mean(axis=1, keepdims=True)
        o[2] = 0.0
        bundle = raw_bundle(o, rng.standard_normal(shape[1]))
        with pytest.raises(NotPositiveDefinite, match=r"\(diagonal_scale, eps=0\.001\)"):
            full_sr_update(np.zeros(shape[0]), bundle, 0.1, SrOptions("diagonal_scale", 1e-3))

    def test_unregularized_wide_diagonal_scale_raises(self):
        # S = O O^T has rank at most the batch, below the parameter count;
        # TestFullSr::test_rank_deficient_unshifted_raises covers the shift
        bundle = wide_bundle(seed=36)
        with pytest.raises(NotPositiveDefinite, match=r"\(diagonal_scale, eps=0\)"):
            full_sr_update(np.zeros(400), bundle, 0.1, SrOptions("diagonal_scale", 0.0))


class TestRegularizedSolve:
    """sr, minsr and spring regularize and factor the matrix they build in
    place, so a step holds one n x n array (plus a boolean finiteness
    mask of an eighth of its size)."""

    @pytest.mark.parametrize("update, n_params, batch", [
        (full_sr_update, 800, 16), (minsr_update, 16, 800), (full_sr_update, 800, 800),
    ], ids=["sr", "minsr", "sr-primal"])
    def test_peak_memory_is_one_matrix(self, update, n_params, batch):
        rng = np.random.default_rng(9)
        bundle = raw_bundle(rng.standard_normal((n_params, batch)), rng.standard_normal(batch))
        n = max(n_params, batch)
        tracemalloc.start()
        try:
            update(np.zeros(n_params), bundle, 0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * n * n * 8


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


class TestMinsr:
    def test_zero_residual_means_no_update(self):
        rng = np.random.default_rng(6)
        bundle = raw_bundle(rng.standard_normal((5, 8)), np.zeros(8))
        theta = rng.standard_normal(5)
        np.testing.assert_array_equal(minsr_update(theta, bundle, 0.2), theta)

    def test_dual_identity_on_full_rank_instance(self):
        rng = np.random.default_rng(7)
        o = rng.standard_normal((5, 10))  # rank 5: S invertible, T singular
        bundle = raw_bundle(o, rng.standard_normal(10))
        theta = rng.standard_normal(5)
        via_dual = minsr_update(theta, bundle, 0.4, MinsrOptions(tikhonov_eps=0.0))
        direction = np.linalg.solve(s_matrix(bundle), bundle.gradient)
        np.testing.assert_allclose(via_dual, theta - 0.4 * direction, atol=1e-10)

    def test_shifted_solve_matches_dense_oracle(self):
        rng = np.random.default_rng(8)
        o = rng.standard_normal((6, 9))
        l = rng.standard_normal(9)
        bundle = raw_bundle(o, l)
        eps = 0.01
        got = minsr_update(np.zeros(6), bundle, 1.0, MinsrOptions(tikhonov_eps=eps))
        x = np.linalg.solve(o.T @ o + eps * np.eye(9), l)
        np.testing.assert_allclose(got, -2.0 * (o @ x), atol=1e-10)

    def test_default_shift(self):
        assert MinsrOptions().tikhonov_eps == 0.001

    def test_negative_shift_rejected(self):
        with pytest.raises(ValueError):
            MinsrOptions(tikhonov_eps=-0.1)


class TestSpring:
    def test_zero_momentum_equals_minsr(self):
        bundle = centered_bundle(n_params=6, n_samples=11, seed=9)
        theta = np.random.default_rng(10).standard_normal(6)
        state = SpringState(np.zeros(6))
        got, _ = spring_update(theta, bundle, 0.15, state,
                               SpringOptions(mu=0.0, tikhonov_eps=0.001))
        want = minsr_update(theta, bundle, 0.15, MinsrOptions(tikhonov_eps=0.001))
        np.testing.assert_array_equal(got, want)

    def test_first_step_ignores_momentum_in_residual(self):
        bundle = centered_bundle(n_params=5, n_samples=9, seed=11)
        theta = np.zeros(5)
        state = SpringState(np.zeros(5))
        low, _ = spring_update(theta, bundle, 0.1, state, SpringOptions(mu=0.0))
        high, _ = spring_update(theta, bundle, 0.1, state, SpringOptions(mu=0.99))
        # prev_update = 0 makes the residual identical; mu scales only the
        # (zero) momentum term, so the first steps coincide.
        np.testing.assert_allclose(low, high, atol=1e-14)

    def test_state_carries_exact_parameter_delta(self):
        bundle = centered_bundle(n_params=4, n_samples=8, seed=12)
        theta = np.ones(4)
        state = SpringState(np.zeros(4))
        theta1, state1 = spring_update(theta, bundle, 0.05, state)
        # theta + delta - theta reassociates, so exactness is one ulp off
        np.testing.assert_allclose(state1.prev_update, theta1 - theta, atol=1e-15)
        theta2, state2 = spring_update(theta1, bundle, 0.05, state1)
        np.testing.assert_allclose(state2.prev_update, theta2 - theta1, atol=1e-15)

    def test_momentum_recursion_matches_hand_rollout(self):
        bundle = centered_bundle(n_params=4, n_samples=10, seed=13)
        o, l = bundle.o_matrix, bundle.l_vector
        n = o.shape[1]
        mu, eps, eta = 0.6, 0.01, 0.1
        # SPRING's 1/n in every entry: on a centred batch it leaves the step
        # unchanged, which this oracle shows by keeping it
        t_reg = o.T @ o + np.full((n, n), 1.0 / n) + eps * np.eye(n)

        prev = np.zeros(4)
        theta = np.zeros(4)
        state = SpringState(np.zeros(4))
        options = SpringOptions(mu=mu, tikhonov_eps=eps)
        for _ in range(3):
            ltilde = l - mu * (o.T @ prev)
            phi = -eta * 2.0 * (o @ np.linalg.solve(t_reg, ltilde))
            prev = phi + mu * prev
            theta_expect = theta + prev
            theta, state = spring_update(theta, bundle, eta, state, options)
            np.testing.assert_allclose(theta, theta_expect, atol=1e-10)

    def test_default_momentum(self):
        assert SpringOptions().mu == 0.99

    def test_validation(self):
        with pytest.raises(ValueError):
            SpringOptions(mu=1.0)
        with pytest.raises(ValueError):
            SpringOptions(tikhonov_eps=-1e-3)


class TestWssrState:
    def test_initial_shape(self):
        state = WssrState.initial(7, rank_init=4)
        assert state.u_prev.shape == (7, 0)
        assert state.sigma.shape == (0,)
        assert state.lbar.shape == (0,)
        assert state.obar.shape == (7, 0)
        assert state.r_max == 4

    def test_obar_is_the_product_of_the_kept_factors(self):
        rng = np.random.default_rng(13)
        o = rng.standard_normal((6, 10))
        state = WssrState.initial(6, rank_init=4)
        _, state, _ = wssr_step(np.zeros(6), raw_bundle(o, rng.standard_normal(10)),
                                0.01, state)
        assert state.sigma.shape == (state.u_prev.shape[1],)
        np.testing.assert_array_equal(state.obar, state.u_prev * state.sigma)

    def test_validation(self):
        with pytest.raises(ValueError):
            WssrOptions(delta=1.0)
        with pytest.raises(ValueError):
            WssrOptions(r_reg=0.0)
        with pytest.raises(ValueError):
            WssrOptions(sigma_floor=0.0)
        with pytest.raises(ValueError):
            WssrOptions(rank_init=0)
        with pytest.raises(ValueError):
            WssrState.initial(3, rank_init=0)

    def test_history_wider_than_the_rank_budget_is_refused(self):
        # wssr_step never carries more vectors than its next block holds
        u, _ = qr_orthonormalize(np.random.default_rng(12).standard_normal((6, 3)))
        with pytest.raises(ValueError, match="history rank 3 exceeds r_max 2"):
            WssrState(u_prev=u, sigma=np.ones(3), lbar=np.zeros(3), r_max=2)
        WssrState(u_prev=u, sigma=np.ones(3), lbar=np.zeros(3), r_max=3)


class TestWssrStep:
    def test_first_step_averages_current_batch_only(self):
        rng = np.random.default_rng(14)
        o = rng.standard_normal((5, 12))
        l = rng.standard_normal(12)
        bundle = raw_bundle(o, l)
        state = WssrState.initial(5, rank_init=5)
        _, state1, diag = wssr_step(np.zeros(5), bundle, 0.01, state, WssrOptions(delta=0.95))

        s_bar = state1.obar @ state1.obar.T
        np.testing.assert_allclose(s_bar, 0.05 * (o @ o.T), atol=1e-10)
        g_bar = state1.obar @ state1.lbar
        np.testing.assert_allclose(g_bar, 0.05 * (o @ l), atol=1e-10)
        assert diag.ssi_iterations == 0
        assert diag.sigma_drift == 0.0 and diag.projector_drift == 0.0

    def test_tall_bundle_peak_memory(self):
        """ohat is built in place and the factors' temporaries are dropped.
        The exact first step holds ohat and its left factor. The warm step
        holds ohat, the start block, the iterate and the QR's copy and
        output, each half of ohat's width."""
        m, batch = 4000, 64
        rng = np.random.default_rng(16)
        state = WssrState.initial(m, rank_init=batch)
        theta = np.zeros(m)
        for step, bound in enumerate((2.25, 3.5)):
            bundle = raw_bundle(rng.standard_normal((m, batch)), rng.standard_normal(batch))
            ohat_bytes = 8 * m * (state.u_prev.shape[1] + batch)
            tracemalloc.start()
            try:
                theta, state, diag = wssr_step(theta, bundle, 0.01, state)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert diag.ssi_iterations == (0 if step == 0 else SSI_MAX_ITERS)
            assert peak <= bound * ohat_bytes, f"step {step}: {peak / ohat_bytes:.2f} x ohat"

    def test_three_step_recursion_matches_reference_averaging(self):
        rng = np.random.default_rng(15)
        delta = 0.7
        state = WssrState.initial(5, rank_init=5)
        options = WssrOptions(delta=delta, r_reg=1e-30)
        theta = np.zeros(5)
        s_ref = np.zeros((5, 5))
        g_ref = np.zeros(5)
        for seed in (20, 21, 22):
            step_rng = np.random.default_rng(seed)
            o = step_rng.standard_normal((5, 12))
            l = step_rng.standard_normal(12)
            theta, state, _ = wssr_step(theta, raw_bundle(o, l), 0.01, state, options)
            s_ref = delta * s_ref + (1.0 - delta) * (o @ o.T)
            g_ref = delta * g_ref + (1.0 - delta) * (o @ l)
        np.testing.assert_allclose(state.obar @ state.obar.T, s_ref, atol=1e-10)
        np.testing.assert_allclose(state.obar @ state.lbar, g_ref, atol=1e-10)

    def test_full_rank_update_matches_pseudo_inverse_oracle(self):
        rng = np.random.default_rng(16)
        o = rng.standard_normal((5, 12))  # rank 5 = parameter count
        l = rng.standard_normal(12)
        theta = rng.standard_normal(5)
        state = WssrState.initial(5, rank_init=5)
        got, _, diag = wssr_step(theta, raw_bundle(o, l), 0.2, state, WssrOptions(delta=0.0))
        assert diag.effective_rank == 5

        # At full rank the complement branch vanishes and the step is the
        # pseudo-inverse of the covariance applied to o @ l; a bundle with
        # halved residuals gives full_sr exactly that gradient.
        halved = raw_bundle(o, l / 2.0)
        want = full_sr_update(theta, halved, 0.2, SrOptions("pseudo_inverse", 1e-12))
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_complement_branch_scales_by_floor(self):
        o = np.array([
            [5.0, -5.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, -1.0],
        ])
        l = np.array([0.0, 0.0, 0.5, -0.5])  # o @ l = (0, 1): orthogonal to u1
        theta = np.zeros(2)
        state = WssrState.initial(2, rank_init=2)
        options = WssrOptions(delta=0.0, r_reg=0.1, sigma_floor=1e-3)
        got, _, diag = wssr_step(theta, raw_bundle(o, l), 0.01, state, options)
        assert diag.effective_rank == 1  # s^2 = (50, 2), cutoff at 5
        np.testing.assert_allclose(
            got, -0.01 * np.array([0.0, 1.0]) / 1e-3, atol=1e-10
        )

    def test_preconditioner_spectrum_and_descent(self):
        rng = np.random.default_rng(17)
        for trial in range(10):
            m = 6
            o = rng.standard_normal((m, 14))
            l = rng.standard_normal(14)
            state = WssrState.initial(m, rank_init=4)
            options = WssrOptions(r_reg=1e-3)
            theta = np.zeros(m)
            theta1, state1, diag = wssr_step(theta, raw_bundle(o, l), 1.0, state, options)

            u = state1.u_prev
            sig = state1.sigma
            floor = options.sigma_floor
            p = u @ np.diag(sig**-2) @ u.T + (np.eye(m) - u @ u.T) / floor
            eigs = np.linalg.eigvalsh(p)
            lo = min(1.0 / floor, sig[0] ** -2)
            hi = max(1.0 / floor, sig[-1] ** -2)
            assert eigs.min() >= lo * (1 - 1e-9)
            assert eigs.max() <= hi * (1 + 1e-9)

            g_bar = 0.05 * (o @ l)  # empty history at step 0
            update = (theta - theta1) / 1.0
            assert update @ g_bar > 0.0

    def test_rank_grows_only_when_binding_and_caps_at_params(self):
        rng = np.random.default_rng(18)
        state = WssrState.initial(8, rank_init=2)
        options = WssrOptions(r_reg=1e-6, eps_grow=0.5)
        theta = np.zeros(8)
        seen = [state.r_max]
        for _ in range(6):
            bundle = raw_bundle(rng.standard_normal((8, 12)), rng.standard_normal(12))
            theta, state, diag = wssr_step(theta, bundle, 0.01, state, options)
            assert diag.effective_rank >= 1
            assert state.r_max >= seen[-1]
            if state.r_max > seen[-1]:
                # growth only fires when the cut was binding at r_max
                assert diag.effective_rank == diag.r_max == seen[-1]
            seen.append(state.r_max)
        assert seen == [2, 3, 5, 8, 8, 8, 8]  # ceil(1.5 r), capped at 8 params

    def test_largest_finite_growth_caps_at_params(self):
        # (1 + eps_grow) * r_max overflows to inf; the cap applies first.
        rng = np.random.default_rng(18)
        state = WssrState.initial(8, rank_init=2)
        bundle = raw_bundle(rng.standard_normal((8, 12)), rng.standard_normal(12))
        _, state, _ = wssr_step(np.zeros(8), bundle, 0.01, state,
                                WssrOptions(r_reg=1e-6, eps_grow=1e308))
        assert state.r_max == 8

    def test_truncation_blocks_growth(self):
        # Rank-1 data: the second singular value never passes the cutoff,
        # so r_max must stay put.
        rng = np.random.default_rng(19)
        u = rng.standard_normal(6)
        state = WssrState.initial(6, rank_init=2)
        theta = np.zeros(6)
        for _ in range(3):
            o = np.outer(u, rng.standard_normal(9))
            o += 1e-9 * rng.standard_normal(o.shape)
            theta, state, diag = wssr_step(theta, raw_bundle(o, rng.standard_normal(9)),
                                           0.01, state, WssrOptions(r_reg=1e-6))
            assert diag.effective_rank == 1
        assert state.r_max == 2

    def test_warm_start_engages_after_first_step(self):
        rng = np.random.default_rng(20)
        state = WssrState.initial(6, rank_init=3)
        theta = np.zeros(6)
        bundle = raw_bundle(rng.standard_normal((6, 10)), rng.standard_normal(10))
        theta, state, diag0 = wssr_step(theta, bundle, 0.01, state)
        assert diag0.ssi_iterations == 0
        bundle2 = raw_bundle(rng.standard_normal((6, 10)), rng.standard_normal(10))
        _, _, diag1 = wssr_step(theta, bundle2, 0.01, state)
        assert diag1.ssi_iterations >= 1

    def test_widened_warm_block_goes_to_ssi_unorthonormalized(self, monkeypatch):
        # criterion 9's shape: random data keeps the rank cut binding, so
        # r_max grows from 64 to 71 and step 2's block is u_prev (64
        # columns) followed by 7 Gaussian columns seeded for step 1.
        # ssi_svd's own QR is the block's only orthonormalization.
        def refuse(a):
            raise AssertionError(f"qr_orthonormalize called on {a.shape} outside ssi_svd")

        blocks = []

        def spy(ohat, rank, **kwargs):
            blocks.append((rank, kwargs["u_init"]))
            return ssi_svd(ohat, rank, **kwargs)

        monkeypatch.setattr(optimizers, "qr_orthonormalize", refuse)
        monkeypatch.setattr(optimizers, "ssi_svd", spy)
        rng = np.random.default_rng(24)
        m, n = 544, 96
        state = WssrState.initial(m, rank_init=64)
        theta, state, _ = wssr_step(
            np.zeros(m), raw_bundle(rng.standard_normal((m, n)), rng.standard_normal(n)),
            0.01, state, rng_seed=5)
        assert state.u_prev.shape == (m, 64) and state.r_max == 71

        bundle = raw_bundle(rng.standard_normal((m, n)), rng.standard_normal(n))
        _, state2, diag = wssr_step(theta, bundle, 0.01, state, rng_seed=5, step=1)
        assert diag.ssi_iterations >= 1 and diag.r_max == 71
        [(rank, block)] = blocks
        extra = np.random.default_rng(optimizers._per_step_seed(5, 1)).standard_normal((m, 7))
        assert rank == 71
        np.testing.assert_array_equal(block, np.concatenate([state.u_prev, extra], axis=1))
        u = state2.u_prev
        np.testing.assert_allclose(u.T @ u, np.eye(u.shape[1]), atol=1e-12)

    @pytest.mark.parametrize("sketch", [False, True], ids=["wssr", "rssr"])
    def test_full_space_block_takes_the_gram_route(self, monkeypatch, sketch):
        # with rank_init = m every block is the whole row space, where
        # subspace iteration can only reproduce the exact factors
        rng = np.random.default_rng(21)
        m, n = 6, 10
        theta = np.zeros(m)
        state = WssrState.initial(m, rank_init=m)
        bundle = raw_bundle(rng.standard_normal((m, n)), rng.standard_normal(n))
        theta, state, _ = wssr_step(theta, bundle, 0.01, state, sketch=sketch)
        bundle2 = raw_bundle(rng.standard_normal((m, n)), rng.standard_normal(n))

        calls = []

        def spy(ohat, rank):
            calls.append((ohat.shape, rank))
            return gram_svd(ohat, rank)

        monkeypatch.setattr(optimizers, "gram_svd", spy)
        got, _, diag = wssr_step(theta, bundle2, 0.01, state, sketch=sketch)
        assert calls == [((m, state.sigma.size + n), m)]
        assert diag.ssi_iterations == 0

        # the subspace-iteration update on the same full-width block
        monkeypatch.setattr(optimizers, "gram_svd", lambda ohat, rank: ssi_svd(
            ohat, rank, max_iters=SSI_MAX_ITERS, residual_tol=SSI_RESIDUAL_TOL)[0])
        want, _, _ = wssr_step(theta, bundle2, 0.01, state, sketch=sketch)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("sketch", [False, True], ids=["wssr", "rssr"])
    def test_block_narrower_than_the_row_space_skips_the_gram_route(
            self, monkeypatch, sketch):
        # criterion 9's shape: 544 parameters, rank_init 64, 96 samples.
        # Step 1 takes the Gram route on its (544, 96) stack; later steps
        # iterate (wssr) or make one Gaussian pass (rssr), and no step takes
        # a dense SVD.
        calls = []

        def spy(ohat, rank):
            calls.append((ohat.shape, rank))
            return gram_svd(ohat, rank)

        def refuse(ohat, rank):
            raise AssertionError(f"exact_truncated_svd called on {ohat.shape}")

        monkeypatch.setattr(optimizers, "gram_svd", spy)
        monkeypatch.setattr(optimizers, "exact_truncated_svd", refuse)
        rng = np.random.default_rng(22)
        m, n = 544, 96
        theta = np.zeros(m)
        state = WssrState.initial(m, rank_init=64)
        iterations = []
        for _ in range(4):
            bundle = raw_bundle(rng.standard_normal((m, n)), rng.standard_normal(n))
            theta, state, diag = wssr_step(theta, bundle, 0.01, state, sketch=sketch)
            iterations.append(diag.ssi_iterations)
        assert state.r_max < m
        assert calls == [((m, n), 64)]
        assert iterations[0] == 0
        assert all((i == 1) if sketch else (i >= 1) for i in iterations[1:])

    @pytest.mark.parametrize("sketch", [False, True], ids=["wssr", "rssr"])
    def test_later_steps_make_one_ssi_call_from_their_start_block(
            self, monkeypatch, sketch):
        # criterion 9's shape: after the exact step 1, each step calls
        # ssi_svd once. wssr passes u_prev widened by the step's Gaussian
        # columns with the full budget; rssr passes the step's Gaussian
        # columns alone, oversampled, with a budget of one pass.
        calls = []

        def spy(ohat, rank, **kwargs):
            calls.append((rank, kwargs))
            return ssi_svd(ohat, rank, **kwargs)

        monkeypatch.setattr(optimizers, "ssi_svd", spy)
        rng = np.random.default_rng(25)
        m, n, seed = 544, 96, 7
        theta = np.zeros(m)
        state = WssrState.initial(m, rank_init=64)
        for step in range(4):
            bundle = raw_bundle(rng.standard_normal((m, n)), rng.standard_normal(n))
            prev = state
            theta, state, _ = wssr_step(
                theta, bundle, 0.01, state, rng_seed=seed, step=step, sketch=sketch)
            if step == 0:
                assert calls == []
                continue
            [(rank, kwargs)] = calls
            calls.clear()
            block = kwargs["u_init"]
            assert rank == prev.r_max
            if sketch:
                assert kwargs["max_iters"] == 1
                draw = np.random.default_rng(optimizers._per_step_seed(seed, step))
                np.testing.assert_array_equal(
                    block, draw.standard_normal((m, rank + optimizers.SKETCH_OVERSAMPLE)))
            else:
                assert kwargs["max_iters"] == SSI_MAX_ITERS and block.shape == (m, rank)
                np.testing.assert_array_equal(block[:, :prev.u_prev.shape[1]], prev.u_prev)


@pytest.mark.slow
def test_warm_route_at_run_scale(tmp_path, monkeypatch):
    """He with the p shell (840 parameters) at the wssr defaults, 2048
    walkers: every step after the first runs the warm subspace iteration
    on a block narrower than the row space, and the kept singular values
    match the exact factors of the same stack. Measured with OpenBLAS: 2
    iterations a step, r_eff 223-226 under an r_max of 400, the kept
    values within 4.1e-12 of gram_svd's (relative) under 2 threads and
    3.8e-12 under 1. The bound of 1e-9 leaves a margin of about 250x,
    and gram_svd itself agrees with a dense SVD to about 1e-10."""
    calls = []

    def spy(ohat, rank, **kwargs):
        factors, iterations = ssi_svd(ohat, rank, **kwargs)
        calls.append((ohat, rank, factors.sigma))
        return factors, iterations

    monkeypatch.setattr(optimizers, "ssi_svd", spy)
    config = parse_config_text(
        "[system]\npreset = he\n[wavefunction]\nell_max = 1\n[sampler]\nburn_in = 100\n"
        f"[run]\nsteps = 5\nseed = 1\nout_dir = {tmp_path}\n"
    )
    result = run(config)
    assert result.exit_code == 0
    rows = result.records[1:]
    assert len(calls) == len(rows) == 4
    assert all(row.ssi_iterations >= 1 for row in rows)
    errors = []
    for (ohat, rank, sigma), row in zip(calls, rows):
        r_eff = row.effective_rank
        assert r_eff < rank < ohat.shape[0]
        exact = gram_svd(ohat, rank).sigma[:r_eff]
        errors.append(float(np.max(np.abs(sigma[:r_eff] - exact) / exact)))
    print(f"warm route, steps 2-5: {np.mean([r.ssi_iterations for r in rows]):.2f} "
          f"SSI iterations a step, r_eff {[r.effective_rank for r in rows]} under r_max "
          f"{[r.r_max for r in rows]}, kept sigma within {max(errors):.1e} of gram_svd "
          f"(relative); sigma drift {[f'{r.sigma_drift:.2e}' for r in rows]}, "
          f"projector drift {[f'{r.projector_drift:.2e}' for r in rows]}")
    assert max(errors) < 1e-9


def shared_left_space_bundle(w, diag_values, n, seed):
    """Batch whose log-derivative matrix has exactly the left range of w."""
    rng = np.random.default_rng(seed)
    z, _ = qr_orthonormalize(rng.standard_normal((n, len(diag_values))))
    o = w @ (np.diag(diag_values) @ z.T)
    return raw_bundle(o, 0.1 * rng.standard_normal(n))


class TestRssr:
    def test_matches_warm_start_path_on_exact_low_rank(self):
        rng = np.random.default_rng(21)
        w, _ = qr_orthonormalize(rng.standard_normal((12, 3)))
        b1 = shared_left_space_bundle(w, [4.0, 2.0, 1.0], 9, seed=30)
        b2 = shared_left_space_bundle(w, [3.5, 2.2, 0.9], 9, seed=31)
        state = WssrState.initial(12, rank_init=3)
        options = WssrOptions(delta=0.6)
        theta, state, _ = wssr_step(np.zeros(12), b1, 0.01, state, options)

        t_ssi, _, diag_ssi = wssr_step(theta, b2, 0.01, state, options)
        t_rnd, _, diag_rnd = wssr_step(theta, b2, 0.01, state, options, sketch=True)
        np.testing.assert_allclose(t_ssi, t_rnd, atol=1e-8)
        assert diag_ssi.ssi_iterations >= 1 and diag_rnd.ssi_iterations == 1

    def test_seed_determinism(self):
        rng = np.random.default_rng(22)
        bundles = [
            raw_bundle(rng.standard_normal((7, 10)), rng.standard_normal(10))
            for _ in range(3)
        ]

        def rollout(seed):
            theta = np.zeros(7)
            state = WssrState.initial(7, rank_init=3)
            for b in bundles:
                theta, state, _ = wssr_step(
                    theta, b, 0.01, state, rng_seed=seed, sketch=True)
            return theta

        np.testing.assert_array_equal(rollout(5), rollout(5))
        assert not np.array_equal(rollout(5), rollout(6))

    def test_sketch_error_within_tail_bound(self):
        rng = np.random.default_rng(23)
        m, n, r = 10, 8, 2
        w, _ = qr_orthonormalize(rng.standard_normal((m, r)))
        state = WssrState(
            u_prev=w.copy(),
            sigma=np.array([6.0, 3.0]),
            lbar=rng.standard_normal(r),
            r_max=r,
        )
        z, _ = qr_orthonormalize(rng.standard_normal((n, r)))
        o = w @ (np.diag([5.0, 2.5]) @ z.T) + 1e-5 * rng.standard_normal((m, n))
        bundle = raw_bundle(o, 0.2 * rng.standard_normal(n))
        theta = np.zeros(m)
        eta = 0.01

        # the same history under r_max = m takes the exact (Gram) route,
        # and its cut keeps the same r modes
        options = WssrOptions(delta=0.5)
        t_exact, _, diag = wssr_step(
            theta, bundle, eta, dataclasses.replace(state, r_max=m), options)
        assert diag.effective_rank == r
        ohat = np.concatenate(
            [math.sqrt(0.5) * state.obar, math.sqrt(0.5) * o], axis=1
        )
        lhat = np.concatenate(
            [math.sqrt(0.5) * state.lbar, math.sqrt(0.5) * bundle.l_vector]
        )
        tail = np.linalg.svd(ohat, compute_uv=False)[r]
        bound = 10.0 * tail * eta / options.sigma_floor * max(1.0, np.linalg.norm(lhat))
        for seed in range(20):
            t_sketch, _, _ = wssr_step(
                theta, bundle, eta, state, options, rng_seed=seed, sketch=True)
            assert np.linalg.norm(t_sketch - t_exact) <= bound


# Runs `vmcsr --help`, then each rule named on the command line on a tiny
# He config, all in this one fresh interpreter. Prints the exit codes, the
# scipy modules loaded at the end and, as of the first
# WalkerEnsemble.create, whether scipy.linalg was loaded and each loaded
# OpenBLAS's thread count ({get-symbol: count}).
LOAD_CONTRACT = """
import contextlib, ctypes, io, json, sys
import vmcsr.cli
from vmcsr.sampler import WalkerEnsemble

def threads():
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    counts = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        if hasattr(lib, "scipy_openblas_set_num_threads"):
            counts["settable"] = True
        for symbol in ("scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            if hasattr(lib, symbol):
                counts[symbol] = getattr(lib, symbol)()
    return counts

at_create = {}
create = WalkerEnsemble.__dict__["create"].__func__

def create_and_note(cls, *args, **kwargs):
    if not at_create:
        at_create.update(linalg="scipy.linalg" in sys.modules, threads=threads())
    return create(cls, *args, **kwargs)

WalkerEnsemble.create = classmethod(create_and_note)
config, out, rules = sys.argv[1], sys.argv[2], sys.argv[3:]
with contextlib.redirect_stdout(io.StringIO()):
    with contextlib.suppress(SystemExit):
        vmcsr.cli.main(["--help"])
    codes = [vmcsr.cli.main(["run", "--config", config, "--optimizer", rule,
                             "--out", f"{out}/{rule}"]) for rule in rules]
scipy = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
print(json.dumps({"codes": codes, "scipy": scipy, "at_create": at_create}))
"""

TINY_HE_RUN = """
[system]
preset = he

[wavefunction]
ell_max = 0

[sampler]
walkers = 16
burn_in = 5
thinning = 1

[run]
steps = 2
seed = 3
"""


def run_rules_in_fresh_interpreter(tmp_path, *rules):
    """The LOAD_CONTRACT report of running rules, under 2 BLAS threads."""
    config = tmp_path / "run.ini"
    config.write_text(TINY_HE_RUN, encoding="utf-8")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", LOAD_CONTRACT, str(config), str(tmp_path), *rules],
        env=env, capture_output=True, text=True, check=False,
    )
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout)
    assert report["codes"] == [0] * len(rules)
    return report


NUMPY_LIB = "/site/numpy.libs/libscipy_openblas64_-aaaa.so"
SCIPY_LIB = "/site/scipy.libs/libscipy_openblas-bbbb.so"


class _FakeLibrary:
    """A loaded library whose thread setters record their calls."""

    def __init__(self, path, symbols, calls):
        for symbol in symbols:
            def setter(*args, symbol=symbol):
                calls.append((path, symbol, args))
            setattr(self, symbol, setter)


class TestScipyThreadPin:
    def test_lean_rules_and_help_never_load_scipy(self, tmp_path):
        report = run_rules_in_fresh_interpreter(tmp_path, "wssr", "rssr", "sgd")
        assert report["scipy"] == []

    def test_dense_rule_pins_scipy_pool_before_walkers_and_leaves_numpys(self, tmp_path):
        report = run_rules_in_fresh_interpreter(tmp_path, "minsr")
        at_create = report["at_create"]
        assert at_create["linalg"]
        threads = at_create["threads"]
        if not threads.get("settable"):
            pytest.skip("no loaded OpenBLAS exports scipy_openblas_set_num_threads")
        if "scipy_openblas_get_num_threads64_" not in threads:
            pytest.skip("numpy's OpenBLAS is not the scipy-openblas64 wheel library")
        assert threads["scipy_openblas_get_num_threads"] == 1
        pool = min(2, len(os.sched_getaffinity(0)))
        assert threads["scipy_openblas_get_num_threads64_"] == pool

    @staticmethod
    def _pin(tmp_path, monkeypatch, libraries):
        """Run the helper over a map listing `libraries` ({path: symbols});
        return the setter calls it made."""
        maps = tmp_path / "maps"
        maps.write_text(
            "".join(
                f"7f00{i:04x}000-7f00{i:04x}fff r-xp 00000000 08:01 {i} {path}\n"
                for i, path in enumerate(libraries)
            )
            + "7ffd0000-7ffd1000 rw-p 00000000 00:00 0 \n"
        )
        calls = []
        fakes = {path: _FakeLibrary(path, symbols, calls) for path, symbols in libraries.items()}
        monkeypatch.setattr(ctypes, "CDLL", lambda path: fakes[path])
        optimizers._single_thread_scipy_lapack(str(maps))
        return calls

    def test_calls_only_scipys_own_setter_once(self, tmp_path, monkeypatch):
        every_setter = (
            "scipy_openblas_set_num_threads",
            "scipy_openblas_set_num_threads64_",
            "openblas_set_num_threads",
            "openblas_set_num_threads64_",
        )
        calls = self._pin(tmp_path, monkeypatch, {
            NUMPY_LIB: every_setter[1:],
            SCIPY_LIB: every_setter,
        })
        assert calls == [(SCIPY_LIB, "scipy_openblas_set_num_threads", (1,))]

    def test_library_without_the_symbol_is_left_alone(self, tmp_path, monkeypatch):
        calls = self._pin(tmp_path, monkeypatch, {
            NUMPY_LIB: ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads"),
        })
        assert calls == []

    def test_failing_cdll_and_unreadable_map_are_left_alone(self, tmp_path, monkeypatch):
        def refuse(path):
            raise OSError(f"cannot load {path}")

        maps = tmp_path / "maps"
        maps.write_text(f"7f0000000-7f0000fff r-xp 00000000 08:01 1 {SCIPY_LIB}\n")
        monkeypatch.setattr(ctypes, "CDLL", refuse)
        optimizers._single_thread_scipy_lapack(str(maps))
        optimizers._single_thread_scipy_lapack(str(tmp_path / "missing"))

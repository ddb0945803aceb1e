"""Update rules: reduction identities, low-rank averaging, rank adaptation."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from vmcsr.errors import NotPositiveDefinite
from vmcsr.estimators import EstimatorBundle, SampleBatch, assemble, s_matrix
from vmcsr.linalg import qr_orthonormalize
from vmcsr.optimizers import (
    LearningRateSchedule,
    MinsrOptions,
    SpringOptions,
    SpringState,
    SrOptions,
    WssrOptions,
    WssrState,
    full_sr_update,
    minsr_update,
    sgd_update,
    spring_update,
    wssr_step,
)


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
    def test_pinned_values(self):
        sched = LearningRateSchedule()
        assert sched.eta(0) == 0.015
        assert sched.eta(1000) == 0.0075
        assert sched.eta(3000) == 0.00375

    def test_strictly_decreasing(self):
        sched = LearningRateSchedule(alpha=0.3, beta=77.0)
        values = [sched.eta(k) for k in range(0, 500, 7)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_matches_formula(self):
        sched = LearningRateSchedule(alpha=0.11, beta=13.0)
        for k in (0, 1, 5, 999):
            assert sched.eta(k) == 0.11 / (1.0 + k / 13.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            LearningRateSchedule(alpha=0.0)
        with pytest.raises(ValueError):
            LearningRateSchedule(beta=-1.0)
        with pytest.raises(ValueError):
            LearningRateSchedule().eta(-1)


@pytest.mark.parametrize(
    "cls", [LearningRateSchedule, SrOptions, MinsrOptions, SpringOptions, WssrOptions]
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
        got = full_sr_update(theta, bundle, 1.0, SrOptions("diagonal_scale", eps))
        s = s_matrix(bundle)
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


class TestRegularizedSolve:
    """sr, minsr and spring regularize and factor the matrix they build in
    place, so a step holds one n x n array (plus a boolean finiteness
    mask of an eighth of its size)."""

    @pytest.mark.parametrize("update, n_params, batch", [
        (full_sr_update, 800, 16), (minsr_update, 16, 800),
    ], ids=["sr", "minsr"])
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
        np.testing.assert_allclose(got, want, atol=1e-12)

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
        n = bundle.batch_size
        mu, eps, eta = 0.6, 0.01, 0.1
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
        assert state.r_max == 4 and state.step == 0

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
        assert diag_ssi.ssi_iterations >= 1 and diag_rnd.ssi_iterations == 0

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
            step=1,
        )
        z, _ = qr_orthonormalize(rng.standard_normal((n, r)))
        o = w @ (np.diag([5.0, 2.5]) @ z.T) + 1e-5 * rng.standard_normal((m, n))
        bundle = raw_bundle(o, 0.2 * rng.standard_normal(n))
        theta = np.zeros(m)
        eta = 0.01

        # the same history at step 0 takes the dense route
        options = WssrOptions(delta=0.5)
        t_exact, _, _ = wssr_step(
            theta, bundle, eta, dataclasses.replace(state, step=0), options)
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

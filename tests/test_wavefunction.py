"""Blocked coefficients, determinant amplitudes, Jastrow, and derivatives."""

import itertools

import numpy as np
import pytest

import vmcsr.wavefunction
from vmcsr.errors import NodeProximity
from vmcsr.system import SPIN_DOWN, SPIN_UP, MolecularSystem, preset_system
from vmcsr.wavefunction import (
    DEFAULT_FD_STEP,
    AceWavefunction,
    OneBodyBasisSpec,
    SlaterOrbital,
    build_tuple_index,
    default_basis,
    fd_gradient_and_laplacian,
    initial_theta,
    jastrow_log_batch,
    orbital_values,
)


def single_nucleus_system(charge, n_up, n_down):
    return MolecularSystem(
        nuclear_charges=(charge,),
        nuclear_positions=np.zeros((1, 3)),
        n_up=n_up,
        n_down=n_down,
    )


def brute_force_features(wf, positions):
    """Loop oracle for the pooled features of one configuration.

    Column (head, tail) of row i, head-major with tails by length and then
    lexicographic, is phi_head(r_i) times, per tail orbital, the sum of
    that orbital over the electrons j != i. theta weights these columns:
    M = features @ theta.reshape(N, -1).T.
    """
    phi = orbital_values(
        wf.basis, wf.system.nuclear_positions, positions[None], wf.system.spins
    )[0]
    n, n_orb = phi.shape
    index = [
        (head, tail)
        for head in range(n_orb)
        for length in range(wf.correlation_order)
        for tail in itertools.combinations_with_replacement(range(n_orb), length)
    ]
    out = np.zeros((n, len(index)))
    for i in range(n):
        for slot, (head, tail) in enumerate(index):
            value = phi[i, head]
            for orb in tail:
                value *= sum(phi[j, orb] for j in range(n) if j != i)
            out[i, slot] = value
    return out


def two_nucleus_system():
    return MolecularSystem(
        nuclear_charges=(3, 1),
        nuclear_positions=np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 3.0]]),
        n_up=2,
        n_down=2,
    )


def brute_force_jastrow(positions, spins):
    total = 0.0
    n = len(positions)
    for i in range(n):
        for j in range(i + 1, n):
            coeff = 0.25 if spins[i] == spins[j] else 0.5
            total -= coeff / (1.0 + np.linalg.norm(positions[i] - positions[j]))
    return total


def block_permutations(n_up, n_down):
    for p_up in itertools.permutations(range(n_up)):
        for p_down in itertools.permutations(range(n_up, n_up + n_down)):
            yield np.array(p_up + p_down)


def permutation_parity(perm):
    perm = list(perm)
    visited = [False] * len(perm)
    sign = 1
    for start in range(len(perm)):
        if visited[start]:
            continue
        length = 0
        j = start
        while not visited[j]:
            visited[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


class TestTupleIndex:
    def test_pair_order_count(self):
        system = single_nucleus_system(2, 1, 1)
        basis = default_basis(system, radial_powers=(0,), ell_max=0)
        n_orb = len(basis)
        tails = build_tuple_index(basis, correlation_order=2)
        assert len(tails) == 1 + n_orb
        wf = AceWavefunction(system=system, basis=basis, correlation_order=2)
        assert wf.n_params == 2 * n_orb * (1 + n_orb)

    def test_order_one_is_heads_only(self):
        basis = default_basis(single_nucleus_system(2, 1, 1), radial_powers=(0, 1), ell_max=1)
        assert build_tuple_index(basis, correlation_order=1) == ((),)

    def test_tails_are_sorted_multisets(self):
        basis = default_basis(single_nucleus_system(3, 2, 1), radial_powers=(0,), ell_max=0)
        tails = build_tuple_index(basis, correlation_order=3)
        assert tails[0] == ()
        assert [len(tail) for tail in tails] == sorted(len(tail) for tail in tails)
        for tail in tails:
            assert tuple(sorted(tail)) == tail
        assert len(set(tails)) == len(tails)


ORACLE_CASES = {
    "order1-p": (lambda: single_nucleus_system(3, 2, 1), (0, 1), 1, 1),
    "order3-p": (lambda: single_nucleus_system(3, 2, 1), (0,), 1, 3),
    "order2-p-two-nuclei": (two_nucleus_system, (0, 1), 1, 2),
    "order3-s-two-nuclei": (two_nucleus_system, (0,), 0, 3),
}


class TestPooledFeatures:
    """The blocked contraction against the literal feature oracle."""

    def test_order_one_reduces_to_orbitals(self):
        system = single_nucleus_system(2, 1, 1)
        basis = default_basis(system, radial_powers=(0,), ell_max=0)
        wf = AceWavefunction(system=system, basis=basis, correlation_order=1)
        rng = np.random.default_rng(1)
        positions = rng.normal(size=(2, 3))
        phi = orbital_values(basis, system.nuclear_positions, positions[None], system.spins)[0]
        matrix, _, tails = wf.orbital_matrix_batch(positions[None])
        np.testing.assert_array_equal(tails[0], np.ones((2, 1)))
        np.testing.assert_allclose(matrix[0], phi @ wf.coefficients[:, :, 0].T, rtol=1e-14)

    def test_two_electron_single_orbital_product(self):
        system = single_nucleus_system(2, 2, 0)
        basis = OneBodyBasisSpec(orbitals=(SlaterOrbital(0, 0, 0, 0, 1.0, "either"),))
        # A[k, 0, :] = (a_k, b_k) over the tails () and (0,)
        wf = AceWavefunction(system=system, basis=basis, correlation_order=2,
                             theta=np.array([1.0, 2.0, 3.0, 5.0]))
        rng = np.random.default_rng(2)
        positions = rng.normal(size=(2, 3))
        f = np.exp(-np.linalg.norm(positions, axis=1))
        matrix = wf.orbital_matrix_batch(positions[None])[0][0]
        assert matrix[0, 0] == pytest.approx(f[0] * (1.0 + 2.0 * f[1]), rel=1e-14)
        assert matrix[0, 1] == pytest.approx(f[0] * (3.0 + 5.0 * f[1]), rel=1e-14)
        assert matrix[1, 1] == pytest.approx(f[1] * (3.0 + 5.0 * f[0]), rel=1e-14)

    def test_three_electron_brute_force(self):
        system = single_nucleus_system(3, 2, 1)
        basis = default_basis(system, radial_powers=(0, 1), ell_max=1)
        wf = AceWavefunction(system=system, basis=basis, correlation_order=2)
        rng = np.random.default_rng(3)
        positions = rng.normal(size=(3, 3))
        oracle = brute_force_features(wf, positions) @ wf.theta.reshape(3, -1).T
        ours = wf.orbital_matrix_batch(positions[None])[0][0]
        np.testing.assert_allclose(ours, oracle, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_matches_literal_feature_oracle(self, case):
        """M, log|psi| and d log|psi| / d theta from the literal features,
        to 1e-10 relative (the contraction only reorders the sums)."""
        make_system, radial_powers, ell_max, order = ORACLE_CASES[case]
        system = make_system()
        basis = default_basis(system, radial_powers=radial_powers, ell_max=ell_max)
        wf = AceWavefunction(system=system, basis=basis, correlation_order=order)
        rng = np.random.default_rng(15)
        wf.set_theta(wf.theta + 0.05 * rng.standard_normal(wf.n_params))
        n = system.n_electrons
        centers = system.nuclear_positions[np.arange(n) % len(system.nuclear_charges)]
        positions = centers + rng.normal(size=(3, n, 3))

        matrix, _, _ = wf.orbital_matrix_batch(positions)
        log_abs = wf.log_abs_batch(positions)
        grad = wf.grad_theta_batch(positions)
        for w in range(positions.shape[0]):
            feats = brute_force_features(wf, positions[w])
            oracle_matrix = feats @ wf.theta.reshape(n, -1).T
            _, logdet = np.linalg.slogdet(oracle_matrix)
            oracle_log = logdet + brute_force_jastrow(positions[w], system.spins)
            oracle_grad = (np.linalg.inv(oracle_matrix) @ feats).ravel()
            scale = np.max(np.abs(oracle_matrix))
            np.testing.assert_allclose(matrix[w], oracle_matrix, rtol=0, atol=1e-10 * scale)
            assert log_abs[w] == pytest.approx(oracle_log, rel=1e-10)
            np.testing.assert_allclose(
                grad[w], oracle_grad, rtol=0, atol=1e-10 * np.max(np.abs(oracle_grad))
            )

    def test_invariant_under_non_highlighted_same_spin_permutation(self):
        system = single_nucleus_system(4, 3, 1)
        basis = default_basis(system, radial_powers=(0,), ell_max=1)
        wf = AceWavefunction(system=system, basis=basis, correlation_order=3)
        rng = np.random.default_rng(4)
        positions = rng.normal(size=(4, 3))
        # permute the two non-highlighted up electrons (slots 1 and 2)
        swapped = positions.copy()
        swapped[[1, 2]] = swapped[[2, 1]]
        matrix, _, tails = wf.orbital_matrix_batch(np.stack([positions, swapped]))
        np.testing.assert_allclose(tails[1, 0], tails[0, 0], rtol=1e-12)
        np.testing.assert_allclose(matrix[1, 0], matrix[0, 0], rtol=1e-12)


def literal_orbital_values(basis, nuclear_positions, positions, spins):
    """The per-orbital loop: one exponential and one gate multiply per orbital."""
    w, n, _ = positions.shape
    values = np.empty((w, n, len(basis)))
    center_delta = {}
    center_radius = {}
    for c in {orb.center for orb in basis.orbitals}:
        delta = positions - nuclear_positions[c][None, None, :]
        center_delta[c] = delta
        center_radius[c] = np.sqrt(np.sum(delta * delta, axis=-1))
    up_mask = (np.asarray(spins) == SPIN_UP).astype(np.float64)
    gate_vec = {"up": up_mask, "down": 1.0 - up_mask, "either": np.ones(n)}
    axis = {-1: 1, 0: 2, 1: 0}
    for idx, orb in enumerate(basis.orbitals):
        r = center_radius[orb.center]
        val = np.exp(-orb.zeta * r)
        if orb.n:
            val = val * r**orb.n
        if orb.ell == 1:
            val = val * center_delta[orb.center][..., axis[orb.m]]
        values[:, :, idx] = val * gate_vec[orb.spin][None, :]
    return values


def literal_amplitudes(wf, positions):
    """(phi, M, log|psi|, sign, d log|psi| / d theta) from the per-orbital
    loop, a strided np.sum for the pooled sums and a gather plus np.prod
    for every tail, chunked as the wavefunction chunks."""
    system = wf.system
    n, n_orb, n_tails = wf.coefficients.shape
    tail_orbitals = [
        np.array([tail for tail in wf.tails if len(tail) == length], dtype=np.intp)
        for length in range(1, wf.correlation_order)
    ]
    iu, ju = np.triu_indices(n, k=1)
    coeff = np.where(system.spins[iu] == system.spins[ju], 0.25, 0.5)
    parts = []
    for chunk in wf._chunks(positions.shape[0]):
        x = positions[chunk]
        w = x.shape[0]
        phi = literal_orbital_values(wf.basis, system.nuclear_positions, x, system.spins)
        pooled = np.sum(phi, axis=1, keepdims=True) - phi
        products = np.concatenate(
            [np.ones((w, n, 1))]
            + [np.prod(pooled[:, :, orbs], axis=-1) for orbs in tail_orbitals],
            axis=-1,
        )
        blocks = wf.coefficients.transpose(1, 0, 2).reshape(n_orb, -1)
        mixed = (phi.reshape(w * n, n_orb) @ blocks).reshape(w, n, n, -1)
        matrix = (mixed @ products[..., None])[..., 0]
        sign, log_abs = np.linalg.slogdet(matrix)
        diff = x[:, iu, :] - x[:, ju, :]
        dist = np.sqrt(np.sum(diff * diff, axis=-1))
        log_abs += -np.sum(coeff[None, :] / (1.0 + dist), axis=1)
        grad = np.einsum("wki,wih,wit->wkht", np.linalg.inv(matrix), phi, products,
                         optimize=True).reshape(w, -1)
        parts.append((phi, matrix, log_abs, sign, grad))
    return [np.concatenate(arrays) for arrays in zip(*parts)]


# preset, walkers, correlation order, ell_max
LITERAL_CASES = {
    "he-s-2048": ("he", 2048, 3, 0),
    "he-s-order2-2048": ("he", 2048, 2, 0),
    "be-p": ("be", 16, 3, 1),
    "lih": ("lih", 8, 3, 1),
    "li2": ("li2", 4, 3, 1),
    "ne": ("ne", 8, 3, 1),
    "be-p-one-configuration": ("be", 1, 3, 1),
}


class TestLiteralKernel:
    """The amplitude kernel repeats the per-orbital loop's floating-point
    operations in the same order, so every value is bitwise equal."""

    @pytest.mark.parametrize("case", sorted(LITERAL_CASES))
    def test_bitwise_equal_to_the_per_orbital_loop(self, case):
        preset, walkers, order, ell_max = LITERAL_CASES[case]
        system = preset_system(preset)
        basis = default_basis(system, radial_powers=(0, 1), ell_max=ell_max)
        wf = AceWavefunction(system=system, basis=basis, correlation_order=order)
        rng = np.random.default_rng(20)
        wf.set_theta(wf.theta + 0.05 * rng.standard_normal(wf.n_params))
        n = system.n_electrons
        sites = system.nuclear_positions[np.arange(n) % len(system.nuclear_charges)]
        positions = sites + rng.normal(size=(walkers, n, 3))

        phi, matrix, log_abs, sign, grad = literal_amplitudes(wf, positions)
        np.testing.assert_array_equal(
            orbital_values(basis, system.nuclear_positions, positions, system.spins), phi
        )
        np.testing.assert_array_equal(wf.orbital_matrix_batch(positions)[0], matrix)
        ours_log, ours_sign = wf.log_abs_sign_batch(positions)
        np.testing.assert_array_equal(ours_log, log_abs)
        np.testing.assert_array_equal(ours_sign, sign)
        np.testing.assert_array_equal(wf.grad_theta_batch(positions), grad)


class TestJastrow:
    def test_opposite_spin_unit_distance(self):
        positions = np.array([[[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]])
        value = jastrow_log_batch(positions, np.array([SPIN_UP, SPIN_DOWN]))[0]
        assert value == pytest.approx(-0.25, abs=1e-15)

    def test_same_spin_distance_three(self):
        positions = np.array([[[0.0, 0.0, 0.0], [0.0, 0.0, 3.0]]])
        value = jastrow_log_batch(positions, np.array([SPIN_UP, SPIN_UP]))[0]
        assert value == pytest.approx(-0.0625, abs=1e-15)

    def test_four_electron_brute_force(self):
        rng = np.random.default_rng(5)
        positions = rng.normal(size=(4, 3))
        spins = np.array([SPIN_UP, SPIN_UP, SPIN_DOWN, SPIN_DOWN])
        expected = brute_force_jastrow(positions, spins)
        value = jastrow_log_batch(positions[None], spins)[0]
        assert value == pytest.approx(expected, rel=1e-13)

    def test_single_electron_has_no_pairs(self):
        value = jastrow_log_batch(np.zeros((1, 1, 3)), np.array([SPIN_UP]))
        assert value[0] == 0.0

    def test_cusp_slope_matches_pair_coefficient(self):
        h = 1e-6
        for spins, coeff in (
            (np.array([SPIN_UP, SPIN_DOWN]), 0.5),
            (np.array([SPIN_UP, SPIN_UP]), 0.25),
        ):
            at_h = jastrow_log_batch(np.array([[[0, 0, 0], [0, 0, h]]], dtype=float), spins)[0]
            at_0 = -coeff
            slope = (at_h - at_0) / h
            assert slope == pytest.approx(coeff, rel=5e-6)


class TestLogPsi:
    def test_single_electron_is_log_orbital(self):
        system = single_nucleus_system(1, 1, 0)
        basis = OneBodyBasisSpec(orbitals=(SlaterOrbital(0, 0, 0, 0, 1.0, "either"),))
        wf = AceWavefunction(system=system, basis=basis, correlation_order=1,
                             theta=np.array([1.0]))
        point = np.array([[0.3, -0.4, 1.2]])
        log_abs, sign = wf.log_abs_sign_batch(point[None])
        assert sign[0] == 1.0
        assert log_abs[0] == pytest.approx(-np.linalg.norm(point), rel=1e-14)

    def test_same_spin_swap_flips_sign(self):
        system = single_nucleus_system(3, 2, 1)
        basis = default_basis(system, radial_powers=(0, 1), ell_max=1)
        wf = AceWavefunction(system=system, basis=basis, correlation_order=2)
        rng = np.random.default_rng(6)
        positions = rng.normal(size=(3, 3))
        swapped = positions.copy()
        swapped[[0, 1]] = swapped[[1, 0]]  # both spin-up slots
        (la0, la1), (s0, s1) = wf.log_abs_sign_batch(np.stack([positions, swapped]))
        assert s1 == -s0
        assert la1 == pytest.approx(la0, abs=1e-12)

    def test_two_by_two_against_direct_formula(self):
        system = single_nucleus_system(2, 2, 0)
        basis = OneBodyBasisSpec(
            orbitals=(
                SlaterOrbital(0, 0, 0, 0, 2.0, "either"),
                SlaterOrbital(0, 1, 0, 0, 1.0, "either"),
            )
        )
        wf = AceWavefunction(
            system=system, basis=basis, correlation_order=1,
            theta=np.array([1.0, 0.0, 0.0, 1.0]),  # identity mixing
        )
        rng = np.random.default_rng(7)
        positions = rng.normal(size=(2, 3))
        r = np.linalg.norm(positions, axis=1)
        phi1 = np.exp(-2.0 * r)
        phi2 = r * np.exp(-r)
        det = phi1[0] * phi2[1] - phi2[0] * phi1[1]
        expected = np.log(abs(det)) + brute_force_jastrow(positions, system.spins)
        log_abs, sign = wf.log_abs_sign_batch(positions[None])
        assert log_abs[0] == pytest.approx(expected, rel=1e-12)
        assert sign[0] == np.sign(det)

    def test_exact_node_sentinel(self):
        system = single_nucleus_system(2, 2, 0)
        basis = OneBodyBasisSpec(
            orbitals=(
                SlaterOrbital(0, 0, 0, 0, 2.0, "either"),
                SlaterOrbital(0, 1, 0, 0, 1.0, "either"),
            )
        )
        # equal determinant columns: psi vanishes identically
        wf = AceWavefunction(system=system, basis=basis, correlation_order=1,
                             theta=np.array([1.0, 0.5, 1.0, 0.5]))
        log_abs, sign = wf.log_abs_sign_batch(np.random.default_rng(8).normal(size=(1, 2, 3)))
        assert log_abs[0] == -np.inf
        assert sign[0] == 0.0

    def test_antisymmetry_over_block_permutations(self):
        """Spin labels are slot-fixed, so the symmetry group is the product
        of the per-channel permutation groups; signs must equal parities."""
        system = single_nucleus_system(7, 4, 3)
        basis = default_basis(system, radial_powers=(0, 1), ell_max=1)
        wf = AceWavefunction(system=system, basis=basis, correlation_order=2)
        rng = np.random.default_rng(9)
        positions = rng.normal(size=(7, 3)) * 1.3
        (base_log,), (base_sign,) = wf.log_abs_sign_batch(positions[None])
        assert np.isfinite(base_log)

        perms = list(block_permutations(4, 3))
        picks = rng.choice(len(perms), size=100, replace=True)
        for pick in picks:
            perm = perms[pick]
            (log_abs,), (sign,) = wf.log_abs_sign_batch(positions[perm][None])
            assert sign == base_sign * permutation_parity(perm)
            assert log_abs == pytest.approx(base_log, abs=1e-12)


class TestThetaGradient:
    def test_matches_finite_differences(self):
        # Each theta entry scales one column of M linearly, so
        # det(theta + s e_j) = det(theta) (1 + s g_j) holds exactly and the
        # unit-step difference quotient of the determinant is the gradient.
        system = single_nucleus_system(3, 2, 1)
        basis = default_basis(system, radial_powers=(0,), ell_max=0)
        wf = AceWavefunction(system=system, basis=basis, correlation_order=2)
        rng = np.random.default_rng(10)
        for _ in range(20):
            wf.set_theta(wf.theta + 0.05 * rng.standard_normal(wf.n_params))
            positions = rng.normal(size=(3, 3))[None]
            grad = wf.grad_theta_batch(positions)[0]
            base_theta = wf.theta.copy()
            base_log, base_sign = wf.log_abs_sign_batch(positions)
            for slot in rng.choice(wf.n_params, size=6, replace=False):
                bumped = base_theta.copy()
                bumped[slot] += 1.0
                wf.set_theta(bumped)
                log, sign = wf.log_abs_sign_batch(positions)
                wf.set_theta(base_theta)
                ratio = sign[0] * base_sign[0] * np.exp(log[0] - base_log[0])
                assert grad[slot] == pytest.approx(ratio - 1.0, rel=1e-10, abs=1e-10)

    def test_single_orbital_scale_derivative(self):
        system = single_nucleus_system(1, 1, 0)
        basis = OneBodyBasisSpec(orbitals=(SlaterOrbital(0, 0, 0, 0, 1.0, "either"),))
        for c in (0.5, 1.0, 2.5):
            wf = AceWavefunction(system=system, basis=basis, correlation_order=1,
                                 theta=np.array([c]))
            grad = wf.grad_theta_batch(np.array([[[0.1, 0.2, -0.4]]]))[0]
            assert grad[0] == pytest.approx(1.0 / c, rel=1e-12)

    def test_euler_homogeneity(self):
        """The determinant is degree-N homogeneous in theta, so the
        directional derivative along theta equals the electron count."""
        system = single_nucleus_system(4, 2, 2)
        basis = default_basis(system, radial_powers=(0, 1), ell_max=0)
        wf = AceWavefunction(system=system, basis=basis, correlation_order=2)
        rng = np.random.default_rng(11)
        positions = rng.normal(size=(4, 3))
        grad = wf.grad_theta_batch(positions[None])[0]
        assert float(grad @ wf.theta) == pytest.approx(4.0, rel=1e-10)

    def test_refused_on_an_exact_node(self):
        """Two same-spin electrons at one point make two rows of M equal:
        slogdet's sign is 0 and its logdet -inf, and the inverse the
        gradient needs does not exist."""
        system = preset_system("be")
        wf = AceWavefunction(system=system, basis=default_basis(system, (0, 1), 0))
        positions = np.random.default_rng(12).normal(size=(1, 4, 3))
        positions[0, 1] = positions[0, 0]  # electrons 0 and 1 are both up
        with pytest.raises(NodeProximity, match="on top of a node"):
            wf.grad_theta_batch(positions)


class TestCoordinateDerivatives:
    def test_hydrogen_exponential(self):
        system = single_nucleus_system(1, 1, 0)
        basis = OneBodyBasisSpec(orbitals=(SlaterOrbital(0, 0, 0, 0, 1.0, "either"),))
        wf = AceWavefunction(system=system, basis=basis, correlation_order=1,
                             theta=np.array([1.0]), jastrow_enabled=False)
        point = np.array([[0.6, -0.3, 0.9]])
        r = float(np.linalg.norm(point))
        grad, lap = wf.gradient_and_laplacian_batch(point[None])
        np.testing.assert_allclose(grad[0, 0], -point[0] / r, atol=1e-7)
        assert lap[0] == pytest.approx(-2.0 / r, rel=1e-6)

    def test_matches_higher_order_stencil(self):
        """Second-order stencil vs a fourth-order oracle at the same step:
        agreement is limited by the provider's own truncation error."""
        system = single_nucleus_system(3, 2, 1)
        basis = default_basis(system, radial_powers=(0, 1), ell_max=1)
        wf = AceWavefunction(system=system, basis=basis, correlation_order=2)
        rng = np.random.default_rng(12)
        positions = rng.normal(size=(1, 3, 3)) * 1.2
        grad, lap = wf.gradient_and_laplacian_batch(positions)

        h = 1e-4
        oracle_grad = np.zeros((3, 3))
        oracle_lap = 0.0
        for i in range(3):
            for axis in range(3):
                vals = []
                for mult in (-2, -1, 0, 1, 2):
                    shifted = positions.copy()
                    shifted[0, i, axis] += mult * h
                    vals.append(wf.log_abs_batch(shifted)[0])
                fm2, fm1, f0, fp1, fp2 = vals
                oracle_grad[i, axis] = (fm2 - 8 * fm1 + 8 * fp1 - fp2) / (12 * h)
                oracle_lap += (-fm2 + 16 * fm1 - 30 * f0 + 16 * fp1 - fp2) / (12 * h * h)
        np.testing.assert_allclose(grad[0], oracle_grad, rtol=1e-5, atol=1e-8)
        assert lap[0] == pytest.approx(oracle_lap, rel=1e-5)

    def test_fd_provider_on_quadratic_is_exact(self):
        # central differences are exact on quadratics up to rounding
        def quad(p):
            return np.sum(p**2, axis=(1, 2)) + 3.0 * p[:, 0, 1]

        positions = np.array([[[0.4, -0.2, 0.7], [1.1, 0.0, -0.5]]])
        grad, lap = fd_gradient_and_laplacian(quad, positions, 1e-4)
        expected_grad = 2.0 * positions[0]
        expected_grad[0, 1] += 3.0
        np.testing.assert_allclose(grad[0], expected_grad, atol=1e-6)
        assert lap[0] == pytest.approx(12.0, abs=1e-4)

    def test_fd_provider_matches_per_slot_loop(self):
        """The sliced stencil is bitwise the literal loop over the 6N + 1
        shifted copies (slot 2k+1 / 2k+2 moves coordinate k by +/- step)."""
        system = single_nucleus_system(4, 2, 2)
        basis = default_basis(system, radial_powers=(0, 1), ell_max=1)
        wf = AceWavefunction(system=system, basis=basis, correlation_order=2)
        wf.set_theta(initial_theta(system, wf.basis, len(wf.tails), seed=3))
        positions = np.random.default_rng(14).normal(size=(7, 4, 3))
        step = DEFAULT_FD_STEP

        w, n, _ = positions.shape
        stacked = np.broadcast_to(positions, (6 * n + 1, w, n, 3)).copy()
        for k in range(3 * n):
            stacked[2 * k + 1, :, k // 3, k % 3] += step
            stacked[2 * k + 2, :, k // 3, k % 3] -= step
        values = wf.log_abs_batch(stacked.reshape(-1, n, 3)).reshape(6 * n + 1, w)
        expected_grad = np.empty((w, n, 3))
        expected_lap = np.zeros(w)
        for k in range(3 * n):
            plus, minus = values[2 * k + 1], values[2 * k + 2]
            expected_grad[:, k // 3, k % 3] = (plus - minus) / (2.0 * step)
            expected_lap += (plus - 2.0 * values[0] + minus) / (step * step)

        grad, lap = fd_gradient_and_laplacian(wf.log_abs_batch, positions, step)
        np.testing.assert_array_equal(grad, expected_grad)
        np.testing.assert_array_equal(lap, expected_lap)


    @pytest.mark.parametrize("base_value, raises", [
        (-np.inf, True), (np.nan, True), (-800.0, True), (-699.0, False),
    ])
    def test_fd_provider_guards_the_base_point(self, base_value, raises):
        """The stencil's base row is the node guard: NodeProximity where it
        is non-finite or below -700, even when every shifted row is finite."""
        positions = np.array([[[0.4, -0.2, 0.7]], [[1.1, 0.0, -0.5]]])

        def log_abs(p):
            return np.where(np.all(p == positions[1], axis=(1, 2)), base_value, -1.0)

        if raises:
            with pytest.raises(NodeProximity, match="near a node"):
                fd_gradient_and_laplacian(log_abs, positions, 1e-4)
        else:
            fd_gradient_and_laplacian(log_abs, positions, 1e-4)


class TestChunkedEvaluation:
    """A batch split into walker chunks gives the whole batch's values."""

    def chunked_and_whole(self, wf, monkeypatch):
        n, n_orb, n_tails = wf.coefficients.shape
        rng = np.random.default_rng(21)
        wf.set_theta(wf.theta + 0.05 * rng.standard_normal(wf.n_params))
        positions = 1.5 * rng.standard_normal((130, n, 3))
        whole = (*wf.log_abs_sign_batch(positions), wf.grad_theta_batch(positions))
        # three full chunks of 40 configurations and a ragged tail of 10
        per_config = 8 * (n * n_orb + n * n_tails + n * n * n_tails + n * n)
        monkeypatch.setattr(vmcsr.wavefunction, "EVAL_CHUNK_BYTES", 40 * per_config)
        sizes = []
        evaluate = wf.orbital_matrix_batch

        def spy(chunk):
            sizes.append(chunk.shape[0])
            return evaluate(chunk)

        monkeypatch.setattr(wf, "orbital_matrix_batch", spy)
        chunked = (*wf.log_abs_sign_batch(positions), wf.grad_theta_batch(positions))
        assert sizes == [40, 40, 40, 10] * 2
        return chunked, whole

    def test_helium_s_shell_is_bitwise(self, monkeypatch):
        system = preset_system("he")
        wf = AceWavefunction(system=system, basis=default_basis(system, (0, 1), ell_max=0))
        chunked, whole = self.chunked_and_whole(wf, monkeypatch)
        for ours, reference in zip(chunked, whole):
            np.testing.assert_array_equal(ours, reference)

    def test_p_shell_on_two_nuclei_matches(self, monkeypatch):
        system = two_nucleus_system()
        wf = AceWavefunction(system=system, basis=default_basis(system, (0, 1), ell_max=1))
        (log_abs, sign, grad), (log_ref, sign_ref, grad_ref) = self.chunked_and_whole(
            wf, monkeypatch
        )
        np.testing.assert_array_equal(sign, sign_ref)
        np.testing.assert_allclose(log_abs, log_ref, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(grad, grad_ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(grad_ref)))

    def test_chunk_boundaries_follow_the_budget(self, monkeypatch):
        system = preset_system("he")
        wf = AceWavefunction(system=system, basis=default_basis(system, (0, 1), ell_max=0))
        # 8 bytes * (N n_orb + N n_tails + N^2 n_tails + N^2) with N = 2, n_orb = 8
        # and n_tails = 9: 592 bytes per configuration across phi, the tail
        # products, the mixed coefficients and M
        assert vmcsr.wavefunction.EVAL_CHUNK_BYTES // 592 == 7084
        bounds = [(c.start, c.stop) for c in wf._chunks(15000)]
        assert bounds == [(0, 7084), (7084, 14168), (14168, 15000)]
        monkeypatch.setattr(vmcsr.wavefunction, "EVAL_CHUNK_BYTES", 100)
        assert [c.stop - c.start for c in wf._chunks(3)] == [1, 1, 1]

    @pytest.mark.parametrize("preset, ell_max, n_configs", [("be", 1, 512), ("he", 0, 2048)])
    def test_default_batches_stay_one_chunk(self, preset, ell_max, n_configs):
        """A 512-configuration Be p-shell batch (be-p-minsr's parameter
        log-derivatives) and a 2048-walker He s sweep each fit one chunk:
        split, grad_theta_batch would copy its chunks into a preallocated
        output."""
        system = preset_system(preset)
        wf = AceWavefunction(system=system, basis=default_basis(system, (0, 1), ell_max=ell_max))
        assert wf._chunks(n_configs) == [slice(0, n_configs)]


class TestInitialTheta:
    def test_zero_noise_gives_bare_product_state(self):
        system = single_nucleus_system(2, 1, 1)
        basis = default_basis(system, radial_powers=(0,), ell_max=0)
        n_tails = len(build_tuple_index(basis, 2))
        theta = initial_theta(system, basis, n_tails, noise_scale=0.0)
        assert np.count_nonzero(theta) == 2
        assert set(np.unique(theta)) == {0.0, 1.0}

    def test_determinant_nonsingular_at_init(self):
        for name_args in ((4, 2, 2), (8, 5, 3)):
            system = single_nucleus_system(*name_args)
            basis = default_basis(system, radial_powers=(0, 1), ell_max=1)
            wf = AceWavefunction(system=system, basis=basis, correlation_order=2)
            rng = np.random.default_rng(13)
            positions = rng.normal(size=(4, system.n_electrons, 3))
            log_abs = wf.log_abs_batch(positions)
            assert np.all(np.isfinite(log_abs))

    def test_spin_gated_assignment_avoids_column_reuse(self):
        system = single_nucleus_system(2, 1, 1)
        basis = default_basis(system, radial_powers=(0,), ell_max=0)
        n_tails = len(build_tuple_index(basis, 2))
        theta = initial_theta(system, basis, n_tails, noise_scale=0.0)
        coeff = theta.reshape(2, len(basis), n_tails)
        heads = []
        for k in range(2):
            (head,), (tail,) = np.nonzero(coeff[k])
            assert tail == 0  # the empty tail
            assert basis.orbitals[head].admits(system.spins[k])
            heads.append(head)
        assert heads[0] != heads[1]

    def test_center_outside_the_nuclei_refused_at_construction(self):
        basis = OneBodyBasisSpec(orbitals=(SlaterOrbital(3, 0, 0, 0, 1.0, "either"),))
        with pytest.raises(ValueError, match="center 3 out of range for 1 nuclei"):
            AceWavefunction(system=preset_system("h"), basis=basis)

    def test_too_small_basis_rejected(self):
        system = single_nucleus_system(2, 2, 0)
        basis = OneBodyBasisSpec(orbitals=(SlaterOrbital(0, 0, 0, 0, 1.0, "either"),))
        with pytest.raises(ValueError):
            initial_theta(system, basis, 1)

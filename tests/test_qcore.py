import numpy as np
import pytest

import oracles
from densecode import protocol, qcore

RT2 = np.sqrt(2.0)


def random_state(rng):
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return v / np.linalg.norm(v)


def random_unitary(rng, n=4):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng):
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


class TestBasisAndChecks:
    def test_basis_state_by_label_and_index(self):
        assert np.array_equal(qcore.basis_state("10"), qcore.basis_state(2))
        assert qcore.basis_state("01")[1] == 1.0

    def test_basis_state_rejects_bad_label(self):
        with pytest.raises(ValueError):
            qcore.basis_state("02")
        with pytest.raises(ValueError):
            qcore.basis_state(4)

    def test_check_state_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            qcore.check_state(np.array([1.0, 1.0, 0.0, 0.0]))

    def test_check_state_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            qcore.check_state(np.array([np.nan, 0, 0, 0], dtype=complex))

    def test_check_unitary_rejects_nonunitary(self):
        with pytest.raises(ValueError, match="not unitary"):
            qcore.check_unitary(np.ones((2, 2)))

    def test_check_density_rejects_nonhermitian(self):
        rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        rho[0, 1] = 0.3
        with pytest.raises(ValueError, match="Hermitian"):
            qcore.check_density_matrix(rho)

    def test_check_density_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            qcore.check_density_matrix(np.eye(4) / 2)

    def test_check_density_rejects_negative_eigenvalue(self):
        rho = np.diag([1.1, -0.1, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="semidefinite"):
            qcore.check_density_matrix(rho)

    def test_check_density_stack_fails_on_one_bad_member(self):
        good = np.eye(4, dtype=complex) / 4
        nonhermitian = good.copy()
        nonhermitian[0, 1] = 0.3
        negative = np.diag([1.1, -0.1, 0.0, 0.0]).astype(complex)
        stack = np.array([[good, good], [good, good]])
        assert qcore.check_density_matrix(stack) is stack
        for bad, match in ((nonhermitian, "Hermitian"), (negative, "semidefinite"),
                           (good * 2, r"trace != 1: \(2\+0j\)")):
            for k in range(4):
                members = stack.copy()
                members.reshape(-1, 4, 4)[k] = bad
                with pytest.raises(ValueError, match=match):
                    qcore.check_density_matrix(members)

    def test_check_density_accepts_a_transposed_view(self):
        rho = np.eye(4, dtype=complex) / 4
        rho[0, 1], rho[1, 0] = 0.1j, -0.1j
        qcore.check_density_matrix(rho.T)
        rho[2, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            qcore.check_density_matrix(rho.T)

    def test_check_state_accepts_a_strided_view(self):
        s = np.eye(4, dtype=complex)[:, 0]
        assert np.array_equal(qcore.check_state(s), qcore.basis_state(0))
        s = np.eye(4, dtype=complex)[:, 1] * np.nan
        with pytest.raises(ValueError, match="non-finite"):
            qcore.check_state(s)

    def test_check_unitary_accepts_fortran_order(self):
        u = np.asfortranarray(protocol.CNOT)
        assert np.array_equal(qcore.check_unitary(u), protocol.CNOT)
        u[3, 2] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            qcore.check_unitary(u)

    def test_pure_density_accepts_a_strided_view(self):
        rho = qcore.pure_density(np.eye(4, dtype=complex)[:, 2])
        assert np.array_equal(rho, qcore.pure_density(qcore.basis_state(2)))

    def test_readout_accepts_a_strided_view(self):
        out = protocol.readout((-np.eye(4, dtype=complex))[:, 1])
        assert (out.y, out.x, out.phase) == (0, 1, -1)

    def test_check_density_psd_floor_is_configurable(self):
        rho = np.diag([1.0 + 1e-7, -1e-7, 0.0, 0.0]).astype(complex)
        qcore.check_density_matrix(rho, psd_floor=1e-6)
        with pytest.raises(ValueError):
            qcore.check_density_matrix(rho, psd_floor=1e-9)


class TestTensor:
    def test_identity_case(self):
        assert np.allclose(qcore.tensor(qcore.ID2, qcore.ID2), np.eye(4))

    def test_bit_flip_on_spin_b(self):
        u = qcore.tensor(qcore.SIGMA_X, qcore.ID2)
        assert np.allclose(u @ qcore.basis_state("00"), qcore.basis_state("10"))

    def test_sigma_z_on_spin_a_flips_bell_sign(self):
        minus_phi = np.array([1, 0, 0, -1], dtype=complex) / RT2
        plus_phi = np.array([1, 0, 0, 1], dtype=complex) / RT2
        u = qcore.tensor(qcore.ID2, qcore.SIGMA_Z)
        assert np.allclose(u @ minus_phi, plus_phi, atol=1e-15)

    def test_element_layout(self):
        rng = np.random.default_rng(11)
        ub = random_unitary(rng, 2)
        ua = random_unitary(rng, 2)
        t = qcore.tensor(ub, ua)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        assert t[2 * i + j, 2 * k + l] == pytest.approx(ub[i, k] * ua[j, l])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            qcore.tensor(np.eye(4), qcore.ID2)

    def test_factor_commutation(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = random_unitary(rng, 2)
            b = random_unitary(rng, 2)
            left = qcore.tensor(a, qcore.ID2) @ qcore.tensor(qcore.ID2, b)
            assert np.max(np.abs(left - qcore.tensor(a, b))) < 1e-12


class TestApplyEvolve:
    def test_apply_identity(self):
        s = qcore.basis_state("01")
        assert np.array_equal(qcore.apply(qcore.ID4, s), s)

    def test_apply_cnot_control_set(self):
        out = qcore.apply(protocol.CNOT, qcore.basis_state("10"))
        assert np.allclose(out, qcore.basis_state("11"))

    def test_apply_hadamard_recombines(self):
        # H on b maps (|0>-|1>)_b |0>_a / sqrt2 back to |10>
        s = np.array([1, 0, -1, 0], dtype=complex) / RT2
        u = qcore.tensor(protocol.HADAMARD, qcore.ID2)
        assert np.allclose(qcore.apply(u, s), qcore.basis_state("10"), atol=1e-15)

    def test_apply_preserves_global_phase(self):
        s = np.exp(0.37j) * qcore.basis_state("11")
        out = qcore.apply(qcore.ID4, s)
        assert out[3] == s[3]

    def test_norm_preserved_over_random_inputs(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            s = random_state(rng)
            u = random_unitary(rng)
            out = qcore.apply(u, s)
            assert abs(np.sum(np.abs(out) ** 2) - 1.0) < 1e-10

    def test_pure_and_density_paths_agree(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            s = random_state(rng)
            u = random_unitary(rng)
            p_state = qcore.probabilities(qcore.apply(u, s))
            p_rho = qcore.probabilities(u @ qcore.pure_density(s) @ u.conj().T)
            assert np.max(np.abs(p_state - p_rho)) < 1e-12


class TestProbabilities:
    def test_basis_state(self):
        assert np.allclose(qcore.probabilities(qcore.basis_state("00")), [1, 0, 0, 0])

    def test_bell_state(self):
        s = np.array([1, 0, 0, -1], dtype=complex) / RT2
        assert np.allclose(qcore.probabilities(s), [0.5, 0, 0, 0.5])

    def test_signed_basis_state(self):
        assert np.allclose(qcore.probabilities(-qcore.basis_state("01")), [0, 1, 0, 0])

    def test_density_input_sums_to_one(self):
        rng = np.random.default_rng(23)
        p = qcore.probabilities(random_density(rng))
        assert abs(np.sum(p) - 1.0) < 1e-10


class TestFidelity:
    def test_self_fidelity(self):
        rng = np.random.default_rng(29)
        rho = random_density(rng)
        assert qcore.fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_states(self):
        a = qcore.pure_density(qcore.basis_state("00"))
        b = qcore.pure_density(qcore.basis_state("11"))
        assert qcore.fidelity(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_vs_pure(self):
        mixed = np.eye(4, dtype=complex) / 4
        pure = qcore.pure_density(qcore.basis_state("00"))
        assert qcore.fidelity(mixed, pure) == pytest.approx(0.25, abs=1e-12)

    def test_reduces_to_overlap_for_pure_reference(self):
        rng = np.random.default_rng(31)
        rho = random_density(rng)
        psi = random_state(rng)
        expected = float(np.real(psi.conj() @ rho @ psi))
        assert qcore.fidelity(rho, qcore.pure_density(psi)) == pytest.approx(expected, abs=1e-7)

    @pytest.mark.parametrize("seed", range(20))
    def test_pure_reference_is_overlap_to_rounding(self, seed):
        rng = np.random.default_rng(1000 + seed)
        rho = random_density(rng)
        psi = random_state(rng)
        expected = float(np.real(psi.conj() @ rho @ psi))
        assert abs(qcore.fidelity(rho, qcore.pure_density(psi)) - expected) < 1e-12

    @pytest.mark.parametrize("seed", range(20))
    def test_symmetric_to_rounding(self, seed):
        rng = np.random.default_rng(2000 + seed)
        rho = random_density(rng)
        sigma = qcore.pure_density(random_state(rng))
        assert abs(qcore.fidelity(rho, sigma) - qcore.fidelity(sigma, rho)) < 1e-12
        other = random_density(rng)
        assert abs(qcore.fidelity(rho, other) - qcore.fidelity(other, rho)) < 1e-12

    def test_rejects_non_psd(self):
        bad = np.diag([1.5, -0.5, 0, 0]).astype(complex)
        good = np.eye(4, dtype=complex) / 4
        with pytest.raises(ValueError):
            qcore.fidelity(bad, good)


def _non_hermitian():
    rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    rho[0, 1] = 0.3
    return rho


#: Matrices that are not density matrices, one per refusal.
NOT_DENSITY = {
    "non-hermitian": _non_hermitian(),
    "trace-2": np.eye(4, dtype=complex) / 2,
    "eigenvalue-below-floor": np.diag([1.0 + 2e-9, -2e-9, 0.0, 0.0]).astype(complex),
}


class TestPsdFactor:
    @pytest.mark.parametrize("name", NOT_DENSITY)
    def test_refuses_as_check_density_matrix_does(self, name):
        bad = NOT_DENSITY[name]
        with pytest.raises(ValueError) as expected:
            qcore.check_density_matrix(bad)
        for refuse in (qcore.psd_factor, lambda rho: qcore.fidelity(np.eye(4) / 4, rho)):
            with pytest.raises(ValueError) as refused:
                refuse(bad)
            assert str(refused.value) == str(expected.value)

    def test_dip_within_the_floor_is_dropped(self):
        v = qcore.psd_factor(np.diag([1.0 + 5e-10, -5e-10, 0.0, 0.0]).astype(complex))
        assert v.shape == (4, 1)
        assert abs(abs(v[0, 0]) ** 2 - (1.0 + 5e-10)) < 1e-15


class TestRotationHelpers:
    def test_rotation_axes(self):
        assert np.allclose(oracles.pauli_rotation("X", np.pi), -1j * qcore.SIGMA_X)
        assert np.allclose(oracles.pauli_rotation("Y", np.pi), -1j * qcore.SIGMA_Y)
        assert np.allclose(oracles.pauli_rotation("Z", np.pi), -1j * qcore.SIGMA_Z)

    def test_rotation_rejects_bad_axis(self):
        with pytest.raises(ValueError):
            oracles.pauli_rotation("Q", 1.0)

    def test_phase_aligned_distance_ignores_global_phase(self):
        rng = np.random.default_rng(37)
        u = random_unitary(rng)
        assert qcore.phase_aligned_distance(np.exp(1.2j) * u, u) < 1e-12

    def test_phase_aligned_distance_detects_difference(self):
        assert qcore.phase_aligned_distance(qcore.ID4, protocol.CNOT) > 0.5

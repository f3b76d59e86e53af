import numpy as np
import pytest

import oracles
from densecode import protocol, qcore
from densecode.protocol import BELL_VARIANT_ORDER, CNOT, ENCODINGS, HADAMARD, SUBSTITUTIONS, BellVariant

RT2 = np.sqrt(2.0)
KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)


def test_not_gate_matrix_and_action():
    n = qcore.SIGMA_X
    assert np.array_equal(n, [[0, 1], [1, 0]])
    assert np.allclose(n @ KET0, KET1)
    assert np.allclose(n @ n, np.eye(2))


def test_not_on_b_is_first_preparation_step():
    u = qcore.tensor(qcore.SIGMA_X, qcore.ID2)
    assert np.allclose(u @ qcore.basis_state("00"), qcore.basis_state("10"))


def test_hadamard_matrix():
    h = HADAMARD
    assert np.allclose(h, np.array([[1, 1], [1, -1]]) / RT2)
    assert np.allclose(h @ KET1, (KET0 - KET1) / RT2)
    assert np.allclose(h @ ((KET0 - KET1) / RT2), KET1)
    assert np.allclose(h @ h, np.eye(2), atol=1e-15)


def test_cnot_ba_truth_table():
    cn = CNOT
    assert np.allclose(cn @ qcore.basis_state("00"), qcore.basis_state("00"))
    assert np.allclose(cn @ qcore.basis_state("01"), qcore.basis_state("01"))
    assert np.allclose(cn @ qcore.basis_state("10"), qcore.basis_state("11"))
    assert np.allclose(cn @ qcore.basis_state("11"), qcore.basis_state("10"))
    assert np.allclose(cn @ cn, np.eye(4))


def test_cnot_ba_entangles_superposition():
    s = np.array([1, 0, -1, 0], dtype=complex) / RT2  # (|0>-|1>)_b |0>_a
    out = CNOT @ s
    assert np.allclose(out, np.array([1, 0, 0, -1]) / RT2, atol=1e-15)


def test_cnot_ba_on_singlet_like_state():
    s = np.array([0, 1, -1, 0], dtype=complex) / RT2
    out = CNOT @ s
    assert np.allclose(out, np.array([0, 1, 0, -1]) / RT2, atol=1e-15)


def test_cnot_ab_truth_table():
    cn = oracles.CNOT_AB
    assert np.allclose(cn @ qcore.basis_state("01"), qcore.basis_state("11"))
    assert np.allclose(cn @ qcore.basis_state("11"), qcore.basis_state("01"))
    assert np.allclose(cn @ qcore.basis_state("10"), qcore.basis_state("10"))


def test_encoding_unitaries():
    assert np.array_equal(ENCODINGS[1], np.eye(2))
    assert np.array_equal(ENCODINGS[2], [[1, 0], [0, -1]])
    assert np.array_equal(ENCODINGS[3], [[0, 1], [1, 0]])
    assert np.array_equal(ENCODINGS[4], [[0, 1], [-1, 0]])


def test_encoding_four_sign_convention():
    e4 = ENCODINGS[4]
    assert np.allclose(e4 @ KET0, -KET1)
    assert np.allclose(e4 @ KET1, KET0)


@pytest.mark.parametrize("i", [0, 5, -1])
def test_encoding_index_out_of_range(i):
    with pytest.raises(ValueError):
        protocol.check_message(i)


def test_encodings_are_hilbert_schmidt_orthogonal():
    # pairwise tr(Ui^H Uj) = 0 is what buys two bits of capacity
    us = [ENCODINGS[i] for i in (1, 2, 3, 4)]
    for i in range(4):
        for j in range(4):
            inner = np.trace(us[i].conj().T @ us[j])
            if i == j:
                assert inner == pytest.approx(2.0)
            else:
                assert abs(inner) < 1e-15


def test_encodings_map_bell_state_onto_bell_basis():
    minus_phi = np.array([1, 0, 0, -1], dtype=complex) / RT2
    expected = {
        1: np.array([1, 0, 0, -1]) / RT2,
        2: np.array([1, 0, 0, 1]) / RT2,
        3: np.array([0, 1, -1, 0]) / RT2,
        4: np.array([0, -1, -1, 0]) / RT2,
    }
    for i, target in expected.items():
        out = qcore.tensor(qcore.ID2, ENCODINGS[i]) @ minus_phi
        assert np.max(np.abs(out - target)) < 1e-15


def test_bell_variant_substitution_recipes():
    assert BellVariant.MINUS_PHI.not_spins == ("b",)
    assert BellVariant.PLUS_PHI.not_spins == ()
    assert BellVariant.MINUS_PSI.not_spins == ("b", "a")
    assert BellVariant.PLUS_PSI.not_spins == ("a",)


@pytest.mark.parametrize(
    "variant,start,target",
    [
        (BellVariant.MINUS_PHI, "00", "10"),
        (BellVariant.PLUS_PHI, "00", "00"),
        (BellVariant.MINUS_PSI, "00", "11"),
        (BellVariant.PLUS_PSI, "00", "01"),
    ],
)
def test_bell_substitution_action(variant, start, target):
    out = SUBSTITUTIONS[variant] @ qcore.basis_state(start)
    assert np.allclose(out, qcore.basis_state(target))


def test_variant_order_is_the_table_column_order():
    assert [v.value for v in BELL_VARIANT_ORDER] == [
        "minus-phi",
        "plus-phi",
        "minus-psi",
        "plus-psi",
    ]


PUBLIC_GATES = {
    "HADAMARD": HADAMARD,
    "CNOT": CNOT,
    **{f"ENCODINGS[{m}]": u for m, u in ENCODINGS.items()},
    **{f"SUBSTITUTIONS[{v.value}]": u for v, u in SUBSTITUTIONS.items()},
}


@pytest.mark.parametrize("name", PUBLIC_GATES)
def test_public_gates_are_read_only(name):
    u = PUBLIC_GATES[name]
    with pytest.raises(ValueError):
        u[0, 0] = 5.0
    for shared in (qcore.ID2, qcore.ID4, qcore.SIGMA_X, qcore.SIGMA_Y, qcore.SIGMA_Z):
        assert not np.shares_memory(u, shared)


@pytest.mark.parametrize("variant", BELL_VARIANT_ORDER)
def test_substitution_flips_the_recipe_spins(variant):
    b, a = ("b" in variant.not_spins), ("a" in variant.not_spins)
    out = SUBSTITUTIONS[variant] @ qcore.basis_state(0)
    assert np.array_equal(out, qcore.basis_state(2 * b + a))

import numpy as np
import pytest

from densecode import protocol, qcore
from densecode.protocol import BELL_VARIANT_ORDER, BellVariant

RT2 = np.sqrt(2.0)

PREPARED = {
    BellVariant.MINUS_PHI: np.array([1, 0, 0, -1]) / RT2,
    BellVariant.PLUS_PHI: np.array([1, 0, 0, 1]) / RT2,
    BellVariant.MINUS_PSI: np.array([0, 1, -1, 0]) / RT2,
    BellVariant.PLUS_PSI: np.array([0, 1, 1, 0]) / RT2,
}

# Full correspondence grid (basis label, sign), rows = messages, columns =
# BELL_VARIANT_ORDER; frozen from a by-hand circuit evaluation.
EXPECTED_GRID = {
    1: (("10", 1), ("00", 1), ("11", 1), ("01", 1)),
    2: (("00", 1), ("10", 1), ("01", -1), ("11", -1)),
    3: (("11", 1), ("01", 1), ("10", 1), ("00", 1)),
    4: (("01", -1), ("11", -1), ("00", 1), ("10", 1)),
}


@pytest.mark.parametrize("variant", BELL_VARIANT_ORDER)
def test_prepare_bell_amplitudes(variant):
    assert np.max(np.abs(protocol.prepare_bell(variant) - PREPARED[variant])) < 1e-12


def test_encode_identity_leaves_state():
    start = protocol.prepare_bell(BellVariant.MINUS_PHI)
    assert np.allclose(protocol.encode(start, 1), start)


def test_encode_third_message():
    start = protocol.prepare_bell(BellVariant.MINUS_PHI)
    assert np.max(np.abs(protocol.encode(start, 3) - np.array([0, 1, -1, 0]) / RT2)) < 1e-12


def test_encode_fourth_message_sign():
    start = protocol.prepare_bell(BellVariant.MINUS_PHI)
    assert np.max(np.abs(protocol.encode(start, 4) - np.array([0, -1, -1, 0]) / RT2)) < 1e-12


def test_encode_rejects_bad_message():
    start = protocol.prepare_bell(BellVariant.MINUS_PHI)
    with pytest.raises(ValueError):
        protocol.encode(start, 5)


@pytest.mark.parametrize(
    "state,target",
    [
        (np.array([1, 0, 0, -1]) / RT2, qcore.basis_state("10")),
        (np.array([1, 0, 0, 1]) / RT2, qcore.basis_state("00")),
        (np.array([0, -1, -1, 0]) / RT2, -qcore.basis_state("01")),
    ],
)
def test_decode_bell_basis(state, target):
    assert np.max(np.abs(protocol.decode(state.astype(complex)) - target)) < 1e-12


def test_readout_plain_basis_state():
    out = protocol.readout(qcore.basis_state("10"))
    assert (out.y, out.x, out.phase) == (1, 0, 1)
    assert out.ket == "|10>"


def test_readout_signed_basis_state():
    out = protocol.readout(-qcore.basis_state("01"))
    assert (out.y, out.x, out.phase) == (0, 1, -1)
    assert out.ket == "-|01>"


def test_readout_rejects_superposition():
    s = np.array([1, 1, 0, 0], dtype=complex) / RT2
    with pytest.raises(protocol.NotBasisStateError):
        protocol.readout(s)


def test_table_matches_expected_grid_with_signs():
    grid = protocol.table1()
    for i, m in enumerate(protocol.MESSAGES):
        for j in range(4):
            label, sign = EXPECTED_GRID[m][j]
            cell = grid[i][j]
            assert qcore.BASIS_LABELS[cell.index] == label, (m, j)
            assert cell.phase == sign, (m, j)


def test_table_minus_phi_column_signed_outputs():
    grid = protocol.table1()
    assert tuple(grid[i][0].ket for i in range(4)) == ("|10>", "|00>", "|11>", "-|01>")


def test_table_spot_cells():
    grid = protocol.table1()
    assert grid[0][0].ket == "|10>"   # first message, minus-phi
    assert grid[3][1].ket == "-|11>"  # fourth message, plus-phi
    assert grid[2][2].ket == "|10>"   # third message, minus-psi


def test_transmit_examples():
    assert protocol.transmit(2, BellVariant.MINUS_PHI) == 2
    assert protocol.run_network(2, BellVariant.MINUS_PHI).bits == "00"
    assert protocol.transmit(1, BellVariant.PLUS_PHI) == 1
    assert protocol.run_network(1, BellVariant.PLUS_PHI).bits == "00"


def test_transmit_round_trips_all_pairs():
    for v in BELL_VARIANT_ORDER:
        for m in protocol.MESSAGES:
            assert protocol.transmit(m, v) == m


def test_capacity_two_bits_per_variant():
    for v in BELL_VARIANT_ORDER:
        bits = {protocol.run_network(m, v).bits for m in protocol.MESSAGES}
        assert bits == {"00", "01", "10", "11"}


def test_decode_encode_injective_on_bell_basis():
    for m in protocol.MESSAGES:
        outputs = set()
        for v in BELL_VARIANT_ORDER:
            out = protocol.readout(protocol.decode(protocol.encode(PREPARED[v].astype(complex), m)))
            outputs.add((out.y, out.x))
        assert len(outputs) == 4


def test_message_bits_mapping():
    assert [protocol.message_bits(m) for m in protocol.MESSAGES] == ["00", "01", "10", "11"]


def test_recover_message_inverts_column():
    for v in BELL_VARIANT_ORDER:
        for m in protocol.MESSAGES:
            out = protocol.run_network(m, v)
            assert protocol.recover_message((out.y, out.x), v) == m


def test_recover_message_reads_the_table_without_rerunning_the_network(monkeypatch):
    grid = protocol.table1()

    def no_network(m, v):
        raise AssertionError("recover_message re-ran the network")

    monkeypatch.setattr(protocol, "run_network", no_network)
    for j, v in enumerate(BELL_VARIANT_ORDER):
        for m, row in zip(protocol.MESSAGES, grid):
            assert protocol.recover_message((row[j].y, row[j].x), v) == m
            assert protocol.recover_message([row[j].y, row[j].x], v.value) == m


def test_recover_message_rejects_unknown_bits():
    with pytest.raises(ValueError):
        protocol.recover_message((2, 0), BellVariant.MINUS_PHI)
    with pytest.raises(ValueError):
        protocol.recover_message((0, 0), "no-such-variant")


def test_decoded_output_index_and_bits():
    out = protocol.DecodedOutput(y=1, x=1, phase=-1)
    assert out.index == 3
    assert out.bits == "11"
    assert out.ket == "-|11>"


@pytest.mark.parametrize(
    "step", [lambda s: protocol.encode(s, 2), protocol.decode], ids=["encode", "decode"]
)
@pytest.mark.parametrize(
    "state", [np.array([1, 1, 0, 0]), np.array([np.nan, 0, 0, 0])], ids=["unnormalized", "nan"]
)
def test_steps_check_the_supplied_state(step, state):
    with pytest.raises(ValueError):
        step(state.astype(complex))

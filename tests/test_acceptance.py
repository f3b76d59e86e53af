"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line.  Oracles here are deliberately local to this file (direct matrix
products, grid-scan phase alignment, hand-rolled decompositions) so the
checks stay independent of the library paths they verify."""

import subprocess
import sys
import time

import numpy as np

from densecode import experiment, nmrsim, noise, protocol, qcore, tomo
from densecode.protocol import BELL_VARIANT_ORDER, BellVariant

RT2 = np.sqrt(2.0)


def report(criterion, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}"
    print(line)
    assert ok, line


# --- local oracle helpers ---------------------------------------------------


def brute_force_grid():
    """Direct 4x4 matrix-product enumeration of the whole network."""
    i2 = np.eye(2, dtype=complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    iy = np.array([[0, 1], [-1, 0]], dtype=complex)
    h = np.array([[1, 1], [1, -1]], dtype=complex) / RT2
    cn = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    hb = np.kron(h, i2)
    subs = {
        "minus-phi": np.kron(x, i2),
        "plus-phi": np.eye(4, dtype=complex),
        "minus-psi": np.kron(x, x),
        "plus-psi": np.kron(i2, x),
    }
    grid = {}
    for m, enc in {1: i2, 2: z, 3: x, 4: iy}.items():
        for vname, sub in subs.items():
            s = np.zeros(4, dtype=complex)
            s[0] = 1.0
            s = hb @ (cn @ (np.kron(i2, enc) @ (cn @ (hb @ (sub @ s)))))
            grid[(m, vname)] = s
    return grid


def aligned_distance(u, v):
    """min over a dense global-phase grid of the elementwise max norm."""
    phis = np.linspace(0.0, 2.0 * np.pi, 20000, endpoint=False)
    dists = np.max(np.abs(u[None, :, :] - np.exp(1j * phis)[:, None, None] * v), axis=(1, 2))
    return float(np.min(dists))


def random_density(rng):
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


# --- criteria ----------------------------------------------------------------


def test_criterion_1_bell_preparation_amplitudes():
    s = protocol.prepare_bell(BellVariant.MINUS_PHI)
    expected = np.array([1, 0, 0, -1], dtype=complex) / RT2
    dev = float(np.max(np.abs(s - expected)))
    report("criterion 1 (Bell preparation amplitudes)", dev <= 1e-12, f"max deviation {dev:.3e}")


def test_criterion_2_encoded_states_with_signs():
    start = protocol.prepare_bell(BellVariant.MINUS_PHI)
    expected = {
        1: np.array([1, 0, 0, -1], dtype=complex) / RT2,
        2: np.array([1, 0, 0, 1], dtype=complex) / RT2,
        3: np.array([0, 1, -1, 0], dtype=complex) / RT2,
        4: np.array([0, -1, -1, 0], dtype=complex) / RT2,
    }
    dev = max(
        float(np.max(np.abs(protocol.encode(start, m) - expected[m]))) for m in expected
    )
    report("criterion 2 (four encoded states, signed)", dev <= 1e-12, f"max deviation {dev:.3e}")


def test_criterion_3_correspondence_table_vs_brute_force():
    t0 = time.perf_counter()
    oracle = brute_force_grid()
    grid = protocol.table1()
    worst = 0.0
    for i, m in enumerate(protocol.MESSAGES):
        for j, v in enumerate(BELL_VARIANT_ORDER):
            cell = grid[i][j]
            reference = oracle[(m, v.value)]
            computed = np.zeros(4, dtype=complex)
            computed[cell.index] = cell.phase
            worst = max(worst, float(np.max(np.abs(computed - reference))))
    column = tuple(grid[i][0].ket for i in range(4))
    column_ok = column == ("|10>", "|00>", "|11>", "-|01>")
    elapsed = time.perf_counter() - t0
    report(
        "criterion 3 (correspondence table vs brute force)",
        worst <= 1e-12 and column_ok and elapsed < 1.0,
        f"max deviation {worst:.3e}, first column {' '.join(column)}, {elapsed:.2f}s",
    )


def test_criterion_4_two_bit_capacity():
    ok = True
    for v in BELL_VARIANT_ORDER:
        bits = {protocol.run_network(m, v).bits for m in protocol.MESSAGES}
        ok = ok and bits == {"00", "01", "10", "11"}
        ok = ok and all(protocol.transmit(m, v) == m for m in protocol.MESSAGES)
    report(
        "criterion 4 (two bits per treated spin)",
        ok,
        "message -> readout bits bijective for every start state",
    )


def test_criterion_5_pulse_layer_equivalence():
    system = nmrsim.SpinSystem()
    dist = max(
        aligned_distance(
            nmrsim.compile_sequence(nmrsim.cnot_pulse_sequence(system, refocus=r), system),
            np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
        )
        for r in (False, True)
    )
    min_pop = 1.0
    for m in protocol.MESSAGES:
        for v in BELL_VARIANT_ORDER:
            target = protocol.run_network(m, v).index
            s = nmrsim.compile_sequence(
                nmrsim.dense_coding_sequence(system, m, v), system
            ) @ qcore.basis_state(0)
            min_pop = min(min_pop, float(np.abs(s[target]) ** 2))
    ok = dist < 1e-9 and min_pop >= 1.0 - 1e-9
    report(
        "criterion 5 (pulse-layer equivalence)",
        ok,
        f"CNOT phase-aligned distance {dist:.3e}, min population {min_pop:.12f}",
    )


def test_criterion_6_temporal_averaging_deviation():
    system = nmrsim.SpinSystem(epsilon=1e-3)
    rho = experiment.temporal_average(system, [()])[0]
    diag = np.real(np.diag(rho))
    background = float(np.mean(diag[1:]))
    model = background * np.eye(4, dtype=complex)
    model[0, 0] += diag[0] - background
    residual = float(np.max(np.abs(rho - model)))
    ok = residual <= 1e-10 and diag[0] - background > 0
    report(
        "criterion 6 (temporal-averaging pseudo-pure deviation)",
        ok,
        f"residual off |00><00| + uniform background {residual:.3e}",
    )


def test_criterion_7_tomography_round_trip():
    rng = np.random.default_rng(20260808)
    worst = 0.0
    for _ in range(100):
        rho = random_density(rng)
        rec = tomo.reconstruct(tomo.simulate_readouts(rho))
        worst = max(worst, float(np.max(np.abs(rec - rho))))
    for m in protocol.MESSAGES:
        rho = experiment.ideal_output_density(m)
        rec = tomo.reconstruct(tomo.simulate_readouts(rho))
        worst = max(worst, float(np.max(np.abs(rec - rho))))
    report(
        "criterion 7 (tomography round trip)",
        worst < 1e-8,
        f"max element error over 100 random + 4 protocol outputs {worst:.3e}",
    )


def test_criterion_8_error_scale_demonstration():
    system = nmrsim.SpinSystem()
    t0 = time.perf_counter()
    panels = experiment.fig4_panels(system, noise.DEMO_PARAMS)
    elapsed = time.perf_counter() - t0
    worst = max(p.error.relative for p in panels)
    ok = 0.05 <= worst <= 0.15 and elapsed < 30.0 and noise.DEMO_PARAMS.ensemble_size == 1000
    report(
        "criterion 8 (error-scale demonstration)",
        ok,
        f"max relative element error {worst:.4f} in [0.05, 0.15], {elapsed:.1f}s at ensemble 1000",
    )


def test_criterion_9_validate_determinism():
    cmd = [sys.executable, "-m", "densecode", "validate", "--seed", "20260808",
           "--ensemble-size", "400"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
    )
    report(
        "criterion 9 (validation determinism)",
        ok,
        f"exit codes {first.returncode}/{second.returncode}, "
        f"reports byte-identical: {first.stdout == second.stdout}",
    )

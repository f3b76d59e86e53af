"""Self-checking suite behind ``densecode validate``.

Every check recomputes its expectation from first principles; in particular
the correspondence-table check enumerates the whole network with locally
defined matrices, independent of the protocol module it verifies.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import experiment, nmrsim, noise, protocol, qcore, tomo
from .protocol import BELL_VARIANT_ORDER, BellVariant

#: Random states in the tomography round trip, beside the 4 protocol outputs.
N_RANDOM_STATES = 100

#: Demonstration band for the largest relative element error of the
#: calibrated noise parameters.
ERROR_BAND = (0.05, 0.15)


@dataclass(frozen=True)
class CheckResult:
    """One check's verdict.  ``value`` is the measured figure and ``bound``
    its limit: a check passes when ``value`` lies within ``bound``, at most
    a number or inside a ``(lo, hi)`` band (temporal averaging also needs a
    positive pure weight)."""

    name: str
    passed: bool
    value: float
    bound: float | tuple[float, float]
    detail: str


def _reference_table() -> dict[tuple[int, str], tuple[int, int]]:
    """Brute-force network enumeration with local constants only.

    Returns (basis index, sign) per (message, variant) cell, computed from
    direct 4x4 matrix products.
    """
    i2 = np.eye(2, dtype=complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    iy = np.array([[0, 1], [-1, 0]], dtype=complex)
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
    cn = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    subs = {
        "minus-phi": np.kron(x, i2),
        "plus-phi": np.eye(4, dtype=complex),
        "minus-psi": np.kron(x, x),
        "plus-psi": np.kron(i2, x),
    }
    encodings = {1: i2, 2: z, 3: x, 4: iy}
    grid = {}
    for m, enc in encodings.items():
        for vname, sub in subs.items():
            s = np.zeros(4, dtype=complex)
            s[0] = 1.0
            s = cn @ (np.kron(h, i2) @ (sub @ s))
            s = np.kron(i2, enc) @ s
            s = np.kron(h, i2) @ (cn @ s)
            k = int(np.argmax(np.abs(s)))
            if abs(abs(s[k]) - 1.0) > 1e-12 or abs(s[k].imag) > 1e-12:
                raise AssertionError("reference enumeration produced a non-basis state")
            grid[(m, vname)] = (k, 1 if s[k].real >= 0 else -1)
    return grid


def _check_eq1() -> CheckResult:
    s = protocol.prepare_bell(BellVariant.MINUS_PHI)
    expected = np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2.0)
    dev = float(np.max(np.abs(s - expected)))
    return CheckResult("eq1-bell-prep", dev <= 1e-12, dev, 1e-12, f"max amplitude deviation {dev:.3e}")


def _check_eq2() -> CheckResult:
    start = protocol.prepare_bell(BellVariant.MINUS_PHI)
    rt2 = np.sqrt(2.0)
    expected = {
        1: np.array([1, 0, 0, -1], dtype=complex) / rt2,
        2: np.array([1, 0, 0, 1], dtype=complex) / rt2,
        3: np.array([0, 1, -1, 0], dtype=complex) / rt2,
        4: np.array([0, -1, -1, 0], dtype=complex) / rt2,
    }
    dev = max(
        float(np.max(np.abs(protocol.encode(start, m) - expected[m])))
        for m in protocol.MESSAGES
    )
    return CheckResult("eq2-encodings", dev <= 1e-12, dev, 1e-12, f"max amplitude deviation {dev:.3e}")


def check_table() -> CheckResult:
    """The correspondence table against a brute-force enumeration."""
    reference = _reference_table()
    grid = protocol.table1()
    mismatches = []
    for i, m in enumerate(protocol.MESSAGES):
        for j, v in enumerate(BELL_VARIANT_ORDER):
            cell = grid[i][j]
            ref_k, ref_sign = reference[(m, v.value)]
            if cell.index != ref_k or cell.phase != ref_sign:
                mismatches.append(f"m={m},v={v.value}")
    first_column = tuple(grid[i][0].ket for i in range(4))
    expected_column = ("|10>", "|00>", "|11>", "-|01>")
    wrong = len(mismatches) + sum(a != b for a, b in zip(first_column, expected_column))
    detail = "all 16 cells match brute force" if not mismatches else "cells differ: " + ",".join(mismatches)
    detail += f"; minus-phi column {' '.join(first_column)}"
    return CheckResult("table1-vs-brute-force", wrong == 0, wrong, 0, detail)


def _check_capacity() -> CheckResult:
    bad = []
    for v in BELL_VARIANT_ORDER:
        outputs = {m: protocol.run_network(m, v) for m in protocol.MESSAGES}
        if {out.bits for out in outputs.values()} != {"00", "01", "10", "11"}:
            bad.append(v.value)
        if any(protocol.recover_message((out.y, out.x), v) != m for m, out in outputs.items()):
            bad.append(v.value + ":round-trip")
    ok = not bad
    detail = "message -> bits bijective for all variants" if ok else "failed: " + ",".join(bad)
    return CheckResult("capacity-bijection", ok, len(bad), 0, detail)


def _check_pulse_cnot(sys: nmrsim.SpinSystem) -> CheckResult:
    worst = 0.0
    for refocus in (False, True):
        compiled = nmrsim.compile_sequence(nmrsim.cnot_pulse_sequence(sys, refocus=refocus), sys)
        worst = max(worst, qcore.phase_aligned_distance(compiled, protocol.CNOT))
    return CheckResult(
        "pulse-cnot-distance",
        worst < 1e-9,
        worst,
        1e-9,
        f"phase-aligned max-norm distance {worst:.3e}",
    )


def _pulse_protocol_states(sys: nmrsim.SpinSystem) -> np.ndarray:
    """Noise-free pulse-layer output densities on |00>, indexed [message,
    variant]: the encode+decode circuits after each Bell preparation."""
    decode = nmrsim.decode_sequence(sys)
    circuits = [(nmrsim.encoding_pulse(m), decode) for m in protocol.MESSAGES]
    heads = [nmrsim.bell_prep_sequence(sys, v) for v in BELL_VARIANT_ORDER]
    start = qcore.basis_state(0)[:, None]
    return noise.mean_states(sys, noise.ErrorParams(), 0, circuits, heads, start)


def _check_pulse_protocol(sys: nmrsim.SpinSystem) -> CheckResult:
    states = _pulse_protocol_states(sys)
    worst = 1.0
    for i, m in enumerate(protocol.MESSAGES):
        for j, v in enumerate(BELL_VARIANT_ORDER):
            k = protocol.run_network(m, v).index
            worst = min(worst, float(states[i, j, k, k].real))
    # value: how far the worst population falls short of 1
    return CheckResult(
        "pulse-protocol-populations",
        worst >= 1.0 - 1e-9,
        1.0 - worst,
        1e-9,
        f"min population on expected state {worst:.12f}",
    )


def _check_temporal_averaging(sys: nmrsim.SpinSystem, epsilon: float) -> CheckResult:
    rho = experiment.temporal_average(sys, epsilon, [()])[0]
    _, beta, residual = nmrsim.pseudo_pure_decomposition(rho)
    ok = residual <= 1e-10 and beta > 0
    return CheckResult(
        "temporal-averaging",
        ok,
        residual,
        1e-10,
        f"pseudo-pure residual {residual:.3e}, pure weight {beta:.3e}",
    )


def _random_density(rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def _check_tomography(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    states = np.array(
        [_random_density(rng) for _ in range(N_RANDOM_STATES)]
        + [experiment.ideal_output_density(m) for m in protocol.MESSAGES]
    )
    worst = float(np.max(np.abs(tomo.reconstruct(tomo.simulate_readouts(states)) - states)))
    return CheckResult(
        "tomography-round-trip",
        worst < 1e-8,
        worst,
        1e-8,
        f"max element error over {N_RANDOM_STATES} random + 4 protocol outputs {worst:.3e}",
    )


def _check_error_band(
    sys: nmrsim.SpinSystem, epsilon: float, params: noise.ErrorParams, seed: int
) -> CheckResult:
    panels = experiment.fig4_panels(sys, epsilon, params, seed=seed)
    worst = max(panel.error.relative for panel in panels)
    lo, hi = ERROR_BAND
    return CheckResult(
        "noise-error-band",
        lo <= worst <= hi,
        worst,
        ERROR_BAND,
        f"max relative element error {worst:.4f} (band {lo:.2f}..{hi:.2f})",
    )


def _check_determinism(
    sys: nmrsim.SpinSystem, params: noise.ErrorParams, seed: int
) -> CheckResult:
    small = replace(params, ensemble_size=min(params.ensemble_size, 32))
    first = experiment.noisy_output_density(sys, small, 1, BellVariant.MINUS_PHI, seed)
    second = experiment.noisy_output_density(sys, small, 1, BellVariant.MINUS_PHI, seed)
    identical = bool(np.array_equal(first, second))
    return CheckResult(
        "noise-determinism",
        identical,
        float(np.max(np.abs(first - second))),
        0.0,
        "repeated run bit-identical" if identical else "repeated run differs",
    )


def run_validation(
    sys: nmrsim.SpinSystem, epsilon: float, params: noise.ErrorParams, seed: int
) -> list[CheckResult]:
    """Run every check; all must pass on a healthy build."""
    return [
        _check_eq1(),
        _check_eq2(),
        check_table(),
        _check_capacity(),
        _check_pulse_cnot(sys),
        _check_pulse_protocol(sys),
        _check_temporal_averaging(sys, epsilon),
        _check_tomography(seed),
        _check_error_band(sys, epsilon, params, seed),
        _check_determinism(sys, params, seed),
    ]

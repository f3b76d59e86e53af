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
    h_b = np.kron(np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0), i2)
    cn = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    subs = {
        "minus-phi": np.kron(x, i2),
        "plus-phi": np.eye(4, dtype=complex),
        "minus-psi": np.kron(x, x),
        "plus-psi": np.kron(i2, x),
    }
    encodings = {m: np.kron(i2, enc) for m, enc in {1: i2, 2: z, 3: x, 4: iy}.items()}
    ket00 = np.array([1, 0, 0, 0], dtype=complex)
    grid = {}
    for m, enc in encodings.items():
        for vname, sub in subs.items():
            s = cn @ (h_b @ (sub @ ket00))
            s = h_b @ (cn @ (enc @ s))
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


def check_table(grid) -> CheckResult:
    """``grid``, laid out as ``protocol.table1()`` returns it, against a
    brute-force enumeration: each cell's index and sign, and the paper's
    minus-phi column.  ``grid`` is checked as given, never recomputed."""
    reference = _reference_table()
    mismatches = [
        f"m={m},v={v.value}"
        for m, row in zip(protocol.MESSAGES, grid)
        for v, cell in zip(BELL_VARIANT_ORDER, row)
        if (cell.index, cell.phase) != reference[(m, v.value)]
    ]
    first_column = tuple(row[0].ket for row in grid)
    expected_column = ("|10>", "|00>", "|11>", "-|01>")
    wrong = len(mismatches) + sum(a != b for a, b in zip(first_column, expected_column))
    detail = "all 16 cells match brute force" if not mismatches else "cells differ: " + ",".join(mismatches)
    detail += f"; minus-phi column {' '.join(first_column)}"
    return CheckResult("table1-vs-brute-force", wrong == 0, wrong, 0, detail)


def _check_capacity(grid) -> CheckResult:
    """Each column of ``grid`` maps the four messages onto the four bit
    pairs, and ``protocol.recover_message`` inverts it."""
    bad = []
    for v, column in zip(BELL_VARIANT_ORDER, zip(*grid)):
        if {out.bits for out in column} != {"00", "01", "10", "11"}:
            bad.append(v.value)
        if any(protocol.recover_message((o.y, o.x), v) != m for m, o in zip(protocol.MESSAGES, column)):
            bad.append(v.value + ":round-trip")
    detail = "message -> bits bijective for all variants" if not bad else "failed: " + ",".join(bad)
    return CheckResult("capacity-bijection", not bad, len(bad), 0, detail)


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
    return noise.mean_states(sys, noise.ErrorParams(), circuits, heads, start)


def _check_pulse_protocol(sys: nmrsim.SpinSystem, grid) -> CheckResult:
    """The noise-free pulse layer puts each (message, variant) output on
    the basis state of its ``grid`` cell."""
    states = _pulse_protocol_states(sys)
    worst = 1.0
    for i, j in np.ndindex(states.shape[:2]):
        k = grid[i][j].index
        worst = min(worst, float(states[i, j, k, k].real))
    # value: how far the worst population falls short of 1
    return CheckResult(
        "pulse-protocol-populations",
        worst >= 1.0 - 1e-9,
        1.0 - worst,
        1e-9,
        f"min population on expected state {worst:.12f}",
    )


def _check_temporal_averaging(sys: nmrsim.SpinSystem) -> CheckResult:
    rho = experiment.temporal_average(sys, [()])[0]
    _, beta, residual = nmrsim.pseudo_pure_decomposition(rho)
    ok = residual <= 1e-10 and beta > 0
    return CheckResult(
        "temporal-averaging",
        ok,
        residual,
        1e-10,
        f"pseudo-pure residual {residual:.3e}, pure weight {beta:.3e}",
    )


def _random_densities(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` random states a a^H / tr(a a^H), (n, 4, 4), in one draw: bit for bit
    the states drawn one at a time, real part of each ``a`` first, then imaginary."""
    z = rng.standard_normal((n, 2, 4, 4))
    a = z[:, 0] + 1j * z[:, 1]
    rho = a @ a.conj().transpose(0, 2, 1)
    return rho / np.trace(rho, axis1=1, axis2=2)[:, None, None]


def _check_tomography(seed: int) -> CheckResult:
    drawn = _random_densities(np.random.default_rng(seed), N_RANDOM_STATES)
    states = np.concatenate([drawn, [experiment.ideal_output_density(m) for m in protocol.MESSAGES]])
    worst = float(np.max(np.abs(tomo.reconstruct(tomo.simulate_readouts(states)) - states)))
    return CheckResult(
        "tomography-round-trip",
        worst < 1e-8,
        worst,
        1e-8,
        f"max element error over {N_RANDOM_STATES} random + 4 protocol outputs {worst:.3e}",
    )


def _check_error_band(sys: nmrsim.SpinSystem, params: noise.ErrorParams) -> CheckResult:
    panels = experiment.fig4_panels(sys, params)
    worst = max(panel.error.relative for panel in panels)
    lo, hi = ERROR_BAND
    return CheckResult(
        "noise-error-band",
        lo <= worst <= hi,
        worst,
        ERROR_BAND,
        f"max relative element error {worst:.4f} (band {lo:.2f}..{hi:.2f})",
    )


def _check_determinism(sys: nmrsim.SpinSystem, params: noise.ErrorParams) -> CheckResult:
    small = replace(params, ensemble_size=min(params.ensemble_size, 32))
    first = experiment.noisy_output_density(sys, small, 1, BellVariant.MINUS_PHI)
    second = experiment.noisy_output_density(sys, small, 1, BellVariant.MINUS_PHI)
    identical = bool(np.array_equal(first, second))
    return CheckResult(
        "noise-determinism",
        identical,
        float(np.max(np.abs(first - second))),
        0.0,
        "repeated run bit-identical" if identical else "repeated run differs",
    )


def run_validation(sys: nmrsim.SpinSystem, params: noise.ErrorParams) -> list[CheckResult]:
    """Run every check; all must pass on a healthy build.  ``params.seed``
    also draws the tomography check's random states.  Each ideal network
    runs once: the table, capacity and pulse-protocol checks read one grid."""
    grid = protocol.table1()
    return [
        _check_eq1(),
        _check_eq2(),
        check_table(grid),
        _check_capacity(grid),
        _check_pulse_cnot(sys),
        _check_pulse_protocol(sys, grid),
        _check_temporal_averaging(sys),
        _check_tomography(params.seed),
        _check_error_band(sys, params),
        _check_determinism(sys, params),
    ]

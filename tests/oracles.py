"""Reference implementations the tests compare the library against.

The library applies every pulse event through one row-permutation engine
(``densecode.nmrsim._propagate``).  These oracles build the same objects the
direct way: a pulse as the Kronecker product of a single-spin rotation
matrix with the identity, a delay as a diagonal matrix, a program as the
matrix product of its events.  A member's errors are its row of the
library's own draw chunks (``member_draws``): the oracles check the engine
and the average, not the draw stream, whose contract has tests of its own.
``reference_propagate`` is the engine as it was before its per-chunk factor
table and in-place updates: every factor recomputed per event, every update
a fresh array.  The library engine must equal it bit for bit.
``noisy_compile`` applies one member's draws with the library engine: it
is the reference for the chunked ensemble average, not for the engine.
``quadrature_moments`` integrates over the error distribution itself, by a
tensor Gauss-Legendre rule: the exact mean that a Monte Carlo average
estimates, and the variance that sets its standard error, so a draw that
is reproducible but biased (a wrong sigma, a wrong truncation) shows.
``temporal_average`` compiles each permutation prefix and the circuit as one
program and evolves the thermal state run by run: the reference for the
block-composing ensemble average behind ``experiment.temporal_average``.
``CNOT_AB``, the CNOT with spin a as control, is the ideal gate of the
control-a pulse CNOT; the library's gate set has no use for it.
"""

from __future__ import annotations

import math

import numpy as np

from densecode import nmrsim, qcore
from densecode.nmrsim import PulseSequence, Rf, SpinSystem
from densecode.noise import ErrorParams, _draw_chunks


#: Controlled-NOT with spin a as control and spin b as target, the ideal
#: gate of ``nmrsim.cnot_pulse_sequence(sys, control="a")``.
CNOT_AB = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
    ],
    dtype=complex,
)


def pauli_rotation(axis: str, angle: float) -> np.ndarray:
    """Single-spin rotation exp(-i*angle*sigma_axis/2) for axis 'X', 'Y' or 'Z'."""
    try:
        sigma = {"X": qcore.SIGMA_X, "Y": qcore.SIGMA_Y, "Z": qcore.SIGMA_Z}[axis]
    except KeyError:
        raise ValueError(f"unknown rotation axis {axis!r}") from None
    angle = float(angle)
    if not np.isfinite(angle):
        raise ValueError("rotation angle must be finite")
    return np.cos(angle / 2) * qcore.ID2 - 1j * np.sin(angle / 2) * sigma


def rf_unitary(spin: str, axis: str, angle: float) -> np.ndarray:
    """Two-spin unitary of a single hard pulse."""
    ev = Rf(spin, axis, angle)
    u2 = pauli_rotation(ev.axis, ev.angle)
    if ev.spin == "b":
        return np.kron(u2, qcore.ID2)
    return np.kron(qcore.ID2, u2)


#: Diagonal of sigma_z on b times sigma_z on a.
_ZZ_DIAG = np.array([1.0, -1.0, -1.0, 1.0])


def j_evolution(sys: SpinSystem, t: float) -> np.ndarray:
    """Weak-coupling free evolution exp(-i*2*pi*J*t*(sz_b/2)(sz_a/2))."""
    if not (math.isfinite(t) and t >= 0):
        raise ValueError("evolution time must be finite and >= 0")
    phases = np.exp(-1j * (math.pi * sys.j_coupling * t / 2.0) * _ZZ_DIAG)
    return np.diag(phases)


def flatten(block: tuple) -> PulseSequence:
    """The events of ``block``, a pulse program or a tuple of blocks, in
    time order: the oracles' own flattening, apart from ``nmrsim.events``."""
    parts = (flatten(part) if isinstance(part, tuple) else (part,) for part in block)
    return sum(parts, ())


def kron_compile(seq: PulseSequence, sys: SpinSystem) -> np.ndarray:
    """Noise-free propagator of ``seq``: event matrices left-multiplied in
    time order."""
    seq = flatten(seq)
    u = qcore.ID4.copy()
    for ev in seq:
        if isinstance(ev, Rf):
            u = rf_unitary(ev.spin, ev.axis, ev.angle) @ u
        else:
            u = j_evolution(sys, ev.duration) @ u
    return u


def reference_propagate(
    seq: PulseSequence,
    sys: SpinSystem,
    draws: np.ndarray,
    calib_offset: float,
    start: np.ndarray = qcore.ID4,
) -> np.ndarray:
    """Per-member U_k @ start, applying each event's factors as they are
    computed, on a members-first stack: the reference for
    ``nmrsim._propagate``, returned as its (4, k, n) stack, members last.
    ``start`` is a (4, k) factor or a (4, k, n) stack of per-member starts."""
    seq = flatten(seq)
    deltas, offs_a, offs_b = draws.T
    if start.ndim == 3:
        u = np.moveaxis(start, -1, 0).copy()
    else:
        u = np.broadcast_to(start, (len(draws),) + start.shape).copy()
    for ev in seq:
        if isinstance(ev, Rf):
            angles = ev.angle * (1.0 + calib_offset + deltas)
            perm, phase = nmrsim._RF_ROWS[ev.spin, ev.axis]
            c = np.cos(angles / 2.0)[:, None, None]
            s = np.sin(angles / 2.0)[:, None, None] * phase[:, None]
            u = c * u + s * u[:, perm, :]
        else:
            t = ev.duration
            angle = (
                (math.pi * sys.j_coupling * t / 2.0) * _ZZ_DIAG[None, :]
                + (math.pi * t) * (offs_b[:, None] * nmrsim._ZB_DIAG[None, :])
                + (math.pi * t) * (offs_a[:, None] * nmrsim._ZA_DIAG[None, :])
            )
            u = np.exp(-1j * angle)[:, :, None] * u
    return np.moveaxis(u, 0, -1)


def member_draws(p: ErrorParams, seed) -> np.ndarray:
    """Per-member (RF deviation, offset of spin a, offset of spin b), shape
    (ensemble_size, 3): the library's draw chunks for ``seed``, joined."""
    return np.concatenate(list(_draw_chunks(p, seed)))


def noisy_compile(
    seq: PulseSequence, sys: SpinSystem, p: ErrorParams, sample_seed, member: int = 0
) -> np.ndarray:
    """Propagator of member ``member`` of the ensemble drawn with
    ``sample_seed``, with that member's drawn errors.

    With all spreads and the calibration offset at zero this equals the
    noise-free compilation exactly.
    """
    draws = member_draws(p, sample_seed)[member : member + 1]
    return nmrsim._compile_stack(seq, sys, draws, p.calib_offset)[..., 0]


def quadrature_moments(
    seq: PulseSequence, sys: SpinSystem, p: ErrorParams, start: np.ndarray, nodes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance (the mean of |x - mean|^2) of each element of
    W W^H, W = U start, over the member errors of ``p``, each (4, 4).

    Each of the three errors is a normal truncated at +-3 sigma: a
    Gauss-Legendre rule of ``nodes`` nodes on [-3, 3], weighted by the
    normal density and normalised, scaled by the error's sigma.  The
    tensor rule's nodes are fed to the library engine as draws.  The mean
    is what ``noise.mean_states`` estimates with T2 off.
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    x = 3.0 * x
    w = w * np.exp(-(x**2) / 2.0)
    w /= w.sum()
    grid = np.stack(np.meshgrid(x, x, x, indexing="ij"), axis=-1).reshape(-1, 3)
    weights = (w[:, None, None] * w[None, :, None] * w[None, None, :]).ravel()
    draws = grid * [p.rf_spread, p.offset_spread_hz, p.offset_spread_hz]
    stack = nmrsim._compile_stack(seq, sys, draws, p.calib_offset, start)
    outer = np.einsum("ikn,jkn->nij", stack, stack.conj())
    mean = np.tensordot(weights, outer, axes=1)
    return mean, np.tensordot(weights, np.abs(outer - mean) ** 2, axes=1)


def temporal_average(
    sys: SpinSystem, epsilon: float, circuit: PulseSequence, refocus: bool = True
) -> np.ndarray:
    """Mean of U rho_th U^H over the three runs, U compiled from each
    permutation prefix followed by ``circuit``."""
    circuit = flatten(circuit)
    rho_th = nmrsim.thermal_state(sys, epsilon)
    total = np.zeros((4, 4), dtype=complex)
    for prefix in nmrsim.permutation_sequences(sys, refocus=refocus):
        u = nmrsim.compile_sequence(flatten(prefix) + circuit, sys)
        total += u @ rho_th @ u.conj().T
    return total / 3.0

"""Phenomenological pulse-error model: RF inhomogeneity, static-field
inhomogeneity, pulse miscalibration and T2 signal decay.

Each ensemble member draws one RF-amplitude deviation and one resonance
offset per spin (truncated Gaussians, +-3 sigma); the draws are static for
the member, so refocusing pairs cancel them exactly the way a spin echo
does.  T2 decay is applied after averaging as a coherence-order-dependent
damping of off-diagonal elements over the total free-evolution time.

The ensemble average propagates a factor V of the input (rho0 = V V^H)
rather than full propagators: an RF pulse is cos*U + sin*(a signed row
permutation of U) and a delay is a diagonal phase, so no per-event matrix
is built or multiplied.  Members are drawn, propagated and summed in
chunks of ``CHUNK_SIZE``, in a fixed order, so memory stays bounded however
large the ensemble is.

Results are deterministic for a fixed seed: member k always consumes the
k-th spawned seed and the chunks are summed in member order.  The draws
depend only on ``(params, seed)``, not on the pulse program, so programs
run on one sample share them: the fig4 pipeline draws each chunk once and
composes its twelve programs from per-member block propagators compiled
once each.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from . import qcore
from .nmrsim import AXES, SPINS, PulseSequence, Rf, SpinSystem, _ZA_DIAG, _ZB_DIAG, _ZZ_DIAG

#: Members drawn, propagated and summed together in the ensemble average.
CHUNK_SIZE = 2048
#: Largest accepted ``ErrorParams.ensemble_size``.
MAX_ENSEMBLE_SIZE = 1_000_000


@dataclass(frozen=True)
class ErrorParams:
    """Error-source magnitudes for the ensemble simulation.

    rf_spread        fractional std-dev of RF pulse amplitude
    calib_offset     fractional systematic rotation-angle error
    offset_spread_hz std-dev of the per-member resonance offset (Hz)
    t2_a, t2_b       transverse relaxation times (s); inf disables decay
    ensemble_size    number of molecules averaged
    """

    rf_spread: float = 0.0
    calib_offset: float = 0.0
    offset_spread_hz: float = 0.0
    t2_a: float = math.inf
    t2_b: float = math.inf
    ensemble_size: int = 1

    def __post_init__(self) -> None:
        for name in ("rf_spread", "offset_spread_hz"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"ErrorParams.{name} must be finite and >= 0")
        if not math.isfinite(self.calib_offset):
            raise ValueError("ErrorParams.calib_offset must be finite")
        for name in ("t2_a", "t2_b"):
            if not getattr(self, name) > 0:
                raise ValueError(f"ErrorParams.{name} must be positive")
        size = self.ensemble_size
        valid = isinstance(size, int) and not isinstance(size, bool)
        if not (valid and 1 <= size <= MAX_ENSEMBLE_SIZE):
            raise ValueError(
                f"ErrorParams.ensemble_size must be an integer in [1, {MAX_ENSEMBLE_SIZE}], "
                f"got {size!r}"
            )


#: Calibrated demonstration parameters: a coarse grid search over
#: (rf_spread, calib_offset, offset_spread_hz) selected the point whose
#: simulated experiments land near a 10% largest element error
#: (see README and scripts/calibrate_noise.py).
DEMO_PARAMS = ErrorParams(
    rf_spread=0.05,
    calib_offset=0.01,
    offset_spread_hz=30.0,
    t2_a=0.3,
    t2_b=0.3,
    ensemble_size=1000,
)
DEMO_SEED = 20260808


def _truncated_normal(rng: np.random.Generator, sigma: float) -> float:
    """Gaussian draw truncated at +-3 sigma.

    The unit draw is rejected independently of sigma, so for a fixed seed the
    stream consumption is identical for every sigma and the result scales
    monotonically with it.
    """
    z = rng.standard_normal()
    while abs(z) > 3.0:
        z = rng.standard_normal()
    return float(sigma * z)


def _member_draws(p: ErrorParams, seed) -> tuple[float, float, float]:
    """(RF deviation, offset of spin a, offset of spin b) for one member."""
    rng = np.random.default_rng(seed)
    delta = _truncated_normal(rng, p.rf_spread)
    off_a = _truncated_normal(rng, p.offset_spread_hz)
    off_b = _truncated_normal(rng, p.offset_spread_hz)
    return delta, off_a, off_b


def _draw_chunks(p: ErrorParams, seed) -> Iterator[np.ndarray]:
    """Per-member (RF deviation, offset a, offset b) in member order, in
    chunks of shape (<= CHUNK_SIZE, 3).

    Member k uses the k-th child of SeedSequence(seed): successive ``spawn``
    calls on one SeedSequence continue its child numbering, so the chunks
    are the draws of a single ``spawn(ensemble_size)``.
    """
    parent = np.random.SeedSequence(seed)
    for start in range(0, p.ensemble_size, CHUNK_SIZE):
        children = parent.spawn(min(CHUNK_SIZE, p.ensemble_size - start))
        yield np.array([_member_draws(p, child) for child in children])


def _signed_permutation(spin: str, axis: str) -> tuple[np.ndarray, np.ndarray]:
    """(perm, phase) with -i*S @ U == phase[:, None] * U[perm] for the Pauli
    operator S of ``axis`` on ``spin``: every row of S has one nonzero entry."""
    sigma = {"X": qcore.SIGMA_X, "Y": qcore.SIGMA_Y, "Z": qcore.SIGMA_Z}[axis]
    full = np.kron(sigma, qcore.ID2) if spin == "b" else np.kron(qcore.ID2, sigma)
    perm = np.argmax(np.abs(full), axis=1)
    return perm, -1j * full[np.arange(4), perm]


#: (perm, phase) of each (spin, axis) pair; an RF pulse exp(-i*theta*S/2)
#: acts as U -> cos(theta/2)*U + sin(theta/2)*phase[:, None]*U[perm].
_RF_ROWS = {(spin, axis): _signed_permutation(spin, axis) for spin in SPINS for axis in AXES}


def _propagate(
    seq: PulseSequence,
    sys: SpinSystem,
    p: ErrorParams,
    draws: np.ndarray,
    start: np.ndarray = qcore.ID4,
) -> np.ndarray:
    """Per-member U_k @ start for the propagators U_k of ``seq``, shape
    (n, 4, k) for a (4, k) ``start``; the identity gives the propagators."""
    deltas, offs_a, offs_b = draws.T
    u = np.broadcast_to(start, (len(draws),) + start.shape).copy()
    for ev in seq:
        if isinstance(ev, Rf):
            angles = ev.angle * (1.0 + p.calib_offset + deltas) * ev.phase_sign
            perm, phase = _RF_ROWS[ev.spin, ev.axis]
            c = np.cos(angles / 2.0)[:, None, None]
            s = np.sin(angles / 2.0)[:, None, None] * phase[:, None]
            u = c * u + s * u[:, perm, :]
        else:
            t = ev.duration
            angle = (
                (math.pi * sys.j_coupling * t / 2.0) * _ZZ_DIAG[None, :]
                + (math.pi * t) * (offs_b[:, None] * _ZB_DIAG[None, :])
                + (math.pi * t) * (offs_a[:, None] * _ZA_DIAG[None, :])
            )
            u = np.exp(-1j * angle)[:, :, None] * u
    return u


def noisy_compile(seq: PulseSequence, sys: SpinSystem, p: ErrorParams, sample_seed) -> np.ndarray:
    """Propagator of one ensemble member, with that member's drawn errors.

    With all spreads and the calibration offset at zero this equals the
    noise-free compilation exactly.
    """
    draws = np.array([_member_draws(p, sample_seed)])
    return _propagate(seq, sys, p, draws)[0]


def _second_moment(w: np.ndarray) -> np.ndarray:
    """Sum over members of W_k W_k^H for a (n, 4, k) stack."""
    return np.einsum("nik,njk->ij", w, w.conj())


# Coherences damped by T2 of spin a / spin b: elements whose row and column
# differ in that spin's label.
_COHERENT_A = _ZA_DIAG[:, None] != _ZA_DIAG[None, :]
_COHERENT_B = _ZB_DIAG[:, None] != _ZB_DIAG[None, :]


def _mean_states(
    p: ErrorParams,
    seed,
    second_moments: Callable[[np.ndarray], np.ndarray],
    t_totals,
) -> np.ndarray:
    """Bulk-sample states of one or more programs run on one sample.

    ``second_moments(draws)`` returns, for a chunk of member draws, the sum
    over its members of W_k W_k^H for each program (shape
    ``t_totals.shape + (4, 4)``, W_k = U_k times a factor of the input).
    The chunks are summed in member order, so memory does not grow with the
    ensemble and the result is bit-identical for a fixed seed.  The mean of
    each program is T2-damped over its own free-evolution time in
    ``t_totals`` (seconds) and checked as a density matrix.
    """
    t_totals = np.asarray(t_totals, dtype=float)
    total = np.zeros(t_totals.shape + (4, 4), dtype=complex)
    for draws in _draw_chunks(p, seed):
        total += second_moments(draws)
    f_a = np.exp(-t_totals / p.t2_a)[..., None, None]
    f_b = np.exp(-t_totals / p.t2_b)[..., None, None]
    rho = total / p.ensemble_size * f_a**_COHERENT_A * f_b**_COHERENT_B
    rho = (rho + rho.conj().swapaxes(-1, -2)) / 2.0
    for state in rho.reshape(-1, 4, 4):
        qcore.check_density_matrix(state)
    return rho


def ensemble_average(
    seq: PulseSequence,
    sys: SpinSystem,
    p: ErrorParams,
    rho0: np.ndarray,
    seed=0,
) -> np.ndarray:
    """Bulk-sample output state: mean over members of U_k rho0 U_k^H, then T2.

    Member k uses the k-th child of SeedSequence(seed); members are drawn,
    propagated and summed in chunks of ``CHUNK_SIZE`` in member order, so the
    result is bit-identical for a fixed seed and memory does not grow with
    ``p.ensemble_size``.  Only a factor V of rho0 = V V^H is propagated (one
    column for a pure input).  The draws are a function of ``(p, seed)``
    alone: every sequence run with the same ``(p, seed)`` sees the same
    sample, and callers running several sequences on one sample (the fig4
    pipeline) draw once and reuse the draws.
    """
    v = qcore.psd_factor(qcore.check_density_matrix(rho0))

    def second_moment(draws: np.ndarray) -> np.ndarray:
        return _second_moment(_propagate(seq, sys, p, draws, v))

    return _mean_states(p, seed, second_moment, seq.total_delay())

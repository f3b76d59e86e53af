"""Phenomenological pulse-error model: RF inhomogeneity, static-field
inhomogeneity, pulse miscalibration and T2 signal decay.

Each ensemble member draws one RF-amplitude deviation and one resonance
offset per spin (truncated Gaussians, +-3 sigma); the draws are static for
the member, so refocusing pairs cancel them exactly the way a spin echo
does.  T2 decay is applied after averaging as a coherence-order-dependent
damping of off-diagonal elements over the total free-evolution time.

Results are deterministic for a fixed seed: member k always consumes the
k-th spawned seed and the average runs in member order.  The draws depend
only on ``(params, seed)``, not on the pulse program, so they are taken once
per ``(params, seed)`` and reused across sequences: the fig4 pipeline draws
once and composes its twelve programs from per-member block propagators
compiled once each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qcore
from .nmrsim import PulseSequence, Rf, SpinSystem, _ZA_DIAG, _ZB_DIAG, _ZZ_DIAG


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
        if isinstance(size, bool) or not (isinstance(size, int) and size >= 1):
            raise ValueError("ErrorParams.ensemble_size must be an integer >= 1")


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


def _draw_errors(p: ErrorParams, seed) -> np.ndarray:
    """Per-member (RF deviation, offset a, offset b), shape (n, 3).

    Member k uses the k-th child of SeedSequence(seed).  The draws depend on
    ``(p, seed)`` only, so one draw serves every sequence run on the sample.
    """
    children = np.random.SeedSequence(seed).spawn(p.ensemble_size)
    return np.array([_member_draws(p, child) for child in children])


def _noisy_unitaries(
    seq: PulseSequence, sys: SpinSystem, p: ErrorParams, draws: np.ndarray
) -> np.ndarray:
    """Stack of per-member propagators of ``seq``, shape (n, 4, 4)."""
    deltas, offs_a, offs_b = draws.T
    n = len(draws)
    u = np.broadcast_to(qcore.ID4, (n, 4, 4)).copy()
    for ev in seq:
        if isinstance(ev, Rf):
            angles = ev.angle * (1.0 + p.calib_offset + deltas) * ev.phase_sign
            c = np.cos(angles / 2.0)
            s = np.sin(angles / 2.0)
            sigma = {"X": qcore.SIGMA_X, "Y": qcore.SIGMA_Y, "Z": qcore.SIGMA_Z}[ev.axis]
            u2 = c[:, None, None] * qcore.ID2 - 1j * s[:, None, None] * sigma
            if ev.spin == "b":
                u4 = np.einsum("nab,cd->nacbd", u2, qcore.ID2).reshape(n, 4, 4)
            else:
                u4 = np.einsum("ab,ncd->nacbd", qcore.ID2, u2).reshape(n, 4, 4)
            u = u4 @ u
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
    return _noisy_unitaries(seq, sys, p, draws)[0]


def _t2_damping(rho: np.ndarray, t_total: float, p: ErrorParams) -> np.ndarray:
    f_a = math.exp(-t_total / p.t2_a) if math.isfinite(p.t2_a) else 1.0
    f_b = math.exp(-t_total / p.t2_b) if math.isfinite(p.t2_b) else 1.0
    col_b, row_b = np.meshgrid(_ZB_DIAG, _ZB_DIAG)
    col_a, row_a = np.meshgrid(_ZA_DIAG, _ZA_DIAG)
    damp = np.where(row_b != col_b, f_b, 1.0) * np.where(row_a != col_a, f_a, 1.0)
    return rho * damp


def _average(u: np.ndarray, rho0: np.ndarray, p: ErrorParams, t_total: float) -> np.ndarray:
    """Mean over members of U_k rho0 U_k^H, T2-damped over ``t_total`` seconds
    of free evolution; input and output are checked as density matrices."""
    v = u @ qcore.check_density_matrix(rho0)
    rho = np.einsum("nij,nkj->ik", v, u.conj()) / len(u)
    rho = _t2_damping(rho, t_total, p)
    rho = (rho + rho.conj().T) / 2.0
    return qcore.check_density_matrix(rho)


def ensemble_average(
    seq: PulseSequence,
    sys: SpinSystem,
    p: ErrorParams,
    rho0: np.ndarray,
    seed=0,
) -> np.ndarray:
    """Bulk-sample output state: mean over members of U_k rho0 U_k^H, then T2.

    Member k uses the k-th child of SeedSequence(seed) and members are summed
    in order, so the result is bit-identical for a fixed seed.  The draws are
    a function of ``(p, seed)`` alone: every sequence run with the same
    ``(p, seed)`` sees the same sample, and callers running several sequences
    on one sample (the fig4 pipeline) draw once and reuse the draws.
    """
    u = _noisy_unitaries(seq, sys, p, _draw_errors(p, seed))
    return _average(u, rho0, p, seq.total_delay())

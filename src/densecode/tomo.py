"""State tomography: simulated readout experiments and least-squares fit.

The readout set is the 9 pulse pairs {I, X90, Y90} x {I, X90, Y90}.  A
record stores exact product-operator expectations of the rotated state, but
the fit only consumes what NMR detection can see: the single-quantum
transverse terms of each spin (in-phase and antiphase, 8 values per
experiment).  Through the 9 rotations those terms determine all 15 free
coefficients of the product-operator expansion, so the reconstruction is an
overdetermined linear least squares (linear-inversion tomography, James et
al., PRA 64, 052312 (2001)).

The map is constant: the 9 readout unitaries (compiled from their pulses)
and each readout's 8x15 block of the design matrix are built once at
import, so simulating the readouts is one batched conjugation and a
reconstruction stacks the blocks of its records for a single ``lstsq``.  A
fit that dips below -1e-6 is replaced by the nearest density matrix
(``clip_to_density``, an exact projection).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from . import nmrsim, qcore

READOUT_PULSES = ("I", "X90", "Y90")

PAULI_LABELS = ("I", "X", "Y", "Z")
_PAULI = {
    "I": qcore.ID2,
    "X": qcore.SIGMA_X,
    "Y": qcore.SIGMA_Y,
    "Z": qcore.SIGMA_Z,
}

#: All 16 two-spin product operators; index p = 4*(b factor) + (a factor).
PRODUCT_LABELS = tuple(b + a for b, a in product(PAULI_LABELS, PAULI_LABELS))
PRODUCT_OPS = tuple(np.kron(_PAULI[lbl[0]], _PAULI[lbl[1]]) for lbl in PRODUCT_LABELS)

#: Observables a spectrometer sees directly: transverse magnetization of each
#: spin plus its antiphase partner (the in-phase/antiphase doublet lines).
DETECTABLE_LABELS = ("IX", "IY", "ZX", "ZY", "XI", "YI", "XZ", "YZ")
DETECTABLE_INDICES = tuple(PRODUCT_LABELS.index(lbl) for lbl in DETECTABLE_LABELS)

_FIT_INDICES = tuple(p for p in range(16) if PRODUCT_LABELS[p] != "II")


class RankDeficiencyError(ValueError):
    """Raised when the supplied records cannot determine all 15 coefficients."""


@dataclass(frozen=True)
class ReadoutRecord:
    """Observations of one readout experiment.

    ``observed`` is indexed by PRODUCT_LABELS and holds the product-operator
    expectations of the post-pulse state (the identity slot is always 1).
    Observations are modeled as exact expectations rather than synthesized
    spectra; the reconstruction consumes only the transverse-detectable
    subset, mirroring what a spectrometer extracts from line fits.
    """

    readout_b: str
    readout_a: str
    observed: np.ndarray

    def __post_init__(self) -> None:
        if self.readout_b not in READOUT_PULSES or self.readout_a not in READOUT_PULSES:
            raise ValueError(f"readout pulses must be in {READOUT_PULSES}")
        obs = np.asarray(self.observed, dtype=float)
        if obs.shape != (16,):
            raise ValueError("observed must hold 16 values")
        if not np.all(np.isfinite(obs)):
            raise ValueError("observed values must be finite")
        if abs(obs[0] - 1.0) > 1e-9:
            raise ValueError("identity expectation must be 1")
        object.__setattr__(self, "observed", obs)


#: Axis of the pi/2 pulse of each readout label ("I": no pulse).
_READOUT_AXES = {"I": None, "X90": "X", "Y90": "Y"}


def readout_unitary(readout_b: str, readout_a: str) -> np.ndarray:
    """Two-spin unitary of a readout pulse pair, compiled from its RF pulses."""
    pulses = (("b", _READOUT_AXES[readout_b]), ("a", _READOUT_AXES[readout_a]))
    events = tuple(nmrsim.Rf(spin, axis, np.pi / 2) for spin, axis in pulses if axis)
    return nmrsim.compile_sequence(nmrsim.PulseSequence(events), nmrsim.SpinSystem())


#: The 9 readout pulse pairs, in record order, and their unitaries (9, 4, 4).
READOUT_PAIRS = tuple(product(READOUT_PULSES, READOUT_PULSES))
_READOUT_INDEX = {pair: r for r, pair in enumerate(READOUT_PAIRS)}
_READOUT_UNITARIES = np.array([readout_unitary(rb, ra) for rb, ra in READOUT_PAIRS])
_READOUT_ADJOINTS = _READOUT_UNITARIES.conj().transpose(0, 2, 1)

_PRODUCT_STACK = np.array(PRODUCT_OPS)
_DETECTABLE_OPS = _PRODUCT_STACK[list(DETECTABLE_INDICES)]
_FIT_OPS = _PRODUCT_STACK[list(_FIT_INDICES)]

#: Design block of each readout, (9, 8, 15): entry [r, i, j] is
#: tr(U_r^H Q_i U_r P_j)/4, the response of detectable observable Q_i after
#: readout r to coefficient c_j of the fitted product operator P_j.
_DESIGN_BLOCKS = np.einsum(
    "riad,jda->rij",
    _READOUT_ADJOINTS[:, None] @ _DETECTABLE_OPS @ _READOUT_UNITARIES[:, None],
    _FIT_OPS,
).real / 4.0


def simulate_readouts(rho: np.ndarray) -> list[ReadoutRecord]:
    """Deterministic, noise-free readout records for all 9 pulse pairs."""
    rho = qcore.check_density_matrix(rho, psd_floor=1e-6)
    rotated = _READOUT_UNITARIES @ rho @ _READOUT_ADJOINTS
    # tr(P rotated_r) for every readout r and product operator P
    observed = np.einsum("pab,rba->rp", _PRODUCT_STACK, rotated).real
    return [
        ReadoutRecord(readout_b=rb, readout_a=ra, observed=obs)
        for (rb, ra), obs in zip(READOUT_PAIRS, observed)
    ]


def reconstruct(records: list[ReadoutRecord]) -> np.ndarray:
    """Least-squares fit of rho = (I + sum_P c_P P)/4 from readout records.

    The design matrix stacks the precomputed block of each record's pulse
    pair, so any record list (permuted, duplicated or partial) is fitted
    the same way.  Hermiticity and unit trace hold by construction.
    Eigenvalues are projected (see ``clip_to_density``) only when the fit
    dips below -1e-6; smaller negative dips are left untouched.
    """
    if not records:
        raise RankDeficiencyError("no readout records supplied")
    blocks = [_READOUT_INDEX[(rec.readout_b, rec.readout_a)] for rec in records]
    design = _DESIGN_BLOCKS[blocks].reshape(-1, len(_FIT_INDICES))
    target = np.array([rec.observed for rec in records])[:, DETECTABLE_INDICES].ravel()
    coeffs, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < len(_FIT_INDICES):
        raise RankDeficiencyError(
            f"records determine only {rank} of {len(_FIT_INDICES)} coefficients"
        )
    rho = (qcore.ID4 + np.tensordot(coeffs, _FIT_OPS, axes=1)) / 4.0
    rho = (rho + rho.conj().T) / 2.0
    if float(np.min(np.linalg.eigvalsh(rho))) < -1e-6:
        rho = clip_to_density(rho)
    return rho


def clip_to_density(rho: np.ndarray) -> np.ndarray:
    """Nearest unit-trace PSD matrix to a Hermitian matrix, in Frobenius norm.

    The eigenvectors are kept and the eigenvalues are projected onto the
    probability simplex: all are shifted down by one common amount and the
    ones that fall below zero are set to zero (Smolin, Gambetta and Smith,
    PRL 108, 070502 (2012)).
    """
    rho = np.asarray(rho, dtype=complex)
    rho = (rho + rho.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(rho)
    desc = vals[::-1]
    shifts = (np.cumsum(desc) - 1.0) / np.arange(1, vals.size + 1)
    # the largest eigenvalues still positive after their own shift stay in;
    # the largest always does, also where rounding hides it (|vals| > 2**53)
    kept = np.flatnonzero(desc > shifts)
    shift = shifts[kept[-1] if kept.size else 0]
    return (vecs * np.maximum(vals - shift, 0.0)) @ vecs.conj().T


@dataclass(frozen=True)
class ModulusTable:
    """Element moduli |rho_jk| on the 0..3 = |00>..|11> axes."""

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (4, 4):
            raise ValueError("modulus table must be 4x4")
        if np.any(vals < 0) or np.max(np.abs(vals - vals.T)) > 1e-9:
            raise ValueError("modulus table must be symmetric and non-negative")
        if np.any(np.diag(vals) > 1.0 + 1e-9):
            raise ValueError("diagonal moduli cannot exceed 1")
        object.__setattr__(self, "values", vals)

    def to_rows(self) -> list[tuple[int, int, float]]:
        """Flat (row, col, modulus) triples, row-major."""
        return [(j, k, float(self.values[j, k])) for j in range(4) for k in range(4)]

    def to_json_dict(self) -> dict:
        return {
            "axis": list(qcore.BASIS_LABELS),
            "modulus": [[float(v) for v in row] for row in self.values],
        }


def element_modulus_table(rho: np.ndarray) -> ModulusTable:
    """Moduli of all matrix elements of ``rho``."""
    rho = qcore.check_density_matrix(rho, psd_floor=1e-6)
    return ModulusTable(np.abs(rho))


@dataclass(frozen=True)
class ElementError:
    """Largest element-modulus disagreement, absolute and relative.

    ``relative`` is normalized by the largest modulus of the reference
    (theoretical) matrix.
    """

    absolute: float
    relative: float


def max_element_error(rho_exp: np.ndarray, rho_theory: np.ndarray) -> ElementError:
    """Max over elements of | |rho_exp| - |rho_theory| |."""
    exp_mod = np.abs(np.asarray(rho_exp, dtype=complex))
    th_mod = np.abs(np.asarray(rho_theory, dtype=complex))
    if exp_mod.shape != (4, 4) or th_mod.shape != (4, 4):
        raise ValueError("inputs must be 4x4 matrices")
    absolute = float(np.max(np.abs(exp_mod - th_mod)))
    scale = float(np.max(th_mod))
    if scale <= 0:
        raise ValueError("reference matrix has no nonzero element")
    return ElementError(absolute=absolute, relative=absolute / scale)

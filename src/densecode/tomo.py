"""State tomography: simulated readout experiments and a linear-inversion fit.

The readout set is the 9 pulse pairs {I, X90, Y90} x {I, X90, Y90}.  A
readout yields exact product-operator expectations of the rotated state, but
the fit only consumes what NMR detection can see: the single-quantum
transverse terms of each spin (in-phase and antiphase, 8 values per
experiment).  Through the 9 rotations those terms determine all 15 free
coefficients of the product-operator expansion, so the reconstruction is an
overdetermined linear least squares (linear-inversion tomography, James et
al., PRA 64, 052312 (2001)).

The maps are constant and built once at import: the (16, 144) readout map
from a flattened state to its 9 x 16 readouts, the design blocks (the
detectable readouts of the fitted product operators) and their pseudo-inverse,
the (15, 72) fit map.  Readouts and fit are one product per state each.  A
fitted state that dips below -``PSD_FLOOR`` is replaced by the nearest
density matrix (``clip_to_density``, an exact projection).  So a fit is
Hermitian, of unit trace and positive down to -``PSD_FLOOR`` by
construction, and nothing checks it again; ``densecode tomo`` renders its
element moduli |rho_jk| itself.
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

#: Tolerated eigenvalue dip below zero of a fitted state; a deeper dip is
#: projected away.
PSD_FLOOR = 1e-6

#: Axis of the pi/2 pulse of each readout label ("I": no pulse).
_READOUT_AXES = {"I": None, "X90": "X", "Y90": "Y"}


def readout_unitary(readout_b: str, readout_a: str) -> np.ndarray:
    """Two-spin unitary of a readout pulse pair, compiled from its RF pulses."""
    pulses = (("b", _READOUT_AXES[readout_b]), ("a", _READOUT_AXES[readout_a]))
    events = tuple(nmrsim.Rf(spin, axis, np.pi / 2) for spin, axis in pulses if axis)
    return nmrsim.compile_sequence(events, nmrsim.SpinSystem())


#: The 9 readout pulse pairs, in readout order, and their unitaries (9, 4, 4).
READOUT_PAIRS = tuple(product(READOUT_PULSES, READOUT_PULSES))
_READOUT_UNITARIES = np.array([readout_unitary(rb, ra) for rb, ra in READOUT_PAIRS])
_READOUT_ADJOINTS = _READOUT_UNITARIES.conj().transpose(0, 2, 1)

_PRODUCT_STACK = np.array(PRODUCT_OPS)
_FIT_OPS = _PRODUCT_STACK[list(_FIT_INDICES)]

#: The readout map, (16, 144): entry [4a + b, 16r + p] is (U_r^H P_p U_r)[b, a],
#: so a flattened state times it gives tr(P_p U_r rho U_r^H), the expectation
#: of product operator P_p after readout r.
_READOUT_MAP = (_READOUT_ADJOINTS[:, None] @ _PRODUCT_STACK @ _READOUT_UNITARIES[:, None]
                ).transpose(3, 2, 0, 1).reshape(16, -1)

#: Design block of each readout, (9, 8, 15): entry [r, i, j] is
#: tr(U_r^H Q_i U_r P_j)/4, the response of detectable observable Q_i after
#: readout r to coefficient c_j of the fitted product operator P_j; that is,
#: the detectable slots of the readouts of P_j / 4.
_FIT_READOUTS = (_FIT_OPS.reshape(-1, 16) / 4.0 @ _READOUT_MAP).real.reshape(-1, 9, 16)
_DESIGN_BLOCKS = _FIT_READOUTS[..., list(DETECTABLE_INDICES)].transpose(1, 2, 0)

#: The fit map, (15, 72): the least-squares inverse of the stacked design
#: blocks, from the 8 detectable values of every readout, in readout order,
#: to the 15 coefficients.
_DESIGN = _DESIGN_BLOCKS.reshape(-1, len(_FIT_INDICES))
if np.linalg.matrix_rank(_DESIGN) != len(_FIT_INDICES):
    raise RuntimeError("the readout design does not determine all 15 coefficients")
_FIT_MAP = np.linalg.pinv(_DESIGN)


def simulate_readouts(rho: np.ndarray) -> np.ndarray:
    """Noise-free readouts of a density matrix or a stack (..., 4, 4), shape
    (..., 9, 16): entry [..., r, p] is the expectation of product operator
    ``PRODUCT_LABELS[p]`` after readout pulse pair ``READOUT_PAIRS[r]``.

    Observations are modeled as exact expectations rather than synthesized
    spectra; ``reconstruct`` consumes only the transverse-detectable subset,
    mirroring what a spectrometer extracts from line fits.
    """
    rho = qcore.check_density_matrix(rho, psd_floor=PSD_FLOOR)
    # one product per member, so a state read out in a stack is bit-identical
    # to the same state read out alone
    observed = (rho.reshape(rho.shape[:-2] + (1, 16)) @ _READOUT_MAP).real
    return observed.reshape(rho.shape[:-2] + (len(READOUT_PAIRS), len(PRODUCT_LABELS)))


def reconstruct(observed: np.ndarray) -> np.ndarray:
    """Least-squares fit of rho = (I + sum_P c_P P)/4 from readouts of shape
    (..., 9, 16), as ``simulate_readouts`` returns them; shape (..., 4, 4).

    The fit is the constant map applied to the detectable slots of each
    readout; the other slots are not read.  Hermiticity and unit trace hold
    by construction, and the fit goes through ``project_unphysical``.
    """
    observed = np.asarray(observed, dtype=float)
    if observed.shape[-2:] != (len(READOUT_PAIRS), len(PRODUCT_LABELS)):
        raise ValueError(f"readouts must have shape (..., 9, 16), got {observed.shape}")
    if not np.all(np.isfinite(observed)):
        raise ValueError("readouts contain non-finite values")
    detected = observed[..., list(DETECTABLE_INDICES)].reshape(observed.shape[:-2] + (-1,))
    # one matrix-vector product per member, so a state fitted in a stack is
    # bit-identical to the same state fitted alone
    coeffs = (_FIT_MAP @ detected[..., None])[..., 0]
    return project_unphysical((qcore.ID4 + np.tensordot(coeffs, _FIT_OPS, axes=1)) / 4.0)


def project_unphysical(rho: np.ndarray) -> np.ndarray:
    """A unit-trace matrix or stack (..., 4, 4), Hermitized, with every
    member whose lowest eigenvalue is below -``PSD_FLOOR`` replaced by its
    nearest density matrix (``clip_to_density``); the other members are
    left as they are, smaller negative dips included.
    """
    rho = (rho + rho.conj().swapaxes(-1, -2)) / 2.0
    members = rho.reshape(-1, 4, 4)  # a view: rho is a fresh array
    for k in np.flatnonzero(np.linalg.eigvalsh(members)[:, 0] < -PSD_FLOOR):
        members[k] = clip_to_density(members[k])
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

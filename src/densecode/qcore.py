"""Complex linear algebra over the two-spin Hilbert space.

States, density matrices and unitaries are plain complex numpy arrays.
The basis ordering is fixed here once and imported everywhere else:
index 0=|00>, 1=|01>, 2=|10>, 3=|11>, where the LEFT label is spin b
(the low-gamma nucleus) and the RIGHT label is spin a, i.e. index = 2b + a.

Global phase is tracked, never quotiented: `apply` is a bare matrix-vector
product with no renormalization, so signed outputs like -|01> survive.
"""

from __future__ import annotations

import numpy as np

STATE_ATOL = 1e-12
OP_ATOL = 1e-10
PSD_FLOOR = 1e-9

BASIS_LABELS = ("00", "01", "10", "11")

ID2 = np.eye(2, dtype=complex)
ID4 = np.eye(4, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def basis_state(label: str | int) -> np.ndarray:
    """Computational basis vector, by index 0..3 or by label '00'..'11'."""
    k = BASIS_LABELS.index(label) if isinstance(label, str) else int(label)
    if not 0 <= k < 4:
        raise ValueError(f"basis index out of range: {label!r}")
    s = np.zeros(4, dtype=complex)
    s[k] = 1.0
    return s


def check_state(s: np.ndarray) -> np.ndarray:
    """Validate a pure-state amplitude vector (finite, normalized)."""
    s = np.asarray(s, dtype=complex)
    if s.shape != (4,) and s.shape != (2,):
        raise ValueError(f"state must have 2 or 4 amplitudes, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValueError("state contains non-finite amplitudes")
    norm2 = float(np.sum(np.abs(s) ** 2))
    if abs(norm2 - 1.0) > STATE_ATOL:
        raise ValueError(f"state not normalized: sum |amp|^2 = {norm2!r}")
    return s


def check_unitary(u: np.ndarray) -> np.ndarray:
    """Validate that ``u`` is a 2x2 or 4x4 unitary within ``OP_ATOL`` (max norm)."""
    u = np.asarray(u, dtype=complex)
    if u.shape not in ((2, 2), (4, 4)):
        raise ValueError(f"operator must be 2x2 or 4x4, got shape {u.shape}")
    if not np.all(np.isfinite(u)):
        raise ValueError("operator contains non-finite entries")
    dev = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
    if dev > OP_ATOL:
        raise ValueError(f"operator not unitary: max |U^H U - I| = {dev:.3e}")
    return u


def _check_hermitian_unit_trace(rho: np.ndarray) -> np.ndarray:
    """``rho`` as a complex 4x4 matrix or stack (..., 4, 4), refused unless
    finite, Hermitian and of unit trace within ``OP_ATOL``; the error reports
    the worst member."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"density matrix must be 4x4, got shape {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise ValueError("density matrix contains non-finite entries")
    herm_dev = np.max(np.abs(rho - rho.conj().swapaxes(-1, -2)))
    if herm_dev > OP_ATOL:
        raise ValueError(f"density matrix not Hermitian: max |rho - rho^H| = {herm_dev:.3e}")
    traces = np.trace(rho, axis1=-2, axis2=-1).ravel()
    tr = complex(traces[np.argmax(np.abs(traces - 1.0))])
    if abs(tr - 1.0) > OP_ATOL:
        raise ValueError(f"density matrix trace != 1: {tr!r}")
    return rho


def _check_min_eigenvalue(min_eig: float, psd_floor: float) -> None:
    if min_eig < -psd_floor:
        raise ValueError(f"density matrix not positive semidefinite: min eigenvalue {min_eig:.3e}")


def check_density_matrix(rho: np.ndarray, psd_floor: float = PSD_FLOOR) -> np.ndarray:
    """Validate Hermiticity and unit trace (within ``OP_ATOL``) and positivity
    of a 4x4 density matrix, or of every member of a stack (..., 4, 4); the
    error reports the worst member.

    ``psd_floor`` is the tolerated eigenvalue dip below zero; reconstructed
    matrices from the tomography fit are checked with a looser floor.
    """
    rho = _check_hermitian_unit_trace(rho)
    min_eig = float(np.min(np.linalg.eigvalsh(rho)))
    _check_min_eigenvalue(min_eig, psd_floor)
    return rho


def pure_density(s: np.ndarray) -> np.ndarray:
    """Rank-one density matrix |s><s| of a pure state."""
    s = check_state(s)
    return np.outer(s, s.conj())


def tensor(ub: np.ndarray, ua: np.ndarray) -> np.ndarray:
    """Two-spin operator with ``ub`` on spin b (left slot) and ``ua`` on spin a."""
    ub = np.asarray(ub, dtype=complex)
    ua = np.asarray(ua, dtype=complex)
    if ub.shape != (2, 2) or ua.shape != (2, 2):
        raise ValueError("tensor expects two 2x2 operators")
    check_unitary(ub)
    check_unitary(ua)
    return np.kron(ub, ua)


def apply(u: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Apply a unitary to a pure state; preserves norm and global phase."""
    u = check_unitary(u)
    s = check_state(s)
    if u.shape[0] != s.shape[0]:
        raise ValueError(f"dimension mismatch: {u.shape} operator on {s.shape} state")
    return u @ s


def probabilities(state: np.ndarray) -> np.ndarray:
    """Measurement probabilities in the computational basis.

    Accepts a pure-state vector (|amp_k|^2) or a density matrix (diagonal).
    """
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        state = check_state(state)
        return np.abs(state) ** 2
    rho = check_density_matrix(state)
    return np.real(np.diag(rho)).copy()


def psd_factor(rho: np.ndarray) -> np.ndarray:
    """A factor V, shape (4, k), of a 4x4 density matrix ``rho`` = V V^H.

    ``rho`` is refused as ``check_density_matrix`` refuses it, positivity
    read from the eigenvalues of the one ``eigh`` that also gives the factor.
    Eigenvalues at rounding level relative to the largest (the tolerance of
    ``np.linalg.matrix_rank``) are dropped, so a pure state gives k = 1.
    """
    vals, vecs = np.linalg.eigh(_check_hermitian_unit_trace(rho))
    _check_min_eigenvalue(float(vals[0]), PSD_FLOOR)
    keep = vals > vals[-1] * len(vals) * np.finfo(float).eps
    return vecs[:, keep] * np.sqrt(vals[keep])


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity F(rho, sigma) = (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2
    of two density matrices, each refused by ``psd_factor`` if it is not one.

    Computed as the squared sum of the singular values of A^H B for factors
    rho = A A^H and sigma = B B^H, which equal those of sqrt(rho) sqrt(sigma).
    For pure sigma = |psi><psi| this reduces to <psi|rho|psi>.
    """
    a = psd_factor(rho)
    b = psd_factor(sigma)
    f = float(np.sum(np.linalg.svd(a.conj().T @ b, compute_uv=False))) ** 2
    return min(max(f, 0.0), 1.0)


def phase_aligned_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Max-norm distance between ``u`` and ``v`` after optimal global-phase alignment.

    The alignment phase is taken from tr(v^H u); for operators that are equal
    up to a global phase this is the exact minimizer.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    tr = complex(np.trace(v.conj().T @ u))
    phase = tr / abs(tr) if abs(tr) > 0 else 1.0
    return float(np.max(np.abs(u - phase * v)))

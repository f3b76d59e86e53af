"""Pulse-level realization of the dense-coding network.

Rotation convention: X(theta) = exp(-i*theta*sigma_x/2), likewise Y and Z,
so X(pi) equals sigma_x and Y(pi) equals i*sigma_y up to a global phase.
Free evolution acts in the doubly-rotating frame: only the weak J coupling
survives, chemical shifts are zero unless the noise model injects offsets.

A pulse program (``PulseSequence``) is a plain tuple of ``Rf`` and
``Delay`` events, earliest first.  A block is a program or a tuple of
blocks, run in order, and ``events`` flattens it.  The builders below are
the one definition of each composite program and return blocks that nest,
each CNOT a program of its own, so the ensemble average propagates a CNOT
used in many places once.
One engine, ``_propagate``, applies every program's events in time order
to a stack U of per-member propagators (``compile([e1, e2]) == U(e2) @
U(e1)``): a pulse is cos*U + sin*(a signed row permutation of U), a delay a
diagonal phase.  A stack has shape (4, k, n), the member axis last, so each
update runs over contiguous rows of n members.  A noise-free program is one
member with zero draws.  The factors are computed once per set of draws
into a ``_FactorTable``, whose buffers the ensemble average allocates once
per call, refills for each chunk and shares across every program of the
chunk.  A pulse's factors are keyed by (spin, axis, |angle|), so a
reversed pulse reuses its twin's and subtracts the permuted term, and each
distinct |angle| has one cos and one sin.  Every factor is a contiguous
complex array of a one-column stack's shape (4, 1, n), the cos repeated in
its four rows, so that each update of a one-column stack multiplies arrays
of one shape and dtype: numpy's broadcasting and casting loops cost about
twice as much per element.  Each event updates U in place, in buffers the
caller gives, with the operands in the order of the expressions above.
``experiment.temporal_average`` runs the thermal state and the prefixes
built here.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import qcore
from .protocol import BellVariant, check_message

SPINS = ("a", "b")
AXES = ("X", "Y", "Z")

#: Larmor frequencies (MHz) of the chloroform 1H / 13C pair; the J coupling
#: is NOT a measured constant of the artifact, only an overridable default.
DEFAULT_FREQ_A_MHZ = 500.13
DEFAULT_FREQ_B_MHZ = 125.77
DEFAULT_J_HZ = 215.0
#: Thermal polarization of spin b, the config's ``spin_system.epsilon``.
DEFAULT_EPSILON = 1e-5


@dataclass(frozen=True)
class SpinSystem:
    """Static parameters of the two-spin sample: finite positive Larmor
    frequencies and J coupling, a finite frequency ratio, and a finite
    1/(2J) and pi*J."""

    freq_a: float = DEFAULT_FREQ_A_MHZ  # MHz, spin a (1H)
    freq_b: float = DEFAULT_FREQ_B_MHZ  # MHz, spin b (13C)
    j_coupling: float = DEFAULT_J_HZ    # Hz

    def __post_init__(self) -> None:
        for name in ("freq_a", "freq_b", "j_coupling"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"SpinSystem.{name} must be positive")
            if not math.isfinite(value):
                raise ValueError(f"SpinSystem.{name} must be finite")
        if not math.isfinite(self.polarization_ratio):
            raise ValueError("SpinSystem.freq_b is too small: freq_a/freq_b is not finite")
        # pi/J bounds the phase scale pi*t of every delay (t <= 1/(2J)) and a
        # program's total delay
        if not math.isfinite(math.pi / self.j_coupling):
            raise ValueError("SpinSystem.j_coupling is too small: pi/J is not finite")
        if not math.isfinite(math.pi * self.j_coupling):
            raise ValueError("SpinSystem.j_coupling is too large: pi*J is not finite")

    @property
    def polarization_ratio(self) -> float:
        """gamma_a/gamma_b, from the Larmor frequencies."""
        return self.freq_a / self.freq_b


@dataclass(frozen=True)
class Rf:
    """A hard RF rotation pulse on one spin.

    A negative ``angle`` rotates about the negative axis (the RF phase
    flipped by 180 degrees); miscalibration scales it but never its sign.
    """

    spin: str
    axis: str
    angle: float

    def __post_init__(self) -> None:
        if self.spin not in SPINS:
            raise ValueError(f"Rf spin must be one of {SPINS}, got {self.spin!r}")
        if self.axis not in AXES:
            raise ValueError(f"Rf axis must be one of {AXES}, got {self.axis!r}")
        if not math.isfinite(self.angle):
            raise ValueError("Rf angle must be finite")


@dataclass(frozen=True)
class Delay:
    """Free evolution under the J coupling for ``duration`` seconds."""

    duration: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.duration) and self.duration >= 0):
            raise ValueError("Delay duration must be finite and >= 0")


PulseEvent = Rf | Delay


#: A pulse program: its events in time order, earliest first.
PulseSequence = tuple[PulseEvent, ...]


def _is_program(block) -> bool:
    """Whether ``block`` is a pulse program (a tuple of events, or empty)
    rather than a tuple of blocks."""
    return not block or not isinstance(block[0], tuple)


def events(block) -> PulseSequence:
    """The events of a block, a pulse program or a tuple of blocks, in time
    order."""
    return block if _is_program(block) else sum(map(events, block), ())


def total_delay(block) -> float:
    """Total free-evolution time of ``block`` (pulses are instantaneous)."""
    return sum(ev.duration for ev in events(block) if isinstance(ev, Delay))


# Diagonal signs of sigma_z on b and on a.
_ZB_DIAG = np.array([1.0, 1.0, -1.0, -1.0])
_ZA_DIAG = np.array([1.0, -1.0, 1.0, -1.0])


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


def _phase_blocks(phase: np.ndarray) -> tuple[tuple[slice, complex], ...]:
    """``(rows, value)`` for each distinct value of a Pauli phase column,
    ``rows`` the slice of the rows holding it: all four for X, rows 0-1
    and 2-3 for Y and Z on spin b, rows 0, 2 and 1, 3 on spin a."""
    blocks = []
    for value in dict.fromkeys(phase.tolist()):
        first, *rest = np.flatnonzero(phase == value).tolist()
        step = rest[0] - first if rest else 1
        blocks.append((slice(first, first + step * (1 + len(rest)), step), value))
    return tuple(blocks)


#: The phase blocks of each (spin, axis) pair: a pulse's s is built with
#: one multiply per block.
_PHASE_BLOCKS = {key: _phase_blocks(phase) for key, (_, phase) in _RF_ROWS.items()}


def _factor_key(ev: PulseEvent):
    """Factor-table key of an event: (spin, axis, |angle|) for a pulse, so a
    reversed pulse shares the factors of its forward twin, and the event
    itself for a delay."""
    return (ev.spin, ev.axis, abs(ev.angle)) if isinstance(ev, Rf) else ev


def _view(buf: np.ndarray, *shape: int) -> np.ndarray:
    """The leading part of the flat ``buf`` as a contiguous array of ``shape``."""
    return buf[: math.prod(shape)].reshape(shape)


class _FactorTable:
    """Buffers for the per-member factors of a set of events, for up to
    ``size`` members, refilled in place by ``_event_factors`` for each set
    of draws: per key of ``_factor_key`` one (4, 1, size) complex array,
    per distinct pulse |angle| a cos and a sin array of that shape (the
    cos arrays of all angles, then the sin arrays), and real scratch rows
    for the angles and the delay phases.  Each dtype is one allocation, so
    that the heap keeps it whole for the next table of its size."""

    def __init__(self, events: Iterable[PulseEvent], size: int) -> None:
        self.events = {}  # the first event of each key stands for all of them
        for ev in events:
            self.events.setdefault(_factor_key(ev), ev)
        pulses = (ev for ev in self.events.values() if isinstance(ev, Rf))
        self.angles = list(dict.fromkeys(abs(ev.angle) for ev in pulses))
        rows = np.empty((len(self.events) + 2 * len(self.angles), 4 * size), dtype=complex)
        self.phases = dict(zip(self.events, rows[: len(self.events)]))
        self.trig = rows[len(self.events) :]
        self.scratch = np.empty((max(1 + 2 * len(self.angles), 6), size))


def _event_factors(
    table: _FactorTable, sys: SpinSystem, draws: np.ndarray, calib_offset: float
) -> dict:
    """Refill ``table`` in place with the factors of its events on the (n,
    3) ``draws``, members last, and return them by ``_factor_key``:
    ``(c, s, perm)`` of a pulse (U -> c*U + s*U[perm], or c*U - s*U[perm]
    for a negative angle) and the diagonal phase f of a ``Delay`` (U ->
    f*U).  Every factor is a contiguous complex array of shape (4, 1, n),
    the shape of a one-column stack, so that each update of such a stack
    takes numpy's same-shape loop, with no broadcast and no cast.

    Each |angle| has one cos and one sin for every pulse of that magnitude,
    computed in float64 for all angles at once and cast to complex in all
    four rows, imaginary part 0: numpy casts a float64 operand of a complex multiply the same
    way, so ``c * U`` is the same operation on the same operands as with
    the real cosine.  A pulse's s is the sin times the phase of
    ``_RF_ROWS``, one multiply per block of rows that share a phase value
    (``_PHASE_BLOCKS``).  A reversed pulse needs no factors of its own: its
    angles are exactly the negated ones, numpy's ``cos(-x)`` and
    ``sin(-x)`` equal ``cos(x)`` and ``-sin(x)`` bit for bit, and ``u +
    (-v)`` is ``u - v``.  A delay's argument x, row r ``(zz_r*K +
    zb_r*pb) + za_r*pa`` for the sigma_z signs of the row, K = pi*J*t/2,
    pb = pi*t*offset_b and pa = pi*t*offset_a, is built from the rows pb
    and pa by signed row operations on K, each sum rounded as in that
    expression (IEEE negation is exact).  Its phase exp(-i x) is written
    as ``cos(x)`` into its real part and ``-sin(x)`` into its imaginary
    part; numpy's complex ``exp`` of ``-i x`` (real part 0) gives the same
    bits on a numpy whose float64 sin and cos are libm's.  The arithmetic,
    operand order included, is otherwise that of the fresh arrays
    ``tests/oracles.reference_propagate`` builds, so every factor is the
    same to the bit.
    """
    n, a = len(draws), len(table.angles)
    deltas, offs_a, offs_b = draws.T
    scale = table.scratch[0, :n]  # 1 + calib_offset + deviation, for every |angle|
    half_sin = table.scratch[1 : 1 + 2 * a, :n]  # each angle / 2 (then its cos), each sin
    half = half_sin[:a]
    np.add(1.0 + calib_offset, deltas, out=scale)
    np.multiply(np.array(table.angles)[:, None], scale, out=half)
    np.divide(half, 2.0, out=half)
    np.sin(half, out=half_sin[a:])
    np.cos(half, out=half)
    trig = table.trig[:, : 4 * n].reshape(2, a, 4, 1, n)
    np.copyto(trig, half_sin.reshape(2, a, 1, 1, n))  # cast to complex, into all four rows
    trig = dict(zip(table.angles, zip(*trig)))  # |angle| -> (cos, sin)
    pb, pa = table.scratch[:2, :n]  # the delays' scratch rows
    x = table.scratch[2:6, :n]
    factors = {}
    for key, ev in table.events.items():
        f = _view(table.phases[key], 4, 1, n)
        if isinstance(ev, Rf):
            c, sin = trig[abs(ev.angle)]
            perm, _ = _RF_ROWS[ev.spin, ev.axis]
            for rows, phase in _PHASE_BLOCKS[ev.spin, ev.axis]:
                np.multiply(sin[rows], phase, out=f[rows])
            factors[key] = c, f, perm
        else:
            t = ev.duration
            k = math.pi * sys.j_coupling * t / 2.0
            np.multiply(math.pi * t, offs_b, out=pb)
            np.multiply(math.pi * t, offs_a, out=pa)
            np.add(k, pb, out=x[0])  # rows of ZZ*K + ZB*pb: K + pb, pb - K, -(K + pb), K - pb
            np.subtract(pb, k, out=x[1])
            np.negative(x[:2], out=x[2:])
            np.add(x[0::2], pa, out=x[0::2])  # + ZA*pa
            np.subtract(x[1::2], pa, out=x[1::2])
            np.cos(x, out=f.real[:, 0])  # f = exp(-i x)
            np.sin(x, out=f.imag[:, 0])
            np.negative(f.imag, out=f.imag)
            factors[key] = f
    return factors


def _propagate(
    seq: PulseSequence, factors: dict, start: np.ndarray, u: np.ndarray, tmp: np.ndarray
) -> np.ndarray:
    """Per-member U_m @ start for the propagators U_m of ``seq``, written
    into ``u`` of shape (4, k, n), member m at ``[..., m]``, and returned,
    for a (4, k) ``start`` (the identity gives the propagators) or a (4, k,
    n) stack of per-member starts, which may be ``u`` itself: the events
    then continue on it in place.  ``factors`` holds each event's
    ``_event_factors`` on the members' draws, and ``tmp`` is scratch of
    ``u``'s shape.

    Each event updates U in place, keeping the operand order of ``c * U +
    s * U[perm]`` and ``f * U``: numpy's complex multiply is not bitwise
    commutative, and ``U * f`` moves the last bits of a delay.
    """
    if start.ndim == 2:
        np.copyto(u, start[:, :, None])
    elif start is not u:
        np.copyto(u, start)
    for ev in seq:
        f = factors[_factor_key(ev)]
        if isinstance(ev, Rf):
            c, s, perm = f
            np.take(u, perm, axis=0, out=tmp, mode="wrap")  # mode "raise" buffers out
            np.multiply(s, tmp, out=tmp)
            np.multiply(c, u, out=u)
            (np.subtract if ev.angle < 0 else np.add)(u, tmp, out=u)
        else:
            np.multiply(f, u, out=u)
    return u


def _compile_stack(
    block,
    sys: SpinSystem,
    draws: np.ndarray,
    calib_offset: float,
    start: np.ndarray = qcore.ID4,
) -> np.ndarray:
    """``_propagate`` of the events of ``block`` alone on the (n, 3)
    ``draws``, in buffers of its own.  Row m of ``draws`` is member m's RF
    deviation and offsets (Hz) of spins a and b; pulse angles scale by 1 +
    ``calib_offset`` + deviation."""
    seq = events(block)
    factors = _event_factors(_FactorTable(seq, len(draws)), sys, draws, calib_offset)
    u = np.empty((4, start.shape[1], len(draws)), dtype=complex)
    return _propagate(seq, factors, start, u, np.empty_like(u))


def compile_sequence(block, sys: SpinSystem) -> np.ndarray:
    """Compile a block to its two-spin propagator (later events applied
    later): the engine for one member with zero draws."""
    return _compile_stack(block, sys, np.zeros((1, 3)), 0.0)[..., 0]


def not_pulse(spin: str) -> PulseSequence:
    """NOT as a single X(pi) pulse (equals sigma_x up to global phase)."""
    return (Rf(spin, "X", math.pi),)


def pseudo_hadamard_b() -> PulseSequence:
    """The two-pulse Hadamard stand-in on spin b.

    Compiles to i*(sigma_z - sigma_x)/sqrt2 on spin b, which is the textbook
    Hadamard conjugated by sigma_z and phased; populations through the
    decoding network are unchanged.
    """
    return (Rf("b", "Y", -math.pi / 2), Rf("b", "X", math.pi))


def cnot_pulse_sequence(
    sys: SpinSystem, control: str = "b", refocus: bool = True
) -> PulseSequence:
    """Controlled-NOT from spin-selective pulses around a 1/(2J) J evolution.

    The zz coupling is turned into the needed zx term by +-Y(pi/2) pulses on
    the target; two trailing 90-degree pulses absorb the residual single-spin
    phases.  The compiled propagator equals the ideal CNOT up to a global
    phase of exp(-i*pi/4).

    With ``refocus`` the J delay is split in half around a simultaneous
    X(pi) pair on both spins, undone by an X(-pi) pair of opposed phase; this
    cancels static resonance offsets (and the pair's own miscalibration)
    without touching the J evolution.
    """
    if control not in SPINS:
        raise ValueError(f"control must be one of {SPINS}, got {control!r}")
    target = "a" if control == "b" else "b"
    tau = 1.0 / (2.0 * sys.j_coupling)
    if refocus:
        coupling: PulseSequence = (
            Delay(tau / 2),
            Rf("b", "X", math.pi),
            Rf("a", "X", math.pi),
            Delay(tau / 2),
            Rf("b", "X", -math.pi),
            Rf("a", "X", -math.pi),
        )
    else:
        coupling = (Delay(tau),)
    return (
        Rf(target, "Y", math.pi / 2),
        *coupling,
        Rf(target, "Y", -math.pi / 2),
        Rf(target, "X", math.pi / 2),
        Rf(control, "Z", math.pi / 2),
    )


def encoding_pulse(i: int) -> PulseSequence:
    """Pulse form of the i-th encoding on spin a.

    Identity is an empty sequence; the Pauli encodings are single pi pulses
    X_a(pi), Y_a(pi) and Z_a(pi), each equal to the ideal encoding up to a
    global phase.  Note Z_a(pi), not Z_a(pi/2): only a pi z-rotation is
    proportional to sigma_z under the spin-rotation convention.
    """
    check_message(i)
    if i == 1:
        return ()
    axis = {2: "Z", 3: "X", 4: "Y"}[i]
    return (Rf("a", axis, math.pi),)


def bell_prep_sequence(
    sys: SpinSystem, variant: BellVariant, refocus: bool = True
) -> tuple:
    """Block preparing the Bell start state for ``variant``: (NOTs +
    pseudo-Hadamard, CNOT)."""
    nots = sum((not_pulse(spin) for spin in variant.not_spins), ())
    return nots + pseudo_hadamard_b(), cnot_pulse_sequence(sys, refocus=refocus)


def decode_sequence(sys: SpinSystem, refocus: bool = True) -> tuple:
    """Block of the decoding step: (CNOT, pseudo-Hadamard on b)."""
    return cnot_pulse_sequence(sys, refocus=refocus), pseudo_hadamard_b()


def dense_coding_sequence(
    sys: SpinSystem, m: int, variant: BellVariant, refocus: bool = True
) -> tuple:
    """Full block: (preparation, encoding of message ``m``, decoding)."""
    return (
        bell_prep_sequence(sys, variant, refocus=refocus),
        encoding_pulse(m),
        decode_sequence(sys, refocus=refocus),
    )


def thermal_state(sys: SpinSystem, epsilon: float) -> np.ndarray:
    """High-temperature equilibrium state I/4 + eps*(ratio*sz_a + sz_b)/2.

    ``epsilon`` is the 13C single-spin polarization; the regime of validity
    is epsilon <= 1e-3.  Raises if the deviation would push a population
    negative (state no longer positive semidefinite).
    """
    if not (math.isfinite(epsilon) and epsilon >= 0):
        raise ValueError("epsilon must be finite and >= 0")
    r = sys.polarization_ratio
    if math.isfinite(epsilon * (r + 1.0)):
        diag = 0.25 + epsilon * (r * _ZA_DIAG + _ZB_DIAG) / 2.0
    else:  # a deviation beyond the floats takes a population below 0
        diag = np.full(4, -math.inf)
    if np.any(diag < 0):
        raise ValueError(
            f"epsilon {epsilon!r} too large: thermal populations go negative"
        )
    return np.diag(diag).astype(complex)


def permutation_sequences(sys: SpinSystem, refocus: bool = True) -> tuple:
    """The three temporal-averaging prefixes P0, P1, P2 as blocks: ((),
    (CNOT_ab, CNOT_ba), (CNOT_ba, CNOT_ab)).

    P0 does nothing; P1 and P2 are two-CNOT circuits that cyclically permute
    the populations of |01>, |10>, |11> (in opposite directions) while fixing
    |00>.
    """
    cn_ba = cnot_pulse_sequence(sys, control="b", refocus=refocus)
    cn_ab = cnot_pulse_sequence(sys, control="a", refocus=refocus)
    return ((), (cn_ab, cn_ba), (cn_ba, cn_ab))


def pseudo_pure_decomposition(rho: np.ndarray) -> tuple[float, float, float]:
    """Split ``rho`` as alpha*I/4 + beta*|00><00| + residual.

    Returns (alpha, beta, max|residual|); a temporal-averaged preparation
    state has residual at rounding level.
    """
    rho = qcore.check_density_matrix(rho)
    diag = np.real(np.diag(rho))
    background = float(np.mean(diag[1:]))
    alpha = 4.0 * background
    beta = float(diag[0] - background)
    model = alpha * np.eye(4) / 4.0 + beta * np.outer(
        qcore.basis_state(0), qcore.basis_state(0)
    )
    residual = float(np.max(np.abs(rho - model)))
    return alpha, beta, residual


def pseudo_pure_beta(sys: SpinSystem, epsilon: float) -> float:
    """Pure-state weight beta of the temporal-averaged preparation.

    For the thermal diagonal this is (2/3)*epsilon*(ratio + 1), known in
    closed form; used to rescale simulated experiments back to unit-weight
    density matrices.
    """
    return (2.0 / 3.0) * epsilon * (sys.polarization_ratio + 1.0)

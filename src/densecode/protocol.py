"""The dense-coding network end to end: the ideal gate set, then prepare,
encode, decode, read out.

The gate set is written once, here, as checked read-only constants in the
qcore basis convention (spin b = left label): ``HADAMARD``, ``CNOT`` (spin b
controls spin a), ``ENCODINGS`` (message -> operator on spin a) and
``SUBSTITUTIONS`` (Bell variant -> the NOT step of its preparation).  NOT is
``qcore.SIGMA_X``.

Messages are 1..4 and map to bit pairs lexicographically (1->00, 2->01,
3->10, 4->11).  The phase of a decoded output is reported but populations
alone determine the recovered message.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import qcore


class BellVariant(Enum):
    """The four Bell start states, named by their amplitude pattern.

    Each variant carries the recipe producing it from |00>: which spins get
    a NOT before the Hadamard/CNOT pair of the preparation circuit.
    """

    MINUS_PHI = "minus-phi"  # (|00> - |11>)/sqrt2
    PLUS_PHI = "plus-phi"    # (|00> + |11>)/sqrt2
    MINUS_PSI = "minus-psi"  # (|01> - |10>)/sqrt2
    PLUS_PSI = "plus-psi"    # (|01> + |10>)/sqrt2

    @property
    def not_spins(self) -> tuple[str, ...]:
        """Spins that receive a NOT in the preparation circuit."""
        return {
            BellVariant.MINUS_PHI: ("b",),
            BellVariant.PLUS_PHI: (),
            BellVariant.MINUS_PSI: ("b", "a"),
            BellVariant.PLUS_PSI: ("a",),
        }[self]


BELL_VARIANT_ORDER = (
    BellVariant.MINUS_PHI,
    BellVariant.PLUS_PHI,
    BellVariant.MINUS_PSI,
    BellVariant.PLUS_PSI,
)

READOUT_ATOL = 1e-9

MESSAGES = (1, 2, 3, 4)


class NotBasisStateError(ValueError):
    """Raised when readout is asked to collapse a state that still has
    weight on more than one basis vector, i.e. the decode chain is broken."""


@dataclass(frozen=True)
class DecodedOutput:
    """A signed computational basis vector: readout bits plus overall sign."""

    y: int  # spin b readout
    x: int  # spin a readout
    phase: int  # +1 or -1

    @property
    def index(self) -> int:
        return 2 * self.y + self.x

    @property
    def bits(self) -> str:
        return f"{self.y}{self.x}"

    @property
    def ket(self) -> str:
        return ("-" if self.phase < 0 else "") + f"|{self.y}{self.x}>"


def check_message(m: int) -> int:
    if m not in MESSAGES:
        raise ValueError(f"message must be 1..4, got {m!r}")
    return int(m)


def message_bits(m: int) -> str:
    """Two classical bits carried by message ``m`` (lexicographic mapping)."""
    return format(check_message(m) - 1, "02b")


def _gate(u: np.ndarray) -> np.ndarray:
    """A read-only copy of ``u``, checked unitary."""
    u = qcore.check_unitary(np.array(u, dtype=complex))
    u.setflags(write=False)
    return u


def _substitution(variant: BellVariant) -> np.ndarray:
    """A NOT on each of the variant's ``not_spins``, in recipe order."""
    u = qcore.ID4
    for spin in variant.not_spins:
        not_spin = (qcore.SIGMA_X, qcore.ID2) if spin == "b" else (qcore.ID2, qcore.SIGMA_X)
        u = qcore.tensor(*not_spin) @ u
    return u


#: Walsh-Hadamard gate (1/sqrt2)[[1,1],[1,-1]].
HADAMARD = _gate(np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0))
#: Controlled-NOT with spin b as control and spin a as target.
CNOT = _gate([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
#: Message -> its encoding on spin a: identity, sigma_z, sigma_x, i*sigma_y.
#: The fourth is i*sigma_y = [[0,1],[-1,0]]: it maps |0> -> -|1> and
#: |1> -> |0>; the minus sign matters for the signed decoded outputs.
ENCODINGS = {
    m: _gate(u)
    for m, u in zip(MESSAGES, (qcore.ID2, qcore.SIGMA_Z, qcore.SIGMA_X, 1j * qcore.SIGMA_Y))
}
#: Bell variant -> the two-spin NOT substitution that starts its preparation.
SUBSTITUTIONS = {v: _gate(_substitution(v)) for v in BELL_VARIANT_ORDER}

#: The two-spin forms the network applies (H on b, encodings on a).
_H_B = qcore.tensor(HADAMARD, qcore.ID2)
_ENCODINGS = {m: qcore.tensor(qcore.ID2, u) for m, u in ENCODINGS.items()}


def prepare_bell(variant: BellVariant) -> np.ndarray:
    """Run the preparation circuit on |00>: NOT substitution, H on b, CNOT."""
    return CNOT @ (_H_B @ (SUBSTITUTIONS[variant] @ qcore.basis_state(0)))


def encode(s: np.ndarray, m: int) -> np.ndarray:
    """Apply the m-th encoding to spin a only."""
    return _ENCODINGS[check_message(m)] @ qcore.check_state(s)


def decode(s: np.ndarray) -> np.ndarray:
    """Map the Bell basis onto the computational basis: CNOT then H on b."""
    return _H_B @ (CNOT @ qcore.check_state(s))


def readout(s: np.ndarray) -> DecodedOutput:
    """Collapse a signed basis vector to (y, x, phase).

    The input must be within READOUT_ATOL of a signed computational basis
    vector; any remaining superposition raises NotBasisStateError.
    """
    s = qcore.check_state(s)
    probs = np.abs(s) ** 2
    k = int(np.argmax(probs))
    if probs[k] < 1.0 - READOUT_ATOL:
        raise NotBasisStateError(
            f"state is not basis-concentrated (max probability {probs[k]!r}); "
            "decode chain is broken"
        )
    phase = 1 if s[k].real >= 0 else -1
    return DecodedOutput(y=k >> 1, x=k & 1, phase=phase)


def run_network(m: int, variant: BellVariant) -> DecodedOutput:
    """Prepare, encode, decode and read out one message."""
    return readout(decode(encode(prepare_bell(variant), m)))


def table1() -> tuple[tuple[DecodedOutput, ...], ...]:
    """The full correspondence grid, computed by running the circuit.

    Rows are messages 1..4 (the four encodings), columns the Bell variants in
    BELL_VARIANT_ORDER.  Nothing is hard-coded.
    """
    return tuple(
        tuple(run_network(m, v) for v in BELL_VARIANT_ORDER) for m in MESSAGES
    )


#: Readout bits -> message for each variant: the columns of table1() inverted,
#: once at import.
_DECODING = {
    v: {(out.y, out.x): m for m, out in zip(MESSAGES, column)}
    for v, column in zip(BELL_VARIANT_ORDER, zip(*table1()))
}


def recover_message(bits: tuple[int, int], variant: BellVariant) -> int:
    """Invert the correspondence column of ``variant``: readout bits -> message."""
    try:
        return _DECODING[BellVariant(variant)][tuple(bits)]
    except KeyError:
        raise ValueError(f"readout bits {bits!r} not produced by any message") from None


def transmit(m: int, variant: BellVariant) -> int:
    """Round-trip one message through the network and recover it."""
    out = run_network(check_message(m), variant)
    return recover_message((out.y, out.x), variant)

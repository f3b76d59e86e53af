"""The dense-coding network end to end: prepare, encode, decode, read out.

Messages are 1..4 and map to bit pairs lexicographically (1->00, 2->01,
3->10, 4->11).  The phase of a decoded output is reported but populations
alone determine the recovered message.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gates, qcore
from .gates import BELL_VARIANT_ORDER, BellVariant

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


#: The network's two-spin gates (H on b, CNOT, encodings, substitutions),
#: each checked once where it is built (``tensor`` checks its factors).
_H_B = qcore.tensor(gates.hadamard(), qcore.ID2)
_CNOT = qcore.check_unitary(gates.cnot_ba())
_ENCODINGS = {m: qcore.tensor(qcore.ID2, gates.encoding_unitary(m)) for m in MESSAGES}
_SUBSTITUTIONS = {v: qcore.check_unitary(gates.bell_substitution(v)) for v in BELL_VARIANT_ORDER}


def prepare_bell(variant: BellVariant) -> np.ndarray:
    """Run the preparation circuit on |00>: NOT substitution, H on b, CNOT."""
    return _CNOT @ (_H_B @ (_SUBSTITUTIONS[variant] @ qcore.basis_state(0)))


def encode(s: np.ndarray, m: int) -> np.ndarray:
    """Apply the m-th encoding to spin a only."""
    return _ENCODINGS[check_message(m)] @ qcore.check_state(s)


def decode(s: np.ndarray) -> np.ndarray:
    """Map the Bell basis onto the computational basis: CNOT then H on b."""
    return _H_B @ (_CNOT @ qcore.check_state(s))


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

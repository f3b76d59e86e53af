"""Two-spin dense-coding simulator.

Four messages ride on one treated spin of an entangled pair: an ideal
circuit layer (``protocol``: the gate set and the network), an NMR pulse
layer (spin-selective rotations, J-coupling delays, pseudo-pure
preparation), density-matrix tomography and a phenomenological error
model, glued together by the ``densecode`` command-line tool.
"""

from .nmrsim import Delay, PulseSequence, Rf, SpinSystem
from .noise import ErrorParams
from .protocol import BELL_VARIANT_ORDER, BellVariant, DecodedOutput, NotBasisStateError
from .tomo import ElementError

__all__ = [
    "BELL_VARIANT_ORDER",
    "BellVariant",
    "DecodedOutput",
    "Delay",
    "ElementError",
    "ErrorParams",
    "NotBasisStateError",
    "PulseSequence",
    "Rf",
    "SpinSystem",
]

__version__ = "0.1.0"

"""Simulated bench experiments: pseudo-pure preparation by temporal
averaging, noisy pulse programs, tomography and deviation rescaling.

``temporal_average`` is the one loop over the three permutation prefixes:
one call to the ensemble average ``noise.mean_states`` with the prefixes
as heads on the thermal state.  ``fig4_panels`` is the pipeline behind the
element-modulus bar-chart data: for each of the four encodings, run the
temporal-averaged protocol with the error model, reconstruct the averaged
state by tomography, extract the pseudo-pure deviation and compare against
the ideal output.  Both pass ``nmrsim``'s blocks, each CNOT a program of its
own, so the ensemble average propagates each CNOT once per chunk: a fig4
chunk makes 28 event updates, not the 68 of the flat programs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nmrsim, noise, protocol, qcore, tomo
from .protocol import BellVariant

#: Panel letters: a-d experimental, e-h theoretical, both in message order.
EXPERIMENTAL_PANELS = ("a", "b", "c", "d")
THEORY_PANELS = ("e", "f", "g", "h")
#: Smallest epsilon fig4 accepts.  Against the largest relative element
#: error at 1e-5 (0.0857 at seed 3, 200 members), the error drifts by 6e-8
#: at 1e-10, 1.5e-6 at 1e-12, 8e-4 at 1e-14 and 1.1e-2 at 1e-15.
MIN_EPSILON = 1e-10


@dataclass(frozen=True)
class Fig4Panel:
    """One encoding's theoretical/simulated-experimental matrix pair."""

    message: int
    theory: np.ndarray
    experimental: np.ndarray
    error: tomo.ElementError


def ideal_output_density(m: int, variant: BellVariant = BellVariant.MINUS_PHI) -> np.ndarray:
    """Density matrix of the ideal protocol output for message ``m``."""
    s = protocol.decode(protocol.encode(protocol.prepare_bell(variant), m))
    return qcore.pure_density(s)


def pulse_output_state(sys: nmrsim.SpinSystem, m: int, variant: BellVariant) -> np.ndarray:
    """Noise-free pulse-layer output state for message ``m`` (pure |00> input)."""
    u = nmrsim.compile_sequence(nmrsim.dense_coding_sequence(sys, m, variant), sys)
    return qcore.apply(u, qcore.basis_state(0))


def noisy_output_density(
    sys: nmrsim.SpinSystem,
    params: noise.ErrorParams,
    m: int,
    variant: BellVariant,
    seed: int,
) -> np.ndarray:
    """Ensemble-averaged pulse-layer output for a pure |00> input."""
    # one flat head: a program run once from a one-column start propagates
    # the column event by event; passed nested, each part would be built
    # from the identity and composed (twice as slow at 20,000 members)
    seq = nmrsim.events(nmrsim.dense_coding_sequence(sys, m, variant))
    start = qcore.basis_state(0)[:, None]
    return noise.mean_states(sys, params, seed, [()], [seq], start)[0, 0]


def temporal_average(
    sys: nmrsim.SpinSystem,
    epsilon: float,
    circuits: list[tuple],
    params: noise.ErrorParams = noise.ErrorParams(),
    seed: int = 0,
    refocus: bool = True,
) -> np.ndarray:
    """Each circuit's output (a circuit is a tuple of pulse blocks) averaged
    over the three permutation prefixes run on the thermal state, shape
    (len(circuits), 4, 4).  The mean carries a deviation proportional to the
    circuit acting on |00><00| (Knill, Chuang and Laflamme, PRA 57, 3348
    (1998)).  All runs share one sample of ``(params, seed)``; the default
    is noise-free.
    """
    v_th = qcore.psd_factor(nmrsim.thermal_state(sys, epsilon))
    prefixes = nmrsim.permutation_sequences(sys, refocus)
    return noise.mean_states(sys, params, seed, circuits, prefixes, v_th).sum(axis=1) / 3.0


def fig4_panels(
    sys: nmrsim.SpinSystem,
    epsilon: float,
    params: noise.ErrorParams,
    seed: int,
    refocus: bool = True,
) -> list[Fig4Panel]:
    """Theory/experiment matrix pairs for all four encodings.

    Each encoding's circuit (Bell preparation, encoding, decoding) is
    temporal-averaged on one sample.  The four averaged states are
    reconstructed by tomography in one call, then each pseudo-pure deviation
    is rescaled to a unit-weight matrix, which is replaced by the nearest
    density matrix only if it dips below -1e-6 (``tomo.project_unphysical``).
    The rescaling divides rounding error by the pure weight beta ~ epsilon,
    so ``epsilon`` below ``MIN_EPSILON`` raises ``ValueError``.
    """
    if epsilon < MIN_EPSILON:
        raise ValueError(
            f"epsilon {epsilon!r} too small: the pseudo-pure rescaling needs "
            f"epsilon >= {MIN_EPSILON:g}"
        )
    beta = nmrsim.pseudo_pure_beta(sys, epsilon)
    prep = nmrsim.bell_prep_sequence(sys, BellVariant.MINUS_PHI, refocus)
    decode = nmrsim.decode_sequence(sys, refocus)
    circuits = [(prep, nmrsim.encoding_pulse(m), decode) for m in protocol.MESSAGES]
    averages = temporal_average(sys, epsilon, circuits, params, seed, refocus)
    reconstructed = tomo.reconstruct(tomo.simulate_readouts(averages))
    extracted = tomo.project_unphysical((reconstructed - (1.0 - beta) * np.eye(4) / 4.0) / beta)
    panels = []
    for m, rho_exp in zip(protocol.MESSAGES, extracted):
        theory = ideal_output_density(m)
        panels.append(Fig4Panel(m, theory, rho_exp, tomo.max_element_error(rho_exp, theory)))
    return panels

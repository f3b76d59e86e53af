"""Simulated bench experiments: pseudo-pure preparation, noisy pulse
programs, tomography and deviation rescaling.

This is the pipeline behind the element-modulus bar-chart data: for each of
the four encodings, run the temporal-averaged protocol with the error model,
reconstruct the averaged state by tomography, extract the pseudo-pure
deviation and compare against the ideal output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nmrsim, noise, protocol, qcore, tomo
from .gates import BellVariant

#: Panel letters: a-d experimental, e-h theoretical, both in message order.
EXPERIMENTAL_PANELS = ("a", "b", "c", "d")
THEORY_PANELS = ("e", "f", "g", "h")


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


def pulse_output_state(
    sys: nmrsim.SpinSystem,
    m: int,
    variant: BellVariant,
    refocus: bool = True,
) -> np.ndarray:
    """Noise-free pulse-layer output state for message ``m`` (pure |00> input)."""
    u = nmrsim.compile_sequence(nmrsim.dense_coding_sequence(sys, m, variant, refocus), sys)
    return qcore.apply(u, qcore.basis_state(0))


def noisy_output_density(
    sys: nmrsim.SpinSystem,
    params: noise.ErrorParams,
    m: int,
    variant: BellVariant,
    seed: int,
    refocus: bool = True,
) -> np.ndarray:
    """Ensemble-averaged pulse-layer output for a pure |00> input."""
    seq = nmrsim.dense_coding_sequence(sys, m, variant, refocus)
    rho0 = qcore.pure_density(qcore.basis_state(0))
    return noise.ensemble_average(seq, sys, params, rho0, seed=seed)


def _simulated_experiments(
    sys: nmrsim.SpinSystem,
    epsilon: float,
    params: noise.ErrorParams,
    messages: tuple[int, ...],
    variant: BellVariant,
    seed: int,
    refocus: bool,
) -> list[np.ndarray]:
    """Extracted experimental matrices for ``messages``, in order.

    The member errors are drawn once for ``(params, seed)``, chunk by chunk.
    In each chunk every shared block (Bell preparation, encodings, decode,
    averaging prefixes) is compiled once as a per-member propagator stack,
    each prefix acting on a factor of the thermal state, and each program
    is composed as U_dec @ U_enc(m) @ U_prep @ U_prefix.  Every
    (message, prefix) run is averaged with T2 over its own free-evolution
    time.
    """
    rho_th = nmrsim.thermal_state(sys, epsilon)
    beta = nmrsim.pseudo_pure_beta(sys, epsilon)
    v_th = qcore.psd_factor(qcore.check_density_matrix(rho_th))
    prep = nmrsim.bell_prep_sequence(sys, variant, refocus=refocus)
    decode = nmrsim.decode_sequence(sys, refocus=refocus)
    encodes = [nmrsim.encoding_pulse(m) for m in messages]
    prefixes = nmrsim.permutation_sequences(sys, refocus=refocus)
    t_totals = [
        [prefix.total_delay() + (prep + encode + decode).total_delay() for prefix in prefixes]
        for encode in encodes
    ]

    def second_moments(draws: np.ndarray) -> np.ndarray:
        def stack(seq: nmrsim.PulseSequence, start: np.ndarray = qcore.ID4) -> np.ndarray:
            return nmrsim._propagate(seq, sys, draws, params.calib_offset, start)

        u_prep, u_decode = stack(prep), stack(decode)
        w_prefixes = [stack(prefix, v_th) for prefix in prefixes]
        moments = np.empty((len(encodes), len(prefixes), 4, 4), dtype=complex)
        for i, encode in enumerate(encodes):
            u_circuit = u_decode @ stack(encode) @ u_prep
            for j, w_prefix in enumerate(w_prefixes):
                moments[i, j] = noise._second_moment(u_circuit @ w_prefix)
        return moments

    states = noise._mean_states(params, seed, second_moments, t_totals)
    results = []
    for runs in states:
        rho_avg = runs.sum(axis=0) / 3.0
        reconstructed = tomo.reconstruct(tomo.simulate_readouts(rho_avg))
        rho_exp = (reconstructed - (1.0 - beta) * np.eye(4) / 4.0) / beta
        rho_exp = (rho_exp + rho_exp.conj().T) / 2.0
        if float(np.min(np.linalg.eigvalsh(rho_exp))) < -1e-6:
            rho_exp = tomo.clip_to_density(rho_exp)
        results.append(rho_exp)
    return results


def simulated_experiment(
    sys: nmrsim.SpinSystem,
    epsilon: float,
    params: noise.ErrorParams,
    m: int,
    variant: BellVariant = BellVariant.MINUS_PHI,
    seed: int = noise.DEMO_SEED,
    refocus: bool = True,
) -> np.ndarray:
    """Full simulated experiment for one message, returning the extracted matrix.

    The three temporal-averaging runs and all panels share one seed: the
    inhomogeneity pattern is a static property of the sample, identical in
    every run, so the member errors are drawn once per ``(params, seed)``
    and reused by every run.  The averaged state is reconstructed by
    tomography, then the pseudo-pure deviation is rescaled to a unit-weight
    matrix, which is replaced by the nearest density matrix
    (``tomo.clip_to_density``) only if the extraction dips below -1e-6.
    """
    return _simulated_experiments(sys, epsilon, params, (m,), variant, seed, refocus)[0]


def fig4_panels(
    sys: nmrsim.SpinSystem,
    epsilon: float,
    params: noise.ErrorParams,
    seed: int = noise.DEMO_SEED,
    refocus: bool = True,
) -> list[Fig4Panel]:
    """Theory/experiment matrix pairs for all four encodings.

    One draw of the member errors and one compilation of each shared pulse
    block serve all four experiments (see ``simulated_experiment``).
    """
    experiments = _simulated_experiments(
        sys, epsilon, params, protocol.MESSAGES, BellVariant.MINUS_PHI, seed, refocus
    )
    panels = []
    for m, experimental in zip(protocol.MESSAGES, experiments):
        theory = ideal_output_density(m)
        panels.append(
            Fig4Panel(
                message=m,
                theory=theory,
                experimental=experimental,
                error=tomo.max_element_error(experimental, theory),
            )
        )
    return panels

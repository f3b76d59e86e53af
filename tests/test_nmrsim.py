import math
from dataclasses import replace

import numpy as np
import pytest

import oracles
from densecode import experiment, nmrsim, noise, protocol, qcore
from densecode.nmrsim import Delay, PulseSequence, Rf, SpinSystem
from densecode.protocol import BELL_VARIANT_ORDER, BellVariant

RT2 = np.sqrt(2.0)


@pytest.fixture
def system():
    return SpinSystem()


def aligned_distance(u, v):
    """Independent phase alignment: dense scan plus trace refinement."""
    best = math.inf
    for phi in np.linspace(0, 2 * np.pi, 720, endpoint=False):
        best = min(best, float(np.max(np.abs(u - np.exp(1j * phi) * v))))
    tr = np.trace(v.conj().T @ u)
    if abs(tr) > 0:
        best = min(best, float(np.max(np.abs(u - (tr / abs(tr)) * v))))
    return best


class TestSpinSystem:
    def test_defaults(self, system):
        assert system.freq_a == 500.13
        assert system.freq_b == 125.77
        assert system.j_coupling == 215.0
        assert system.polarization_ratio == pytest.approx(3.9765, abs=2e-4)

    def test_ratio_derived_from_frequencies(self):
        system = SpinSystem(freq_a=400.0, freq_b=100.0)
        assert system.polarization_ratio == 4.0
        with pytest.raises(TypeError):
            SpinSystem(polarization_ratio=4.0)

    @pytest.mark.parametrize("field", ["freq_a", "freq_b", "j_coupling"])
    def test_rejects_nonpositive(self, field):
        with pytest.raises(ValueError):
            SpinSystem(**{field: 0.0})

    @pytest.mark.parametrize("field", ["freq_a", "freq_b", "j_coupling"])
    def test_rejects_infinite(self, field):
        with pytest.raises(ValueError, match=rf"^SpinSystem\.{field} must be finite"):
            SpinSystem(**{field: math.inf})

    def test_rejects_overflowing_ratio(self):
        with pytest.raises(ValueError, match=r"^SpinSystem\.freq_b is too small"):
            SpinSystem(freq_b=1e-320)

    def test_rejects_overflowing_cnot_delay(self):
        # pi/J, which bounds the phase scale pi*t of every delay, overflows to
        # inf below J ~ 1.75e-308 (1/(2J) only below ~2.8e-309); the smallest
        # normal J is accepted
        for j in (1e-320, 3.5e-309):
            with pytest.raises(ValueError, match=r"^SpinSystem\.j_coupling is too small"):
                SpinSystem(j_coupling=j)
        system = SpinSystem(j_coupling=2.2250738585072014e-308)
        assert math.isfinite(nmrsim.total_delay(nmrsim.cnot_pulse_sequence(system)))

    def test_rejects_overflowing_j_phase(self):
        # pi*J, the scale of every J phase, overflows to inf above J ~ 5.72e307
        with pytest.raises(ValueError, match=r"^SpinSystem\.j_coupling is too large"):
            SpinSystem(j_coupling=6e307)
        system = SpinSystem(j_coupling=5e307)
        assert np.all(np.isfinite(nmrsim.compile_sequence(nmrsim.cnot_pulse_sequence(system), system)))


class TestEvents:
    def test_rf_validation(self):
        with pytest.raises(ValueError):
            Rf("c", "X", np.pi)
        with pytest.raises(ValueError):
            Rf("a", "W", np.pi)
        with pytest.raises(ValueError):
            Rf("a", "X", math.inf)

    def test_delay_validation(self):
        with pytest.raises(ValueError):
            Delay(-1e-3)

    def test_sequence_concatenation_and_delay_total(self):
        seq = PulseSequence((Rf("a", "X", 1.0), Delay(2e-3))) + PulseSequence((Delay(3e-3),))
        assert len(seq) == 3
        assert nmrsim.total_delay(seq) == pytest.approx(5e-3)


def rf(spin, axis, angle):
    """Compiled propagator of a single RF pulse."""
    return nmrsim.compile_sequence(PulseSequence((Rf(spin, axis, angle),)), SpinSystem())


def delay(system, t):
    """Compiled propagator of a single free-evolution delay."""
    return nmrsim.compile_sequence(PulseSequence((Delay(t),)), system)


class TestRfUnitary:
    def test_pi_pulse_is_not_gate_up_to_phase(self):
        u = rf("b", "X", np.pi)
        assert np.allclose(u, -1j * np.kron(qcore.SIGMA_X, qcore.ID2), atol=1e-15)
        assert qcore.phase_aligned_distance(u, qcore.tensor(qcore.SIGMA_X, qcore.ID2)) < 1e-12

    def test_zero_angle_is_identity(self):
        assert np.allclose(rf("a", "X", 0.0), np.eye(4))

    def test_rotation_additivity(self):
        half = rf("a", "Y", np.pi / 2)
        assert np.allclose(half @ half, rf("a", "Y", np.pi), atol=1e-15)
        rng = np.random.default_rng(3)
        for _ in range(25):
            t1, t2 = rng.uniform(-2 * np.pi, 2 * np.pi, 2)
            combined = rf("b", "Z", t2) @ rf("b", "Z", t1)
            assert np.max(np.abs(combined - rf("b", "Z", t1 + t2))) < 1e-12

    def test_spin_placement(self):
        ua = rf("a", "X", 0.7)
        ub = rf("b", "X", 0.7)
        assert np.allclose(ua, np.kron(qcore.ID2, oracles.pauli_rotation("X", 0.7)))
        assert np.allclose(ub, np.kron(oracles.pauli_rotation("X", 0.7), qcore.ID2))


class TestJEvolution:
    def test_zero_time(self, system):
        assert np.allclose(delay(system, 0.0), np.eye(4))

    def test_half_coupling_period(self, system):
        u = delay(system, 1.0 / (2.0 * system.j_coupling))
        phases = np.exp(1j * np.pi / 4 * np.array([-1, 1, 1, -1]))
        assert np.max(np.abs(np.diag(u) - phases)) < 1e-12
        assert np.max(np.abs(u - np.diag(np.diag(u)))) == 0.0

    def test_full_period_up_to_phase(self, system):
        u = delay(system, 2.0 / system.j_coupling)
        assert aligned_distance(u, np.eye(4)) < 1e-12

    def test_unitary(self, system):
        qcore.check_unitary(delay(system, 1.234e-3))

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError, match="Delay duration"):
            Delay(-1)


class TestPseudoHadamard:
    def test_compiles_to_phased_conjugated_hadamard(self, system):
        compiled = nmrsim.compile_sequence(nmrsim.pseudo_hadamard_b(), system)
        h = np.array([[1, 1], [1, -1]], dtype=complex) / RT2
        z = np.array([[1, 0], [0, -1]], dtype=complex)
        target = np.kron(1j * (z @ h @ z), np.eye(2))
        assert np.max(np.abs(compiled - target)) < 1e-12
        assert np.max(np.abs(compiled - np.kron(1j * (z - qcore.SIGMA_X) / RT2, np.eye(2)))) < 1e-12

    def test_twice_is_global_phase(self, system):
        compiled = nmrsim.compile_sequence(nmrsim.pseudo_hadamard_b(), system)
        assert aligned_distance(compiled @ compiled, np.eye(4)) < 1e-12

    def test_balances_populations(self, system):
        compiled = nmrsim.compile_sequence(nmrsim.pseudo_hadamard_b(), system)
        probs = qcore.probabilities(compiled @ qcore.basis_state("10"))
        assert probs[0] == pytest.approx(0.5, abs=1e-12)
        assert probs[2] == pytest.approx(0.5, abs=1e-12)


class TestCnotSequence:
    @pytest.mark.parametrize("refocus", [False, True])
    def test_matches_ideal_up_to_phase(self, system, refocus):
        compiled = nmrsim.compile_sequence(
            nmrsim.cnot_pulse_sequence(system, refocus=refocus), system
        )
        assert aligned_distance(compiled, protocol.CNOT) < 1e-9

    def test_truth_table_up_to_phase(self, system):
        compiled = nmrsim.compile_sequence(nmrsim.cnot_pulse_sequence(system), system)
        out = compiled @ qcore.basis_state("10")
        assert abs(out[3]) ** 2 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("refocus", [False, True])
    def test_total_delay_is_half_coupling_period(self, system, refocus):
        seq = nmrsim.cnot_pulse_sequence(system, refocus=refocus)
        assert nmrsim.total_delay(seq) == pytest.approx(1.0 / (2 * 215.0))
        assert nmrsim.total_delay(seq) == pytest.approx(2.326e-3, abs=5e-7)

    def test_control_a_variant(self, system):
        compiled = nmrsim.compile_sequence(
            nmrsim.cnot_pulse_sequence(system, control="a"), system
        )
        assert aligned_distance(compiled, oracles.CNOT_AB) < 1e-9

    def test_rejects_unknown_control(self, system):
        with pytest.raises(ValueError):
            nmrsim.cnot_pulse_sequence(system, control="c")

    def test_refocusing_pairs_have_opposed_phases(self, system):
        seq = nmrsim.cnot_pulse_sequence(system, refocus=True)
        pi_pulses = [
            (ev.axis, ev.angle) for ev in seq if isinstance(ev, Rf) and abs(ev.angle) == np.pi
        ]
        assert sorted(pi_pulses) == [("X", -np.pi)] * 2 + [("X", np.pi)] * 2


class TestEncodingPulses:
    def test_identity_is_empty(self):
        assert len(nmrsim.encoding_pulse(1)) == 0

    @pytest.mark.parametrize(
        "i,sigma",
        [(2, qcore.SIGMA_Z), (3, qcore.SIGMA_X), (4, qcore.SIGMA_Y)],
    )
    def test_pi_pulse_encodings(self, system, i, sigma):
        compiled = nmrsim.compile_sequence(nmrsim.encoding_pulse(i), system)
        assert np.max(np.abs(compiled - np.kron(qcore.ID2, -1j * sigma))) < 1e-12
        ideal = qcore.tensor(qcore.ID2, protocol.ENCODINGS[i])
        assert qcore.phase_aligned_distance(compiled, ideal) < 1e-12

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            nmrsim.encoding_pulse(0)


class TestCompile:
    def test_empty_sequence(self, system):
        assert np.array_equal(nmrsim.compile_sequence(PulseSequence(()), system), np.eye(4))

    def test_single_event(self, system):
        seq = PulseSequence((Rf("b", "X", np.pi),))
        assert np.array_equal(
            nmrsim.compile_sequence(seq, system), oracles.rf_unitary("b", "X", np.pi)
        )

    def test_time_ordering(self, system):
        seq = PulseSequence((Rf("a", "X", np.pi / 2), Rf("a", "Y", np.pi / 2)))
        expected = oracles.rf_unitary("a", "Y", np.pi / 2) @ oracles.rf_unitary("a", "X", np.pi / 2)
        assert np.allclose(nmrsim.compile_sequence(seq, system), expected)

    def test_compiled_sequences_are_unitary(self, system):
        rng = np.random.default_rng(9)
        for _ in range(50):
            events = []
            for _ in range(rng.integers(1, 12)):
                if rng.random() < 0.7:
                    events.append(
                        Rf(
                            rng.choice(["a", "b"]),
                            rng.choice(["X", "Y", "Z"]),
                            float(rng.uniform(-2 * np.pi, 2 * np.pi)) * int(rng.choice([1, -1])),
                        )
                    )
                else:
                    events.append(Delay(float(rng.uniform(0, 5e-3))))
            compiled = nmrsim.compile_sequence(PulseSequence(tuple(events)), system)
            qcore.check_unitary(compiled)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("variant", BELL_VARIANT_ORDER)
    def test_full_program_recovers_populations(self, system, m, variant):
        seq = nmrsim.dense_coding_sequence(system, m, variant)
        final = nmrsim.compile_sequence(seq, system) @ qcore.basis_state(0)
        expected = protocol.run_network(m, variant)
        assert abs(final[expected.index]) ** 2 >= 1.0 - 1e-9


def library_programs():
    """(id, sequence) of every pulse program the library compiles."""
    system = SpinSystem()
    programs = []
    for refocus in (True, False):
        for m in protocol.MESSAGES:
            for v in BELL_VARIANT_ORDER:
                seq = nmrsim.dense_coding_sequence(system, m, v, refocus=refocus)
                programs.append((f"dense-{m}-{v.value}-refocus{refocus}", seq))
        for control in nmrsim.SPINS:
            seq = nmrsim.cnot_pulse_sequence(system, control=control, refocus=refocus)
            programs.append((f"cnot-{control}-refocus{refocus}", seq))
        for i, prefix in enumerate(nmrsim.permutation_sequences(system, refocus=refocus)):
            programs.append((f"prefix{i}-refocus{refocus}", prefix))
    for m in protocol.MESSAGES:
        programs.append((f"encoding-{m}", nmrsim.encoding_pulse(m)))
    programs.append(("pseudo-hadamard", nmrsim.pseudo_hadamard_b()))
    return programs


@pytest.mark.parametrize(
    "seq", [pytest.param(seq, id=name) for name, seq in library_programs()]
)
def test_compile_matches_kron_oracle(system, seq):
    """The row-permutation engine agrees with the product of Kronecker-built
    event matrices on every program the library compiles."""
    compiled = nmrsim.compile_sequence(seq, system)
    assert np.max(np.abs(compiled - oracles.kron_compile(seq, system))) <= 1e-15


#: An epsilon whose deviation rounds away: all four thermal populations are
#: exactly 1/4, the state of epsilon 0, which ``SpinSystem`` refuses.  Test
#: ids name it 0.0, the epsilon it stands for.
VANISHING_EPSILON = 1e-300


class TestThermalState:
    def test_zero_epsilon_is_maximally_mixed(self, system):
        rho = nmrsim.thermal_state(replace(system, epsilon=VANISHING_EPSILON))
        assert np.array_equal(rho, np.eye(4) / 4)

    @pytest.mark.parametrize("epsilon", [0.0, -1e-5, math.inf, math.nan])
    def test_spin_system_refuses_epsilon_not_finite_and_positive(self, epsilon):
        with pytest.raises(ValueError, match=r"^SpinSystem\.epsilon must be finite and > 0$"):
            SpinSystem(epsilon=epsilon)

    def test_population_ordering(self, system):
        diag = np.real(np.diag(nmrsim.thermal_state(replace(system, epsilon=1e-4))))
        assert diag[0] == max(diag)
        assert diag[3] == min(diag)
        assert np.argsort(diag).tolist() == [3, 1, 2, 0]  # ratio > 1 favors spin a

    def test_diagonal_only(self, system):
        rho = nmrsim.thermal_state(replace(system, epsilon=1e-4))
        assert np.max(np.abs(rho - np.diag(np.diag(rho)))) == 0.0

    def test_rejects_psd_breaking_epsilon(self, system):
        message = r"^SpinSystem\.epsilon 0\.2 too large: thermal populations go negative$"
        with pytest.raises(ValueError, match=message):
            nmrsim.thermal_state(replace(system, epsilon=0.2))

    def test_rejects_overflowing_deviation(self):
        # epsilon * ratio overflows: refused as too large, not raised by numpy
        system = SpinSystem(freq_b=1e-121, epsilon=1e233)
        with np.errstate(all="raise"), pytest.raises(ValueError, match="negative"):
            nmrsim.thermal_state(system)

    def test_valid_density(self, system):
        qcore.check_density_matrix(nmrsim.thermal_state(replace(system, epsilon=1e-3)))


class TestTemporalAveraging:
    def test_permutations_cycle_populations(self, system):
        p0, p1, p2 = nmrsim.permutation_sequences(system)
        assert len(p0) == 0
        u1 = nmrsim.compile_sequence(p1, system)
        u2 = nmrsim.compile_sequence(p2, system)
        # p1: |01> -> |10> -> |11> -> |01>; p2 is the inverse cycle
        for u, mapping in ((u1, {1: 2, 2: 3, 3: 1}), (u2, {1: 3, 2: 1, 3: 2})):
            for src, dst in mapping.items():
                out = u @ qcore.basis_state(src)
                assert abs(out[dst]) ** 2 == pytest.approx(1.0, abs=1e-9)

    def test_population_vectors_sum_uniformly(self, system):
        rho_th = nmrsim.thermal_state(replace(system, epsilon=1e-3))
        totals = np.zeros(4)
        for prefix in nmrsim.permutation_sequences(system):
            u = nmrsim.compile_sequence(prefix, system)
            totals += qcore.probabilities(u @ rho_th @ u.conj().T)
        assert totals[1] == pytest.approx(totals[2], abs=1e-12)
        assert totals[2] == pytest.approx(totals[3], abs=1e-12)

    def test_averaged_preparation_deviation(self, system):
        system = replace(system, epsilon=1e-3)
        rho = experiment.temporal_average(system, [()])[0]
        alpha, beta, residual = nmrsim.pseudo_pure_decomposition(rho)
        assert residual <= 1e-10
        assert beta > 0
        assert beta == pytest.approx(nmrsim.pseudo_pure_beta(system), abs=1e-12)
        assert alpha + beta == pytest.approx(1.0, abs=1e-12)

    def test_averaged_output_deviation_follows_circuit(self, system):
        system = replace(system, epsilon=1e-3)
        circuit = nmrsim.dense_coding_sequence(system, 1, BellVariant.MINUS_PHI)
        rho = experiment.temporal_average(system, [(circuit,)])[0]
        diag = np.real(np.diag(rho))
        background = np.mean([diag[0], diag[1], diag[3]])
        model = background * np.eye(4)
        model[2, 2] += diag[2] - background
        assert np.max(np.abs(rho - model)) < 1e-10
        assert diag[2] - background == pytest.approx(
            nmrsim.pseudo_pure_beta(system), abs=1e-12
        )

    def test_zero_epsilon_output_is_mixed(self, system):
        system = replace(system, epsilon=VANISHING_EPSILON)
        circuit = nmrsim.dense_coding_sequence(system, 3, BellVariant.PLUS_PSI)
        rho = experiment.temporal_average(system, [(circuit,)])[0]
        assert np.max(np.abs(rho - np.eye(4) / 4)) < 1e-12

    @pytest.mark.parametrize("epsilon", [1e-3, pytest.param(VANISHING_EPSILON, id="0.0")])
    @pytest.mark.parametrize("refocus", [True, False])
    def test_matches_prefix_loop_oracle(self, system, refocus, epsilon):
        """The empty circuit and all 16 dense-coding circuits, composed from
        their preparation, encoding and decoding blocks, against the oracle
        compiling each prefix + circuit as one program."""
        system = replace(system, epsilon=epsilon)
        decode = nmrsim.decode_sequence(system, refocus=refocus)
        circuits = [()] + [
            (nmrsim.bell_prep_sequence(system, v, refocus), nmrsim.encoding_pulse(m), decode)
            for m in protocol.MESSAGES
            for v in BELL_VARIANT_ORDER
        ]
        averaged = experiment.temporal_average(system, circuits, refocus=refocus)
        for circuit, rho in zip(circuits, averaged):
            expected = oracles.temporal_average(system, circuit, refocus)
            assert np.max(np.abs(rho - expected)) <= 1e-15

    @pytest.mark.parametrize(
        "params, seed",
        [(noise.ErrorParams(), 0)] + [(replace(noise.DEMO_PARAMS, ensemble_size=200), s) for s in (1, 3)],
    )
    @pytest.mark.parametrize("refocus", [True, False])
    def test_split_matches_full_rank_average(self, system, params, seed, refocus):
        """The thermal state's identity part left out of the ensemble average
        and added back: within 1e-15 of averaging the whole thermal state,
        on fig4's circuits and the empty one, noisy and noise-free."""
        prep = nmrsim.bell_prep_sequence(system, BellVariant.MINUS_PHI, refocus)
        decode = nmrsim.decode_sequence(system, refocus)
        circuits = [()] + [(prep, nmrsim.encoding_pulse(m), decode) for m in protocol.MESSAGES]
        args = (system, circuits, replace(params, seed=seed), refocus)
        got = experiment.temporal_average(*args)
        assert np.max(np.abs(got - oracles.full_rank_temporal_average(*args))) <= 1e-15

    @pytest.mark.parametrize("epsilon, columns", [(1e-5, 3), pytest.param(VANISHING_EPSILON, 4, id="0.0-4")])
    def test_ensemble_average_gets_factor_without_identity(self, system, monkeypatch, epsilon, columns):
        """The one ensemble average runs a 3-column factor of the thermal
        state: its |11> population, f, leaves with f I.  Where the deviation
        rounds away the state is all identity, and the full factor is run."""
        shapes = []
        mean_states = noise.mean_states

        def recorded(sys, p, circuits, heads, start):
            shapes.append(start.shape)
            return mean_states(sys, p, circuits, heads, start)

        monkeypatch.setattr(noise, "mean_states", recorded)
        params = replace(noise.DEMO_PARAMS, seed=1)
        experiment.temporal_average(replace(system, epsilon=epsilon), [()], params)
        assert shapes == [(4, columns)]

import json

import numpy as np
import pytest

import oracles
from densecode import experiment, protocol, qcore, tomo
from densecode.protocol import BellVariant

RT2 = np.sqrt(2.0)

IDX = {label: i for i, label in enumerate(tomo.PRODUCT_LABELS)}


def random_density(rng):
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def record_for(records, rb, ra):
    (rec,) = [r for r in records if r.readout_b == rb and r.readout_a == ra]
    return rec


class TestSimulateReadouts:
    def test_returns_nine_records(self):
        records = tomo.simulate_readouts(np.eye(4, dtype=complex) / 4)
        assert len(records) == 9
        pairs = {(r.readout_b, r.readout_a) for r in records}
        assert len(pairs) == 9

    def test_maximally_mixed_has_no_signal(self):
        for rec in tomo.simulate_readouts(np.eye(4, dtype=complex) / 4):
            assert rec.observed[0] == pytest.approx(1.0)
            assert np.max(np.abs(rec.observed[1:])) < 1e-12

    def test_ground_state_longitudinal_terms(self):
        records = tomo.simulate_readouts(qcore.pure_density(qcore.basis_state("00")))
        rec = record_for(records, "I", "I")
        assert rec.observed[IDX["ZI"]] == pytest.approx(1.0)
        assert rec.observed[IDX["IZ"]] == pytest.approx(1.0)
        assert rec.observed[IDX["ZZ"]] == pytest.approx(1.0)

    def test_bell_state_correlations(self):
        bell = np.array([1, 0, 0, -1], dtype=complex) / RT2
        records = tomo.simulate_readouts(qcore.pure_density(bell))
        rec = record_for(records, "I", "I")
        assert rec.observed[IDX["ZI"]] == pytest.approx(0.0, abs=1e-12)
        assert rec.observed[IDX["IZ"]] == pytest.approx(0.0, abs=1e-12)
        assert rec.observed[IDX["ZZ"]] == pytest.approx(1.0)

    def test_readout_pulse_rotates_observables(self):
        # an X90 on spin a turns z order into detectable transverse signal
        records = tomo.simulate_readouts(qcore.pure_density(qcore.basis_state("00")))
        rec = record_for(records, "I", "X90")
        assert abs(rec.observed[IDX["IY"]]) == pytest.approx(1.0)

    def test_record_validation(self):
        with pytest.raises(ValueError):
            tomo.ReadoutRecord("I", "I", np.zeros(16))  # identity slot must be 1
        with pytest.raises(ValueError):
            tomo.ReadoutRecord("Z90", "I", np.eye(16)[0])
        with pytest.raises(ValueError):
            tomo.ReadoutRecord("I", "I", np.full(16, np.nan))


class TestReconstruct:
    def test_round_trip_basis_state(self):
        rho = qcore.pure_density(qcore.basis_state("10"))
        rec = tomo.reconstruct(tomo.simulate_readouts(rho))
        assert np.max(np.abs(rec - rho)) < 1e-8

    def test_round_trip_random_densities(self):
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(100):
            rho = random_density(rng)
            rec = tomo.reconstruct(tomo.simulate_readouts(rho))
            worst = max(worst, float(np.max(np.abs(rec - rho))))
        assert worst < 1e-8

    def test_round_trip_protocol_outputs(self):
        for m in protocol.MESSAGES:
            rho = experiment.ideal_output_density(m)
            rec = tomo.reconstruct(tomo.simulate_readouts(rho))
            assert np.max(np.abs(rec - rho)) < 1e-8

    def test_output_is_valid_density(self):
        rng = np.random.default_rng(103)
        rec = tomo.reconstruct(tomo.simulate_readouts(random_density(rng)))
        qcore.check_density_matrix(rec, psd_floor=1e-6)

    def test_rank_deficiency_single_record(self):
        records = tomo.simulate_readouts(np.eye(4, dtype=complex) / 4)
        with pytest.raises(tomo.RankDeficiencyError):
            tomo.reconstruct(records[:1])

    def test_rank_deficiency_empty(self):
        with pytest.raises(tomo.RankDeficiencyError):
            tomo.reconstruct([])

    def test_uses_only_detectable_channels(self):
        # zeroing the undetectable slots must not change the fit
        rng = np.random.default_rng(107)
        rho = random_density(rng)
        records = tomo.simulate_readouts(rho)
        masked = []
        for rec in records:
            obs = np.zeros(16)
            obs[0] = 1.0
            for p in tomo.DETECTABLE_INDICES:
                obs[p] = rec.observed[p]
            masked.append(tomo.ReadoutRecord(rec.readout_b, rec.readout_a, obs))
        assert np.max(np.abs(tomo.reconstruct(masked) - tomo.reconstruct(records))) < 1e-12

    def test_clips_unphysical_fits(self):
        # craft observations of a trace-one Hermitian matrix with a negative
        # eigenvalue; the fit must come back clipped to a valid state
        c = 0.4
        fake = np.eye(4, dtype=complex) / 4 + c * (
            np.kron(qcore.SIGMA_X, qcore.SIGMA_X)
            + np.kron(qcore.SIGMA_Y, qcore.SIGMA_Y)
            + np.kron(qcore.SIGMA_Z, qcore.SIGMA_Z)
        ) / 4
        assert np.min(np.linalg.eigvalsh(fake)) < -1e-6
        records = []
        for rb, ra in [(b, a) for b in tomo.READOUT_PULSES for a in tomo.READOUT_PULSES]:
            u = tomo.readout_unitary(rb, ra)
            rotated = u @ fake @ u.conj().T
            obs = np.array([float(np.real(np.trace(op @ rotated))) for op in tomo.PRODUCT_OPS])
            records.append(tomo.ReadoutRecord(rb, ra, obs))
        rec = tomo.reconstruct(records)
        assert np.min(np.linalg.eigvalsh(rec)) >= -1e-12
        assert np.trace(rec) == pytest.approx(1.0)


class TestModulusTable:
    def test_basis_state_single_peak(self):
        table = tomo.element_modulus_table(qcore.pure_density(qcore.basis_state("10")))
        expected = np.zeros((4, 4))
        expected[2, 2] = 1.0
        assert np.max(np.abs(table.values - expected)) < 1e-12

    def test_maximally_mixed(self):
        table = tomo.element_modulus_table(np.eye(4, dtype=complex) / 4)
        assert np.allclose(table.values, np.eye(4) * 0.25)

    def test_bell_state_corners(self):
        bell = np.array([1, 0, 0, -1], dtype=complex) / RT2
        table = tomo.element_modulus_table(qcore.pure_density(bell))
        expected = np.zeros((4, 4))
        for j, k in ((0, 0), (0, 3), (3, 0), (3, 3)):
            expected[j, k] = 0.5
        assert np.max(np.abs(table.values - expected)) < 1e-12

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(109)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v /= np.linalg.norm(v)
        t1 = tomo.element_modulus_table(qcore.pure_density(v))
        t2 = tomo.element_modulus_table(qcore.pure_density(np.exp(0.83j) * v))
        assert np.max(np.abs(t1.values - t2.values)) < 1e-12

    def test_serialization_rows(self):
        table = tomo.element_modulus_table(np.eye(4, dtype=complex) / 4)
        rows = table.to_rows()
        assert len(rows) == 16
        assert rows[0] == (0, 0, 0.25)
        assert rows[1] == (0, 1, 0.0)

    def test_serialization_json(self):
        table = tomo.element_modulus_table(np.eye(4, dtype=complex) / 4)
        payload = json.loads(json.dumps(table.to_json_dict()))
        assert payload["axis"] == ["00", "01", "10", "11"]
        assert payload["modulus"][0][0] == 0.25

    def test_validation(self):
        bad = np.zeros((4, 4))
        bad[0, 1] = 0.3  # asymmetric
        with pytest.raises(ValueError):
            tomo.ModulusTable(bad)
        too_big = np.eye(4) * 1.5
        with pytest.raises(ValueError):
            tomo.ModulusTable(too_big)


class TestMaxElementError:
    def test_identical_inputs(self):
        rho = qcore.pure_density(qcore.basis_state("00"))
        err = tomo.max_element_error(rho, rho)
        assert err.absolute == 0.0
        assert err.relative == 0.0

    def test_mixed_vs_pure(self):
        err = tomo.max_element_error(
            np.eye(4, dtype=complex) / 4, qcore.pure_density(qcore.basis_state("00"))
        )
        assert err.absolute == pytest.approx(0.75)
        assert err.relative == pytest.approx(0.75)

    def test_relative_normalization(self):
        bell = qcore.pure_density(np.array([1, 0, 0, -1], dtype=complex) / RT2)
        perturbed = bell.copy()
        perturbed[0, 3] *= 0.9
        perturbed[3, 0] *= 0.9
        err = tomo.max_element_error(perturbed, bell)
        assert err.absolute == pytest.approx(0.05)
        assert err.relative == pytest.approx(0.10)


def old_design_rows(rb, ra):
    """Design rows of one readout by explicit traces, one row per detectable
    observable Q: tr(U^H Q U P)/4 for each fitted product operator P."""
    u = tomo.readout_unitary(rb, ra)
    fit = [p for p in range(16) if tomo.PRODUCT_LABELS[p] != "II"]
    rows = []
    for q in tomo.DETECTABLE_INDICES:
        back = u.conj().T @ tomo.PRODUCT_OPS[q] @ u
        rows.append([float(np.real(np.trace(back @ tomo.PRODUCT_OPS[p]))) / 4.0 for p in fit])
    return np.array(rows)


class TestConstantMap:
    def test_readout_unitaries_equal_kron_oracle(self):
        pulses = {
            "I": qcore.ID2,
            "X90": oracles.pauli_rotation("X", np.pi / 2),
            "Y90": oracles.pauli_rotation("Y", np.pi / 2),
        }
        expected = np.array([np.kron(pulses[rb], pulses[ra]) for rb, ra in tomo.READOUT_PAIRS])
        assert np.array_equal(tomo._READOUT_UNITARIES, expected)
        for r, (rb, ra) in enumerate(tomo.READOUT_PAIRS):
            assert np.array_equal(tomo.readout_unitary(rb, ra), expected[r])

    def test_design_blocks_match_trace_oracle(self):
        assert tomo._DESIGN_BLOCKS.shape == (9, 8, 15)
        for r, (rb, ra) in enumerate(tomo.READOUT_PAIRS):
            assert np.max(np.abs(tomo._DESIGN_BLOCKS[r] - old_design_rows(rb, ra))) < 1e-14

    def test_simulate_readouts_matches_trace_oracle(self):
        rng = np.random.default_rng(113)
        for _ in range(20):
            rho = random_density(rng)
            for rec in tomo.simulate_readouts(rho):
                u = tomo.readout_unitary(rec.readout_b, rec.readout_a)
                rotated = u @ rho @ u.conj().T
                expected = [float(np.real(np.trace(op @ rotated))) for op in tomo.PRODUCT_OPS]
                assert np.max(np.abs(rec.observed - expected)) < 1e-14

    def test_record_order_and_multiplicity_do_not_matter(self):
        rng = np.random.default_rng(127)
        records = tomo.simulate_readouts(random_density(rng))
        full = tomo.reconstruct(records)
        permuted = [records[i] for i in rng.permutation(9)]
        assert np.max(np.abs(tomo.reconstruct(permuted) - full)) < 1e-12
        assert np.max(np.abs(tomo.reconstruct(records + records[:4]) - full)) < 1e-12
        assert np.max(np.abs(tomo.reconstruct(records * 3) - full)) < 1e-12

    @pytest.mark.parametrize("dropped", range(9))
    def test_every_eight_of_nine_subset_is_full_rank(self, dropped):
        rng = np.random.default_rng(131)
        records = tomo.simulate_readouts(random_density(rng))
        full = tomo.reconstruct(records)
        subset = records[:dropped] + records[dropped + 1:]
        assert np.max(np.abs(tomo.reconstruct(subset) - full)) < 1e-12

    def test_repeated_single_readout_is_rank_deficient(self):
        records = tomo.simulate_readouts(np.eye(4, dtype=complex) / 4)
        with pytest.raises(tomo.RankDeficiencyError):
            tomo.reconstruct([record_for(records, "I", "I")] * 9)


def random_hermitian(rng):
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    return (a + a.conj().T) / 4 + np.eye(4) / 4


def random_state_of_rank(rng, rank):
    a = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


class TestClipToDensity:
    def test_no_density_matrix_is_closer(self):
        # the unit-trace PSD set is convex, so beating every sampled state and
        # every small step from the projection towards one is a brute-force
        # check of the nearest point
        rng = np.random.default_rng(137)
        for _ in range(30):
            h = random_hermitian(rng)
            proj = tomo.clip_to_density(h)
            qcore.check_density_matrix(proj)
            best = np.linalg.norm(h - proj)
            for _ in range(200):
                sigma = random_state_of_rank(rng, int(rng.integers(1, 5)))
                assert np.linalg.norm(h - sigma) >= best - 1e-12
                for t in (1e-1, 1e-3):
                    step = (1 - t) * proj + t * sigma
                    assert np.linalg.norm(h - step) >= best - 1e-12

    def test_density_matrix_comes_back_unchanged(self):
        rng = np.random.default_rng(139)
        for rank in (1, 2, 3, 4):
            rho = random_state_of_rank(rng, rank)
            assert np.max(np.abs(tomo.clip_to_density(rho) - rho)) < 1e-14

    def test_shifts_eigenvalues_instead_of_rescaling(self):
        # clipping the negatives and rescaling would give 0.6/1.1 and 0.5/1.1
        m = np.diag([0.6, 0.5, -0.05, -0.05]).astype(complex)
        proj = tomo.clip_to_density(m)
        assert np.allclose(proj, np.diag([0.55, 0.45, 0.0, 0.0]), atol=1e-15)

    def test_eigenvalues_beyond_float_resolution_do_not_raise(self):
        # the largest eigenvalue minus 1 rounds back to itself, so no
        # eigenvalue compares above its shift
        proj = tomo.clip_to_density(np.diag([1e300, 0.0, 0.0, -1e300]))
        assert proj.shape == (4, 4) and np.all(np.isfinite(proj))
        assert np.min(np.linalg.eigvalsh(proj)) >= 0.0


def test_clip_to_density_projects_and_renormalizes():
    m = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
    clipped = tomo.clip_to_density(m)
    vals = np.linalg.eigvalsh(clipped)
    assert np.min(vals) >= -1e-15
    assert np.trace(clipped) == pytest.approx(1.0)


def test_ideal_output_density_matches_table():
    rho = experiment.ideal_output_density(4, BellVariant.MINUS_PHI)
    assert np.allclose(rho, qcore.pure_density(qcore.basis_state("01")), atol=1e-12)

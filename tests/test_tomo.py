import csv
import io
import json

import numpy as np
import pytest

import oracles
from densecode import cli, experiment, protocol, qcore, tomo, validation
from densecode.protocol import BellVariant

RT2 = np.sqrt(2.0)

IDX = {label: i for i, label in enumerate(tomo.PRODUCT_LABELS)}


def random_density(rng):
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


#: Row of each readout pulse pair in ``simulate_readouts``' output.
READOUT = {pair: r for r, pair in enumerate(tomo.READOUT_PAIRS)}


def trace_readouts(rho):
    """Readouts by explicit traces: tr(P U rho U^H) per readout and operator."""
    rows = []
    for rb, ra in tomo.READOUT_PAIRS:
        u = tomo.readout_unitary(rb, ra)
        rotated = u @ rho @ u.conj().T
        rows.append([float(np.real(np.trace(op @ rotated))) for op in tomo.PRODUCT_OPS])
    return np.array(rows)


class TestSimulateReadouts:
    def test_returns_nine_records(self):
        observed = tomo.simulate_readouts(np.eye(4, dtype=complex) / 4)
        assert observed.shape == (9, 16)
        assert len(set(tomo.READOUT_PAIRS)) == 9

    def test_maximally_mixed_has_no_signal(self):
        observed = tomo.simulate_readouts(np.eye(4, dtype=complex) / 4)
        assert np.allclose(observed[:, IDX["II"]], 1.0)
        assert np.max(np.abs(observed[:, 1:])) < 1e-12

    def test_ground_state_longitudinal_terms(self):
        observed = tomo.simulate_readouts(qcore.pure_density(qcore.basis_state("00")))
        row = observed[READOUT["I", "I"]]
        assert row[IDX["ZI"]] == pytest.approx(1.0)
        assert row[IDX["IZ"]] == pytest.approx(1.0)
        assert row[IDX["ZZ"]] == pytest.approx(1.0)

    def test_bell_state_correlations(self):
        bell = np.array([1, 0, 0, -1], dtype=complex) / RT2
        row = tomo.simulate_readouts(qcore.pure_density(bell))[READOUT["I", "I"]]
        assert row[IDX["ZI"]] == pytest.approx(0.0, abs=1e-12)
        assert row[IDX["IZ"]] == pytest.approx(0.0, abs=1e-12)
        assert row[IDX["ZZ"]] == pytest.approx(1.0)

    def test_readout_pulse_rotates_observables(self):
        # an X90 on spin a turns z order into detectable transverse signal
        observed = tomo.simulate_readouts(qcore.pure_density(qcore.basis_state("00")))
        assert abs(observed[READOUT["I", "X90"], IDX["IY"]]) == pytest.approx(1.0)

    def test_stacked_readouts_equal_per_state_readouts(self):
        rng = np.random.default_rng(111)
        states = np.array([[random_density(rng) for _ in range(5)] for _ in range(2)])
        stacked = tomo.simulate_readouts(states)
        assert stacked.shape == (2, 5, 9, 16)
        for i, j in np.ndindex(2, 5):
            assert np.array_equal(stacked[i, j], tomo.simulate_readouts(states[i, j]))


@pytest.mark.parametrize("seed", [0, 3, 20260808])
def test_random_densities_equal_per_state_loop(seed):
    rng = np.random.default_rng(seed)
    expected = np.array([random_density(rng) for _ in range(100)])
    assert np.array_equal(validation._random_densities(np.random.default_rng(seed), 100), expected)


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

    def test_stacked_round_trip_equals_per_state_loop(self):
        rng = np.random.default_rng(105)
        states = np.array([[random_density(rng) for _ in range(5)] for _ in range(2)])
        stacked = tomo.reconstruct(tomo.simulate_readouts(states))
        assert stacked.shape == (2, 5, 4, 4)
        for i in range(2):
            for j in range(5):
                single = tomo.reconstruct(tomo.simulate_readouts(states[i, j]))
                assert np.array_equal(stacked[i, j], single)

    def test_output_is_valid_density(self):
        rng = np.random.default_rng(103)
        rec = tomo.reconstruct(tomo.simulate_readouts(random_density(rng)))
        qcore.check_density_matrix(rec, psd_floor=1e-6)

    def test_rejects_malformed_readouts(self):
        observed = tomo.simulate_readouts(np.eye(4, dtype=complex) / 4)
        for shape_error in (observed[:8], observed[:, :15], observed[0], observed.T):
            with pytest.raises(ValueError, match="shape"):
                tomo.reconstruct(shape_error)
        for value in (np.nan, np.inf):
            bad = observed.copy()
            bad[4, tomo.DETECTABLE_INDICES[0]] = value
            with pytest.raises(ValueError, match="non-finite"):
                tomo.reconstruct(bad)

    def test_uses_only_detectable_channels(self):
        # zeroing the undetectable slots must not change the fit
        rng = np.random.default_rng(107)
        observed = tomo.simulate_readouts(random_density(rng))
        masked = np.zeros_like(observed)
        masked[:, IDX["II"]] = 1.0
        masked[:, tomo.DETECTABLE_INDICES] = observed[:, tomo.DETECTABLE_INDICES]
        assert np.max(np.abs(tomo.reconstruct(masked) - tomo.reconstruct(observed))) < 1e-12

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
        rec = tomo.reconstruct(trace_readouts(fake))
        assert np.min(np.linalg.eigvalsh(rec)) >= -1e-12
        assert np.trace(rec) == pytest.approx(1.0)


class TestProjectUnphysical:
    def test_projects_only_members_that_dip(self):
        unphysical = np.diag([0.6, 0.5, -0.05, -0.05]).astype(complex)
        shallow = np.diag([0.5, 0.5 + 1e-9, -1e-9, 0.0]).astype(complex)
        out = tomo.project_unphysical(np.array([unphysical, shallow]))
        assert np.array_equal(out[0], tomo.clip_to_density(unphysical))
        assert np.min(np.linalg.eigvalsh(out[0])) >= -1e-15
        assert np.array_equal(out[1], shallow)

def tomo_output(monkeypatch, capsys, rho, fmt):
    """What ``densecode tomo --format fmt`` writes when the state it
    tomographs (and compares with) is ``rho``."""
    monkeypatch.setattr(experiment, "ideal_output_density", lambda m, v: rho)
    assert cli.main(["tomo", "-m", "1", "--format", fmt]) == 0
    return capsys.readouterr().out


def modulus_table(monkeypatch, capsys, rho):
    """The modulus table of ``densecode tomo --format json`` for ``rho``."""
    return json.loads(tomo_output(monkeypatch, capsys, rho, "json"))["modulus_table"]


class TestModulusTable:
    """The element moduli |rho_jk| that ``densecode tomo`` reports."""

    def test_basis_state_single_peak(self, capsys):
        # message 1 on the minus-phi Bell state decodes to |10>
        assert cli.main(["tomo", "-m", "1", "--format", "json"]) == 0
        table = json.loads(capsys.readouterr().out)["modulus_table"]
        expected = np.zeros((4, 4))
        expected[2, 2] = 1.0
        assert np.max(np.abs(np.array(table["modulus"]) - expected)) < 1e-12

    def test_maximally_mixed(self, monkeypatch, capsys):
        table = modulus_table(monkeypatch, capsys, np.eye(4, dtype=complex) / 4)
        assert np.allclose(table["modulus"], np.eye(4) * 0.25, rtol=0, atol=1e-12)

    def test_bell_state_corners(self, monkeypatch, capsys):
        bell = np.array([1, 0, 0, -1], dtype=complex) / RT2
        table = modulus_table(monkeypatch, capsys, qcore.pure_density(bell))
        expected = np.zeros((4, 4))
        for j, k in ((0, 0), (0, 3), (3, 0), (3, 3)):
            expected[j, k] = 0.5
        assert np.max(np.abs(np.array(table["modulus"]) - expected)) < 1e-12

    def test_global_phase_invariance(self, monkeypatch, capsys):
        rng = np.random.default_rng(109)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v /= np.linalg.norm(v)
        t1 = modulus_table(monkeypatch, capsys, qcore.pure_density(v))
        t2 = modulus_table(monkeypatch, capsys, qcore.pure_density(np.exp(0.83j) * v))
        assert np.max(np.abs(np.array(t1["modulus"]) - np.array(t2["modulus"]))) < 1e-12

    def test_serialization_rows(self, monkeypatch, capsys):
        out = tomo_output(monkeypatch, capsys, np.eye(4, dtype=complex) / 4, "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["row", "col", "modulus"]
        assert [(int(j), int(k)) for j, k, _ in rows[1:]] == [(j, k) for j in range(4) for k in range(4)]
        assert rows[1][2] == "0.25"
        assert abs(float(rows[2][2])) < 1e-12

    def test_serialization_json(self, monkeypatch, capsys):
        table = modulus_table(monkeypatch, capsys, np.eye(4, dtype=complex) / 4)
        assert table["axis"] == ["00", "01", "10", "11"]
        assert table["modulus"][0][0] == pytest.approx(0.25, abs=1e-12)


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

    def test_design_blocks_are_readouts_of_fit_operators(self):
        # the detectable slots of what the readout map makes of P_j / 4
        fit = [p for p in range(16) if tomo.PRODUCT_LABELS[p] != "II"]
        for j, p in enumerate(fit):
            readouts = (tomo.PRODUCT_OPS[p].reshape(16) / 4.0 @ tomo._READOUT_MAP).real
            detected = readouts.reshape(9, 16)[:, list(tomo.DETECTABLE_INDICES)]
            assert np.array_equal(tomo._DESIGN_BLOCKS[:, :, j], detected)

    def test_fit_map_is_left_inverse_of_design(self):
        design = np.concatenate([old_design_rows(rb, ra) for rb, ra in tomo.READOUT_PAIRS])
        assert tomo._FIT_MAP.shape == (15, 72)
        assert np.max(np.abs(tomo._FIT_MAP @ design - np.eye(15))) < 1e-14

    def test_simulate_readouts_matches_trace_oracle(self):
        rng = np.random.default_rng(113)
        states = np.array([random_density(rng) for _ in range(20)])
        observed = tomo.simulate_readouts(states)
        for rho, obs in zip(states, observed):
            assert np.max(np.abs(obs - trace_readouts(rho))) < 1e-14

    @pytest.mark.parametrize("dropped", range(9))
    def test_every_eight_of_nine_subset_is_full_rank(self, dropped):
        # the readout set is redundant: any eight readouts fix all 15
        # coefficients
        subset = np.delete(tomo._DESIGN_BLOCKS, dropped, axis=0).reshape(-1, 15)
        assert np.linalg.matrix_rank(subset) == 15

    def test_repeated_single_readout_is_rank_deficient(self):
        # no one readout sees all 15 coefficients, however often repeated
        for block in tomo._DESIGN_BLOCKS:
            assert np.linalg.matrix_rank(np.tile(block, (9, 1))) < 15


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

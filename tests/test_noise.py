import itertools
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from densecode import experiment, nmrsim, noise, protocol, qcore, tomo, validation
from densecode.nmrsim import PulseSequence, Rf, SpinSystem
from densecode.protocol import BELL_VARIANT_ORDER, BellVariant

RHO00 = qcore.pure_density(qcore.basis_state(0))


def mean_state(seq, system, p, rho0):
    """``seq`` run alone on ``rho0`` (a density matrix) through the one
    ensemble average: one flat head, the empty circuit, a factor of
    ``rho0``."""
    v = qcore.psd_factor(qcore.check_density_matrix(rho0))
    return noise.mean_states(system, p, [()], [nmrsim.events(seq)], v)[0, 0]


@pytest.fixture
def system():
    return SpinSystem()


@pytest.fixture
def bell_seq(system):
    return nmrsim.events(nmrsim.bell_prep_sequence(system, BellVariant.MINUS_PHI))


def bell_infidelity(system, seq, params):
    """Infidelity of the noisy run against the noise-free output of ``seq``."""
    rho = mean_state(seq, system, params, RHO00)
    u = nmrsim.compile_sequence(seq, system)
    return 1.0 - qcore.fidelity(rho, u @ RHO00 @ u.conj().T)


class TestErrorParams:
    def test_defaults_are_noise_free(self):
        p = noise.ErrorParams()
        assert p.rf_spread == 0.0
        assert p.calib_offset == 0.0
        assert math.isinf(p.t2_a)
        assert p.ensemble_size == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rf_spread": -0.1},
            {"offset_spread_hz": -1.0},
            {"t2_a": 0.0},
            {"t2_b": -2.0},
            {"ensemble_size": 0},
            {"calib_offset": math.nan},
            {"ensemble_size": True},
            {"rf_spread": math.inf},
            {"offset_spread_hz": math.inf},
            {"t2_a": 1e-320},
            {"t2_b": 5e-324},
            {"rf_spread": 1e308},  # 3 sigma, the truncation, overflows
            {"offset_spread_hz": 1e308},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            noise.ErrorParams(**kwargs)

    def test_ensemble_size_upper_bound(self):
        assert noise.ErrorParams(ensemble_size=noise.MAX_ENSEMBLE_SIZE).ensemble_size == (
            noise.MAX_ENSEMBLE_SIZE
        )
        with pytest.raises(ValueError, match="ensemble_size"):
            noise.ErrorParams(ensemble_size=noise.MAX_ENSEMBLE_SIZE + 1)


class TestNoisyCompile:
    def test_zero_noise_equals_clean_compile(self, system, bell_seq):
        p = noise.ErrorParams()
        clean = nmrsim.compile_sequence(bell_seq, system)
        noisy = oracles.noisy_compile(bell_seq, system, replace(p, seed=42))
        assert np.max(np.abs(noisy - clean)) < 1e-12

    def test_calibration_offset_scales_angle(self, system):
        eps = 0.03
        p = noise.ErrorParams(calib_offset=eps)
        seq = PulseSequence((Rf("b", "X", np.pi),))
        noisy = oracles.noisy_compile(seq, system, p)
        expected = oracles.rf_unitary("b", "X", np.pi * (1 + eps))
        assert np.max(np.abs(noisy - expected)) < 1e-12

    def test_deterministic_given_seed(self, system, bell_seq):
        p = noise.ErrorParams(rf_spread=0.05, offset_spread_hz=20.0, seed=7)
        a = oracles.noisy_compile(bell_seq, system, p)
        b = oracles.noisy_compile(bell_seq, system, p)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self, system, bell_seq):
        p = noise.ErrorParams(rf_spread=0.05)
        a = oracles.noisy_compile(bell_seq, system, replace(p, seed=1))
        b = oracles.noisy_compile(bell_seq, system, replace(p, seed=2))
        assert np.max(np.abs(a - b)) > 1e-6

    def test_output_is_unitary(self, system, bell_seq):
        p = noise.ErrorParams(rf_spread=0.1, calib_offset=0.05, offset_spread_hz=50.0, seed=3)
        qcore.check_unitary(oracles.noisy_compile(bell_seq, system, p))

    def test_draws_truncated_at_three_sigma(self):
        p = noise.ErrorParams(rf_spread=2.0, offset_spread_hz=2.0, ensemble_size=20000)
        draws = oracles.member_draws(p)
        assert draws.shape == (20000, 3)
        assert np.max(np.abs(draws)) <= 6.0


class TestEnsembleAverage:
    def test_zero_noise_any_size_is_clean_evolution(self, system, bell_seq):
        p = noise.ErrorParams(ensemble_size=17, seed=5)
        rho = mean_state(bell_seq, system, p, RHO00)
        u = nmrsim.compile_sequence(bell_seq, system)
        assert np.max(np.abs(rho - u @ RHO00 @ u.conj().T)) < 1e-12

    def test_matches_member_by_member_compilation(self, system, bell_seq):
        p = noise.ErrorParams(rf_spread=0.05, offset_spread_hz=25.0, ensemble_size=8, seed=11)
        total = np.zeros((4, 4), dtype=complex)
        for k in range(p.ensemble_size):
            u = oracles.noisy_compile(bell_seq, system, p, member=k)
            total += u @ RHO00 @ u.conj().T
        expected = total / p.ensemble_size
        rho = mean_state(bell_seq, system, p, RHO00)
        assert np.max(np.abs(rho - expected)) < 1e-12  # T2 inf: no damping

    def test_bit_identical_reruns(self, system, bell_seq):
        p = noise.ErrorParams(rf_spread=0.08, offset_spread_hz=40.0, ensemble_size=64, seed=123)
        a = mean_state(bell_seq, system, p, RHO00)
        b = mean_state(bell_seq, system, p, RHO00)
        assert np.array_equal(a, b)

    def test_output_valid_density_for_aggressive_params(self, system, bell_seq):
        p = noise.ErrorParams(
            rf_spread=0.5, calib_offset=0.2, offset_spread_hz=200.0,
            t2_a=0.01, t2_b=0.02, ensemble_size=50, seed=9,
        )
        rho = mean_state(bell_seq, system, p, RHO00)
        qcore.check_density_matrix(rho)

    def test_huge_rf_spread_kills_coherence(self, system):
        seq = PulseSequence((Rf("a", "X", np.pi / 2),))
        p = noise.ErrorParams(rf_spread=50.0, ensemble_size=2000, seed=21)
        rho = mean_state(seq, system, p, RHO00)
        # transverse coherence of spin a lives on the (00,01) and (10,11) elements
        assert abs(rho[0, 1]) < 0.05
        assert abs(rho[2, 3]) < 0.05

    def test_t2_damps_off_diagonals_only(self, system):
        seq = PulseSequence((Rf("a", "X", np.pi / 2), nmrsim.Delay(0.05)))
        p_decay = noise.ErrorParams(t2_a=0.1, t2_b=0.1)
        p_clean = noise.ErrorParams()
        damped = mean_state(seq, system, p_decay, RHO00)
        clean = mean_state(seq, system, p_clean, RHO00)
        assert np.allclose(np.diag(damped), np.diag(clean), atol=1e-12)
        factor = math.exp(-0.05 / 0.1)
        assert abs(damped[0, 1]) == pytest.approx(abs(clean[0, 1]) * factor, rel=1e-9)

    @pytest.mark.parametrize(
        "j,params,message",
        [
            # each value is in range alone; the J delay over T2 overflows
            (1e-300, {"t2_a": 1e-10}, r"^ErrorParams\.t2_a is too small .* SpinSystem\.j_coupling"),
            (1e-300, {"t2_b": 1e-10}, r"^ErrorParams\.t2_b is too small .* SpinSystem\.j_coupling"),
            (1e-300, {"offset_spread_hz": 1e10},
             r"^ErrorParams\.offset_spread_hz is too large .* SpinSystem\.j_coupling"),
            (215.0, {"calib_offset": 1e308}, r"^ErrorParams\.calib_offset or ErrorParams\.rf_spread"),
            (215.0, {"calib_offset": 1e300, "rf_spread": 1e308 / 3.5},
             r"^ErrorParams\.calib_offset or ErrorParams\.rf_spread"),
        ],
    )
    def test_overflowing_phase_refused_before_any_draw(self, monkeypatch, j, params, message):
        system = SpinSystem(j_coupling=j)
        seq = nmrsim.bell_prep_sequence(system, BellVariant.MINUS_PHI)
        monkeypatch.setattr(noise, "_draw_chunks", lambda p: pytest.fail("drew before refusing"))
        with np.errstate(all="raise"), pytest.raises(ValueError, match=message):
            mean_state(seq, system, noise.ErrorParams(**params), RHO00)


def member_oracle(seq, system, p, rho0):
    """Mean of U_k rho0 U_k^H over the members' draws, each U_k a product of
    ``oracles.rf_unitary`` and diagonal delay matrices, then T2 damping."""
    total = np.zeros((4, 4), dtype=complex)
    for delta, off_a, off_b in oracles.member_draws(p):
        u = np.eye(4, dtype=complex)
        for ev in seq:
            if isinstance(ev, Rf):
                angle = ev.angle * (1.0 + p.calib_offset + delta)
                u = oracles.rf_unitary(ev.spin, ev.axis, angle) @ u
            else:
                za = np.array([1, -1, 1, -1])
                zb = np.array([1, 1, -1, -1])
                phase = (
                    np.pi * system.j_coupling * ev.duration / 2 * za * zb
                    + np.pi * ev.duration * (off_a * za + off_b * zb)
                )
                u = np.diag(np.exp(-1j * phase)) @ u
        total += u @ rho0 @ u.conj().T
    return total / p.ensemble_size * t2_damping(nmrsim.total_delay(seq), p)


def t2_damping(t, p):
    """The T2 factor of each density-matrix element after ``t`` seconds of
    free evolution: exp(-t/T2) for each spin whose state differs between
    the element's row and column."""
    damp = np.ones((4, 4))
    for i in range(4):
        for j in range(4):
            if i & 1 != j & 1:
                damp[i, j] *= math.exp(-t / p.t2_a)
            if i >> 1 != j >> 1:
                damp[i, j] *= math.exp(-t / p.t2_b)
    return damp


class TestRowPermutationEngine:
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("axis", nmrsim.AXES)
    @pytest.mark.parametrize("spin", nmrsim.SPINS)
    def test_pulse_matches_rf_unitary(self, system, spin, axis, sign):
        p = noise.ErrorParams(calib_offset=0.03)
        deltas = np.array([0.0, 0.07, -0.11, 0.4])
        draws = np.column_stack([deltas, [5.0, -3.0, 0.0, 12.0], [1.0, 2.0, -7.0, 0.0]])
        seq = PulseSequence((Rf(spin, axis, sign * 1.3),))
        stack = nmrsim._compile_stack(seq, system, draws, p.calib_offset)
        for u, delta in zip(np.moveaxis(stack, -1, 0), deltas):
            expected = oracles.rf_unitary(spin, axis, sign * 1.3 * (1.0 + 0.03 + delta))
            assert np.max(np.abs(u - expected)) < 1e-14

    @pytest.mark.parametrize(
        "rho0",
        [
            RHO00,
            nmrsim.thermal_state(SpinSystem(epsilon=1e-3)),
            np.diag([0.7, 0.0, 0.3, 0.0]).astype(complex),
        ],
        ids=["pure", "thermal", "rank2"],
    )
    def test_chunked_average_matches_member_oracle(self, system, monkeypatch, rho0):
        chunk = 5
        monkeypatch.setattr(noise, "CHUNK_SIZE", chunk)
        seq = nmrsim.events(nmrsim.dense_coding_sequence(system, 4, BellVariant.MINUS_PSI))
        base = replace(noise.DEMO_PARAMS, t2_a=0.05, t2_b=0.08)
        for size in (chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
            p = replace(base, ensemble_size=size, seed=size)
            rho = mean_state(seq, system, p, rho0)
            assert np.max(np.abs(rho - member_oracle(seq, system, p, rho0))) < 1e-12

    @pytest.mark.parametrize("chunk", [3, None])
    def test_chunked_draws_equal_one_spawn(self, monkeypatch, chunk):
        """Chunk c is drawn from the c-th child of one ``SeedSequence(seed)
        .spawn``: every entry of its first block within 3 is kept, in place,
        and scaled by its sigma; only the entries beyond 3 are redrawn."""
        if chunk is not None:
            monkeypatch.setattr(noise, "CHUNK_SIZE", chunk)
        c = noise.CHUNK_SIZE
        p = replace(noise.DEMO_PARAMS, ensemble_size=2 * c + 1, seed=99)
        sigmas = np.array([p.rf_spread, p.offset_spread_hz, p.offset_spread_hz])
        chunks = list(noise._draw_chunks(p))
        assert [len(x) for x in chunks] == [c, c, 1]
        children = np.random.SeedSequence(99).spawn(len(chunks))
        for got, child in zip(chunks, children):
            first = np.random.default_rng(child).standard_normal((c, 3))[: len(got)]
            kept = np.abs(first) <= 3.0
            assert np.array_equal(got[kept], (first * sigmas)[kept])
            assert np.all(np.abs(got) <= 3.0 * sigmas)


def fig4_programs(system, refocus):
    """fig4's heads and blocks as flat programs, each with the start it is
    propagated from, and the full dense-coding program."""
    v_th = qcore.psd_factor(nmrsim.thermal_state(replace(system, epsilon=1e-3)))
    heads = nmrsim.permutation_sequences(system, refocus=refocus)
    blocks = [
        nmrsim.bell_prep_sequence(system, BellVariant.MINUS_PHI, refocus=refocus),
        nmrsim.decode_sequence(system, refocus=refocus),
    ] + [nmrsim.encoding_pulse(m) for m in protocol.MESSAGES]
    full = nmrsim.dense_coding_sequence(system, 4, BellVariant.MINUS_PSI, refocus=refocus)
    return [(nmrsim.events(head), v_th) for head in heads] + [
        (nmrsim.events(block), qcore.ID4) for block in blocks + [full]
    ]


class TestFactorTable:
    """The factor table, the workspace and the in-place updates move no bit."""

    @pytest.mark.parametrize("refocus", [True, False])
    def test_engine_equals_reference_engine(self, system, refocus):
        p = replace(noise.DEMO_PARAMS, ensemble_size=300, seed=7)
        draws = next(noise._draw_chunks(p))
        programs = fig4_programs(system, refocus)
        # one table across every program, as in one chunk, sized for more
        # members than drawn, as for a shorter last chunk
        table = nmrsim._FactorTable([ev for seq, _ in programs for ev in seq], len(draws) + 3)
        shared = nmrsim._event_factors(table, system, draws, p.calib_offset)
        for seq, start in programs:
            expected = oracles.reference_propagate(seq, system, draws, p.calib_offset, start)
            u = np.empty_like(expected)
            got = nmrsim._propagate(seq, shared, start, u, np.empty_like(u))
            assert np.array_equal(got, expected)
            alone = nmrsim._compile_stack(seq, system, draws, p.calib_offset, start)
            assert np.array_equal(alone, expected)

    def test_mean_states_equal_reference_engine_across_chunks(self, system, monkeypatch):
        # two full chunks and a shorter third, each refilling the workspace
        monkeypatch.setattr(noise, "CHUNK_SIZE", 64)
        p = replace(noise.DEMO_PARAMS, ensemble_size=2 * 64 + 5, seed=11)
        v_th = qcore.psd_factor(nmrsim.thermal_state(replace(system, epsilon=1e-3)))
        circuits, heads = fig4_inputs(system, True, False)
        got = noise.mean_states(system, p, circuits, heads, v_th)

        def draws_only(table, sys, draws, calib_offset):
            return draws  # what ``reference`` reads in place of the factors

        def reference(seq, draws, start, u, tmp):
            u[...] = oracles.reference_propagate(seq, system, draws, p.calib_offset, start)
            return u

        monkeypatch.setattr(noise, "_event_factors", draws_only)
        monkeypatch.setattr(noise, "_propagate", reference)
        assert np.array_equal(got, noise.mean_states(system, p, circuits, heads, v_th))

    def test_no_state_leaks_between_calls(self, system, monkeypatch):
        """Back-to-back calls with other parameters and seeds each give what
        the same call gives on its own."""
        monkeypatch.setattr(noise, "CHUNK_SIZE", 64)
        v_th = qcore.psd_factor(nmrsim.thermal_state(replace(system, epsilon=1e-3)))
        heads = nmrsim.permutation_sequences(system)
        circuits = [(nmrsim.bell_prep_sequence(system, BellVariant.PLUS_PSI),)]
        calls = [
            replace(noise.DEMO_PARAMS, ensemble_size=150, seed=3),
            replace(noise.DEMO_PARAMS, ensemble_size=70, calib_offset=-0.02, rf_spread=0.1, seed=4),
        ]
        first = [noise.mean_states(system, p, circuits, heads, v_th) for p in calls]
        for p, expected in zip(calls[::-1], first[::-1]):
            assert np.array_equal(noise.mean_states(system, p, circuits, heads, v_th), expected)

    def test_memory_bounded_however_large_the_ensemble(self, system):
        """The traced peak of a temporal average over 8 chunks is at most
        that over 2 chunks, plus a little: the workspace is sized by the
        chunk, not by the ensemble."""
        prep = nmrsim.bell_prep_sequence(system, BellVariant.MINUS_PHI)
        circuits = [(prep, nmrsim.encoding_pulse(3), nmrsim.decode_sequence(system))]

        def peak(chunks):
            p = replace(noise.DEMO_PARAMS, ensemble_size=chunks * noise.CHUNK_SIZE, seed=2)
            tracemalloc.start()
            try:
                experiment.temporal_average(system, circuits, p)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(8) <= peak(2) + 64 * 1024


class TestColumnLayout:
    """A one-column run multiplies only same-shape complex arrays, and its
    draws reach the factor table as contiguous rows: numpy's broadcasting
    and casting loops cost about twice as much per element."""

    def test_column_updates_take_same_shape_complex_operands(self, system, monkeypatch):
        """Every array operand of every multiply, add and subtract of a
        noisy run's event updates, over a full chunk and a shorter second,
        is a contiguous complex128 array of the stack's (4, 1, n) shape."""
        operands = []

        class Recording:
            def __getattr__(self, name):
                f = getattr(np, name)
                if name not in ("multiply", "add", "subtract"):
                    return f

                def recorded(*args, **kwargs):
                    operands.extend((arr, kwargs["out"].shape) for arr in args if np.ndim(arr))
                    return f(*args, **kwargs)
                return recorded

        propagate = noise._propagate

        def recording_propagate(*args):
            with monkeypatch.context() as m:
                m.setattr(nmrsim, "np", Recording())
                return propagate(*args)

        monkeypatch.setattr(noise, "_propagate", recording_propagate)
        p = replace(noise.DEMO_PARAMS, ensemble_size=noise.CHUNK_SIZE + 5, seed=3)
        experiment.noisy_output_density(system, p, 4, BellVariant.MINUS_PSI)
        assert {shape for _, shape in operands} == {(4, 1, noise.CHUNK_SIZE), (4, 1, 5)}
        for arr, shape in operands:
            assert arr.dtype == np.complex128
            assert arr.shape == shape
            assert arr.flags.c_contiguous

    @pytest.mark.parametrize("chunk", [300, None])
    def test_draw_chunks_are_contiguous_rows_of_the_scaled_draws(self, monkeypatch, chunk):
        """Each chunk holds the bits of the contract's ``z[:n] * sigmas``,
        with each error source's column one contiguous row."""
        if chunk is not None:
            monkeypatch.setattr(noise, "CHUNK_SIZE", chunk)
        c = noise.CHUNK_SIZE
        p = replace(noise.DEMO_PARAMS, ensemble_size=2 * c + 1, seed=CONTRACT_SEED)
        sigmas = np.array([p.rf_spread, p.offset_spread_hz, p.offset_spread_hz])
        chunks = list(noise._draw_chunks(p))
        assert [len(x) for x in chunks] == [c, c, 1]
        for i, got in enumerate(chunks):
            rng = np.random.default_rng(np.random.SeedSequence(CONTRACT_SEED, spawn_key=(i,)))
            z = rng.standard_normal((c, 3))
            while (beyond := np.abs(z) > 3.0).any():
                z[beyond] = rng.standard_normal(np.count_nonzero(beyond))
            assert np.array_equal(got, z[: len(got)] * sigmas)
            assert got.T.flags.c_contiguous


def random_unitaries(rng, n):
    """A (4, 4, n) stack of random unitaries, members last."""
    z = rng.standard_normal((n, 4, 4)) + 1j * rng.standard_normal((n, 4, 4))
    return np.moveaxis(np.linalg.qr(z)[0], 0, -1)


class TestComposition:
    """The members-last block composition and the one-product sum of W W^H."""

    @pytest.mark.parametrize("n", [1, 3, 1000])
    @pytest.mark.parametrize("k", [1, 4])
    def test_compose_equals_per_member_matmul(self, k, n):
        rng = np.random.default_rng(10 * k + n)
        a = random_unitaries(rng, n)
        b = np.ascontiguousarray(random_unitaries(rng, n)[:, :k])
        out = np.empty_like(b)
        got = noise._compose(a, b, out, np.empty_like(b))
        assert got is out
        expected = np.stack([a[..., m] @ b[..., m] for m in range(n)], axis=-1)
        assert np.max(np.abs(got - expected)) < 1e-15

    @pytest.mark.parametrize("k", [1, 4])
    def test_compose_onto_a_constant_equals_per_member_matmul(self, k):
        """A constant (4, k) operand, as ``start`` is, takes one product."""
        rng = np.random.default_rng(k)
        a = random_unitaries(rng, 5)
        b = rng.standard_normal((4, k)) + 1j * rng.standard_normal((4, k))
        out = np.empty((4, k, 5), dtype=complex)
        got = noise._compose(a, b, out, np.empty_like(out))
        assert got is out
        expected = np.stack([a[..., m] @ b for m in range(5)], axis=-1)
        assert np.max(np.abs(got - expected)) < 1e-15

    def test_mean_states_sum_member_outer_products(self, system):
        """With T2 off, each run's mean is the sum over members of W_m W_m^H
        over n, W_m the head's member m composed through the circuit's blocks
        one matrix product at a time."""
        p = replace(noise.DEMO_PARAMS, t2_a=math.inf, t2_b=math.inf, ensemble_size=7, seed=3)
        rho0 = np.diag([0.7, 0.0, 0.3, 0.0]).astype(complex)
        v = qcore.psd_factor(qcore.check_density_matrix(rho0))
        head = nmrsim.events(nmrsim.bell_prep_sequence(system, BellVariant.MINUS_PSI))
        blocks = (nmrsim.encoding_pulse(4), nmrsim.events(nmrsim.decode_sequence(system)))
        draws = np.concatenate(list(noise._draw_chunks(p)))
        w_head = nmrsim._compile_stack(head, system, draws, p.calib_offset, v)
        w_run = w_head
        for block in blocks:
            u = nmrsim._compile_stack(block, system, draws, p.calib_offset)
            w_run = np.stack([u[..., m] @ w_run[..., m] for m in range(len(draws))], axis=-1)
        got = noise.mean_states(system, p, [blocks, ()], [head], v)
        for state, w in zip(got[:, 0], (w_run, w_head)):
            expected = sum(w[..., m] @ w[..., m].conj().T for m in range(len(draws))) / len(draws)
            assert np.max(np.abs(state - expected)) < 1e-15


def unit_draws(size):
    """The draws of ``size`` members at unit sigmas and ``CONTRACT_SEED``: the
    unit draws themselves."""
    p = noise.ErrorParams(rf_spread=1.0, offset_spread_hz=1.0, ensemble_size=size, seed=CONTRACT_SEED)
    return oracles.member_draws(p)


#: At both chunk sizes below, some prefix size of
#: ``test_draw_chunks_equal_member_draws`` ends
#: in a chunk where a redraw is itself beyond 3 and an entry after the prefix
#: is rejected too: a rejection run on the sliced rows alone would read the
#: chunk's stream differently.
CONTRACT_SEED = 17067


class TestVectorisedDraws:
    """The draw contract of ``noise._draw_chunks``: reproducible, truncated
    at 3 sigma, prefix-stable across chunk boundaries, one generator per
    chunk and exactly proportional to sigma; each with ``CHUNK_SIZE``
    patched small and at its real value."""

    @pytest.fixture(params=[300, None])
    def chunk(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(noise, "CHUNK_SIZE", request.param)
        return noise.CHUNK_SIZE

    def test_reruns_bit_identical(self, chunk):
        p = replace(noise.DEMO_PARAMS, ensemble_size=2 * chunk + 1, seed=CONTRACT_SEED)
        first = list(noise._draw_chunks(p))
        second = list(noise._draw_chunks(p))
        assert len(first) == len(second) == 3
        assert all(np.array_equal(a, b) for a, b in zip(first, second))

    def test_unit_draws_within_three(self, chunk):
        z = unit_draws(3 * chunk)
        assert z.shape == (3 * chunk, 3)
        assert np.max(np.abs(z)) <= 3.0

    @pytest.mark.parametrize("rf_spread", [0.0, 0.05])
    def test_draw_chunks_equal_member_draws(self, chunk, rf_spread):
        """Prefix-stable: the first n member draws of any ensemble are the
        n-member ensemble, drawn in full chunks but the last."""
        p = replace(noise.DEMO_PARAMS, rf_spread=rf_spread, ensemble_size=2 * chunk + 1, seed=CONTRACT_SEED)
        full = oracles.member_draws(p)
        for size in (1, chunk // 2, chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
            chunks = list(noise._draw_chunks(replace(p, ensemble_size=size)))
            assert all(len(x) == chunk for x in chunks[:-1])
            assert np.array_equal(np.concatenate(chunks), full[:size])

    def test_chunks_are_not_copies(self, chunk):
        z = unit_draws(2 * chunk + 1)
        assert len(np.unique(z, axis=0)) == len(z)

    def test_draws_scale_exactly_with_sigma(self, chunk):
        unit = unit_draws(2 * chunk + 1)
        for rf, offset in ((0.05, 30.0), (0.0, 150.0), (2.5, 0.0)):
            p = noise.ErrorParams(
                rf_spread=rf, offset_spread_hz=offset, ensemble_size=len(unit), seed=CONTRACT_SEED
            )
            got = oracles.member_draws(p)
            assert np.array_equal(got, unit * [rf, offset, offset])

    def test_large_ensemble_contract(self):
        """The contract at 20,000 members over the real chunks, at a seed
        and one beyond 64 bits: reproducible, within 3 sigma, and the first
        5,000 members those of a 5,000-member ensemble."""
        p = replace(noise.DEMO_PARAMS, ensemble_size=20000)
        sigmas = np.array([p.rf_spread, p.offset_spread_hz, p.offset_spread_hz])
        for seed in (7, 2**100 + 3):
            p = replace(p, seed=seed)
            draws = np.concatenate(list(noise._draw_chunks(p)))
            again = np.concatenate(list(noise._draw_chunks(p)))
            assert draws.tobytes() == again.tobytes(), f"seed {seed}: not reproducible"
            assert draws.shape == (20000, 3) and np.all(np.abs(draws) <= 3.0 * sigmas), f"seed {seed}"
            prefix = np.concatenate(list(noise._draw_chunks(replace(p, ensemble_size=5000))))
            assert prefix.tobytes() == draws[:5000].tobytes(), f"seed {seed}: not prefix-stable"

    def test_no_warnings(self, monkeypatch):
        real = noise.CHUNK_SIZE
        for chunk in (300, real):
            monkeypatch.setattr(noise, "CHUNK_SIZE", chunk)
            p = replace(noise.DEMO_PARAMS, ensemble_size=2 * chunk + 3)
            with warnings.catch_warnings(), np.errstate(all="raise"):
                warnings.simplefilter("error")
                for seed in (0, CONTRACT_SEED, 2**130 + 9):
                    list(noise._draw_chunks(replace(p, seed=seed)))


class TestUnbiasedAverage:
    """The Monte Carlo average estimates the exact mean over the error
    distribution: a draw that is reproducible but biased, such as a wrong
    sigma or a wrong truncation, moves it by many standard errors."""

    def test_mean_within_five_standard_errors_of_quadrature(self, system):
        # large spreads, T2 off; 40 nodes per error come within 2e-12 of 32
        p = noise.ErrorParams(
            rf_spread=0.25, calib_offset=0.01, offset_spread_hz=150.0, ensemble_size=100_000,
            seed=noise.DEMO_PARAMS.seed,
        )
        start = qcore.basis_state(0)[:, None]
        programs = [
            nmrsim.events(nmrsim.dense_coding_sequence(system, m, variant))
            for m, variant in ((4, BellVariant.MINUS_PSI), (2, BellVariant.PLUS_PHI),
                               (3, BellVariant.MINUS_PHI))
        ]
        states = noise.mean_states(system, p, [()], programs, start)[0]
        for seq, state in zip(programs, states):
            mean, var = oracles.quadrature_moments(seq, system, p, start, 40)
            standard_error = np.sqrt(var / p.ensemble_size)
            assert np.all(np.abs(state - mean) <= 5.0 * standard_error + 1e-12)


class TestRefocusing:
    def test_refocusing_reduces_offset_error(self, system):
        p = noise.ErrorParams(offset_spread_hz=30.0, ensemble_size=100)
        seeds = range(5)
        with_refocus = np.mean([
            bell_infidelity(system, nmrsim.bell_prep_sequence(system, BellVariant.MINUS_PHI, refocus=True),
                            replace(p, seed=s))
            for s in seeds
        ])
        without = np.mean([
            bell_infidelity(system, nmrsim.bell_prep_sequence(system, BellVariant.MINUS_PHI, refocus=False),
                            replace(p, seed=s))
            for s in seeds
        ])
        assert with_refocus < without

    def test_static_offsets_cancel_exactly_with_perfect_pulses(self, system):
        p = noise.ErrorParams(offset_spread_hz=50.0, ensemble_size=20, seed=2)
        seq = nmrsim.bell_prep_sequence(system, BellVariant.MINUS_PHI, refocus=True)
        assert bell_infidelity(system, seq, p) < 1e-12

    def test_static_offsets_cancel_for_every_member(self, system):
        """Offsets alone: with refocusing, each member's propagator of every
        dense-coding program is the noise-free one up to a global phase;
        without it, some member's is far from it."""
        p = noise.ErrorParams(offset_spread_hz=30.0, ensemble_size=500, seed=4)
        draws = np.concatenate(list(noise._draw_chunks(p)))

        def worst(refocus):
            distance = 0.0
            for m in protocol.MESSAGES:
                for v in BELL_VARIANT_ORDER:
                    seq = nmrsim.dense_coding_sequence(system, m, v, refocus=refocus)
                    ideal = nmrsim.compile_sequence(seq, system)
                    stack = nmrsim._compile_stack(seq, system, draws, p.calib_offset)
                    distance = max(
                        distance,
                        *(qcore.phase_aligned_distance(stack[..., k], ideal) for k in range(len(draws))),
                    )
            return distance

        assert worst(True) < 1e-12
        assert worst(False) > 0.5


class TestSourcesThatDrawNothing:
    """With no spread every member is one deterministic run, so the temporal
    average has an exact oracle: a calibration offset scales every pulse
    angle by 1 + calib_offset, and T2 damps the coherences of each run's
    noise-free state over that run's own total delay."""

    SOURCES = pytest.mark.parametrize(
        "p",
        [
            noise.ErrorParams(calib_offset=0.01, ensemble_size=7),
            noise.ErrorParams(t2_a=0.3, t2_b=0.2, ensemble_size=7),
        ],
        ids=["calib_offset", "t2"],
    )

    @staticmethod
    def circuits(system):
        """The four fig4 circuits, then the Bell preparation alone, whose
        output has coherences for T2 to damp (the fig4 outputs have none)."""
        prep = nmrsim.bell_prep_sequence(system, BellVariant.MINUS_PHI)
        decode = nmrsim.decode_sequence(system)
        return [(prep, nmrsim.encoding_pulse(m), decode) for m in protocol.MESSAGES] + [(prep,)]

    @staticmethod
    def oracle(system, p, circuits):
        """Each circuit's mean over the three prefix runs, each run compiled
        by ``oracles.kron_compile`` with its pulse angles scaled, evolving the
        thermal state and T2-damped over its own total delay."""
        rho_th = nmrsim.thermal_state(system)
        averages = np.zeros((len(circuits), 4, 4), dtype=complex)
        for i, circuit in enumerate(circuits):
            for prefix in nmrsim.permutation_sequences(system):
                run = nmrsim.events((prefix, circuit))
                scaled = tuple(
                    replace(ev, angle=ev.angle * (1.0 + p.calib_offset)) if isinstance(ev, Rf) else ev
                    for ev in run
                )
                u = oracles.kron_compile(scaled, system)
                averages[i] += u @ rho_th @ u.conj().T * t2_damping(nmrsim.total_delay(run), p)
        return averages / 3.0

    @SOURCES
    def test_temporal_average_equals_oracle(self, system, p):
        circuits = self.circuits(system)
        averages = experiment.temporal_average(system, circuits, replace(p, seed=3))
        assert np.max(np.abs(averages - self.oracle(system, p, circuits))) < 1e-12

    @SOURCES
    def test_fig4_panels_equal_oracle(self, system, p):
        """The panels are the oracle's rescaled deviations, projected where
        they dip (every panel, with the calibration offset)."""
        system = replace(system, epsilon=1e-3)
        beta = nmrsim.pseudo_pure_beta(system)
        averages = self.oracle(system, p, self.circuits(system)[:4])
        expected = tomo.project_unphysical((averages - (1.0 - beta) * np.eye(4) / 4.0) / beta)
        panels = experiment.fig4_panels(system, replace(p, seed=3))
        assert np.max(np.abs([panel.experimental for panel in panels] - expected)) < 1e-12


class TestT2InSequence:
    """T2 inside the sequence, an oracle, against the library's T2, which
    damps only each final mean's coherences."""

    def test_oracle_moves_fig4_where_the_library_does_not(self, system):
        """With noise-free pulses, phase damping after every delay puts
        fig4's largest relative error at 0.021 for T2 = 0.3 s; the
        library's T2 alone moves it by less than 1e-10."""
        assert system.epsilon == nmrsim.DEFAULT_EPSILON
        assert abs(oracles.t2_in_sequence_fig4_error(system, 0.3) - 0.021) <= 0.002

        def worst(t2):
            p = noise.ErrorParams(t2_a=t2, t2_b=t2, seed=3)
            return max(panel.error.relative for panel in experiment.fig4_panels(system, p))

        assert abs(worst(0.3) - worst(math.inf)) < 1e-10


class TestMonotonicity:
    def test_error_grows_with_rf_spread(self, system):
        """Mean infidelity is non-decreasing in rf_spread (95% bootstrap)."""
        spreads = (0.0, 0.03, 0.06, 0.12)
        seeds = list(range(12))
        p0 = noise.ErrorParams(ensemble_size=48)
        seq = nmrsim.bell_prep_sequence(system, BellVariant.MINUS_PHI)
        table = np.array([
            [bell_infidelity(system, seq, replace(p0, rf_spread=s, seed=seed)) for seed in seeds]
            for s in spreads
        ])
        rng = np.random.default_rng(0)
        for lo, hi in zip(table[:-1], table[1:]):
            diffs = hi - lo
            boots = np.array([
                np.mean(rng.choice(diffs, size=len(diffs), replace=True))
                for _ in range(1000)
            ])
            assert np.quantile(boots, 0.05) >= 0.0


def test_demo_parameters_land_in_error_band(system):
    params = replace(noise.DEMO_PARAMS, ensemble_size=300)
    panels = experiment.fig4_panels(system, params)
    worst = max(p.error.relative for p in panels)
    assert 0.05 <= worst <= 0.15


def test_simulated_experiment_zero_noise_recovers_ideal(system):
    p = noise.ErrorParams(ensemble_size=2, seed=4)
    rho = experiment.fig4_panels(system, p)[1].experimental
    ideal = experiment.ideal_output_density(2)
    assert np.max(np.abs(rho - ideal)) < 1e-7


def reference_simulated_experiment(system, params, m, refocus):
    """The fig4 extraction with one whole-program ensemble average per
    prefix run."""
    rho_th = nmrsim.thermal_state(system)
    circuit = nmrsim.dense_coding_sequence(system, m, BellVariant.MINUS_PHI, refocus)
    total = np.zeros((4, 4), dtype=complex)
    for prefix in nmrsim.permutation_sequences(system, refocus=refocus):
        total += mean_state((prefix, circuit), system, params, rho_th)
    reconstructed = tomo.reconstruct(tomo.simulate_readouts(total / 3.0))
    beta = nmrsim.pseudo_pure_beta(system)
    rho_exp = (reconstructed - (1.0 - beta) * np.eye(4) / 4.0) / beta
    rho_exp = (rho_exp + rho_exp.conj().T) / 2.0
    if float(np.min(np.linalg.eigvalsh(rho_exp))) < -1e-6:
        rho_exp = tomo.clip_to_density(rho_exp)
    return rho_exp


@pytest.mark.parametrize("refocus", [True, False])
def test_shared_block_composition_matches_per_program_averages(system, refocus):
    """Finite T2 pins each (message, prefix) run's own free-evolution time."""
    params = replace(noise.DEMO_PARAMS, ensemble_size=64, seed=77)
    panels = experiment.fig4_panels(system, params, refocus=refocus)
    for m, panel in zip(protocol.MESSAGES, panels):
        expected = reference_simulated_experiment(system, params, m, refocus)
        assert np.max(np.abs(panel.experimental - expected)) < 1e-10


def test_empty_block_leaves_runs_bit_identical(system):
    """An empty block (the first encoding) is skipped: the circuit with it
    gives the same states as the circuit without it, bit for bit."""
    p = replace(noise.DEMO_PARAMS, ensemble_size=50, seed=4)
    v_th = qcore.psd_factor(nmrsim.thermal_state(replace(system, epsilon=1e-3)))
    heads = nmrsim.permutation_sequences(system)
    prep = nmrsim.bell_prep_sequence(system, BellVariant.MINUS_PHI)
    decode = nmrsim.decode_sequence(system)
    empty = nmrsim.encoding_pulse(1)
    with_empty = noise.mean_states(system, p, [(prep, empty, decode)], heads, v_th)
    without = noise.mean_states(system, p, [(prep, decode)], heads, v_th)
    assert np.array_equal(with_empty, without)


def test_noisy_output_density_from_the_pure_column(system, monkeypatch):
    """A noisy run over two chunks from the |00> column equals the same run
    from the factor ``psd_factor`` gives of |00><00|, bit for bit."""
    monkeypatch.setattr(noise, "CHUNK_SIZE", 16)
    p = replace(noise.DEMO_PARAMS, ensemble_size=25, seed=8)
    variant = BellVariant.MINUS_PSI
    seq = nmrsim.events(nmrsim.dense_coding_sequence(system, 3, variant))
    got = experiment.noisy_output_density(system, p, 3, variant)
    expected = noise.mean_states(system, p, [()], [seq], qcore.psd_factor(RHO00))[0, 0]
    assert np.array_equal(got, expected)


def test_batched_pulse_protocol_states_match_compiled_programs(system):
    """The 4 x 4 (message, variant) runs composed onto the preparation heads
    in one noise-free average equal each whole program compiled alone."""
    states = validation._pulse_protocol_states(system)
    assert states.shape == (4, 4, 4, 4)
    for i, m in enumerate(protocol.MESSAGES):
        for j, v in enumerate(BELL_VARIANT_ORDER):
            u = nmrsim.compile_sequence(nmrsim.dense_coding_sequence(system, m, v), system)
            expected = qcore.pure_density(u @ qcore.basis_state(0))
            assert np.max(np.abs(states[i, j] - expected)) <= 1e-15


def test_fig4_panels_bit_identical_reruns(system):
    params = replace(noise.DEMO_PARAMS, ensemble_size=64, seed=5)
    first = experiment.fig4_panels(system, params)
    second = experiment.fig4_panels(system, params)
    for a, b in zip(first, second):
        assert np.array_equal(a.experimental, b.experimental)


def fig4_inputs(system, refocus, nested):
    """fig4's four circuits and three prefixes: ``nmrsim``'s blocks, as
    ``experiment`` passes them, or each flattened by ``nmrsim.events``."""
    prep = nmrsim.bell_prep_sequence(system, BellVariant.MINUS_PHI, refocus=refocus)
    decode = nmrsim.decode_sequence(system, refocus=refocus)
    prefixes = nmrsim.permutation_sequences(system, refocus=refocus)
    if not nested:
        prep, decode = nmrsim.events(prep), nmrsim.events(decode)
        prefixes = tuple(map(nmrsim.events, prefixes))
    return [(prep, nmrsim.encoding_pulse(m), decode) for m in protocol.MESSAGES], prefixes


def engine_work(monkeypatch, run) -> dict:
    """The event updates, compositions and products with ``start`` (a
    ``_compose`` onto the constant (4, k) ``start``) that ``run()`` makes
    in the ensemble average."""
    counts = {"events": 0, "compositions": 0, "products": 0}
    propagate, compose = noise._propagate, noise._compose

    def counted_propagate(seq, *args):
        counts["events"] += len(seq)
        return propagate(seq, *args)

    def counted_compose(a, b, *args):
        counts["products" if b.ndim == 2 else "compositions"] += 1
        return compose(a, b, *args)

    monkeypatch.setattr(noise, "_propagate", counted_propagate)
    monkeypatch.setattr(noise, "_compose", counted_compose)
    run()
    return counts


class TestNestedBlocks:
    """A block may be a tuple of blocks; the plan shares each program's
    propagation and applies programs used once in place."""

    @pytest.mark.parametrize("seed", [0, 5, 11])
    @pytest.mark.parametrize("refocus", [True, False])
    def test_nested_equal_flat_across_chunks(self, system, monkeypatch, seed, refocus):
        """From a random factor that is not a permutation (so its transpose
        is another matrix), over two full chunks and a shorter third."""
        monkeypatch.setattr(noise, "CHUNK_SIZE", 64)
        p = replace(noise.DEMO_PARAMS, ensemble_size=2 * 64 + 5, seed=seed)
        rng = np.random.default_rng(seed)
        start = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        start /= np.linalg.norm(start)  # unit trace of start @ start^H
        nested = noise.mean_states(system, p, *fig4_inputs(system, refocus, True), start)
        flat = noise.mean_states(system, p, *fig4_inputs(system, refocus, False), start)
        assert nested.shape == (4, 3, 4, 4)
        assert np.max(np.abs(nested - flat)) < 1e-12

    @pytest.mark.parametrize("seed", [0, 5])
    def test_tuple_head_on_a_column_equals_flat_head(self, system, monkeypatch, seed):
        """A nested program run alone from the |00> column, composed from
        the identity and then applied to the column, equals its events
        propagated from the column, over two full chunks and a shorter
        third."""
        monkeypatch.setattr(noise, "CHUNK_SIZE", 64)
        p = replace(noise.DEMO_PARAMS, ensemble_size=2 * 64 + 5, seed=seed)
        start = qcore.basis_state(0)[:, None]
        for block in (
            nmrsim.bell_prep_sequence(system, BellVariant.MINUS_PHI),
            nmrsim.dense_coding_sequence(system, 3, BellVariant.PLUS_PSI),
        ):
            nested = noise.mean_states(system, p, [()], [block], start)
            flat = noise.mean_states(system, p, [()], [nmrsim.events(block)], start)
            assert np.max(np.abs(nested - flat)) < 1e-12

    def test_mean_states_equal_reference_engine_on_nested_blocks(self, system, monkeypatch):
        """As ``TestFactorTable``'s flat case: every propagation, from the
        identity, from ``start`` or onward from a stack, replaced by the
        reference engine moves no bit."""
        monkeypatch.setattr(noise, "CHUNK_SIZE", 64)
        p = replace(noise.DEMO_PARAMS, ensemble_size=2 * 64 + 5, seed=11)
        v_th = qcore.psd_factor(nmrsim.thermal_state(replace(system, epsilon=1e-3)))
        circuits, heads = fig4_inputs(system, True, True)
        got = noise.mean_states(system, p, circuits, heads, v_th)

        def draws_only(table, sys, draws, calib_offset):
            return draws

        def reference(seq, draws, start, u, tmp):
            u[...] = oracles.reference_propagate(seq, system, draws, p.calib_offset, start)
            return u

        monkeypatch.setattr(noise, "_event_factors", draws_only)
        monkeypatch.setattr(noise, "_propagate", reference)
        assert np.array_equal(got, noise.mean_states(system, p, circuits, heads, v_th))

    @pytest.mark.parametrize("refocus, events", [(True, 28), (False, 18)])
    def test_one_fig4_chunk_shares_each_cnot(self, system, monkeypatch, refocus, events):
        """One chunk propagates each CNOT once: the NOT and pseudo-Hadamard
        opening the preparation, the two CNOTs, and the decoding's
        pseudo-Hadamard and the encodings applied in place (3 + 2 * cnot + 2
        + 3 event updates); 7 compositions build the blocks and 8 the runs
        on the two CNOT prefixes, and six products meet ``start``."""
        p = replace(noise.DEMO_PARAMS, ensemble_size=noise.CHUNK_SIZE, seed=1)
        counts = engine_work(monkeypatch, lambda: experiment.fig4_panels(system, p, refocus=refocus))
        assert counts == {"events": events, "compositions": 15, "products": 6}

    def test_pulse_protocol_check_shares_cnot_ba(self, system, monkeypatch):
        """The decoding's CNOT_ba is the preparations' one, and its
        pseudo-Hadamard plus-phi's whole opening.  Each program is
        propagated once from the identity: CNOT_ba, the four openings (1,
        0, 2 and 1 NOTs, then the pseudo-Hadamard) and the three one-pulse
        encodings (10 + 12 + 3 event updates).  4 compositions build the
        preparations, 1 the decoding, 3 the circuits after an encoding and
        16 the runs; each preparation meets ``start`` in one product."""
        counts = engine_work(monkeypatch, lambda: validation._pulse_protocol_states(system))
        assert counts == {"events": 25, "compositions": 24, "products": 4}

    def test_noisy_run_propagates_one_flat_head(self, system, monkeypatch):
        """A noisy run is one program propagated event by event from the
        |00> column: no composition, no product with ``start``."""
        p = replace(noise.DEMO_PARAMS, ensemble_size=noise.CHUNK_SIZE, seed=1)
        counts = engine_work(
            monkeypatch, lambda: experiment.noisy_output_density(system, p, 3, BellVariant.PLUS_PSI)
        )
        assert counts == {"events": 26, "compositions": 0, "products": 0}

    @pytest.mark.parametrize("refocus", [True, False])
    def test_compile_block_equals_compile_of_its_events(self, system, refocus):
        """Every builder's block compiles bit for bit as its flattened
        events do, and to the product of its parts' propagators."""
        blocks = [
            nmrsim.bell_prep_sequence(system, v, refocus) for v in BELL_VARIANT_ORDER
        ] + [
            nmrsim.decode_sequence(system, refocus),
            *nmrsim.permutation_sequences(system, refocus),
            *(nmrsim.dense_coding_sequence(system, m, v, refocus)
              for m in protocol.MESSAGES for v in BELL_VARIANT_ORDER),
        ]
        for block in blocks:
            compiled = nmrsim.compile_sequence(block, system)
            assert np.array_equal(compiled, nmrsim.compile_sequence(nmrsim.events(block), system))
            product = qcore.ID4
            for part in block:
                product = nmrsim.compile_sequence(part, system) @ product
            assert np.max(np.abs(compiled - product)) < 1e-14


#: What ``replay`` puts first in the product of a stack on ``start``.
START = "start"


def replay(plan, circuits, heads, k) -> None:
    """Replay the ops of ``plan``, ``noise._plan``'s ``(ops, views,
    widths)`` of ``circuits`` after ``heads`` on a (4, k) ``start``, on the
    products its views hold, each an event tuple (``START`` first for a
    product on ``start``), and assert that every op reads what it was
    planned to read: view 0 is ``start``'s, buffer 0 at width 0, and no op
    writes buffer 0 or one of its operands' buffers, but in place; each
    composition's operand is a whole block's product, in a 4-wide view;
    each view of a product is k wide if the product is on ``start``, else
    4, and no wider than its buffer; an op that makes nothing sums a run;
    and the scratch, the last width, is the widest.  Each (circuit i, head
    j) run is summed exactly once, after every block op and in order of (i,
    j), and its product is ``START``, then head j's events, then circuit
    i's.  A write to a buffer drops what its other views held, so an op
    that wrote a buffer whose stack a later op reads would leave that later
    op another product, or none."""
    ops, views, widths = plan

    def blocks(block):
        yield nmrsim.events(block)
        if not nmrsim._is_program(block):
            for part in block:
                yield from blocks(part)

    whole = {events for block in (*circuits, *heads) for events in blocks(block)}
    assert views[0] == (0, 0)
    held, runs = {0: (START,)}, []
    for seq, src, part, out, run in ops:
        buf, width = views[out]
        assert buf != 0 and width <= widths[buf]
        assert all(views[v][0] != buf for v in (src, part) if v not in (None, out))
        if part is not None:
            assert seq is None and out not in (src, part)
            assert held[part] in whole and views[part][1] == 4
            product = held[src] + held[part]
        elif seq is not None:
            product = (() if src is None else held[src]) + seq
        else:
            assert src is None and run is not None
            product = held[out]
        for v, (b, _) in enumerate(views):
            if b == buf:
                held.pop(v, None)
        held[out] = product
        assert width == (k if product[:1] == (START,) else 4)
        if run is None:
            assert not runs
        else:
            i, j = run
            assert held[out] == (START, *nmrsim.events(heads[j]), *nmrsim.events(circuits[i]))
            runs.append(run)
    assert runs == list(np.ndindex(len(circuits), len(heads)))
    assert widths[0] == 0 and widths[-1] == max(widths)


def live_ranges(ops) -> list:
    """``[view, first write, last read]`` of each stack that ``ops`` write,
    in order of first write: an op that writes a view starts a stack there,
    but a program continued in place, and a run's sum reads its op's
    stack."""
    ranges, live = [], {}
    for t, (seq, src, part, out, run) in enumerate(ops):
        for v in (src, part):
            if v:  # not None and not ``start``
                live[v][2] = t
        if part is not None or (seq is not None and src != out):
            live[out] = [out, t, t]
            ranges.append(live[out])
        if run:
            live[out][2] = t
    return ranges


def check_layout(plan) -> None:
    """No two stacks that share a buffer live at one op, there are as many
    buffers as stacks live at one op, and each buffer is exactly as wide as
    its widest tenant."""
    ops, views, widths = plan
    ranges = live_ranges(ops)
    for (v, first, last), (u, begin, end) in itertools.combinations(ranges, 2):
        if views[v][0] == views[u][0]:
            assert last < begin or end < first
    most = max(sum(first <= t <= last for _, first, last in ranges) for _, t, _ in ranges)
    widest = {}
    for v, _, _ in ranges:
        buf, width = views[v]
        widest[buf] = max(widest.get(buf, 0), width)
    assert len(widths) - 2 == most  # ``start``'s buffer and the scratch aside
    assert widths[1:-1] == [widest[b] for b in range(1, len(widths) - 1)]


def package_plans(system, monkeypatch, run) -> list:
    """``(circuits, heads, k, plan)`` of every ``noise._plan`` that ``run()`` makes."""
    plans = []
    plan = noise._plan

    def recorded(circuits, heads, k):
        plans.append((circuits, heads, k, plan(circuits, heads, k)))
        return plans[-1][-1]

    monkeypatch.setattr(noise, "_plan", recorded)
    run()
    return plans


SMALL = replace(noise.DEMO_PARAMS, ensemble_size=8, seed=1)
PACKAGE_PATHS = {
    "fig4": lambda system: experiment.fig4_panels(system, SMALL),
    "fig4 unrefocused": lambda system: experiment.fig4_panels(system, SMALL, refocus=False),
    "temporal averaging": validation._check_temporal_averaging,
    "pulse protocol": validation._pulse_protocol_states,
    "noisy run": lambda system: experiment.noisy_output_density(system, SMALL, 3, BellVariant.PLUS_PSI),
}

_SYSTEM = SpinSystem()
_CNOT_BA = nmrsim.cnot_pulse_sequence(_SYSTEM, "b")
#: Programs for random blocks: the empty one, single pulses, the
#: pseudo-Hadamard, both CNOTs and an equal copy of one (a distinct object).
POOL = (
    (),
    nmrsim.not_pulse("a"),
    nmrsim.not_pulse("b"),
    nmrsim.encoding_pulse(4),
    nmrsim.pseudo_hadamard_b(),
    nmrsim.cnot_pulse_sequence(_SYSTEM, "a"),
    _CNOT_BA,
    _CNOT_BA[:1] + _CNOT_BA[1:],
)
BLOCKS = st.recursive(
    st.sampled_from(POOL), lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=6
)
CIRCUITS = st.lists(st.lists(BLOCKS, max_size=3).map(tuple), min_size=1, max_size=4)


class TestSharedWorkspace:
    """The ensemble average's stacks, runs included, share buffers by live
    range."""

    @pytest.mark.parametrize("path", PACKAGE_PATHS.values(), ids=PACKAGE_PATHS)
    def test_package_plans_read_what_they_planned(self, system, monkeypatch, path):
        plans = package_plans(system, monkeypatch, lambda: path(system))
        assert plans
        for circuits, heads, k, plan in plans:
            replay(plan, circuits, heads, k)
            check_layout(plan)

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @example(  # duplicate circuits, a repeated shared CNOT, empty parts, the empty head
        circuits=[(POOL[6], POOL[1], POOL[7]), (POOL[6], POOL[1], POOL[7]), ((), ((),)), (POOL[3],)],
        heads=[(), (POOL[5], POOL[6]), POOL[6]],
        k=4,
    )
    @given(circuits=CIRCUITS, heads=st.lists(BLOCKS, min_size=1, max_size=3), k=st.sampled_from([1, 2, 4]))
    def test_random_plans_read_what_they_planned(self, circuits, heads, k):
        """Replayed, and run over two full chunks and a shorter third: bit
        for bit what the reference engine gives on the same plan."""
        plan = noise._plan(circuits, heads, k)
        replay(plan, circuits, heads, k)
        check_layout(plan)
        p = replace(noise.DEMO_PARAMS, ensemble_size=2 * 16 + 3, seed=5)
        rng = np.random.default_rng(k)
        start = rng.standard_normal((4, k)) + 1j * rng.standard_normal((4, k))
        start /= np.linalg.norm(start)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(noise, "CHUNK_SIZE", 16)
            got = noise.mean_states(_SYSTEM, p, circuits, heads, start)

            def draws_only(table, sys, draws, calib_offset):
                return draws

            def reference(seq, draws, start, u, tmp):
                u[...] = oracles.reference_propagate(seq, _SYSTEM, draws, p.calib_offset, start)
                return u

            m.setattr(noise, "_event_factors", draws_only)
            m.setattr(noise, "_propagate", reference)
            assert np.array_equal(got, noise.mean_states(_SYSTEM, p, circuits, heads, start))

    def test_fig4_block_stacks_share_eight_buffers(self, system):
        """fig4's 28 stacks (16 that make its blocks and 12 runs) fit in 8
        four-wide buffers beside the 4-wide scratch; ``start`` has none."""
        *_, widths = noise._plan(*fig4_inputs(system, True, True), 4)
        assert widths == [0] + [4] * 8 + [4]

    def test_fig4_runs_three_wide_buffers(self, system, monkeypatch):
        """fig4's average runs the thermal state's 3-column factor: its head
        and run stacks take one three-wide buffer and the leading columns of
        five four-wide ones that its block stacks leave free, 35 columns with
        the 4-wide scratch."""
        plans = package_plans(system, monkeypatch, lambda: PACKAGE_PATHS["fig4"](system))
        assert [plan[2] for *_, plan in plans] == [[0] + [4] * 7 + [3] + [4]]
        (*_, (_, views, widths)), = plans
        assert sorted(widths[b] for b, w in views if w == 3) == [3, 4, 4, 4, 4, 4]

    def test_buffer_as_wide_as_its_widest_tenant(self):
        """A 1-wide stack that dies before a 4-wide one is written hands its
        buffer on, widened to 4.  ``_plan`` never makes such a plan (its
        k-wide head stacks live until the runs, which come last), so this
        asks ``_share`` directly."""
        ops = [
            ((), 0, None, 1, None),  # stack 1, 1 wide, on ``start``
            ((), 1, None, 2, None),  # stack 2, 1 wide, reads stack 1 for the last time
            ((), None, None, 3, None),  # stack 3, 4 wide, from the identity
            (None, 2, 3, 4, (0, 0)),  # stack 4, 1 wide: stack 3 composed onto stack 2
        ]
        ops, views, sizes = noise._share(ops, [0, 1, 1, 4, 1])
        assert sizes == [0, 4, 1, 1]
        assert views == [(0, 0), (1, 1), (2, 1), (1, 4), (3, 1)]
        check_layout((ops, views, [*sizes, max(sizes)]))

    def test_noisy_run_has_one_column_buffer(self, system, monkeypatch):
        """A noisy run's plan has only its head's 1-wide buffer, which its
        run sums as it is, so its scratch is 1 wide too: a 4-wide scratch
        makes what each 1,000-member run frees larger, which can cross
        glibc's trim threshold (``test_workspace_not_faulted_in_again``)."""
        plans = package_plans(system, monkeypatch, lambda: PACKAGE_PATHS["noisy run"](system))
        assert [plan[2] for *_, plan in plans] == [[0, 1, 1]]

    def test_fig4_traced_peak(self, system):
        """One 1,000-member temporal average over fig4's circuits peaks at
        3.61 MB traced: its 3-column factor's head and run stacks share one
        pool with its block stacks, 7 four-wide buffers and one three-wide
        beside the 4-wide scratch."""
        circuits, _ = fig4_inputs(system, True, True)
        p = replace(noise.DEMO_PARAMS, seed=3)
        experiment.temporal_average(system, circuits, p)
        tracemalloc.start()
        try:
            experiment.temporal_average(system, circuits, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.75e6

"""Mutation check of the test suite.

Each mutant is one exact text substitution in a file of ``src/densecode``,
a fault some test must catch.  The script applies the mutants in turn to a
temporary copy of ``src/``, runs only each one's named tests against that
copy, and reports the mutant killed when they fail.  It first runs every
named test against the unmutated copy, which must pass.

Exits 1 if a mutant survives (its tests pass) or no longer applies (its
text is not found exactly once), else 0.  Standard library only.

Run from anywhere:  python scripts/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    module: str  # file under src/densecode
    old: str
    new: str
    tests: tuple[str, ...]  # test files or node ids, relative to the root


FACTOR_TESTS = ("tests/test_noise.py::TestFactorTable",)
ENGINE_TESTS = ("tests/test_noise.py::TestRowPermutationEngine",)
DRAW_TESTS = ("tests/test_noise.py::TestVectorisedDraws",)
LAYOUT_TESTS = ("tests/test_noise.py::TestColumnLayout",)
SHARING_TESTS = ("tests/test_noise.py::TestSharedWorkspace",)
QUADRATURE_TESTS = ("tests/test_noise.py::TestUnbiasedAverage",)
GATE_TESTS = ("tests/test_gates.py",)
EPSILON_TESTS = ("tests/test_cli.py::TestRangeErrorsNameConfigKeys",)
RANGE_TESTS = (
    "tests/test_noise.py::TestEnsembleAverage::test_overflowing_phase_refused_before_any_draw",
) + EPSILON_TESTS
TOMO_TESTS = ("tests/test_tomo.py",)
OUTPUT_TESTS = ("tests/test_outputs.py",)
ORACLE_TEST = "tests/test_noise.py::TestSourcesThatDrawNothing::test_temporal_average_equals_oracle"
SPLIT_TEST = "tests/test_nmrsim.py::TestTemporalAveraging::test_split_matches_full_rank_average"
NESTED_TEST = "tests/test_noise.py::TestNestedBlocks::test_nested_equal_flat_across_chunks"
#: The cast of every |angle|'s cos and sin into the factor table.
TRIG_COPY = "    np.copyto(trig, half_sin.reshape(2, a, 1, 1, n))  # cast to complex, into all four rows\n"
FACTOR_KEY = "return (ev.spin, ev.axis, abs(ev.angle)) if isinstance(ev, Rf) else ev"
#: The draw of one chunk in ``noise._draw_chunks``.
DRAWS = """        z = rng.standard_normal((CHUNK_SIZE, 3))
        while (beyond := np.abs(z) > 3.0).any():
            z[beyond] = rng.standard_normal(np.count_nonzero(beyond))
        n = min(CHUNK_SIZE, p.ensemble_size - start)
        rows = np.empty((3, n))  # one contiguous row per error source
        np.multiply(z[:n].T, sigmas[:, None], out=rows)
        yield rows.T
"""


MUTANTS = (
    Mutant(
        "delay operands swapped",
        "nmrsim.py",
        "np.multiply(f, u, out=u)",
        "np.multiply(u, f, out=u)",
        FACTOR_TESTS,
    ),
    Mutant(
        "reversed pulse adds",
        "nmrsim.py",
        "(np.subtract if ev.angle < 0 else np.add)(u, tmp, out=u)",
        "np.add(u, tmp, out=u)",
        FACTOR_TESTS,
    ),
    Mutant(
        "factors refilled only on the first chunk",
        "noise.py",
        "    for draws in _draw_chunks(p):\n"
        "        factors = _event_factors(table, sys, draws, p.calib_offset)\n",
        "    factors = None\n"
        "    for draws in _draw_chunks(p):\n"
        "        factors = factors or _event_factors(table, sys, draws, p.calib_offset)\n",
        FACTOR_TESTS,
    ),
    Mutant(
        "factor table hoisted out of the chunk loop: trig pairs kept from the first chunk",
        "nmrsim.py",
        TRIG_COPY,
        "    seen, table.seen = hasattr(table, 'seen'), True\n"
        "    if not seen:\n"
        "        np.copyto(trig, half_sin.reshape(2, a, 1, 1, n))\n",
        FACTOR_TESTS,
    ),
    Mutant(
        "one trig pair for every angle magnitude",
        "nmrsim.py",
        "c, sin = trig[abs(ev.angle)]",
        "c, sin = next(iter(trig.values()))",
        FACTOR_TESTS,
    ),
    Mutant(
        "a phase block written to the wrong rows",
        "nmrsim.py",
        "np.multiply(sin[rows], phase, out=f[rows])",
        "np.multiply(sin[rows], phase, out=f[::-1][rows])",
        FACTOR_TESTS + ENGINE_TESTS,
    ),
    Mutant(
        "cosine rows 1-3 not refilled for a new chunk",
        "nmrsim.py",
        TRIG_COPY,
        "    seen, table.seen = hasattr(table, 'seen'), True\n"
        "    np.copyto(trig[1], half_sin.reshape(2, a, 1, 1, n)[1])\n"
        "    np.copyto(trig[0, :, :1] if seen else trig[0], half_sin.reshape(2, a, 1, 1, n)[0])\n",
        FACTOR_TESTS + ENGINE_TESTS,
    ),
    Mutant(
        "delay rows 2 and 3 negated from each other's row",
        "nmrsim.py",
        "np.negative(x[:2], out=x[2:])",
        "np.negative(x[1::-1], out=x[2:])",
        FACTOR_TESTS,
    ),
    Mutant(
        # the same bits: numpy casts a real operand of a complex multiply
        "cosine handed to the engine as a real row",
        "nmrsim.py",
        "factors[key] = c, f, perm",
        "factors[key] = c.real[0, 0], f, perm",
        LAYOUT_TESTS,
    ),
    Mutant(
        # the same bits, as stride-3 columns
        "draws yielded as the scaled (n, 3) block",
        "noise.py",
        DRAWS,
        DRAWS.replace(
            "        n = min(CHUNK_SIZE, p.ensemble_size - start)\n"
            "        rows = np.empty((3, n))  # one contiguous row per error source\n"
            "        np.multiply(z[:n].T, sigmas[:, None], out=rows)\n"
            "        yield rows.T\n",
            "        yield z[: p.ensemble_size - start] * sigmas\n",
        ),
        LAYOUT_TESTS,
    ),
    Mutant(
        "factor key drops the spin",
        "nmrsim.py",
        FACTOR_KEY,
        FACTOR_KEY.replace("(ev.spin, ev.axis, abs(ev.angle))", "(ev.axis, abs(ev.angle))"),
        FACTOR_TESTS,
    ),
    Mutant(
        "factor key drops the axis",
        "nmrsim.py",
        FACTOR_KEY,
        FACTOR_KEY.replace("(ev.spin, ev.axis, abs(ev.angle))", "(ev.spin, abs(ev.angle))"),
        FACTOR_TESTS,
    ),
    Mutant(
        # the first pulse of each magnitude still builds s from its own spin and axis
        "factor key is the angle magnitude alone, for all spins and axes",
        "nmrsim.py",
        FACTOR_KEY,
        FACTOR_KEY.replace("(ev.spin, ev.axis, abs(ev.angle))", "abs(ev.angle)"),
        FACTOR_TESTS,
    ),
    Mutant(
        "workspace sized by the ensemble, not the chunk",
        "noise.py",
        "size, k = min(CHUNK_SIZE, p.ensemble_size), start.shape[1]",
        "size, k = p.ensemble_size, start.shape[1]",
        ("tests/test_noise.py::TestFactorTable::test_memory_bounded_however_large_the_ensemble",),
    ),
    Mutant(
        "partial products composed into their own operand",
        "noise.py",
        "if out is None or seq is None:  # the first step and each composition",
        "if out is None:  # the first step",
        ("tests/test_noise.py",),
    ),
    Mutant(
        "a buffer handed on in the op that last reads its tenant",
        "noise.py",
        "if pool and pool[0][0] < first[s]:",
        "if pool and pool[0][0] <= first[s]:",
        SHARING_TESTS,
    ),
    Mutant(
        "a stack opens a new buffer although one is free",
        "noise.py",
        "if pool and pool[0][0] < first[s]:",
        "if pool and pool[0][0] < first[s] - 1:",
        SHARING_TESTS,
    ),
    Mutant(
        "buffer sized by its first tenant, not its widest",
        "noise.py",
        "buffer[s], sizes[b] = b, max(sizes[b], widths[s])",
        "buffer[s], sizes[b] = b, sizes[b] or widths[s]",
        SHARING_TESTS,
    ),
    Mutant(
        "a head's stack, read as it is by a run, handed on before that run's sum",
        "noise.py",
        "last[out] = t  # the run's sum",
        "last.setdefault(out, t)  # the run's sum",
        SHARING_TESTS,
    ),
    Mutant(
        "refocusing pair without its minus sign",
        "nmrsim.py",
        'Rf("a", "X", -math.pi),',
        'Rf("a", "X", math.pi),',
        ("tests/test_nmrsim.py::TestCnotSequence::test_refocusing_pairs_have_opposed_phases",),
    ),
    Mutant(
        "overflowing delay phase scale accepted",
        "nmrsim.py",
        "if not math.isfinite(math.pi / self.j_coupling):",
        "if False:",
        ("tests/test_nmrsim.py::TestSpinSystem",) + EPSILON_TESTS,
    ),
    Mutant(
        "overflowing J phase accepted",
        "nmrsim.py",
        "if not math.isfinite(math.pi * self.j_coupling):",
        "if False:",
        ("tests/test_nmrsim.py::TestSpinSystem",) + EPSILON_TESTS,
    ),
    Mutant(
        "T2 with an infinite reciprocal accepted",
        "noise.py",
        "if not math.isfinite(1.0 / value):",
        "if False:",
        ("tests/test_noise.py::TestErrorParams",) + EPSILON_TESTS,
    ),
    Mutant(
        "spread whose 3 sigma overflows accepted",
        "noise.py",
        "if not math.isfinite(3.0 * value):",
        "if False:",
        ("tests/test_noise.py::TestErrorParams",) + EPSILON_TESTS,
    ),
    Mutant(
        "overflowing pulse angle reaches the engine",
        "noise.py",
        "if not math.isfinite(2.0 * angle * (abs(1.0 + calib) + 3.0 * rf)):",
        "if False:",
        RANGE_TESTS,
    ),
    Mutant(
        "overflowing delay phase reaches the engine",
        "noise.py",
        "if not math.isfinite(2.0 * math.pi * delay * (6.0 * offset + float(sys.j_coupling))):",
        "if False:",
        RANGE_TESTS,
    ),
    Mutant(
        "overflowing T2 exponent reaches the engine",
        "noise.py",
        "if not math.isfinite(t_max / float(getattr(p, name))):",
        "if False:",
        RANGE_TESTS,
    ),
    Mutant(
        "overflowing thermal deviation reaches numpy",
        "nmrsim.py",
        "if math.isfinite(epsilon * (r + 1.0)):",
        "if True:",
        ("tests/test_nmrsim.py::TestThermalState",) + EPSILON_TESTS,
    ),
    Mutant(
        "usage error names the dataclass field, not the config key",
        "cli.py",
        'print(f"error: {_config_message(str(exc))}", file=_sys.stderr)',
        'print(f"error: {exc}", file=_sys.stderr)',
        EPSILON_TESTS,
    ),
    Mutant(
        "parser rebuilt on every call",
        "cli.py",
        "args = _parser().parse_args(argv)",
        "args = build_parser().parse_args(argv)",
        ("tests/test_cli.py::TestOneParserPerProcess::test_parser_built_once",),
    ),
    Mutant(
        "namespace kept across calls",
        "cli.py",
        "args = _parser().parse_args(argv)",
        "args = _parser().parse_args(argv, vars(_parser()).setdefault('kept', argparse.Namespace()))",
        (
            "tests/test_cli.py::TestOneParserPerProcess::test_no_state_leaks_between_calls",
            "tests/test_cli.py::TestOneParserPerProcess::test_namespace_holds_only_its_argv",
        ),
    ),
    Mutant(
        "noisy run started from |01> instead of |00>",
        "experiment.py",
        "start = qcore.basis_state(0)[:, None]",
        "start = qcore.basis_state(1)[:, None]",
        ("tests/test_noise.py::test_noisy_output_density_from_the_pure_column",),
    ),
    Mutant(
        "identity part not added back",
        "experiment.py",
        "return f * qcore.ID4 + w * mean",
        "return w * mean",
        (SPLIT_TEST,),
    ),
    Mutant(
        "mean not scaled by the weight",
        "experiment.py",
        "return f * qcore.ID4 + w * mean",
        "return f * qcore.ID4 + mean",
        (SPLIT_TEST,),
    ),
    Mutant(
        "phase table conjugated",
        "nmrsim.py",
        "return perm, -1j * full[np.arange(4), perm]",
        "return perm, np.conj(-1j * full[np.arange(4), perm])",
        ("tests/test_nmrsim.py",),
    ),
    Mutant(
        "last chunk dropped",
        "noise.py",
        "enumerate(range(0, p.ensemble_size, CHUNK_SIZE))",
        "enumerate(range(0, max(1, p.ensemble_size - CHUNK_SIZE), CHUNK_SIZE))",
        DRAW_TESTS,
    ),
    Mutant(
        "T2 factors swapped",
        "noise.py",
        "f_a**_COHERENT_A * f_b**_COHERENT_B",
        "f_b**_COHERENT_A * f_a**_COHERENT_B",
        ENGINE_TESTS,
    ),
    Mutant(
        "prefix delay dropped from T2",
        "noise.py",
        "for circuit in circuits])[:, None] + t_heads",
        "for circuit in circuits])[:, None] + 0.0 * t_heads",
        ("tests/test_noise.py::test_shared_block_composition_matches_per_program_averages",),
    ),
    Mutant(
        "each run T2-damped over the mean delay of its circuit's runs",
        "noise.py",
        "    f_a = np.exp(-t_totals / p.t2_a)[..., None, None]\n"
        "    f_b = np.exp(-t_totals / p.t2_b)[..., None, None]\n",
        "    f_a = np.exp(-t_totals.mean(axis=1, keepdims=True) / p.t2_a)[..., None, None]\n"
        "    f_b = np.exp(-t_totals.mean(axis=1, keepdims=True) / p.t2_b)[..., None, None]\n",
        (ORACLE_TEST + "[t2]",),
    ),
    Mutant(
        "calibration offset dropped from the pulse angles",
        "nmrsim.py",
        "np.add(1.0 + calib_offset, deltas, out=scale)",
        "np.add(1.0, deltas, out=scale)",
        (ORACLE_TEST + "[calib_offset]",),
    ),
    Mutant(
        "single-pulse blocks skipped as if empty",
        "noise.py",
        "parts = tuple(part for part in map(canonical, block) if part)",
        "parts = tuple(part for part in map(canonical, block) if len(part) > 1)",
        ("tests/test_noise.py::test_shared_block_composition_matches_per_program_averages",),
    ),
    Mutant(
        "blocks composed in reverse order",
        "noise.py",
        "_compose(stacks[part], stacks[src], stacks[out], tmps[out])",
        "_compose(stacks[src], stacks[part], stacks[out], tmps[out])",
        ("tests/test_noise.py::test_batched_pulse_protocol_states_match_compiled_programs",),
    ),
    Mutant(
        "in-place program applied to a shared stack without copying it",
        "noise.py",
        "                _propagate(seq, factors, base, stacks[out], tmps[out])\n",
        "                _propagate(seq, factors, base, stacks[out] if src is None else base,"
        " tmps[out])\n"
        "                if src is not None:\n"
        "                    np.copyto(stacks[out], base)\n",
        (NESTED_TEST,),
    ),
    Mutant(
        "start applied untransposed in the constant product",
        "noise.py",
        "np.matmul(b.T, a, out=out)",
        "np.matmul(b, a, out=out)",
        (NESTED_TEST,),
    ),
    Mutant(
        # still the same states: only the count of event updates shows it
        "programs used in more than one place applied in place, once per use",
        "noise.py",
        "_is_program(part) and uses[id(part)] == 1",
        "_is_program(part) and uses[id(part)] >= 1",
        ("tests/test_noise.py::TestNestedBlocks::test_one_fig4_chunk_shares_each_cnot",),
    ),
    Mutant(
        # still the same states to rounding: only the count of products shows it
        "a program head propagated from the identity, then composed onto start",
        "noise.py",
        "_is_program(part) and uses[id(part)] == 1",
        "_is_program(part) and uses[id(part)] == 1 and node[0] is not _START",
        ("tests/test_noise.py::TestNestedBlocks::test_noisy_run_propagates_one_flat_head",),
    ),
    Mutant(
        # the same states: only the plan's widths show it (the page faults
        # of each call show it only where what it frees crosses glibc's trim
        # threshold, which depends on the heap's history)
        "noisy run given a 4-wide tmp",
        "noise.py",
        "return ops, views, [*sizes, max(sizes)]",
        "return ops, views, [*sizes, 4]",
        ("tests/test_noise.py::TestSharedWorkspace::test_noisy_run_has_one_column_buffer",),
    ),
    Mutant(
        "stack viewed at its buffer's width",
        "noise.py",
        "views.setdefault((buffer[s], width), len(views))",
        "views.setdefault((buffer[s], sizes[buffer[s]]), len(views))",
        SHARING_TESTS,
    ),
    Mutant(
        # still the same states to rounding: only the count of updates shows it
        "noisy run passes its nested program as a tuple head",
        "experiment.py",
        "seq = nmrsim.events(nmrsim.dense_coding_sequence(sys, m, variant))",
        "seq = nmrsim.dense_coding_sequence(sys, m, variant)",
        ("tests/test_noise.py::TestNestedBlocks::test_noisy_run_propagates_one_flat_head",),
    ),
    Mutant(
        "events keeps only the first part of a tuple",
        "nmrsim.py",
        "sum(map(events, block), ())",
        "events(block[0])",
        ("tests/test_noise.py::TestNestedBlocks::test_compile_block_equals_compile_of_its_events",),
    ),
    Mutant(
        "per-member start not copied into the output stack",
        "nmrsim.py",
        "    elif start is not u:\n        np.copyto(u, start)\n",
        "",
        ("tests/test_noise.py::TestNestedBlocks::test_mean_states_equal_reference_engine_on_nested_blocks",),
    ),
    Mutant(
        "composition contracts over the wrong index",
        "noise.py",
        "np.multiply(a[:, j, None], b[j, None], out=tmp)",
        "np.multiply(a[j, :, None], b[j, None], out=tmp)",
        ("tests/test_noise.py::TestComposition::test_compose_equals_per_member_matmul",),
    ),
    Mutant(
        "sum of W W^H without the conjugate",
        "noise.py",
        "np.conjugate(m, out=conj)",
        "np.copyto(conj, m)",
        ("tests/test_noise.py::TestComposition::test_mean_states_sum_member_outer_products",),
    ),
    Mutant(
        "every chunk on spawn key 0",
        "noise.py",
        "np.random.SeedSequence(p.seed, spawn_key=(c,))",
        "np.random.SeedSequence(p.seed, spawn_key=(0,))",
        DRAW_TESTS,
    ),
    Mutant(
        "chunk sliced before its rejection",
        "noise.py",
        DRAWS,
        DRAWS.replace("(CHUNK_SIZE, 3))\n", "(CHUNK_SIZE, 3))[: p.ensemble_size - start]\n"),
        DRAW_TESTS,
    ),
    Mutant(
        "draws scaled before their rejection",
        "noise.py",
        DRAWS,
        DRAWS.replace("(CHUNK_SIZE, 3))\n", "(CHUNK_SIZE, 3)) * sigmas\n")
        .replace("np.multiply(z[:n].T, sigmas[:, None], out=rows)", "np.copyto(rows, z[:n].T)"),
        DRAW_TESTS,
    ),
    Mutant(
        "offset sigma 1.25 times too large",
        "noise.py",
        "[p.rf_spread, p.offset_spread_hz, p.offset_spread_hz]",
        "[p.rf_spread, 1.25 * p.offset_spread_hz, 1.25 * p.offset_spread_hz]",
        QUADRATURE_TESTS,
    ),
    Mutant(
        "draws truncated at 2 sigma",
        "noise.py",
        "while (beyond := np.abs(z) > 3.0).any():",
        "while (beyond := np.abs(z) > 2.0).any():",
        QUADRATURE_TESTS,
    ),
    Mutant(
        "clip and rescale in place of the exact projection",
        "tomo.py",
        "    return (vecs * np.maximum(vals - shift, 0.0)) @ vecs.conj().T\n",
        "    clipped = np.maximum(vals, 0.0)\n"
        "    return (vecs * (clipped / clipped.sum())) @ vecs.conj().T\n",
        TOMO_TESTS,
    ),
    Mutant(
        "readouts conjugated by the unitary instead of its adjoint",
        "tomo.py",
        "(_READOUT_ADJOINTS[:, None] @ _PRODUCT_STACK",
        "(_READOUT_UNITARIES[:, None] @ _PRODUCT_STACK",
        TOMO_TESTS,
    ),
    Mutant(
        "readout map applied to the stack as one product",
        "tomo.py",
        "rho.reshape(rho.shape[:-2] + (1, 16)) @ _READOUT_MAP",
        "rho.reshape(-1, 16) @ _READOUT_MAP",
        TOMO_TESTS,
    ),
    Mutant(
        "random states' real and imaginary draws swapped",
        "validation.py",
        "a = z[:, 0] + 1j * z[:, 1]",
        "a = z[:, 1] + 1j * z[:, 0]",
        ("tests/test_tomo.py::test_random_densities_equal_per_state_loop",),
    ),
    Mutant(
        "fit reads the detectable slots in the wrong order",
        "tomo.py",
        "observed[..., list(DETECTABLE_INDICES)]",
        "observed[..., list(DETECTABLE_INDICES)[::-1]]",
        TOMO_TESTS,
    ),
    Mutant(
        "fit map applied to the stack as one row-form product",
        "tomo.py",
        "coeffs = (_FIT_MAP @ detected[..., None])[..., 0]",
        "coeffs = detected @ _FIT_MAP.T",
        TOMO_TESTS,
    ),
    Mutant(
        "every member projected once any one dips",
        "tomo.py",
        "np.flatnonzero(np.linalg.eigvalsh(members)[:, 0] < -PSD_FLOOR)",
        "range(len(members)) if np.any(np.linalg.eigvalsh(members)[:, 0] < -PSD_FLOOR) else ()",
        TOMO_TESTS,
    ),
    Mutant(
        "density check reads only the first member's eigenvalues",
        "qcore.py",
        "min_eig = float(np.min(np.linalg.eigvalsh(rho)))",
        "min_eig = float(np.linalg.eigvalsh(rho.reshape(-1, 4, 4)[0])[0])",
        ("tests/test_qcore.py",),
    ),
    Mutant(
        "psd_factor skips its positivity test",
        "qcore.py",
        "_check_min_eigenvalue(float(vals[0]), PSD_FLOOR)",
        "None",
        ("tests/test_qcore.py::TestPsdFactor",),
    ),
    Mutant(
        "state finiteness read through a float view",
        "qcore.py",
        "np.all(np.isfinite(s))",
        "np.all(np.isfinite(s.view(float)))",
        ("tests/test_qcore.py",),
    ),
    Mutant(
        "non-finite config value accepted",
        "cli.py",
        "if key in section and not math.isfinite(value):",
        "if False:",
        EPSILON_TESTS,
    ),
    Mutant(
        "zero option value ignored: --seed 0 leaves the config seed",
        "cli.py",
        "if value is not None:",
        "if value:",
        ("tests/test_cli.py::TestSeedContract",),
    ),
    Mutant(
        "negative seed accepted",
        "noise.py",
        "or seed < 0:",
        "or seed < -1:",
        ("tests/test_cli.py::TestSeedContract",),
    ),
    Mutant(
        "epsilon 0 accepted",
        "nmrsim.py",
        "self.epsilon > 0):",
        "self.epsilon >= 0):",
        ("tests/test_nmrsim.py::TestThermalState",) + EPSILON_TESTS,
    ),
    Mutant(
        "--seed accepted without --noise",
        "cli.py",
        'raise ValueError("--seed requires --noise")',
        "pass",
        ("tests/test_cli.py::TestSeedContract",),
    ),
    Mutant(
        "layer rule dropped",
        "cli.py",
        'if args.noise is not None and args.layer != "pulse":',
        "if False:",
        ("tests/test_cli.py::TestRun::test_noise_requires_pulse_layer",),
    ),
    Mutant(
        "parse error without its path",
        "cli.py",
        'f"config {path} is not a JSON document: {exc}"',
        'f"config is not a JSON document: {exc}"',
        ("tests/test_cli.py::TestRun::test_unparsable_file_names_itself",),
    ),
    Mutant(
        "--noise file without a noise key read as a bare noise object",
        "cli.py",
        "if doc.keys() & CONFIG_SECTIONS else",
        'if "noise" in doc else',
        ("tests/test_cli.py::TestRun::test_noise_path_document_without_noise_section",),
    ),
    Mutant(
        "--noise document's spin_system section not checked",
        "cli.py",
        "            _spin_system(doc)  # checked as --config's, never used\n",
        "",
        ("tests/test_cli.py::TestRun::test_noise_path_spin_system_checked_as_config",),
    ),
    Mutant(
        "bare --noise's const an empty path again",
        "cli.py",
        'nargs="?", const=True,',
        'nargs="?", const="",',
        ("tests/test_cli.py::TestRun::test_empty_path_is_io_error",),
    ),
    Mutant(
        "empty --config path read as no path",
        "cli.py",
        "cfg = {} if args.config is None else",
        "cfg = {} if not args.config else",
        ("tests/test_cli.py::TestRun::test_empty_path_is_io_error",),
    ),
    Mutant(
        "tiny epsilon reaches the checks",
        "cli.py",
        "if system.epsilon < experiment.MIN_EPSILON:",
        "if False:",
        EPSILON_TESTS,
    ),
    Mutant(
        "too-large epsilon reaches the checks",
        "cli.py",
        "nmrsim.thermal_state(system)  # the populations bound epsilon above",
        "pass",
        EPSILON_TESTS,
    ),
    Mutant(
        "table verdict printed after the grid",
        "cli.py",
        "before, after = result.notes, ()",
        "before, after = (), result.notes",
        OUTPUT_TESTS + ("tests/test_cli.py::TestTable::test_self_check_passes",),
    ),
    Mutant(
        "each output file replaced as soon as it is written",
        "cli.py",
        "staged[path] = name",
        "os.replace(name, path)",
        ("tests/test_cli.py::TestFig4::test_failed_write_changes_no_output_file",),
    ),
    Mutant(
        "fig4 summary printed before its files are written",
        "cli.py",
        'before, after = (), (*result.notes, "wrote " + ", ".join(outputs))',
        'before, after = (*result.notes, "wrote " + ", ".join(outputs)), ()',
        OUTPUT_TESTS + ("tests/test_cli.py::TestFig4::test_unwritable_directory_is_io_error",),
    ),
    Mutant(
        "table --check FAIL still writes the grid",
        "cli.py",
        "return Result(notes=notes, code=EXIT_FAIL)",
        "return replace(cmd_table(argparse.Namespace(**dict(vars(args), check=False))),"
        " notes=notes, code=EXIT_FAIL)",
        ("tests/test_cli.py::TestMutationSanity::test_failed_table_check_writes_only_its_verdict",),
    ),
    Mutant(
        "table --check verifies a second grid",
        "cli.py",
        "validation.check_table(grid)",
        "validation.check_table(protocol.table1())",
        ("tests/test_cli.py::TestValidate::test_each_network_runs_once_per_request",),
    ),
    Mutant(
        "check_table re-runs its own grid",
        "validation.py",
        "reference = _reference_table()",
        "reference, grid = _reference_table(), protocol.table1()",
        ("tests/test_cli.py::TestValidate::test_table_check_reads_the_grid_it_is_given",),
    ),
    # grid[j][i] would be an equivalent mutant: Table 1's matrix of basis
    # indices is symmetric, so the transposed cell has the same index
    Mutant(
        "pulse-protocol check reads the previous variant's cell",
        "validation.py",
        "grid[i][j]",
        "grid[i][j - 1]",
        ("tests/test_cli.py::TestValidate::test_full_suite_passes",),
    ),
    Mutant(
        "fourth encoding's sign flipped",
        "protocol.py",
        "1j * qcore.SIGMA_Y",
        "-1j * qcore.SIGMA_Y",
        GATE_TESTS,
    ),
    Mutant(
        "CNOT with its control swapped",
        "protocol.py",
        "[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]",
        "[[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]]",
        GATE_TESTS,
    ),
    Mutant(
        "substitution built from the wrong spin",
        "protocol.py",
        'if spin == "b" else',
        'if spin == "a" else',
        GATE_TESTS,
    ),
)


def run_tests(src: Path, tests: tuple[str, ...]) -> int:
    """pytest's exit code for ``tests`` run against the package in ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True).returncode


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        baseline = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        if run_tests(src, baseline) != 0:
            print("error: the named tests fail without a mutant", file=sys.stderr)
            return 1
        for mutant in MUTANTS:
            path = src / "densecode" / mutant.module
            original = path.read_text()
            start = time.perf_counter()
            if original.count(mutant.old) != 1:
                verdict = "NOT APPLIED"
            else:
                path.write_text(original.replace(mutant.old, mutant.new))
                code = run_tests(src, mutant.tests)
                path.write_text(original)
                # 1: a test failed; 2: collection or import failed
                verdict = {0: "SURVIVED", 1: "killed", 2: "killed"}.get(code, f"ERROR ({code})")
            failures += verdict != "killed"
            print(f"{verdict:12} {mutant.name} ({time.perf_counter() - start:.1f} s)")
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

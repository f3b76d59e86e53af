"""Command-line interface.

Commands: table, run, fig4, tomo, validate.
Exit codes: 0 success, 1 validation failure, 2 usage error (malformed or
out-of-range input), 3 I/O failure (an unreadable config path, the empty
path among them, or an unwritable output).

Runs are configured by a single JSON document with optional ``spin_system``
and ``noise`` objects; every field has a default, so any run is reproducible
from one file plus a seed.  ``resolve`` first checks run and tomo's option
rules (``--seed`` needs ``--noise``, ``--noise`` needs ``--layer pulse``),
before any file is read; then it reads, in order: the document's keys and
sections; the spin system and epsilon; the noise parameters (always for fig4
and validate, only with ``--noise`` for run and tomo, where ``--noise PATH``
replaces the section by the file's ``noise`` section, empty if absent, if
the file has a ``spin_system`` or ``noise`` key, else by the whole file;
the file's ``spin_system`` section is checked as ``--config``'s, not used);
``noise.seed``, then ``--seed`` over it; then ``validate --ensemble-size``.

``main`` parses with one parser per process, built by ``build_parser`` on
the first call and shared by every later one.  Each command returns a
``Result``; ``main`` alone renders it and writes it.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import os
import re
import secrets
import stat
import sys as _sys
from dataclasses import dataclass, replace

import numpy as np

from . import experiment, nmrsim, noise, protocol, qcore, tomo, validation
from .protocol import BELL_VARIANT_ORDER, BellVariant

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3


#: Keys of a config document, and of its sections with the dataclass field
#: each key sets (``None``: read by the resolver itself).
CONFIG_SECTIONS = ("spin_system", "noise")
SPIN_SYSTEM_KEYS = {
    "freq_a_mhz": "freq_a",
    "freq_b_mhz": "freq_b",
    "j_hz": "j_coupling",
    "epsilon": None,
}
NOISE_KEYS = {
    "rf_spread": "rf_spread",
    "calib_offset": "calib_offset",
    "offset_spread_hz": "offset_spread_hz",
    "t2_a_s": "t2_a",
    "t2_b_s": "t2_b",
    "ensemble_size": "ensemble_size",
    "seed": None,
}


def _read_document(path: str) -> dict:
    """The JSON object at ``path``; an unreadable path raises ``OSError``, a
    file that is not one raises ``ValueError`` naming ``path``."""
    with open(path, encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except RecursionError:
            raise ValueError(f"config {path} is nested too deeply") from None
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ValueError(f"config {path} is not a JSON document: {exc}") from None
    if not isinstance(cfg, dict):
        raise ValueError(f"config {path} must be a JSON object")
    return cfg


def _check_keys(mapping: dict, name: str, known) -> dict:
    """``mapping``, whose keys must all be in ``known``; an unknown key is
    named as ``name.key``."""
    unknown = sorted(set(mapping) - set(known))
    if unknown:
        prefix = f"{name}." if name else ""
        raise ValueError(
            "unknown config key " + ", ".join(prefix + key for key in unknown)
            + " (known: " + ", ".join(known) + ")"
        )
    return mapping


def _section(cfg: dict, name: str, keys) -> dict:
    """``cfg[name]`` ({} when absent), which must be an object with no key
    outside ``keys``."""
    section = cfg.get(name, {})
    if not isinstance(section, dict):
        raise ValueError(f"config {name} must be a JSON object")
    return _check_keys(section, name, keys)


def _config_value(section: dict, name: str, key: str, default, integer: bool = False):
    """``section[key]`` (or ``default``), which must be a JSON number and not
    a boolean: an int if ``integer``, else converted to a float, and finite
    if read from the document (``Infinity`` and ``NaN`` are not RFC 8259
    JSON).  The error names the key as ``name.key``."""
    value = section.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        kind = "an integer" if integer else "a number"
        raise ValueError(f"config {name}.{key} must be {kind}, got {value!r}")
    if integer:
        return value
    try:
        value = float(value)
    except OverflowError:
        raise ValueError(f"config {name}.{key} is an integer too large for a float") from None
    if key in section and not math.isfinite(value):
        raise ValueError(f"config {name}.{key} must be finite, got {value!r}")
    return value


#: Dataclass fields, as the library's range errors name them, and the config
#: keys that set them.
_CONFIG_NAMES = {
    f"{cls}.{field}": f"config {name}.{key}"
    for cls, name, keys in (
        ("SpinSystem", "spin_system", SPIN_SYSTEM_KEYS),
        ("ErrorParams", "noise", NOISE_KEYS),
    )
    for key, field in keys.items()
    if field is not None
}


def _config_message(message: str) -> str:
    """``message`` with every dataclass field it names replaced by its config
    key (``config noise.t2_a_s must be positive``)."""
    return re.sub(
        r"\b(?:SpinSystem|ErrorParams)\.\w+",
        lambda match: _CONFIG_NAMES.get(match[0], match[0]),
        message,
    )


def _from_section(cls, section: dict, name: str, keys: dict, base):
    """``cls`` built from the fields ``keys`` maps ``section``'s keys to,
    each defaulting to ``base``'s."""
    fields = {
        field: _config_value(
            section, name, key, getattr(base, field), integer=field == "ensemble_size"
        )
        for key, field in keys.items()
        if field is not None
    }
    return cls(**fields)


def _check_seed(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    return value


def _spin_system(cfg: dict) -> tuple[nmrsim.SpinSystem, float]:
    """The spin system and epsilon of the document ``cfg``, from its
    ``spin_system`` section (defaults where absent), with epsilon > 0."""
    sc = _section(cfg, "spin_system", SPIN_SYSTEM_KEYS)
    system = _from_section(
        nmrsim.SpinSystem, sc, "spin_system", SPIN_SYSTEM_KEYS, nmrsim.SpinSystem()
    )
    epsilon = _config_value(sc, "spin_system", "epsilon", nmrsim.DEFAULT_EPSILON)
    if not epsilon > 0:
        raise ValueError("config spin_system.epsilon must be finite and > 0")
    return system, epsilon


@dataclass(frozen=True)
class Inputs:
    """A command's resolved inputs; ``params`` and ``seed`` are ``None``
    when the noise model is off."""

    system: nmrsim.SpinSystem
    epsilon: float
    params: noise.ErrorParams | None
    seed: int | None


def resolve(args: argparse.Namespace) -> Inputs:
    """The inputs of a run, fig4, tomo or validate command, resolved in the
    order the module docstring gives.  Malformed or out-of-range values
    raise ``ValueError`` naming the config key (or the dataclass field, which
    ``main`` turns into the key) or the option."""
    if args.command in ("run", "tomo"):
        if args.seed is not None and args.noise is None:
            raise ValueError("--seed requires --noise")
        if args.noise is not None and args.layer != "pulse":
            raise ValueError("--noise requires --layer pulse")
    cfg = {} if args.config is None else _check_keys(_read_document(args.config), "", CONFIG_SECTIONS)
    system, epsilon = _spin_system(cfg)
    if args.command in ("fig4", "validate"):
        if epsilon < experiment.MIN_EPSILON:
            raise ValueError(
                f"config spin_system.epsilon must be >= {experiment.MIN_EPSILON:g} for the "
                f"pseudo-pure rescaling, got {epsilon!r}"
            )
        try:  # the populations bound epsilon above: "epsilon 0.2 too large: ..."
            nmrsim.thermal_state(system, epsilon)
        except ValueError as exc:
            raise ValueError(f"config spin_system.{exc}") from None
    nc = _section(cfg, "noise", NOISE_KEYS)
    if args.command in ("run", "tomo"):
        if args.noise is None:  # only the section's shape and keys are checked
            return Inputs(system, epsilon, None, None)
        if args.noise is not True:  # a whole document, or a bare noise object
            doc = _read_document(args.noise)
            doc = _check_keys(doc, "", CONFIG_SECTIONS) if doc.keys() & CONFIG_SECTIONS else {"noise": doc}
            _spin_system(doc)  # checked as --config's, never used
            nc = _section(doc, "noise", NOISE_KEYS)
    params = _from_section(noise.ErrorParams, nc, "noise", NOISE_KEYS, noise.DEMO_PARAMS)
    seed = _check_seed(nc.get("seed", noise.DEMO_SEED), "config noise.seed")
    if args.seed is not None:
        seed = _check_seed(args.seed, "--seed")
    if args.command == "validate" and args.ensemble_size is not None:
        try:
            params = replace(params, ensemble_size=args.ensemble_size)
        except ValueError as exc:  # name the option, not the dataclass field
            message = str(exc).replace("ErrorParams.ensemble_size", "--ensemble-size", 1)
            raise ValueError(message) from None
    return Inputs(system, epsilon, params, seed)


def _variant(value: str) -> BellVariant:
    try:
        return BellVariant(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"unknown variant {value!r}; choose from "
            + ", ".join(v.value for v in BELL_VARIANT_ORDER)
        ) from None


def _write_output(text: str, out_path: str | None) -> str | None:
    """Write ``text`` to stdout without ``out_path``; in place to an
    ``out_path`` that exists as anything but a regular file (``/dev/stdout``,
    a FIFO, a link); else to a new temporary file beside ``out_path``, and
    return its name for ``_write`` to move into place.  A failed write
    leaves no temporary file, and its ``OSError`` names ``out_path``."""
    if not out_path:
        _sys.stdout.write(text)
        return None
    in_place = os.path.lexists(out_path) and not stat.S_ISREG(os.lstat(out_path).st_mode)
    name = out_path if in_place else f"{out_path}.{secrets.token_hex(4)}.tmp"
    try:
        with open(name, "w" if in_place else "x", newline="", encoding="utf-8") as fh:
            fh.write(text)  # CSV ends rows in \r\n: newline="" keeps them
    except OSError as exc:
        if not in_place:
            with contextlib.suppress(OSError):
                os.remove(name)
        raise OSError(exc.errno, exc.strerror, out_path) from None
    return None if in_place else name


def _render(fmt: str, data) -> str:
    """``data`` in format ``fmt``: a payload as strict JSON (a non-finite
    float raises ``ValueError``), rows as CSV, else lines of text."""
    if fmt == "json":
        return json.dumps(data, indent=2, allow_nan=False) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf).writerows(data)
        return buf.getvalue()
    return "\n".join(data) + "\n"


@dataclass(frozen=True)
class Result:
    """A command's result, which ``main`` alone renders and writes.

    ``--format`` chooses ``payload`` (JSON), ``lines`` (text) or ``rows``
    (CSV) for ``--out`` or stdout; one that is ``None`` writes nothing.
    fig4 has ``files``: names in the ``--out`` directory, each mapped to a
    payload or rows and rendered by its suffix.  ``notes`` are stdout lines,
    printed before the output, or after the files and then a ``wrote`` line.
    ``code`` is the exit code if every write succeeds."""

    payload: dict | None = None
    lines: list[str] | None = None
    rows: list[list] | None = None
    files: dict | None = None
    notes: tuple[str, ...] = ()
    code: int = EXIT_OK


def _write(args, result: Result) -> int:
    """Write ``result`` as ``Result`` says; a failed write is ``EXIT_IO``."""
    if result.files is None:
        data = {"json": result.payload, "csv": result.rows, "text": result.lines}[args.format]
        outputs = {} if data is None else {args.out: _render(args.format, data)}
        before, after = result.notes, ()
    else:
        outputs = {
            f"{args.out}/{name}" if args.out else name: _render(name.rsplit(".", 1)[1], data)
            for name, data in result.files.items()
        }
        before, after = (), (*result.notes, "wrote " + ", ".join(outputs))
    for line in before:
        print(line)
    staged = {}  # target path -> its temporary file, moved into place once all are written
    try:
        for path, text in outputs.items():
            if (name := _write_output(text, path)) is not None:
                staged[path] = name
        for path, name in staged.items():
            os.replace(name, path)
    except OSError as exc:
        for name in staged.values():
            with contextlib.suppress(OSError):
                os.remove(name)
        print(f"error: cannot write output: {exc}", file=_sys.stderr)
        return EXIT_IO
    for line in after:
        print(line)
    return result.code


def _state_entries(s: np.ndarray) -> list[dict]:
    return [
        {
            "basis": f"|{qcore.BASIS_LABELS[k]}>",
            "re": float(s[k].real),
            "im": float(s[k].imag),
            "probability": float(abs(s[k]) ** 2),
        }
        for k in range(4)
    ]


def _state_lines(title: str, entries: list[dict]) -> list[str]:
    """``title`` and one line per ``_state_entries`` entry."""
    return [title] + [
        f"  {e['basis']}  {e['re']:+.8f} {e['im']:+.8f}i   p={e['probability']:.9f}"
        for e in entries
    ]


def _density_json(rho: np.ndarray) -> list[list[list[float]]]:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(rho)]


def _modulus_json(rho: np.ndarray) -> dict:
    """The element moduli |rho_jk| on the |00>..|11> axes."""
    return {"axis": list(qcore.BASIS_LABELS), "modulus": np.abs(rho).tolist()}


def _modulus_rows(rho: np.ndarray) -> list[list]:
    """One (row, col, |rho_jk|) row per element, row-major."""
    return [[j, k, f"{val:.12g}"] for (j, k), val in np.ndenumerate(np.abs(rho))]


def _verdict(check: validation.CheckResult) -> str:
    return f"{'PASS' if check.passed else 'FAIL'} {check.name:<26s} {check.detail}"


# ---------------------------------------------------------------- table ----


def cmd_table(args) -> Result:
    grid = protocol.table1()
    columns = [v.value for v in BELL_VARIANT_ORDER]
    notes = ()
    if args.check:
        reference = validation.check_table(grid)
        notes = (_verdict(reference),)
        if not reference.passed:
            return Result(notes=notes, code=EXIT_FAIL)
    payload = {
        "columns": columns,
        "rows": [
            {
                "message": m,
                "bits": protocol.message_bits(m),
                "cells": [
                    {"variant": columns[j], "ket": grid[i][j].ket,
                     "y": grid[i][j].y, "x": grid[i][j].x, "phase": grid[i][j].phase}
                    for j in range(4)
                ],
            }
            for i, m in enumerate(protocol.MESSAGES)
        ],
    }
    rows = [["message", "variant", "output"]] + [
        [m, col, grid[i][j].ket]
        for i, m in enumerate(protocol.MESSAGES)
        for j, col in enumerate(columns)
    ]
    width = max(len(c) for c in columns) + 2
    lines = ["start state:".ljust(8) + "".join(c.rjust(width) for c in columns)]
    for i, m in enumerate(protocol.MESSAGES):
        lines.append(
            f"U_a{m}    " + "".join(grid[i][j].ket.rjust(width) for j in range(4))
        )
    return Result(payload, lines, rows, notes=notes)


# ------------------------------------------------------------------ run ----


def cmd_run(args, inputs: Inputs) -> Result:
    params, seed = inputs.params, inputs.seed
    m, v = args.message, args.variant

    report: dict = {"layer": args.layer, "message": m, "bits": protocol.message_bits(m),
                    "variant": v.value}
    lines: list[str] = [f"layer={args.layer} message={m} ({protocol.message_bits(m)}) variant={v.value}"]

    if args.layer == "ideal":
        prepared = protocol.prepare_bell(v)
        encoded = protocol.encode(prepared, m)
        decoded = protocol.decode(encoded)
        out = protocol.readout(decoded)
        report.update(
            prepared=_state_entries(prepared),
            encoded=_state_entries(encoded),
            decoded=_state_entries(decoded),
            readout={"y": out.y, "x": out.x, "phase": out.phase, "ket": out.ket},
            recovered_message=protocol.recover_message((out.y, out.x), v),
        )
        for stage in ("prepared", "encoded", "decoded"):
            lines += _state_lines(f"{stage} state:", report[stage])
        lines.append(f"readout: {out.ket}  bits={out.bits}")
        lines.append(f"recovered message: {report['recovered_message']}")
    elif params is None:
        final = experiment.pulse_output_state(inputs.system, m, v)
        probs = qcore.probabilities(final)
        k = int(np.argmax(probs))
        report.update(
            populations={qcore.BASIS_LABELS[i]: float(probs[i]) for i in range(4)},
            dominant_state=f"|{qcore.BASIS_LABELS[k]}>",
            dominant_population=float(probs[k]),
            recovered_message=protocol.recover_message((k >> 1, k & 1), v),
        )
        lines += _state_lines("final pulse-layer state:", _state_entries(final))
        lines.append(f"dominant state: |{qcore.BASIS_LABELS[k]}>  population={probs[k]:.12f}")
        lines.append(f"recovered message: {report['recovered_message']}")
    else:
        rho = experiment.noisy_output_density(inputs.system, params, m, v, seed=seed)
        probs = qcore.probabilities(rho)
        k = int(np.argmax(probs))
        report.update(
            seed=seed,
            ensemble_size=params.ensemble_size,
            populations={qcore.BASIS_LABELS[i]: float(probs[i]) for i in range(4)},
            density_matrix=_density_json(rho),
            recovered_message=protocol.recover_message((k >> 1, k & 1), v),
            fidelity_vs_ideal=qcore.fidelity(rho, experiment.ideal_output_density(m, v)),
        )
        lines.append("noisy ensemble (size {ensemble_size}, seed {seed}) populations:".format(**report))
        lines += [f"  |{label}>  p={p:.6f}" for label, p in report["populations"].items()]
        lines.append(f"recovered message: {report['recovered_message']}")
        lines.append(f"fidelity vs ideal output: {report['fidelity_vs_ideal']:.6f}")
    return Result(report, lines)


# ----------------------------------------------------------------- fig4 ----


def cmd_fig4(args, inputs: Inputs) -> Result:
    params, seed = inputs.params, inputs.seed
    panels = experiment.fig4_panels(inputs.system, inputs.epsilon, params, seed=seed)

    summary = {
        "seed": seed,
        "ensemble_size": params.ensemble_size,
        "noise": {
            key: getattr(params, field)
            for key, field in NOISE_KEYS.items()
            if field not in (None, "ensemble_size")
        },
        "panels": [
            {
                "message": p.message,
                "experimental_panel": experiment.EXPERIMENTAL_PANELS[p.message - 1],
                "theory_panel": experiment.THEORY_PANELS[p.message - 1],
                "max_element_error_absolute": p.error.absolute,
                "max_element_error_relative": p.error.relative,
            }
            for p in panels
        ],
        "max_relative_error": max(p.error.relative for p in panels),
    }

    matrices = {}
    for p, entry in zip(panels, summary["panels"]):
        matrices[entry["experimental_panel"]] = p.experimental
        matrices[entry["theory_panel"]] = p.theory
    if args.format == "json":
        modulus_tables = {label: _modulus_json(rho) for label, rho in matrices.items()}
        files = {"fig4.json": dict(summary, modulus_tables=modulus_tables)}
    else:
        # sorted labels: the experimental panels a-d, then the theory panels e-h
        rows = [["panel", "row", "col", "modulus"]] + [
            [label, *row] for label, rho in sorted(matrices.items()) for row in _modulus_rows(rho)
        ]
        files = {"fig4.csv": rows, "fig4_errors.json": summary}
    notes = [
        f"message {p['message']}: max element error {p['max_element_error_absolute']:.4f} "
        f"absolute, {p['max_element_error_relative']:.4f} relative"
        for p in summary["panels"]
    ]
    notes.append(f"max relative error across panels: {summary['max_relative_error']:.4f}")
    return Result(files=files, notes=tuple(notes))


# ----------------------------------------------------------------- tomo ----


def cmd_tomo(args, inputs: Inputs) -> Result:
    params = inputs.params
    m, v = args.message, args.variant

    ideal = experiment.ideal_output_density(m, v)
    if args.layer == "ideal":
        rho_in = ideal
    elif params is None:
        rho_in = qcore.pure_density(experiment.pulse_output_state(inputs.system, m, v))
    else:
        rho_in = experiment.noisy_output_density(inputs.system, params, m, v, seed=inputs.seed)

    reconstructed = tomo.reconstruct(tomo.simulate_readouts(rho_in))
    err = tomo.max_element_error(reconstructed, ideal)
    payload = {
        "message": m,
        "variant": v.value,
        "layer": args.layer,
        "noisy": params is not None,
        "modulus_table": _modulus_json(reconstructed),
        "reconstruction_roundtrip_error": float(np.max(np.abs(reconstructed - rho_in))),
        "max_element_error_absolute": err.absolute,
        "max_element_error_relative": err.relative,
        "fidelity_vs_ideal": qcore.fidelity(reconstructed, ideal),
    }
    rows = [["row", "col", "modulus"]] + _modulus_rows(reconstructed)
    lines = [
        f"tomography of message {m}, variant {v.value}, layer {args.layer}"
        + (" (noisy)" if payload["noisy"] else ""),
        "reconstructed element moduli (rows/cols |00>..|11>):",
        *("  " + "  ".join(f"{x:.6f}" for x in row) for row in payload["modulus_table"]["modulus"]),
        f"reconstruction round-trip error: {payload['reconstruction_roundtrip_error']:.3e}",
        f"max element error vs ideal: {payload['max_element_error_absolute']:.4f} absolute, "
        f"{payload['max_element_error_relative']:.4f} relative",
        f"fidelity vs ideal: {payload['fidelity_vs_ideal']:.6f}",
    ]
    return Result(payload, lines, rows)


# ------------------------------------------------------------- validate ----


def cmd_validate(args, inputs: Inputs) -> Result:
    results = validation.run_validation(
        sys=inputs.system, epsilon=inputs.epsilon, params=inputs.params, seed=inputs.seed
    )
    payload = {
        "seed": inputs.seed,
        "checks": [
            {"name": r.name, "passed": r.passed, "value": r.value, "bound": r.bound,
             "detail": r.detail}
            for r in results
        ],
        "passed": all(r.passed for r in results),
    }
    lines = [_verdict(r) for r in results]
    lines.append(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    return Result(payload, lines, code=EXIT_OK if payload["passed"] else EXIT_FAIL)


# ---------------------------------------------------------------- parser ----


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="densecode",
        description="Two-spin dense-coding simulator: ideal circuit layer, "
        "NMR pulse layer, tomography and noise model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="print the message/start-state correspondence")
    p_table.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_table.add_argument("--check", action="store_true",
                         help="verify the grid against a brute-force enumeration")
    p_table.add_argument("--out", metavar="PATH")

    def protocol_command(name: str, summary: str, formats: tuple[str, ...]) -> None:
        p = sub.add_parser(name, help=summary)
        p.add_argument("-m", "--message", type=int, required=True, choices=(1, 2, 3, 4))
        p.add_argument("-v", "--variant", type=_variant, default=BellVariant.MINUS_PHI,
                       help="Bell start state (default minus-phi)")
        p.add_argument("--layer", choices=("ideal", "pulse"), default="ideal")
        p.add_argument("--config", metavar="PATH")
        p.add_argument("--noise", nargs="?", const=True, metavar="PATH",
                       help="enable the error model (optionally from a JSON file)")
        p.add_argument("--seed", type=int)
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", metavar="PATH")

    protocol_command("run", "run the protocol for one message", ("text", "json"))

    p_fig4 = sub.add_parser("fig4", help="emit theory/experiment element-modulus tables")
    p_fig4.add_argument("--config", metavar="PATH")
    p_fig4.add_argument("--seed", type=int)
    p_fig4.add_argument("--format", choices=("csv", "json"), default="csv")
    p_fig4.add_argument("--out", metavar="DIR", help="output directory (default .)")

    protocol_command("tomo", "tomograph a protocol output state", ("text", "json", "csv"))

    p_val = sub.add_parser("validate", help="run the full verification suite")
    p_val.add_argument("--config", metavar="PATH")
    p_val.add_argument("--seed", type=int)
    p_val.add_argument("--ensemble-size", type=int, dest="ensemble_size")
    p_val.add_argument("--format", choices=("text", "json"), default="text")
    p_val.add_argument("--out", metavar="PATH")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` shares across calls, built on first use.  Sharing
    is safe: ``parse_args`` writes only into a fresh ``Namespace``, never
    into the parser or the parsers of its commands."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        # an overflow or NaN is an error, not a warning beside a result
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            if args.command == "table":
                result = cmd_table(args)
            else:
                commands = {"run": cmd_run, "fig4": cmd_fig4, "tomo": cmd_tomo, "validate": cmd_validate}
                result = commands[args.command](args, resolve(args))
            return _write(args, result)
    except OSError as exc:  # a config path that cannot be read
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {_config_message(str(exc))}", file=_sys.stderr)
        return EXIT_USAGE
    except FloatingPointError as exc:
        print(f"error: {exc}: a config value is out of range", file=_sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()

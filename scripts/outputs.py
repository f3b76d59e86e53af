"""Output corpus of the command line: a SHA-256 manifest of what each of a
fixed list of commands writes.

Each argv of ``corpus()`` runs through ``densecode.cli.main`` in-process,
in a temporary directory of its own that holds the input files ``INPUTS``
and is the working directory during the call.  The manifest records, per
argv, the exit code and the SHA-256 of its stdout, its stderr and every
file it wrote.  ``{dir}`` in an argv stands for that directory; before
digesting, the directory's path in any output is replaced by ``{dir}``
again, so the manifest does not depend on where the directory was made.

The manifest also names the numpy version that made it: noisy outputs are
bit-reproducible for one numpy version, not across versions.

Run from anywhere, against this checkout's ``src``:

    python scripts/outputs.py           # print the manifest
    python scripts/outputs.py --write   # regenerate scripts/outputs_manifest.json
    python scripts/outputs.py --check   # compare with it; exit 1 on a difference
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "scripts" / "outputs_manifest.json"

#: Input files written into each case's directory; not digested.
INPUTS = {
    "small.json": '{"noise": {"ensemble_size": 50}}\n',
    "unknown.json": '{"noise": {"rf_sprad": 0.05}}\n',
}
MESSAGES = ("1", "2", "3", "4")
VARIANTS = ("minus-phi", "plus-phi", "minus-psi", "plus-psi")
SEEDS = ("2", "7")


def corpus() -> list[list[str]]:
    """The argv list, in manifest order."""
    cases = []
    for fmt in ("text", "json", "csv"):
        for check in ([], ["--check"]):
            cases.append(["table", "--format", fmt, *check])
            cases.append(["table", "--format", fmt, *check, "--out", f"table.{fmt}"])
    pairs = [["-m", m, "-v", v] for m in MESSAGES for v in VARIANTS]
    for layer in ("ideal", "pulse"):
        for pair in pairs:
            for fmt in ("text", "json"):
                cases.append(["run", *pair, "--layer", layer, "--format", fmt])
            for fmt in ("text", "json", "csv"):
                cases.append(["tomo", *pair, "--layer", layer, "--format", fmt])
    for seed in SEEDS:
        for m, v in zip(MESSAGES, VARIANTS):
            noisy = ["-m", m, "-v", v, "--layer", "pulse", "--noise"]
            for fmt in ("text", "json"):
                cases.append(["run", *noisy, "--seed", seed, "--format", fmt])
            for fmt in ("text", "json", "csv"):
                cases.append(["tomo", *noisy, "small.json", "--seed", seed, "--format", fmt])
    for fmt in ("csv", "json"):
        cases.append(["fig4", "--format", fmt])
        cases.append(["fig4", "--format", fmt, "--seed", "3"])
    cases.append(["fig4", "--config", "small.json", "--out", "{dir}"])
    for fmt in ("text", "json"):
        cases.append(["validate", "--format", fmt])
        cases.append(["validate", "--format", fmt, "--seed", "3", "--ensemble-size", "50"])
    cases += [
        ["validate", "--ensemble-size", "50", "--format", "json", "--out", "validate.json"],
        ["run", "-m", "2", "--layer", "pulse", "--format", "json", "--out", "run.json"],
        ["run", "-m", "3", "--layer", "pulse", "--noise", "--seed", "7", "--out", "run.txt"],
        ["tomo", "-m", "4", "--format", "csv", "--out", "tomo.csv"],
        ["tomo", "-m", "1", "--layer", "pulse", "--noise", "small.json", "--format", "json",
         "--out", "tomo.json"],
    ]
    unwritable = "{dir}/missing/out"
    cases += [
        ["table", "--out", unwritable],
        ["table", "--check", "--out", unwritable],
        ["run", "-m", "1", "--out", unwritable],
        ["tomo", "-m", "1", "--format", "csv", "--out", unwritable],
        ["fig4", "--config", "small.json", "--out", unwritable],
        ["validate", "--ensemble-size", "50", "--out", unwritable],
    ]
    for command in (["run", "-m", "1"], ["tomo", "-m", "1"], ["fig4"], ["validate"]):
        cases.append([*command, "--config", "unknown.json"])
    cases += [
        ["run", "-m", "1", "--seed", "3"],
        ["tomo", "-m", "1", "--noise"],
        ["run", "-m", "1", "--config", "{dir}/absent.json"],
    ]
    return cases


def _digest(data: bytes, directory: str) -> str:
    return hashlib.sha256(data.replace(directory.encode(), b"{dir}")).hexdigest()


def run_case(argv: list[str]) -> dict:
    """The manifest entry of ``argv``, run in a new temporary directory."""
    from densecode import cli  # here, so that ``main`` can put this checkout's src first

    with tempfile.TemporaryDirectory(prefix="outputs-") as directory:
        for name, text in INPUTS.items():
            Path(directory, name).write_text(text, encoding="utf-8")
        stdout, stderr = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(directory)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = cli.main([arg.replace("{dir}", directory) for arg in argv])
                except SystemExit as exc:  # argparse's usage errors
                    code = exc.code
        finally:
            os.chdir(cwd)
        files = {
            path.relative_to(directory).as_posix(): _digest(path.read_bytes(), directory)
            for path in sorted(Path(directory).rglob("*"))
            if path.is_file() and path.name not in INPUTS
        }
    return {
        "argv": argv,
        "exit": code,
        "stdout": _digest(stdout.getvalue().encode(), directory),
        "stderr": _digest(stderr.getvalue().encode(), directory),
        "files": files,
    }


def manifest() -> dict:
    return {"numpy": np.__version__, "cases": [run_case(argv) for argv in corpus()]}


def differences(expected: dict, actual: dict) -> list[str]:
    """One line per case whose entry differs, or that only one side has."""
    lines = []
    if expected["numpy"] != actual["numpy"]:
        lines.append(f"numpy {actual['numpy']}, manifest made under {expected['numpy']}")
    old = {" ".join(c["argv"]): c for c in expected["cases"]}
    new = {" ".join(c["argv"]): c for c in actual["cases"]}
    for key in dict.fromkeys([*old, *new]):
        if old.get(key) != new.get(key):
            fields = [f for f in ("exit", "stdout", "stderr", "files")
                      if key in old and key in new and old[key][f] != new[key][f]]
            lines.append(f"{key}: " + (", ".join(fields) if fields else "only on one side"))
    return lines


def _text(doc: dict) -> str:
    """``doc`` as JSON, one case a line."""
    cases = ",\n".join(json.dumps(case, sort_keys=True) for case in doc["cases"])
    return f'{{"numpy": {json.dumps(doc["numpy"])}, "cases": [\n{cases}\n]}}\n'


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--write", action="store_true", help=f"write {MANIFEST.name}")
    group.add_argument("--check", action="store_true", help=f"compare with {MANIFEST.name}")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    actual = manifest()
    if args.write:
        MANIFEST.write_text(_text(actual), encoding="utf-8")
    elif args.check:
        diff = differences(json.loads(MANIFEST.read_text(encoding="utf-8")), actual)
        for line in diff:
            print(line)
        print(f"{len(actual['cases'])} cases, {len(diff)} differing")
        return 1 if diff else 0
    else:
        sys.stdout.write(_text(actual))
    return 0


if __name__ == "__main__":
    sys.exit(main())

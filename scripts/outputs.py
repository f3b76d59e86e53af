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

A change that moves outputs can show how far: dump the raw outputs of the
parent and of the change, then compare the two dumps.  Every case that
differs is reported either as differing in text or, where only numbers
moved, with the largest |difference| between corresponding numbers.

Run from anywhere, against this checkout's ``src``:

    python scripts/outputs.py           # print the manifest
    python scripts/outputs.py --write   # regenerate scripts/outputs_manifest.json
    python scripts/outputs.py --check   # compare with it; exit 1 on a difference
    python scripts/outputs.py --dump DIR       # write every case's raw outputs under DIR
    python scripts/outputs.py --compare A B    # compare two dumps; exit 1 if text differs
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

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


def _relocated(data: bytes, directory: str) -> bytes:
    return data.replace(directory.encode(), b"{dir}")


def run_raw(argv: list[str]) -> dict:
    """What ``argv`` writes, run in a new temporary directory: its exit code,
    stdout, stderr and every file it wrote (path -> bytes), with the
    directory's path replaced by ``{dir}``."""
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
            path.relative_to(directory).as_posix(): _relocated(path.read_bytes(), directory)
            for path in sorted(Path(directory).rglob("*"))
            if path.is_file() and path.name not in INPUTS
        }
    return {
        "argv": argv,
        "exit": code,
        "stdout": _relocated(stdout.getvalue().encode(), directory),
        "stderr": _relocated(stderr.getvalue().encode(), directory),
        "files": files,
    }


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(argv: list[str]) -> dict:
    """The manifest entry of ``argv``, run in a new temporary directory."""
    raw = run_raw(argv)
    return {
        "argv": argv,
        "exit": raw["exit"],
        "stdout": _digest(raw["stdout"]),
        "stderr": _digest(raw["stderr"]),
        "files": {name: _digest(data) for name, data in raw["files"].items()},
    }


def manifest() -> dict:
    import numpy as np

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


def dump(target: Path) -> None:
    """Write every case's raw outputs under ``target``, one directory a case:
    ``case.json`` (argv and exit code), ``stdout``, ``stderr`` and ``files/``."""
    for k, argv in enumerate(corpus()):
        raw = run_raw(argv)
        case = target / f"{k:03d}"
        case.mkdir(parents=True)
        (case / "case.json").write_text(json.dumps({"argv": argv, "exit": raw["exit"]}) + "\n")
        outputs = {"stdout": raw["stdout"], "stderr": raw["stderr"]}
        outputs.update({f"files/{name}": data for name, data in raw["files"].items()})
        for name, data in outputs.items():
            (case / name).parent.mkdir(parents=True, exist_ok=True)
            (case / name).write_bytes(data)


def _load_dump(source: Path) -> dict[str, dict]:
    """The cases of a dump, keyed by argv: exit code and outputs by name."""
    cases = {}
    for case in sorted(path for path in source.iterdir() if path.is_dir()):
        meta = json.loads((case / "case.json").read_text(encoding="utf-8"))
        outputs = {
            path.relative_to(case).as_posix(): path.read_bytes()
            for path in sorted(case.rglob("*"))
            if path.is_file() and path.name != "case.json"
        }
        cases[" ".join(meta["argv"])] = {"exit": meta["exit"], "outputs": outputs}
    return cases


#: A decimal number as the command line writes it.
NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def numeric_difference(a: bytes, b: bytes) -> float | None:
    """The largest |difference| between corresponding numbers of ``a`` and
    ``b``, or None when they also differ outside their numbers."""
    if NUMBER.sub(b"#", a) != NUMBER.sub(b"#", b):
        return None
    pairs = zip(NUMBER.findall(a), NUMBER.findall(b))
    return max((abs(float(x) - float(y)) for x, y in pairs), default=0.0)


def compare(a: Path, b: Path) -> list[tuple[str, float | None]]:
    """Each case that differs between dumps ``a`` and ``b``, with its largest
    numeric difference, or None where the text differs (a case on one side
    only, another exit code, another set of outputs, or words that moved)."""
    old, new = _load_dump(a), _load_dump(b)
    moved = []
    for key in dict.fromkeys([*old, *new]):
        before, after = old.get(key), new.get(key)
        if before == after:
            continue
        if None in (before, after) or before["exit"] != after["exit"] \
                or before["outputs"].keys() != after["outputs"].keys():
            moved.append((key, None))
            continue
        deltas = [numeric_difference(before["outputs"][name], data)
                  for name, data in after["outputs"].items() if before["outputs"][name] != data]
        moved.append((key, None if None in deltas else max(deltas)))
    return moved


def _text(doc: dict) -> str:
    """``doc`` as JSON, one case a line."""
    cases = ",\n".join(json.dumps(case, sort_keys=True) for case in doc["cases"])
    return f'{{"numpy": {json.dumps(doc["numpy"])}, "cases": [\n{cases}\n]}}\n'


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--write", action="store_true", help=f"write {MANIFEST.name}")
    group.add_argument("--check", action="store_true", help=f"compare with {MANIFEST.name}")
    group.add_argument("--dump", type=Path, metavar="DIR", help="write every case's raw outputs under DIR")
    group.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"), help="compare two dumps")
    args = parser.parse_args()
    if args.compare:
        moved = compare(*args.compare)
        for key, delta in moved:
            print(f"{key}: " + ("text differs" if delta is None else f"largest |delta| {delta:.1e}"))
        in_text = sum(delta is None for _, delta in moved)
        print(f"{len(moved)} cases differing, {in_text} in text")
        return 1 if in_text else 0
    sys.path.insert(0, str(ROOT / "src"))
    if args.dump:
        dump(args.dump)
        return 0
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

"""Every output of the command line against the checked-in corpus manifest
(``scripts/outputs.py``): exit codes, stdout, stderr and written files."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "outputs.py"
_spec = importlib.util.spec_from_file_location("outputs", SCRIPT)
outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(outputs)


def test_outputs_match_manifest():
    expected = json.loads(outputs.MANIFEST.read_text(encoding="utf-8"))
    if expected["numpy"] != np.__version__:
        pytest.skip(
            f"manifest made under numpy {expected['numpy']}; this is numpy {np.__version__}, "
            "whose noisy outputs may differ in the last bits"
        )
    assert outputs.differences(expected, outputs.manifest()) == []


def test_manifest_byte_identical_across_hash_seeds():
    """Under a numpy other than the manifest's, the manifest made here
    equals the one the script prints in a new interpreter under another
    hash seed.  Under the manifest's numpy, the comparison with the
    manifest already makes this check: the session's hash seed is random."""
    if json.loads(outputs.MANIFEST.read_text(encoding="utf-8"))["numpy"] == np.__version__:
        pytest.skip("test_outputs_match_manifest compares across hash seeds under this numpy")
    hashseed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    proc = subprocess.run(
        [sys.executable, str(SCRIPT)],
        capture_output=True, env=dict(os.environ, PYTHONHASHSEED=hashseed), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode() == outputs._text(outputs.manifest()), f"differs under PYTHONHASHSEED={hashseed}"


def test_numeric_difference_separates_numbers_from_text():
    assert outputs.numeric_difference(b"x=1.25e-3, |10>\n", b"x=1.5e-3, |10>\n") == pytest.approx(2.5e-4)
    assert outputs.numeric_difference(b"-0.5 0.25", b"-0.5 0.25") == 0.0
    assert outputs.numeric_difference(b"PASS 0.1", b"FAIL 0.1") is None
    assert outputs.numeric_difference(b"0.1 0.2", b"0.1") is None


def write_dump(directory, cases):
    for k, (argv, code, stdout) in enumerate(cases):
        case = directory / f"{k:03d}"
        case.mkdir(parents=True)
        (case / "case.json").write_text(json.dumps({"argv": argv, "exit": code}))
        (case / "stdout").write_bytes(stdout)


def test_compare_reports_each_moved_case(tmp_path):
    write_dump(tmp_path / "a", [(["run"], 0, b"1.0\n"), (["tomo"], 0, b"ok 2\n"),
                                (["fig4"], 0, b"3\n"), (["table"], 0, b"x\n")])
    write_dump(tmp_path / "b", [(["run"], 0, b"1.5\n"), (["tomo"], 0, b"no 2\n"),
                                (["fig4"], 1, b"3\n"), (["table"], 0, b"x\n"), (["validate"], 0, b"")])
    assert outputs.compare(tmp_path / "a", tmp_path / "b") == [
        ("run", 0.5), ("tomo", None), ("fig4", None), ("validate", None)]

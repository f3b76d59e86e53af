"""Every output of the command line against the checked-in corpus manifest
(``scripts/outputs.py``): exit codes, stdout, stderr and written files."""

import importlib.util
import json
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

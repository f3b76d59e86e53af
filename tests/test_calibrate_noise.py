"""Smoke test of ``scripts/calibrate_noise.py``, the grid search behind
``noise.DEMO_PARAMS``: one grid point at a small ensemble, then the shipped
parameters re-scored at full size over the script's five seeds."""

import importlib.util
import math
import re
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "calibrate_noise.py"
_spec = importlib.util.spec_from_file_location("calibrate_noise", SCRIPT)
calibrate_noise = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(calibrate_noise)

MAX_REL = re.compile(r"max_rel=(\S+)$")


def test_one_point_grid_and_rescore(monkeypatch, capsys):
    monkeypatch.setattr(calibrate_noise, "GRID_RF", (0.05,))
    monkeypatch.setattr(calibrate_noise, "GRID_CALIB", (0.01,))
    monkeypatch.setattr(calibrate_noise, "GRID_OFFSET", (30.0,))
    monkeypatch.setattr(calibrate_noise, "SEARCH_ENSEMBLE", 20)
    calibrate_noise.main()
    lines = capsys.readouterr().out.splitlines()
    grid = [line for line in lines if line.startswith("  rf=")]
    rescored = [line for line in lines if line.startswith("  seed=")]
    assert len(grid) == 1 and len(rescored) == 5
    for line in grid + rescored:
        value = float(MAX_REL.search(line).group(1))
        assert math.isfinite(value) and 0.0 < value < 1.0
    demo_seed = calibrate_noise.noise.DEMO_PARAMS.seed
    assert re.fullmatch(rf"  seed=\s*{demo_seed}  max_rel=0\.0902", rescored[0])

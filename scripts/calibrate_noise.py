"""Grid search behind the shipped demonstration noise parameters.

Sweeps (rf_spread, calib_offset, offset_spread_hz) at a reduced ensemble
size, reports the largest relative element error of the four simulated
experiments for each point, then re-scores the chosen point at full
ensemble size over several seeds.  The point shipped as
``noise.DEMO_PARAMS`` was selected to sit near 0.10.

Run from the repository root:  python scripts/calibrate_noise.py
"""

import itertools
from dataclasses import replace

from densecode import experiment, nmrsim, noise

GRID_RF = (0.02, 0.03, 0.04, 0.05, 0.06, 0.08)
GRID_CALIB = (0.0, 0.01, 0.02)
GRID_OFFSET = (0.0, 30.0)
SEARCH_ENSEMBLE = 300
SYSTEM = nmrsim.SpinSystem(epsilon=1e-5)


def score(params: noise.ErrorParams) -> float:
    panels = experiment.fig4_panels(SYSTEM, params)
    return max(p.error.relative for p in panels)


def main() -> None:
    demo_seed = noise.DEMO_PARAMS.seed
    print("grid search (ensemble %d, seed %d)" % (SEARCH_ENSEMBLE, demo_seed))
    for rf, cal, off in itertools.product(GRID_RF, GRID_CALIB, GRID_OFFSET):
        params = noise.ErrorParams(
            rf_spread=rf, calib_offset=cal, offset_spread_hz=off,
            t2_a=0.3, t2_b=0.3, ensemble_size=SEARCH_ENSEMBLE, seed=demo_seed,
        )
        print(f"  rf={rf:.2f} calib={cal:.2f} offset={off:4.0f}Hz  max_rel={score(params):.4f}")

    print("shipped parameters at full ensemble size:")
    for seed in (demo_seed, 0, 1, 2, 42):
        print(f"  seed={seed:>9d}  max_rel={score(replace(noise.DEMO_PARAMS, seed=seed)):.4f}")


if __name__ == "__main__":
    main()

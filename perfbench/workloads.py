"""Workloads of the densecode benchmark: request streams and output checks.

A request is one ``densecode`` command line, issued in-process through
``densecode.cli.main``.  A workload turns the workload seed into a
deterministic, unbounded stream of requests, plus one fixed probe request
that the runner executes twice to catch state leaking between calls.

Every request carries its own output check.  The checks use the tolerances
the package's own validation suite enforces, not golden digests: a change
that legitimately moves low-order digits (an exact density-matrix
projection, say) must still pass.

This module imports neither numpy nor densecode, so importing it does not
shift work out of the measured set-up time.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Iterator

MESSAGES = (1, 2, 3, 4)
VARIANTS = ("minus-phi", "plus-phi", "minus-psi", "plus-psi")
PAIRS = tuple((m, v) for m in MESSAGES for v in VARIANTS)

#: Seed of the fixed probe request of every workload (the shipped demo seed).
PROBE_SEED = 20260808
#: Calibrated band of fig4's largest relative element error.
ERROR_BAND = (0.05, 0.15)
#: Tomography round trip for noise-free states.
ROUNDTRIP_TOL = 1e-8
FIG4_CSV_HEADER = ["panel", "row", "col", "modulus"]
FIG4_CSV_ROWS = 128  # 8 panels x 16 elements
VALIDATE_CHECKS = 10
#: Ensemble size of ``ensemble-large``: tens of thousands of members, enough
#: for per-member overhead and the memory of the ensemble average to show.
LARGE_ENSEMBLE = 20_000

#: cli-mix request classes and their counts in every block of 20 requests,
#: in order of latency at the commit that introduced the benchmark
#: (run-ideal ~4.5 ms ... run-noisy ~53 ms).  The median falls in the middle
#: of tomo-ideal (cumulative share 0.35..0.65) and the tail percentile inside
#: run-noisy, so neither sits on a boundary between classes.  Exact counts
#: per block, shuffled within it, keep the mix, and so the throughput, the
#: same from seed to seed.
CLI_MIX = (
    ("run-ideal", 4),
    ("run-pulse", 3),
    ("tomo-ideal", 6),
    ("table-check", 2),
    ("tomo-noisy", 2),
    ("run-noisy", 3),
)


@dataclass(frozen=True)
class Outcome:
    """What one request produced: exit code, standard output, written files."""

    code: int | None
    stdout: str
    files: dict[str, bytes]

    def output_bytes(self) -> bytes:
        """Everything the request emitted, for byte-for-byte comparison."""
        parts = [self.stdout.encode()]
        for name in sorted(self.files):
            parts += [name.encode(), self.files[name]]
        return b"\0".join(parts)

    def bytes_out(self) -> int:
        """Bytes written to standard output and to files."""
        return len(self.stdout.encode()) + sum(len(b) for b in self.files.values())


#: A check returns None when the output is right, else the reason it is not.
Check = Callable[[Outcome], "str | None"]


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    check: Check
    out_dir: str | None = None


def check_fig4(out: Outcome) -> str | None:
    errors = json.loads(out.files["fig4_errors.json"])
    rel = errors["max_relative_error"]
    lo, hi = ERROR_BAND
    if not lo <= rel <= hi:
        return f"fig4 max relative error {rel} outside [{lo}, {hi}]"
    rows = list(csv.reader(out.files["fig4.csv"].decode().splitlines()))
    if rows[0] != FIG4_CSV_HEADER or len(rows) - 1 != FIG4_CSV_ROWS:
        return f"fig4.csv has header {rows[0]} and {len(rows) - 1} rows"
    return None


def check_validate(out: Outcome) -> str | None:
    checks = json.loads(out.stdout)["checks"]
    failed = [c["name"] for c in checks if c["passed"] is not True]
    if len(checks) != VALIDATE_CHECKS or failed:
        return f"validate ran {len(checks)} checks, failed {failed}"
    return None


def check_run(message: int) -> Check:
    def check(out: Outcome) -> str | None:
        got = json.loads(out.stdout)["recovered_message"]
        return None if got == message else f"recovered message {got}, sent {message}"

    return check


def check_tomo(noisy: bool) -> Check:
    def check(out: Outcome) -> str | None:
        payload = json.loads(out.stdout)
        if noisy:
            rel = payload["max_element_error_relative"]
            ok = rel <= ERROR_BAND[1]
            return None if ok else f"noisy tomography error {rel} above {ERROR_BAND[1]}"
        err = payload["reconstruction_roundtrip_error"]
        return None if err <= ROUNDTRIP_TOL else f"tomography round trip {err} > {ROUNDTRIP_TOL}"

    return check


def check_table(out: Outcome) -> str | None:
    verdict, _, body = out.stdout.partition("\n")
    cells = sum(len(row["cells"]) for row in json.loads(body)["rows"])
    if not verdict.startswith("PASS") or cells != len(PAIRS):
        return f"table --check said {verdict!r} over {cells} cells"
    return None


def _seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def fig4_request(work: str, seed: int) -> Request:
    out = os.path.join(work, "fig4")
    return Request(("fig4", "--out", out, "--seed", str(seed)), check_fig4, out)


def validate_request(seed: int) -> Request:
    return Request(("validate", "--format", "json", "--seed", str(seed)), check_validate)


def cli_request(kind: str, m: int, v: str, seed: int, noise_path: str = "") -> Request:
    """One short request of class ``kind`` for message ``m``, variant ``v``."""
    if kind == "table-check":
        return Request(("table", "--check", "--format", "json"), check_table)
    command, layer = kind.split("-")
    argv = [command, "-m", str(m), "-v", v]
    if layer != "ideal":
        argv += ["--layer", "pulse"]
    if layer == "noisy":
        argv += ["--noise", noise_path] if noise_path else ["--noise"]
        argv += ["--seed", str(seed)]
    argv += ["--format", "json"]
    check = check_run(m) if command == "run" else check_tomo(layer == "noisy")
    return Request(tuple(argv), check)


def fig4_demo(rng: random.Random, work: str) -> tuple[Request, Iterator[Request]]:
    return fig4_request(work, PROBE_SEED), (
        fig4_request(work, _seed(rng)) for _ in itertools.count())


def validate_demo(rng: random.Random, work: str) -> tuple[Request, Iterator[Request]]:
    return validate_request(PROBE_SEED), (
        validate_request(_seed(rng)) for _ in itertools.count())


def cli_mix(rng: random.Random, work: str) -> tuple[Request, Iterator[Request]]:
    block = [kind for kind, count in CLI_MIX for _ in range(count)]
    pairs = list(PAIRS)
    rng.shuffle(pairs)

    def stream() -> Iterator[Request]:
        i = 0
        while True:
            rng.shuffle(block)
            for kind in block:
                m, v = pairs[i % len(pairs)]
                i += 1
                yield cli_request(kind, m, v, _seed(rng))

    return cli_request("run-noisy", 3, "plus-psi", PROBE_SEED), stream()


def ensemble_large(rng: random.Random, work: str) -> tuple[Request, Iterator[Request]]:
    path = os.path.join(work, "ensemble-large.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"noise": {"ensemble_size": LARGE_ENSEMBLE}}, fh)
    pairs = list(PAIRS)
    rng.shuffle(pairs)

    def stream() -> Iterator[Request]:
        for i in itertools.count():
            m, v = pairs[i % len(pairs)]
            yield cli_request("run-noisy", m, v, _seed(rng), path)

    return cli_request("run-noisy", 4, "minus-psi", PROBE_SEED, path), stream()


#: Workload name -> function(rng, work dir) -> (probe request, request stream).
WORKLOADS: dict[str, Callable[[random.Random, str], tuple[Request, Iterator[Request]]]] = {
    "fig4-demo": fig4_demo,
    "validate-demo": validate_demo,
    "cli-mix": cli_mix,
    "ensemble-large": ensemble_large,
}


def make(name: str, seed: int, work: str) -> tuple[Request, Iterator[Request]]:
    """Probe and request stream of workload ``name``; equal seeds, equal streams."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), work)

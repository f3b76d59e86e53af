"""Benchmark of the densecode simulator, end to end and per layer.

    python3 perfbench/run.py --workload fig4-demo --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` and nothing needs installing.  One process runs one workload as a
closed loop with one client: each operation is one in-process
``densecode.cli.main(argv)`` call, issued when the previous one has
returned and had its output checked.  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it alternates traced and untraced
operations and reports the per-layer metrics of the traced ones (see
tracing.py).  Times are corrected for the host's current speed (see
hostspeed.py).  The last line of standard output is one JSON object; a
self-describing record of the run goes to ``perfbench/results/``.
See README.md in this directory for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import hostspeed
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
#: Set-up is measured this many times per run (this process plus fresh
#: child processes, as an import can be timed once per process) and reported
#: as the median: over 10 seeds on a shared VM one sample alone spread by up
#: to 0.44 of its median, more than setup_s's bound.
SETUP_SAMPLES = 3
#: The tail percentile is the highest one with at least this many samples above it.
TAIL_BEYOND = 10
#: Seconds of operations between two host-speed samples.
CALIBRATE_EVERY_S = 0.25
#: Failure reasons kept in the results record.
MAX_FAILURES_KEPT = 20


def pin_threads() -> None:
    """Pin BLAS/OpenMP pools at or below the usable cores (1 when unset).

    Must run before numpy is imported; child processes inherit it.
    """
    cores = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        n = int(value) if value.isdigit() else 0
        os.environ[var] = str(min(n, cores) if n >= 1 else 1)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples above it) of the highest percentile that
    has at least TAIL_BEYOND samples above it and lies above the median.

    With 2 * TAIL_BEYOND samples or fewer no percentile qualifies and the
    maximum is used, so a slow workload's tail does not jump from its
    maximum to its minimum as the run grows from 10 samples to 11.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def execute(main, request: workloads.Request) -> tuple[float, workloads.Outcome, str | None]:
    """Run one request; return its latency, outcome and failure reason (None if correct)."""
    if request.out_dir:
        shutil.rmtree(request.out_dir, ignore_errors=True)
        os.makedirs(request.out_dir)
    stdout, stderr = io.StringIO(), io.StringIO()
    code, reason = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(list(request.argv))
    except SystemExit as exc:  # argparse rejects bad usage this way
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except Exception as exc:  # a raising operation is counted, not fatal
        reason = f"raised {exc!r}"
    latency = time.perf_counter() - start
    files = {}
    if request.out_dir:
        for name in os.listdir(request.out_dir):
            with open(os.path.join(request.out_dir, name), "rb") as fh:
                files[name] = fh.read()
    outcome = workloads.Outcome(code, stdout.getvalue(), files)
    if reason is None and code != 0:
        reason = f"exit code {code}: {stderr.getvalue().strip()[:200]}"
    if reason is None:
        try:
            reason = request.check(outcome)
        except Exception as exc:  # malformed output fails its check
            reason = f"output check raised {exc!r}"
    return latency, outcome, reason


def set_up(workload: str, seed: int, work: str):
    """Import the CLI and run the probe request once, untimed by the loop.

    Returns (cli module, probe, request stream, set-up seconds, probe
    outcome, probe failure reason).  Set-up time covers the import and this
    first operation only; building the request stream is benchmark work.
    """
    probe, stream = workloads.make(workload, seed, work)
    start = time.perf_counter()
    from densecode import cli

    _, outcome, reason = execute(cli.main, probe)
    return cli, probe, stream, time.perf_counter() - start, outcome, reason


def child_setup_seconds(workload: str, seed: int) -> tuple[float | None, str | None]:
    """Set-up time measured in a fresh interpreter running this script,
    and the probe's failure reason; no time if the child failed."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        return None, f"set-up child exited {proc.returncode}: {proc.stderr[-300:]}"
    result = json.loads(proc.stdout.splitlines()[-1])
    return result["setup_s"], result["failure"]


def request_key(request: workloads.Request, work: str) -> bytes:
    """The request as issued, independent of where the checkout lives."""
    return json.dumps(request.argv).replace(work, "<work>").encode()


def environment() -> dict:
    import numpy

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    source = hashlib.sha256()
    package = os.path.join(SRC, "densecode")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                source.update(name.encode() + b"\0" + fh.read())
    return {
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; return the self-describing results record."""
    work = os.path.join(HERE, "work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        return _run(workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


@dataclass
class Op:
    """One timed operation, its times in measured seconds."""

    latency: float  # the cli.main call
    start: float  # perf_counter at the start of the call
    end: float  # ... after its output check: the closed loop's cycle ends
    traced: bool
    ok: bool
    scale: float = 0.0  # measured -> reference seconds, set after the loop


def _run(workload, seed, seconds, trace, work) -> dict:
    failures: list[str] = []
    attempted = 0

    def record(reason: str | None) -> None:
        nonlocal attempted
        attempted += 1
        if reason is not None:
            failures.append(reason)

    # The child set-ups run first, so that the timed loop follows this
    # process's own warm-up directly.
    setup = []
    for _ in range(0 if trace else SETUP_SAMPLES - 1):
        child_s, reason = child_setup_seconds(workload, seed)
        record(reason)
        if child_s is not None:
            setup.append(child_s)
    cli, probe, stream, setup_raw, probe_first, reason = set_up(workload, seed, work)
    record(reason)
    speed = hostspeed.HostSpeed()
    setup.append(setup_raw * hostspeed.REFERENCE_S / speed.sample())

    tracer = tracing.Tracer(tracing.layer_modules()) if trace else None
    ops: list[Op] = []
    speed.sample()
    traced_bytes = 0
    issued = hashlib.sha256()
    min_ops = 2 if trace else 1  # a traced run needs one op of each kind
    deadline = time.perf_counter() + seconds
    for i, request in enumerate(stream):
        if i >= min_ops and time.perf_counter() >= deadline:
            break
        issued.update(request_key(request, work) + b"\n")
        traced = trace and i % 2 == 1
        start = time.perf_counter()
        with tracer if traced else contextlib.nullcontext():
            latency, outcome, reason = execute(cli.main, request)
        ops.append(Op(latency, start, time.perf_counter(), traced, reason is None))
        record(reason)
        if traced:
            traced_bytes += outcome.bytes_out()
        if time.perf_counter() - speed.times[-1] >= CALIBRATE_EVERY_S:
            speed.sample()
    speed.sample()
    for op in ops:
        op.scale = speed.scale(op.start, op.end)

    # The probe again, after the whole run: any state leaking between calls
    # (a cache, say) shows as a byte difference.
    _, probe_second, reason = execute(cli.main, probe)
    identical = probe_second.output_bytes() == probe_first.output_bytes()
    record(reason or (None if identical else "probe output differs between two executions"))

    plain = [op.latency * op.scale for op in ops if not op.traced]
    p50 = statistics.median(plain)
    tail_s, tail_pct, tail_beyond = tail(plain)
    result = {
        "schema": 1,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "requests": {"issued": len(ops), "sha256": issued.hexdigest()},
        "host_speed": {
            "reference_kernel_ms": hostspeed.REFERENCE_S * 1e3,
            "kernel_ms_median": statistics.median(speed.samples) * 1e3,
            "samples": len(speed.samples),
        },
        "setup_s_samples": setup,
        "latency": {
            "samples": len(plain),
            "p50_ms": p50 * 1e3,
            "tail_ms": tail_s * 1e3,
            "tail_percentile": tail_pct,
            "tail_samples_beyond": tail_beyond,
            "samples_ms": [x * 1e3 for x in plain],
            "measured_p50_ms": statistics.median(
                op.latency for op in ops if not op.traced) * 1e3,
        },
        "attempted": attempted,
        "failed": len(failures),
        "error_rate": len(failures) / attempted,
        "failures": failures[:MAX_FAILURES_KEPT],
        "probe": {"argv": list(probe.argv), "identical": identical},
    }
    if trace:
        traced_ops = [op for op in ops if op.traced]
        traced_p50 = statistics.median(op.latency * op.scale for op in traced_ops)
        result["tracing"] = {
            "traced_ops": len(traced_ops),
            "untraced_op_p50_ms": p50 * 1e3,
            "traced_op_p50_ms": traced_p50 * 1e3,
            "overhead_ms": (traced_p50 - p50) * 1e3,
        }
        metrics = tracing.layer_metrics(tracer, traced_bytes, [op.scale for op in traced_ops])
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        loop_s = sum((op.end - op.start) * op.scale for op in ops)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "op_p50_ms": (p50 * 1e3, "ms"),
            "op_tail_ms": (tail_s * 1e3, "ms"),
            "ops_per_s": (sum(op.ok for op in ops) / loop_s, "1/s"),
            "peak_rss_mb": (rss_mb, "MB"),
            "success_rate": (1.0 - len(failures) / attempted, "ratio"),
        }
    result["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    pin_threads()
    if not os.path.isfile(os.path.join(SRC, "densecode", "cli.py")):
        print(f"error: no densecode sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if args.setup_only:
        work = os.path.join(HERE, "work", str(os.getpid()))
        os.makedirs(work, exist_ok=True)
        try:
            *_, setup_s, _, reason = set_up(args.workload, args.seed, work)
            setup_s *= hostspeed.REFERENCE_S / hostspeed.HostSpeed().sample()
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(json.dumps({"setup_s": setup_s, "failure": reason}))
        return 0

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")

    latency = result["latency"]
    print(f"workload {args.workload} seed {args.seed}: {result['attempted']} attempted, "
          f"{result['failed']} failed, tail = p{latency['tail_percentile']:.1f} "
          f"with {latency['tail_samples_beyond']} of {latency['samples']} samples above")
    for reason in result["failures"]:
        print(f"  failure: {reason}")
    if args.trace:
        print(f"tracing overhead on op_p50_ms: {result['tracing']['overhead_ms']:.3f} ms")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"results record: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself (not of the densecode package).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def test_spec_names_the_workloads_the_code_runs():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace, monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    result = run.run(workload, seed=3, seconds=0, trace=bool(trace))
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert result["failed"] == 0, result["failures"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert result["probe"]["identical"]


def test_setup_child_reports_time():
    setup_s, reason = run.child_setup_seconds("cli-mix", 3)
    assert reason is None and setup_s > 0


def test_same_seed_same_requests():
    def first(seed, n=40):
        _, stream = workloads.make("cli-mix", seed, "w")
        return [next(stream).argv for _ in range(n)]

    assert first(5) == first(5)
    assert first(5) != first(6)
    assert {(argv[2], argv[4]) for argv in first(5) if argv[0] != "table"} == {
        (str(m), v) for m, v in workloads.PAIRS}


def test_wrong_outputs_are_counted_not_fatal(monkeypatch):
    from densecode import cli

    real_main = cli.main
    probe, _ = workloads.make("cli-mix", 3, "w")
    calls = []

    def faulty_main(argv):
        calls.append(argv)
        n = len(calls)
        if n == 2:  # first timed request: output that fails its check
            print("{}")
            return 0
        if n == 3:
            raise RuntimeError("injected")
        if n == 4:
            return 3
        code = real_main(argv)
        if tuple(argv) == probe.argv and calls.count(argv) == 2:
            print("state leaked into the second probe")  # probe mismatch
        return code

    monkeypatch.setattr(cli, "main", faulty_main)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    result = run.run("cli-mix", seed=3, seconds=0.3, trace=False)
    assert result["failed"] == 4, result["failures"]
    assert result["attempted"] > 5
    assert not result["probe"]["identical"]
    assert result["metrics"]["success_rate"]["value"] == 1 - 4 / result["attempted"]


def test_spans_nest_and_self_times_are_not_negative(tmp_path):
    from densecode import cli

    tracer = tracing.Tracer(tracing.layer_modules())
    for argv in (["fig4", "--out", str(tmp_path), "--seed", "4"],
                 ["table", "--check"],
                 ["tomo", "-m", "2", "--layer", "pulse", "--noise", "--seed", "4"]):
        with tracer, contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
    spans = tracer.spans
    assert {s.op for s in spans} == {0, 1, 2}
    for span, self_s in zip(spans, tracing.self_times(spans)):
        assert span.start <= span.end
        assert self_s >= 0
        if span.parent >= 0:
            parent = spans[span.parent]
            assert parent.start <= span.start and span.end <= parent.end
            assert parent.op == span.op
        else:
            assert span.name == "cli.main"
    metrics = tracing.layer_metrics(tracer, bytes_out=0)
    assert all(value >= 0 for value, _ in metrics.values())
    # fig4 runs 12 ensemble averages that all share one draw set.
    fig4_draws = [key for op, key, _ in tracer.draws if op == 0]
    assert len(fig4_draws) == 12 and len(set(fig4_draws)) == 1
    # Outside a traced operation the package runs unwrapped.
    assert cli.main is not None and not hasattr(cli.main, "__wrapped__")


def test_cli_self_time_counts_serialisation_and_writes(monkeypatch):
    from densecode import cli

    delay_s = 0.05
    real_write = cli._write_output

    class SlowJson:
        def __getattr__(self, name):
            return getattr(json, name)

        @staticmethod
        def dumps(*args, **kwargs):
            time.sleep(delay_s)
            return json.dumps(*args, **kwargs)

    def slow_write(text, out_path):
        time.sleep(delay_s)
        return real_write(text, out_path)

    monkeypatch.setattr(cli, "json", SlowJson())
    monkeypatch.setattr(cli, "_write_output", slow_write)
    tracer = tracing.Tracer(tracing.layer_modules())
    argv = ["run", "-m", "3", "--layer", "pulse", "--noise", "--seed", "2", "--format", "json"]
    with tracer, contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    main_span = tracer.spans[0]
    assert main_span.name == "cli.main"
    self_ms = tracing.layer_metrics(tracer, bytes_out=0)["cli.main.self_ms"][0]
    # Both injected delays sit inside cmd_run, a child span of cli.main.
    assert 2 * delay_s * 1e3 <= self_ms <= (main_span.end - main_span.start) * 1e3


def test_tail_is_highest_percentile_with_ten_samples_above():
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0, 10)
    assert run.tail([float(i) for i in range(1, 22)]) == (11.0, 100 * 11 / 21, 10)
    # 20 samples or fewer: no percentile above the median qualifies.
    assert run.tail([float(i) for i in range(20, 0, -1)]) == (20.0, 100.0, 0)


def test_host_speed_scale_uses_bracketing_and_window_samples():
    import hostspeed

    speed = hostspeed.HostSpeed()
    speed.times = [0.0, 1.0, 2.0, 3.0, 4.0, 10.0]
    speed.samples = [1e-3, 2e-3, 4e-3, 2e-3, 1e-3, 8e-3]
    # A short interval between two samples: just those two.
    assert speed.scale(2.1, 2.2) == pytest.approx(1e-3 / 3e-3)
    # A 1-second interval: samples within 2 s of either end count too.
    assert speed.scale(1.5, 2.5) == pytest.approx(1e-3 / 2e-3)
    assert speed.sample() > 0 and len(speed.samples) == 7

"""Per-layer tracing for the densecode benchmark.

The layers are the package modules.  While a traced operation runs, every
public function of each layer module is replaced, in its module, by a
wrapper that records a span: name, parent span, operation, start and end.
The package calls across modules through module attributes and within a
module through its globals, so both kinds of call pass through the wrappers.
The program itself carries no timers; spans are kept in memory and reduced
to per-operation metrics when the run ends.

``gates`` holds constant 4x4 tables and is not traced.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

LAYERS = ("cli", "experiment", "noise", "nmrsim", "tomo", "protocol", "qcore", "validation")

#: The span whose call arguments carry the noise-layer counts.
ENSEMBLE_AVERAGE = "noise.ensemble_average"


@dataclass(slots=True)
class Span:
    name: str
    parent: int  # index of the enclosing span, -1 at the top
    op: int  # index of the traced operation
    start: float
    end: float = 0.0


def layer_modules() -> dict[str, object]:
    return {layer: importlib.import_module(f"densecode.{layer}") for layer in LAYERS}


class Tracer:
    """Installs span-recording wrappers for the duration of a ``with`` block.

    Each ``with`` block is one traced operation.  Outside a block the
    package runs unwrapped.
    """

    def __init__(self, modules: dict[str, object]) -> None:
        self.spans: list[Span] = []
        #: One (operation, draw-set key, members x events) per ensemble average.
        self.draws: list[tuple[int, tuple, int]] = []
        self.ops = 0
        self._stack: list[int] = []
        self._patches = []
        for layer, module in modules.items():
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue  # imported from another layer; traced there
                self._patches.append((module, attr, fn, self._wrap(f"{layer}.{attr}", fn)))

    def __enter__(self) -> "Tracer":
        self.ops += 1
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, fn, _ in self._patches:
            setattr(module, attr, fn)
        self._stack.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if name == ENSEMBLE_AVERAGE else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if signature is not None:
                self._count_draws(signature.bind(*args, **kwargs))
            index = len(spans)
            span = Span(name, stack[-1] if stack else -1, self.ops - 1, perf_counter())
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = perf_counter()

        return traced

    def _count_draws(self, bound: inspect.BoundArguments) -> None:
        bound.apply_defaults()
        params, seed, seq = bound.arguments["p"], bound.arguments["seed"], bound.arguments["seq"]
        # The per-member errors are a function of the error parameters
        # (ensemble size included) and the seed only, not of the sequence.
        self.draws.append((self.ops - 1, (params, repr(seed)), params.ensemble_size * len(seq)))


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def _outermost(spans: list[Span], span: Span) -> bool:
    """True when no enclosing span has the same name (so busy time is not
    counted twice for a function that reaches itself through another)."""
    p = span.parent
    while p >= 0:
        if spans[p].name == span.name:
            return False
        p = spans[p].parent
    return True


def layer_metrics(
    tracer: Tracer, bytes_out: int, scales: list[float] | None = None
) -> dict[str, tuple[float, str]]:
    """Per-operation layer metrics as name -> (value, unit).

    ``bytes_out`` is what the traced operations wrote, counted by the runner;
    ``scales[k]`` converts the times of traced operation k to reference
    seconds (see hostspeed.py), 1 when omitted.
    """
    spans = tracer.spans
    n = max(tracer.ops, 1)
    scales = scales or [1.0] * tracer.ops
    calls, busy, own = Counter(), Counter(), Counter()
    for span, self_s in zip(spans, self_times(spans)):
        scale = scales[span.op]
        calls[span.name] += 1
        own[span.name] += self_s * scale
        if _outermost(spans, span):
            busy[span.name] += (span.end - span.start) * scale

    events = sum(e for _, _, e in tracer.draws)
    distinct = len({(op, key) for op, key, _ in tracer.draws})

    def ms(total_s: float) -> tuple[float, str]:
        return total_s * 1e3 / n, "ms"

    def per_op(count: float, unit: str = "count") -> tuple[float, str]:
        return count / n, unit

    return {
        "noise.ensemble_average.busy_ms": ms(busy[ENSEMBLE_AVERAGE]),
        "noise.ensemble_average.calls": per_op(calls[ENSEMBLE_AVERAGE]),
        "noise.member_events": per_op(events),
        "noise.member_events_per_s": (
            events / busy[ENSEMBLE_AVERAGE] if busy[ENSEMBLE_AVERAGE] else 0.0, "1/s"),
        "noise.draw_sets_distinct_ratio": (
            distinct / len(tracer.draws) if tracer.draws else 0.0, "ratio"),
        "experiment.simulated_experiment.self_ms": ms(own["experiment.simulated_experiment"]),
        "experiment.fig4_panels.busy_ms": ms(busy["experiment.fig4_panels"]),
        "tomo.reconstruct.busy_ms": ms(busy["tomo.reconstruct"]),
        "tomo.reconstruct.calls": per_op(calls["tomo.reconstruct"]),
        "tomo.simulate_readouts.busy_ms": ms(busy["tomo.simulate_readouts"]),
        "tomo.clip_to_density.calls": per_op(calls["tomo.clip_to_density"]),
        "nmrsim.compile_sequence.calls": per_op(calls["nmrsim.compile_sequence"]),
        "nmrsim.compile_sequence.busy_ms": ms(busy["nmrsim.compile_sequence"]),
        "nmrsim.temporal_average.busy_ms": ms(busy["nmrsim.temporal_average"]),
        "protocol.run_network.calls": per_op(calls["protocol.run_network"]),
        "protocol.run_network.busy_ms": ms(busy["protocol.run_network"]),
        "qcore.check_density_matrix.calls": per_op(calls["qcore.check_density_matrix"]),
        "qcore.check_density_matrix.busy_ms": ms(busy["qcore.check_density_matrix"]),
        "validation.run_validation.busy_ms": ms(busy["validation.run_validation"]),
        # The CLI layer's own time: argument parsing, config loading,
        # serialisation and writes, whichever cli function does them.
        "cli.main.self_ms": ms(sum(t for name, t in own.items() if name.startswith("cli."))),
        "cli.bytes_out": per_op(bytes_out, "bytes"),
    }

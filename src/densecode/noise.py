"""Phenomenological pulse-error model: RF inhomogeneity, static-field
inhomogeneity, pulse miscalibration and T2 signal decay.

Each ensemble member draws one RF-amplitude deviation and one resonance
offset per spin (truncated Gaussians, +-3 sigma); the draws are static for
the member, so refocusing pairs cancel them exactly the way a spin echo
does.  T2 decay is applied after averaging as a coherence-order-dependent
damping of off-diagonal elements over the total free-evolution time.

The package's one ensemble average, ``mean_states``, runs circuits after
heads on one sample, from a factor V of the input (rho0 = V V^H).  A block
is a pulse program or a tuple of blocks (``nmrsim.events`` flattens one),
and ``nmrsim``'s builders make the J-coupled CNOT a program of its own in
every block that uses it.  Per chunk, each program is propagated once
through the pulse engine of ``nmrsim`` (``nmrsim._propagate``, the one
that also compiles noise-free programs), one row of draws per member,
into a stack of shape (4, k, n) with the member axis last; a program that
occurs only once, after the first part of its tuple, continues that
tuple's running product in place instead.  Each head is a block that
starts at V, a leaf whose stack is V itself.  Blocks compose by four
broadcast multiply-adds over contiguous member rows (``_compose``), a
stack composed onto the constant V is one matrix product, and so is the
sum of W W^H over a chunk.  Members are drawn, propagated and summed in
chunks of ``CHUNK_SIZE``, in a fixed order, so memory stays bounded
however large the ensemble is.  Every chunk-sized array lives in one
workspace per call, sized for ``min(CHUNK_SIZE, ensemble_size)`` members
and refilled in place by each chunk: arrays freed and allocated again for
every chunk are handed back to the OS by the heap and faulted in again,
page by page.  Block stacks share the workspace's buffers by live range
(``_share``), and a run's conjugate reuses the composition scratch:
fig4's 13 block stacks fit in 8 buffers, and a 1,000-member fig4 average
peaks at 4.2 MB traced, not 5.7 MB.

Results are bit-reproducible for a fixed config and seed: the draws
depend only on ``(params, seed)`` and ``CHUNK_SIZE``, one generator per
chunk (``_draw_chunks``), and the chunks are summed in member order.
``CHUNK_SIZE`` is part of that contract: another chunk size draws another
sample.  Member k's draws are not those of numpy's per-member child
stream ``default_rng(SeedSequence(seed).spawn(n)[k])``: the contract is
reproducibility, not bit identity to per-child streams.  The draws do not
depend on the pulse program, so programs run on one sample share them:
each chunk is drawn once, and every run is composed from per-member block
propagators compiled once each.  The plan of a call orders blocks by first
appearance and iterates no set, so results do not depend on the hash seed.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from . import qcore
from .nmrsim import (
    Rf,
    SpinSystem,
    _FactorTable,
    _ZA_DIAG,
    _ZB_DIAG,
    _event_factors,
    _is_program,
    _propagate,
    _view,
    events,
    total_delay,
)

#: Members drawn, propagated and summed together in the ensemble average;
#: part of the draw contract (``_draw_chunks``): one generator per chunk.
CHUNK_SIZE = 2048
#: Largest accepted ``ErrorParams.ensemble_size``.
MAX_ENSEMBLE_SIZE = 1_000_000


@dataclass(frozen=True)
class ErrorParams:
    """Error-source magnitudes for the ensemble simulation.

    rf_spread        fractional std-dev of RF pulse amplitude
    calib_offset     fractional systematic rotation-angle error
    offset_spread_hz std-dev of the per-member resonance offset (Hz)
    t2_a, t2_b       transverse relaxation times (s); inf disables decay
    ensemble_size    number of molecules averaged
    """

    rf_spread: float = 0.0
    calib_offset: float = 0.0
    offset_spread_hz: float = 0.0
    t2_a: float = math.inf
    t2_b: float = math.inf
    ensemble_size: int = 1

    def __post_init__(self) -> None:
        for name in ("rf_spread", "offset_spread_hz"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"ErrorParams.{name} must be finite and >= 0")
            if not math.isfinite(3.0 * value):
                raise ValueError(f"ErrorParams.{name} is too large: 3 sigma is not finite")
        if not math.isfinite(self.calib_offset):
            raise ValueError("ErrorParams.calib_offset must be finite")
        for name in ("t2_a", "t2_b"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"ErrorParams.{name} must be positive")
            if not math.isfinite(1.0 / value):
                raise ValueError(f"ErrorParams.{name} is too small: 1/T2 is not finite")
        size = self.ensemble_size
        valid = isinstance(size, int) and not isinstance(size, bool)
        if not (valid and 1 <= size <= MAX_ENSEMBLE_SIZE):
            raise ValueError(
                f"ErrorParams.ensemble_size must be an integer in [1, {MAX_ENSEMBLE_SIZE}], "
                f"got {size!r}"
            )


#: Calibrated demonstration parameters: a coarse grid search over
#: (rf_spread, calib_offset, offset_spread_hz) selected the point whose
#: simulated experiments land near a 10% largest element error
#: (see README and scripts/calibrate_noise.py).
DEMO_PARAMS = ErrorParams(
    rf_spread=0.05,
    calib_offset=0.01,
    offset_spread_hz=30.0,
    t2_a=0.3,
    t2_b=0.3,
    ensemble_size=1000,
)
DEMO_SEED = 20260808


def _draw_chunks(p: ErrorParams, seed: int) -> Iterator[np.ndarray]:
    """Per-member (RF deviation, offset a, offset b) in member order, in
    chunks of shape (<= CHUNK_SIZE, 3), for an integer ``seed`` >= 0.

    Chunk c, members ``c * CHUNK_SIZE`` on, has one generator,
    ``default_rng(SeedSequence(seed, spawn_key=(c,)))`` (the c-th child of
    ``SeedSequence(seed).spawn``).  It draws a full ``(CHUNK_SIZE, 3)``
    block of ``standard_normal`` and redraws every entry beyond 3 from the
    same generator until none is left; the block is then sliced to the
    chunk's members and scaled by the sigmas.  A full block for every chunk
    keeps the sample prefix-stable: the first n members of any ensemble are
    the n-member ensemble.  Rejecting the unit draw before scaling makes the
    draws scale exactly with sigma.  The scaled draws are written as one
    contiguous row per error source, and the chunk is the transpose of
    that (3, n) array, so that ``draws.T`` hands the factor table
    contiguous rows rather than stride-3 columns.
    """
    sigmas = np.array([p.rf_spread, p.offset_spread_hz, p.offset_spread_hz])
    for c, start in enumerate(range(0, p.ensemble_size, CHUNK_SIZE)):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(c,)))
        z = rng.standard_normal((CHUNK_SIZE, 3))
        while (beyond := np.abs(z) > 3.0).any():
            z[beyond] = rng.standard_normal(np.count_nonzero(beyond))
        n = min(CHUNK_SIZE, p.ensemble_size - start)
        rows = np.empty((3, n))  # one contiguous row per error source
        np.multiply(z[:n].T, sigmas[:, None], out=rows)
        yield rows.T


# Coherences damped by T2 of spin a / spin b: elements whose row and column
# differ in that spin's label.
_COHERENT_A = _ZA_DIAG[:, None] != _ZA_DIAG[None, :]
_COHERENT_B = _ZB_DIAG[:, None] != _ZB_DIAG[None, :]


def _compose(a: np.ndarray, b: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Per-member ``a[..., m] @ b[..., m]`` of a (4, 4, n) and a (4, k, n)
    stack, or ``a[..., m] @ b`` of a constant (4, k) ``b``, written into
    ``out`` of shape (4, k, n) and returned, ``tmp`` scratch of that shape.
    A stack ``b`` takes a sum of four broadcast products ``a[:, j] * b[j]``
    in order of j, each over contiguous rows of n members; a constant one
    matrix product of its transpose with each row of ``a``."""
    if b.ndim == 2:
        return np.matmul(b.T, a, out=out)
    np.multiply(a[:, 0, None], b[0, None], out=out)
    for j in range(1, 4):
        np.multiply(a[:, j, None], b[j, None], out=tmp)
        np.add(out, tmp, out=out)
    return out


def _check_ranges(sys: SpinSystem, p: ErrorParams, events: list, t_max: float) -> None:
    """Refuse, before any draw, parameters under which a member's pulse
    angle or delay phase over ``events``, or the T2 exponent of a run as
    long as ``t_max``, is not finite: a ``ValueError`` naming the fields.
    Every draw is taken at its 3 sigma bound, with a factor 2 of headroom
    for rounding."""
    angle = max((abs(float(ev.angle)) for ev in events if isinstance(ev, Rf)), default=0.0)
    delay = max((float(ev.duration) for ev in events if not isinstance(ev, Rf)), default=0.0)
    calib, rf, offset = float(p.calib_offset), float(p.rf_spread), float(p.offset_spread_hz)
    if not math.isfinite(2.0 * angle * (abs(1.0 + calib) + 3.0 * rf)):
        raise ValueError(
            "ErrorParams.calib_offset or ErrorParams.rf_spread is too large: "
            "a pulse angle is not finite"
        )
    if not math.isfinite(2.0 * math.pi * delay * (6.0 * offset + float(sys.j_coupling))):
        raise ValueError(
            "ErrorParams.offset_spread_hz is too large for the delays set by "
            "SpinSystem.j_coupling: a delay phase is not finite"
        )
    for name in ("t2_a", "t2_b"):
        if not math.isfinite(t_max / float(getattr(p, name))):
            raise ValueError(
                f"ErrorParams.{name} is too small for the delays set by "
                "SpinSystem.j_coupling: total delay / T2 is not finite"
            )


#: The leaf that ``_plan`` puts before every head: its stack is the call's
#: constant (4, k) factor ``start``.  A tuple of blocks that runs nothing,
#: so that a head after it is a tuple of blocks too.
_START = ((),)


def _plan(circuits: Sequence, heads: Sequence, k: int) -> tuple[list, list, list, list]:
    """Plan one call from a (4, k) ``start``: ``(circuits, heads, ops,
    widths)``, each circuit and head as its stack's index (None for the
    empty circuit).

    Each head is planned as the block ``(_START, head)``: a program head is
    applied to ``start`` event by event, a tuple head's stack is composed
    onto it, and the empty head is ``_START``, whose stack is ``start``
    itself.  Blocks are made canonical: without their empty parts at every
    depth (a tuple left with one part is that part, one left with none is
    ``()``), and with equal blocks one object, so that the plan keys
    blocks by ``id`` and hashes each given program once, not every nested
    tuple at each look-up.  ``ops`` fill the stacks of one chunk: the
    circuits' blocks, then each head, just after any of its blocks that no
    circuit has made.  Stack 0 is scratch, 4 wide if any other stack is,
    else none; stack 1 is ``start``; the blocks' stacks are 2, 3, ... in
    order of first appearance, k wide for a head, else 4.  The stacks then
    share buffers by live range (``_share``), and the plan names buffers:
    ``widths`` holds each buffer's width (0 for ``start``'s: it has none),
    and a circuit, a head and an operation name the buffers of its stacks.

    An operation ``(seq, src, part, out)`` writes stack ``out``: with a
    program ``seq``, its events applied to the identity (``src`` None) or to
    stack ``src`` (``_propagate``); with ``seq`` None, stack ``part``
    composed onto stack ``src`` (``_compose``).  A program that occurs in
    more than one place (a circuit, or a part of a distinct tuple), or that
    opens its tuple, is propagated from the identity.  A tuple's running
    product starts at its first part's stack; each later part is composed
    onto it, or, a program that occurs only there, applied to it event by
    event: onto a copy of a shared stack, in place on the tuple's own.
    """
    programs: dict = {}  # each distinct program by value
    tuples: dict = {}  # each distinct tuple by its parts' ids
    given: dict = {id(_START): _START}  # id of each given block -> its canonical block

    def canonical(block):
        if id(block) not in given:
            if _is_program(block):
                node = programs.setdefault(block, block)
            else:
                parts = tuple(part for part in map(canonical, block) if part)
                node = parts[0] if len(parts) == 1 else tuples.setdefault(tuple(map(id, parts)), parts)
            given[id(block)] = node
        return given[id(block)]

    circuits = [canonical(c) for c in circuits]
    placed = [(_START, h) for h in heads]  # alive while ``given`` keys them by id
    heads = [canonical(h) for h in placed]
    uses = dict.fromkeys(map(id, programs.values()), 0)  # places each program occurs
    for node in (*circuits, *(part for parts in tuples.values() for part in parts)):
        if id(node) in uses:
            uses[id(node)] += 1
    slots: dict = {id(_START): 1}
    widths, ops = [0, 0], []

    def stack(node) -> int:
        if id(node) in slots:
            return slots[id(node)]
        if _is_program(node):
            src, steps = None, [(node, None)]
        else:
            src = stack(node[0])
            steps = [
                (part, None) if _is_program(part) and uses[id(part)] == 1 else (None, stack(part))
                for part in node[1:]
            ]
        own = slots[id(node)] = len(widths)
        widths.append(k if node[0] is _START else 4)
        # A composition cannot write its own operand, so the running product
        # moves between ``own`` and the scratch at each one; planned back from
        # the last step, which writes ``own``.
        outs, out = [], own
        for seq, _ in reversed(steps):
            outs.append(out)
            if seq is None:
                out = 0 if out else own
        for (seq, part), out in zip(steps, reversed(outs)):
            ops.append((seq, src, part, out))
            src = out
        return own

    for node in (*circuits, *heads):
        if node:
            stack(node)
    widths[0] = 4 if 4 in widths else 0
    held = [slots[id(node)] for node in (*circuits, *heads) if node]  # read by the runs
    buffer, widths = _share(ops, widths, held)
    ops = [(seq, buffer[src], buffer[part], buffer[out]) for seq, src, part, out in ops]
    circuits = [buffer[slots.get(id(c))] for c in circuits]
    return circuits, [buffer[slots[id(h)]] for h in heads], ops, widths


def _share(ops: list, widths: list, held: list) -> tuple[dict, list]:
    """A buffer for each stack of ``ops`` by live range: ``(buffer, widths)``,
    stack s held in buffer ``buffer[s]`` of width ``widths[buffer[s]]``, and
    ``buffer[None]`` None.

    A stack lives from the first op that writes it to the last op that
    reads it; the stacks in ``held`` until the runs, after every op.  The
    scratch and ``start`` keep buffers 0 and 1.  The other stacks,
    numbered in order of first write, are handed buffers in that order: of
    the buffers of the stack's width, the one whose tenant was last read
    earliest, if that was strictly before the stack is first written, else
    a new one.  So no op writes a buffer that a later op reads for another
    stack, no op writes one of its operands' buffers but a stack's own, and
    each width has as many buffers as it has stacks live at one op.
    """
    first, last = {}, {}  # each stack's first writing op and last reading op
    for t, (_, src, part, out) in enumerate(ops):
        first.setdefault(out, t)
        last[src] = last[part] = t
    last.update(dict.fromkeys(held, len(ops)))
    buffer, sizes = {None: None, 0: 0, 1: 1}, widths[:2]
    tenants: dict = {}  # per width, a heap of (last read of its tenant, buffer)
    for s in range(2, len(widths)):
        heap = tenants.setdefault(widths[s], [])
        if heap and heap[0][0] < first[s]:
            buffer[s] = heapq.heappop(heap)[1]
        else:
            buffer[s] = len(sizes)
            sizes.append(widths[s])
        heapq.heappush(heap, (last[s], buffer[s]))
    return buffer, sizes


def mean_states(
    sys: SpinSystem,
    p: ErrorParams,
    seed,
    circuits: Sequence[tuple],
    heads: Sequence[tuple],
    start: np.ndarray,
) -> np.ndarray:
    """Bulk-sample states of every (circuit, head) run on one sample, shape
    (len(circuits), len(heads), 4, 4).

    A block is a pulse program or a tuple of blocks, run in order; empty
    parts are dropped.  Each circuit is a tuple of blocks run after its
    head (``()`` runs the head alone), and each head a block run on
    ``start``, a (4, k) factor of the input (``basis_state(0)[:, None]``
    for |00>).  The call plans once (``_plan``), each head as a block that
    starts at ``start``: per chunk, each distinct block gets one stack of
    per-member propagators, each program in it propagated once, all from
    one table of event factors, and composed right to left by
    ``_compose``.  A run composes its circuit's stack onto its head's; its
    stack W of shape (4, k, n) adds the sum of W_m W_m^H over its members
    as one product of its (4, k*n) reshape with that reshape's adjoint.
    Each mean is T2-damped over its run's free-evolution time and checked.
    Parameters under which a phase or a T2 exponent of these runs would
    overflow raise ``ValueError`` before any draw (``_check_ranges``).

    Every chunk-sized array lives in one workspace, allocated for
    ``min(CHUNK_SIZE, ensemble_size)`` members when the call starts: the
    factor table, the buffers of ``_plan``, which block stacks share by
    live range, and the scratch of the compositions and of the runs.  A
    run's conjugate is written into the compositions' scratch, free once
    the run is composed.  Each chunk refills the workspace in place; the
    shorter last chunk uses the leading part of each buffer.
    """
    t_heads = np.array([total_delay(head) for head in heads])
    t_totals = np.array([total_delay(circuit) for circuit in circuits])[:, None] + t_heads
    all_events = [ev for block in (*heads, *circuits) for ev in events(block)]
    size, k = min(CHUNK_SIZE, p.ensemble_size), start.shape[1]
    circuits, heads, ops, widths = _plan(circuits, heads, k)
    _check_ranges(sys, p, all_events, float(t_totals.max()))
    table = _FactorTable(all_events, size)
    # The buffers and scratch, in (4, width, size) slices of one allocation
    # that the heap keeps whole for the next call: a buffer per width of
    # ``_plan``, then tmp and a run.  Without a 4-wide stack (a noisy run)
    # there is no scratch stack and tmp is k wide: what a noisy run frees
    # then stays below glibc's trim threshold (twice its largest freed
    # allocation), so the next run does not fault the workspace and the
    # factor table in again.
    widths = [*widths, widths[0] or k, k]
    arena = np.empty(4 * size * sum(widths), dtype=complex)
    *bufs, tmp_buf, run_buf = np.split(arena, 4 * size * np.cumsum(widths[:-1]))
    total = np.zeros(t_totals.shape + (4, 4), dtype=complex)
    for draws in _draw_chunks(p, seed):
        factors = _event_factors(table, sys, draws, p.calib_offset)
        n = len(draws)
        tmps = {width: _view(tmp_buf, 4, width, n) for width in (k, widths[0] or k)}
        stacks = [_view(buf, 4, width, n) for buf, width in zip(bufs, widths)]
        stacks[1] = start
        for seq, src, part, out in ops:
            if seq is None:
                _compose(stacks[part], stacks[src], stacks[out], tmps[widths[out]])
            else:
                base = qcore.ID4 if src is None else stacks[src]
                _propagate(seq, factors, base, stacks[out], tmps[widths[out]])
        # a run's conjugate goes to tmp, free once the run is composed
        run, conj = _view(run_buf, 4, k, n), _view(tmp_buf, 4, k * n)
        for i, c in enumerate(circuits):
            for j, h in enumerate(heads):
                m = stacks[h]
                if c is not None:
                    m = _compose(stacks[c], m, run, tmps[k])
                elif m is start:  # the empty circuit on the empty head
                    m = run
                    np.copyto(run, start[:, :, None])
                m = m.reshape(4, -1)
                np.conjugate(m, out=conj)
                total[i, j] += m @ conj.T  # sum of W_m W_m^H
    f_a = np.exp(-t_totals / p.t2_a)[..., None, None]
    f_b = np.exp(-t_totals / p.t2_b)[..., None, None]
    rho = total / p.ensemble_size * f_a**_COHERENT_A * f_b**_COHERENT_B
    rho = (rho + rho.conj().swapaxes(-1, -2)) / 2.0
    return qcore.check_density_matrix(rho)

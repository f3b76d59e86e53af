"""Phenomenological pulse-error model: RF inhomogeneity, static-field
inhomogeneity, pulse miscalibration and T2 signal decay.

Each ensemble member draws one RF-amplitude deviation and one resonance
offset per spin (truncated Gaussians, +-3 sigma); the draws are static for
the member, so refocusing pairs cancel them exactly the way a spin echo
does.  T2 decay is applied after averaging as a coherence-order-dependent
damping of off-diagonal elements over the total free-evolution time: it
damps only the final mean's coherences and moves no population.  So the
identity part of an input passes through the average untouched, which
``experiment.temporal_average`` uses to leave it out.  fig4's noise-free
outputs are diagonal, so T2 alone moves its largest relative error by less
than 1e-10; T2 acting during each delay instead would put it at 0.021
(``tests/oracles.py``).  With the pulse errors, the damped coherences reach
fig4's panels through the nearest-density-matrix projection: T2 = 0.3 s
moves the demo's largest relative error by about 1e-4.

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
page by page.  A chunk is one list of operations, its runs last, and
every stack they write takes a buffer from one pool by live range
(``_share``), a buffer as wide as its widest stack; a run's conjugate
reuses the operations' scratch.  fig4 averages a 3-column factor of the
thermal state: its 28 stacks, 12 of them runs, fit in 7 four-wide buffers
and one three-wide buffer beside the scratch, 35 columns, and a
1,000-member fig4 average peaks at 3.6 MB traced.

Results are bit-reproducible for a fixed config and seed: the draws
depend only on ``params``, whose ``seed`` they are drawn from, and
``CHUNK_SIZE``, one generator per chunk (``_draw_chunks``), and the chunks
are summed in member order.  ``CHUNK_SIZE`` is part of that contract:
another chunk size draws another sample.  Member k's draws are not those
of numpy's per-member child stream
``default_rng(SeedSequence(seed).spawn(n)[k])``: the contract is
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
    t2_a, t2_b       transverse relaxation times (s); inf disables decay.
                     T2 damps only the coherences of each final mean, over
                     its run's total delay, after averaging: it moves no
                     population, so alone no fig4 number, whose noise-free
                     outputs are diagonal.
    ensemble_size    number of molecules averaged
    seed             non-negative integer seed of the members' draws
    """

    rf_spread: float = 0.0
    calib_offset: float = 0.0
    offset_spread_hz: float = 0.0
    t2_a: float = math.inf
    t2_b: float = math.inf
    ensemble_size: int = 1
    seed: int = 0

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
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise ValueError(f"ErrorParams.seed must be a non-negative integer, got {seed!r}")


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
    seed=20260808,
)


def _draw_chunks(p: ErrorParams) -> Iterator[np.ndarray]:
    """Per-member (RF deviation, offset a, offset b) in member order, in
    chunks of shape (<= CHUNK_SIZE, 3).

    Chunk c, members ``c * CHUNK_SIZE`` on, has one generator,
    ``default_rng(SeedSequence(p.seed, spawn_key=(c,)))`` (the c-th child
    of ``SeedSequence(p.seed).spawn``).  It draws a full ``(CHUNK_SIZE, 3)``
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
        rng = np.random.default_rng(np.random.SeedSequence(p.seed, spawn_key=(c,)))
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


def _plan(circuits: Sequence, heads: Sequence, k: int) -> tuple[list, list, list]:
    """Plan one chunk of a call from a (4, k) ``start``: ``(ops, views,
    widths)``, the chunk's operations in order on ``views``, each a
    (buffer, width) view of a buffer's leading columns, and the buffers'
    widths ``widths``, the last of which is the operations' scratch.

    Each head is planned as the block ``(_START, head)``: a program head is
    applied to ``start`` event by event, a tuple head's stack is composed
    onto it, and the empty head is ``_START``, whose stack is ``start``
    itself.  Blocks are made canonical: without their empty parts at every
    depth (a tuple left with one part is that part, one left with none is
    ``()``), and with equal blocks one object, so that the plan keys
    blocks by ``id`` and hashes each given program once, not every nested
    tuple at each look-up.  ``ops`` fill the stacks of one chunk: the
    circuits' blocks, then each head, just after any of its blocks that no
    circuit has made, then one operation per run, in order of circuit and
    then head.  Stack 0 is ``start``; the others are numbered in order of
    first write, k wide for a head or a run, else 4.  The stacks share
    buffers by live range (``_share``), and the plan names each stack by
    its view, its buffer and its own width: view 0, buffer 0 at width 0, is
    ``start``'s, and the scratch is as wide as the widest buffer.

    An operation ``(seq, src, part, out, run)`` writes stack ``out``: with a
    program ``seq``, its events applied to the identity (``src`` None) or to
    stack ``src`` (``_propagate``); with a stack ``part``, that stack
    composed onto stack ``src`` (``_compose``); with neither, nothing.  A
    run's operation then sums stack ``out`` into the mean of ``run``, its
    (circuit, head) index.  A program that occurs in more than one place (a
    circuit, or a part of a distinct tuple), or that opens its tuple, is
    propagated from the identity.  A tuple's first step and each
    composition write a new stack; a later part that is a program occurring
    only there continues the tuple's stack in place.  A run composes its
    circuit's stack onto its head's, into a new stack; the empty circuit
    sums its head's stack as it is, or, on the empty head, the empty
    program propagated from ``start``.
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
    slots: dict = {id(_START): 0}
    widths, ops = [0], []

    def new(width: int) -> int:
        widths.append(width)
        return len(widths) - 1

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
        out = None
        for seq, part in steps:
            if out is None or seq is None:  # the first step and each composition
                out = new(k if node[0] is _START else 4)
            ops.append((seq, src, part, out, None))
            src = out
        slots[id(node)] = out
        return out

    for node in (*circuits, *heads):
        if node:
            stack(node)
    circuits = [slots.get(id(c)) for c in circuits]
    heads = [slots[id(h)] for h in heads]
    for i, c in enumerate(circuits):
        for j, h in enumerate(heads):
            if c is None and h:  # the empty circuit: the head's stack as it is
                ops.append((None, None, None, h, (i, j)))
            else:  # the circuit composed onto the head, or the empty program onto ``start``
                ops.append((None if c else (), h, c, new(k), (i, j)))
    ops, views, sizes = _share(ops, widths)
    return ops, views, [*sizes, max(sizes)]


def _share(ops: list, widths: list) -> tuple[list, list, list]:
    """``(ops, views, sizes)``: ``ops`` on buffers shared by live range, as
    indices into ``views``, each a (buffer, width) view of a buffer's
    leading columns, and each buffer's width, ``sizes``.  Stack s is
    ``widths[s]`` wide, and ``start``, stack 0, keeps buffer 0 and view 0.

    A stack lives from the first op that writes it to the last op that
    reads it, a run's sum counted as a read of its op's stack.  The other
    stacks, numbered in order of first write, take buffers from one pool in
    that order: the buffer whose tenant was last read earliest, if that was
    strictly before the stack is first written, else a new one.  Each
    buffer is as wide as its widest tenant, and a narrower tenant views its
    leading columns.  So there are as many buffers as stacks live at one
    op, no op writes a buffer that a later op reads for another stack, and
    no op writes one of its operands' buffers but a stack's own.
    """
    first, last = {}, {}  # each stack's first writing op and last reading op
    for t, (_, src, part, out, run) in enumerate(ops):
        first.setdefault(out, t)
        last[src] = last[part] = t
        if run:
            last[out] = t  # the run's sum
    buffer, sizes = {0: 0}, [0]  # each stack's buffer, each buffer's width
    pool: list = []  # a heap of (last read of its tenant, buffer)
    for s in range(1, len(widths)):
        if pool and pool[0][0] < first[s]:
            b = heapq.heappop(pool)[1]
        else:
            b = len(sizes)
            sizes.append(0)
        buffer[s], sizes[b] = b, max(sizes[b], widths[s])
        heapq.heappush(pool, (last[s], b))
    views: dict = {}  # each (buffer, width) to its index, in order of first write
    view = {None: None}
    for s, width in enumerate(widths):
        view[s] = views.setdefault((buffer[s], width), len(views))
    ops = [(seq, view[src], view[part], view[out], run) for seq, src, part, out, run in ops]
    return ops, list(views), sizes


def mean_states(
    sys: SpinSystem,
    p: ErrorParams,
    circuits: Sequence[tuple],
    heads: Sequence[tuple],
    start: np.ndarray,
) -> np.ndarray:
    """Bulk-sample states of every (circuit, head) run on one sample, shape
    (len(circuits), len(heads), 4, 4), on the one sample ``p`` draws.

    A block is a pulse program or a tuple of blocks, run in order; empty
    parts are dropped.  Each circuit is a tuple of blocks run after its
    head (``()`` runs the head alone), and each head a block run on
    ``start``, a (4, k) factor of the input (``basis_state(0)[:, None]``
    for |00>).  The call plans one chunk's operations once (``_plan``), each
    head as a block that starts at ``start`` and each run after every
    block: per chunk, each distinct block gets one stack of per-member
    propagators, each program in it propagated once, all from one table of
    event factors, and composed right to left by ``_compose``.  A run
    composes its circuit's stack onto its head's; its stack W of shape (4,
    k, n) adds the sum of W_m W_m^H over its members as one product of its
    (4, k*n) reshape with that reshape's adjoint.  Each mean's coherences,
    and nothing else, are T2-damped over its run's free-evolution time, and
    the mean is checked.  Parameters under which a phase or a T2 exponent of
    these runs would overflow raise ``ValueError`` before any draw
    (``_check_ranges``).

    Every chunk-sized array lives in one workspace, allocated for
    ``min(CHUNK_SIZE, ensemble_size)`` members when the call starts: the
    factor table and the buffers of ``_plan``, which every stack shares by
    live range from one pool, and their scratch.  A stack narrower than
    its buffer, a 3-wide fig4 head or run in a 4-wide buffer that a block
    stack has left, say, uses the buffer's leading columns; each chunk
    views each (buffer, width) pair once, not once per op, and the scratch
    once per width, ``start``'s aside.  A run's
    conjugate is written into the scratch, free once the run's stack is
    made.  Each chunk refills the workspace in place; the shorter last
    chunk uses the leading part of each buffer.  fig4's plan has 7
    four-wide buffers and one three-wide beside the 4-wide scratch, and
    one 1,000-member fig4 temporal average peaks at 3.6 MB traced.
    """
    t_heads = np.array([total_delay(head) for head in heads])
    t_totals = np.array([total_delay(circuit) for circuit in circuits])[:, None] + t_heads
    all_events = [ev for block in (*heads, *circuits) for ev in events(block)]
    size, k = min(CHUNK_SIZE, p.ensemble_size), start.shape[1]
    _check_ranges(sys, p, all_events, float(t_totals.max()))
    ops, views, widths = _plan(circuits, heads, k)
    table = _FactorTable(all_events, size)
    # The buffers of ``_plan``, the scratch last, in (4, width, size) slices
    # of one allocation that the heap keeps whole for the next call.  A
    # noisy run's buffers are all 1 wide: what it frees then stays below
    # glibc's trim threshold (twice its largest freed allocation), so the
    # next run does not fault the workspace and the factor table in again.
    arena = np.empty(4 * size * sum(widths), dtype=complex)
    *bufs, tmp_buf = np.split(arena, 4 * size * np.cumsum(widths[:-1]))
    total = np.zeros(t_totals.shape + (4, 4), dtype=complex)
    for draws in _draw_chunks(p):
        factors = _event_factors(table, sys, draws, p.calib_offset)
        n = len(draws)
        stacks = [start, *(_view(bufs[buf], 4, width, n) for buf, width in views[1:])]
        scratch = {w: _view(tmp_buf, 4, w, n) for w in dict.fromkeys(w for _, w in views[1:])}
        tmps, conj = [scratch.get(width) for _, width in views], _view(tmp_buf, 4, k * n)
        for seq, src, part, out, run in ops:
            if part is not None:
                _compose(stacks[part], stacks[src], stacks[out], tmps[out])
            elif seq is not None:
                base = qcore.ID4 if src is None else stacks[src]
                _propagate(seq, factors, base, stacks[out], tmps[out])
            if run:
                m = stacks[out].reshape(4, -1)
                np.conjugate(m, out=conj)  # into the scratch, free once the op is done
                total[run] += m @ conj.T  # sum of W_m W_m^H
    f_a = np.exp(-t_totals / p.t2_a)[..., None, None]
    f_b = np.exp(-t_totals / p.t2_b)[..., None, None]
    rho = total / p.ensemble_size * f_a**_COHERENT_A * f_b**_COHERENT_B
    rho = (rho + rho.conj().swapaxes(-1, -2)) / 2.0
    return qcore.check_density_matrix(rho)

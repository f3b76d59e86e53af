"""Phenomenological pulse-error model: RF inhomogeneity, static-field
inhomogeneity, pulse miscalibration and T2 signal decay.

Each ensemble member draws one RF-amplitude deviation and one resonance
offset per spin (truncated Gaussians, +-3 sigma); the draws are static for
the member, so refocusing pairs cancel them exactly the way a spin echo
does.  T2 decay is applied after averaging as a coherence-order-dependent
damping of off-diagonal elements over the total free-evolution time.

The package's one ensemble average, ``mean_states``, runs circuits
(tuples of pulse blocks) after heads on one sample, propagating a factor V
of the input (rho0 = V V^H) through the pulse engine of ``nmrsim``
(``nmrsim._propagate``, the one that also compiles noise-free programs),
one row of draws per member, into stacks of shape (4, k, n) with the member
axis last.  Blocks compose by four broadcast multiply-adds over contiguous
member rows (``_compose``), and the sum of W W^H over a chunk is one matrix
product.  Members are drawn, propagated and summed in chunks of
``CHUNK_SIZE``, in a fixed order, so memory stays bounded however large the
ensemble is.  Every chunk-sized array lives in one workspace per call,
sized for ``min(CHUNK_SIZE, ensemble_size)`` members and refilled in place
by each chunk: arrays freed and allocated again for every chunk are handed
back to the OS by the heap and faulted in again, page by page.

Results are deterministic for a fixed seed: member k draws from the stream
of ``default_rng(SeedSequence(seed).spawn(n)[k])`` and the chunks are summed
in member order.  That stream is reached without spawning: the children's
seed words come from the parent's pool by numpy's SeedSequence hash, and
most members' draws from PCG64 and numpy's ziggurat computed on arrays
(``_draw_chunks``), all for a whole chunk at once.  The draws depend only
on ``(params, seed)``, not on the pulse program, so programs run on one
sample share them: each chunk is drawn once, and every run is composed
from per-member block propagators compiled once each.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from . import qcore
from .nmrsim import (
    PulseSequence,
    Rf,
    SpinSystem,
    _FactorTable,
    _ZA_DIAG,
    _ZB_DIAG,
    _event_factors,
    _propagate,
    _view,
)

#: Members drawn, propagated and summed together in the ensemble average.
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


def _truncated_normal(rng: np.random.Generator, sigma: float) -> float:
    """Gaussian draw truncated at +-3 sigma.

    The unit draw is rejected independently of sigma, so for a fixed seed the
    stream consumption is identical for every sigma and the result scales
    monotonically with it.
    """
    z = rng.standard_normal()
    while abs(z) > 3.0:
        z = rng.standard_normal()
    return float(sigma * z)


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash_constants(init: int, mult: int, skip: int, n: int) -> list[int]:
    """Hash constants ``init * mult**j mod 2**32`` for j = skip .. skip + n."""
    h = init * pow(mult, skip, 1 << 32) & _MASK32
    out = [h]
    for _ in range(n):
        h = h * mult & _MASK32
        out.append(h)
    return out


def _child_words(parent: np.random.SeedSequence, start: int, n: int) -> np.ndarray:
    """``generate_state(4, np.uint64)`` of children ``start .. start + n - 1``
    of ``parent``, a SeedSequence of integer entropy and no spawn key, shape
    (n, 4), computed for all n at once.

    A child's entropy is the seed's L uint32 words, zero-padded to the pool
    size 4, followed by its spawn key k (one word: k < MAX_ENSEMBLE_SIZE <
    2**32).  The parent fills a short pool with hashed zeros, so everything
    before k is mixed exactly as in the parent: the child pool is the
    parent's ``pool`` with k mixed into each word, under hash constants that
    have advanced 16 + 4 * max(0, L - 4) steps.  The output hash then reads
    the pool twice.
    """
    words = max(1, -(-int(parent.entropy).bit_length() // 32))
    key = np.arange(start, start + n, dtype=np.uint32)
    shift = np.uint32(16)
    mixing = _hash_constants(_INIT_A, _MULT_A, 16 + 4 * max(0, words - 4), 4)
    pool = []
    for i, word in enumerate(parent.pool.tolist()):
        value = (key ^ np.uint32(mixing[i])) * np.uint32(mixing[i + 1])
        value ^= value >> shift
        mixed = np.uint32(_MIX_MULT_L * word & _MASK32) - np.uint32(_MIX_MULT_R) * value
        pool.append(mixed ^ (mixed >> shift))
    output = _hash_constants(_INIT_B, _MULT_B, 0, 8)
    state = np.empty((n, 8), dtype=np.uint32)
    for j in range(8):
        value = (pool[j % 4] ^ np.uint32(output[j])) * np.uint32(output[j + 1])
        state[:, j] = value ^ (value >> shift)
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _ChildWords(np.random.bit_generator.ISeedSequence):
    """Seed sequence of one row of ``_child_words``: a generator seeded from
    it is seeded exactly as from the spawned child whose words they are."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("child words hold only generate_state(4, np.uint64)")
        # PCG64 reads the buffer directly, ignoring strides
        return np.ascontiguousarray(self.words, dtype=np.uint64)


# numpy's PCG64: a 128-bit LCG state, here a (high, low) pair of uint64
# arrays; its multiplier, the inverse mod 2**128, the multiplier's 64-bit
# words and its low word's 32-bit limbs.
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG64_MULT_INV = pow(_PCG64_MULT, -1, 1 << 128)
_MULT_HI, _MULT_LO = np.uint64(_PCG64_MULT >> 64), np.uint64(_PCG64_MULT & (1 << 64) - 1)
_M1, _M0 = np.uint64(_PCG64_MULT >> 32 & _MASK32), np.uint64(_PCG64_MULT & _MASK32)
_LOW32, _S32 = np.uint64(_MASK32), np.uint64(32)


def _lcg_step(state: tuple, inc: tuple) -> tuple:
    """``state * _PCG64_MULT + inc`` mod 2**128.  Only arrays multiply:
    they wrap, where numpy integer scalars raise under ``cli.main``'s
    ``np.errstate``.  The high word of ``low * _MULT_LO`` is summed from
    32-bit limbs."""
    hi, lo = state
    a0, a1 = lo & _LOW32, lo >> _S32
    p00, p01, p10 = a0 * _M0, a0 * _M1, a1 * _M0
    mid = (p00 >> _S32) + (p01 & _LOW32) + (p10 & _LOW32)
    mul_hi = a1 * _M1 + (p01 >> _S32) + (p10 >> _S32) + (mid >> _S32)
    new_lo = lo * _MULT_LO + inc[1]
    return mul_hi + lo * _MULT_HI + hi * _MULT_LO + inc[0] + (new_lo < inc[1]), new_lo


def _pcg64_seed(words: np.ndarray) -> tuple[tuple, tuple]:
    """(state, inc) of PCG64 seeded from each row ``w0..w3`` of ``words``:
    ``inc = (w2:w3 << 1) | 1``, one step from 0, add ``w0:w1``, one step."""
    w0, w1, w2, w3 = words.T
    one = np.uint64(1)
    inc = (w2 << one | w3 >> np.uint64(63), w3 << one | one)
    lo = inc[1] + w1
    return _lcg_step((inc[0] + w0 + (lo < w1), lo), inc), inc


def _pcg64_raw(words: np.ndarray) -> np.ndarray:
    """First three outputs (n, 3) of PCG64 seeded from ``words``: a step,
    then XSL-RR (high ^ low rotated right by the state's top 6 bits)."""
    state, inc = _pcg64_seed(words)
    out = np.empty((len(words), 3), dtype=np.uint64)
    for j in range(3):
        state = hi, lo = _lcg_step(state, inc)
        xsl, rot = hi ^ lo, hi >> np.uint64(58)
        out[:, j] = xsl >> rot | xsl << (np.uint64(64) - rot & np.uint64(63))
    return out


def _crafted_state(r: int) -> dict:
    """A PCG64 state whose first output is ``r``: one step (increment 1)
    before the state ``r``, whose high word 0 leaves it unrotated."""
    before = (r - 1) * _PCG64_MULT_INV % (1 << 128)
    state = {"state": before, "inc": 1}
    return {"bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0}


#: Half-width of the band around an estimated ``ki`` where a draw is unsure.
_KI_BAND = 2**32


@functools.cache
def _ziggurat_tables() -> tuple[np.ndarray, np.ndarray]:
    """numpy's ziggurat ``wi`` table, and per ``idx`` the bound below which
    ``rabs`` is surely on numpy's fast path (0 for idx 0 and 1: never sure).

    ``Generator.standard_normal`` splits an output ``r`` into ``idx = r &
    0xff``, a sign (bit 8) and ``rabs = r >> 9`` (52 bits); it returns
    ``±rabs * wi[idx]`` if ``rabs < ki[idx]``, else draws more words.  So
    the output ``idx | 1 << 9`` returns ``wi[idx]`` exactly (for idx 1,
    whose ``ki`` is 0, after a wedge test that a value so near 0 passes):
    256 crafted states read the table.  ``ki[idx]`` is estimated as
    ``wi[idx - 1] / wi[idx] * 2**52``, less ``_KI_BAND`` for the bound.
    """
    bits = np.random.PCG64(0)
    gen = np.random.Generator(bits)
    wi = np.empty(256)
    for idx in range(256):
        bits.state = _crafted_state(idx | 1 << 9)
        wi[idx] = gen.standard_normal()
    sure_below = np.zeros(256, dtype=np.uint64)
    sure_below[2:] = (wi[1:-1] / wi[2:] * 2.0**52).astype(np.uint64) - np.uint64(_KI_BAND)
    wi.flags.writeable = sure_below.flags.writeable = False  # shared by every caller
    return wi, sure_below


def _draw_chunks(p: ErrorParams, seed: int) -> Iterator[np.ndarray]:
    """Per-member (RF deviation, offset a, offset b) in member order, in
    chunks of shape (<= CHUNK_SIZE, 3), for an integer ``seed`` >= 0.

    Member k's draws are three ``_truncated_normal`` draws from
    ``default_rng`` of the k-th child of ``SeedSequence(seed).spawn(n)``.
    Per chunk, the children's seed words (``_child_words``) give every
    member's first three PCG64 outputs at once, each mapped by numpy's
    ziggurat fast path to ``±rabs * wi[idx]`` (``_ziggurat_tables``).  A
    member with a draw that is unsure (idx 0 or 1, or ``rabs`` not below
    the band around the estimated ``ki``) or beyond 3 (the truncation) is
    drawn by ``_truncated_normal`` from a generator seeded from its words.
    """
    parent = np.random.SeedSequence(seed)
    sigmas = np.array([p.rf_spread, p.offset_spread_hz, p.offset_spread_hz])
    wi, sure_below = _ziggurat_tables()
    for start in range(0, p.ensemble_size, CHUNK_SIZE):
        n = min(CHUNK_SIZE, p.ensemble_size - start)
        words = _child_words(parent, start, n)
        r = _pcg64_raw(words)
        idx, rabs = r & np.uint64(0xFF), r >> np.uint64(9) & np.uint64((1 << 52) - 1)
        z = rabs * wi[idx]
        np.negative(z, out=z, where=r & np.uint64(1 << 8) != 0)
        sure = (rabs < sure_below[idx]) & (np.abs(z) <= 3.0)
        for k in np.flatnonzero(~sure.all(axis=1)):
            rng = np.random.default_rng(_ChildWords(words[k]))
            z[k] = [_truncated_normal(rng, 1.0) for _ in range(3)]
        yield z * sigmas


# Coherences damped by T2 of spin a / spin b: elements whose row and column
# differ in that spin's label.
_COHERENT_A = _ZA_DIAG[:, None] != _ZA_DIAG[None, :]
_COHERENT_B = _ZB_DIAG[:, None] != _ZB_DIAG[None, :]


def _compose(a: np.ndarray, b: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Per-member ``a[..., m] @ b[..., m]`` of a (4, 4, n) and a (4, k, n)
    stack, written into ``out`` of shape (4, k, n) and returned, ``tmp``
    scratch of that shape: a sum of four broadcast products ``a[:, j] *
    b[j]`` in order of j, each over contiguous rows of n members."""
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


def mean_states(
    sys: SpinSystem,
    p: ErrorParams,
    seed,
    circuits: Sequence[tuple[PulseSequence, ...]],
    heads: Sequence[PulseSequence],
    start: np.ndarray,
) -> np.ndarray:
    """Bulk-sample states of every (circuit, head) run on one sample, shape
    (len(circuits), len(heads), 4, 4).

    Each head is propagated from ``start``, a (4, k) factor of the input
    (``basis_state(0)[:, None]`` for |00>); each circuit is a tuple of
    blocks run after it (``()`` runs the head alone).  Per chunk, each
    distinct non-empty block is compiled once, all from one table of event
    factors, and composed onto the head as ``(U_last @ ...) @ U_first`` by
    ``_compose``.  A run's stack W of shape (4, k, n) adds the sum of W_m
    W_m^H over its members as one product of its (4, k*n) reshape with that
    reshape's adjoint.  Each mean is T2-damped over its run's
    free-evolution time and checked.  Parameters under which a phase or a
    T2 exponent of these runs would overflow raise ``ValueError`` before
    any draw (``_check_ranges``).

    Every chunk-sized array lives in one workspace, allocated for
    ``min(CHUNK_SIZE, ensemble_size)`` members when the call starts: the
    factor table, a stack per head and per block, and the composition and
    conjugate scratch.  Each chunk refills it in place; the shorter last
    chunk uses the leading part of each buffer.
    """
    t_totals = np.array([
        [head.total_delay() + sum(circuit, PulseSequence()).total_delay() for head in heads]
        for circuit in circuits
    ])
    circuits = [[block for block in circuit if len(block)] for circuit in circuits]
    blocks = list(dict.fromkeys(block for circuit in circuits for block in circuit))
    events = [ev for seq in (*heads, *blocks) for ev in seq]
    _check_ranges(sys, p, events, float(t_totals.max()))
    size, k = min(CHUNK_SIZE, p.ensemble_size), start.shape[1]
    table = _FactorTable(events, size)
    # The stacks and scratch, in (4, width, size) slices of one allocation
    # that the heap keeps whole for the next call: a stack per head and per
    # block, then tmp, two partial products, a composed run and its conjugate.
    widths = [k] * len(heads) + [4] * len(blocks) + [max(k, 4), 4, 4, k, k]
    arena = np.empty(4 * size * sum(widths), dtype=complex)
    bufs = np.split(arena, 4 * size * np.cumsum(widths[:-1]))
    w_bufs, u_bufs = bufs[: len(heads)], bufs[len(heads) : -5]
    tmp_buf, *partial_bufs, run_buf, conj_buf = bufs[-5:]
    total = np.zeros(t_totals.shape + (4, 4), dtype=complex)
    for draws in _draw_chunks(p, seed):
        factors = _event_factors(table, sys, draws, p.calib_offset)
        n = len(draws)
        tmp_k, tmp_4 = _view(tmp_buf, 4, k, n), _view(tmp_buf, 4, 4, n)
        w_heads = [
            _propagate(head, factors, start, _view(buf, 4, k, n), tmp_k)
            for head, buf in zip(heads, w_bufs)
        ]
        u_blocks = {
            block: _propagate(block, factors, qcore.ID4, _view(buf, 4, 4, n), tmp_4)
            for block, buf in zip(blocks, u_bufs)
        }
        partials = [_view(buf, 4, 4, n) for buf in partial_bufs]
        run, conj = _view(run_buf, 4, k, n), _view(conj_buf, 4, k * n)
        for i, circuit in enumerate(circuits):
            stacks = [u_blocks[block] for block in reversed(circuit)]
            u = stacks[0] if stacks else None
            for stack, out in zip(stacks[1:], itertools.cycle(partials)):
                u = _compose(u, stack, out, tmp_4)
            for j, w in enumerate(w_heads):
                m = (w if u is None else _compose(u, w, run, tmp_k)).reshape(4, -1)
                np.conjugate(m, out=conj)
                total[i, j] += m @ conj.T  # sum of W_m W_m^H
    f_a = np.exp(-t_totals / p.t2_a)[..., None, None]
    f_b = np.exp(-t_totals / p.t2_b)[..., None, None]
    rho = total / p.ensemble_size * f_a**_COHERENT_A * f_b**_COHERENT_B
    rho = (rho + rho.conj().swapaxes(-1, -2)) / 2.0
    return qcore.check_density_matrix(rho)

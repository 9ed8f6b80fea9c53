"""Monte Carlo engines: interacting-particle SDE simulation and static samplers.

The Dyson and Laguerre eigenvalue processes are integrated by explicit
Euler-Maruyama with per-step re-sorting.  Repulsion denominators are floored
at ``max(1e-8, sqrt(dt))``: the hard 1e-8 floor alone lets tied starts (the
zero initial condition in particular) produce order dt/1e-8 kicks, while the
sqrt(dt) floor reproduces the exact two-particle collision solution
``gap(dt) = 2 sqrt(dt)`` and switches itself off as soon as gaps exceed the
one-step diffusion scale.  Clamp activations are counted and reported as
ensemble metadata.

Randomness is organized as per-path streams: path p owns one generator,
seeded by ``SeedSequence(seed, spawn_key=(p,))`` (child p of
``SeedSequence(seed).spawn(paths)``), and draws its noise from it in chunks of
steps.  Successive draws continue one stream, so results are bit-identical
however the paths are blocked or sharded and however long the chunks are.  A
chunk and the panel it is drawn through hold ``_NOISE_BYTES`` together, and
the chunk at least ``_NOISE_CHUNK_STEPS`` steps: narrow blocks draw in few,
long calls, and a block's memory is bounded by its width rather than by the
horizon.  The paths are drawn 64 at a time, one call each, into that
path-major panel, which is transposed at once into the step-major chunk, and
the chunk is then scaled in one pass.  Chunks and panels live in anonymous
mappings of their own (``_mapped``), so no run's noise stays in the heap
after it.  The generators' states are derived for a whole block in one pass
(``_path_states``): numpy's SeedSequence hash, run on uint32 arrays of spawn
keys, gives each path the state its SeedSequence would, with no
SeedSequence built per path.

A run large enough to repay a fork (see ``_SHARD_WORK``), on Linux and when
no other thread is alive, takes one of two plans (``_plan``), whichever a
cost model of its paths, particles, steps and record times predicts to end
sooner.  The path plan cuts it into contiguous path ranges, one per usable
core: the calling process runs the first range and a child made by
``os.fork`` runs each other one, sending its result back through a pipe.
The stage plan suits narrow, long runs, whose steps cost mostly a fixed
per-step overhead that every range pays in full: a forked drawer draws every
path's noise into a ring of two slots in shared memory, handed back and forth
by one-byte tokens on two pipes, while the caller steps all paths.  The
output is bit-identical for either plan and any core count, and so is the
error a failing run raises.  Given a ``rows`` function, each range's process
also formats the range's rows, which come back beside its data.

Paths are integrated in blocks, lane-major: a block of b paths holds its
state as an (n, b) array, particle by path, and its n(n-1)/2 pair gaps as
packed rows of b lanes, so every array operation runs over contiguous rows of
paths.  The drift terms of a particle are added left to right, and the noise
is scaled once, before it is stepped over; the tests keep a path-major
formulation in the same order as the oracle, which the output equals bit for
bit.

The start and every step end with one gather and one reduction: a single
``take`` reads the endpoints of every pair and of two sentinel pairs (the
lowest particle against -STABILITY_BOUND, the highest against
+STABILITY_BOUND), and the smallest of the resulting gaps decides what
guard work the state needs.  At least the floor: the state is sorted, finite,
in bounds and unclamped, and there is none.  At least 0: the state is sorted
and in bounds, and only the next drift counts clamps.  Negative or NaN: the
columns out of order are re-sorted, their bounds checked and their gaps
gathered again.  The drift sums into a buffer kept for the whole block, so
a step allocates no array.

The Laguerre constant ``alpha + N - 1`` is a row of the drift terms, the
last term of each particle's sum, where the path-major formulation adds it
to the finished sum; addition commutes, so the two agree bit for bit.  The
diffusion ``sqrt(lam)`` needs no clamp to 0: the start is checked to be
nonnegative and every step ends with ``abs``.  A start holding -0.0 has
``sqrt(-0.0) = -0.0``, which only flips the sign of a zero in the step's
sums, and that ``abs`` clears it.
"""

import contextlib
import math
import mmap
import os
import pickle
import signal
import threading
from dataclasses import dataclass

import numpy as np

from .elemsym import RootTuple
from .errors import InvalidParameter, StepUnstable, check_int, check_real
from .orthopoly import eigen_tridiag_batch

__all__ = [
    "SimConfig",
    "PathEnsemble",
    "simulate_dyson",
    "simulate_laguerre",
]

EPS_GAP = 1e-8
STABILITY_BOUND = 1e8
# A block's noise is drawn in chunks of steps that fill _NOISE_BYTES (2 MB)
# with their draw panel, and never fewer than _NOISE_CHUNK_STEPS: a
# generator call costs about 0.75 us plus 12.6 ns per normal, so 128 steps at
# n = 4 lose 10% to the call and 400 steps (100 paths' 2 MB) 3%.  The stage
# plan's ring is the same budget, cut into two slots.
_NOISE_BYTES = 1 << 21
_NOISE_CHUNK_STEPS = 128
_BLOCK_BYTES = 1 << 26  # working-memory budget of one block of paths (64 MB)
_PANEL_LANES = 64  # paths drawn into one panel, then transposed at once
# A run forks, by either plan, only if it holds at least _SHARD_WORK
# paths x steps x n^2 (a path-step costs about n^2 pair terms) and gives each
# of two shards at least _SHARD_MIN_PATHS paths.  Below either, the fork
# (about 3.5 ms) or the per-step cost that every shard pays in full outweighs
# the split work.  On a 2-vCPU Xeon, n = 4 with 128-1024 paths broke even
# near 2^16 path-steps (2^20 of this work) and gained 1.2-1.5x at twice that,
# n = 16 gained 1.2x at 25000 path-steps, and 8-16 paths per shard ran up to
# 1.3x slower than one process.
_SHARD_WORK = 1 << 21
_SHARD_MIN_PATHS = 32

DYSON = "dyson"
LAGUERRE = "laguerre"


@dataclass(frozen=True)
class SimConfig:
    """Complete, reproducible description of one simulation run.

    ``t_end`` and every record time must be whole multiples of ``dt`` (to a
    relative 1e-9), so that each recorded row is labelled with the time the
    integration actually reached.
    """

    beta: float
    n: int
    t_end: float
    dt: float
    initial: RootTuple
    seed: int
    paths: int
    record_times: tuple
    alpha: float | None = None

    def __post_init__(self):
        check_real("beta", self.beta, 1.0, inclusive=True)
        check_int("n", self.n, 1)
        if not isinstance(self.initial, RootTuple):
            raise InvalidParameter(f"initial must be a RootTuple (got {type(self.initial).__name__})")
        if self.initial.n != self.n:
            raise InvalidParameter("initial tuple must have length n")
        check_real("t_end", self.t_end, 0.0, inclusive=True)
        check_real("dt", self.dt, 0.0)
        check_int("seed", self.seed, 0)
        check_int("paths", self.paths, 1)
        if self.alpha is not None:  # checked where it is used; only finite here
            check_real("alpha", self.alpha, -math.inf)
        if isinstance(self.record_times, (str, bytes)) or not hasattr(self.record_times, "__iter__"):
            raise InvalidParameter(f"record_times must be a sequence of times (got {self.record_times!r})")
        rec = tuple(self.record_times)
        for t in rec:
            check_real("record time", t, 0.0, inclusive=True)
        rec = tuple(float(t) for t in rec) or (self.t_end,)
        if any(b < a for a, b in zip(rec, rec[1:])):
            raise InvalidParameter("record_times must be sorted ascending")
        for t in (self.t_end, *rec):
            steps = t / self.dt
            if not (math.isfinite(steps) and abs(steps - round(steps)) <= 1e-9 * steps):
                raise InvalidParameter(f"time {t:g} is not on the grid of dt = {self.dt:g}")
        if round(rec[-1] / self.dt) > self.n_steps:
            raise InvalidParameter(f"record time {rec[-1]:g} lies beyond t_end = {self.t_end:g}")
        object.__setattr__(self, "record_times", rec)

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))

    def record_steps(self) -> list:
        """Step indices of the record times."""
        return [int(round(t / self.dt)) for t in self.record_times]


@dataclass(frozen=True)
class PathEnsemble:
    """M simulated trajectories of N ordered particles on the record grid.

    ``data`` has shape (paths, record times, n); every recorded tuple is
    sorted ascending.  ``clamp_events`` counts pair-gap clampings across all
    paths and steps (collision diagnostics).
    """

    data: np.ndarray
    config: SimConfig
    kind: str
    clamp_events: int


@dataclass(frozen=True)
class _FormattedEnsemble(PathEnsemble):
    """A PathEnsemble with what ``rows`` returned for each path range."""

    rows: tuple = ()


def _path_bytes(n_steps: int, n: int) -> int:
    """Working memory of one path in a block, for P = n(n-1)/2 pairs:

    - its step-major noise chunk, chunk x n, at the shortest chunk
      ``_NOISE_CHUNK_STEPS`` (a narrower block's longer chunk and its draw
      panel hold ``_NOISE_BYTES`` together; at the shortest chunk, the panel
      is 64 paths' chunks more)
    - its state frame with the two sentinels, n+2, and the diffusion and
      drift buffers, n each
    - its share of the pair buffers (``_PairWork``): 2(P+2) gathered
      endpoints; P+2 gaps with P negations, a zero and the Laguerre
      constant; n*n drift terms and the constant's n; a P-entry clamp mask

    The Laguerre constant is counted for both engines."""
    p = n * (n - 1) // 2
    chunk = min(max(n_steps, 1), _NOISE_CHUNK_STEPS)
    return 8 * (chunk * n + (3 * n + 2) + 2 * (2 * p + 4) + n * (n + 1)) + p


def _block_size(paths: int, n_steps: int, n: int) -> int:
    return max(1, min(paths, _BLOCK_BYTES // _path_bytes(n_steps, n)))


def _chunk_steps(n_steps: int, n: int, lanes: int, budget: int) -> int:
    """Steps per noise chunk when ``lanes`` paths' chunks share ``budget``
    bytes: as many as fill it, at least ``_NOISE_CHUNK_STEPS`` and at most
    the run's steps."""
    return max(1, min(n_steps, max(_NOISE_CHUNK_STEPS, budget // (8 * n * lanes))))


def _mapped(shape: tuple) -> np.ndarray:
    """An uninitialized float64 array in an anonymous shared mapping of its
    own: a forked child shares its pages, and they return to the system with
    the array's last view.  A block's noise lives in one, because glibc
    keeps a freed buffer of a few MB resident in the heap once its mmap
    threshold has grown past that size, and the next job's buffers then come
    on top: over the seven sde-ensembles configs run twice in one process,
    peak RSS read 40.5-40.7 MB with mapped noise and 42.0-42.1 MB with heap
    noise."""
    return np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)), np.float64).reshape(shape)


def _chunk_lengths(n_steps: int, chunk: int):
    """The lengths of a run's successive noise chunks: ``chunk`` steps each
    but a shorter last one."""
    for start in range(0, n_steps, chunk):
        yield min(chunk, n_steps - start)


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): a pool of 4
# uint32 words and its mixing constants
_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words(value: int) -> list:
    """The little-endian uint32 words of ``value``, ``[0]`` for 0, as a
    SeedSequence reads an integer."""
    words = [value & _MASK32]
    while value >> 32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hashmix(value, const: int, mult: int):
    """SeedSequence's hashmix of ``value``, a Python int or a uint32 array,
    under the running constant ``const``; (hashed value, next constant)."""
    nxt = const * mult & _MASK32
    value = (value ^ const) * nxt & _MASK32
    return value ^ value >> 16, nxt


def _mix(x, y):
    """SeedSequence's mix of the pool word ``x`` with the hashed word ``y``."""
    r = ((_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32)) & _MASK32
    return r ^ r >> 16


def _absorb(pool: list, const: int, words) -> tuple:
    """Mix the entropy ``words`` past the first ``_POOL`` into a copy of
    ``pool``, each into every pool word; (pool, running constant)."""
    pool = list(pool)
    for word in words:
        for dst in range(_POOL):
            hashed, const = _hashmix(word, const, _MULT_A)
            pool[dst] = _mix(pool[dst], hashed)
    return pool, const


def _path_states(seed: int, lo: int, hi: int) -> np.ndarray:
    """(hi - lo, 4) uint64 rows, row p - lo equal to
    ``SeedSequence(seed, spawn_key=(p,)).generate_state(4, np.uint64)``.

    A spawned SeedSequence pads the seed's words to the pool size, so the
    first ``_POOL`` entropy words and the seed's further words are the same
    for every path: their mixing runs once, on Python ints.  Only the spawn
    key's words and the 8 output words are computed per path, on uint32
    arrays of paths.  The range is cut where p crosses a multiple of 2^32:
    there the key's high words change, and at a power of 2^32 the key gains
    a word.
    """
    words = _words(int(seed))
    words += [0] * (_POOL - len(words))
    const, pool = _INIT_A, []
    for word in words[:_POOL]:
        hashed, const = _hashmix(word, const, _MULT_A)
        pool.append(hashed)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                hashed, const = _hashmix(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], hashed)
    pool, const = _absorb(pool, const, words[_POOL:])
    state = np.empty((hi - lo, 2 * _POOL), "<u4")
    a = lo
    while a < hi:
        b = min(hi, ((a >> 32) + 1) << 32)
        key = [(a & _MASK32) + np.arange(b - a, dtype=np.uint32)]
        if a >> 32:
            key += _words(a >> 32)
        mixed, _ = _absorb(pool, const, key)
        out = _INIT_B
        for i in range(2 * _POOL):
            state[a - lo : b - lo, i], out = _hashmix(mixed[i % _POOL], out, _MULT_B)
        a = b
    # word pairs read little-endian, as generate_state reads them
    return state.view("<u8").astype(np.uint64)


class _StateRow(np.random.bit_generator.ISeedSequence):
    """A seed sequence that holds one row of ``_path_states``: the state
    words a PCG64 asks of it, ``generate_state(4, np.uint64)``."""

    def __init__(self, row: np.ndarray):
        self.row = row

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:  # what PCG64 asks
            raise ValueError("a path's state row holds 4 uint64 words only")
        return self.row


class _PairWork:
    """Pair index tables and reusable buffers for one block of b paths.

    The pairs i > j are packed row by row into P = n(n-1)/2 rows of b lanes,
    followed by two sentinel pairs: particle 0 against the row at
    -STABILITY_BOUND and the row at +STABILITY_BOUND against particle n-1.
    ``gather`` reads the upper endpoints of these P+2 pairs from the
    (n+2, b) frame into ``ends[:P+2]`` and the lower ones into ``ends[P+2:]``
    with one ``take``, and writes their differences to ``ext[:P+2]``.

    ``ext`` then holds a packed pair quantity q, the two sentinel gaps, -q, a
    zero row and, given a ``constant``, a row of it.  One ``take`` through
    ``expand`` lays q out as the drift terms ``terms[j, i]`` of particle i,
    with q at i > j, -q at i < j and 0.0 at i == j, and the constant as the
    last term ``terms[n, i]``; ``drift`` receives their sums.
    """

    def __init__(self, n: int, b: int, constant: float | None = None):
        hi, lo = np.tril_indices(n, -1)
        p = len(hi)
        self.ends_index = np.concatenate([hi + 1, [1, n + 1], lo + 1, [0, n]])
        rows = n if constant is None else n + 1  # drift terms per particle
        pos = np.full((rows, n), 2 * p + 2)
        pos[lo, hi] = np.arange(p)
        pos[hi, lo] = p + 2 + np.arange(p)
        pos[n:] = 2 * p + 3
        self.expand = pos.ravel()
        self.ends = np.empty((2 * p + 4, b))
        self.ends_hi, self.ends_lo = self.ends[: p + 2], self.ends[p + 2 :]
        self.lam_hi, self.lam_lo = self.ends[:p], self.ends[p + 2 : 2 * p + 2]
        self.mask = np.empty((p, b), dtype=bool)
        self.ext = np.zeros((2 * p + 3 + rows - n, b))
        if constant is not None:
            self.ext[-1] = constant
        self.gaps = self.ext[: p + 2]
        self.gaps_flat = self.gaps.reshape(-1)  # a 1-D argmin skips axis handling
        self.packed, self.negated = self.ext[:p], self.ext[p + 2 : 2 * p + 2]
        self.terms = np.empty((rows, n, b))
        self.term_rows = self.terms.reshape(rows * n, b)
        self.drift = np.empty((n, b))
        self.min_gap = 0.0

    def gather(self, frame: np.ndarray) -> None:
        """Fill ``gaps`` from ``frame`` and ``min_gap`` with the smallest, NaN
        if any is.  ``_simulate_block`` runs the same calls inline at every
        step."""
        frame.take(self.ends_index, 0, self.ends, "clip")
        np.subtract(self.ends_hi, self.ends_lo, self.gaps)
        self.min_gap = self.gaps_flat[self.gaps_flat.argmin()]

    def gather_columns(self, frame: np.ndarray, cols: np.ndarray) -> None:
        """Refill ``ends`` and ``gaps`` in the path columns ``cols`` only."""
        half = len(self.gaps)
        ends = frame[:, cols].take(self.ends_index, axis=0)
        self.ends[:, cols] = ends
        self.gaps[:, cols] = ends[:half] - ends[half:]

    def summed(self) -> np.ndarray:
        """Lay out the drift terms of ``packed`` and sum each particle's
        into ``drift``, term by term in order of j."""
        np.negative(self.packed, self.negated)
        self.ext.take(self.expand, 0, self.term_rows, "clip")
        return np.add.reduce(self.terms, 0, None, self.drift)


def _inverse_gaps(eps_eff: float, work: _PairWork) -> int:
    """Overwrite the gathered pair gaps ``lam_i - lam_j`` (i > j) of a
    column-sorted state with ``1/max(lam_i - lam_j, eps)``; return the number
    clamped.

    Sorted columns make ``lam_i - lam_j`` equal to ``|lam_i - lam_j|``, so an
    entry is the path-major term ``sign(i-j)/max(|lam_i - lam_j|, eps)`` at
    (i, j) bit for bit, and its negation the term at (j, i): -1/x is -(1/x).
    A smallest gap of at least ``eps`` leaves nothing to clamp.
    """
    gap = work.packed
    clamped = 0
    if work.min_gap < eps_eff:
        np.less(gap, eps_eff, work.mask)
        clamped = int(np.count_nonzero(work.mask))
        np.maximum(gap, eps_eff, out=gap)
    np.divide(1.0, gap, gap)
    return clamped


def _drift_dyson(lam: np.ndarray, eps_eff: float, work: _PairWork):
    """Dyson repulsion ``sum_j 1/(lam_i - lam_j)`` of a column-sorted (n, b)
    state whose gaps ``work`` has gathered, in ``work.drift``."""
    clamped = _inverse_gaps(eps_eff, work)
    return work.summed(), clamped


def _drift_laguerre(lam: np.ndarray, alpha: float, eps_eff: float, work: _PairWork):
    """Laguerre drift ``alpha + sum_j 2 l_i/(l_i-l_j)``, in ``work.drift``,
    with the repulsion written as ``2 l_i/(l_i-l_j) = 1 + (l_i+l_j)/(l_i-l_j)``.

    Only the antisymmetric second part is singular, so only it sees the
    clamp; the pairwise trace drift then stays exactly 2 per pair and the
    first elementary symmetric coordinate keeps its exact drift
    ``N (alpha + N - 1)`` even through clamped near-collisions.  The
    constant ``alpha + N - 1`` is the last term of each particle's sum, a
    row of ``work`` built with this ``alpha``.
    """
    clamped = _inverse_gaps(eps_eff, work)
    np.add(work.lam_hi, work.lam_lo, work.lam_hi)
    np.multiply(work.lam_hi, work.packed, work.packed)
    return work.summed(), clamped


def _sort_in_bounds(frame: np.ndarray):
    """Sort the particles ``frame[1:-1]`` of every path column that is out of
    order in place; return those columns' indices and whether all their
    coordinates are finite and within ``STABILITY_BOUND`` in magnitude.

    ``frame[0]`` and ``frame[-1]`` hold -STABILITY_BOUND and +STABILITY_BOUND,
    so one neighbour test finds every column that is out of order, out of
    bounds or holds a NaN (``~(a >= b)`` is true for NaN); the others are
    sorted and in bounds already.  Only those are sorted, by the row sort a
    path-major state uses, and NaN sorts last.  At least one column must fail
    the test.
    """
    lam = frame[1:-1]
    cols = np.flatnonzero(~(frame[1:] >= frame[:-1]).all(axis=0))
    rows = lam[:, cols].T.copy()
    rows.sort(axis=1)
    lam[:, cols] = rows.T
    return cols, bool(rows[:, 0].min() >= -STABILITY_BOUND and rows[:, -1].max() <= STABILITY_BOUND)


def _check_state(frame: np.ndarray, work: _PairWork, step: int) -> None:
    """Sort the columns out of order in the state reached at ``step``, whose
    gathered gaps include a negative or NaN one, and gather their gaps again;
    raise :class:`StepUnstable` if the state is NaN or out of bounds.

    The smallest gap, the two sentinel gaps included, is at least 0 exactly
    when every column is sorted and within +-STABILITY_BOUND (a rounded
    difference keeps the sign of the exact one, and ``NaN >= 0`` is false),
    so no other state needs this check.
    """
    cols, in_bounds = _sort_in_bounds(frame)
    if not in_bounds:
        err = StepUnstable(
            f"coordinate exceeded {STABILITY_BOUND:g} or became NaN at step {step}; "
            "dt is too large for this beta and N"
        )
        err.step = step
        raise err
    work.gather_columns(frame, cols)


class _NoiseSource:
    """The scaled Brownian increments of paths [lo, hi), drawn in step order.

    Each path owns one generator for the whole block, a PCG64 set from its
    row of ``_path_states``: the state ``SeedSequence(cfg.seed,
    spawn_key=(p,))`` would give it, derived for every path of the block in
    one pass.  Successive draws continue one stream, so neither the chunk
    lengths nor the block decomposition change the output.  ``fill`` draws
    the next chunk ``_PANEL_LANES`` paths at a time into a path-major panel,
    one ``standard_normal`` call per path, transposes each panel at once
    into the step-major chunk, and then scales the whole chunk by the
    diffusion constant times sqrt(dt) in one contiguous pass.
    """

    def __init__(self, cfg: SimConfig, kind: str, lo: int, hi: int):
        self.normals = [
            np.random.Generator(np.random.PCG64(_StateRow(row))).standard_normal
            for row in _path_states(cfg.seed, lo, hi)
        ]
        diffusion = math.sqrt(2.0 / cfg.beta) if kind == DYSON else 2.0 / math.sqrt(cfg.beta)
        self.scale = diffusion * math.sqrt(cfg.dt)
        self.panel = None

    def fill(self, noise: np.ndarray) -> None:
        """Draw the next k steps of every path into ``noise``, (k, n, b)."""
        k, n, b = noise.shape
        if self.panel is None or self.panel.shape[1] < k:
            self.panel = _mapped((min(b, _PANEL_LANES), k, n))
        panel = self.panel[:, :k]
        for c in range(0, b, len(panel)):
            lanes = min(len(panel), b - c)
            for j, normal in enumerate(self.normals[c : c + lanes]):
                normal((k, n), out=panel[j])
            noise[:, :, c : c + lanes] = panel[:lanes].transpose(1, 2, 0)
        np.multiply(noise, self.scale, noise)


def _own_noise(cfg: SimConfig, kind: str, lo: int, hi: int):
    """The noise chunks of paths [lo, hi), drawn in this process into one
    buffer that each chunk reuses, which shares ``_NOISE_BYTES`` with the
    draw panel."""
    b = hi - lo
    source = _NoiseSource(cfg, kind, lo, hi)
    chunk = _chunk_steps(cfg.n_steps, cfg.n, b + min(b, _PANEL_LANES), _NOISE_BYTES)
    noise = _mapped((chunk, cfg.n, b))
    for k in _chunk_lengths(cfg.n_steps, chunk):
        source.fill(noise[:k])
        yield noise[:k]


def _simulate_block(cfg: SimConfig, kind: str, lo: int, hi: int, chunks=None):
    """Simulate paths [lo, hi) over the noise chunks ``chunks`` yields, (k,
    n, b) arrays in step order that cover the run's steps, by default
    ``_own_noise``; returns (data block, clamp count).  A chunk is read
    before the next is asked for.

    The state is lane-major, shape (n, b): particle by path, so every ufunc
    runs over contiguous rows of b paths.  Each step ends with the gather
    the start has, ``_PairWork.gather``: one ``take`` reads the endpoints of
    every pair and of the two sentinel pairs, one ``subtract`` gives their
    gaps, and one reduction of the smallest gap certifies that the state is
    sorted and in bounds and, at or above the floor, unclamped.  Only a gap
    below the floor makes the next drift count clamps, and only a negative or
    NaN one enters ``_check_state``, before the step's record rows are
    stored.  The arrays, the bound methods and the ufuncs of a step are
    looked up once per block.
    """
    if chunks is None:
        chunks = _own_noise(cfg, kind, lo, hi)
    n, dt = cfg.n, cfg.dt
    record_steps = cfg.record_steps()
    slots = {}
    for slot, s in enumerate(record_steps):
        slots.setdefault(s, []).append(slot)
    b = hi - lo

    frame = np.empty((n + 2, b))
    frame[0], frame[-1] = -STABILITY_BOUND, STABILITY_BOUND
    lam = frame[1:-1]
    lam[:] = np.sort(cfg.initial.as_array())[:, None]
    out = np.empty((b, len(record_steps), n))
    dyson = kind == DYSON
    alpha = cfg.alpha
    work = _PairWork(n, b, None if dyson else alpha + (n - 1))
    diffusion = np.empty((n, b))
    eps_eff = max(EPS_GAP, math.sqrt(dt))
    drift_dyson, drift_laguerre = _drift_dyson, _drift_laguerre
    take, ends_index, ends = frame.take, work.ends_index, work.ends
    subtract, ends_hi, ends_lo, gaps = np.subtract, work.ends_hi, work.ends_lo, work.gaps
    gaps_flat = work.gaps_flat
    argmin = gaps_flat.argmin
    add, multiply, sqrt, absolute = np.add, np.multiply, np.sqrt, np.absolute
    dt_array = np.array(dt)  # a 0-d operand skips the Python float's conversion
    clamp_total = 0
    step = 0
    # the start is sorted and finite; one beyond the bounds fails after step 1
    work.gather(frame)
    for slot in slots.get(step, ()):
        out[:, slot] = lam.T
    for noise in chunks:
        for z in noise:
            if dyson:
                drift, clamped = drift_dyson(lam, eps_eff, work)
                multiply(drift, dt_array, drift)
                add(lam, drift, lam)
                add(lam, z, lam)
            else:
                # lam >= 0 here (a -0.0 start only flips the sign of a zero
                # that the abs below clears), so sqrt needs no clamp to 0
                drift, clamped = drift_laguerre(lam, alpha, eps_eff, work)
                sqrt(lam, diffusion)
                multiply(diffusion, z, diffusion)
                multiply(drift, dt_array, drift)
                add(lam, drift, lam)
                add(lam, diffusion, lam)
                absolute(lam, lam)  # reflect at the hard edge
            clamp_total += clamped
            step += 1
            take(ends_index, 0, ends, "clip")
            subtract(ends_hi, ends_lo, gaps)
            work.min_gap = min_gap = gaps_flat[argmin()]
            if not min_gap >= 0.0:
                _check_state(frame, work, step)
            if step in slots:
                for slot in slots[step]:
                    out[:, slot] = lam.T
    return out, clamp_total


def _block_cuts(cfg: SimConfig, lo: int, hi: int) -> list:
    """The (start, end) of each piece of paths [lo, hi) that the serial run's
    blocks cut it into."""
    block = _block_size(cfg.paths, cfg.n_steps, cfg.n)
    cuts = [lo, *range((lo // block + 1) * block, hi, block), hi]
    return list(zip(cuts, cuts[1:]))


def _simulate_range(cfg: SimConfig, kind: str, lo: int, hi: int, drawer=None):
    """Simulate paths [lo, hi) in the pieces the serial run's blocks cut them
    into; returns (data, clamp count).  A :class:`StepUnstable` leaves with
    the index of its block as ``block``, beside the ``step`` that failed.

    Given a ``_Drawer``, each block steps over the noise it sends.  If the
    drawer ends before it sends a chunk, the block is run again with noise
    drawn here, and so is every later block."""
    block = _block_size(cfg.paths, cfg.n_steps, cfg.n)
    results = []
    for a, b in _block_cuts(cfg, lo, hi):
        try:
            try:
                chunks = None if drawer is None else drawer.chunks(cfg, a, b)
                results.append(_simulate_block(cfg, kind, a, b, chunks))
            except _PeerLost:
                drawer = None
                results.append(_simulate_block(cfg, kind, a, b))
        except StepUnstable as exc:
            exc.block = a // block
            raise
    return np.concatenate([r[0] for r in results], axis=0), sum(r[1] for r in results)


def _outcome(cfg: SimConfig, kind: str, lo: int, hi: int, rows, drawer=None):
    """``_simulate_range``'s data and clamp count, with ``rows(cfg, data,
    lo)`` (None without ``rows``), or the StepUnstable it raised."""
    try:
        data, clamped = _simulate_range(cfg, kind, lo, hi, drawer)
    except StepUnstable as exc:
        return exc
    return data, clamped, None if rows is None else rows(cfg, data, lo)


# Per-unit costs of the plan's model, in ns, measured on a 2-vCPU Xeon
# (Python 3.11.7, numpy 2.4.6): a normal drawn, transposed and scaled (13.3-
# 15.2 for blocks of 50-500 paths at n = 4 and 16); the fixed cost of one
# step of a block, whatever its width, and one of a path-step's n^2 drift
# terms, fitted to blocks of 1-400 paths stepped over given noise (4.4 us and
# 1.6 ns for Dyson, 5.5 us and 2.2 ns for Laguerre at n = 4); and one
# particle row formatted.
_COST_NORMAL = 14.0
_COST_STEP = 5000.0
_COST_TERM = 1.9
_COST_ROW = 2000.0


def _plan(paths: int, n: int, steps: int, slots: int, cores: int) -> tuple:
    """(path ranges, whether a drawer process draws their noise) for a run
    of this shape on ``cores`` usable cores, where forking is safe.

    A run forks only if it holds at least ``_SHARD_WORK`` paths x steps x
    n^2 and gives each of two or more ranges ``_SHARD_MIN_PATHS`` paths.  It
    then takes the plan with the shorter predicted critical path.  The path
    plan runs one range per core, each process drawing and stepping its own
    paths, so it pays every step's fixed cost in each range.  The stage plan
    runs one range: a drawer child draws every path's noise while the caller
    steps all of them, so the slower of the two stages sets its time, and
    the caller formats every row.
    """
    ranges = min(cores, paths // _SHARD_MIN_PATHS)
    if paths * steps * n**2 < _SHARD_WORK or ranges < 2:
        return 1, False

    def draw(p):
        return p * n * steps * _COST_NORMAL

    def step(p):
        return steps * (_COST_STEP + p * n * n * _COST_TERM)

    share = paths / ranges
    path = draw(share) + step(share) + share * slots * _COST_ROW
    stage = max(draw(paths), step(paths)) + paths * slots * _COST_ROW
    return (1, True) if stage < path else (ranges, False)


def _run_plan(cfg: SimConfig) -> tuple:
    """``_plan`` for ``cfg`` where forking is safe (Linux, and no thread but
    this one alive); else one range and no drawer."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1, False
    if threading.active_count() != 1:  # fork is unsafe while another thread runs
        return 1, False
    return _plan(cfg.paths, cfg.n, cfg.n_steps, len(cfg.record_times), _usable_cores())


def _usable_cores() -> int:
    """Cores this process may run on: its CPU affinity where the platform
    reports one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class _PeerLost(Exception):
    """The other end of a stage-plan pipe was closed: its process ended."""


def _ring_chunks(cfg: SimConfig, ring: np.ndarray, lo: int, hi: int, receive: int, send: int):
    """The ring slots that carry the noise chunks of paths [lo, hi), as (k,
    n, b) views in step order.  Each slot's index is first read from the
    pipe ``receive``, and is written to ``send`` when the next view is asked
    for: the drawer takes free slots and passes them on filled, the caller
    takes filled ones and hands them back free.  Raises ``_PeerLost`` at
    end of file, and a ``send`` to an ended process is dropped, as the next
    read then ends."""
    n, b = cfg.n, hi - lo
    chunk = _chunk_steps(cfg.n_steps, n, b, _NOISE_BYTES // 2)
    for k in _chunk_lengths(cfg.n_steps, chunk):
        token = os.read(receive, 1)
        if not token:
            raise _PeerLost
        yield ring[token[0], : k * n * b].reshape(k, n, b)
        with contextlib.suppress(BrokenPipeError):
            os.write(send, token)


class _Drawer:
    """The caller's end of the stage plan: the ring, the read end of the
    pipe that carries filled slots and the write end of the one that takes
    them back."""

    def __init__(self, ring: np.ndarray, filled: int, free: int):
        self.ring, self.filled, self.free = ring, filled, free

    def chunks(self, cfg: SimConfig, lo: int, hi: int):
        return _ring_chunks(cfg, self.ring, lo, hi, self.filled, self.free)

    def close(self) -> None:
        os.close(self.filled)
        os.close(self.free)


def _fork_drawer(cfg: SimConfig, kind: str, mask):
    """Start the stage plan's drawer, a child that draws the noise of every
    block of the run into a ring of two slots in shared memory and exits;
    (pid, ``_Drawer``), or None if it could not be started.

    A slot holds the largest chunk of any block: half of ``_NOISE_BYTES``,
    or more where a wide block's shortest chunk needs it.  Both slots start
    free: their indices are written to the pipe the drawer takes them from
    before it is forked.  Each process closes the pipe ends it does not use,
    so either sees the other's end as end of file.  The child leaves by
    ``os._exit``, as ``_fork_range``'s do.
    """
    widths = [b - a for a, b in _block_cuts(cfg, 0, cfg.paths)]
    slot = max(_chunk_steps(cfg.n_steps, cfg.n, b, _NOISE_BYTES // 2) * cfg.n * b for b in widths)
    fds = []
    try:
        ring = _mapped((2, slot))
        fds += os.pipe()
        fds += os.pipe()
        os.write(fds[3], bytes([0, 1]))
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return None
    filled_r, filled_w, free_r, free_w = fds
    if pid == 0:
        code = 1
        try:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            os.close(filled_r)
            os.close(free_w)
            for lo, hi in _block_cuts(cfg, 0, cfg.paths):
                source = _NoiseSource(cfg, kind, lo, hi)
                for noise in _ring_chunks(cfg, ring, lo, hi, free_r, filled_w):
                    source.fill(noise)
            code = 0
        finally:
            os._exit(code)
    os.close(filled_w)
    os.close(free_r)
    return pid, _Drawer(ring, filled_r, free_w)


def _fork_range(cfg: SimConfig, kind: str, lo: int, hi: int, rows, mask):
    """Start a child that sends ``_outcome`` of paths [lo, hi) through a
    pipe and exits; (pid, read end of the pipe), or None if no child could be
    started.  The child leaves by ``os._exit``, so it never flushes stdio
    buffers or runs cleanup it inherited from this process."""
    try:
        r, w = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        code = 1
        try:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            outcome = _outcome(cfg, kind, lo, hi, rows)
            with open(w, "wb") as pipe:
                pickle.dump(outcome, pipe, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, open(r, "rb")


def _receive(pid: int, pipe):
    """Read a child's outcome from ``pipe`` and reap the child; None if it
    exited without sending one."""
    with pipe:
        payload = pipe.read()
    return pickle.loads(payload) if os.waitpid(pid, 0)[1] == 0 else None


def _simulate(cfg: SimConfig, kind: str, rows=None) -> PathEnsemble:
    """Run ``cfg``'s paths by the plan ``_run_plan`` picks: in contiguous
    ranges, the first here and each other one in a forked child (the path
    plan, or the serial run for a single range), or in one range here over
    the noise a forked drawer sends (the stage plan).

    A Laguerre run's alpha and start are checked first.  Each range's
    process also calls ``rows``, if given, on the range's data.

    A range whose child could not be started or exited without sending a
    result is run here, and so is the noise of a drawer that could not be
    started or ended early, so the output never depends on a child.  If
    ranges raise StepUnstable, the one of the earliest block, and in it of
    the earliest step, is raised: what the serial run raises.  Any other
    error kills the children still running.  Every child is reaped before
    this returns or raises, and SIGINT is held off while they are forked, so
    an interrupt cannot leave one unrecorded.
    """
    if kind == LAGUERRE:
        check_real("alpha", cfg.alpha, 0.0)
        if cfg.initial.roots[0] < 0.0:
            raise InvalidParameter("Laguerre initial data must be nonnegative")
    shards, staged = _run_plan(cfg)
    ranges = [(cfg.paths * w // shards, cfg.paths * (w + 1) // shards) for w in range(shards)]
    children = {}  # range index, or 0 for the drawer: (pid, what to close)
    try:
        if shards > 1 or staged:  # pthread_sigmask exists where _run_plan forks
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                if staged:
                    children[0] = _fork_drawer(cfg, kind, mask)
                for i, (lo, hi) in enumerate(ranges[1:], 1):
                    children[i] = _fork_range(cfg, kind, lo, hi, rows, mask)
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        drawer = children[0][1] if children.get(0) else None
        outcomes = [_outcome(cfg, kind, *ranges[0], rows, drawer)]
        for i, (lo, hi) in enumerate(ranges[1:], 1):
            outcome = _receive(*children[i]) if children[i] else None
            del children[i]
            outcomes.append(_outcome(cfg, kind, lo, hi, rows) if outcome is None else outcome)
    finally:
        for pid, pipe in filter(None, children.values()):
            pipe.close()
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
    failures = [o for o in outcomes if isinstance(o, StepUnstable)]
    if failures:
        raise min(failures, key=lambda exc: (exc.block, exc.step))
    data = outcomes[0][0] if shards == 1 else np.concatenate([o[0] for o in outcomes], axis=0)
    clamped = sum(o[1] for o in outcomes)
    if rows is None:
        return PathEnsemble(data, cfg, kind, clamped)
    return _FormattedEnsemble(data, cfg, kind, clamped, tuple(o[2] for o in outcomes))


def simulate_dyson(cfg: SimConfig, *, rows=None) -> PathEnsemble:
    """Euler-Maruyama paths of the beta Dyson system
    ``d lambda_i = sqrt(2/beta) db_i + sum_(j != i) dt / (lambda_i - lambda_j)``.

    Tuples are re-sorted after every step.  The output is a function of the
    config alone (its seed included): bit-identical however the paths are
    blocked or sharded over cores.  Raises :class:`StepUnstable` if any
    coordinate passes 1e8 in magnitude or becomes NaN.  ``rows(cfg, data,
    lo)``, if given, runs on each path range [lo, lo + len(data)) in the
    process that simulated it; the ensemble's ``rows`` holds the results.
    """
    return _simulate(cfg, DYSON, rows)


def simulate_laguerre(cfg: SimConfig, *, rows=None) -> PathEnsemble:
    """Euler-Maruyama paths of the beta Laguerre system
    ``d lambda_i = (2/sqrt(beta)) sqrt(lambda_i) db_i + alpha dt
    + sum_(j != i) 2 lambda_i dt / (lambda_i - lambda_j)``.

    Negative coordinates are reflected to their absolute value after each
    step, keeping the paths entrywise nonnegative.  ``rows`` is as for
    :func:`simulate_dyson`.
    """
    return _simulate(cfg, LAGUERRE, rows)


def _chi_matrix(dofs: np.ndarray, rng: np.random.Generator, size: int) -> np.ndarray:
    """(len(dofs), size) chi draws, one row per degrees-of-freedom value.

    Each is the square root of a gamma(k/2, scale 2) draw; the generator's
    gamma sampler is the Marsaglia-Tsang rejection method, valid for every
    positive (including non-integer) shape.
    """
    out = np.empty((len(dofs), size))
    for row, dof in zip(out, dofs):
        rng.standard_gamma(dof / 2.0, size, out=row)
    return np.sqrt(np.multiply(out, 2.0, out=out), out=out)


def gbe_tridiagonal_batch(beta: float, n: int, size: int, rng: np.random.Generator):
    """Diagonals and off-diagonals of ``size`` Gaussian beta ensemble matrices:
    N(0, 2)/sqrt(beta) diagonal, chi_((N-i) beta)/sqrt(beta) off-diagonal, as
    (size, n) and (size, n-1) views of lane-major arrays."""
    diag = np.empty((n, size))
    np.divide(rng.normal(0.0, math.sqrt(2.0), (size, n)).T, math.sqrt(beta), out=diag)
    dofs = np.array([(n - i) * beta for i in range(1, n)])
    off = _chi_matrix(dofs, rng, size)
    off /= math.sqrt(beta)
    return diag.T, off.T


def sample_gbe_batch(beta: float, n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """(size, n) sorted eigenvalue samples of the Gaussian beta ensemble."""
    check_real("beta", beta, 0.0)
    check_int("n", n, 1)
    check_int("size", size, 0)
    diag, off = gbe_tridiagonal_batch(beta, n, size, rng)
    return eigen_tridiag_batch(diag, off)


def ble_tridiagonal_batch(beta: float, alpha: float, n: int, size: int, rng):
    """Tridiagonal factors B^T B of ``size`` beta Laguerre bidiagonal models
    (views, as :func:`gbe_tridiagonal_batch` returns).

    B has chi_(beta(alpha+N-i)) diagonal and chi_(beta(N-i)) subdiagonal
    entries, each divided by sqrt(beta).
    """
    bdiag = _chi_matrix(np.array([beta * (alpha + (n - i)) for i in range(1, n + 1)]), rng, size)
    bdiag /= math.sqrt(beta)
    bsub = _chi_matrix(np.array([beta * (n - i) for i in range(1, n)]), rng, size)
    bsub /= math.sqrt(beta)
    off = np.multiply(bsub, bdiag[1:])
    diag = np.square(bdiag, out=bdiag)
    diag[:-1] += np.square(bsub, out=bsub)
    return diag.T, off.T


def sample_ble_batch(beta: float, alpha: float, n: int, size: int, rng) -> np.ndarray:
    """(size, n) sorted eigenvalue samples of the beta Laguerre ensemble."""
    check_real("beta", beta, 0.0)
    check_real("alpha", alpha, 0.0)
    check_int("n", n, 1)
    check_int("size", size, 0)
    diag, off = ble_tridiagonal_batch(beta, alpha, n, size, rng)
    evs = eigen_tridiag_batch(diag, off)
    # Gram-matrix spectrum: clip the roundoff of exact zeros
    return np.maximum(evs, 0.0, out=evs)

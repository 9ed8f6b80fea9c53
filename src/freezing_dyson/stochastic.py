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
seeded by child p of ``SeedSequence(seed).spawn(paths)``, and draws its noise
from it in chunks of ``_NOISE_CHUNK_STEPS`` steps.  Successive draws continue
one stream, so results are bit-identical however the paths are blocked and
however long the chunks are, and a block's memory is bounded by chunk length
times block width rather than by the horizon.

Paths are integrated in blocks, lane-major: a block of b paths holds its
state as an (n, b) array, particle by path, and its n(n-1)/2 pair gaps as
packed rows of b lanes, so every array operation runs over contiguous rows of
paths.  The drift terms of a particle are added left to right, and the noise
is scaled once as it is drawn; the tests keep a path-major formulation in
the same order as the oracle, which the output equals bit for bit.

A step makes one gather and one reduction before its drift: a single
``take`` reads the endpoints of every pair and of two sentinel pairs (the
lowest particle against -STABILITY_BOUND, the highest against
+STABILITY_BOUND), and the smallest of the resulting gaps decides what
guard work the step needs.  At least the floor: the state is sorted, finite,
in bounds and unclamped, and there is none.  At least 0: the state is sorted
and in bounds, and only the clamps are counted.  Negative or NaN: the
columns out of order are re-sorted, their bounds checked and their gaps
gathered again.  The check of step s thus runs at the start of step s+1,
and once more after the last step.
"""

import math
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
    "sample_gbe",
    "sample_ble",
]

EPS_GAP = 1e-8
STABILITY_BOUND = 1e8
_NOISE_CHUNK_STEPS = 128  # steps of noise each path draws per generator call
_BLOCK_BYTES = 1 << 26  # working-memory budget of one block of paths (64 MB)
_TRANSPOSE_LANES = 64  # paths per slice of the noise transpose

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
        if self.initial.n != self.n:
            raise InvalidParameter("initial tuple must have length n")
        check_real("t_end", self.t_end, 0.0, inclusive=True)
        check_real("dt", self.dt, 0.0)
        check_int("seed", self.seed, 0)
        check_int("paths", self.paths, 1)
        if self.alpha is not None:  # checked where it is used; only finite here
            check_real("alpha", self.alpha, -math.inf)
        for t in self.record_times:
            check_real("record time", t, 0.0, inclusive=True)
        rec = tuple(float(t) for t in self.record_times) or (self.t_end,)
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


def _path_bytes(n_steps: int, n: int) -> int:
    """Working memory of one path in a block: its noise chunk, drawn and then
    transposed, and its share of the pair buffers (``_PairWork``): 2(P+2)
    gathered endpoints, P+2 gaps with P negations and a zero, n*n drift terms
    and a P-entry clamp mask, for P = n(n-1)/2 pairs."""
    p = n * (n - 1) // 2
    chunk = min(max(n_steps, 1), _NOISE_CHUNK_STEPS)
    return 8 * (2 * chunk * n + (2 * p + 4) + (2 * p + 3) + n * n) + p


def _block_size(paths: int, n_steps: int, n: int) -> int:
    return max(1, min(paths, _BLOCK_BYTES // _path_bytes(n_steps, n)))


class _PairWork:
    """Pair index tables and reusable buffers for one block of b paths.

    The pairs i > j are packed row by row into P = n(n-1)/2 rows of b lanes,
    followed by two sentinel pairs: particle 0 against the row at
    -STABILITY_BOUND and the row at +STABILITY_BOUND against particle n-1.
    ``gather`` reads the upper endpoints of these P+2 pairs from the
    (n+2, b) frame into ``ends[:P+2]`` and the lower ones into ``ends[P+2:]``
    with one ``take``, and writes their differences to ``ext[:P+2]``.

    ``ext`` then holds a packed pair quantity q, the two sentinel gaps, -q and
    a zero row, and one ``take`` through ``expand`` lays q out as the drift
    terms ``terms[j, i]`` of particle i, with q at i > j, -q at i < j and 0.0
    at i == j.
    """

    def __init__(self, n: int, b: int):
        hi, lo = np.tril_indices(n, -1)
        p = len(hi)
        self.ends_index = np.concatenate([hi + 1, [1, n + 1], lo + 1, [0, n]])
        pos = np.full((n, n), 2 * p + 2)
        pos[hi, lo] = np.arange(p)
        pos[lo, hi] = p + 2 + np.arange(p)
        self.expand = pos.T.ravel()
        self.ends = np.empty((2 * p + 4, b))
        self.ends_hi, self.ends_lo = self.ends[: p + 2], self.ends[p + 2 :]
        self.lam_hi, self.lam_lo = self.ends[:p], self.ends[p + 2 : 2 * p + 2]
        self.mask = np.empty((p, b), dtype=bool)
        self.ext = np.zeros((2 * p + 3, b))
        self.gaps = self.ext[: p + 2]
        self.gaps_flat = self.gaps.reshape(-1)  # a 1-D reduce skips axis handling
        self.packed, self.negated = self.ext[:p], self.ext[p + 2 : 2 * p + 2]
        self.terms = np.empty((n, n, b))
        self.term_rows = self.terms.reshape(n * n, b)
        self.min_gap = 0.0

    def gather(self, frame: np.ndarray) -> float:
        """Fill ``gaps`` from ``frame`` and return the smallest, NaN if any is."""
        frame.take(self.ends_index, axis=0, out=self.ends, mode="clip")
        np.subtract(self.ends_hi, self.ends_lo, out=self.gaps)
        self.min_gap = float(np.minimum.reduce(self.gaps_flat))
        return self.min_gap

    def gather_columns(self, frame: np.ndarray, cols: np.ndarray) -> None:
        """Refill ``ends`` and ``gaps`` in the path columns ``cols`` only."""
        half = len(self.gaps)
        ends = frame[:, cols].take(self.ends_index, axis=0)
        self.ends[:, cols] = ends
        self.gaps[:, cols] = ends[:half] - ends[half:]

    def expanded(self) -> np.ndarray:
        np.negative(self.packed, out=self.negated)
        self.ext.take(self.expand, axis=0, out=self.term_rows, mode="clip")
        return self.terms


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
        np.less(gap, eps_eff, out=work.mask)
        clamped = int(np.count_nonzero(work.mask))
        np.maximum(gap, eps_eff, out=gap)
    np.divide(1.0, gap, out=gap)
    return clamped


def _drift_dyson(lam: np.ndarray, eps_eff: float, work: _PairWork):
    """Dyson repulsion ``sum_j 1/(lam_i - lam_j)`` of a column-sorted (n, b)
    state whose gaps ``work`` has gathered."""
    clamped = _inverse_gaps(eps_eff, work)
    return np.add.reduce(work.expanded(), axis=0), clamped


def _drift_laguerre(lam: np.ndarray, alpha: float, eps_eff: float, work: _PairWork):
    """Laguerre repulsion written as ``2 l_i/(l_i-l_j) = 1 + (l_i+l_j)/(l_i-l_j)``.

    Only the antisymmetric second part is singular, so only it sees the
    clamp; the pairwise trace drift then stays exactly 2 per pair and the
    first elementary symmetric coordinate keeps its exact drift
    ``N (alpha + N - 1)`` even through clamped near-collisions.
    """
    clamped = _inverse_gaps(eps_eff, work)
    np.add(work.lam_hi, work.lam_lo, out=work.lam_hi)
    np.multiply(work.lam_hi, work.packed, out=work.packed)
    drift = np.add.reduce(work.expanded(), axis=0)
    drift += alpha + (lam.shape[0] - 1)
    return drift, clamped


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
    """Gather the gaps of the state reached at ``step``, sorting any column
    that is out of order; raise :class:`StepUnstable` if the state is NaN or
    out of bounds.

    One reduction decides.  The smallest gap, the two sentinel gaps
    included, is at least 0 exactly when every column is sorted and within
    +-STABILITY_BOUND (a rounded difference keeps the sign of the exact one,
    and ``NaN >= 0`` is false), and at least ``eps_eff`` when, besides, no
    pair needs a clamp.  Only a negative or NaN gap runs the full check,
    which re-sorts and re-gathers just the columns out of order.  The start
    (step 0) raises nothing: a start beyond the bounds fails the check after
    step 1.
    """
    if work.gather(frame) >= 0.0:
        return
    cols, in_bounds = _sort_in_bounds(frame)
    if step and not in_bounds:
        raise StepUnstable(
            f"coordinate exceeded {STABILITY_BOUND:g} or became NaN at step {step}; "
            "dt is too large for this beta and N"
        )
    work.gather_columns(frame, cols)


def _simulate_block(cfg: SimConfig, kind: str, children, lo: int, hi: int):
    """Simulate paths [lo, hi); returns (data block, clamp count).

    The state is lane-major, shape (n, b): particle by path, so every ufunc
    runs over contiguous rows of b paths.  Each path owns one generator for
    the whole block and draws its noise in chunks of ``_NOISE_CHUNK_STEPS``
    steps; successive draws continue one stream, so neither the chunk length
    nor the block decomposition changes the output.  Each chunk is scaled by
    its diffusion constant times sqrt(dt) as it is transposed to step-major,
    in slices of ``_TRANSPOSE_LANES`` paths that keep the strided reads within
    cache.

    Each step starts with ``_check_state``: one ``take`` gathers the
    endpoints of every pair and of the two sentinel pairs, one ``subtract``
    gives their gaps, and one reduction of the smallest gap certifies that
    the state the previous step left is sorted and in bounds, and, at or
    above the floor, unclamped.  Only a gap below the floor makes the drift
    count clamps, and only a negative or NaN one re-sorts columns and checks
    the bounds.  So the check of step s runs at the start of step s+1,
    before a record row is stored, and once more after the last step.
    """
    n, dt = cfg.n, cfg.dt
    n_steps = cfg.n_steps
    record_steps = cfg.record_steps()
    slots = {}
    for slot, s in enumerate(record_steps):
        slots.setdefault(s, []).append(slot)
    b = hi - lo
    gens = [np.random.Generator(np.random.PCG64(children[p])) for p in range(lo, hi)]
    chunk = min(n_steps, _NOISE_CHUNK_STEPS)
    drawn = np.empty((b, chunk, n))
    noise = np.empty((chunk, n, b))

    frame = np.empty((n + 2, b))
    frame[0], frame[-1] = -STABILITY_BOUND, STABILITY_BOUND
    lam = frame[1:-1]
    lam[:] = np.sort(cfg.initial.as_array())[:, None]
    out = np.empty((b, len(record_steps), n))
    work = _PairWork(n, b)
    diffusion = np.empty((n, b))
    eps_eff = max(EPS_GAP, math.sqrt(dt))
    diffusion_constant = math.sqrt(2.0 / cfg.beta) if kind == DYSON else 2.0 / math.sqrt(cfg.beta)
    noise_scale = diffusion_constant * math.sqrt(dt)
    clamp_total = 0
    step = 0
    for slot in slots.pop(0, ()):
        out[:, slot] = lam.T
    while step < n_steps:
        k = min(chunk, n_steps - step)
        for col, gen in enumerate(gens):
            gen.standard_normal((k, n), out=drawn[col, :k])
        for c in range(0, b, _TRANSPOSE_LANES):
            lanes = slice(c, c + _TRANSPOSE_LANES)
            panel = drawn[lanes, :k].transpose(1, 2, 0)
            np.multiply(noise_scale, panel, out=noise[:k, :, lanes])
        for z in noise[:k]:
            _check_state(frame, work, step)
            for slot in slots.get(step, ()):
                out[:, slot] = lam.T
            step += 1
            if kind == DYSON:
                drift, clamped = _drift_dyson(lam, eps_eff, work)
                drift *= dt
                lam += drift
                lam += z
            else:
                drift, clamped = _drift_laguerre(lam, cfg.alpha, eps_eff, work)
                np.maximum(lam, 0.0, out=diffusion)
                np.sqrt(diffusion, out=diffusion)
                diffusion *= z
                drift *= dt
                lam += drift
                lam += diffusion
                np.abs(lam, out=lam)  # reflect at the hard edge
            clamp_total += clamped
    _check_state(frame, work, step)
    for slot in slots.get(step, ()):
        out[:, slot] = lam.T
    return out, clamp_total


def _simulate(cfg: SimConfig, kind: str) -> PathEnsemble:
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.paths)
    block = _block_size(cfg.paths, cfg.n_steps, cfg.n)
    results = [
        _simulate_block(cfg, kind, children, lo, min(lo + block, cfg.paths))
        for lo in range(0, cfg.paths, block)
    ]
    data = np.concatenate([r[0] for r in results], axis=0)
    clamps = sum(r[1] for r in results)
    return PathEnsemble(data, cfg, kind, clamps)


def simulate_dyson(cfg: SimConfig) -> PathEnsemble:
    """Euler-Maruyama paths of the beta Dyson system
    ``d lambda_i = sqrt(2/beta) db_i + sum_(j != i) dt / (lambda_i - lambda_j)``.

    Tuples are re-sorted after every step; output is deterministic in
    (config, seed).  Raises
    :class:`StepUnstable` if any coordinate passes 1e8 in magnitude or becomes NaN.
    """
    return _simulate(cfg, DYSON)


def simulate_laguerre(cfg: SimConfig) -> PathEnsemble:
    """Euler-Maruyama paths of the beta Laguerre system
    ``d lambda_i = (2/sqrt(beta)) sqrt(lambda_i) db_i + alpha dt
    + sum_(j != i) 2 lambda_i dt / (lambda_i - lambda_j)``.

    Negative coordinates are reflected to their absolute value after each
    step, keeping the paths entrywise nonnegative.
    """
    check_real("alpha", cfg.alpha, 0.0)
    if cfg.initial.roots[0] < 0.0:
        raise InvalidParameter("Laguerre initial data must be nonnegative")
    return _simulate(cfg, LAGUERRE)


def _chi_matrix(dofs: np.ndarray, rng: np.random.Generator, size: int) -> np.ndarray:
    """(size, len(dofs)) chi draws, one column per degrees-of-freedom value.

    Each is the square root of a gamma(k/2, scale 2) draw; the generator's
    gamma sampler is the Marsaglia-Tsang rejection method, valid for every
    positive (including non-integer) shape.
    """
    out = np.empty((size, len(dofs)))
    for j, dof in enumerate(dofs):
        out[:, j] = np.sqrt(2.0 * rng.standard_gamma(dof / 2.0, size))
    return out


def gbe_tridiagonal_batch(beta: float, n: int, size: int, rng: np.random.Generator):
    """Diagonals and off-diagonals of ``size`` Gaussian beta ensemble matrices."""
    diag = rng.normal(0.0, math.sqrt(2.0), (size, n)) / math.sqrt(beta)
    if n == 1:
        return diag, np.empty((size, 0))
    dofs = np.array([(n - i) * beta for i in range(1, n)])
    off = _chi_matrix(dofs, rng, size) / math.sqrt(beta)
    return diag, off


def sample_gbe_batch(beta: float, n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """(size, n) sorted eigenvalue samples of the Gaussian beta ensemble."""
    check_real("beta", beta, 0.0)
    check_int("n", n, 1)
    check_int("size", size, 0)
    diag, off = gbe_tridiagonal_batch(beta, n, size, rng)
    return eigen_tridiag_batch(diag, off)


def sample_gbe(beta: float, n: int, seed: int) -> RootTuple:
    """One Gaussian beta ensemble draw: sorted eigenvalues of the tridiagonal
    model with N(0, 2)/sqrt(beta) diagonal and chi_((N-i) beta)/sqrt(beta)
    off-diagonal."""
    check_int("seed", seed, 0)
    return RootTuple(tuple(sample_gbe_batch(beta, n, 1, np.random.default_rng(seed))[0]))


def ble_tridiagonal_batch(beta: float, alpha: float, n: int, size: int, rng):
    """Tridiagonal factors B^T B of ``size`` beta Laguerre bidiagonal models.

    B has chi_(beta(alpha+N-i)) diagonal and chi_(beta(N-i)) subdiagonal
    entries, each divided by sqrt(beta).
    """
    bdiag_dofs = np.array([beta * (alpha + n - i) for i in range(1, n + 1)])
    bdiag = _chi_matrix(bdiag_dofs, rng, size) / math.sqrt(beta)
    if n == 1:
        return bdiag**2, np.empty((size, 0))
    bsub_dofs = np.array([beta * (n - i) for i in range(1, n)])
    bsub = _chi_matrix(bsub_dofs, rng, size) / math.sqrt(beta)
    diag = bdiag**2
    diag[:, :-1] += bsub**2
    off = bsub * bdiag[:, 1:]
    return diag, off


def sample_ble_batch(beta: float, alpha: float, n: int, size: int, rng) -> np.ndarray:
    """(size, n) sorted eigenvalue samples of the beta Laguerre ensemble."""
    check_real("beta", beta, 0.0)
    check_real("alpha", alpha, 0.0)
    check_int("n", n, 1)
    check_int("size", size, 0)
    diag, off = ble_tridiagonal_batch(beta, alpha, n, size, rng)
    evs = eigen_tridiag_batch(diag, off)
    # Gram-matrix spectrum: clip the roundoff of exact zeros
    return np.maximum(evs, 0.0)


def sample_ble(beta: float, alpha: float, n: int, seed: int) -> RootTuple:
    """One beta Laguerre ensemble draw: sorted eigenvalues of B^T B."""
    check_int("seed", seed, 0)
    return RootTuple(tuple(sample_ble_batch(beta, alpha, n, 1, np.random.default_rng(seed))[0]))

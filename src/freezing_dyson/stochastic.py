"""Monte Carlo engines: interacting-particle SDE simulation and static samplers.

The Dyson and Laguerre eigenvalue processes are integrated by explicit
Euler-Maruyama with per-step re-sorting.  Repulsion denominators are floored
at ``max(1e-8, sqrt(dt))``: the hard 1e-8 floor alone lets tied starts (the
zero initial condition in particular) produce order dt/1e-8 kicks, while the
sqrt(dt) floor reproduces the exact two-particle collision solution
``gap(dt) = 2 sqrt(dt)`` and switches itself off as soon as gaps exceed the
one-step diffusion scale.  Clamp activations are counted and reported as
ensemble metadata.

Randomness is organized as counter-based per-path streams: path p draws its
entire noise panel from a generator seeded by ``SeedSequence(seed).spawn(p)``,
so results are bit-identical no matter how paths are blocked.
"""

import math
from dataclasses import dataclass

import numpy as np

from .elemsym import RootTuple
from .errors import InvalidParameter, StepUnstable
from .orthopoly import eigen_tridiag_batch

__all__ = [
    "SimConfig",
    "PathEnsemble",
    "simulate_dyson",
    "simulate_laguerre",
    "sample_gbe",
    "sample_ble",
    "chi_sample",
]

EPS_GAP = 1e-8
STABILITY_BOUND = 1e8
_NOISE_BLOCK_BYTES = 1 << 26  # per-block noise panel budget (64 MB)

DYSON = "dyson"
LAGUERRE = "laguerre"


@dataclass(frozen=True)
class SimConfig:
    """Complete, reproducible description of one simulation run."""

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
        rec = tuple(float(t) for t in self.record_times)
        alpha = () if self.alpha is None else (self.alpha,)
        if not all(math.isfinite(v) for v in (self.beta, self.dt, self.t_end, *alpha, *rec)):
            raise InvalidParameter("beta, dt, t_end, alpha and record_times must be finite")
        if self.beta < 1.0:
            raise InvalidParameter("SDE simulation needs beta >= 1")
        if self.n < 1 or self.initial.n != self.n:
            raise InvalidParameter("initial tuple must have length n >= 1")
        if self.dt <= 0.0:
            raise InvalidParameter("dt must be positive")
        if self.paths < 1:
            raise InvalidParameter("paths must be >= 1")
        if self.t_end < 0.0:
            raise InvalidParameter("t_end must be >= 0")
        if not rec:
            rec = (self.t_end,)
        if any(b < a for a, b in zip(rec, rec[1:])):
            raise InvalidParameter("record_times must be sorted ascending")
        if rec[0] < 0.0 or rec[-1] > self.t_end + 1e-12:
            raise InvalidParameter("record_times must lie within [0, t_end]")
        object.__setattr__(self, "record_times", rec)

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))

    def record_steps(self) -> list:
        """Step indices of the record times, snapped to the dt grid."""
        return [min(self.n_steps, int(round(t / self.dt))) for t in self.record_times]


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

    def records(self, path: int, slot: int) -> RootTuple:
        return RootTuple(tuple(self.data[path, slot]))


def _block_size(paths: int, n_steps: int, n: int) -> int:
    per_path = max(1, n_steps * n * 8)
    return max(1, min(paths, _NOISE_BLOCK_BYTES // per_path))


def _inverse_gaps(lam: np.ndarray, inv_sign: np.ndarray, eps_eff: float):
    """Signed clamped inverse pair gaps ``+-1/max(|gap|, eps)``; counts clamps."""
    d = lam[:, :, None] - lam[:, None, :]
    ad = np.abs(d)
    clamped = int(np.count_nonzero(ad[:, inv_sign > 0] < eps_eff))
    np.maximum(ad, eps_eff, out=ad)
    return inv_sign / ad, clamped


def _drift_dyson(lam: np.ndarray, inv_sign: np.ndarray, eps_eff: float):
    inv, clamped = _inverse_gaps(lam, inv_sign, eps_eff)
    return np.sum(inv, axis=2), clamped


def _drift_laguerre(lam: np.ndarray, alpha: float, inv_sign: np.ndarray, eps_eff: float):
    """Laguerre repulsion written as ``2 l_i/(l_i-l_j) = 1 + (l_i+l_j)/(l_i-l_j)``.

    Only the antisymmetric second part is singular, so only it sees the
    clamp; the pairwise trace drift then stays exactly 2 per pair and the
    first elementary symmetric coordinate keeps its exact drift
    ``N (alpha + N - 1)`` even through clamped near-collisions.
    """
    n = lam.shape[1]
    inv, clamped = _inverse_gaps(lam, inv_sign, eps_eff)
    s = lam[:, :, None] + lam[:, None, :]
    return alpha + (n - 1) + np.sum(s * inv, axis=2), clamped


def _simulate_block(cfg: SimConfig, kind: str, children, lo: int, hi: int):
    """Simulate paths [lo, hi); returns (data block, clamp count).

    Each path draws its full noise panel in one call from its own generator,
    making the block decomposition immaterial to the output.
    """
    n, dt = cfg.n, cfg.dt
    n_steps = cfg.n_steps
    record_steps = cfg.record_steps()
    b = hi - lo
    noise = np.empty((b, n_steps, n))
    for p in range(lo, hi):
        gen = np.random.Generator(np.random.PCG64(children[p]))
        noise[p - lo] = gen.standard_normal((n_steps, n))

    lam = np.tile(cfg.initial.as_array(), (b, 1))
    lam.sort(axis=1)
    out = np.empty((b, len(record_steps), n))
    for slot, s in enumerate(record_steps):
        if s == 0:
            out[:, slot] = lam
    # sign matrix by index order: +1 above the diagonal row-wise (i > j)
    inv_sign = np.sign(np.arange(n)[:, None] - np.arange(n)[None, :]).astype(float)
    eps_eff = max(EPS_GAP, math.sqrt(dt))
    sqdt = math.sqrt(dt)
    clamp_total = 0
    for step in range(n_steps):
        if kind == DYSON:
            drift, clamped = _drift_dyson(lam, inv_sign, eps_eff)
            lam = lam + drift * dt + math.sqrt(2.0 / cfg.beta) * sqdt * noise[:, step]
        else:
            drift, clamped = _drift_laguerre(lam, cfg.alpha, inv_sign, eps_eff)
            diffusion = (2.0 / math.sqrt(cfg.beta)) * np.sqrt(np.maximum(lam, 0.0))
            lam = lam + drift * dt + diffusion * sqdt * noise[:, step]
            np.abs(lam, out=lam)  # reflect at the hard edge
        clamp_total += clamped
        lam.sort(axis=1)
        if not np.max(np.abs(lam)) <= STABILITY_BOUND:
            raise StepUnstable(
                f"coordinate exceeded {STABILITY_BOUND:g} or became NaN at step {step + 1}; "
                "dt is too large for this beta and N"
            )
        for slot, s in enumerate(record_steps):
            if s == step + 1:
                out[:, slot] = lam
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
    if cfg.alpha is None or cfg.alpha <= 0.0:
        raise InvalidParameter("Laguerre simulation needs alpha > 0")
    if cfg.initial.roots[0] < 0.0:
        raise InvalidParameter("Laguerre initial data must be nonnegative")
    return _simulate(cfg, LAGUERRE)


def chi_sample(k_dof: float, rng: np.random.Generator) -> float:
    """One draw of the chi distribution with ``k_dof`` degrees of freedom.

    Computed as the square root of a gamma(k/2, scale 2) draw; the generator's
    gamma sampler is the Marsaglia-Tsang rejection method, valid for every
    positive (including non-integer) shape.
    """
    if k_dof <= 0.0:
        raise InvalidParameter("degrees of freedom must be positive")
    return math.sqrt(2.0 * rng.standard_gamma(k_dof / 2.0))


def _chi_matrix(dofs: np.ndarray, rng: np.random.Generator, size: int) -> np.ndarray:
    """(size, len(dofs)) chi draws, one column per degrees-of-freedom value."""
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
    if beta <= 0.0:
        raise InvalidParameter("beta must be positive")
    diag, off = gbe_tridiagonal_batch(beta, n, size, rng)
    return eigen_tridiag_batch(diag, off)


def sample_gbe(beta: float, n: int, seed: int) -> RootTuple:
    """One Gaussian beta ensemble draw: sorted eigenvalues of the tridiagonal
    model with N(0, 2)/sqrt(beta) diagonal and chi_((N-i) beta)/sqrt(beta)
    off-diagonal."""
    rng = np.random.default_rng(seed)
    evs = sample_gbe_batch(beta, n, 1, rng)[0]
    return RootTuple(tuple(evs))


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
    if beta <= 0.0 or alpha <= 0.0:
        raise InvalidParameter("beta and alpha must be positive")
    diag, off = ble_tridiagonal_batch(beta, alpha, n, size, rng)
    evs = eigen_tridiag_batch(diag, off)
    # Gram-matrix spectrum: clip the roundoff of exact zeros
    return np.maximum(evs, 0.0)


def sample_ble(beta: float, alpha: float, n: int, seed: int) -> RootTuple:
    """One beta Laguerre ensemble draw: sorted eigenvalues of B^T B."""
    rng = np.random.default_rng(seed)
    evs = sample_ble_batch(beta, alpha, n, 1, rng)[0]
    return RootTuple(tuple(evs))

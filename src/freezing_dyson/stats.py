"""Statistical verification harness for the freezing-limit predictions.

Every Monte Carlo report carries standard errors, and each states its pass
rule.  :func:`within_tolerance`, ``|estimate - target| <= max(3 * stderr,
rel_tol * |target|)``, decides the off-diagonal, variance and independence
checks; ``CovarianceReport.diag_pass`` is relative only (each diagonal entry
within ``rel_tol`` of its target); ``EkDriftReport`` allows 3 stderr plus an
Euler bias budget, and ``ProcessCltReport`` 3 stderr.

The central objects are the orthogonal rotation matrices whose columns are
the unit eigenvectors of the dual Jacobi matrices at the classical zeros, so
whose entries are the dual orthonormal polynomials there: the fluctuation
covariance of the static ensembles diagonalizes to ``diag(1/(n+1))`` in those
coordinates, and the time-indexed primitive statistics of the Dyson process
have covariance ``<q_n, q_n>/(n+1) (s ^ t)^(n+1)``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import gaussian_gk, laguerre_gk
from .elemsym import esp_rows
from .errors import InvalidParameter, check_int, check_real
from .orthopoly import (
    OrthogonalSystem,
    _eigenvectors,
    _power_traces_batch,
    _rational,
    _round,
    dual_hermite_system,
    dual_laguerre_system,
    hermite_zeros,
    laguerre_zeros,
    primitive,
    scaled_primitive,
)
from .stochastic import (
    DYSON,
    PathEnsemble,
    ble_tridiagonal_batch,
    gbe_tridiagonal_batch,
    sample_ble_batch,
    sample_gbe_batch,
)

__all__ = [
    "CovarianceReport",
    "PrimitiveCltReport",
    "EkDriftReport",
    "ProcessCltReport",
    "within_tolerance",
    "build_q_matrix_gaussian",
    "build_q_matrix_laguerre",
    "clt_covariance_gaussian",
    "clt_covariance_laguerre",
    "primitive_clt_check",
    "ek_drift_report",
    "process_clt_check",
]

GAUSSIAN = "gaussian"
LAGUERRE = "laguerre"


def within_tolerance(estimate: float, target: float, stderr: float, rel_tol: float = 0.0) -> bool:
    """The acceptance rule of the off-diagonal, variance and independence checks."""
    check_real("rel_tol", rel_tol, 0.0, inclusive=True)
    return abs(estimate - target) <= max(3.0 * stderr, rel_tol * abs(target))


def _moments(x: np.ndarray) -> tuple:
    """Sample covariance (ddof 1) of the lane-major rows of ``x`` (k, M), and
    each entry's delta-method standard error ``sqrt((E[c_a^2 c_b^2] - cov_ab^2)
    / M)`` for the centred rows c: two matrix products over contiguous rows."""
    m = x.shape[1]
    c = x - np.mean(x, axis=1, keepdims=True)
    cov = c @ c.T / (m - 1)
    c *= c  # in place: no second (k, M) temporary
    return cov, np.sqrt(np.maximum(c @ c.T / m - cov**2, 0.0) / m)


def build_q_matrix_gaussian(n: int) -> np.ndarray:
    """Orthogonal matrix ``Q[m, i] = qhat_m(z_i) / sqrt(N)`` over Hermite zeros.

    Rows are polynomial orders 0..N-1, columns zeros ascending: column i is
    the unit eigenvector, first entry positive, of the dual Jacobi matrix at
    z_i, as its spectral measure is uniform on the zeros (Golub-Welsch).
    """
    z, sys = hermite_zeros(n).as_array(), dual_hermite_system(n)
    return _eigenvectors(sys.a, sys.b2, z)


def build_q_matrix_laguerre(n: int, alpha: float) -> np.ndarray:
    """Orthogonal matrix ``Q[m, i] = sqrt(z_i / (N(N+alpha-1))) qhat_m(z_i)``
    over Laguerre zeros: the dual matrix's eigenvectors, as its spectral
    measure has these weights."""
    z, sys = laguerre_zeros(n, alpha).as_array(), dual_laguerre_system(n, alpha)
    return _eigenvectors(sys.a, sys.b2, z)


@dataclass(frozen=True)
class CovarianceReport:
    """Estimated fluctuation covariance and its rotation diagnostics.

    ``rotated = Q sigma_hat Q^T`` should approach ``diag(target_diag)``;
    ``mc_stderr`` holds delta-method standard errors of the rotated entries
    (fourth-moment plug-in).  ``beta`` and ``kind`` record the calibration
    point the report was run at.
    """

    sigma_hat: np.ndarray
    rotated: np.ndarray
    target_diag: np.ndarray
    off_diag_max: float
    diag_rel_err: np.ndarray
    mc_stderr: np.ndarray
    samples: int
    beta: float
    kind: str

    def diag_pass(self, rel_tol: float = 0.05) -> bool:
        check_real("rel_tol", rel_tol, 0.0, inclusive=True)
        return bool(np.all(self.diag_rel_err <= rel_tol))

    def offdiag_pass(self) -> bool:
        n = len(self.target_diag)
        return all(
            within_tolerance(self.rotated[a, b], 0.0, self.mc_stderr[a, b])
            for a in range(n)
            for b in range(a + 1, n)
        )


def _covariance_report(v: np.ndarray, q: np.ndarray, beta: float, kind: str) -> CovarianceReport:
    """The report of the lane-major (N, samples) fluctuations ``v``; the
    standard errors are those of the rotated fluctuations ``q v``."""
    n, m = v.shape
    sigma, _ = _moments(v)
    rotated = q @ sigma @ q.T
    _, stderr = _moments(q @ v)
    target = 1.0 / np.arange(1, n + 1)
    diag_rel = np.abs(np.diag(rotated) - target) / target
    off = rotated - np.diag(np.diag(rotated))
    return CovarianceReport(
        sigma_hat=sigma,
        rotated=rotated,
        target_diag=target,
        off_diag_max=float(np.max(np.abs(off))) if n > 1 else 0.0,
        diag_rel_err=diag_rel,
        mc_stderr=stderr,
        samples=m,
        beta=beta,
        kind=kind,
    )


def clt_covariance_gaussian(beta: float, n: int, samples: int, seed: int) -> CovarianceReport:
    """Covariance of ``sqrt(beta/2) (lambda - z^H)`` over GbE samples, rotated
    by the Hermite-dual Q; the diagonal targets ``1/(n+1)``."""
    check_int("samples", samples, 2)
    check_int("seed", seed, 0)
    evs = sample_gbe_batch(beta, n, samples, np.random.default_rng(seed))
    z = hermite_zeros(n).as_array()
    v = np.subtract(evs.T, z[:, None], out=evs.T)  # lane-major, in place
    v *= math.sqrt(beta / 2.0)
    return _covariance_report(v, build_q_matrix_gaussian(n), beta, GAUSSIAN)


def clt_covariance_laguerre(
    beta: float, n: int, alpha: float, samples: int, seed: int
) -> CovarianceReport:
    """Covariance of ``sqrt(2 beta) (sqrt(lambda) - sqrt(z))`` over Laguerre
    beta ensemble samples, rotated by the Laguerre-dual Q."""
    check_int("samples", samples, 2)
    check_int("seed", seed, 0)
    evs = sample_ble_batch(beta, alpha, n, samples, np.random.default_rng(seed))
    z = laguerre_zeros(n, alpha).as_array()
    v = np.subtract(np.sqrt(evs.T, out=evs.T), np.sqrt(z)[:, None], out=evs.T)
    v *= math.sqrt(2.0 * beta)
    return _covariance_report(v, build_q_matrix_laguerre(n, alpha), beta, LAGUERRE)


@dataclass(frozen=True)
class PrimitiveCltReport:
    """Variances of the primitive statistics against their limit targets."""

    variances: np.ndarray
    targets: np.ndarray
    var_stderr: np.ndarray
    correlations: np.ndarray
    corr_stderr: float
    samples: int
    beta: float
    kind: str

    def variance_pass(self, rel_tol: float = 0.05) -> bool:
        return all(
            within_tolerance(v, t, s, rel_tol)
            for v, t, s in zip(self.variances, self.targets, self.var_stderr)
        )

    def independence_pass(self) -> bool:
        n = len(self.variances)
        return all(
            within_tolerance(self.correlations[a, b], 0.0, self.corr_stderr)
            for a in range(n)
            for b in range(a + 1, n)
        )


def primitive_clt_check(
    beta: float,
    n: int,
    samples: int,
    seed: int,
    kind: str,
    alpha: float | None = None,
) -> PrimitiveCltReport:
    """Fluctuations of ``sqrt(beta N / 2) (<L_N, Q_m> - <limit, Q_m>)``.

    Gaussian kind: GbE samples, centering measure uniform on Hermite zeros,
    variance targets ``<q_m, q_m> / (m+1)``.  Laguerre kind: Laguerre beta
    ensemble samples with parameter ``alpha``, centering measure uniform on
    the Laguerre zeros, targets ``(alpha + N - 1) <q_m, q_m> / (m+1)``;
    ``alpha`` is required there and unused by the Gaussian kind.
    Cross-order covariances target zero.

    No eigenvalue is computed: Q_m has degree m + 1 <= N, so
    ``<L_N, Q_m> = tr Q_m(J) / N`` needs only the power sums ``tr J^k``,
    k <= N, of each sampled tridiagonal matrix J (Dumitriu and Edelman).
    """
    stats, targets = _primitive_statistics(beta, n, samples, seed, kind, alpha)
    cov, stderr = _moments(stats)
    variances = np.diag(cov).copy()
    # sqrt(d * d) == d exactly, so the diagonal is 1 (and [[1.0]] at N = 1)
    corr = np.clip(cov / np.sqrt(np.outer(variances, variances)), -1.0, 1.0)
    return PrimitiveCltReport(
        variances=variances,
        targets=targets,
        var_stderr=np.diag(stderr).copy(),
        correlations=corr,
        corr_stderr=1.0 / math.sqrt(samples),
        samples=samples,
        beta=beta,
        kind=kind,
    )


def _primitive_statistics(beta, n, samples, seed, kind, alpha):
    """The lane-major (N, samples) primitive statistics of
    :func:`primitive_clt_check` and their (N,) variance targets.

    The batch is drawn with the samplers' random stream and centred at c, the
    mean of the centring zeros (0 for Hermite).  Each Q_m is expanded in
    powers of x - c once, exactly, so all N statistics are one product of the
    (N+1, samples) power sums of J - c, less those of the zeros, with the
    (N, N+1) coefficients, each rounded once like the targets.
    """
    check_int("samples", samples, 2)
    check_int("seed", seed, 0)
    check_real("beta", beta, 0.0)
    check_int("n", n, 1)
    rng = np.random.default_rng(seed)
    if kind == GAUSSIAN:
        z = hermite_zeros(n).as_array()
        sys, scale, c = dual_hermite_system(n), 1, 0.0
        diag, off = gbe_tridiagonal_batch(beta, n, samples, rng)
    elif kind == LAGUERRE:
        check_real("alpha", alpha, 0.0)
        z = laguerre_zeros(n, alpha).as_array()
        sys, scale, c = dual_laguerre_system(n, alpha), _rational(alpha) + n - 1, float(np.mean(z))
        diag, off = ble_tridiagonal_batch(beta, alpha, n, samples, rng)
    else:
        raise InvalidParameter(f"unknown kind {kind!r}")
    targets = np.array([_round(scale * h, m + 1) for m, h in enumerate(sys.exact_norms)])
    diag -= c
    traces = _power_traces_batch(diag, off, n)
    del diag, off
    shifted = OrthogonalSystem([v - _rational(c) for v in sys.a], sys.b2)  # the q_m(y + c)
    coeffs = np.zeros((n + 1, n))
    for m in range(n):
        coeffs[: m + 2, m] = primitive(shifted, m)
    zsums = np.sum((z - c)[:, None] ** np.arange(n + 1), axis=0)
    return math.sqrt(beta * n / 2.0) * ((coeffs.T @ (traces.T - zsums[:, None])) / n), targets


def _check_ensemble(ensemble) -> None:
    if not isinstance(ensemble, PathEnsemble):
        raise InvalidParameter(f"ensemble must be a PathEnsemble (got {type(ensemble).__name__})")


@dataclass(frozen=True)
class EkDriftReport:
    """Ensemble-mean elementary symmetric coordinates against the exact g_k(t).

    The tolerance per entry is ``3 * stderr + bias_factor * dt * max(1, |g_k|)``,
    the Monte Carlo band plus an explicit Euler weak-bias budget.
    """

    times: tuple
    ek_mean: np.ndarray  # (times, N+1)
    ek_stderr: np.ndarray
    gk_target: np.ndarray
    tolerance: np.ndarray
    passed: np.ndarray

    def all_passed(self) -> bool:
        return bool(np.all(self.passed))


def ek_drift_report(ensemble: PathEnsemble, bias_factor: float = 5.0) -> EkDriftReport:
    """Compare simulated ``E[e_k(lambda(t))]`` with the deterministic g_k(t).

    The drift of e_k is beta-independent, so this is the sharpest desk-level
    check of both simulators.  ``bias_factor`` scales the allowance for the
    O(dt) discretisation bias: finite and >= 0.
    """
    _check_ensemble(ensemble)
    check_real("bias_factor", bias_factor, 0.0, inclusive=True)
    cfg = ensemble.config
    if ensemble.kind == DYSON:
        traj = gaussian_gk(cfg.initial)
    else:
        traj = laguerre_gk(cfg.initial, cfg.alpha)
    m, r, n = ensemble.data.shape
    ek_mean = np.empty((r, n + 1))
    ek_stderr = np.empty((r, n + 1))
    gk = np.empty((r, n + 1))
    for slot in range(r):
        ek = esp_rows(ensemble.data[:, slot, :])
        ek_mean[slot] = np.mean(ek, axis=0)
        ek_stderr[slot] = np.std(ek, axis=0, ddof=1) / math.sqrt(m) if m > 1 else 0.0
        gk[slot] = traj.coefficients_at(cfg.record_times[slot])
    tol = 3.0 * ek_stderr + bias_factor * cfg.dt * np.maximum(1.0, np.abs(gk))
    passed = np.abs(ek_mean - gk) <= tol
    return EkDriftReport(cfg.record_times, ek_mean, ek_stderr, gk, tol, passed)


@dataclass(frozen=True)
class ProcessCltReport:
    """Covariance of the time-indexed primitive fluctuation statistics.

    Entry (n, a, b) estimates ``E[eta_n(t_a) eta_n(t_b)]`` with target
    ``<q_n, q_n>/(n+1) (t_a ^ t_b)^(n+1)``.
    """

    times: tuple
    covariances: np.ndarray  # (orders, times, times)
    targets: np.ndarray
    stderr: np.ndarray
    samples: int

    def all_passed(self) -> bool:
        return bool(
            np.all(np.abs(self.covariances - self.targets) <= 3.0 * self.stderr)
        )


def process_clt_check(ensemble: PathEnsemble, max_order: int) -> ProcessCltReport:
    """Estimate the process-level fluctuation covariance from a zero-start
    Dyson ensemble at large beta, at the record-time marginals.

    The statistic at order n and time t is
    ``sqrt(beta N / 2)(<mu_t^(beta), Qtilde_n> - <mu_t, Qtilde_n>)`` with
    ``Qtilde_n(t, x) = t^((n+1)/2) Q_n(x / sqrt(t))``.
    """
    _check_ensemble(ensemble)
    cfg = ensemble.config
    if ensemble.kind != DYSON:
        raise InvalidParameter("process-level statistics are defined for the Dyson engine")
    if any(abs(v) > 0.0 for v in cfg.initial.roots):
        raise InvalidParameter("process-level statistics assume the zero initial condition")
    check_int("max_order", max_order, 0)
    check_int("paths", cfg.paths, 2)
    if max_order > cfg.n - 1:
        raise InvalidParameter("order must be <= N - 1")
    n = cfg.n
    sys = dual_hermite_system(n)
    z = hermite_zeros(n).as_array()
    m, r, _ = ensemble.data.shape
    times = cfg.record_times
    scale = math.sqrt(cfg.beta * n / 2.0)
    covs, stderr, targets = (np.empty((max_order + 1, r, r)) for _ in range(3))
    for order in range(max_order + 1):
        stats = np.empty((r, m))  # lane-major: one row per record time
        for slot, t in enumerate(times):
            limit = float(np.mean(scaled_primitive(sys, order, t, math.sqrt(t) * z)))
            emp = np.mean(scaled_primitive(sys, order, t, ensemble.data[:, slot, :]), axis=1)
            stats[slot] = scale * (emp - limit)
        covs[order], stderr[order] = _moments(stats)
        h = sys.squared_norms[order] / (order + 1)
        targets[order] = [[h * min(s, t) ** (order + 1) for t in times] for s in times]
    return ProcessCltReport(times, covs, targets, stderr, m)

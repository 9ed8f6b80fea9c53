import math
from fractions import Fraction

import numpy as np
import pytest

from freezing_dyson import orthopoly, stochastic
from freezing_dyson.dynamics import moment_sequence
from freezing_dyson.elemsym import RootTuple
from freezing_dyson.errors import InvalidParameter
from freezing_dyson.orthopoly import (
    OrthogonalSystem,
    dual_hermite_system,
    dual_laguerre_system,
    hermite_zeros,
    laguerre_zeros,
    primitive,
)
from freezing_dyson.stats import (
    _covariance_report,
    _moments,
    _primitive_statistics,
    build_q_matrix_gaussian,
    build_q_matrix_laguerre,
    clt_covariance_gaussian,
    clt_covariance_laguerre,
    ek_drift_report,
    primitive_clt_check,
    process_clt_check,
    within_tolerance,
)
from freezing_dyson.stochastic import (
    SimConfig,
    ble_tridiagonal_batch,
    gbe_tridiagonal_batch,
    sample_ble_batch,
    sample_gbe_batch,
    simulate_dyson,
    simulate_laguerre,
)


def test_within_tolerance_rule():
    assert within_tolerance(1.01, 1.0, stderr=0.01)
    assert not within_tolerance(1.05, 1.0, stderr=0.01)
    assert within_tolerance(1.04, 1.0, stderr=0.001, rel_tol=0.05)


def test_q_matrix_gaussian_rows():
    q = build_q_matrix_gaussian(2)
    assert np.allclose(q[0], [1 / math.sqrt(2)] * 2)
    assert np.allclose(q[1], [-1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-12)
    for n in range(2, 11):
        q = build_q_matrix_gaussian(n)
        assert np.max(np.abs(q @ q.T - np.eye(n))) < 1e-10


def test_q_matrix_laguerre_rows():
    for n, alpha in [(2, 1.0), (5, 0.5), (8, 2.5)]:
        q = build_q_matrix_laguerre(n, alpha)
        assert np.max(np.abs(q @ q.T - np.eye(n))) < 1e-10
    # row 0 entries are sqrt(z_i / (N(N+alpha-1)))
    from freezing_dyson.orthopoly import eigen_tridiag, laguerre_jacobi

    n, alpha = 3, 1.5
    z = eigen_tridiag(laguerre_jacobi(n, alpha)).as_array()
    q = build_q_matrix_laguerre(n, alpha)
    assert np.allclose(q[0], np.sqrt(z / (n * (n + alpha - 1))), atol=1e-12)


def test_rotated_target_eigenvector_interpretation():
    # (qhat_n(z_i))/sqrt(N) is an eigenvector of Q^T diag(1/(n+1)) Q
    for n in (2, 4, 7):
        q = build_q_matrix_gaussian(n)
        target = q.T @ np.diag(1.0 / np.arange(1, n + 1)) @ q
        for order in range(n):
            vec = q[order]
            assert np.max(np.abs(target @ vec - vec / (order + 1))) < 1e-9


def test_clt_covariance_gaussian_small():
    rep = clt_covariance_gaussian(beta=1e4, n=2, samples=20000, seed=7)
    assert rep.samples == 20000
    assert np.allclose(rep.sigma_hat, rep.sigma_hat.T)
    assert np.allclose(rep.target_diag, [1.0, 0.5])
    assert rep.diag_pass(rel_tol=0.08)
    # trace invariance under rotation
    assert np.trace(rep.rotated) == pytest.approx(np.trace(rep.sigma_hat), rel=1e-10)


def test_clt_covariance_laguerre_small():
    rep = clt_covariance_laguerre(beta=1e4, n=2, alpha=1.0, samples=20000, seed=8)
    assert rep.diag_pass(rel_tol=0.08)
    assert rep.kind == "laguerre"


def test_clt_reports_reject_bad_samples_and_seed():
    reports = [
        lambda samples, seed: clt_covariance_gaussian(1e4, 3, samples, seed),
        lambda samples, seed: clt_covariance_laguerre(1e4, 3, 1.5, samples, seed),
        lambda samples, seed: primitive_clt_check(1e4, 3, samples, seed, "gaussian"),
        lambda samples, seed: primitive_clt_check(1e4, 3, samples, seed, "laguerre", alpha=1.5),
    ]
    for report in reports:
        for samples, seed in ((0, 1), (1, 1), (10, -1)):
            with pytest.raises(InvalidParameter):
                report(samples, seed)
    with pytest.raises(InvalidParameter):
        primitive_clt_check(1e4, 0, 10, 1, "gaussian")


def test_clt_covariance_laguerre_single_particle():
    rep = clt_covariance_laguerre(beta=1e4, n=1, alpha=2.0, samples=2000, seed=3)
    assert rep.sigma_hat.shape == rep.rotated.shape == (1, 1)
    assert rep.target_diag.tolist() == [1.0]
    assert rep.off_diag_max == 0.0


def test_primitive_clt_gaussian_order0_exact():
    # X_0 = sqrt(beta N / 2) * mean(lambda): exactly standard normal
    rep = primitive_clt_check(beta=100.0, n=4, samples=30000, seed=9, kind="gaussian")
    assert rep.targets[0] == pytest.approx(1.0)
    assert rep.targets[1] == pytest.approx(3.0 / 2.0)  # <q_1,q_1> = N-1 = 3 over 2
    assert within_tolerance(rep.variances[0], 1.0, rep.var_stderr[0])
    # orders 0 and 1 carry opposite parity: their correlation vanishes at any beta
    assert abs(rep.correlations[0, 1]) < 3.0 * rep.corr_stderr



def exact_monic(a, b2):
    """Ascending Fraction coefficients of the monic q_0 .. q_(n-1) of the
    recurrence ``q_(m+1) = (x - a_m) q_m - b2_(m-1) q_(m-1)``."""
    q = [[Fraction(1)]]
    for m in range(len(b2)):
        nxt = [Fraction(0)] + q[m]
        for k, c in enumerate(q[m]):
            nxt[k] -= a[m] * c
        for k, c in enumerate(q[m - 1] if m else []):
            nxt[k] -= b2[m - 1] * c
        q.append(nxt)
    return q


@pytest.mark.parametrize("alpha", [0.3, 1.0, 2.5, 1 / 3], ids=repr)
def test_primitives_of_the_shifted_system_are_the_exact_shift_rounded_once(alpha):
    # the primitive statistics expand Q_m in powers of y = x - c as the
    # primitives of the system whose a_m are shifted by c, which q_m(y + c) obey
    for n in range(1, 13):
        sys = dual_laguerre_system(n, alpha)
        c = float(np.mean(laguerre_zeros(n, alpha).as_array()))
        shifted_sys = OrthogonalSystem([v - Fraction(c) for v in sys.a], sys.b2)
        for m, q in enumerate(exact_monic(sys.a, sys.b2)):
            # Q(y + c) - Q(c), Q' = q_m, by the binomial expansion in Fractions
            shifted = [
                sum(q[k] * math.comb(k, j) * Fraction(c) ** (k - j) for k in range(j, len(q)))
                for j in range(len(q))
            ]
            expect = [0.0] + [float(v / (j + 1)) for j, v in enumerate(shifted)]
            assert primitive(shifted_sys, m).tolist() == expect


def _centring(n, kind, alpha):
    if kind == "gaussian":
        return hermite_zeros(n).as_array(), dual_hermite_system(n)
    return laguerre_zeros(n, alpha).as_array(), dual_laguerre_system(n, alpha)


def eigenvalue_statistics(beta, n, samples, seed, kind, alpha=None):
    """The primitive statistics by their definition, from the eigenvalues:
    ``sqrt(beta N / 2) (mean_i Q_m(lambda_i) - mean_i Q_m(z_i))``."""
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        evs = sample_gbe_batch(beta, n, samples, rng)
    else:
        evs = sample_ble_batch(beta, alpha, n, samples, rng)
    z, sys = _centring(n, kind, alpha)
    pv = np.polynomial.polynomial.polyval
    stats = np.empty((samples, n))
    for m in range(n):
        qm = primitive(sys, m)
        stats[:, m] = np.mean(pv(evs, qm), axis=1) - np.mean(pv(z, qm))
    return math.sqrt(beta * n / 2.0) * stats


def exact_statistics(beta, n, samples, seed, kind, alpha=None):
    """The same statistics of the same float matrices in exact rationals: the
    eigenvalue sums of Q_m are the exact traces of Q_m(J), from the exact
    powers of J, against the exact power sums of the float zeros."""
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        diag, off = gbe_tridiagonal_batch(beta, n, samples, rng)
    else:
        diag, off = ble_tridiagonal_batch(beta, alpha, n, samples, rng)
    z, sys = _centring(n, kind, alpha)
    zsums = [sum(Fraction(v) ** k for v in z) for k in range(n + 1)]
    coeffs = [[Fraction(v) for v in primitive(sys, m)] for m in range(n)]
    out = np.empty((samples, n))
    for row in range(samples):
        j = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            j[i][i] = Fraction(diag[row, i])
        for i in range(n - 1):
            j[i][i + 1] = j[i + 1][i] = Fraction(off[row, i])
        power = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
        diffs = []
        for k in range(n + 1):
            diffs.append(sum(power[i][i] for i in range(n)) - zsums[k])
            power = [[sum(pr[i] * j[i][c] for i in range(n)) for c in range(n)] for pr in power]
        for m in range(n):
            out[row, m] = float(sum(q * d for q, d in zip(coeffs[m], diffs)) / n)
    return math.sqrt(beta * n / 2.0) * out


@pytest.mark.parametrize("kind,alpha", [("gaussian", None), ("laguerre", 2.5)])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_primitive_statistics_match_exact_rational_statistics(n, kind, alpha):
    args = (1e4, n, 60, 1000 + n, kind, alpha)
    got = _primitive_statistics(*args)[0].T  # lane-major (N, samples)
    exact = exact_statistics(*args)
    scale = np.max(np.abs(exact))
    assert np.max(np.abs(got - exact)) <= 1e-11 * scale
    # the eigenvalue route is the same statistic of the same draws, within
    # the eigensolver's backward error
    assert np.max(np.abs(eigenvalue_statistics(*args) - exact)) <= 1e-10 * scale


def test_primitive_clt_check_solves_no_eigenvalues(monkeypatch):
    # the centring zeros are cached classical zeros; the sampled batch goes
    # through traces of powers only
    hermite_zeros(4), laguerre_zeros(4, 2.5)

    def refused(*args):
        raise AssertionError("eigen_tridiag_batch called")

    monkeypatch.setattr(orthopoly, "eigen_tridiag_batch", refused)
    monkeypatch.setattr(stochastic, "eigen_tridiag_batch", refused)
    rep = primitive_clt_check(1e4, 4, 1000, 3, "gaussian")
    lrep = primitive_clt_check(1e4, 4, 1000, 3, "laguerre", alpha=2.5)
    assert rep.variances.shape == lrep.variances.shape == (4,)
    with pytest.raises(AssertionError, match="eigen_tridiag_batch called"):
        clt_covariance_gaussian(1e4, 4, 1000, 3)


def exact_moments(x):
    """Covariance (ddof 1), fourth-moment products ``E[c_a^2 c_b^2]`` and
    delta-method variances of the rows of the float array x, in exact
    rationals."""
    k, m = x.shape
    rows = [[Fraction(v) for v in row] for row in x]
    cs = [[v - sum(row) / m for v in row] for row in rows]
    cov = [[sum(a * b for a, b in zip(ca, cb)) / (m - 1) for cb in cs] for ca in cs]
    m22 = [[sum(a * a * b * b for a, b in zip(ca, cb)) / m for cb in cs] for ca in cs]
    var = [[max(m22[i][j] - cov[i][j] ** 2, 0) / m for j in range(k)] for i in range(k)]
    return (np.array(cov, dtype=float), np.array(m22, dtype=float), np.array(var, dtype=float))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_moments_match_exact_rational_moments(k):
    # dyadic rows, some far off zero; measured worst errors over these
    # batches: covariance 3.4e-16 of its largest entry, squared standard
    # error 3.6e-15 of max E[c_a^2 c_b^2] / M
    rng = np.random.default_rng(40 + k)
    for m in (2, 3, 5, 8, 13, 21, 40):
        for offset in (0.0, 96.0):
            x = rng.integers(-256, 256, (k, m)) / 64.0 + offset
            cov, stderr = _moments(x)
            exact_cov, m22, var = exact_moments(x)
            assert np.max(np.abs(cov - exact_cov)) <= 1e-15 * np.max(np.abs(exact_cov))
            assert np.max(np.abs(stderr**2 - var)) <= 1e-14 * np.max(m22) / m
            assert np.array_equal(cov, cov.T) and np.array_equal(stderr, stderr.T)


# Row-major oracles of the three reports: numpy's own reductions along axis 0
# of (samples, k) arrays.  The lane-major kernel sums in another order, so
# the fields agree to rounding; the bounds below are 2e-14 of each field's
# largest entry.


def rowmajor_covariance_report(v, q):
    m, n = v.shape
    sigma = np.atleast_2d(np.cov(v.T, ddof=1))
    rotated = q @ sigma @ q.T
    cu = v @ q.T
    cu = cu - np.mean(cu, axis=0)
    cab = cu.T @ cu / (m - 1)
    stderr = np.sqrt(np.maximum((cu**2).T @ (cu**2) / m - cab**2, 0.0) / m)
    return sigma, rotated, stderr


def rowmajor_primitive_moments(stats):
    variances = np.var(stats, axis=0, ddof=1)
    m4 = np.mean((stats - np.mean(stats, axis=0)) ** 4, axis=0)
    var_stderr = np.sqrt(np.maximum(m4 - variances**2, 0.0) / len(stats))
    corr = np.corrcoef(stats.T) if stats.shape[1] > 1 else np.ones((1, 1))
    return variances, var_stderr, corr


def rowmajor_process_moments(ensemble, max_order):
    n = ensemble.config.n
    sys_, z = dual_hermite_system(n), hermite_zeros(n).as_array()
    scale = math.sqrt(ensemble.config.beta * n / 2.0)
    times = ensemble.config.record_times
    covs, stderr, targets = [], [], []
    for order in range(max_order + 1):
        cols = []
        for slot, t in enumerate(times):
            limit = np.mean(orthopoly.scaled_primitive(sys_, order, t, math.sqrt(t) * z))
            paths = ensemble.data[:, slot]
            emp = np.mean(orthopoly.scaled_primitive(sys_, order, t, paths), axis=1)
            cols.append(scale * (emp - limit))
        x = np.stack(cols, axis=1)  # (paths, times)
        x = x - np.mean(x, axis=0)
        m = len(x)
        cov = x.T @ x / (m - 1)
        m22 = np.mean(x[:, :, None] ** 2 * x[:, None, :] ** 2, axis=0)
        covs.append(cov)
        stderr.append(np.sqrt(np.maximum(m22 - cov**2, 0.0) / m))
        h = sys_.squared_norms[order]
        targets.append([[h / (order + 1) * min(s, t) ** (order + 1) for t in times] for s in times])
    return np.array(covs), np.array(stderr), np.array(targets)


def assert_close(got, want, rel=2e-14):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


@pytest.mark.parametrize(
    "kind,n,samples",
    [("gaussian", 3, 20000), ("gaussian", 8, 5000), ("laguerre", 3, 20000),
     ("laguerre", 8, 5000), ("laguerre", 1, 2000)],
)
def test_covariance_report_matches_rowmajor_oracle(kind, n, samples):
    beta, seed = 1e4, 2300 + n
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        rep = clt_covariance_gaussian(beta, n, samples, seed)
        evs = sample_gbe_batch(beta, n, samples, rng)
        v = math.sqrt(beta / 2.0) * (evs - hermite_zeros(n).as_array())
        q = build_q_matrix_gaussian(n)
    else:
        rep = clt_covariance_laguerre(beta, n, 1.0, samples, seed)
        evs = sample_ble_batch(beta, 1.0, n, samples, rng)
        v = math.sqrt(2.0 * beta) * (np.sqrt(evs) - np.sqrt(laguerre_zeros(n, 1.0).as_array()))
        q = build_q_matrix_laguerre(n, 1.0)
    sigma, rotated, stderr = rowmajor_covariance_report(v, q)
    assert_close(rep.sigma_hat, sigma)
    assert_close(rep.rotated, rotated)
    assert_close(rep.mc_stderr, stderr)
    assert np.array_equal(rep.sigma_hat, rep.sigma_hat.T)
    assert np.array_equal(rep.mc_stderr, rep.mc_stderr.T)
    # the diagonal errors and the largest off-diagonal entry are differences
    # of rotated entries from their targets: they move as rotated does
    target = rep.target_diag
    scale = 2e-14 * np.max(np.abs(rotated))
    diag_err = np.abs(np.diag(rotated) - target)
    assert np.max(np.abs(rep.diag_rel_err * target - diag_err)) <= scale
    off = np.abs(rotated - np.diag(np.diag(rotated)))
    assert abs(rep.off_diag_max - np.max(off)) <= scale
    assert rep.diag_pass() == bool(np.all(diag_err / target <= 0.05))
    assert rep.offdiag_pass() == bool(np.all(off <= 3.0 * stderr))


@pytest.mark.parametrize(
    "kind,n,samples,alpha",
    [("gaussian", 4, 20000, None), ("laguerre", 4, 20000, 2.5), ("laguerre", 1, 1000, 2.5)],
)
def test_primitive_report_matches_rowmajor_oracle(kind, n, samples, alpha):
    args = (1e4, n, samples, 2400 + n, kind, alpha)
    rep = primitive_clt_check(*args[:5], alpha=alpha)
    stats, _ = _primitive_statistics(*args)
    variances, var_stderr, corr = rowmajor_primitive_moments(stats.T)
    assert_close(rep.variances, variances)
    assert_close(rep.var_stderr, var_stderr)
    assert_close(rep.correlations, corr)
    assert np.all(np.diag(rep.correlations) == 1.0)
    assert np.all(np.abs(rep.correlations) <= 1.0)
    assert rep.variance_pass() == all(
        within_tolerance(v, t, s, 0.05) for v, t, s in zip(variances, rep.targets, var_stderr)
    )
    assert rep.independence_pass() == all(
        abs(corr[a, b]) <= 3.0 * rep.corr_stderr for a in range(n) for b in range(a + 1, n)
    )


def test_process_report_matches_rowmajor_oracle():
    cfg = SimConfig(
        beta=1e4, n=3, t_end=0.5, dt=1e-2, initial=RootTuple((0.0,) * 3),
        seed=2500, paths=400, record_times=(0.25, 0.4, 0.5),
    )
    ens = simulate_dyson(cfg)
    rep = process_clt_check(ens, 2)
    covs, stderr, targets = rowmajor_process_moments(ens, 2)
    for order in range(3):
        assert_close(rep.covariances[order], covs[order])
        assert_close(rep.stderr[order], stderr[order])
    assert np.array_equal(rep.targets, targets)
    assert rep.all_passed() == bool(np.all(np.abs(covs - targets) <= 3.0 * stderr))


def test_moment_process_estimate_zero_init():
    cfg = SimConfig(
        beta=1e4,
        n=4,
        t_end=1.0,
        dt=1e-3,
        initial=RootTuple((0.0,) * 4),
        seed=11,
        paths=2000,
        record_times=(0.0, 0.5, 1.0),
    )
    data = simulate_dyson(cfg).data  # (paths, times, N)
    u = moment_sequence(4, 4).u
    # per-path moments S_k = (1/N) sum lambda_i^k, as (paths, times, k)
    per_path = np.stack([np.mean(data**k, axis=2) for k in range(5)], axis=2)
    s_hat = np.mean(per_path, axis=0)
    stderr = np.std(per_path, axis=0, ddof=1) / math.sqrt(cfg.paths)
    # at t = 0 the estimate equals the initial moments exactly
    assert np.array_equal(s_hat[0], [1.0, 0.0, 0.0, 0.0, 0.0])
    # S_2(t) tracks u_2 t, S_4(t) tracks u_4 t^2
    for slot, t in enumerate(cfg.record_times):
        if t == 0.0:
            continue
        for order in (2, 4):
            target = u[order] * t ** (order / 2.0)
            tol = 3.0 * stderr[slot, order] + 10.0 * cfg.dt * max(1.0, target)
            assert abs(s_hat[slot, order] - target) < tol
    assert np.allclose(s_hat[:, 0], 1.0)


def test_ek_drift_report_both_kinds():
    common = dict(t_end=0.5, dt=1e-3, seed=21, paths=3000, record_times=(0.25, 0.5))
    gcfg = SimConfig(beta=4.0, n=3, initial=RootTuple((-1.0, 0.1, 1.2)), **common)
    rep = ek_drift_report(simulate_dyson(gcfg))
    assert rep.ek_mean.shape == (2, 4)
    assert rep.all_passed()
    lcfg = SimConfig(
        beta=4.0, n=3, initial=RootTuple((0.2, 0.8, 1.7)), alpha=1.5, **common
    )
    lrep = ek_drift_report(simulate_laguerre(lcfg))
    assert lrep.all_passed()


def test_process_clt_check_guards():
    cfg = SimConfig(
        beta=1e4,
        n=3,
        t_end=0.5,
        dt=1e-2,
        initial=RootTuple((-1.0, 0.0, 1.0)),
        seed=3,
        paths=8,
        record_times=(0.5,),
    )
    ens = simulate_dyson(cfg)
    with pytest.raises(InvalidParameter):
        process_clt_check(ens, 1)  # nonzero initial condition
    zcfg = SimConfig(
        beta=1e4,
        n=3,
        t_end=0.5,
        dt=1e-2,
        initial=RootTuple((0.0, 0.0, 0.0)),
        seed=3,
        paths=64,
        record_times=(0.25, 0.5),
    )
    zens = simulate_dyson(zcfg)
    rep = process_clt_check(zens, 1)
    assert rep.covariances.shape == (2, 2, 2)
    with pytest.raises(InvalidParameter):
        process_clt_check(zens, 3)


def test_ensemble_reports_reject_what_is_not_an_ensemble():
    for bad in (None, np.zeros((4, 1, 3)), "ensemble"):
        for report in (ek_drift_report, lambda e: process_clt_check(e, 1)):
            with pytest.raises(InvalidParameter, match="^ensemble must be a PathEnsemble"):
                report(bad)


# From a zero start, each engine's t = 1 marginal is the static ensemble of
# the static CLT, so that report applies unchanged to the last record: the
# rotated covariance's diagonal is 1/(k+1).  E[e_k] does not see the noise
# amplitude, so this is the check that holds the Laguerre engine's diffusion
# constant: scaled by 1.03 it gives diagonal errors of 0.06-0.09 here.
@pytest.mark.parametrize("kind", ["dyson", "laguerre"])
@pytest.mark.parametrize("n", [3, 4])
def test_sde_t1_marginal_passes_the_static_clt_report(kind, n):
    beta, alpha = 1e4, 1.0
    cfg = SimConfig(
        beta=beta,
        n=n,
        t_end=1.0,
        dt=1e-3,
        initial=RootTuple((0.0,) * n),
        seed=1,
        paths=5000,
        record_times=(1.0,),
        alpha=alpha if kind == "laguerre" else None,
    )
    if kind == "dyson":
        lam = simulate_dyson(cfg).data[:, -1, :].T
        v = math.sqrt(beta / 2.0) * (lam - hermite_zeros(n).as_array()[:, None])
        rep = _covariance_report(v, build_q_matrix_gaussian(n), beta, "gaussian")
    else:
        lam = simulate_laguerre(cfg).data[:, -1, :].T
        z = laguerre_zeros(n, alpha).as_array()
        v = math.sqrt(2.0 * beta) * (np.sqrt(lam) - np.sqrt(z)[:, None])
        rep = _covariance_report(v, build_q_matrix_laguerre(n, alpha), beta, "laguerre")
    assert rep.samples == 5000
    assert rep.diag_pass(0.05), rep.diag_rel_err

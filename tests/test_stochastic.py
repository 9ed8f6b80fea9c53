import math
import os
import signal
import threading
import time
from fractions import Fraction

import numpy as np
import pytest

from freezing_dyson import cli, stochastic
from freezing_dyson.elemsym import RootTuple, esp_rows
from freezing_dyson.errors import InvalidParameter, StepUnstable
from freezing_dyson.finfree import hermite_roots, laguerre_roots
from freezing_dyson.stochastic import (
    SimConfig,
    _chi_matrix,
    ble_tridiagonal_batch,
    sample_ble_batch,
    sample_gbe_batch,
    simulate_dyson,
    simulate_laguerre,
)


LAGUERRE_ZERO_START = {"alpha": 1.5, "initial": RootTuple((0.0, 0.0, 0.0))}


# (path ranges, whether a drawer process draws the noise) of each plan
PLANS = {"serial": (1, False), "path-2": (2, False), "path-3": (3, False), "stage": (1, True)}


def force_plan(monkeypatch, plan):
    """Run every run by ``plan``, a value of PLANS, where forking is safe;
    returns a list that gains one entry per fork."""
    monkeypatch.setattr(stochastic, "_plan", lambda *shape: plan)
    forks, real_fork = [], os.fork

    def counted_fork():
        forks.append(None)
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


def force_shards(monkeypatch, workers):
    """Shard every run over ``workers`` processes by the path plan."""
    return force_plan(monkeypatch, (workers, False))


def forks_of(plan):
    ranges, staged = plan
    return ranges - 1 + staged


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def make_cfg(**kw):
    base = dict(
        beta=2.0,
        n=3,
        t_end=0.5,
        dt=1e-3,
        initial=RootTuple((-1.0, 0.0, 1.0)),
        seed=123,
        paths=4,
        record_times=(0.25, 0.5),
    )
    base.update(kw)
    return SimConfig(**base)


def test_sim_config_validation():
    with pytest.raises(InvalidParameter):
        make_cfg(beta=0.5)
    with pytest.raises(InvalidParameter):
        make_cfg(dt=0.0)
    with pytest.raises(InvalidParameter):
        make_cfg(paths=0)
    with pytest.raises(InvalidParameter):
        make_cfg(seed=-1)  # SeedSequence takes nonnegative integers only
    with pytest.raises(InvalidParameter):
        make_cfg(record_times=(0.6,))  # beyond t_end
    with pytest.raises(InvalidParameter):
        make_cfg(record_times=(0.5, 0.25))  # unsorted
    with pytest.raises(InvalidParameter):
        make_cfg(initial=RootTuple((0.0, 1.0)))  # wrong length
    # wrong types name their field
    for bad in ([-1.0, 0.0, 1.0], (-1.0, 0.0, 1.0), None):
        with pytest.raises(InvalidParameter, match="^initial must be a RootTuple"):
            make_cfg(initial=bad)
    for bad in (None, 0.1, "0.1", b"0.1"):
        with pytest.raises(InvalidParameter, match="^record_times must be a sequence"):
            make_cfg(record_times=bad)
    assert make_cfg(record_times=[0.25, 0.5]).record_times == (0.25, 0.5)
    assert make_cfg(record_times=np.array([0.25, 0.5])).record_times == (0.25, 0.5)
    for bad in (math.nan, math.inf, -math.inf):
        for field in ("beta", "dt", "t_end", "alpha"):
            with pytest.raises(InvalidParameter):
                make_cfg(**{field: bad})
        with pytest.raises(InvalidParameter):
            make_cfg(record_times=(0.25, bad))
    # horizons and record times off the dt grid (0.5 = 1.67 steps of 0.3)
    with pytest.raises(InvalidParameter, match="grid"):
        make_cfg(dt=0.3, record_times=())
    with pytest.raises(InvalidParameter, match="grid"):
        make_cfg(record_times=(0.2505, 0.5))
    with pytest.raises(InvalidParameter, match="grid"):
        make_cfg(t_end=1e10, dt=1e-300, record_times=())  # t_end / dt overflows
    # nonzero times that round to 0 steps
    with pytest.raises(InvalidParameter, match="grid"):
        make_cfg(t_end=0.1, dt=1e16, record_times=())
    with pytest.raises(InvalidParameter, match="grid"):
        make_cfg(record_times=(1e-15, 0.5))
    assert make_cfg(t_end=1.0, dt=0.1, record_times=(0.3, 1.0)).record_steps() == [3, 10]


def test_record_time_one_step_past_t_end_rejected():
    # 1.001e-9 is within an absolute 1e-12 of t_end but one dt step beyond it
    with pytest.raises(InvalidParameter, match="beyond t_end"):
        make_cfg(t_end=1e-9, dt=1e-12, record_times=(1.001e-9,))
    cfg = make_cfg(t_end=1e-9, dt=1e-12, record_times=(0.999e-9, 1e-9))
    assert cfg.record_steps() == [999, 1000] and cfg.n_steps == 1000


def test_zero_horizon_returns_initial():
    cfg = make_cfg(t_end=0.0, record_times=(0.0,))
    for sim in (simulate_dyson,):
        ens = sim(cfg)
        assert ens.data.shape == (4, 1, 3)
        for p in range(4):
            assert np.array_equal(ens.data[p, 0], cfg.initial.as_array())
    lcfg = make_cfg(
        t_end=0.0, record_times=(0.0,), alpha=1.5, initial=RootTuple((0.0, 0.5, 2.0))
    )
    ens = simulate_laguerre(lcfg)
    assert np.array_equal(ens.data[0, 0], lcfg.initial.as_array())


def test_output_invariant_to_worker_count(monkeypatch):
    # per-path streams: the output does not depend on how the paths are split
    # over processes (1, 2 or 3), over blocks (1 or 4 of them), or between a
    # drawer and a stepper
    for sim, extra in ((simulate_dyson, {}), (simulate_laguerre, LAGUERRE_ZERO_START)):
        cfg = make_cfg(paths=32, beta=1.0, t_end=0.1, record_times=(0.05, 0.1), **extra)
        assert stochastic._run_plan(cfg) == PLANS["serial"]  # small: one process by default
        ref = sim(cfg)
        assert ref.clamp_events > 0
        ten_paths = 10 * stochastic._path_bytes(cfg.n_steps, cfg.n)
        for block_bytes in (stochastic._BLOCK_BYTES, ten_paths):
            for plan in PLANS.values():
                with monkeypatch.context() as m:
                    m.setattr(stochastic, "_BLOCK_BYTES", block_bytes)
                    forks = force_plan(m, plan)
                    ens = sim(cfg)
                assert len(forks) == forks_of(plan)
                assert np.array_equal(ens.data, ref.data)
                assert ens.clamp_events == ref.clamp_events
                assert_no_child_left()
    a = simulate_dyson(make_cfg(paths=32, t_end=0.1, record_times=(0.05, 0.1)))
    d = simulate_dyson(make_cfg(paths=32, t_end=0.1, seed=124, record_times=(0.05, 0.1)))
    assert not np.array_equal(a.data, d.data)


def test_large_runs_shard_and_small_ones_do_not(monkeypatch):
    monkeypatch.setattr(stochastic, "_usable_cores", lambda: 2)
    big = make_cfg(paths=1000, n=4, t_end=1.0, initial=RootTuple((-1.0, 0.0, 0.5, 1.0)),
                   record_times=(1.0,))
    assert stochastic._run_plan(big) == PLANS["path-2"]
    # too little work, too few paths per shard
    assert stochastic._run_plan(make_cfg(paths=1000, t_end=0.01, record_times=())) == PLANS["serial"]
    assert stochastic._run_plan(make_cfg(paths=63, t_end=1e4, dt=1.0, record_times=())) == PLANS["serial"]
    # forking is unsafe while another thread runs
    gate = threading.Event()
    worker = threading.Thread(target=gate.wait)
    worker.start()
    try:
        assert stochastic._run_plan(big) == PLANS["serial"]
    finally:
        gate.set()
        worker.join(timeout=10)
    assert not worker.is_alive()


# the seven sde-ensembles benchmark shapes, (paths, n, steps, record slots),
# and their plans at 1, 2 and 4 usable cores: the narrow, long crit-8 runs
# step every path in the caller over a drawer's noise at 2 cores, where two
# path ranges would each pay all 10^4 steps' fixed cost
BENCH_PLANS = {
    "crit7-dyson": ((1000, 4, 1000, 5), ["serial", "path-2", (4, False)]),
    "crit7-laguerre": ((1000, 4, 1000, 5), ["serial", "path-2", (4, False)]),
    "crit8-dyson": ((200, 4, 10000, 1), ["serial", "stage", (4, False)]),
    "crit8-laguerre": ((200, 4, 10000, 1), ["serial", "stage", (4, False)]),
    "crit11-dyson": ((1000, 4, 1000, 2), ["serial", "path-2", (4, False)]),
    "n16-dyson": ((100, 16, 1000, 1), ["serial", "path-2", "path-3"]),
    "n16-laguerre": ((100, 16, 1000, 1), ["serial", "path-2", "path-3"]),
}


@pytest.mark.parametrize("name", BENCH_PLANS)
def test_plan_of_the_benchmark_shapes(name):
    shape, plans = BENCH_PLANS[name]
    for cores, plan in zip((1, 2, 4), plans):
        assert stochastic._plan(*shape, cores) == PLANS.get(plan, plan), cores


@pytest.mark.parametrize(
    "sim, extra",
    [
        (simulate_dyson, {}),
        (simulate_laguerre, LAGUERRE_ZERO_START),
    ],
    ids=["dyson", "laguerre"],
)
def test_output_invariant_to_block_count(sim, extra, monkeypatch):
    cfg = make_cfg(paths=32, beta=1.0, t_end=0.1, record_times=(0.05, 0.1), **extra)
    assert stochastic._block_size(cfg.paths, cfg.n_steps, cfg.n) == cfg.paths
    one_block = sim(cfg)
    # a budget of 10 paths' working memory splits the 32 paths into 4 blocks
    monkeypatch.setattr(stochastic, "_BLOCK_BYTES", 10 * stochastic._path_bytes(cfg.n_steps, cfg.n))
    assert stochastic._block_size(cfg.paths, cfg.n_steps, cfg.n) == 10
    blocked = sim(cfg)
    assert np.array_equal(one_block.data, blocked.data)
    assert one_block.clamp_events == blocked.clamp_events
    assert one_block.clamp_events > 0  # the clamp count is summed across blocks


def test_recorded_tuples_are_sorted_and_laguerre_nonneg():
    cfg = make_cfg(paths=16, beta=1.0, t_end=0.3, record_times=(0.15, 0.3))
    ens = simulate_dyson(cfg)
    assert np.all(np.diff(ens.data, axis=2) >= 0.0)
    lcfg = make_cfg(
        paths=16,
        beta=1.0,
        alpha=1.5,
        t_end=0.3,
        record_times=(0.15, 0.3),
        initial=RootTuple((0.0, 0.0, 0.0)),
    )
    lens = simulate_laguerre(lcfg)
    assert np.all(np.diff(lens.data, axis=2) >= 0.0)
    assert np.all(lens.data >= 0.0)


def test_dyson_e1_martingale_mean_and_variance():
    # e_1 drift cancels exactly: mean of sum(lambda) - sum(a) is 0, variance 2NT/beta
    n, beta, t_end = 4, 1.0, 1.0
    cfg = SimConfig(
        beta=beta,
        n=n,
        t_end=t_end,
        dt=1e-3,
        initial=RootTuple((-1.2, -0.4, 0.3, 1.1)),
        seed=2024,
        paths=3000,
        record_times=(t_end,),
    )
    ens = simulate_dyson(cfg)
    e1 = np.sum(ens.data[:, 0, :], axis=1) - sum(cfg.initial.roots)
    target_var = 2.0 * n * t_end / beta
    assert abs(np.mean(e1)) < 3.0 * math.sqrt(target_var / cfg.paths)
    sample_var = np.var(e1, ddof=1)
    var_stderr = target_var * math.sqrt(2.0 / (cfg.paths - 1))
    assert abs(sample_var - target_var) < 3.0 * var_stderr


def test_laguerre_trace_drift():
    # sum_i drift = N(alpha + N - 1) exactly: E[sum lambda(T)] = sum a + N(alpha+N-1)T
    n, beta, alpha, t_end = 3, 2.0, 1.5, 0.5
    cfg = SimConfig(
        beta=beta,
        n=n,
        t_end=t_end,
        dt=1e-3,
        initial=RootTuple((0.5, 1.0, 2.0)),
        seed=555,
        paths=2000,
        record_times=(t_end,),
        alpha=alpha,
    )
    ens = simulate_laguerre(cfg)
    trace = np.sum(ens.data[:, 0, :], axis=1)
    target = sum(cfg.initial.roots) + n * (alpha + n - 1) * t_end
    stderr = np.std(trace, ddof=1) / math.sqrt(cfg.paths)
    assert abs(np.mean(trace) - target) < 3.0 * stderr + 20.0 * cfg.dt


def test_dyson_freezing_lln_single_path():
    # large beta: one path lands near sqrt(t) * Hermite zeros
    n = 3
    cfg = SimConfig(
        beta=1e6,
        n=n,
        t_end=1.0,
        dt=1e-3,
        initial=RootTuple((0.0,) * n),
        seed=42,
        paths=1,
        record_times=(1.0,),
    )
    ens = simulate_dyson(cfg)
    assert np.max(np.abs(ens.data[0, 0] - hermite_roots(n, 1.0).as_array())) < 0.02


def test_laguerre_freezing_lln_single_path():
    n, alpha = 2, 1.0
    cfg = SimConfig(
        beta=1e6,
        n=n,
        t_end=1.0,
        dt=1e-3,
        initial=RootTuple((0.0,) * n),
        seed=43,
        paths=1,
        record_times=(1.0,),
        alpha=alpha,
    )
    ens = simulate_laguerre(cfg)
    assert np.max(np.abs(ens.data[0, 0] - laguerre_roots(n, alpha, 1.0).as_array())) < 0.05


def test_step_unstable_raises():
    cfg = SimConfig(
        beta=1.0,
        n=3,
        t_end=1e16,
        dt=1e16,
        initial=RootTuple((0.0, 0.0, 0.0)),
        seed=7,
        paths=1,
        record_times=(1e16,),
    )
    with pytest.raises(StepUnstable):
        simulate_dyson(cfg)


@pytest.mark.parametrize("start", [(0.0, 2e8), (-3e8, 0.0)])
def test_start_beyond_the_bounds_fails_after_step_one(start):
    # the start itself is recorded as given; the state after step 1 fails
    cfg = make_cfg(n=2, initial=RootTuple(start), t_end=0.0, record_times=(0.0,))
    assert simulate_dyson(cfg).data[0, 0].tolist() == list(start)
    cfg = make_cfg(n=2, initial=RootTuple(start), t_end=0.01, record_times=(0.0, 0.01))
    with pytest.raises(StepUnstable, match="at step 1;"):
        simulate_dyson(cfg)


def test_nan_state_raises_step_unstable(monkeypatch):
    from freezing_dyson import stochastic

    def nan_drift(lam, *args):
        return np.full_like(lam, np.nan), 0

    monkeypatch.setattr(stochastic, "_drift_dyson", nan_drift)
    monkeypatch.setattr(stochastic, "_drift_laguerre", nan_drift)
    with pytest.raises(StepUnstable):
        simulate_dyson(make_cfg())
    with pytest.raises(StepUnstable):
        simulate_laguerre(make_cfg(alpha=1.0, initial=RootTuple((0.5, 1.0, 2.0))))


def test_ek_means_track_gk_quickly():
    # cheap version of the drift law: N=3, one beta, two record times
    from freezing_dyson.dynamics import gaussian_gk

    initial = RootTuple((-1.0, 0.2, 1.3))
    cfg = SimConfig(
        beta=4.0,
        n=3,
        t_end=0.5,
        dt=1e-3,
        initial=initial,
        seed=99,
        paths=12000,
        record_times=(0.25, 0.5),
    )
    ens = simulate_dyson(cfg)
    traj = gaussian_gk(initial)
    for slot, t in enumerate(cfg.record_times):
        ek = esp_rows(ens.data[:, slot, :])
        for k in range(1, 4):
            target = traj.coefficients_at(t)[k]
            stderr = np.std(ek[:, k], ddof=1) / math.sqrt(cfg.paths)
            tol = 3.0 * stderr + 5.0 * cfg.dt * max(1.0, abs(target))
            assert abs(np.mean(ek[:, k]) - target) < tol


def ek_law_z(cfg, data, drift_of):
    """z-scores of mean S_k - e_k(lam_0), k = 1..n, for paths ``data``
    recorded at every step and the drift ``drift_of`` recomputed from the
    recorded states (see test_dyson_ek_law_holds_at_any_dt)."""
    lam = data[:, :-1].reshape(-1, cfg.n)
    increments = esp_rows(lam + drift_of(lam) * cfg.dt) - esp_rows(lam)
    s = esp_rows(data[:, -1]) - increments.reshape(cfg.paths, -1, cfg.n + 1).sum(axis=1)
    target = esp_rows(cfg.initial.as_array()[None, :])[0]
    stderr = np.std(s, axis=0, ddof=1) / math.sqrt(cfg.paths)
    return (np.mean(s, axis=0) - target)[1:] / stderr[1:]


def test_dyson_ek_law_holds_at_any_dt():
    # e_k is symmetric and affine in each coordinate, and the noise has mean
    # 0, so one Euler step has E[e_k(lam') | lam] = e_k(lam + b(lam) dt) for
    # the engine's clamped drift b, at any dt.  The compensated sum
    # S_k = e_k(lam_M) - sum_m [e_k(lam_m + b_m dt) - e_k(lam_m)] therefore
    # has mean e_k(lam_0) with no Euler bias budget.  b is recomputed here
    # from the recorded states, independently of the engine's arithmetic.
    n, dt, steps = 4, 0.01, 50
    cfg = SimConfig(beta=4.0, n=n, t_end=steps * dt, dt=dt,
                    initial=RootTuple((-1.2, -0.4, 0.3, 1.1)), seed=5,
                    paths=20000, record_times=tuple(m * dt for m in range(steps + 1)))
    eps = max(stochastic.EPS_GAP, math.sqrt(dt))

    def drift_of(lam):
        drift = np.zeros_like(lam)
        for i in range(n):
            for j in range(n):
                if i != j:
                    drift[:, i] += np.sign(i - j) / np.maximum(np.abs(lam[:, i] - lam[:, j]), eps)
        return drift

    z = ek_law_z(cfg, simulate_dyson(cfg).data, drift_of)
    assert np.all(np.abs(z) <= 3.0), z


def test_laguerre_ek_law_holds_at_any_dt():
    # the same identity for Laguerre noise (2/sqrt(beta)) sqrt(lam_i) z_i,
    # which holds on every step that does not reflect at 0.  A start far
    # from 0 with a large alpha keeps every step clear of it, and the
    # path-major oracle, which reproduces these paths bit for bit, counts no
    # reflection.  The drift is alpha + sum_(j != i) [1 + (lam_i + lam_j) /
    # (lam_i - lam_j)], its gaps floored at the engine's clamp.
    n, dt, steps, alpha = 4, 0.01, 50, 20.0
    cfg = SimConfig(beta=4.0, n=n, t_end=steps * dt, dt=dt,
                    initial=RootTuple((5.0, 7.0, 9.0, 11.0)), seed=5, paths=10000,
                    record_times=tuple(m * dt for m in range(steps + 1)), alpha=alpha)
    data = simulate_laguerre(cfg).data
    oracle, _, reflected = path_major_simulation(cfg, stochastic.LAGUERRE)
    assert np.array_equal(data, oracle) and reflected == 0
    eps = max(stochastic.EPS_GAP, math.sqrt(dt))

    def drift_of(lam):
        drift = np.full_like(lam, alpha + (n - 1))
        for i in range(n):
            for j in range(n):
                if i != j:
                    pair = (lam[:, i] + lam[:, j]) / np.maximum(np.abs(lam[:, i] - lam[:, j]), eps)
                    drift[:, i] += np.sign(i - j) * pair
        return drift

    z = ek_law_z(cfg, data, drift_of)
    assert np.all(np.abs(z) <= 3.0), z


def test_chi_sample_moments():
    rng = np.random.default_rng(11)
    for k in (0.7, 2.0, 5.3):
        draws = _chi_matrix(np.array([k]), rng, 60000)[0]
        assert np.all(draws > 0.0)
        mean_sq = np.mean(draws**2) / k
        stderr = math.sqrt(2.0 / k) / math.sqrt(len(draws))
        assert abs(mean_sq - 1.0) < max(4.0 * stderr, 0.005)


class _GammaShapes:
    """A generator stand-in that records the gamma shapes it is asked for."""

    def __init__(self):
        self.shapes = []

    def standard_gamma(self, shape, size, out):
        self.shapes.append(shape)
        out[...] = 1.0


# The bidiagonal chi_(beta(alpha+N-i)) adds the integer N - i last, so a
# small alpha is not cancelled: the degrees of freedom are beta times the
# once-rounded sum (beta = 2 here, so each shape is that sum).
@pytest.mark.parametrize("alpha", [1e-300, 1e-10, 0.3])
def test_ble_degrees_of_freedom_round_once(alpha):
    rng, n = _GammaShapes(), 4
    diag, off = ble_tridiagonal_batch(2.0, alpha, n, 3, rng)
    assert diag.shape == (3, n) and off.shape == (3, n - 1)
    exact = [float(Fraction(alpha) + (n - i)) for i in range(1, n + 1)]
    assert rng.shapes == exact + [float(n - i) for i in range(1, n)]


def test_chi_sample_k2_is_exponential():
    # chi^2 with 2 dof is exponential(mean 2): KS statistic below the 1%
    # critical value 1.63/sqrt(n)
    rng = np.random.default_rng(13)
    n = 100000
    draws = np.sort(_chi_matrix(np.array([2.0]), rng, n)[0] ** 2)
    cdf = 1.0 - np.exp(-draws / 2.0)
    grid = np.arange(1, n + 1) / n
    ks = max(np.max(np.abs(cdf - grid)), np.max(np.abs(cdf - (grid - 1.0 / n))))
    assert ks < 1.63 / math.sqrt(n)


def test_sample_gbe_basic():
    t = sample_gbe_batch(2.0, 5, 1, np.random.default_rng(1))
    assert t.shape == (1, 5)
    assert np.array_equal(sample_gbe_batch(2.0, 5, 1, np.random.default_rng(1)), t)  # reproducible
    # N=1: plain normal with variance 2/beta
    rng = np.random.default_rng(3)
    draws = sample_gbe_batch(4.0, 1, 100000, rng)[:, 0]
    assert abs(np.var(draws, ddof=1) - 0.5) < 0.05 * 0.5


def test_sample_gbe_freezing_limit():
    z = hermite_roots(4, 1.0).as_array()
    for seed in range(5):
        ev = sample_gbe_batch(1e8, 4, 1, np.random.default_rng(seed))[0]
        assert np.max(np.abs(ev - z)) < 1e-3


def test_sample_gbe_second_moment_vs_grid_oracle():
    # 2-particle density integrable on a desk grid:
    # const * |x2-x1|^beta exp(-beta(x1^2+x2^2)/4)
    beta, n = 2.0, 2
    grid = np.linspace(-8.0, 8.0, 801)
    x1, x2 = np.meshgrid(grid, grid, indexing="ij")
    dens = np.abs(x2 - x1) ** beta * np.exp(-beta * (x1**2 + x2**2) / 4.0)
    target = float(np.sum(dens * (x1**2 + x2**2) / n) / np.sum(dens))
    rng = np.random.default_rng(17)
    evs = sample_gbe_batch(beta, n, 100000, rng)
    stat = np.mean(evs**2, axis=1)
    stderr = np.std(stat, ddof=1) / math.sqrt(len(stat))
    assert abs(np.mean(stat) - target) < 3.0 * stderr


def test_sample_ble_basic():
    t = sample_ble_batch(2.0, 1.5, 4, 1, np.random.default_rng(5))
    assert t.shape == (1, 4) and t[0, 0] >= 0.0
    assert np.array_equal(sample_ble_batch(2.0, 1.5, 4, 1, np.random.default_rng(5)), t)
    # N=1: chi^2_(beta alpha)/beta has mean alpha
    rng = np.random.default_rng(7)
    draws = sample_ble_batch(3.0, 2.0, 1, 100000, rng)[:, 0]
    stderr = np.std(draws, ddof=1) / math.sqrt(len(draws))
    assert abs(np.mean(draws) - 2.0) < 3.0 * stderr
    assert np.all(draws >= 0.0)


def test_sample_ble_freezing_limit():
    z = laguerre_roots(3, 2.0, 1.0).as_array()
    for seed in range(5):
        ev = sample_ble_batch(1e8, 2.0, 3, 1, np.random.default_rng(seed))[0]
        assert np.max(np.abs(ev - z)) < 1e-3


def test_sample_ble_rejects_bad_params():
    rng = np.random.default_rng(1)
    with pytest.raises(InvalidParameter):
        sample_ble_batch(2.0, 0.0, 3, 1, rng)
    with pytest.raises(InvalidParameter, match="size"):
        sample_ble_batch(2.0, 1.0, 3, -1, rng)
    with pytest.raises(InvalidParameter, match="size"):
        sample_gbe_batch(2.0, 3, -1, rng)
    with pytest.raises(InvalidParameter):
        sample_gbe_batch(0.0, 3, 10, rng)
    bad = ((math.nan, 1.0, 3), (math.inf, 1.0, 3), (2.0, math.inf, 3), (2.0, 1.0, 0))
    for beta, alpha, n in bad:
        with pytest.raises(InvalidParameter):
            sample_ble_batch(beta, alpha, n, 10, rng)
        if alpha == 1.0:
            with pytest.raises(InvalidParameter):
                sample_gbe_batch(beta, n, 10, rng)


def path_major_drift(lam, kind, alpha, inv_sign, eps_eff):
    """The path-major drift, on a (paths, n) state with the full
    (paths, n, n) pair tensor summed over j from left to right."""
    d = lam[:, :, None] - lam[:, None, :]
    ad = np.abs(d)
    clamped = int(np.count_nonzero(ad[:, inv_sign > 0] < eps_eff))
    np.maximum(ad, eps_eff, out=ad)
    terms = inv_sign / ad
    n = lam.shape[1]
    if kind == stochastic.LAGUERRE:
        terms *= lam[:, :, None] + lam[:, None, :]
    drift = np.zeros(lam.shape)
    for j in range(n):
        drift += terms[:, :, j]
    if kind == stochastic.DYSON:
        return drift, clamped
    return alpha + (n - 1) + drift, clamped


def path_major_simulation(cfg, kind):
    """The path-major engine: one noise panel per path drawn in a single
    call, a (paths, n) state re-sorted row by row after every step.  The
    oracle the lane-major engine must reproduce bit for bit, clamp count
    included.  Also returns how many coordinates the Laguerre steps
    reflected at 0."""
    n, dt = cfg.n, cfg.dt
    n_steps = cfg.n_steps
    record_steps = cfg.record_steps()
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.paths)
    noise = np.empty((cfg.paths, n_steps, n))
    for p in range(cfg.paths):
        gen = np.random.Generator(np.random.PCG64(children[p]))
        noise[p] = gen.standard_normal((n_steps, n))
    lam = np.tile(cfg.initial.as_array(), (cfg.paths, 1))
    lam.sort(axis=1)
    out = np.empty((cfg.paths, len(record_steps), n))
    for slot, s in enumerate(record_steps):
        if s == 0:
            out[:, slot] = lam
    inv_sign = np.sign(np.arange(n)[:, None] - np.arange(n)[None, :]).astype(float)
    eps_eff = max(stochastic.EPS_GAP, math.sqrt(dt))
    sqdt = math.sqrt(dt)
    clamp_total = reflected = 0
    for step in range(n_steps):
        drift, clamped = path_major_drift(lam, kind, cfg.alpha, inv_sign, eps_eff)
        if kind == stochastic.DYSON:
            lam = lam + drift * dt + math.sqrt(2.0 / cfg.beta) * sqdt * noise[:, step]
        else:
            scaled = 2.0 / math.sqrt(cfg.beta) * sqdt * noise[:, step]
            lam = lam + drift * dt + np.sqrt(np.maximum(lam, 0.0)) * scaled
            reflected += int(np.count_nonzero(lam < 0.0))
            np.abs(lam, out=lam)
        clamp_total += clamped
        lam.sort(axis=1)
        assert np.max(np.abs(lam)) <= stochastic.STABILITY_BOUND
        for slot, s in enumerate(record_steps):
            if s == step + 1:
                out[:, slot] = lam
    return out, clamp_total, reflected


def oracle_cfg(kind, n, start, t_end=0.3, record_times=(0.0, 0.1, 0.1, 0.3), paths=5, seed=None):
    """beta = 1 and dt = 1e-3: 300 steps, crossings and (from zero) clamps."""
    if start == "zeros":
        initial = RootTuple((0.0,) * n)
    else:
        spread = np.sort(np.random.default_rng(n).uniform(0.0, 0.5 * n, n))
        initial = RootTuple(tuple(spread if kind == stochastic.LAGUERRE else spread - 0.25 * n))
    alpha = 1.5 if kind == stochastic.LAGUERRE else None
    return SimConfig(beta=1.0, n=n, t_end=t_end, dt=1e-3, initial=initial, seed=1000 + n if seed is None else seed,
                     paths=paths, record_times=record_times, alpha=alpha)


SIMULATORS = {stochastic.DYSON: simulate_dyson, stochastic.LAGUERRE: simulate_laguerre}


def assert_matches_oracle(cfg, kind):
    ens = SIMULATORS[kind](cfg)
    data, clamps, _ = path_major_simulation(cfg, kind)
    assert np.array_equal(ens.data, data)
    assert ens.clamp_events == clamps
    return ens


# 300 steps is not a multiple of the chunk length; n = 8, 9, 16, 17 and 130
# are sizes at which numpy's own sum would add in another order
@pytest.mark.parametrize("kind", [stochastic.DYSON, stochastic.LAGUERRE])
@pytest.mark.parametrize("n", [1, 2, 4, 7, 8, 9, 16, 17, 130])
@pytest.mark.parametrize("start", ["spread", "zeros"])
def test_engine_bit_identical_to_path_major_oracle(kind, n, start):
    if n == 130:
        cfg = oracle_cfg(kind, n, start, t_end=0.02, record_times=(0.0, 0.01, 0.01, 0.02), paths=2)
    else:
        cfg = oracle_cfg(kind, n, start)
    assert cfg.n_steps % stochastic._NOISE_CHUNK_STEPS != 0
    ens = assert_matches_oracle(cfg, kind)
    if start == "zeros" and n > 1:
        assert ens.clamp_events > 0


@pytest.mark.parametrize("kind", [stochastic.DYSON, stochastic.LAGUERRE])
@pytest.mark.parametrize("t_end", [0.0, 0.05])
def test_engine_bit_identical_on_short_horizons(kind, t_end):
    # no step at all, and fewer steps than one noise chunk
    cfg = oracle_cfg(kind, 4, "zeros", t_end=t_end, record_times=(0.0, t_end, t_end))
    assert cfg.n_steps < stochastic._NOISE_CHUNK_STEPS
    assert_matches_oracle(cfg, kind)


# a seed of more than the 4-word SeedSequence pool, and numpy integer seeds
@pytest.mark.parametrize("kind", [stochastic.DYSON, stochastic.LAGUERRE])
@pytest.mark.parametrize("seed", [2**128 + 3, np.int64(77), np.uint64(2**63 + 11)])
@pytest.mark.parametrize("workers", [1, 2])
def test_engine_bit_identical_at_wide_and_numpy_seeds(kind, seed, workers, monkeypatch):
    cfg = oracle_cfg(kind, 4, "zeros", paths=6, seed=seed)
    forks = force_shards(monkeypatch, workers) if workers > 1 else []
    assert_matches_oracle(cfg, kind)
    assert len(forks) == workers - 1
    assert_no_child_left()


SEEDS = [0, 5, 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 1, 2**200 + 7, np.int64(5), np.uint64(2**63)]


def seed_sequence_states(seed, lo, hi):
    return np.array(
        [np.random.SeedSequence(seed, spawn_key=(p,)).generate_state(4, np.uint64) for p in range(lo, hi)]
    ).reshape(hi - lo, 4)


@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"{type(s).__name__}-{s}")
@pytest.mark.parametrize("lo, hi", [(0, 3000), (990, 1010), (2**32 - 3, 2**32 + 3)])
def test_path_states_equal_seed_sequence_states(seed, lo, hi):
    # at p = 2^32 the spawn key gains a word; 2^200 + 7 has more words than
    # the pool holds
    states = stochastic._path_states(seed, lo, hi)
    assert states.dtype == np.uint64 and states.flags.c_contiguous
    assert np.array_equal(states, seed_sequence_states(seed, lo, hi))


@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"{type(s).__name__}-{s}")
def test_generators_from_path_states_equal_spawned_ones(seed):
    for p, row in zip(range(990, 1010), stochastic._path_states(seed, 990, 1010)):
        ours = np.random.Generator(np.random.PCG64(stochastic._StateRow(row)))
        numpys = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(p,))))
        assert ours.bit_generator.state == numpys.bit_generator.state
        assert np.array_equal(ours.standard_normal(64), numpys.standard_normal(64))
    with pytest.raises(ValueError):
        stochastic._StateRow(row).generate_state(8)


def test_a_block_builds_no_seed_sequence(monkeypatch):
    # a return to one SeedSequence per path fails here by name, not only as
    # a slower benchmark
    built, real = [], np.random.SeedSequence

    def counted(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counted)
    cfg = make_cfg(paths=1000, t_end=0.01, record_times=())
    assert stochastic._run_plan(cfg) == PLANS["serial"]
    data, _ = stochastic._simulate_block(cfg, stochastic.DYSON, 0, cfg.paths)
    assert data.shape == (1000, 1, 3)
    assert built == []
    np.random.SeedSequence(cfg.seed)  # the count sees numpy's own
    assert len(built) == 1


# (shortest chunk, noise budget in bytes) for 300 steps recorded at steps 0,
# 100, 100 and 300: a one-step budget; a partial last chunk (42 x 7 + 6);
# chunk edges on the record steps; one chunk, and one longer than the run; a
# budget of a few steps, whose chunks differ in length between blocks of
# different widths, and between the plans
CHUNKINGS = [(1, 1), (7, 0), (100, 0), (300, 0), (350, 0), (1, 8 * 5 * 16 * 7)]


@pytest.mark.parametrize("kind", [stochastic.DYSON, stochastic.LAGUERRE])
def test_output_invariant_to_noise_chunk_length(kind, monkeypatch):
    cfg = oracle_cfg(kind, 5, "zeros", paths=7)
    ref = SIMULATORS[kind](cfg)
    for plan in ("serial", "path-2", "stage"):
        with monkeypatch.context() as m:
            forks = force_plan(m, PLANS[plan])
            for shortest, budget in CHUNKINGS:
                m.setattr(stochastic, "_NOISE_CHUNK_STEPS", shortest)
                m.setattr(stochastic, "_NOISE_BYTES", budget)
                three_paths = 3 * stochastic._path_bytes(cfg.n_steps, cfg.n)
                for block_bytes in (1 << 26, three_paths):  # one block, or blocks of 3, 3 and 1
                    m.setattr(stochastic, "_BLOCK_BYTES", block_bytes)
                    ens = SIMULATORS[kind](cfg)
                    assert np.array_equal(ens.data, ref.data)
                    assert ens.clamp_events == ref.clamp_events
        assert len(forks) == 2 * len(CHUNKINGS) * forks_of(PLANS[plan])
        assert_no_child_left()


@pytest.mark.parametrize("kind", [stochastic.DYSON, stochastic.LAGUERRE])
def test_nan_in_one_middle_particle_raises_step_unstable(kind, monkeypatch):
    # the NaN sits between finite neighbours of one path, not at a column end
    name = "_drift_dyson" if kind == stochastic.DYSON else "_drift_laguerre"
    real = getattr(stochastic, name)

    def drift_with_nan(lam, *args):
        drift, clamped = real(lam, *args)
        drift[lam.shape[0] // 2, 1] = np.nan
        return drift, clamped

    monkeypatch.setattr(stochastic, name, drift_with_nan)
    with pytest.raises(StepUnstable, match="at step 1;"):
        SIMULATORS[kind](oracle_cfg(kind, 5, "spread"))


@pytest.mark.parametrize("kind", [stochastic.DYSON, stochastic.LAGUERRE])
@pytest.mark.parametrize(
    "fault, bad_step",
    [("nan", 37), ("nan", 300), ("far", 37), ("far", 100)],
)
def test_step_unstable_names_the_step_that_failed(kind, fault, bad_step, monkeypatch):
    # the state a step leaves is checked at the start of the next step, or
    # after the last one; the message still names the step that broke it,
    # at a record step (100), between records (37) and at the end (300)
    name = "_drift_dyson" if kind == stochastic.DYSON else "_drift_laguerre"
    real = getattr(stochastic, name)
    cfg = oracle_cfg(kind, 5, "spread", record_times=(0.0, 0.1))
    assert cfg.n_steps == 300 and cfg.record_steps() == [0, 100]
    calls = []

    def faulty_drift(lam, *args):
        drift, clamped = real(lam, *args)
        calls.append(None)
        if len(calls) == bad_step:
            drift[-1, 1] = np.nan if fault == "nan" else 10 * stochastic.STABILITY_BOUND / cfg.dt
        return drift, clamped

    monkeypatch.setattr(stochastic, name, faulty_drift)
    with pytest.raises(StepUnstable, match=f"at step {bad_step};"):
        SIMULATORS[kind](cfg)


@pytest.mark.parametrize("kind", [stochastic.DYSON, stochastic.LAGUERRE])
@pytest.mark.parametrize("below", [0, 1])
def test_gap_at_the_clamp_floor_matches_oracle(kind, below):
    # dt = 2**-10 makes the floor eps = sqrt(dt) = 2**-5 exact: a start gap
    # of exactly eps needs no clamp, one ulp below it must be clamped
    eps = 2.0**-5
    gap = eps if not below else np.nextafter(eps, 0.0)
    cfg = SimConfig(beta=4.0, n=3, t_end=8 * 2.0**-10, dt=2.0**-10,
                    initial=RootTuple((0.0, gap, 1.0)), seed=5, paths=6,
                    record_times=(2.0**-10, 8 * 2.0**-10),
                    alpha=1.5 if kind == stochastic.LAGUERRE else None)
    assert max(stochastic.EPS_GAP, math.sqrt(cfg.dt)) == eps
    ens = assert_matches_oracle(cfg, kind)
    if below:
        assert ens.clamp_events >= cfg.paths


@pytest.mark.parametrize(
    "start",
    [(-0.0, 0.0, -0.0, 0.4, 1.5), (0.0, 0.0, 0.0, 0.9, 0.9)],
    ids=["negative-zero", "zero-ties"],
)
def test_laguerre_start_at_zero_matches_oracle(start):
    # the engine takes sqrt(lam) where the oracle takes sqrt(max(lam, 0)):
    # a -0.0 start flips the sign of a zero inside the first step, which
    # that step's abs clears, and exact-zero ties need the clamp at once
    cfg = SimConfig(beta=4.0, n=5, t_end=0.05, dt=1e-3, initial=RootTuple(start), seed=11,
                    paths=9, record_times=(0.0, 1e-3, 0.05), alpha=0.5)
    ens = simulate_laguerre(cfg)
    data, clamps, _ = path_major_simulation(cfg, stochastic.LAGUERRE)
    assert ens.data.tobytes() == data.tobytes()  # signed zeros included
    assert ens.clamp_events == clamps > 0
    negative_zeros = np.signbit(start).sum()
    assert (np.signbit(ens.data[:, 0]).sum(axis=1) == negative_zeros).all()
    assert not np.signbit(ens.data[:, 1:]).any()


def inject_nan(monkeypatch, kind, faults):
    """Make path p's state NaN at step s for each (p, s) in ``faults``."""
    name = "_drift_dyson" if kind == stochastic.DYSON else "_drift_laguerre"
    real_drift, real_block = getattr(stochastic, name), stochastic._simulate_block
    block = {}

    def block_with_faults(cfg, kind, lo, hi, *chunks):
        block.update(lo=lo, hi=hi, calls=0)
        return real_block(cfg, kind, lo, hi, *chunks)

    def faulty_drift(lam, *args):
        drift, clamped = real_drift(lam, *args)
        block["calls"] += 1
        for p, s in faults:
            if block["lo"] <= p < block["hi"] and block["calls"] == s:
                drift[1, p - block["lo"]] = np.nan
        return drift, clamped

    monkeypatch.setattr(stochastic, "_simulate_block", block_with_faults)
    monkeypatch.setattr(stochastic, name, faulty_drift)


@pytest.mark.parametrize("kind", [stochastic.DYSON, stochastic.LAGUERRE])
@pytest.mark.parametrize(
    "paths, block, faults, step",
    [
        (8, 8, [(6, 37)], 37),  # only in the child's range [4, 8)
        (8, 8, [(1, 80), (6, 40)], 40),  # both ranges: the earliest step
        (8, 8, [(1, 40), (6, 80)], 40),
        # blocks of 10 paths, ranges [0, 16) and [16, 32): the first failing
        # block (paths 10-19) is raised, as in the serial run, though a later
        # block fails earlier; that block is split over both ranges
        (32, 10, [(12, 60), (25, 10)], 60),
        (32, 10, [(12, 60), (17, 50), (25, 10)], 50),
    ],
)
def test_sharded_step_unstable_is_the_serial_error(kind, paths, block, faults, step, monkeypatch):
    # in the stage plan, the caller steps every block in turn and the drawer
    # is killed when the first failure stops it
    cfg = oracle_cfg(kind, 5, "spread", paths=paths)
    block_bytes = block * stochastic._path_bytes(cfg.n_steps, cfg.n)
    monkeypatch.setattr(stochastic, "_BLOCK_BYTES", block_bytes)
    inject_nan(monkeypatch, kind, faults)
    with pytest.raises(StepUnstable) as serial:
        SIMULATORS[kind](cfg)
    assert f"at step {step};" in str(serial.value)
    for plan in ("path-2", "stage"):
        with monkeypatch.context() as m:
            forks = force_plan(m, PLANS[plan])
            with pytest.raises(StepUnstable) as sharded:
                SIMULATORS[kind](cfg)
        assert len(forks) == 1
        assert str(sharded.value) == str(serial.value)
        assert_no_child_left()


@pytest.mark.parametrize("death", ["exit", "signal"])
def test_range_of_a_lost_child_is_run_by_the_caller(death, monkeypatch):
    # the caller also formats the rows of the ranges it runs for lost children
    cfg = make_cfg(paths=32, beta=1.0, t_end=0.1, record_times=(0.05, 0.1))
    ref = simulate_dyson(cfg, rows=cli._particle_rows)
    caller, real, ran_here = os.getpid(), stochastic._simulate_range, []

    def child_dies(cfg, kind, lo, hi, drawer=None):
        if os.getpid() != caller and death == "exit":
            os._exit(1)
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        ran_here.append((lo, hi))
        return real(cfg, kind, lo, hi, drawer)

    monkeypatch.setattr(stochastic, "_simulate_range", child_dies)
    forks = force_shards(monkeypatch, 3)
    ens = simulate_dyson(cfg, rows=cli._particle_rows)
    assert len(forks) == 2 and ran_here == [(0, 10), (10, 21), (21, 32)]
    assert np.array_equal(ens.data, ref.data) and ens.clamp_events == ref.clamp_events
    assert len(ref.rows) == 1 and len(ens.rows) == 3
    assert ["\n".join(slot) for slot in zip(*ens.rows)] == ref.rows[0]
    assert_no_child_left()


@pytest.mark.parametrize("death, at_fill", [("exit", 1), ("signal", 20)])
def test_noise_of_a_lost_drawer_is_drawn_by_the_caller(death, at_fill, monkeypatch):
    # blocks of 10 paths, 15 chunks of noise each: a drawer that exits before
    # its first chunk, or is killed while it fills the second block's fifth,
    # leaves the caller to run that block again, and every later one, with
    # noise it draws itself
    cfg = make_cfg(paths=32, beta=1.0, t_end=0.1, record_times=(0.05, 0.1))
    ref = simulate_dyson(cfg, rows=cli._particle_rows)
    monkeypatch.setattr(stochastic, "_NOISE_CHUNK_STEPS", 7)
    monkeypatch.setattr(stochastic, "_NOISE_BYTES", 0)
    monkeypatch.setattr(stochastic, "_BLOCK_BYTES", 10 * stochastic._path_bytes(cfg.n_steps, cfg.n))
    caller, source = os.getpid(), stochastic._NoiseSource
    real_init, real_fill, fills, drawn_here = source.__init__, source.fill, [], []

    def init(self, cfg, kind, lo, hi):
        if os.getpid() == caller:
            drawn_here.append((lo, hi))
        real_init(self, cfg, kind, lo, hi)

    def fill(self, noise):
        if os.getpid() != caller:
            fills.append(None)
            if len(fills) == at_fill and death == "exit":
                os._exit(1)
            if len(fills) == at_fill:
                os.kill(os.getpid(), signal.SIGKILL)
        real_fill(self, noise)

    monkeypatch.setattr(source, "__init__", init)
    monkeypatch.setattr(source, "fill", fill)
    forks = force_plan(monkeypatch, PLANS["stage"])
    ens = simulate_dyson(cfg, rows=cli._particle_rows)
    assert len(forks) == 1
    lost = 0 if at_fill == 1 else 1
    assert drawn_here == [(0, 10), (10, 20), (20, 30), (30, 32)][lost:]
    assert ens.data.tobytes() == ref.data.tobytes() and ens.clamp_events == ref.clamp_events
    assert ens.rows == ref.rows
    assert_no_child_left()


# 31 paths: no shard count of 2 or 3 divides them; the record slots repeat
SHARDED_ARGV = {
    "dyson": ["simulate", "--kind", "dyson", "--n", "3", "--beta", "1", "--t", "0.1",
              "--dt", "0.001", "--paths", "31", "--seed", "8", "--record", "0.02,0.05,0.05,0.1"],
    "laguerre": ["simulate", "--kind", "laguerre", "--n", "3", "--beta", "2", "--t", "0.1",
                 "--dt", "0.001", "--paths", "31", "--seed", "8", "--alpha", "1.5",
                 "--record", "0,0.05,0.05,0.1"],
}


def simulate_bytes(argv, path):
    """The particle CSV and summary bytes of one ``cli.main`` run."""
    assert cli.main(argv + ["--out", str(path)]) == 0
    return path.read_bytes(), path.with_name(path.name + ".summary.json").read_bytes()


@pytest.mark.parametrize("kind", ["dyson", "laguerre"])
def test_rows_formatted_by_the_shards_keep_the_bytes(kind, tmp_path, monkeypatch):
    ref = simulate_bytes(SHARDED_ARGV[kind], tmp_path / "serial.csv")
    assert ref[0].count(b"\n") == 2 + 4 * 31
    for plan in PLANS:
        with monkeypatch.context() as m:
            forks = force_plan(m, PLANS[plan])
            got = simulate_bytes(SHARDED_ARGV[kind], tmp_path / f"{plan}.csv")
        assert len(forks) == forks_of(PLANS[plan])
        assert got == ref
        assert_no_child_left()


def test_each_process_formats_the_rows_of_its_own_range(tmp_path, monkeypatch):
    # a return to formatting every row in the calling process fails here by
    # name, not only as a slower benchmark
    log, real = tmp_path / "formatted.log", cli._particle_rows

    def logged(cfg, data, lo):
        with open(log, "a", encoding="utf-8") as fh:  # the child writes before it exits
            fh.write(f"{os.getpid()} {lo} {data.shape[0] * data.shape[1]}\n")
        return real(cfg, data, lo)

    monkeypatch.setattr(cli, "_particle_rows", logged)
    forks = force_shards(monkeypatch, 2)
    csv, _ = simulate_bytes(SHARDED_ARGV["dyson"], tmp_path / "sim.csv")
    assert len(forks) == 1
    rows_by_pid = {}
    for line in log.read_text(encoding="utf-8").splitlines():
        pid, lo, rows = map(int, line.split())
        rows_by_pid.setdefault(pid, []).append((lo, rows))
    # ranges [0, 15) and [15, 31), four record slots each
    assert rows_by_pid.pop(os.getpid()) == [(0, 15 * 4)]
    assert list(rows_by_pid.values()) == [[(15, 16 * 4)]]
    assert csv.count(b"\n") == 2 + 31 * 4
    assert_no_child_left()


def test_interrupt_kills_and_reaps_the_children(monkeypatch):
    caller = os.getpid()

    def interrupted(cfg, kind, lo, hi, drawer=None):
        if os.getpid() != caller:
            time.sleep(60)  # a child still running when the caller stops
        raise KeyboardInterrupt

    def drawing(self, noise):
        time.sleep(60)  # only a drawer gets here: the caller's range stops first

    monkeypatch.setattr(stochastic, "_simulate_range", interrupted)
    monkeypatch.setattr(stochastic._NoiseSource, "fill", drawing)
    for plan in ("path-3", "stage"):
        t0 = time.monotonic()
        with monkeypatch.context() as m, pytest.raises(KeyboardInterrupt):
            force_plan(m, PLANS[plan])
            simulate_dyson(make_cfg(paths=32))
        assert time.monotonic() - t0 < 30
        assert_no_child_left()


def test_cli_exit_3_for_an_unstable_sharded_run(capsys, monkeypatch):
    argv = ["simulate", "--kind", "dyson", "--n", "3", "--beta", "1",
            "--t", "1e16", "--dt", "1e16", "--paths", "4", "--seed", "1"]
    assert cli.main(argv) == 3
    serial = capsys.readouterr()
    for plan in ("path-2", "stage"):
        with monkeypatch.context() as m:
            forks = force_plan(m, PLANS[plan])
            assert cli.main(argv) == 3
        sharded = capsys.readouterr()
        assert len(forks) == 1
        assert sharded.out == serial.out == ""
        assert sharded.err == serial.err
        assert sharded.err.startswith("numerical failure: ") and sharded.err.count("\n") == 1
        assert_no_child_left()


def usable_cpus(count):
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < count:
        pytest.skip(f"needs {count} usable CPUs")
    return cpus


def test_output_identical_at_one_and_two_usable_cores():
    # the real plan at each mask: serial on one core, forked on two
    cpus = usable_cpus(2)
    cfg = make_cfg(paths=400, n=4, t_end=0.5, initial=RootTuple((-1.2, -0.4, 0.3, 1.1)),
                   record_times=(0.25, 0.5))
    assert stochastic._plan(400, 4, cfg.n_steps, 2, 2) != PLANS["serial"]
    runs = []
    try:
        for mask in ([cpus[0]], cpus[:2]):
            os.sched_setaffinity(0, mask)
            assert stochastic._run_plan(cfg) == stochastic._plan(400, 4, cfg.n_steps, 2, len(mask))
            runs.append(simulate_dyson(cfg))
            assert os.sched_getaffinity(0) == set(mask)
    finally:
        os.sched_setaffinity(0, cpus)
    assert runs[0].data.tobytes() == runs[1].data.tobytes()
    assert runs[0].clamp_events == runs[1].clamp_events
    assert_no_child_left()

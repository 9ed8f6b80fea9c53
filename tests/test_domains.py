"""Every integer and real parameter of the public entry points is checked by
type and domain, and a value outside it raises InvalidParameter naming the
parameter."""

import math
import warnings

import numpy as np
import pytest

from freezing_dyson.dynamics import (
    GkTrajectory,
    MomentSequence,
    gaussian_gk,
    gaussian_limit_closed,
    laguerre_gk,
    laguerre_limit_closed,
    limit_roots,
    moment_sequence,
)
from freezing_dyson.elemsym import (
    MonicPolynomial,
    RootTuple,
    newton_esp_from_power_sums,
    partial_esp,
)
from freezing_dyson.errors import DimensionMismatch, InvalidParameter, NonFiniteOutput
from freezing_dyson.finfree import MKLift, convolve_esp, hermite_roots, laguerre_roots
from freezing_dyson.orthopoly import (
    JacobiMatrix,
    OrthogonalSystem,
    SpectralMeasure,
    dual_hermite_system,
    dual_laguerre_system,
    hermite_jacobi,
    hermite_zeros,
    laguerre_freezing_matrix,
    laguerre_jacobi,
    laguerre_zeros,
    primitive,
    scaled_primitive,
)
from freezing_dyson.stats import (
    build_q_matrix_gaussian,
    build_q_matrix_laguerre,
    clt_covariance_gaussian,
    clt_covariance_laguerre,
    ek_drift_report,
    moment_process_estimate,
    primitive_clt_check,
    process_clt_check,
    within_tolerance,
)
from freezing_dyson.stochastic import (
    SimConfig,
    sample_ble,
    sample_ble_batch,
    sample_gbe,
    sample_gbe_batch,
    simulate_dyson,
    simulate_laguerre,
)

START = RootTuple((0.5, 1.0, 2.0))
TRAJECTORY = gaussian_gk(START)
MOMENTS = moment_sequence(3, 4)
SYSTEM = dual_hermite_system(3)
CONFIG = dict(
    beta=4.0, n=2, t_end=0.5, dt=0.25, initial=RootTuple((0.0, 0.0)),
    seed=1, paths=3, record_times=(0.25, 0.5), alpha=None,
)
ENSEMBLE = simulate_dyson(SimConfig(**CONFIG))
COVARIANCE = clt_covariance_gaussian(2.0, 3, 8, 1)
PRIMITIVE = primitive_clt_check(2.0, 3, 8, 1, "laguerre", alpha=1.5)


def _config(**changes):
    return SimConfig(**{**CONFIG, **changes})


# Each entry point as a callable of keyword arguments, with arguments inside
# its domain; every real one is a dyadic rational, so that np.float32 holds
# it exactly.
ENTRY_POINTS = {
    "partial_esp": (partial_esp, dict(i=1, k=2, x=START)),
    "newton_esp_from_power_sums": (newton_esp_from_power_sums, dict(powersums=[1.0, 2.0], n=2)),
    "hermite_roots": (hermite_roots, dict(n=3, t=0.5)),
    "laguerre_roots": (laguerre_roots, dict(n=3, alpha=1.5, t=0.5)),
    "MKLift": (MKLift, dict(s=(1.0, 2.0), n=2)),
    "hermite_jacobi": (hermite_jacobi, dict(n=3)),
    "laguerre_jacobi": (laguerre_jacobi, dict(n=3, alpha=1.5)),
    "laguerre_freezing_matrix": (laguerre_freezing_matrix, dict(n=3, alpha=1.5)),
    "hermite_zeros": (hermite_zeros, dict(n=3)),
    "laguerre_zeros": (laguerre_zeros, dict(n=3, alpha=1.5)),
    "dual_hermite_system": (dual_hermite_system, dict(n=3)),
    "dual_laguerre_system": (dual_laguerre_system, dict(n=3, alpha=1.5)),
    "primitive": (primitive, dict(sys=SYSTEM, m=1)),
    "scaled_primitive": (scaled_primitive, dict(sys=SYSTEM, m=1, t=0.5, x=1.0)),
    "OrthogonalSystem.value": (SYSTEM.value, dict(m=1, x=1.0)),
    "OrthogonalSystem.orthonormal_value": (SYSTEM.orthonormal_value, dict(m=1, x=1.0)),
    "OrthogonalSystem.coefficients": (SYSTEM.coefficients, dict(m=1)),
    "laguerre_gk": (laguerre_gk, dict(initial=START, alpha=1.5)),
    "limit_roots": (limit_roots, dict(traj=gaussian_gk(START), t=0.5)),
    "gaussian_limit_closed": (gaussian_limit_closed, dict(initial=START, t=0.5)),
    "laguerre_limit_closed": (laguerre_limit_closed, dict(initial=START, alpha=4.5, t=0.5)),
    "moment_sequence": (moment_sequence, dict(n_sys=3, max_order=4)),
    "GkTrajectory.value": (TRAJECTORY.value, dict(k=1, t=0.5)),
    "GkTrajectory.coefficients_at": (TRAJECTORY.coefficients_at, dict(t=0.5)),
    "MomentSequence": (MomentSequence, dict(u=(1.0, 0.0, 3.0), n=3)),
    "MomentSequence.moment_at": (MOMENTS.moment_at, dict(k=2, t=0.5)),
    "SimConfig": (_config, {}),
    "SimConfig.record_times": (lambda t: _config(record_times=(t,)), dict(t=0.25)),
    "simulate_laguerre": (
        lambda alpha: simulate_laguerre(_config(initial=RootTuple((0.5, 1.0)), alpha=alpha)),
        dict(alpha=1.5),
    ),
    "sample_gbe": (sample_gbe, dict(beta=2.0, n=3, seed=1)),
    "sample_ble": (sample_ble, dict(beta=2.0, alpha=1.5, n=3, seed=1)),
    "sample_gbe_batch": (
        lambda **kw: sample_gbe_batch(rng=np.random.default_rng(1), **kw),
        dict(beta=2.0, n=3, size=4),
    ),
    "sample_ble_batch": (
        lambda **kw: sample_ble_batch(rng=np.random.default_rng(1), **kw),
        dict(beta=2.0, alpha=1.5, n=3, size=4),
    ),
    "build_q_matrix_gaussian": (build_q_matrix_gaussian, dict(n=3)),
    "build_q_matrix_laguerre": (build_q_matrix_laguerre, dict(n=3, alpha=1.5)),
    "clt_covariance_gaussian": (
        clt_covariance_gaussian, dict(beta=2.0, n=3, samples=8, seed=1)
    ),
    "clt_covariance_laguerre": (
        clt_covariance_laguerre, dict(beta=2.0, n=3, alpha=1.5, samples=8, seed=1)
    ),
    "primitive_clt_check": (
        primitive_clt_check,
        dict(beta=2.0, n=3, samples=8, seed=1, kind="laguerre", alpha=1.5),
    ),
    "ek_drift_report": (ek_drift_report, dict(ensemble=ENSEMBLE, bias_factor=5.0)),
    "moment_process_estimate": (moment_process_estimate, dict(ensemble=ENSEMBLE, max_order=2)),
    "process_clt_check": (process_clt_check, dict(ensemble=ENSEMBLE, max_order=1)),
    "within_tolerance": (
        within_tolerance, dict(estimate=1.0, target=1.0, stderr=0.5, rel_tol=0.5)
    ),
    "CovarianceReport.diag_pass": (COVARIANCE.diag_pass, dict(rel_tol=0.5)),
    "PrimitiveCltReport.variance_pass": (PRIMITIVE.variance_pass, dict(rel_tol=0.5)),
}

# (entry point, parameter, the name its message gives)
INTEGER_PARAMETERS = [
    ("partial_esp", "i", "i"),
    ("partial_esp", "k", "k"),
    ("newton_esp_from_power_sums", "n", "n"),
    ("hermite_roots", "n", "n"),
    ("laguerre_roots", "n", "n"),
    ("MKLift", "n", "n"),
    ("hermite_jacobi", "n", "n"),
    ("laguerre_jacobi", "n", "n"),
    ("laguerre_freezing_matrix", "n", "n"),
    ("hermite_zeros", "n", "n"),
    ("laguerre_zeros", "n", "n"),
    ("dual_hermite_system", "n", "n"),
    ("dual_laguerre_system", "n", "n"),
    ("primitive", "m", "m"),
    ("scaled_primitive", "m", "m"),
    ("OrthogonalSystem.value", "m", "m"),
    ("OrthogonalSystem.orthonormal_value", "m", "m"),
    ("OrthogonalSystem.coefficients", "m", "m"),
    ("moment_sequence", "n_sys", "n_sys"),
    ("moment_sequence", "max_order", "max_order"),
    ("GkTrajectory.value", "k", "k"),
    ("MomentSequence", "n", "n"),
    ("MomentSequence.moment_at", "k", "k"),
    ("SimConfig", "n", "n"),
    ("SimConfig", "seed", "seed"),
    ("SimConfig", "paths", "paths"),
    ("sample_gbe", "n", "n"),
    ("sample_gbe", "seed", "seed"),
    ("sample_ble", "n", "n"),
    ("sample_ble", "seed", "seed"),
    ("sample_gbe_batch", "n", "n"),
    ("sample_gbe_batch", "size", "size"),
    ("sample_ble_batch", "n", "n"),
    ("sample_ble_batch", "size", "size"),
    ("build_q_matrix_gaussian", "n", "n"),
    ("build_q_matrix_laguerre", "n", "n"),
    ("clt_covariance_gaussian", "n", "n"),
    ("clt_covariance_gaussian", "samples", "samples"),
    ("clt_covariance_gaussian", "seed", "seed"),
    ("clt_covariance_laguerre", "n", "n"),
    ("clt_covariance_laguerre", "samples", "samples"),
    ("clt_covariance_laguerre", "seed", "seed"),
    ("primitive_clt_check", "n", "n"),
    ("primitive_clt_check", "samples", "samples"),
    ("primitive_clt_check", "seed", "seed"),
    ("moment_process_estimate", "max_order", "max_order"),
    ("process_clt_check", "max_order", "max_order"),
]

REAL_PARAMETERS = [
    ("hermite_roots", "t", "t"),
    ("laguerre_roots", "alpha", "alpha"),
    ("laguerre_roots", "t", "t"),
    ("laguerre_jacobi", "alpha", "alpha"),
    ("laguerre_freezing_matrix", "alpha", "alpha"),
    ("laguerre_zeros", "alpha", "alpha"),
    ("dual_laguerre_system", "alpha", "alpha"),
    ("scaled_primitive", "t", "t"),
    ("laguerre_gk", "alpha", "alpha"),
    ("GkTrajectory.value", "t", "t"),
    ("GkTrajectory.coefficients_at", "t", "t"),
    ("MomentSequence.moment_at", "t", "t"),
    ("limit_roots", "t", "time"),
    ("gaussian_limit_closed", "t", "time"),
    ("laguerre_limit_closed", "alpha", "alpha"),
    ("laguerre_limit_closed", "t", "time"),
    ("SimConfig", "beta", "beta"),
    ("SimConfig", "t_end", "t_end"),
    ("SimConfig", "dt", "dt"),
    ("SimConfig", "alpha", "alpha"),
    ("SimConfig.record_times", "t", "record time"),
    ("simulate_laguerre", "alpha", "alpha"),
    ("sample_gbe", "beta", "beta"),
    ("sample_ble", "beta", "beta"),
    ("sample_ble", "alpha", "alpha"),
    ("sample_gbe_batch", "beta", "beta"),
    ("sample_ble_batch", "beta", "beta"),
    ("sample_ble_batch", "alpha", "alpha"),
    ("build_q_matrix_laguerre", "alpha", "alpha"),
    ("clt_covariance_gaussian", "beta", "beta"),
    ("clt_covariance_laguerre", "beta", "beta"),
    ("clt_covariance_laguerre", "alpha", "alpha"),
    ("primitive_clt_check", "beta", "beta"),
    ("primitive_clt_check", "alpha", "alpha"),
    ("ek_drift_report", "bias_factor", "bias_factor"),
    ("within_tolerance", "rel_tol", "rel_tol"),
    ("CovarianceReport.diag_pass", "rel_tol", "rel_tol"),
    ("PrimitiveCltReport.variance_pass", "rel_tol", "rel_tol"),
]

BAD_INTEGERS = [2.5, "3", True, None, math.nan]
BAD_REALS = [math.nan, math.inf, -math.inf, "3", True, None]


def _call(entry, param=None, value=None):
    fn, kwargs = ENTRY_POINTS[entry]
    if param is None:
        return fn(**kwargs)
    return fn(**{**kwargs, param: value})


@pytest.mark.parametrize("bad", BAD_INTEGERS, ids=repr)
@pytest.mark.parametrize("entry,param,name", INTEGER_PARAMETERS)
def test_integer_parameter_rejected(entry, param, name, bad):
    with pytest.raises(InvalidParameter, match=rf"^{name} must be an integer >= "):
        _call(entry, param, bad)


@pytest.mark.parametrize("bad", BAD_REALS, ids=repr)
@pytest.mark.parametrize("entry,param,name", REAL_PARAMETERS)
def test_real_parameter_rejected(entry, param, name, bad):
    if entry == "SimConfig" and param == "alpha" and bad is None:
        _call(entry, param, bad)  # a Dyson configuration carries no alpha
        return
    with pytest.raises(InvalidParameter, match=rf"^{name} must be finite and "):
        _call(entry, param, bad)


def test_indices_above_their_range_rejected():
    TRAJECTORY.value(3, 0.5)
    with pytest.raises(InvalidParameter, match=r"^k must be <= N = 3 \(got 4\)$"):
        TRAJECTORY.value(4, 0.5)
    MOMENTS.moment_at(4, 0.5)
    with pytest.raises(InvalidParameter, match=r"^k must be <= max_order = 4 \(got 5\)$"):
        MOMENTS.moment_at(5, 0.5)


def test_messages_name_the_value():
    with pytest.raises(InvalidParameter, match=r"^n must be an integer >= 1 \(got 2\.5\)$"):
        hermite_jacobi(2.5)
    with pytest.raises(InvalidParameter, match=r"^alpha must be finite and > 0 \(got inf\)$"):
        laguerre_jacobi(3, math.inf)
    with pytest.raises(InvalidParameter, match=r"^seed must be an integer >= 0 \(got '3'\)$"):
        sample_gbe(2.0, 3, "3")
    with pytest.raises(InvalidParameter, match=r"^t must be finite and >= 0 \(got -0\.5\)$"):
        hermite_roots(3, -0.5)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_numpy_scalars_accepted(entry):
    ints = {p for e, p, _ in INTEGER_PARAMETERS if e == entry}
    reals = {p for e, p, _ in REAL_PARAMETERS if e == entry}
    fn, kwargs = ENTRY_POINTS[entry]
    if entry == "SimConfig":
        kwargs = {**CONFIG, "alpha": 1.5}
    kwargs = {
        k: np.int64(v) if k in ints else np.float32(v) if k in reals else v
        for k, v in kwargs.items()
    }
    fn(**kwargs)


def test_head_reproducers():
    # each of these once ended in a TypeError, an IndexError, an accepted
    # value or a silent NaN
    cases = [
        lambda: hermite_roots(2.5, 1),
        lambda: sample_gbe(2.0, 2.5, 1),
        lambda: clt_covariance_gaussian(1e4, 3, 100.5, 1),
        lambda: partial_esp(1.5, 1, START),
        lambda: _config(paths=2.5),
        lambda: moment_sequence(2.5, 4),
        lambda: moment_sequence(math.nan, 4),
        lambda: primitive_clt_check(2.0, 3, 8, 1, "laguerre"),
        lambda: TRAJECTORY.value(-1, 1.0),
        lambda: TRAJECTORY.value(True, 1.0),
        lambda: MOMENTS.moment_at(-1, 1.0),
        lambda: MOMENTS.moment_at(1, -1.0),
        lambda: MOMENTS.moment_at(2, math.nan),
        lambda: TRAJECTORY.value(2, math.nan),
    ]
    for case in cases:
        with pytest.raises(InvalidParameter):
            case()


SEQUENCE = r"must be a sequence of numbers"
POLYNOMIALS = r"g_k needs N >= 1 nonempty polynomials, g_0 a positive integer"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: RootTuple("12"), rf"^root tuple {SEQUENCE}, not str$"),
        (lambda: RootTuple(b"12"), rf"^root tuple {SEQUENCE}, not bytes$"),
        (lambda: RootTuple(("a",)), rf"^root tuple {SEQUENCE} \(could not convert string"),
        (lambda: RootTuple(3.0), rf"^root tuple {SEQUENCE} \('float' object is not iterable\)$"),
        (lambda: RootTuple((10**400,)), rf"^root tuple {SEQUENCE} \(int too large"),
        (lambda: RootTuple.from_values("21"), rf"^root tuple {SEQUENCE}, not str$"),
        (lambda: MonicPolynomial((1, "x")), rf"^alpha {SEQUENCE} \(could not convert string"),
        (lambda: MonicPolynomial("11"), rf"^alpha {SEQUENCE}, not str$"),
        (lambda: JacobiMatrix("1", ()), rf"^diag {SEQUENCE}, not str$"),
        (lambda: JacobiMatrix((0.0, 0.0), [None]), rf"^offdiag {SEQUENCE} \(float\(\) argument"),
        (lambda: SpectralMeasure((0, 1), (0.5, 0.5)), r"^atoms must be a RootTuple \(got tuple\)$"),
        (lambda: SpectralMeasure(RootTuple((0.0,)), "1"), rf"^weights {SEQUENCE}, not str$"),
        (lambda: OrthogonalSystem((0.0,), (1.0,)), r"^source must be a JacobiMatrix \(got tuple\)$"),
        (lambda: OrthogonalSystem(hermite_jacobi(1), "1"), rf"^squared_norms {SEQUENCE}, not str$"),
        (lambda: MKLift("12", 2), rf"^lift {SEQUENCE}, not str$"),
        (lambda: MKLift((1.0, "i"), 2), rf"^lift {SEQUENCE} \(complex\(\) arg is a malformed"),
        (lambda: MomentSequence((1.0,), 0), r"^n must be an integer >= 1 \(got 0\)$"),
        (lambda: MomentSequence(("u",), 1), rf"^u {SEQUENCE} \(could not convert string"),
        (lambda: GkTrajectory("ab"), rf"^g_k {SEQUENCE}, not str$"),
        (lambda: GkTrajectory(("ab", "cd")), rf"^g_k {SEQUENCE}, not str$"),
        (lambda: GkTrajectory(((2,), (1.0, 2))), rf"^g_k {SEQUENCE} \('float' object cannot be"),
        (lambda: GkTrajectory(((2,),)), rf"^{POLYNOMIALS}$"),
        (lambda: GkTrajectory(((0,), (1, 2))), rf"^{POLYNOMIALS}$"),
        (lambda: GkTrajectory(((2, 1), (1, 2))), rf"^{POLYNOMIALS}$"),
        (lambda: GkTrajectory(((2,), ())), rf"^{POLYNOMIALS}$"),
    ],
    ids=[
        "RootTuple-str", "RootTuple-bytes", "RootTuple-entry", "RootTuple-scalar",
        "RootTuple-overflow", "RootTuple.from_values-str", "MonicPolynomial-entry",
        "MonicPolynomial-str", "JacobiMatrix-str", "JacobiMatrix-entry", "SpectralMeasure-atoms",
        "SpectralMeasure-str", "OrthogonalSystem-source", "OrthogonalSystem-str", "MKLift-str", "MKLift-entry", "MomentSequence-n",
        "MomentSequence-entry", "GkTrajectory-str", "GkTrajectory-str-entry",
        "GkTrajectory-float-entry", "GkTrajectory-no-g1", "GkTrajectory-zero-g0",
        "GkTrajectory-nonconstant-g0", "GkTrajectory-empty-g1",
    ],
)
def test_value_constructors_reject_malformed_input(build, message):
    # each was once taken as given (a str read as its characters, n = 0, any
    # g_k coefficients) or ended in float()'s ValueError or TypeError, or in
    # an AttributeError
    with pytest.raises(InvalidParameter, match=message):
        build()


@pytest.mark.parametrize(
    "ea, message",
    [
        ([2.0, 1.0, 2.0], r"^ea must start with exactly 1 \(got \[2\.0\]\)$"),
        ([], r"^ea must start with exactly 1 \(got \[\]\)$"),
        ([1.0, math.nan, 0.0], r"^ea\[1\] must be finite \(got nan\)$"),
        ([1.0, 0.0, math.inf], r"^ea\[2\] must be finite \(got inf\)$"),
        ([1.0, -math.inf, 0.0], r"^ea\[1\] must be finite \(got -inf\)$"),
    ],
    ids=["e0-2", "empty", "nan", "inf", "-inf"],
)
def test_convolve_esp_rejects_bad_coefficients(ea, message):
    # each once came out as NaN or inf, or with e_0 = 2 silently taken as 1
    good = [1.0, 0.5, 0.25]
    with pytest.raises(InvalidParameter, match=message):
        convolve_esp(ea, good)
    with pytest.raises(InvalidParameter, match=message.replace("ea", "eb")):
        convolve_esp(good, ea)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_convolve_esp_refuses_coefficients_past_the_float_range(sign):
    # e_2 = 2e300 + e_1(a) e_1(b) / 2 rounded to +-inf, with no error
    a = [1.0, 1e300, 1e300]
    b = [1.0, sign * 1e300, 1e300]
    with pytest.raises(NonFiniteOutput, match=r"^convolved coefficient \[2\] is past the float range$"):
        convolve_esp(a, b)
    big = [1.0, 2.0**511, 0.0]  # e_2 = 2^1021, inside the range
    assert np.array_equal(convolve_esp(big, big), [1.0, 2.0**512, 2.0**1021])


def test_convolve_esp_lengths_must_match():
    with pytest.raises(DimensionMismatch):
        convolve_esp([1.0, 0.5, 0.25], [1.0, 0.5])


def test_process_clt_check_needs_two_paths():
    # one path once gave NaN covariances after numpy's RuntimeWarning from
    # x @ x.T / (m - 1), where the static reports refuse samples < 2
    ens = simulate_dyson(
        _config(beta=1e4, n=3, t_end=1.0, dt=1e-2, initial=RootTuple((0.0,) * 3),
                paths=1, record_times=(0.5, 1.0))
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameter, match=r"^paths must be an integer >= 2 \(got 1\)$"):
            process_clt_check(ens, 1)


def test_ek_drift_report_bias_factor_domain():
    # an infinite factor once passed every entry, NaN failed every entry and
    # True was taken as 1; zero leaves only the Monte Carlo allowance
    message = r"^bias_factor must be finite and >= 0 \(got -1\.0\)$"
    with pytest.raises(InvalidParameter, match=message):
        ek_drift_report(ENSEMBLE, bias_factor=-1.0)
    zero = ek_drift_report(ENSEMBLE, bias_factor=0)
    assert np.array_equal(zero.tolerance, 3.0 * zero.ek_stderr)


def test_rel_tol_domain():
    # an infinite tolerance once passed every check, NaN counted as 0 in
    # within_tolerance and failed every diag_pass entry, negatives and True
    # were taken as given, and a string raised numpy's UFuncTypeError
    message = r"^rel_tol must be finite and >= 0 \(got -0\.5\)$"
    checks = [
        lambda rel_tol: within_tolerance(1.0, 1.0, 0.5, rel_tol=rel_tol),
        COVARIANCE.diag_pass,
        PRIMITIVE.variance_pass,
    ]
    for check in checks:
        with pytest.raises(InvalidParameter, match=message):
            check(-0.5)
    # zero leaves only the Monte Carlo allowance, and is accepted as an int
    assert within_tolerance(1.0, 1.0, 0.0, rel_tol=0)
    assert not within_tolerance(1.5, 1.0, 0.1, rel_tol=0)
    assert COVARIANCE.diag_pass(0) == bool(np.all(COVARIANCE.diag_rel_err <= 0.0))
    assert PRIMITIVE.variance_pass(0) == all(
        abs(v - t) <= 3.0 * s
        for v, t, s in zip(PRIMITIVE.variances, PRIMITIVE.targets, PRIMITIVE.var_stderr)
    )

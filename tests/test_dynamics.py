import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freezing_dyson.dynamics import (
    _even_lift,
    gaussian_closed_polynomial,
    gaussian_gk,
    gaussian_limit_closed,
    laguerre_closed_polynomial,
    laguerre_gk,
    laguerre_limit_closed,
    limit_roots,
    moment_sequence,
)
from freezing_dyson.elemsym import RootTuple, _exact_esp, elementary_symmetric, partial_esp
from freezing_dyson.errors import InvalidParameter
from freezing_dyson.finfree import hermite_roots, laguerre_roots
from freezing_dyson.orthopoly import eigen_tridiag, hermite_jacobi

SQRT2 = math.sqrt(2)
SQRT3 = math.sqrt(3)


def poly_deriv(coeffs):
    c = np.asarray(coeffs)
    return c[1:] * np.arange(1, len(c))


def test_gaussian_gk_zero_init_closed_form():
    # zero start: g_(2m)(t) = t^m (-1)^m / 2^m * N!/(m!(N-2m)!), odd g vanish
    for n in (2, 3, 5, 8):
        traj = gaussian_gk(RootTuple((0.0,) * n))
        for t in (0.3, 1.0, 2.7):
            for k in range(n + 1):
                if k % 2 == 1:
                    assert traj.coefficients_at(t)[k] == 0.0
                else:
                    m = k // 2
                    expect = (
                        t**m
                        * (-1) ** m
                        / 2**m
                        * math.factorial(n)
                        / (math.factorial(m) * math.factorial(n - 2 * m))
                    )
                    assert traj.coefficients_at(t)[k] == pytest.approx(expect, rel=1e-13)


def test_gaussian_gk_n2_example():
    traj = gaussian_gk(RootTuple((0.0, 0.0)))
    assert traj.coefficients_at(1.5)[2] == pytest.approx(-1.5)
    traj2 = gaussian_gk(RootTuple((1.0, 2.0)))
    assert traj2.coefficients_at(9.9)[1] == pytest.approx(3.0)
    assert traj2.coefficients_at(0.7)[2] == pytest.approx(2.0 - 0.7)


def test_gaussian_gk_ode_identity():
    # d g_k/dt = -(N-k+1)(N-k+2)/2 g_(k-2) as exact polynomial identity
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        traj = gaussian_gk(RootTuple(tuple(np.sort(rng.uniform(-3, 3, n)))))
        for k in range(2, n + 1):
            lhs = poly_deriv(traj.coeff_polys[k])
            rate = (n - k + 1) * (n - k + 2) / 2.0
            rhs = -rate * np.asarray(traj.coeff_polys[k - 2])
            assert np.allclose(lhs, rhs, rtol=1e-14, atol=1e-14)


def test_laguerre_gk_zero_init_closed_form():
    # g_k(t) = t^k/k! prod_(j<k) (N-j)(N-j+alpha-1)
    for n, alpha in [(2, 1.0), (4, 0.5), (6, 2.5)]:
        traj = laguerre_gk(RootTuple((0.0,) * n), alpha)
        for t in (0.4, 1.0, 3.1):
            for k in range(1, n + 1):
                prod = 1.0
                for j in range(k):
                    prod *= (n - j) * (n - j + alpha - 1)
                expect = t**k / math.factorial(k) * prod
                assert traj.coefficients_at(t)[k] == pytest.approx(expect, rel=1e-13)
    traj = laguerre_gk(RootTuple((0.0, 0.0)), 1.0)
    assert traj.coefficients_at(0.9)[1] == pytest.approx(4 * 0.9)
    assert traj.coefficients_at(0.9)[2] == pytest.approx(2 * 0.81)


def test_laguerre_gk_single_particle():
    traj = laguerre_gk(RootTuple((1.0,)), 2.0)
    assert traj.coefficients_at(0.5)[1] == pytest.approx(1.0 + 2.0 * 0.5)


def test_laguerre_gk_ode_identity():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(1, 9))
        alpha = float(rng.uniform(0.2, 3.0))
        traj = laguerre_gk(RootTuple(tuple(np.sort(rng.uniform(0, 4, n)))), alpha)
        for k in range(1, n + 1):
            lhs = poly_deriv(traj.coeff_polys[k])
            rate = (n - k + 1) * (n - k + alpha)
            rhs = rate * np.asarray(traj.coeff_polys[k - 1])
            assert np.allclose(lhs, rhs, rtol=1e-13, atol=1e-13)


def _esp_oracle(values):
    """``e_0 .. e_N`` of the floats as Fractions, by subset enumeration."""
    x = [Fraction(v) for v in values]
    return [sum(map(math.prod, itertools.combinations(x, k))) for k in range(len(x) + 1)]


def _gk_oracle(e, t, alpha=None):
    """``g_k(t)`` as Fractions from the Taylor series of the ODE at 0: the
    j-th derivative of g_k is ``e_(k-sj)`` times j rates, s = 2 (Gaussian)
    or 1 (Laguerre)."""
    n, t, out = len(e) - 1, Fraction(t), []
    step = 2 if alpha is None else 1
    for k in range(n + 1):
        total, rate = Fraction(0), Fraction(1)
        for j in range(k // step + 1):
            total += rate * e[k - step * j] * t**j / math.factorial(j)
            m = n - k + step * j
            if alpha is None:
                rate *= -Fraction((m + 1) * (m + 2), 2)
            else:
                rate *= (m + 1) * (m + Fraction(alpha))
        out.append(total)
    return out


def _moment_oracle(n, max_order):
    """``u_k`` as the k-th power sum of the degree-n Hermite zeros over n, by
    Newton's identities on their exact elementary symmetric values."""
    e = [0] * (max_order + 1)
    for m in range(min(n, max_order) // 2 + 1):
        c = math.factorial(n) // (math.factorial(m) * math.factorial(n - 2 * m) << m)
        e[2 * m] = -c if m % 2 else c
    p = [n]
    for k in range(1, max_order + 1):
        s = sum((-1) ** (j - 1) * e[j] * p[k - j] for j in range(1, k))
        p.append(s + (-1) ** (k - 1) * k * e[k])
    return [Fraction(c, n) for c in p]


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.floats(-4, 4), min_size=1, max_size=8),
    alpha=st.floats(0.125, 6),
    t=st.floats(0, 40),
    n_sys=st.integers(1, 40),
)
@example(values=[0.5, 1.0, 2.0], alpha=1.5, t=0.3, n_sys=5)
def test_exact_side_floats_are_correctly_rounded(values, alpha, t, n_sys):
    # g_k(t), e_k, the partial derivatives of e_k and u_k are each the float
    # nearest the exact value (Fraction.__float__ rounds correctly)
    gauss = RootTuple.from_values(values)
    lag = RootTuple.from_values(abs(v) for v in values)
    e = _esp_oracle(gauss.roots)
    assert elementary_symmetric(gauss).tolist() == [float(c) for c in e]
    for traj, esp, a in [
        (gaussian_gk(gauss), e, None),
        (laguerre_gk(lag, alpha), _esp_oracle(lag.roots), alpha),
    ]:
        want = [float(g) for g in _gk_oracle(esp, t, a)]
        assert traj.coefficients_at(t).tolist() == want
    n = gauss.n
    for i in range(1, n + 1):
        e = _esp_oracle(gauss.roots[: i - 1] + gauss.roots[i:])
        assert [partial_esp(i, k, gauss) for k in range(1, n + 1)] == [float(c) for c in e]
    want = [float(c) for c in _moment_oracle(n_sys, 60)]
    assert moment_sequence(n_sys, 60).u == tuple(want)


def test_laguerre_gk_rejects_bad_input():
    for alpha in (0.0, math.inf, math.nan):
        with pytest.raises(InvalidParameter):
            laguerre_gk(RootTuple((0.0, 1.0)), alpha)
    with pytest.raises(InvalidParameter):
        laguerre_gk(RootTuple((-1.0, 1.0)), 1.0)


def test_limit_roots_examples():
    traj = gaussian_gk(RootTuple((0.0, 0.0)))
    assert np.allclose(limit_roots(traj, 1.0).roots, [-1.0, 1.0], atol=1e-12)
    # any N: sqrt(t) * Hermite zeros
    for n in (3, 5):
        traj = gaussian_gk(RootTuple((0.0,) * n))
        for t in (0.5, 2.0):
            got = limit_roots(traj, t).as_array()
            assert np.allclose(got, hermite_roots(n, t).as_array(), atol=1e-10)
    ltraj = laguerre_gk(RootTuple((0.0, 0.0)), 1.0)
    assert np.allclose(
        limit_roots(ltraj, 1.0).roots, [2 - SQRT2, 2 + SQRT2], atol=1e-10
    )
    with pytest.raises(InvalidParameter):
        limit_roots(traj, -0.1)


def test_non_finite_time_rejected_by_name():
    start = RootTuple((0.5, 1.0, 2.0))
    routes = (
        lambda t: limit_roots(gaussian_gk(start), t),
        lambda t: limit_roots(laguerre_gk(start, 5.0), t),
        lambda t: gaussian_limit_closed(start, t),
        lambda t: laguerre_limit_closed(start, 5.0, t),
    )
    for route in routes:
        for t in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidParameter, match="time must be finite"):
                route(t)


def test_gaussian_limit_closed_examples():
    got = gaussian_limit_closed(RootTuple((0.0, 0.0, 0.0)), 4.0).as_array()
    assert np.allclose(got, [-2 * SQRT3, 0.0, 2 * SQRT3], atol=1e-10)
    a = RootTuple((-1.5, 0.2, 2.0))
    assert np.allclose(gaussian_limit_closed(a, 0.0).roots, a.roots, atol=1e-12)
    got2 = gaussian_limit_closed(RootTuple((-1.0, 1.0)), 1.0).as_array()
    assert np.allclose(got2, [-SQRT2, SQRT2], atol=1e-12)


def test_gaussian_routes_agree():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        a = RootTuple(tuple(np.sort(rng.uniform(-4, 4, n))))
        traj = gaussian_gk(a)
        for t in (0.1, 1.0, 4.0):
            ode = limit_roots(traj, t).as_array()
            closed = gaussian_limit_closed(a, t).as_array()
            assert np.max(np.abs(ode - closed)) < 1e-8


def test_gaussian_additivity_in_time():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        a = RootTuple(tuple(np.sort(rng.uniform(-3, 3, n))))
        s, t = 0.6, 1.7
        two_step = gaussian_limit_closed(gaussian_limit_closed(a, s), t).as_array()
        one_step = gaussian_limit_closed(a, s + t).as_array()
        assert np.max(np.abs(two_step - one_step)) < 1e-8


def test_symmetry_preserved_by_gaussian_limit():
    rng = np.random.default_rng(11)
    for _ in range(10):
        half = rng.uniform(0.1, 3.0, int(rng.integers(1, 5)))
        sym = RootTuple.from_values(np.concatenate([-half, half]))
        for t in (0.5, 2.0):
            out = gaussian_limit_closed(sym, t)
            e = elementary_symmetric(out)
            scale = max(1.0, float(np.max(np.abs(e))))
            assert all(abs(e[k]) < 1e-10 * scale for k in range(1, out.n + 1, 2))


def test_gaussian_ode_route_from_zero_start_at_small_t():
    # the ODE route once merged these roots, spread over 5e-5, into a false
    # triple root (-1e-5, -1e-5, -1e-5, 1e-5)
    got = limit_roots(gaussian_gk(RootTuple((0.0,) * 4)), 1e-10).as_array()
    expect = hermite_roots(4, 1e-10).as_array()
    assert np.max(np.abs(got - expect) / np.abs(expect)) < 1e-14


def test_laguerre_limit_closed_zero_init():
    for n, alpha in [(2, 2.0), (3, 3.5), (4, 4.0)]:
        for t in (0.5, 1.0, 2.0):
            got = laguerre_limit_closed(RootTuple((0.0,) * n), alpha, t).as_array()
            expect = laguerre_roots(n, alpha, t).as_array()
            assert np.max(np.abs(got - expect)) < 1e-9


def test_laguerre_limit_closed_t0_and_routes():
    a = RootTuple((1.0, 4.0))
    alpha = 2.0
    assert np.allclose(laguerre_limit_closed(a, alpha, 0.0).roots, a.roots, atol=1e-10)
    # dual-route cross-check: ODE oracle
    traj = laguerre_gk(a, alpha)
    for t in (0.3, 1.0):
        ode = limit_roots(traj, t).as_array()
        closed = laguerre_limit_closed(a, alpha, t).as_array()
        assert np.max(np.abs(ode - closed)) < 1e-8


def test_laguerre_routes_agree_random():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        alpha = n - 0.5 + float(rng.uniform(0.1, 3.0))
        a = RootTuple(tuple(np.sort(rng.uniform(0, 4, n))))
        traj = laguerre_gk(a, alpha)
        for t in (0.1, 1.0, 4.0):
            ode = limit_roots(traj, t).as_array()
            closed = laguerre_limit_closed(a, alpha, t).as_array()
            assert np.max(np.abs(ode - closed)) < 1e-8


def test_laguerre_limit_closed_answers_at_small_t():
    # clustered start at small t: the roots of the old degree-2N lift came
    # out asymmetric by more than 1e-9 and the route raised
    a = RootTuple((0.36, 1.49, 1.56, 2.42, 3.03, 3.17, 3.21))
    alpha = 6.98
    traj = laguerre_gk(a, alpha)
    for t in (1e-6, 1e-4):
        ode = limit_roots(traj, t).as_array()
        closed = laguerre_limit_closed(a, alpha, t).as_array()
        assert np.max(np.abs(ode - closed)) < 1e-9


@st.composite
def laguerre_cases(draw):
    """(start, alpha, t): n <= 8, the zero tuple or sorted values from a base
    in [0, 4] with gaps in {0.1, 0.5, 1, 2}, alpha - (n - 1/2) in [1e-3, 3]
    and t in [0.01, 4]."""
    n = draw(st.integers(1, 8))
    if draw(st.booleans()):
        start = RootTuple((0.0,) * n)
    else:
        gap = st.sampled_from((0.1, 0.5, 1.0, 2.0))
        gaps = draw(st.lists(gap, min_size=n - 1, max_size=n - 1))
        start = RootTuple(tuple(np.cumsum([draw(st.floats(0.0, 4.0))] + gaps)))
    alpha = n - 0.5 + draw(st.floats(1e-3, 3.0))
    return start, alpha, draw(st.floats(0.01, 4.0))


@settings(max_examples=200, deadline=None)
@given(laguerre_cases())
# a subnormal start: scaling its coefficients by powers of two rounded them
@example((RootTuple((5e-324, 0.5, 1.5)), 3.5, 1.0))
def test_laguerre_routes_agree_property(case):
    start, alpha, t = case
    traj = laguerre_gk(start, alpha)
    ode = limit_roots(traj, t).as_array()
    closed = laguerre_limit_closed(start, alpha, t).as_array()
    assert np.max(np.abs(ode - closed)) < 1e-8 * max(1.0, float(np.max(np.abs(ode))))
    # at t = 0 both routes hold the start's exact coefficients, whose roots
    # are the start's floats themselves
    at0 = laguerre_limit_closed(start, alpha, 0.0)
    assert at0 == limit_roots(traj, 0.0) == start


@st.composite
def limit_cases(draw):
    """(kind, start, alpha, t): n <= 10, starts in [-4, 4] (Gaussian) or
    [0, 4] (Laguerre), alpha - (n - 1/2) in [1e-3, 3], t = 0 or in [1e-8, 10]."""
    kind = draw(st.sampled_from(("gaussian", "laguerre")))
    n = draw(st.integers(1, 10))
    low = -4.0 if kind == "gaussian" else 0.0
    start = RootTuple.from_values(draw(st.lists(st.floats(low, 4.0), min_size=n, max_size=n)))
    alpha = n - 0.5 + draw(st.floats(1e-3, 3.0))
    t = draw(st.one_of(st.just(0.0), st.floats(1e-8, 10.0)))
    return kind, start, alpha, t


@settings(max_examples=150, deadline=None)
@given(limit_cases())
@example(("laguerre", RootTuple((4.0, 4.1, 4.2, 4.3, 4.4, 4.5, 4.6, 4.7)), 20.0, 0.3))
def test_routes_have_equal_exact_coefficients(case):
    # the polynomial-ODE solution is the finite free convolution, so in
    # exact arithmetic the two routes give the same coefficients and roots
    kind, start, alpha, t = case
    if kind == "gaussian":
        traj, closed = gaussian_gk(start), gaussian_closed_polynomial(start, t)
        roots = gaussian_limit_closed(start, t)
    else:
        traj, closed = laguerre_gk(start, alpha), laguerre_closed_polynomial(start, alpha, t)
        roots = laguerre_limit_closed(start, alpha, t)
    assert traj.polynomial_at(t) == closed
    assert limit_roots(traj, t) == roots


def test_clustered_start_returns_exactly_at_t0():
    # through float coefficients both Laguerre routes and the Gaussian closed
    # form returned this start off by about 2e-4
    start = RootTuple((4.0, 4.1, 4.2, 4.3, 4.4, 4.5, 4.6, 4.7))
    assert laguerre_limit_closed(start, 20.0, 0.0) == start
    assert limit_roots(laguerre_gk(start, 20.0), 0.0) == start
    assert gaussian_limit_closed(start, 0.0) == start
    assert limit_roots(gaussian_gk(start), 0.0) == start


def test_even_esp_matches_the_lifted_tuple():
    # the exact lift of the squares s, against the exact e_k of the tuple
    # (+-sqrt(s)): entries on a 1/64 grid, so that their squares are floats
    rng = np.random.default_rng(17)
    for _ in range(50):
        up = rng.integers(0, 5 * 64, int(rng.integers(1, 10))) / 64.0
        e = _even_lift(_exact_esp(up * up))
        assert not any(e[1::2])
        lifted = _exact_esp(np.concatenate([-up, up]))
        assert [Fraction(c, e[0]) for c in e] == [Fraction(c, lifted[0]) for c in lifted]


def test_squared_hermite_half_matches_explicit_coefficients():
    # the top half of the 2n Hermite zeros, squared: e_m equals the He_(2n)
    # coefficient (2n)! / (m! (2n-2m)! 2^m) t^m
    for n in range(1, 13):
        for t in (0.3, 1.0, 2.5):
            squares = hermite_roots(2 * n, t).as_array()[n:] ** 2
            got = elementary_symmetric(RootTuple.from_values(squares))
            expect = np.array([
                math.factorial(2 * n)
                / (math.factorial(m) * math.factorial(2 * n - 2 * m) * 2**m)
                * t**m
                for m in range(n + 1)
            ])
            assert np.max(np.abs(got - expect) / expect) < 1e-12


def test_laguerre_limit_closed_rejects_small_alpha():
    with pytest.raises(InvalidParameter):
        laguerre_limit_closed(RootTuple((0.0, 0.0)), 1.5, 1.0)  # alpha = N - 1/2


def test_laguerre_parameter_addition_zero_start():
    # convolving the alpha1- and alpha2-limits gives the (alpha1+alpha2+N-1)-limit
    from freezing_dyson.finfree import boxplus

    for n in (2, 3, 5):
        for a1, a2 in [(0.5, 1.0), (1.0, 2.5), (2.5, 2.5)]:
            for t in (0.5, 1.0, 2.0):
                lhs = boxplus(
                    laguerre_roots(n, a1, t), laguerre_roots(n, a2, t)
                ).as_array()
                rhs = laguerre_roots(n, a1 + a2 + n - 1.0, t).as_array()
                assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_moment_sequence_examples():
    for n in (2, 3, 4, 8):
        ms = moment_sequence(n, 6)
        assert ms.u[0] == 1.0
        assert ms.u[1] == 0.0 and ms.u[3] == 0.0 and ms.u[5] == 0.0
        assert ms.u[2] == pytest.approx(n - 1)
    assert moment_sequence(3, 4).u[4] == pytest.approx(6.0)  # (9+0+9)/3 oracle


def test_moment_sequence_matches_spectral_oracle():
    # u_k = (1/N) sum_i z_i^k over Hermite zeros
    for n in range(2, 9):
        ms = moment_sequence(n, 10)
        z = eigen_tridiag(hermite_jacobi(n)).as_array()
        for k in range(11):
            expect = float(np.mean(z**k))
            assert abs(ms.u[k] - expect) <= 1e-9 * max(1.0, abs(expect))
    assert moment_sequence(4, 2).u[2] * 2.5 == pytest.approx(3 * 2.5)


def test_moment_sequence_guards():
    with pytest.raises(InvalidParameter):
        moment_sequence(0, 4)
    with pytest.raises(InvalidParameter):
        moment_sequence(3, 62)

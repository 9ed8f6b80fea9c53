import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freezing_dyson import elemsym
from freezing_dyson.elemsym import (
    MonicPolynomial,
    RootTuple,
    _scaled_ints,
    elementary_symmetric,
    roots_of_monic,
)
from freezing_dyson.errors import DimensionMismatch, InvalidParameter, NotRealRooted
from freezing_dyson.finfree import (
    MKLift,
    _convolve_ints,
    boxplus,
    hermite_roots,
    laguerre_roots,
    markov_krein_lift,
    markov_krein_project,
)

SQRT2 = math.sqrt(2)
SQRT3 = math.sqrt(3)


def direct_convolution_oracle(a, b):
    # literal double sum over the defining coefficient formula, using the
    # enumeration-backed elementary symmetric values
    n = len(a)
    ea = elementary_symmetric(RootTuple.from_values(a))
    eb = elementary_symmetric(RootTuple.from_values(b))
    out = [1.0]
    for k in range(1, n + 1):
        acc = 0.0
        for i in range(0, k + 1):
            w = (
                math.factorial(n - i)
                * math.factorial(n - (k - i))
                / (math.factorial(n) * math.factorial(n - k))
            )
            acc += w * ea[i] * eb[k - i]
        out.append(acc)
    return np.array(out)


def test_boxplus_basic_example():
    c = boxplus(RootTuple((-1.0, 1.0)), RootTuple((-1.0, 1.0)))
    assert np.allclose(c.roots, [-SQRT2, SQRT2], atol=1e-12)


def test_boxplus_constant_tuple_shifts():
    # the exact roots are a + s, and each root returned is the float nearest
    # one, ties to even: float addition, bit for bit
    c = boxplus(RootTuple((1.0, 3.0)), RootTuple((2.0, 2.0)))
    assert c.roots == (3.0, 5.0)
    # 0.1 + 0.3 lies halfway between two floats; ties to even give 0.4
    c = boxplus(RootTuple((0.1, 0.7)), RootTuple((0.3, 0.3)))
    assert c.roots == (0.1 + 0.3, 0.7 + 0.3)
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        a = RootTuple(tuple(np.sort(rng.uniform(-4, 4, n))))
        s = float(rng.uniform(-2, 2))
        assert boxplus(a, RootTuple((s,) * n)).roots == tuple(x + s for x in a.roots)


def convolved(ea, eb) -> list:
    """The library kernel's convolution of two float vectors ``(1, e_1, ...)``,
    run on their dyadic values, as exact Fractions."""
    c = _convolve_ints(_scaled_ints(ea), _scaled_ints(eb))
    return [Fraction(v, c[0]) for v in c]


def test_boxplus_matches_direct_formula_oracle():
    rng = np.random.default_rng(4)
    for _ in range(15):
        n = int(rng.integers(2, 8))
        a = np.sort(rng.uniform(-5, 5, n))
        b = np.sort(rng.uniform(-5, 5, n))
        ec = convolved(
            elementary_symmetric(RootTuple(tuple(a))),
            elementary_symmetric(RootTuple(tuple(b))),
        )
        assert np.allclose(np.array(ec, dtype=float), direct_convolution_oracle(a, b),
                           rtol=1e-12, atol=1e-12)


def test_boxplus_commutative_and_shift_equivariant():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        a = RootTuple(tuple(np.sort(rng.uniform(-5, 5, n))))
        b = RootTuple(tuple(np.sort(rng.uniform(-5, 5, n))))
        eab = convolved(elementary_symmetric(a), elementary_symmetric(b))
        eba = convolved(elementary_symmetric(b), elementary_symmetric(a))
        assert eab == eba  # exact in coefficient space
        # a.shifted(s) rounds each a_i + s, so this shift is not exact
        s = 0.75
        lhs = boxplus(a.shifted(s), b).as_array()
        rhs = boxplus(a, b).as_array() + s
        assert np.allclose(lhs, rhs, rtol=0, atol=1e-14)


@st.composite
def boxplus_pairs(draw):
    """(a, b) of size 1..12: a has entries anywhere in [-5, 5], repeats
    allowed; b has gaps of 0.1 to 1, so a boxplus b has simple roots."""
    n = draw(st.integers(1, 12))
    a = draw(st.lists(st.integers(-5, 5).map(float) | st.floats(-5.0, 5.0), min_size=n, max_size=n))
    gaps = draw(st.lists(st.floats(0.1, 1.0), min_size=n - 1, max_size=n - 1))
    b = np.cumsum([draw(st.floats(-5.0, 5.0))] + gaps)
    return RootTuple.from_values(a), RootTuple.from_values(b)


@settings(max_examples=150, deadline=None)
@given(boxplus_pairs())
def test_boxplus_commutative_real_rooted_and_mesh_preserving(pair):
    a, b = pair
    ab = boxplus(a, b)  # raises NotRealRooted if a sign change goes missing
    assert ab == boxplus(b, a)
    assert ab.n == a.n
    # the root gaps of a boxplus b are at least b's (Leake & Ryder, "On the
    # further structure of the finite free convolutions")
    if a.n > 1:
        mesh = np.min(np.diff(b.as_array()))
        assert np.min(np.diff(ab.as_array())) >= (1.0 - 1e-6) * mesh


def test_boxplus_zero_tuple_is_identity():
    a = RootTuple((-2.0, 0.5, 3.0))
    z = RootTuple((0.0, 0.0, 0.0))
    assert boxplus(a, z) == a


@settings(max_examples=150, deadline=None)
@given(boxplus_pairs())
def test_boxplus_zero_tuple_identity_within_round_trip_floor(pair):
    # the convolution with the zero tuple has a's exact coefficients, whose
    # roots are the floats of a: the round-trip floor is zero and the
    # identity holds exactly
    _, a = pair
    assert boxplus(a, RootTuple((0.0,) * a.n)) == a


def test_boxplus_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        boxplus(RootTuple((0.0,)), RootTuple((0.0, 1.0)))


# The finite free Fourier transform (Marcus, "Polynomial convolutions and
# (finite) free probability", 2021; MSS 2022) in exact arithmetic: the
# degree-N p = sum_k (-1)^k alpha_k x^(N-k) maps to the differential operator
# sum_k c_k D^k with c_k = (-1)^k alpha_k / (k! C(N, k)), which reproduces p
# from x^N.  The product of two operators, truncated at order N, is the
# transform of their finite free convolution: an oracle independent of the
# library's coefficient formula.


def fourier(alpha):
    n = len(alpha) - 1
    return [
        (-1) ** k * Fraction(a) / (math.factorial(k) * math.comb(n, k))
        for k, a in enumerate(alpha)
    ]


def fourier_invert(c):
    n = len(c) - 1
    return [(-1) ** k * math.factorial(k) * math.comb(n, k) * ck for k, ck in enumerate(c)]


def apply_to_power(c):
    # D^k x^N = N!/(N-k)! x^(N-k): descending coefficients of the result
    n = len(c) - 1
    return [ck * math.perm(n, k) for k, ck in enumerate(c)]


def operator_product(c1, c2):
    n = len(c1) - 1
    out = [Fraction(0)] * (n + 1)
    for i, ci in enumerate(c1):
        for j in range(n + 1 - i):
            out[i + j] += ci * c2[j]
    return out


def operator_convolution(ea, eb):
    """Exact alpha of the convolution of two alpha vectors (Fractions of
    their entries), through the operator product."""
    return fourier_invert(operator_product(fourier(ea), fourier(eb)))


def exact_esp(values):
    e = [Fraction(1)] + [Fraction(0)] * len(values)
    for i, v in enumerate(values, 1):
        for k in range(i, 0, -1):
            e[k] += Fraction(v) * e[k - 1]
    return e


def monomial(alpha):
    return [(-1) ** k * a for k, a in enumerate(alpha)]


def exact_polynomial(alpha):
    den = math.lcm(*(Fraction(a).denominator for a in alpha))
    return MonicPolynomial.from_integers([int(a * den) for a in alpha])


def held_to_kernel(ea, eb):
    """The oracle's convolution of two float vectors, which the library's
    integer kernel must equal exactly."""
    exact = operator_convolution(ea, eb)
    assert convolved(ea, eb) == exact
    return exact


def test_fff_examples():
    # x^2 - 1 -> 1 - D^2/2, and (x^2 - 1) boxplus (x^2 - 1) = x^2 - 2
    assert fourier([1.0, 0.0, -1.0]) == [1, 0, Fraction(-1, 2)]
    assert held_to_kernel([1.0, 0.0, -1.0], [1.0, 0.0, -1.0]) == [1, 0, -2]
    # degree 1: x - a -> 1 - aD, and applying to x reproduces x - a
    op1 = fourier([1.0, 1.5])
    assert op1 == [1, Fraction(-3, 2)]
    assert apply_to_power(op1) == [1, Fraction(-3, 2)]
    assert held_to_kernel([1.0, 1.5], [1.0, 0.25]) == [1, Fraction(7, 4)]


def test_fff_constant_shift_truncated_exponential():
    # (x - s)^N has c_k = (-s)^k / k!
    n, s = 5, 0.8
    p = MonicPolynomial.from_roots(RootTuple((s,) * n))
    e = exact_esp((s,) * n)
    op = fourier(e)
    assert op == [Fraction(-s) ** k / math.factorial(k) for k in range(n + 1)]
    # symbolic application to x^N reproduces the polynomial
    assert apply_to_power(op) == monomial(e)
    assert p == exact_polynomial(e)
    assert p.monomial_coefficients().tolist() == [float(c) for c in monomial(e)]
    # the operator of (x - s)^N is exp(-sD) truncated: it shifts roots by s
    other = (-1.5, 0.25, 0.5, 2.0, 3.0)
    shifted = exact_esp([Fraction(s) + Fraction(v) for v in other])
    assert operator_convolution(e, exact_esp(other)) == shifted
    held_to_kernel(p.alpha, elementary_symmetric(RootTuple(other)))


def test_fff_round_trip_symbolic():
    rng = np.random.default_rng(8)
    for _ in range(10):
        n = int(rng.integers(1, 10))
        x = RootTuple(tuple(np.sort(rng.uniform(-3, 3, n))))
        p, e = MonicPolynomial.from_roots(x), exact_esp(x.roots)
        op = fourier(e)
        assert apply_to_power(op) == monomial(e)
        assert fourier_invert(op) == e
        assert p == exact_polynomial(e)
        # x^N, whose operator is 1, is the identity of the convolution
        zero = [1.0] + [0.0] * n
        assert held_to_kernel(p.alpha, zero) == [Fraction(a) for a in p.alpha]


def test_fff_product_convolution_examples():
    pm = RootTuple((-1.0, 1.0))
    c = exact_polynomial(operator_convolution(exact_esp(pm.roots), exact_esp(pm.roots)))
    assert np.allclose(roots_of_monic(c).roots, [-SQRT2, SQRT2], atol=1e-12)
    assert roots_of_monic(c) == boxplus(pm, pm)
    a = RootTuple((-2.0, 0.5, 3.0))
    z = RootTuple((0.0, 0.0, 0.0))
    exact = held_to_kernel(elementary_symmetric(a), elementary_symmetric(z))
    assert exact == exact_esp(a.roots)
    assert roots_of_monic(exact_polynomial(exact)) == a == boxplus(a, z)


def test_fff_product_agrees_with_boxplus():
    # cross-implementation agreement on random pairs: the operator product's
    # exact coefficients are the library's, so the roots are equal
    rng = np.random.default_rng(10)
    for _ in range(200):
        n = int(rng.integers(2, 11))
        a = RootTuple(tuple(np.sort(rng.uniform(-5, 5, n))))
        b = RootTuple(tuple(np.sort(rng.uniform(-5, 5, n))))
        exact = operator_convolution(exact_esp(a.roots), exact_esp(b.roots))
        assert roots_of_monic(exact_polynomial(exact)) == boxplus(a, b)
        held_to_kernel(elementary_symmetric(a), elementary_symmetric(b))


def test_hermite_roots_examples():
    assert np.allclose(hermite_roots(2, 1.0).roots, [-1.0, 1.0], atol=1e-13)
    assert np.allclose(hermite_roots(3, 1.0).roots, [-SQRT3, 0.0, SQRT3], atol=1e-13)
    assert hermite_roots(3, 0.0).roots == (0.0, 0.0, 0.0)
    assert hermite_roots(1, 4.0).roots == (0.0,)
    with pytest.raises(InvalidParameter):
        hermite_roots(0, 1.0)
    with pytest.raises(InvalidParameter):
        hermite_roots(3, -0.5)
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidParameter):
            hermite_roots(3, bad)


def test_hermite_semigroup_identity():
    # scale arguments are squared scales: t^2 and s^2 convolve to t^2 + s^2
    for n in range(2, 13):
        for t in (0.25, 1.0, 4.0):
            for s in (0.25, 1.0, 4.0):
                lhs = boxplus(hermite_roots(n, t * t), hermite_roots(n, s * s)).as_array()
                rhs = hermite_roots(n, t * t + s * s).as_array()
                assert np.max(np.abs(lhs - rhs)) < 1e-9


@pytest.mark.parametrize("n", [12, 20, 30, 40])
def test_boxplus_hermite_semigroup_to_rounding(n):
    # on exact coefficients the error is that of the computed zeros:
    # 1.1e-16, 4.1e-16, 5.2e-16 and 9.9e-16 relative, where float
    # coefficients gave 7.4e-15, 4.3e-13, 6.8e-11 and 6.7e-8
    a = hermite_roots(n, 1)
    got = boxplus(a, a).as_array()
    expect = hermite_roots(n, 2).as_array()
    assert np.max(np.abs(got - expect)) <= 1e-14 * np.max(np.abs(expect))


@pytest.mark.parametrize("n", [12, 20, 30, 40])
def test_boxplus_roots_cost_few_exact_evaluations(monkeypatch, n):
    # one Newton step on the exact residual at each seed, then a one-ulp sign
    # bracket: about 6 exact evaluations per root at any degree, where
    # brackets grown from the raw seeds took 7.6, 13.8, 25.3 and 36.4
    a = hermite_roots(n, 1)
    calls = []
    value = elemsym._scaled_value
    monkeypatch.setattr(elemsym, "_scaled_value", lambda *args: calls.append(1) or value(*args))
    got = boxplus(a, a).as_array()
    assert len(calls) <= 7 * n
    expect = hermite_roots(n, 2).as_array()
    assert np.max(np.abs(got - expect)) / np.max(np.abs(expect)) < 1e-14


def test_boxplus_keeps_relative_accuracy_at_small_scale():
    # roots spread over 1e-4 once merged into false multiple roots (32% off)
    a = hermite_roots(4, 1e-8)
    got = boxplus(a, a).as_array()
    expect = hermite_roots(4, 2e-8).as_array()
    assert np.max(np.abs(got - expect) / np.abs(expect)) < 1e-14


def test_laguerre_roots_examples():
    assert np.allclose(laguerre_roots(1, 2.0, 1.0).roots, [2.0])
    assert np.allclose(
        laguerre_roots(2, 1.0, 1.0).roots, [2 - SQRT2, 2 + SQRT2], atol=1e-13
    )
    assert np.allclose(laguerre_roots(2, 3.0, 1.0).roots, [2.0, 6.0], atol=1e-12)
    with pytest.raises(InvalidParameter):
        laguerre_roots(2, 0.0, 1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidParameter):
            laguerre_roots(2, bad, 1.0)
        with pytest.raises(InvalidParameter):
            laguerre_roots(2, 1.0, bad)


def test_laguerre_convolution_identity():
    for n in range(2, 11):
        for a1 in (0.5, 1.0, 2.5):
            for a2 in (0.5, 1.0, 2.5):
                lhs = boxplus(
                    laguerre_roots(n, a1, 1.0), laguerre_roots(n, a2, 1.0)
                ).as_array()
                rhs = laguerre_roots(n, n + a1 + a2 - 1.0, 1.0).as_array()
                assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_hermite_fff_scaling_identity():
    # Hermite zeros scaled by 1 and 1 convolve to scale sqrt(2), via the
    # operator route
    h = hermite_roots(3, 1.0)
    held_to_kernel(elementary_symmetric(h), elementary_symmetric(h))
    lhs = roots_of_monic(exact_polynomial(operator_convolution(exact_esp(h.roots), exact_esp(h.roots))))
    assert lhs == boxplus(h, h)
    rhs = hermite_roots(3, 2.0).as_array()
    assert np.max(np.abs(lhs.as_array() - rhs)) < 1e-10


def test_markov_krein_lift_trivial():
    lift = markov_krein_lift(RootTuple((0.0, 0.0, 0.0)))
    assert np.allclose(np.abs(lift.s), 0.0, atol=1e-10)
    # constant tuple: s is the N-fold root at c; float arithmetic can pin a
    # multiplicity-4 cluster only to (eps*scale)^(1/4), but the multiset
    # moments stay sharp
    lift_c = markov_krein_lift(RootTuple((2.5, 2.5, 2.5, 2.5)))
    assert np.allclose(lift_c.s, 2.5, atol=1e-3)
    assert abs(np.mean(lift_c.s) - 2.5) < 1e-5  # cluster errors cancel to O(r^2)


def test_markov_krein_lift_pm_one():
    # a = (-1, 1): expand (1/2)[(z-i)^2 + (z+i)^2] = z^2 - 1, so s = (-i, i)
    lift = markov_krein_lift(RootTuple((-1.0, 1.0)))
    got = sorted(lift.s, key=lambda z: z.imag)
    assert abs(got[0] - (-1j)) < 1e-10
    assert abs(got[1] - 1j) < 1e-10


def test_markov_krein_lift_moment_invariant():
    rng = np.random.default_rng(12)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        a = RootTuple(tuple(np.sort(rng.uniform(-3, 3, n))))
        lift = markov_krein_lift(a)
        e = elementary_symmetric(a)
        ps = lift.power_sums()
        for k in range(1, n + 1):
            lhs = math.comb(n, k) * ps[k - 1] / n
            assert abs(lhs - e[k]) < 1e-8 * max(1.0, abs(e[k]))


def test_markov_krein_project_examples():
    assert np.allclose(
        markov_krein_project(MKLift((0.0, 0.0), 2)).roots, [0.0, 0.0], atol=1e-12
    )
    back = markov_krein_project(MKLift((-1j, 1j), 2))
    assert np.allclose(back.roots, [-1.0, 1.0], atol=1e-10)
    with pytest.raises(NotRealRooted):
        markov_krein_project(MKLift((1j, 2j), 2))


def test_markov_krein_project_overflow_is_not_real_rooted():
    # the power sums of this lift overflow, so its rebuilt coefficient e_2 is
    # nan; the polynomial refuses it as NotRealRooted, as the solver did
    with np.errstate(all="ignore"):
        with pytest.raises(NotRealRooted, match=r"^coefficient c_2 = nan is not finite$"):
            markov_krein_project(MKLift((1e200, 2e200), 2))


def test_markov_krein_round_trip():
    rng = np.random.default_rng(14)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        a = RootTuple(tuple(np.sort(rng.uniform(-4, 4, n))))
        back = markov_krein_project(markov_krein_lift(a))
        assert np.max(np.abs(back.as_array() - a.as_array())) < 1e-6


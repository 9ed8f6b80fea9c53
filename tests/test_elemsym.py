import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freezing_dyson.elemsym import (
    MonicPolynomial,
    RootTuple,
    _bisect,
    _exact_sign,
    _horner,
    _real_roots,
    _root_bound,
    elementary_symmetric,
    newton_esp_from_power_sums,
    partial_esp,
    roots_of_monic,
)
from freezing_dyson.errors import InvalidParameter, NotRealRooted


def esp_by_enumeration(values, k):
    # independent oracle: literal sum over k-subsets
    if k == 0:
        return 1.0
    return sum(math.prod(c) for c in itertools.combinations(values, k))


def test_root_tuple_invariants():
    with pytest.raises(InvalidParameter):
        RootTuple((2.0, 1.0))
    with pytest.raises(InvalidParameter):
        RootTuple(())
    t = RootTuple.from_values([3, -1, 2])
    assert t.roots == (-1.0, 2.0, 3.0)
    assert t.n == 3
    for bad in [(math.nan, 1.0), (1.0, math.nan), (1.0, math.inf), (-math.inf, 0.0)]:
        with pytest.raises(InvalidParameter):
            RootTuple(bad)
        with pytest.raises(InvalidParameter):
            RootTuple.from_values(bad)


def test_elementary_symmetric_trivial_examples():
    assert np.allclose(elementary_symmetric(RootTuple((-1.0, 1.0))), [1, 0, -1])
    assert np.allclose(elementary_symmetric(RootTuple((0.0, 0.0, 0.0))), [1, 0, 0, 0])


def test_elementary_symmetric_hermite3_expansion():
    s3 = math.sqrt(3)
    e = elementary_symmetric(RootTuple((-s3, 0.0, s3)))
    # direct expansion of x(x^2 - 3), confirmed by the enumeration oracle
    assert np.allclose(e, [1, 0, -3, 0], atol=1e-14)
    vals = (-s3, 0.0, s3)
    for k in range(4):
        assert e[k] == pytest.approx(esp_by_enumeration(vals, k), abs=1e-13)


def test_elementary_symmetric_matches_enumeration_oracle():
    rng = np.random.default_rng(7)
    for n in range(1, 9):
        vals = rng.uniform(-10, 10, n)
        e = elementary_symmetric(RootTuple.from_values(vals))
        for k in range(n + 1):
            expected = esp_by_enumeration(sorted(vals), k)
            assert e[k] == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_partial_esp_examples():
    assert partial_esp(1, 1, RootTuple((2.0, 5.0))) == pytest.approx(1.0)
    assert partial_esp(1, 2, RootTuple((2.0, 5.0))) == pytest.approx(5.0)
    # e_1 of (1, 3); oracle: d/dx2 of e_2 = x1x2 + x1x3 + x2x3 at (1,2,3) is x1 + x3
    assert partial_esp(2, 2, RootTuple((1.0, 2.0, 3.0))) == pytest.approx(4.0)


def test_partial_esp_range_errors():
    x = RootTuple((1.0, 2.0))
    with pytest.raises(InvalidParameter):
        partial_esp(0, 1, x)
    with pytest.raises(InvalidParameter):
        partial_esp(3, 1, x)
    with pytest.raises(InvalidParameter):
        partial_esp(1, 3, x)


def test_partial_esp_matches_finite_differences():
    # central finite differences of elementary_symmetric, step 1e-6
    rng = np.random.default_rng(11)
    h = 1e-6
    for _ in range(20):
        n = int(rng.integers(2, 8))
        vals = np.sort(rng.uniform(-10, 10, n))
        x = RootTuple(tuple(vals))
        i = int(rng.integers(1, n + 1))
        k = int(rng.integers(1, n + 1))
        plus = vals.copy()
        plus[i - 1] += h
        minus = vals.copy()
        minus[i - 1] -= h
        fd = (esp_by_enumeration(plus, k) - esp_by_enumeration(minus, k)) / (2 * h)
        assert partial_esp(i, k, x) == pytest.approx(fd, abs=1e-6)


def test_esp_derivative_pair_sum_identity():
    # sum_i sum_{j!=i} d_i e_k / (x_i - x_j) == -(N-k+1)(N-k+2)/2 * e_{k-2}
    rng = np.random.default_rng(13)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        vals = np.sort(rng.uniform(-5, 5, n))
        while np.min(np.diff(vals)) < 1e-3:
            vals = np.sort(rng.uniform(-5, 5, n))
        x = RootTuple(tuple(vals))
        e = elementary_symmetric(x)
        for k in range(2, n + 1):
            lhs = 0.0
            for i in range(1, n + 1):
                dike = partial_esp(i, k, x)
                for j in range(1, n + 1):
                    if j != i:
                        lhs += dike / (vals[i - 1] - vals[j - 1])
            rhs = -(n - k + 1) * (n - k + 2) / 2 * e[k - 2]
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_newton_esp_examples():
    assert np.allclose(newton_esp_from_power_sums([0.0, 2.0], 2), [1, 0, -1])
    assert np.allclose(newton_esp_from_power_sums([3.0, 9.0], 2), [1, 3, 0])
    assert np.allclose(newton_esp_from_power_sums([0.0, 0.0, 0.0], 3), [1, 0, 0, 0])


def test_newton_esp_round_trip():
    rng = np.random.default_rng(17)
    for n in range(1, 11):
        vals = rng.uniform(-3, 3, n)
        psums = [np.sum(vals**k) for k in range(1, n + 1)]
        e_direct = elementary_symmetric(RootTuple.from_values(vals))
        e_newton = newton_esp_from_power_sums(psums, n)
        assert np.allclose(e_newton, e_direct, rtol=1e-10, atol=1e-10)


def test_newton_esp_complex_input():
    s = np.array([1j, -1j])
    psums = [np.sum(s**k) for k in (1, 2)]
    e = newton_esp_from_power_sums(psums, 2)
    assert np.allclose(e, [1, 0, 1])


def test_monic_polynomial_invariants():
    with pytest.raises(InvalidParameter):
        MonicPolynomial((2.0, 1.0))
    p = MonicPolynomial.from_roots(RootTuple((-1.0, 1.0)))
    assert p.alpha == (1.0, 0.0, -1.0)
    assert p.degree == 2
    assert p(2.0) == pytest.approx(3.0)


def test_roots_of_monic_quadratic_formula_oracle():
    # x^2 - 2: quadratic formula gives +-sqrt(2)
    p = MonicPolynomial((1.0, 0.0, -2.0))
    r = roots_of_monic(p)
    assert np.allclose(r.roots, [-math.sqrt(2), math.sqrt(2)], atol=1e-12)
    rng = np.random.default_rng(23)
    for _ in range(30):
        e1, e2 = rng.uniform(-5, 5), rng.uniform(-5, 0)
        disc = math.sqrt(e1 * e1 - 4 * e2)
        expect = sorted(((e1 - disc) / 2, (e1 + disc) / 2))
        got = roots_of_monic(MonicPolynomial((1.0, e1, e2)))
        assert np.allclose(got.roots, expect, atol=1e-11)


def test_roots_of_monic_hermite3():
    r = roots_of_monic(MonicPolynomial((1.0, 0.0, -3.0, 0.0)))
    s3 = math.sqrt(3)
    assert np.allclose(r.roots, [-s3, 0.0, s3], atol=1e-12)


def test_roots_of_monic_double_root():
    r = roots_of_monic(MonicPolynomial((1.0, 2.0, 1.0)))
    assert np.allclose(r.roots, [1.0, 1.0], atol=1e-9)


def test_roots_of_monic_triple_root():
    # (x-2)^3: alpha_k = e_k(2,2,2)
    r = roots_of_monic(MonicPolynomial((1.0, 6.0, 12.0, 8.0)))
    assert np.allclose(r.roots, [2.0, 2.0, 2.0], atol=1e-6)


def test_roots_of_monic_rejects_complex_pair():
    # x^2 + 1 has no real roots
    with pytest.raises(NotRealRooted):
        roots_of_monic(MonicPolynomial((1.0, 0.0, 1.0)))


def root_condition_floor(vals):
    # smallest error representable after rounding coefficients to float64:
    # eps * sum_k |c_k x^(N-k)| / |p'(x)| per root, with a rounding-accumulation
    # safety factor.  Coefficients via the enumeration oracle.
    n = len(vals)
    coeffs = [(-1) ** k * esp_by_enumeration(vals, k) for k in range(n + 1)]
    floors = []
    for x in vals:
        eval_scale = sum(abs(c) * abs(x) ** (n - k) for k, c in enumerate(coeffs))
        dp = abs(sum(c * (n - k) * x ** (n - k - 1) for k, c in enumerate(coeffs[:-1])))
        floors.append(20 * n * 2.3e-16 * eval_scale / max(dp, 1e-300))
    return np.array(floors)


def test_root_round_trip_random_tuples():
    # distinct entries in [-10, 10], N <= 12: 1e-9 relative whenever the
    # coefficient-representation condition number allows it, the conditioning
    # floor otherwise (float64 coefficients cannot beat it for any solver)
    rng = np.random.default_rng(29)
    for _ in range(60):
        n = int(rng.integers(1, 13))
        vals = np.sort(rng.uniform(-10, 10, n))
        while n > 1 and np.min(np.diff(vals)) < 1e-4:
            vals = np.sort(rng.uniform(-10, 10, n))
        x = RootTuple(tuple(vals))
        back = roots_of_monic(MonicPolynomial.from_roots(x))
        scale = np.maximum(1.0, np.abs(vals))
        tol = np.maximum(1e-9 * scale, root_condition_floor(vals))
        assert np.all(np.abs(back.as_array() - vals) < tol)


def test_root_round_trip_well_conditioned_hits_spec_tolerance():
    # moderate range keeps the condition number small: plain 1e-9 must hold
    rng = np.random.default_rng(31)
    for _ in range(60):
        n = int(rng.integers(1, 13))
        vals = np.sort(rng.uniform(-3, 3, n))
        while n > 1 and np.min(np.diff(vals)) < 1e-3:
            vals = np.sort(rng.uniform(-3, 3, n))
        x = RootTuple(tuple(vals))
        back = roots_of_monic(MonicPolynomial.from_roots(x))
        scale = np.maximum(1.0, np.abs(vals))
        assert np.all(np.abs(back.as_array() - vals) / scale < 1e-9)


def exact_sign_oracle(coeffs, x):
    # independent oracle: Horner in Fraction arithmetic
    acc = Fraction(0)
    for c in coeffs:
        acc = acc * Fraction(x) + Fraction(c)
    return (acc > 0) - (acc < 0)


@st.composite
def sign_cases(draw):
    """Monic float coefficients of degree 1..12, some zeroed, and a point x at
    a root, one ulp either side of it, at 0, subnormal, or anywhere."""
    d = draw(st.integers(1, 12))
    # integer roots give exact zeros; other floats give cancelling sums near a root
    root = st.integers(-6, 6).map(float) | st.floats(-8.0, 8.0)
    roots = draw(st.lists(root, min_size=d, max_size=d))
    coeffs = [1.0] + [float(c) for c in np.poly(roots)[1:]]
    for k in draw(st.sets(st.integers(1, d), max_size=d)):
        coeffs[k] = 0.0
    r = draw(st.sampled_from(roots))
    x = draw(
        st.sampled_from([r, math.nextafter(r, math.inf), math.nextafter(r, -math.inf), 0.0])
        | st.floats(-2.2e-308, 2.2e-308, allow_subnormal=True)
        | st.floats(-1e6, 1e6)
    )
    return coeffs, x


@settings(max_examples=500, deadline=None)
@given(sign_cases())
@example(([1.0, -3.0, 2.0], 2.0))  # exact zero
@example(([1.0, -3.0, 2.0], 1.5))
@example(([1.0, 0.0, 0.0, 0.0], -5e-324))  # smallest subnormal, cubed
def test_exact_sign_matches_fraction_oracle(case):
    coeffs, x = case
    assert _exact_sign(coeffs, x) == exact_sign_oracle(coeffs, x)



# The root finder as it stood before its float stage took Newton trial
# points: plain bisection to the same exit rule, then the same error estimate
# and exact-sign fallback.  It records every bracket it settles, with the
# path that settled it, so the Newton stage can be held to it bracket by
# bracket.
def bisection_bisect(coeffs, lo, hi, flo):
    """(root, path, err_est); path is "float", "exact" (exact bisection down
    to adjacent floats or an exact zero) or "other"."""
    lo0, hi0 = lo, hi
    neg = flo < 0.0
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fm = _horner(coeffs, mid)
        if fm == 0.0:
            lo = hi = mid
            break
        if (fm < 0.0) == neg:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(1.0, abs(lo), abs(hi)):
            break
    mid = 0.5 * (lo + hi)
    d = len(coeffs) - 1
    eval_scale = _horner([abs(c) for c in coeffs], abs(mid))
    dp = abs(_horner([c * (d - k) for k, c in enumerate(coeffs[:-1])], mid))
    err_est = 2e-16 * eval_scale / max(dp, 1e-300)
    if err_est <= 1e-13 * max(1.0, abs(mid)):
        return mid, "float", err_est
    delta = 4.0 * err_est + (hi - lo)
    a, b = max(lo0, mid - delta), min(hi0, mid + delta)
    sa, sb = _exact_sign(coeffs, a), _exact_sign(coeffs, b)
    if sa == 0:
        return a, "exact", err_est
    if sb == 0:
        return b, "exact", err_est
    if sa == sb:
        a, b = lo0, hi0
        sa, sb = _exact_sign(coeffs, a), _exact_sign(coeffs, b)
        if sa == 0 or sb == 0 or sa == sb:
            return mid, "other", err_est
    for _ in range(120):
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            return 0.5 * (a + b), "exact", err_est
        sm = _exact_sign(coeffs, m)
        if sm == 0:
            return m, "exact", err_est
        if sm == sa:
            a = m
        else:
            b = m
    return 0.5 * (a + b), "other", err_est


def bisection_real_roots(coeffs, settled):
    """The interlacing recursion around bisection_bisect; appends
    (coeffs, lo, hi, flo, root, path, err_est) to settled per bracket."""
    d = len(coeffs) - 1
    if d == 1:
        return [-coeffs[1]]
    theta = 1e-12 * max(1.0, max(abs(c) for c in coeffs))
    deriv = [c * (d - k) / d for k, c in enumerate(coeffs[:-1])]
    pts = [-_root_bound(coeffs)] + bisection_real_roots(deriv, settled) + [_root_bound(coeffs)]
    fvals = [_horner(coeffs, x) for x in pts]
    roots = []
    for m in range(d):
        lo, hi = pts[m], pts[m + 1]
        flo, fhi = fvals[m], fvals[m + 1]
        zlo, zhi = abs(flo) <= theta, abs(fhi) <= theta
        if zlo and zhi:
            roots.append(lo if abs(flo) <= abs(fhi) else hi)
        elif zlo:
            roots.append(lo)
        elif zhi:
            roots.append(hi)
        elif (flo < 0.0) != (fhi < 0.0):
            root, path, err_est = bisection_bisect(coeffs, lo, hi, flo)
            settled.append((coeffs, lo, hi, flo, root, path, err_est))
            roots.append(root)
        else:
            raise NotRealRooted(f"no sign change in [{lo!r}, {hi!r}]")
    roots.sort()
    return roots


@st.composite
def real_rooted_coeffs(draw, max_degree):
    """Monic float coefficients of degree 1..max_degree whose roots come in
    groups of up to three around distinct centres in [-3, 3]: repeated,
    clustered (spread 1e-3) or spread out."""
    n = draw(st.integers(1, max_degree))
    centres = draw(
        st.lists(st.integers(-3, 3).map(float) | st.floats(-3.0, 3.0), min_size=n, max_size=n,
                 unique=True)
    )
    roots = []
    for centre in centres:
        spread = draw(st.sampled_from([0.0, 1e-3, 1e-1, 1.0]))
        k = draw(st.integers(1, min(3, n - len(roots))))
        roots += [centre + spread * draw(st.floats(-1.0, 1.0)) for _ in range(k)]
        if len(roots) == n:
            break
    poly = MonicPolynomial.from_roots(RootTuple.from_values(roots))
    return [float(c) for c in poly.monomial_coefficients()]


@settings(max_examples=300, deadline=None)
@given(real_rooted_coeffs(12))
@example([1.0, -3.0, 2.0])
@example([1.0, -6.0, 12.0, -8.0])  # (x - 2)^3
def test_newton_stage_matches_bisection_oracle(coeffs):
    # Both stages stop on a computed sign change within the stopping width,
    # and computed signs are noise within about d * err_est of the root
    # (Horner's error bound), so two such roots differ by at most the width
    # plus twice that band; exact bisection ends on the same adjacent floats
    # from any bracket, so the exact fallback's roots are identical.  Past
    # degree 8, repeated roots can defeat the zero threshold of the
    # recursion; the brackets settled before that are still compared.
    settled = []
    try:
        bisection_real_roots(coeffs, settled)
    except NotRealRooted:
        pass
    d = len(coeffs) - 1
    for c, lo, hi, flo, old, path, err_est in settled:
        new = _bisect(c, lo, hi, flo)
        if path == "float":
            assert abs(new - old) <= 1e-15 * max(1.0, abs(old)) + 2 * d * err_est
        elif path == "exact":
            assert new == old


@settings(max_examples=200, deadline=None)
@given(real_rooted_coeffs(8))
def test_real_roots_raise_nothing_up_to_degree_8(coeffs):
    roots = _real_roots(coeffs)  # raises NotRealRooted on a missing sign change
    assert len(roots) == len(coeffs) - 1 and roots == sorted(roots)


@st.composite
def spread_roots(draw):
    """2..8 distinct roots with gaps of 0.1 to 2: the supported scale."""
    n = draw(st.integers(2, 8))
    gaps = draw(st.lists(st.floats(0.1, 2.0), min_size=n - 1, max_size=n - 1))
    return RootTuple.from_values(np.cumsum([draw(st.floats(-5.0, 5.0))] + gaps))


@settings(max_examples=200, deadline=None)
@given(spread_roots())
def test_derivative_roots_strictly_interlace(x):
    # p'/deg p is monic with alpha_k scaled by (deg - k)/deg; by Rolle its
    # roots sit one in each open gap between consecutive roots of p
    p = MonicPolynomial.from_roots(x)
    d = p.degree
    dp = MonicPolynomial(tuple(a * (d - k) / d for k, a in enumerate(p.alpha[:-1])))
    r = roots_of_monic(p).as_array()
    q = roots_of_monic(dp).as_array()
    assert len(q) == d - 1
    assert np.all(r[:-1] < q) and np.all(q < r[1:])

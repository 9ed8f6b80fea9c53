import copy
import itertools
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freezing_dyson.dynamics import GkTrajectory, MomentSequence
from freezing_dyson.elemsym import (
    MonicPolynomial,
    RootTuple,
    _exact_sign,
    _scaled_ints,
    elementary_symmetric,
    newton_esp_from_power_sums,
    partial_esp,
    roots_of_monic,
)
from freezing_dyson.errors import InvalidParameter, NotRealRooted
from freezing_dyson.finfree import MKLift
from freezing_dyson.orthopoly import JacobiMatrix, OrthogonalSystem, SpectralMeasure


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


# The eight exact-side value types, each as (a value, an equal value built
# apart, a different value of the same class, its repr, the fields that
# ``==`` and ``hash`` read); the reprs and hashes are those of the frozen
# dataclasses the types once were.
JACOBI = JacobiMatrix((0.0, 1.0), (0.5,))
VALUE_CASES = {
    "RootTuple": (
        RootTuple((-1.5, 0.0, 2.25)), RootTuple.from_values([2.25, -1.5, 0]),
        RootTuple((-1.5, 0.0, 2.5)), "RootTuple(roots=(-1.5, 0.0, 2.25))", ("roots",),
    ),
    "MonicPolynomial": (  # compares the exact integers, shows alpha
        MonicPolynomial((1.0, 0.5, -2.0)), MonicPolynomial.from_integers((2, 1, -4)),
        MonicPolynomial((1.0, 0.5, -1.0)), "MonicPolynomial(alpha=(1.0, 0.5, -2.0))", ("ints",),
    ),
    "JacobiMatrix": (
        JACOBI, JacobiMatrix([0, 1], [0.5]), JacobiMatrix((0.0, 1.0), (0.25,)),
        "JacobiMatrix(diag=(0.0, 1.0), offdiag=(0.5,))", ("diag", "offdiag"),
    ),
    "SpectralMeasure": (
        SpectralMeasure(RootTuple((0.0, 1.0)), (0.25, 0.75)),
        SpectralMeasure(RootTuple((0, 1)), [0.25, 0.75]),
        SpectralMeasure(RootTuple((0.0, 1.0)), (0.5, 0.5)),
        "SpectralMeasure(atoms=RootTuple(roots=(0.0, 1.0)), weights=(0.25, 0.75))",
        ("atoms", "weights"),
    ),
    "OrthogonalSystem": (
        OrthogonalSystem(JACOBI, (1.0, 0.25)), OrthogonalSystem.from_jacobi(JACOBI),
        OrthogonalSystem(JACOBI, (1.0, 0.5)),
        "OrthogonalSystem(source=JacobiMatrix(diag=(0.0, 1.0), offdiag=(0.5,)),"
        " squared_norms=(1.0, 0.25))",
        ("source", "squared_norms"),
    ),
    "MKLift": (
        MKLift((1 + 2j, 3.0), 2), MKLift([1 + 2j, 3], 2), MKLift((1 - 2j, 3.0), 2),
        "MKLift(s=((1+2j), (3+0j)), n=2)", ("s", "n"),
    ),
    "GkTrajectory": (  # compares and shows coeff_polys, rounded from the exact integers
        GkTrajectory(((2,), (1, 2))),
        GkTrajectory([[4], [2, 4]]),
        GkTrajectory(((2,), (1, 4))),
        "GkTrajectory(coeff_polys=((1.0,), (0.5, 1.0)))", ("coeff_polys",),
    ),
    "MomentSequence": (
        MomentSequence((1.0, 0.0, 3.0), 3), MomentSequence([1, 0, 3], 3),
        MomentSequence((1.0, 0.0, 3.0), 2), "MomentSequence(u=(1.0, 0.0, 3.0), n=3)", ("u", "n"),
    ),
}


@pytest.mark.parametrize("name", sorted(VALUE_CASES))
def test_value_types_compare_hash_and_show_as_frozen_dataclasses(name):
    value, equal, other, shown, compared = VALUE_CASES[name]
    assert value == equal and not value != equal and hash(value) == hash(equal)
    assert value != other and not value == other
    assert hash(value) == hash(tuple(getattr(value, field) for field in compared))
    assert repr(value) == shown
    # values of different classes are never equal, even with equal fields
    for rival in VALUE_CASES.values():
        assert (value == rival[0]) == (rival[0] is value)
    assert value != tuple(getattr(value, field) for field in compared)
    subclass = type("Derived", (type(value),), {})
    derived = copy.copy(value)
    object.__setattr__(derived, "__class__", subclass)
    assert derived != value and value != derived and vars(derived) == vars(value)


@pytest.mark.parametrize("name", sorted(VALUE_CASES))
def test_value_types_are_immutable_and_round_trip(name):
    value = VALUE_CASES[name][0]
    state = dict(vars(value))
    for field in [*state, "extra"]:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert vars(value) == state
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(twin) is type(value) and twin == value and vars(twin) == state


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
    assert r.roots == (1.0, 1.0)


def test_roots_of_monic_triple_root():
    # (x-2)^3: alpha_k = e_k(2,2,2)
    r = roots_of_monic(MonicPolynomial((1.0, 6.0, 12.0, 8.0)))
    assert r.roots == (2.0, 2.0, 2.0)


@pytest.mark.parametrize("centre", [4.0, 3.0])
def test_roots_of_monic_exact_multiple_roots(centre):
    # x^8 (x - centre)^4 has exact float coefficients; its repeated roots come
    # back exactly through the square-free factors
    roots = (0.0,) * 8 + (centre,) * 4
    r = roots_of_monic(MonicPolynomial.from_roots(RootTuple(roots)))
    assert r.roots == roots


@pytest.mark.parametrize(
    "groups", [((0.3, 8), (1.7, 8)), ((0.7, 5), (0.9, 2))], ids=["8+8", "5+2"]
)
def test_roots_of_monic_clusters_come_back_as_centroids(groups):
    # rounding pushes these multiple roots off the real line (float
    # coefficients from np.poly); each cluster returns its centroid, where
    # the seeds' own real parts are off by up to 4.5e-2
    centres = [c for c, m in groups for _ in range(m)]
    alpha = np.poly(centres) * (-1.0) ** np.arange(len(centres) + 1)
    r = roots_of_monic(MonicPolynomial(tuple(alpha))).as_array()
    assert np.max(np.abs(r - np.sort(centres))) < 1e-9


def test_roots_of_monic_small_spread_round_trip():
    # roots far below 1 in size are not merged into a multiple root
    x = RootTuple(tuple(1e-3 * np.array([-1.5, 0.2, 1.0, 3.0])))
    back = roots_of_monic(MonicPolynomial.from_roots(x)).as_array()
    assert np.max(np.abs(back - x.as_array())) < 1e-18


def test_roots_of_monic_rejects_complex_pair():
    # x^2 + 1 has no real roots
    with pytest.raises(NotRealRooted):
        roots_of_monic(MonicPolynomial((1.0, 0.0, 1.0)))


def test_roots_of_monic_raises_not_real_rooted_past_the_float_range():
    # re-seeding the cluster near 1e84 shifts the polynomial beyond the float
    # range; that must end in NotRealRooted, not an OverflowError
    alpha = (1.0, -2.00001, -1.1863463822137624e-114, 2.0100790491550437e299,
             5.206613293447182e16, 1e-10, 1e-09)
    with pytest.raises(NotRealRooted):
        roots_of_monic(MonicPolynomial(alpha))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_roots_of_monic_names_non_finite_coefficients(bad):
    with pytest.raises(NotRealRooted, match=r"coefficient c_2 = .* is not finite"):
        roots_of_monic(MonicPolynomial((1.0, 0.5, bad)))


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


def round_trip_tuples(seed, count):
    """A pinned stream of tuples, N = 1..12, in turn: uniform on [-10, 10];
    signed magnitudes spread over 10^-30 .. 10^30; a few 2-decimal values
    repeated; and a 2-decimal grid on [-5, 5]."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(1, 13))
        if i % 4 == 0:
            vals = rng.uniform(-10, 10, n)
        elif i % 4 == 1:
            vals = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-30, 30, n)
        elif i % 4 == 2:
            distinct = np.round(rng.uniform(-5, 5, int(rng.integers(1, n + 1))), 2)
            vals = rng.choice(distinct, n)
        else:
            vals = np.round(rng.uniform(-5, 5, n), 2)
        yield RootTuple.from_values(vals)


def test_root_round_trip_is_bit_exact():
    # from_roots keeps the exact e_k, so each returned root, the float
    # nearest an exact root, is the entry itself
    for x in round_trip_tuples(2024, 1200):
        assert roots_of_monic(MonicPolynomial.from_roots(x)).roots == x.roots, x


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
    assert _exact_sign(_scaled_ints(coeffs), x) == exact_sign_oracle(coeffs, x)



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
@example([1.0, -1.0, -1.0, 1.0, -1.401298464324817e-45, 1.2057640645543755e-263])
@example([1.0, -3.0, 1.0, 3.0, -2.0, 2.802596928649634e-45])  # two roots within an ulp of 1
@example([1.0, -1e-3, -1.0, 1e-3, -1.401298464324817e-51, 1.2057640645543754e-272])
def test_returned_roots_are_certified(coeffs):
    # Every returned root is an exact zero, or the float nearest a sign
    # change between it and an adjacent float, by exact Fraction signs.  The
    # only other roots allowed are centroids of clusters the seeds do not
    # separate, within the documented backward error (float rounding of each
    # coefficient, underflow included).
    d = len(coeffs) - 1
    roots = roots_of_monic(MonicPolynomial(tuple(c * (-1) ** k for k, c in enumerate(coeffs))))
    for r in roots.roots:
        lo, hi = math.nextafter(r, -math.inf), math.nextafter(r, math.inf)
        s_lo, s, s_hi = (exact_sign_oracle(coeffs, x) for x in (lo, r, hi))
        if s == 0:
            continue
        other = lo if s_lo * s < 0 else hi if s * s_hi < 0 else None
        if other is not None:
            mid = (Fraction(r) + Fraction(other)) / 2
            if exact_sign_oracle(coeffs, mid) != s:
                continue
        value = sum(Fraction(c) * Fraction(r) ** (d - k) for k, c in enumerate(coeffs))
        scale = sum(abs(Fraction(c) * Fraction(r) ** (d - k)) for k, c in enumerate(coeffs))
        floor = sum(abs(Fraction(r)) ** (d - k) for k in range(1, d + 1)) / 2**1074
        assert abs(value) <= 8 * d * (scale / 2**53 + floor)


@settings(max_examples=200, deadline=None)
@given(real_rooted_coeffs(12))
def test_roots_of_monic_raises_nothing_up_to_degree_12(coeffs):
    alpha = tuple(c * (-1) ** k for k, c in enumerate(coeffs))
    roots = roots_of_monic(MonicPolynomial(alpha)).roots  # raises NotRealRooted on failure
    assert len(roots) == len(coeffs) - 1


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

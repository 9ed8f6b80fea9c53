import dataclasses
import functools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freezing_dyson import orthopoly
from freezing_dyson.elemsym import RootTuple, _exact_sign
from freezing_dyson.errors import DimensionMismatch, InvalidParameter, NoConvergence, NonFiniteOutput
from freezing_dyson.finfree import hermite_roots, laguerre_roots
from freezing_dyson.stats import clt_covariance_gaussian
from freezing_dyson.stochastic import ble_tridiagonal_batch, gbe_tridiagonal_batch
from freezing_dyson.orthopoly import (
    _CHUNK_ELEMS,
    _NARROW,
    _eigen_lane,
    _power_traces_batch,
    _ql_lanes,
    JacobiMatrix,
    SpectralMeasure,
    dual,
    dual_hermite_system,
    dual_laguerre_system,
    eigen_tridiag,
    eigen_tridiag_batch,
    hermite_jacobi,
    hermite_zeros,
    laguerre_jacobi,
    laguerre_zeros,
    primitive,
    scaled_primitive,
    spectral_measure,
)


def hermite_monomial_coeffs(n):
    # explicit Hermite expansion: coeff of x^(n-2m) is (-1)^m n! / (2^m m! (n-2m)!)
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    for m in range(1, n // 2 + 1):
        coeffs[n - 2 * m] = (
            (-1) ** m
            / 2**m
            * math.factorial(n)
            / (math.factorial(m) * math.factorial(n - 2 * m))
        )
    return coeffs  # ascending powers


def laguerre_monomial_coeffs(n, alpha):
    # closed form: coeff of x^(n-k) is (-1)^k/k! prod_{i=0..k-1} (n-i)(n-i+alpha-1)
    coeffs = np.zeros(n + 1)
    for k in range(n + 1):
        prod = 1.0
        for i in range(k):
            prod *= (n - i) * (n - i + alpha - 1)
        coeffs[n - k] = (-1) ** k / math.factorial(k) * prod
    return coeffs


def monic_char_poly(j):
    # p_n by the recurrence, ascending coefficients (independent of the solver)
    a = j.diag
    b2 = [b * b for b in j.offdiag]
    prev = np.zeros(1)
    cur = np.ones(1)
    for i in range(j.n):
        nxt = np.zeros(i + 2)
        nxt[1:] += cur
        nxt[: i + 1] -= a[i] * cur
        if i >= 1:
            nxt[:i] -= b2[i - 1] * prev
        prev, cur = cur, nxt
    return cur


def test_jacobi_matrix_invariants():
    with pytest.raises(InvalidParameter):
        JacobiMatrix((0.0, 0.0), (0.0,))
    with pytest.raises(InvalidParameter):
        JacobiMatrix((0.0, 0.0), (1.0, 1.0))
    j = JacobiMatrix((1.0, 2.0), (3.0,))
    assert np.allclose(j.dense(), [[1, 3], [3, 2]])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidParameter):
            JacobiMatrix((bad, 0.0), (1.0,))
        with pytest.raises(InvalidParameter):
            JacobiMatrix((0.0, 0.0), (bad,))


def test_hermite_jacobi_examples():
    j2 = hermite_jacobi(2)
    assert j2.diag == (0.0, 0.0) and j2.offdiag == (1.0,)
    j3 = hermite_jacobi(3)
    assert np.allclose(j3.offdiag, [1.0, math.sqrt(2)])
    assert np.allclose(eigen_tridiag(j2).roots, [-1.0, 1.0], atol=1e-13)
    j1 = hermite_jacobi(1)  # He_1(x) = x
    assert j1.diag == (0.0,) and j1.offdiag == ()
    assert eigen_tridiag(j1).roots == (0.0,)
    with pytest.raises(InvalidParameter):
        hermite_jacobi(0)


def test_laguerre_jacobi_examples():
    assert laguerre_jacobi(1, 2.0).diag == (2.0,)
    j = laguerre_jacobi(2, 1.0)
    assert j.diag == (1.0, 3.0) and np.allclose(j.offdiag, [1.0])
    ev = eigen_tridiag(j).as_array()
    assert np.allclose(ev, [2 - math.sqrt(2), 2 + math.sqrt(2)], atol=1e-13)
    ev3 = eigen_tridiag(laguerre_jacobi(2, 3.0)).as_array()
    assert np.allclose(ev3, [2.0, 6.0], atol=1e-12)
    with pytest.raises(InvalidParameter):
        laguerre_jacobi(2, 0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidParameter):
            laguerre_jacobi(2, bad)
        with pytest.raises(InvalidParameter):
            laguerre_zeros(2, bad)


def test_dual_is_reversal_and_involution():
    j = JacobiMatrix((1.0, 2.0, 3.0), (4.0, 5.0))
    jd = dual(j)
    assert jd.diag == (3.0, 2.0, 1.0) and jd.offdiag == (5.0, 4.0)
    assert dual(jd) == j
    n = 6
    jd = dual(hermite_jacobi(n))
    assert np.allclose(jd.offdiag, [math.sqrt(n - i) for i in range(1, n)])


def test_eigen_tridiag_vs_bisection_oracle():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(1, 12))
        j = JacobiMatrix(tuple(rng.normal(0, 2, n)), tuple(rng.uniform(0.1, 3, max(n - 1, 0))))
        got = eigen_tridiag(j).as_array()
        if n == 1:
            assert got[0] == j.diag[0]
        else:
            d, o = np.array([j.diag]), np.array([j.offdiag])
            err = np.abs(got - per_index_bisection(d, o)[0])
            assert np.all(err <= backward_error_bound(d, o)[0])


def test_eigen_tridiag_batch_matches_scalar():
    # a matrix's eigenvalues do not depend on its neighbours in the batch, and
    # the single-matrix QL kernel gives the batch's bits
    rng = np.random.default_rng(5)
    for n in (1, 2, 5, 11):
        diags = rng.normal(0, 1, (40, n))
        offs = rng.uniform(0.2, 2.0, (40, n - 1))
        batch = eigen_tridiag_batch(diags, offs)
        for i in range(40):
            alone = eigen_tridiag_batch(diags[i : i + 1], offs[i : i + 1])
            assert np.array_equal(batch[i], alone[0])
            single = eigen_tridiag(JacobiMatrix(tuple(diags[i]), tuple(offs[i]))).as_array()
            assert single.tobytes() == alone[0].tobytes()


def test_hermite_char_poly_matches_explicit_expansion():
    for n in range(2, 11):
        got = monic_char_poly(hermite_jacobi(n))
        expect = hermite_monomial_coeffs(n)
        nz = expect != 0
        assert np.allclose(got[nz] / expect[nz], 1.0, rtol=1e-10)
        assert np.allclose(got[~nz], 0.0, atol=1e-9)


def test_laguerre_char_poly_matches_closed_form():
    for n in range(1, 11):
        for alpha in (0.5, 1.0, 2.5):
            got = monic_char_poly(laguerre_jacobi(n, alpha))
            expect = laguerre_monomial_coeffs(n, alpha)
            assert np.allclose(got, expect, rtol=1e-10, atol=1e-10 * np.max(np.abs(expect)))


def test_spectral_measure_hermite2():
    sm = spectral_measure(hermite_jacobi(2))
    assert np.allclose(sm.atoms.as_array(), [-1, 1], atol=1e-13)
    assert np.allclose(sm.weights, [0.5, 0.5], atol=1e-12)


def test_spectral_measure_rejects_nan_and_negative_weights():
    atoms = RootTuple((0.0, 1.0))
    for bad in ((math.nan, math.nan), (math.nan, 1.0), (-0.5, 1.5)):
        with pytest.raises(InvalidParameter, match="nonnegative"):
            SpectralMeasure(atoms, bad)
    with pytest.raises(InvalidParameter, match="sum to 1"):
        SpectralMeasure(atoms, (math.inf, 0.0))
    assert SpectralMeasure(atoms, (0.25, 0.75)).weights == (0.25, 0.75)


def test_dual_spectral_atoms_invariant():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        j = JacobiMatrix(tuple(rng.normal(0, 1, n)), tuple(rng.uniform(0.3, 2, n - 1)))
        a1 = spectral_measure(j).atoms.as_array()
        a2 = spectral_measure(dual(j)).atoms.as_array()
        scale = max(1.0, np.max(np.abs(a1)))
        assert np.all(np.abs(a1 - a2) < 1e-10 * scale)


def test_dual_hermite_weights_are_uniform():
    for n in range(2, 11):
        sm = spectral_measure(dual(hermite_jacobi(n)))
        assert np.allclose(sm.weights, 1.0 / n, atol=1e-9)


def test_dual_weights_cd_route_matches_dual_spectral_measure():
    from freezing_dyson.orthopoly import dual_spectral_weights_cd

    rng = np.random.default_rng(15)
    for _ in range(15):
        n = int(rng.integers(2, 11))
        j = JacobiMatrix(tuple(rng.normal(0, 1, n)), tuple(rng.uniform(0.3, 2, n - 1)))
        direct = np.asarray(spectral_measure(dual(j)).weights)
        via_primal = dual_spectral_weights_cd(j)
        assert np.allclose(direct, via_primal, atol=1e-9)
    assert np.allclose(dual_spectral_weights_cd(laguerre_jacobi(1, 2.0)), [1.0])


def test_dual_laguerre_weights_closed_form():
    for n in range(1, 11):
        for alpha in (0.5, 1.0, 2.5):
            jd = dual(laguerre_jacobi(n, alpha)) if n > 1 else laguerre_jacobi(1, alpha)
            sm = spectral_measure(jd)
            z = sm.atoms.as_array()
            expect = z / (n * (alpha + n - 1))
            assert np.allclose(sm.weights, expect, atol=1e-9)


def test_dual_hermite_system_recurrence_and_norms():
    n = 4
    sys = dual_hermite_system(n)
    # q_1 = x, q_2 = x^2 - (n-1)
    assert np.allclose(sys.coefficients(1), [0.0, 1.0])
    assert np.allclose(sys.coefficients(2), [-(n - 1), 0.0, 1.0])
    assert sys.squared_norms[1] == pytest.approx(n - 1)  # <q_1, q_1> = 3 at n=4
    # orthogonality by direct summation over Hermite zeros
    z = eigen_tridiag(hermite_jacobi(n)).as_array()
    s = np.mean(sys.value(1, z) * sys.value(2, z))
    assert abs(s) < 1e-10


def test_dual_system_orthogonality_full():
    # sum_i w*_i q_m q_n = delta_mn h_m for both dual families
    for n in (3, 6, 10):
        sys = dual_hermite_system(n)
        z = eigen_tridiag(hermite_jacobi(n)).as_array()
        w = np.full(n, 1.0 / n)
        gram = np.array(
            [[np.sum(w * sys.value(a, z) * sys.value(b, z)) for b in range(n)] for a in range(n)]
        )
        assert np.allclose(gram, np.diag(sys.squared_norms), atol=1e-9 * max(1, gram.max()))
    for n, alpha in [(3, 1.5), (6, 0.5), (8, 2.5)]:
        sys = dual_laguerre_system(n, alpha)
        z = eigen_tridiag(laguerre_jacobi(n, alpha)).as_array()
        w = z / (n * (alpha + n - 1))
        gram = np.array(
            [[np.sum(w * sys.value(a, z) * sys.value(b, z)) for b in range(n)] for a in range(n)]
        )
        assert np.allclose(gram, np.diag(sys.squared_norms), atol=1e-9 * max(1, gram.max()))


def test_dual_laguerre_first_polynomial():
    n, alpha = 5, 1.5
    sys = dual_laguerre_system(n, alpha)
    # q_1 = x - (alpha + 2(n-1)) from the reversed diagonal
    assert np.allclose(sys.coefficients(1), [-(alpha + 2 * (n - 1)), 1.0])
    # <q_0, q_0> = 1 under the probability measure
    assert sys.squared_norms[0] == 1.0
    z = eigen_tridiag(laguerre_jacobi(n, alpha)).as_array()
    w = z / (n * (alpha + n - 1))
    assert abs(np.sum(w * sys.value(1, z))) < 1e-10


def test_primitive_examples():
    sys = dual_hermite_system(4)
    assert np.allclose(primitive(sys, 0), [0.0, 1.0])  # Q_0 = x
    assert np.allclose(primitive(sys, 1), [0.0, 0.0, 0.5])  # Q_1 = x^2/2
    assert np.allclose(primitive(sys, 2), [0.0, -3.0, 0.0, 1.0 / 3.0])  # x^3/3 - 3x


def test_scaled_primitive_examples():
    sys = dual_hermite_system(4)
    xs = np.linspace(-2, 2, 7)
    assert np.allclose(scaled_primitive(sys, 0, 0.7, xs), xs)
    assert np.allclose(scaled_primitive(sys, 1, 2.3, xs), xs**2 / 2)
    assert np.allclose(scaled_primitive(sys, 2, 1.7, xs), xs**3 / 3 - 3 * 1.7 * xs)
    for t in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(InvalidParameter, match="t must be finite and > 0"):
            scaled_primitive(sys, 1, t, 1.0)


def exact_dual_system(n, alpha):
    """The dual recurrence in Fractions (alpha None: Hermite, b2 = n - m;
    else Laguerre at alpha's exact rational): the monic coefficients and
    squared norms of q_0 .. q_(n-1)."""
    if alpha is None:
        a, b2 = [Fraction(0)] * n, [Fraction(n - m) for m in range(1, n)]
    else:
        al = Fraction(alpha)
        a = [al + 2 * i for i in range(n - 1, -1, -1)]
        b2 = [i * (al + i - 1) for i in range(n - 1, 0, -1)]
    q, norms = [[Fraction(1)]], [Fraction(1)]
    for m in range(n - 1):
        nxt = [Fraction(0)] + q[m]
        for k, c in enumerate(q[m]):
            nxt[k] -= a[m] * c
        for k, c in enumerate(q[m - 1] if m else []):
            nxt[k] -= b2[m - 1] * c
        q.append(nxt)
        norms.append(norms[-1] * b2[m])
    return q, norms


@pytest.mark.parametrize("alpha", [None, 0.3, 1.0, 2.5, 1 / 3], ids=repr)
def test_dual_systems_are_the_exact_values_rounded_once(alpha):
    # the float recurrence on squared rounded square roots missed 83 of 135
    # Hermite and 413 of 540 Laguerre squared norms at n = 2..16, and
    # coefficients by up to 44 ulps
    for n in range(2, 17):
        sys = dual_hermite_system(n) if alpha is None else dual_laguerre_system(n, alpha)
        q, norms = exact_dual_system(n, alpha)
        assert sys.squared_norms == tuple(float(h) for h in norms)
        assert sys.exact_norms == tuple(norms)
        for m in range(n):
            assert sys.coefficients(m).tolist() == [float(c) for c in q[m]]
            expect = [0.0] + [float(c / (k + 1)) for k, c in enumerate(q[m])]
            assert primitive(sys, m).tolist() == expect


@pytest.mark.parametrize("n, alpha, bound", [(16, None, 1e-11), (16, 0.3, 5e-7), (16, 2.5, 1e-8)])
def test_value_tracks_the_exact_polynomials_at_the_zeros(n, alpha, bound):
    # the float recurrence on the rounded a and b2 stays within ``bound`` of
    # max|q_m| of exact evaluation at the float zeros (measured: 3.4e-12,
    # 8.3e-8, 2.5e-9), where Horner's rule on the correctly rounded
    # coefficients loses 1.1e-10, 6.0e-4 and 1.9e-3
    sys = dual_hermite_system(n) if alpha is None else dual_laguerre_system(n, alpha)
    z = (hermite_zeros(n) if alpha is None else laguerre_zeros(n, alpha)).as_array()
    q = exact_dual_system(n, alpha)[0]
    for m in range(n):
        exact = [sum(c * Fraction(x) ** k for k, c in enumerate(q[m])) for x in z]
        exact = np.array([float(v) for v in exact])
        assert np.max(np.abs(sys.value(m, z) - exact)) <= bound * np.max(np.abs(exact))


def test_orthogonal_system_index_errors():
    sys = dual_hermite_system(3)
    with pytest.raises(InvalidParameter):
        sys.coefficients(3)
    with pytest.raises(InvalidParameter):
        primitive(sys, -1)


def _count_below(diag, off2, x, pivmin):
    """Number of eigenvalues below x of the matrix with diagonal ``diag`` and
    squared off-diagonal ``off2``: the count of negative pivots of the LDL^T
    factorization of (J - x I), each pivot floored in magnitude at pivmin."""
    q = diag[0] - x
    if abs(q) < pivmin:
        q = -pivmin
    count = 1 if q < 0.0 else 0
    for i in range(1, len(diag)):
        q = diag[i] - x - off2[i - 1] / q
        if abs(q) < pivmin:
            q = -pivmin
        if q < 0.0:
            count += 1
    return count


def per_index_bisection(diag, offdiag, tol=1e-14):
    """Sturm bisection of each eigenvalue index on its own bracket from the
    Gershgorin interval, all rows and indices of a batch at once: the oracle
    of the LAPACK eigensolver."""
    diag = np.atleast_2d(np.asarray(diag, dtype=float))
    offdiag = np.atleast_2d(np.asarray(offdiag, dtype=float))
    m, n = diag.shape
    if n == 1:
        return diag.copy()
    off2 = offdiag**2
    lo0, hi0 = gershgorin_bounds(diag, offdiag)
    scale = np.maximum(np.maximum(np.abs(lo0), np.abs(hi0)), 1e-300)
    width_tol = np.maximum(tol, 4.0 * np.finfo(float).eps) * scale[:, None]
    pivmin = np.finfo(float).tiny * max(1.0, float(np.max(off2)))

    def count_below(x):  # per row and index, x of shape (m, n)
        q = diag[:, :1] - x
        q = np.where(np.abs(q) < pivmin, -pivmin, q)
        count = (q < 0.0).astype(np.int64)
        for i in range(1, n):
            q = diag[:, i, None] - x - off2[:, i - 1, None] / q
            q = np.where(np.abs(q) < pivmin, -pivmin, q)
            count += q < 0.0
        return count

    lo = np.repeat(lo0[:, None], n, axis=1)
    hi = np.repeat(hi0[:, None], n, axis=1)
    for _ in range(130):
        mid = 0.5 * (lo + hi)
        below = count_below(mid) <= np.arange(n)
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        if np.all(hi - lo <= width_tol):
            break
    return 0.5 * (lo + hi)


def gershgorin_bounds(diag, offdiag):
    rad = np.zeros(diag.shape)
    rad[:, :-1] += np.abs(offdiag)
    rad[:, 1:] += np.abs(offdiag)
    return np.min(diag - rad, axis=1), np.max(diag + rad, axis=1)


def backward_error_bound(diag, offdiag):
    """Per-row distance allowed between eigvalsh and bisection: the
    bisection's own width 1e-14 s plus the eigensolver's backward error
    8 n eps s, with s the Gershgorin scale of the matrix."""
    lo, hi = gershgorin_bounds(diag, offdiag)
    s = np.maximum(np.abs(lo), np.abs(hi))
    return (1e-14 + 8 * diag.shape[1] * np.finfo(float).eps) * s


LAGUERRE_ALPHAS = (0.3, 1.0, 1.7, 2.5)


@functools.lru_cache(maxsize=None)
def exact_char_polys(alpha):
    """Characteristic polynomials p_0..p_80 of the exact classical Jacobi
    matrices, from the recurrence p_(m+1) = (x - a_m) p_m - b_m^2 p_(m-1) on
    Fractions: a_m = 0, b_m^2 = m (Hermite, alpha None), or a_m = alpha + 2m,
    b_m^2 = m (alpha + m - 1) (Laguerre, alpha the dyadic float).  Each is
    returned as descending integer coefficients, scaled by the common
    denominator, which does not change its signs."""
    a = None if alpha is None else Fraction(alpha)
    prev, cur = [], [Fraction(1)]
    polys = [[1]]
    for m in range(80):
        shift, b2 = (0, m) if a is None else (a + 2 * m, m * (a + m - 1))
        nxt = cur + [Fraction(0)]
        for i, c in enumerate(cur):
            nxt[i + 1] -= shift * c
        for i, c in enumerate(prev):
            nxt[i + 2] -= b2 * c
        prev, cur = cur, nxt
        den = math.lcm(*(c.denominator for c in cur))
        polys.append([int(c * den) for c in cur])
    return polys


# The documented guarantee of the classical zeros: each within 1e-14 max|z|
# of an exact zero.  The brackets z_k -+ 1e-14 max|z| are disjoint and each
# holds a sign change of the exact degree-n polynomial, so each holds exactly
# one of its n zeros.
@pytest.mark.parametrize("n", range(2, 81))
def test_classical_zeros_certified_by_exact_signs(n):
    cases = [(hermite_zeros(n), None)] + [(laguerre_zeros(n, a), a) for a in LAGUERRE_ALPHAS]
    for zeros, alpha in cases:
        ints = exact_char_polys(alpha)[n]
        z = zeros.as_array()
        tol = 1e-14 * np.max(np.abs(z))
        lo, hi = (z - tol).tolist(), (z + tol).tolist()
        assert all(h < l for h, l in zip(hi, lo[1:]))
        assert all(_exact_sign(ints, l) * _exact_sign(ints, h) == -1 for l, h in zip(lo, hi))


# The batch kernel sweeps its matrices lane-vectorized, chunk by chunk.  A
# classical matrix anywhere in a batch that spans two chunks (at either end
# of each; the second, ragged one narrower than _NARROW, so it runs lane by
# lane) must give its batch of one bit for bit, whatever rows surround it.
@pytest.mark.parametrize("n", range(2, 81))
def test_blocked_kernel_bit_identical_on_classical_matrices(n, monkeypatch):
    step = 64
    monkeypatch.setattr(orthopoly, "_LANES", step)
    d, o = gbe_tridiagonal_batch(2.0, n, step + 7, np.random.default_rng(n))
    cases = [hermite_jacobi(n)] + [laguerre_jacobi(n, a) for a in LAGUERRE_ALPHAS]
    rows = (0, step - 1, step, step + 3, step + 6)
    for row, j in zip(rows, cases):
        d[row], o[row] = j.diag, j.offdiag
    got = eigen_tridiag_batch(d, o)
    for row, j in zip(rows, cases):
        alone = eigen_tridiag_batch(np.array([j.diag]), np.array([j.offdiag]))
        assert np.array_equal(got[row], alone[0])


# M within one chunk, below _NARROW, spanning two chunks at n = 20, and
# n = 1, which needs no eigensolver.
@pytest.mark.parametrize(
    "m,n",
    [(7, 9), (1000, 10), (4095, 3), (4097, 4), (5000, 6), (_CHUNK_ELEMS // 20**2 + 73, 20), (50, 1)],
)
def test_batch_within_backward_error_of_bisection(m, n):
    rng = np.random.default_rng(m + n)
    batches = [
        (rng.normal(0, 2, (m, n)), rng.uniform(0.01, 3.0, (m, n - 1))),
        gbe_tridiagonal_batch(1e4, n, m, rng),
        ble_tridiagonal_batch(2.0, 1.5, n, m, rng),
    ]
    for d, o in batches:
        got = eigen_tridiag_batch(d, o)
        assert got.shape == (m, n)
        err = np.abs(got - per_index_bisection(d, o))
        assert np.all(err <= backward_error_bound(d, o)[:, None])


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["gbe", "ble"]),
    st.floats(0.5, 1e4),
    st.floats(0.1, 5.0),
    st.integers(1, 24),
    st.integers(0, 2**32 - 1),
)
def test_batch_eigenvalues_certified_by_sturm_counts(kind, beta, alpha, n, seed):
    # exactly k eigenvalues lie below the k-th one, to within the bound
    rng = np.random.default_rng(seed)
    if kind == "gbe":
        d, o = gbe_tridiagonal_batch(beta, n, 16, rng)
    else:
        d, o = ble_tridiagonal_batch(beta, alpha, n, 16, rng)
    lam = eigen_tridiag_batch(d, o)
    delta = backward_error_bound(d, o)
    k = np.arange(n)
    for row in range(len(d)):
        off2 = o[row] ** 2
        pivmin = np.finfo(float).tiny * max(1.0, float(np.max(off2, initial=0.0)))
        below = [_count_below(d[row], off2, x, pivmin) for x in lam[row] - delta[row]]
        upto = [_count_below(d[row], off2, x, pivmin) for x in lam[row] + delta[row]]
        assert np.all(below <= k) and np.all(k < upto)


def test_batch_offdiag_shape_checked():
    d = np.zeros((3, 4))
    with pytest.raises(DimensionMismatch):
        eigen_tridiag_batch(d, np.ones((1, 3)))  # would broadcast over the batch
    with pytest.raises(DimensionMismatch):
        eigen_tridiag_batch(d, np.ones((3, 4)))
    with pytest.raises(DimensionMismatch):
        eigen_tridiag_batch(d[:, :1], np.ones((3, 1)))
    assert eigen_tridiag_batch(d[:, :1], np.empty((3, 0))).shape == (3, 1)


def test_power_traces_offdiag_shape_checked():
    d = np.zeros((3, 4))
    with pytest.raises(DimensionMismatch):
        _power_traces_batch(d, np.ones((1, 3)), 2)  # would broadcast over the batch
    with pytest.raises(DimensionMismatch):
        _power_traces_batch(d, np.ones((3, 4)), 2)
    with pytest.raises(DimensionMismatch):
        _power_traces_batch(d[:, :1], np.ones((3, 1)), 2)
    got = _power_traces_batch(np.full((3, 1), 3.0), np.empty((3, 0)), 2)
    assert np.array_equal(got, np.tile([1.0, 3.0, 9.0], (3, 1)))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("where", ["diag", "offdiag"])
def test_power_traces_refuse_non_finite_entries(bad, where):
    # overflowed chi draws reach the kernel as inf or NaN entries
    d, o = np.ones((5, 3)), np.ones((5, 2))
    (d if where == "diag" else o)[3, 1] = bad
    with pytest.raises(NoConvergence, match="non-finite matrix entries"):
        _power_traces_batch(d, o, 2)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("where", ["diag", "offdiag"])
def test_eigen_tridiag_batch_refuses_non_finite_entries(bad, where):
    # LAPACK once returned such a row as NaN eigenvalues and raised nothing
    d, o = np.ones((5, 3)), np.ones((5, 2))
    (d if where == "diag" else o)[3, 1] = bad
    with pytest.raises(NoConvergence, match="^tridiagonal eigenvalues: non-finite matrix entries$"):
        eigen_tridiag_batch(d, o)


# The lane form of the QL kernel runs each lane's operations in the scalar's
# order, so every lane equals the pure-Python kernel bit for bit: matrices
# with entries spread over 10^+-8, off-diagonals down to 1e-300 (blocks that
# split below their first row) and exactly 0.0 (tridiagonal matrices that are
# block diagonal), in batches of any width, across chunk edges.
_wide_batch = st.integers(1, 40).flatmap(
    lambda n: st.tuples(
        st.lists(
            st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(-8.0, 8.0)).map(
                lambda su: su[0] * 10.0 ** su[1]
            ),
            min_size=n,
            max_size=n,
        ),
        st.lists(
            st.one_of(
                st.floats(-8.0, 8.0).map(lambda u: 10.0**u),
                st.floats(-300.0, -8.0).map(lambda u: 10.0**u),
                st.just(0.0),
            ),
            min_size=n - 1,
            max_size=n - 1,
        ),
    )
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_wide_batch, min_size=1, max_size=24), st.integers(0, 2**32 - 1), st.sampled_from([5, 16, 8192]))
def test_batch_lanes_equal_the_scalar_kernel_bit_for_bit(matrices, seed, lanes):
    # one n per batch: each drawn matrix's n, the others' entries cycled in
    n = len(matrices[0][0])
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 3 * _NARROW + 40))
    picks = [matrices[i % len(matrices)] for i in range(m)]
    d = np.array([(list(dg) * n)[:n] if len(dg) else [1.0] * n for dg, _ in picks])
    o = np.array([(list(of) * n)[: n - 1] if len(of) else [0.5] * (n - 1) for _, of in picks]).reshape(m, n - 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orthopoly, "_LANES", lanes)
        got = eigen_tridiag_batch(d, o)
    for i in range(m):
        assert got[i].tobytes() == np.array(_eigen_lane(d[i].tolist(), o[i].tolist())).tobytes()


# Zero diagonals beside off-diagonals of 1e-280 and below: each of these
# takes the QL's r == 0 split (a rotation of two zeros) in the scalar kernel,
# which every lane of a batch mixing them with sampled matrices must follow.
R_ZERO = [
    [2.58303320776236e-300, 5.755923336e-315, 1.1832371616146969e-07],
    [1.3318260584198951e-281, 5.116640620636302e-306, 0.028590205828871635, 2.70913684e-316],
    [5.588578464704615e-290, 2.93056302753536e-309, 8.12895710358085e-302, 6.151017978978845e-07],
]


@pytest.mark.parametrize("off", R_ZERO)
def test_batch_lanes_take_the_scalar_split_path(off):
    n = len(off) + 1
    d, o = gbe_tridiagonal_batch(2.0, n, 3 * _NARROW, np.random.default_rng(n))
    d[::3], o[::3] = 0.0, off
    got = eigen_tridiag_batch(d, o)
    for i in range(len(d)):
        assert got[i].tobytes() == np.array(_eigen_lane(d[i].tolist(), o[i].tolist())).tobytes()


# The lanes are independent, so the output does not depend on how the batch
# is cut into chunks: chunks of one lane, of 7 lanes (below _NARROW, so lane
# by lane in pure Python), of _NARROW + 1 and of 64 lanes must all give the
# bits of one chunk, and an empty batch an empty result.  At beta = 2 the lanes converge after unequal sweep
# counts, so the work set shrinks below _NARROW within a level.
@pytest.mark.parametrize("n", [2, 3, 8, 16])
def test_eigen_batch_bit_identical_whatever_the_chunking(n, monkeypatch):
    rng = np.random.default_rng(n)
    for d, o in (gbe_tridiagonal_batch(2.0, n, 151, rng), ble_tridiagonal_batch(0.5, 1.5, n, 151, rng)):
        whole = eigen_tridiag_batch(d, o)
        for lanes in (1, 7, _NARROW + 1, 64):
            monkeypatch.setattr(orthopoly, "_LANES", lanes)
            assert eigen_tridiag_batch(d, o).tobytes() == whole.tobytes()
            assert eigen_tridiag_batch(d[:0], o[:0]).shape == (0, n)
        monkeypatch.undo()


# A lane that never converges (NaN) stops the batch after 30 sweeps with the
# scalar's message, in a chunk of the lane form and in one narrower than
# _NARROW, where the lanes run in pure Python.
@pytest.mark.parametrize("width", [_NARROW - 1, _NARROW, 3 * _NARROW])
def test_lane_kernel_sweep_cap(width):
    d = np.tile([[0.5], [-0.25], [0.75], [0.1]], width)
    e = np.full((4, width), 0.5)
    d[2, width // 2] = math.nan
    with pytest.raises(NoConvergence, match="^tridiagonal eigenvalues: 30 sweeps without convergence$"):
        _ql_lanes(d, e)


def test_clt_covariance_report_bit_identical_for_any_lane_width(monkeypatch):
    # n = 8: 5000 samples in one chunk, and in chunks of 1000 lanes
    reports = [clt_covariance_gaussian(1e4, 8, 5000, 11)]
    monkeypatch.setattr(orthopoly, "_LANES", 1000)
    reports.append(clt_covariance_gaussian(1e4, 8, 5000, 11))
    for field in dataclasses.fields(reports[0]):
        assert np.array_equal(getattr(reports[0], field.name), getattr(reports[1], field.name)), field.name


def exact_power_traces(diag, offdiag, kmax):
    """tr(J^k), k = 0..kmax, of one float Jacobi matrix, as exact Fractions.

    Floats are dyadic rationals, so J = M / den with an integer matrix M and
    den the largest denominator of the entries, a power of two.
    """
    n = len(diag)
    den = max(Fraction(v).denominator for v in [*diag, *offdiag])
    a = [int(Fraction(v) * den) for v in diag]
    b = [int(Fraction(v) * den) for v in offdiag]
    power = [[int(r == c) for c in range(n)] for r in range(n)]
    traces = []
    for k in range(kmax + 1):
        traces.append(Fraction(sum(power[r][r] for r in range(n)), den**k))
        # column c of P J is P[:, c-1] b[c-1] + P[:, c] a[c] + P[:, c+1] b[c]
        power = [
            [
                (row[c - 1] * b[c - 1] if c >= 1 else 0)
                + row[c] * a[c]
                + (row[c + 1] * b[c] if c + 1 < n else 0)
                for c in range(n)
            ]
            for row in power
        ]
    return traces


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["gbe", "ble"]),
    st.floats(1.0, 1e4),
    st.floats(0.1, 5.0),
    st.integers(1, 12),
    st.integers(0, 2**32 - 1),
    st.integers(-20, 20),
)
def test_power_traces_within_bound_of_exact_traces(kind, beta, alpha, n, seed, scale):
    # each power sum of the float matrix is within k n 2^-52 tr(|J|^k) of
    # exact; entries scaled by 2^+-20 keep every J^k, k <= 25, in the normal range
    rng = np.random.default_rng(seed)
    if kind == "gbe":
        d, o = gbe_tridiagonal_batch(beta, n, 3, rng)
    else:
        d, o = ble_tridiagonal_batch(beta, alpha, n, 3, rng)
    d, o = d * 2.0**scale, o * 2.0**scale
    kmax = 2 * n + 1
    got = _power_traces_batch(d, o, kmax)
    assert got.shape == (3, kmax + 1)
    for row in range(3):
        exact = exact_power_traces(d[row], o[row], kmax)
        bound = exact_power_traces(np.abs(d[row]), o[row], kmax)
        for k in range(kmax + 1):
            err = abs(Fraction(got[row, k]) - exact[k])
            assert err <= Fraction(k * n, 2**52) * bound[k]


# The lanes are independent, and each one's arithmetic runs in the same order
# in any chunk, so the output does not depend on how the batch is split: with
# 64-lane chunks the batch fills the first one and ends in a ragged one, and
# it must equal one lane per chunk, ragged chunks of 7 lanes and one chunk.
@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_power_traces_bit_identical_whatever_the_chunking(n, monkeypatch):
    rng = np.random.default_rng(n)
    kmax = n + 2
    for d, o in (gbe_tridiagonal_batch(1e4, n, 71, rng),
                 ble_tridiagonal_batch(2.0, 1.5, n, 71, rng)):
        monkeypatch.setattr(orthopoly, "_CHUNK_ELEMS", 64 * n * n)
        split = _power_traces_batch(d, o, kmax)
        for lanes in (1, 7, 71):
            monkeypatch.setattr(orthopoly, "_CHUNK_ELEMS", lanes * n * n)
            assert np.array_equal(_power_traces_batch(d, o, kmax), split)


_jacobi = st.integers(1, 12).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n),
        st.lists(st.floats(1e-3, 10.0), min_size=n - 1, max_size=n - 1),
    )
)


@settings(max_examples=60, deadline=None)
@given(_jacobi, st.lists(st.floats(-40.0, 40.0), min_size=2, max_size=30))
def test_sturm_count_monotone_in_x(jac, xs):
    d, o = np.array(jac[0]), np.array(jac[1]) ** 2
    x = np.sort(np.array(xs))
    pivmin = np.finfo(float).tiny * max(1.0, float(np.max(o, initial=0.0)))
    counts = np.array([_count_below(d, o, v, pivmin) for v in x])
    assert np.all(np.diff(counts.astype(int)) >= 0)
    assert counts[0] >= 0 and counts[-1] <= len(jac[0])


@settings(max_examples=60, deadline=None)
@given(_jacobi)
def test_eigenvalues_match_eigvalsh(jac):
    # hold the single-matrix QL kernel to the Sturm oracle
    d, o = np.array([jac[0]]), np.array([jac[1]])
    got = eigen_tridiag(JacobiMatrix(tuple(jac[0]), tuple(jac[1]))).as_array()
    assert np.all(np.abs(got - per_index_bisection(d, o)[0]) <= backward_error_bound(d, o)[0])


# Entries spread over 10^+-8 in size, and off-diagonals down to 1e-300, far
# below the others, so that some matrices split into blocks.
_wide_jacobi = st.integers(1, 40).flatmap(
    lambda n: st.tuples(
        st.lists(
            st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(-8.0, 8.0)).map(
                lambda su: su[0] * 10.0 ** su[1]
            ),
            min_size=n,
            max_size=n,
        ),
        st.lists(
            st.one_of(st.floats(-8.0, 8.0), st.floats(-300.0, -8.0)).map(lambda u: 10.0**u),
            min_size=n - 1,
            max_size=n - 1,
        ),
    )
)


@settings(max_examples=150, deadline=None)
@given(_wide_jacobi)
def test_single_matrix_kernel_sorted_interlacing_trace_and_batch(jac):
    # the QL kernel's eigenvalues come back sorted, interlace with those of the
    # leading (n-1) x (n-1) block (Cauchy), sum to the trace and match the
    # batch, each within 8 n eps |J|_1
    diag, off = jac
    n = len(diag)
    norm = max(abs(a) + sum(off[max(i - 1, 0) : i + 1]) for i, a in enumerate(diag))
    tol = 8 * n * np.finfo(float).eps * norm
    lam = eigen_tridiag(JacobiMatrix(tuple(diag), tuple(off))).roots
    assert list(lam) == sorted(lam)
    assert abs(math.fsum(lam) - math.fsum(diag)) <= tol
    batch = eigen_tridiag_batch(np.array([diag]), np.array(off).reshape(1, n - 1))[0]
    assert np.all(np.abs(np.array(lam) - batch) <= tol)
    if n > 1:
        mu = eigen_tridiag(JacobiMatrix(tuple(diag[:-1]), tuple(off[:-1]))).roots
        assert all(lam[i] - tol <= mu[i] <= lam[i + 1] + tol for i in range(n - 1))


def test_single_matrix_kernel_sweep_cap():
    # a NaN never converges: past 30 sweeps the kernel raises, not loops
    j = object.__new__(JacobiMatrix)
    object.__setattr__(j, "diag", (math.nan, 0.0, 1.0))
    object.__setattr__(j, "offdiag", (1.0, 1.0))
    with pytest.raises(NoConvergence, match="^tridiagonal eigenvalues: 30 sweeps without"):
        eigen_tridiag(j)


@pytest.mark.parametrize("s", [1e-300, 1e-200, 1e-160, 1e-100, 1.0, 1e100, 1e160, 1e200, 1e300])
def test_eigen_tridiag_accurate_at_extreme_scales(s):
    # squared off-diagonals leave the float range past about 1e+-154; the
    # kernel runs on an exact power-of-two rescaling of J instead
    base = JacobiMatrix((1.0, -3.0, 2.0), (2.0, 0.5))
    expect = np.linalg.eigvalsh(base.dense())
    j = JacobiMatrix(tuple(s * a for a in base.diag), tuple(s * b for b in base.offdiag))
    got = eigen_tridiag(j).as_array() / s
    assert np.all(np.abs(got - expect) <= 1e-14 * np.max(np.abs(expect)))


def test_eigenvalues_past_the_float_range_raise_non_finite_output():
    # the eigenvalues of this matrix are about 0 and 2e308: the scalar kernel
    # once raised OverflowError from its unscaling and the batch returned inf
    # with numpy's overflow warning; a matrix at a tenth of it stays finite
    big = JacobiMatrix((1e308, 1e308), (1e308,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteOutput, match="^tridiagonal eigenvalues: an eigenvalue is past"):
            eigen_tridiag(big)
        for rows in (1, 30):  # in the pure-Python lanes and in the vectorized ones
            d, o = np.full((rows, 2), 1e307), np.full((rows, 1), 1e307)
            d[-1], o[-1] = big.diag, big.offdiag
            with pytest.raises(NonFiniteOutput, match="^tridiagonal eigenvalues: an eigenvalue is"):
                eigen_tridiag_batch(d, o)
            assert np.isfinite(eigen_tridiag_batch(d[:-1], o[:-1])).all()
        assert eigen_tridiag(JacobiMatrix(d[0], o[0])).roots[1] == 2.0000000000000002e307


def test_classical_zero_caches():
    # the Hermite spectrum symmetrized once: exact negatives, the middle zero 0.0
    z = eigen_tridiag(hermite_jacobi(7)).roots
    assert hermite_zeros(7).roots == tuple(0.5 * (a - b) for a, b in zip(z, z[::-1]))
    assert hermite_zeros(7).roots[3] == 0.0
    hits = hermite_zeros.cache_info().hits
    assert hermite_zeros(7) is hermite_zeros(7)
    assert hermite_zeros.cache_info().hits == hits + 2
    assert laguerre_zeros(5, 0.75) == eigen_tridiag(laguerre_jacobi(5, 0.75))
    hits = laguerre_zeros.cache_info().hits
    laguerre_zeros(5, 0.75)
    assert laguerre_zeros.cache_info().hits == hits + 1


def test_cached_zeros_not_aliased_by_callers():
    first = hermite_roots(6, 1.0).as_array()
    expect = first.copy()
    first[:] = 0.0
    assert np.array_equal(hermite_roots(6, 1.0).as_array(), expect)
    first = laguerre_roots(6, 1.25, 1.0).as_array()
    expect = first.copy()
    first *= 2.0
    assert np.array_equal(laguerre_roots(6, 1.25, 1.0).as_array(), expect)


def test_spectral_measure_weights_sum_to_one_on_random_jacobi_matrices():
    # the forward orthonormal recurrence missed the sum by up to 0.93 on 50
    # of these 300 draws (smallest n = 15); eigenvector components do not
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(1, 30))
        j = JacobiMatrix(rng.normal(0, 3, n), rng.uniform(1e-3, 5, n - 1))
        sm = spectral_measure(j)  # raises InvalidParameter if the sum misses 1 by 1e-10
        assert abs(sum(sm.weights) - 1.0) < 1e-13
        assert min(sm.weights) >= 0.0

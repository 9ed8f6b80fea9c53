"""Jacobi matrices, tridiagonal eigensolving, spectral measures and dual polynomials.

A Jacobi matrix (symmetric tridiagonal, positive off-diagonal) encodes a
three-term recurrence and a discrete spectral measure.  The classical Hermite
and Laguerre families enter through explicit finite Jacobi matrices whose
spectra are the polynomial zeros; their *duals* (index-reversed matrices)
carry the orthogonal systems used by the fluctuation statistics.

One eigenvalue kernel serves every caller: a pure-Python implicit QL
iteration (:func:`eigen_tridiag`, and through it the classical zeros), so the
exact side of the library computes its zeros without loading numpy.  Batches
of many matrices (:func:`eigen_tridiag_batch`, the Monte Carlo samplers) run
the same iteration lane-vectorized on numpy arrays, each matrix to the same
bits as alone, so the batch output depends on no chunking, no core count and
no numpy or LAPACK build; ``eigh`` serves only where spectral measures need
the eigenvectors.  The kernel is backward stable, to a small multiple of
n * eps * (matrix norm); the tests certify each classical Hermite and
Laguerre zero within 1e-14 * max|z| of the exact zero by exact signs of the
exact characteristic polynomial.  The classical zeros are cached per
(n, alpha) and their types, as immutable root tuples, so that a cached ``1``
never answers for ``True``.

The dual orthogonal systems (:class:`OrthogonalSystem`) are held exactly:
their recurrence data are ints or Fractions (a float alpha at its exact
rational), their squared norms are exact, and their monic coefficients are
computed exactly on first use, on integers scaled by the data's common
denominator; each is rounded once, so ``squared_norms``, ``coefficients``
and :func:`primitive` are correctly rounded.  Evaluation at float points
keeps one route, the three-term recurrence on the rounded data: at n = 16
and the float zeros it stays within 3.4e-12 (Hermite) and 8.3e-8 (Laguerre,
alpha = 0.3) of max|q_m| of exact evaluation, where Horner's rule on the
correctly rounded coefficients loses 1.1e-10 and 6.0e-4.

Linear statistics of a polynomial of degree k need no spectrum, only the
power sums ``tr(J^k)``; :func:`_power_traces_batch` forms them for a batch
from banded products of the matrix entries, with no LAPACK call, so its
output depends on no LAPACK build.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

from .elemsym import RootTuple, _Value, _numbers, _rounded
from .errors import (
    DimensionMismatch,
    InvalidParameter,
    NoConvergence,
    NonFiniteOutput,
    check_int,
    check_real,
    np,
)

__all__ = [
    "JacobiMatrix",
    "SpectralMeasure",
    "OrthogonalSystem",
    "hermite_jacobi",
    "laguerre_jacobi",
    "dual",
    "eigen_tridiag",
    "hermite_zeros",
    "laguerre_zeros",
    "spectral_measure",
    "dual_spectral_weights_cd",
    "dual_hermite_system",
    "dual_laguerre_system",
    "primitive",
    "scaled_primitive",
]

# Float64 elements of one chunk of _power_traces_batch's banded powers (1 MB).
_CHUNK_ELEMS = 1 << 17
# The batch eigenvalue kernel sweeps chunks of _LANES matrices lane-major and
# runs fewer than _NARROW lanes in pure Python (measured in CHANGES.md).  In
# a matrix scaled to entries below 1 no off-diagonal above _SAFE splits a
# block, and _TINY bounds the sums of squares whose sqrt loses nothing.
_LANES = 8192
_NARROW = 24
_SAFE = 2.0**-50
_TINY = 2.0**-1000
_PAST_RANGE = "tridiagonal eigenvalues: an eigenvalue is past the float range"


def _check_type(name: str, value, cls) -> None:
    if not isinstance(value, cls):
        what = ("an " if cls.__name__[0] in "AEIOU" else "a ") + cls.__name__
        raise InvalidParameter(f"{name} must be {what} (got {type(value).__name__})")


def _float_array(name: str, x) -> np.ndarray:
    """``x`` (a number or an array of numbers) as a float array."""
    try:
        return np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidParameter(f"{name} must be a number or an array of numbers ({exc})") from None


class JacobiMatrix(_Value):
    """Symmetric tridiagonal matrix with strictly positive off-diagonal."""

    _compared = _shown = ("diag", "offdiag")

    def __init__(self, diag, offdiag):
        diag = _numbers("diag", diag)
        off = _numbers("offdiag", offdiag)
        if len(diag) < 1:
            raise InvalidParameter("Jacobi matrix needs at least one row")
        if len(off) != len(diag) - 1:
            raise InvalidParameter("off-diagonal length must be n - 1")
        if not all(math.isfinite(v) for v in diag + off):
            raise InvalidParameter("Jacobi matrix entries must be finite")
        if any(b <= 0.0 for b in off):
            raise InvalidParameter("off-diagonal entries must be strictly positive")
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "offdiag", off)

    @property
    def n(self) -> int:
        return len(self.diag)

    def dense(self) -> np.ndarray:
        m = np.diag(np.asarray(self.diag))
        off = np.asarray(self.offdiag)
        if len(off):
            m += np.diag(off, 1) + np.diag(off, -1)
        return m


class SpectralMeasure(_Value):
    """Finitely supported probability measure: atoms with nonnegative weights."""

    _compared = _shown = ("atoms", "weights")

    def __init__(self, atoms, weights):
        _check_type("atoms", atoms, RootTuple)
        w = _numbers("weights", weights)
        if len(w) != atoms.n:
            raise InvalidParameter("one weight per atom required")
        if not all(v >= -1e-12 for v in w):
            raise InvalidParameter("weights must be nonnegative and not NaN")
        if abs(sum(w) - 1.0) > 1e-10:
            raise InvalidParameter("weights must sum to 1 within 1e-10")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", w)


def hermite_jacobi(n: int) -> JacobiMatrix:
    """Finite Jacobi matrix with zero diagonal and off-diagonal sqrt(1..n-1).

    Its characteristic polynomial is the degree-n probabilist Hermite
    polynomial, so its eigenvalues are the Hermite zeros.
    """
    check_int("n", n, 1)
    return JacobiMatrix((0.0,) * n, tuple(math.sqrt(i) for i in range(1, n)))


def laguerre_jacobi(n: int, alpha: float) -> JacobiMatrix:
    """Jacobi matrix of the gamma-weight orthogonal (Laguerre) recurrence.

    diag ``(alpha, alpha+2, ..., alpha+2(n-1))``, off-diagonal
    ``sqrt(i)*sqrt(alpha+i-1)`` for ``i = 1..n-1``; eigenvalues are the zeros
    of the degree-n monic Laguerre polynomial with parameter alpha.
    """
    check_int("n", n, 1)
    check_real("alpha", alpha, 0.0)
    diag = tuple(alpha + 2.0 * i for i in range(n))
    off = tuple(math.sqrt(i) * math.sqrt(alpha + i - 1.0) for i in range(1, n))
    return JacobiMatrix(diag, off)


def dual(j: JacobiMatrix) -> JacobiMatrix:
    """Index-reversed Jacobi matrix (both sequences reversed)."""
    _check_type("j", j, JacobiMatrix)
    return JacobiMatrix(j.diag[::-1], j.offdiag[::-1])


def _as_batch(diag, offdiag, what: str):
    """(M, n) diagonals and (M, n-1) off-diagonals as float arrays, shapes
    checked; non-finite entries (overflowed chi draws) raise NoConvergence."""
    diag = np.atleast_2d(np.asarray(diag, dtype=float))
    offdiag = np.atleast_2d(np.asarray(offdiag, dtype=float))
    m, n = diag.shape
    if offdiag.shape != (m, n - 1):
        raise DimensionMismatch(
            f"offdiag has shape {offdiag.shape}, expected {(m, n - 1)} for diag {diag.shape}"
        )
    if not (np.isfinite(diag).all() and np.isfinite(offdiag).all()):
        raise NoConvergence(f"{what}: non-finite matrix entries")
    return diag, offdiag


def eigen_tridiag_batch(diag: np.ndarray, offdiag: np.ndarray) -> np.ndarray:
    """Eigenvalues of a batch of Jacobi matrices, ascending per row.

    ``diag`` is (M, n), ``offdiag`` is (M, n-1).  The QL iteration of
    :func:`eigen_tridiag` runs lane-vectorized on chunks of ``_LANES``
    matrices, and each lane's eigenvalues are the single-matrix kernel's bits,
    so they depend on no other matrix, no chunking and no numpy or LAPACK
    build.  Past 30 sweeps for one eigenvalue :class:`NoConvergence` is
    raised, and for an eigenvalue past the float range
    :class:`NonFiniteOutput`.
    """
    diag, offdiag = _as_batch(diag, offdiag, "tridiagonal eigenvalues")
    if diag.shape[1] == 1:
        return diag.copy()
    out = np.empty(diag.shape)
    for s in range(0, len(diag), _LANES):
        d = diag[s : s + _LANES].T.copy()
        e = np.zeros(d.shape)
        e[:-1] = offdiag[s : s + _LANES].T
        # the scaling of _eigen_lane, lane by lane
        k = np.frexp(np.maximum(np.abs(d).max(axis=0), np.abs(e).max(axis=0)))[1]
        with np.errstate(divide="ignore", invalid="ignore"):  # lanes with r = 0 go to _ql
            _ql_lanes(np.ldexp(d, -k, out=d), np.ldexp(e, -k, out=e))
        with np.errstate(over="ignore"):  # an overflow is raised below
            np.ldexp(d, k, out=d)
        if not np.isfinite(d).all():
            raise NonFiniteOutput(_PAST_RANGE)
        out[s : s + _LANES] = np.sort(d.T, axis=1, kind="stable")
    return out


def _ql_lanes(d: np.ndarray, e: np.ndarray) -> None:
    """:func:`_ql` on every lane (column) of the scaled lane-major ``d`` and
    ``e`` ((n, w); e's last row unused), in place.  The lanes take each level
    lo together: those whose test at row lo fails sweep rows lo..n-1 at once,
    into the other of two work buffers.  :func:`_ql` itself runs, from the
    state before, a lane with an off-diagonal below row lo at or under
    ``_SAFE`` (its block may split there, or a rotation need the slow norm),
    and a level of fewer than ``_NARROW`` lanes."""
    n, w = d.shape
    split = (np.abs(e[1 : n - 1]) <= _SAFE).any(axis=0) | (w < _NARROW)
    _alone(d, e, np.flatnonzero(split), None, 0, 0, n)
    lanes = np.flatnonzero(~split)
    work = np.empty((2, 2, n, w))  # two (d, e) buffers, one written per sweep
    tmp = np.empty((7, w))
    flip = 0
    cd = None  # rows lo..n-1 of the lanes ``at``, where not None
    for lo in range(n - 1):
        if cd is None:
            at = lanes
            cd, ce = (d[lo:], e[lo:]) if len(at) == w else (d[lo:].take(at, 1), e[lo:].take(at, 1))
        for sweeps in range(31):
            dd = np.abs(cd[0]) + np.abs(cd[1])
            done = np.abs(ce[0]) + dd == dd
            if done.all() and len(at) == len(lanes) and lo < n - 2:
                d[lo, at] = cd[0]  # the other rows go on to the next level
                cd, ce = cd[1:], ce[1:]
                break
            if done.any():
                cols, keep = np.flatnonzero(done), np.flatnonzero(~done)
                d[lo:, at[cols]], e[lo:, at[cols]] = cd.take(cols, 1), ce.take(cols, 1)
                at, cd, ce = at[keep], cd.take(keep, 1), ce.take(keep, 1)
            if len(at) < _NARROW:
                _alone(d, e, at, (cd, ce), lo, sweeps, lo + 1)
                cd = None
                break
            if sweeps == 30:
                raise NoConvergence("tridiagonal eigenvalues: 30 sweeps without convergence")
            nd, ne = work[flip, :, lo:, : len(at)]
            flip ^= 1
            _sweep_lanes(cd, ce, nd, ne, tmp[:, : len(at)])
            new = ne[1:]  # every r of the sweep; above _SAFE, each took sqrt(f*f + g*g)
            if not (new.min() > _SAFE and new.max() < math.inf):
                bad = ~((new > _SAFE) & (new < math.inf)).all(axis=0)
                cols, keep = np.flatnonzero(bad), np.flatnonzero(~bad)
                _alone(d, e, at[cols], (cd.take(cols, 1), ce.take(cols, 1)), lo, sweeps, n)
                lanes = np.setdiff1d(lanes, at[cols], assume_unique=True)
                at, nd, ne = at[keep], nd.take(keep, 1), ne.take(keep, 1)
            cd, ce = nd, ne


def _alone(d, e, lanes, state, lo: int, sweeps: int, top: int) -> None:
    """:func:`_ql` on ``lanes`` of ``d`` and ``e``, rows lo.. first set to ``state``."""
    if state is not None:
        d[lo:, lanes], e[lo:, lanes] = state
    for j in lanes:
        dj, ej = d[:, j].tolist(), e[:, j].tolist()
        _ql(dj, ej, lo, sweeps, top)
        d[:, j], e[:, j] = dj, ej


def _sweep_lanes(cd, ce, nd, ne, tmp) -> None:
    """One sweep of :func:`_ql` on every lane (an unreduced block lo..n-1) of
    ``cd`` and ``ce``, into ``nd`` and ``ne``, in the scalar's order."""
    mul, add, sub, div, sqrt = np.multiply, np.add, np.subtract, np.divide, np.sqrt
    s, c, p, f, b, t, g = tmp
    dr, er, ndr, ner = list(cd), list(ce), list(nd), list(ne)
    div(sub(dr[1], dr[0], out=g), mul(er[0], 2.0, out=t), out=g)
    sqrt(add(mul(g, g, out=t), 1.0, out=t), out=t)
    div(er[0], add(g, np.copysign(t, g, out=t), out=t), out=t)
    add(sub(dr[-1], dr[0], out=g), t, out=g)
    s[...], c[...], p[...] = 1.0, 1.0, 0.0
    for i in range(len(dr) - 2, -1, -1):
        r = ner[i + 1]
        mul(s, er[i], out=f)
        mul(c, er[i], out=b)
        sqrt(add(mul(f, f, out=r), mul(g, g, out=t), out=r), out=r)
        div(f, r, out=s)
        div(g, r, out=c)
        sub(dr[i + 1], p, out=g)
        mul(sub(dr[i], g, out=t), s, out=t)
        add(t, mul(mul(c, 2.0, out=f), b, out=f), out=t)
        mul(s, t, out=p)
        add(g, p, out=ndr[i + 1])
        sub(mul(c, t, out=g), b, out=g)
    sub(dr[0], p, out=ndr[0])
    ner[0][...] = g


def _power_traces_batch(diag: np.ndarray, offdiag: np.ndarray, kmax: int) -> np.ndarray:
    """Power sums ``tr(J^k)``, k = 0..kmax, of a batch of Jacobi matrices, as
    an (M, kmax+1) array, with no eigensolve.

    ``diag`` is (M, n), ``offdiag`` is (M, n-1).  ``J^j`` is held as its upper
    diagonals, lane-major (diagonal d is an (n-d, lanes) array), for
    ``j <= ceil(kmax/2)``: each diagonal of ``J^(j+1)`` is three shifted
    products of ``J^j``'s diagonals with a and b.  Then ``tr J^(2j)`` is the
    squared Frobenius norm of ``J^j`` and ``tr J^(2j+1)`` the Frobenius
    product of ``J^j`` and ``J^(j+1)``.  Every term is a product of matrix
    entries, so nothing cancels on matrices with nonnegative entries
    (Laguerre), and each power sum is within ``k n eps tr(|J|^k)`` of the
    exact trace of the float matrix.  The lanes run in chunks of about
    ``_CHUNK_ELEMS`` floats of working memory; each lane's arithmetic runs
    in the same order in any chunk, so the result does not depend on the
    chunking.  Non-finite entries raise :class:`NoConvergence`, as in
    :func:`eigen_tridiag_batch`.
    """
    diag, offdiag = _as_batch(diag, offdiag, "tridiagonal power traces")
    m, n = diag.shape
    out = np.empty((m, kmax + 1))
    step = max(1, _CHUNK_ELEMS // (n * n))
    for s in range(0, m, step):
        a = np.ascontiguousarray(diag[s : s + step].T)
        b = np.ascontiguousarray(offdiag[s : s + step].T)
        power = [np.ones_like(a)]  # J^0
        for k in range(kmax + 1):
            if k % 2 == 0:
                out[s : s + step, k] = _frobenius(power, power)
            else:
                nxt = _times_jacobi(power, a, b)
                out[s : s + step, k] = _frobenius(power, nxt)
                power = nxt
    return out


def _times_jacobi(p: list, a: np.ndarray, b: np.ndarray) -> list:
    """Upper diagonals of ``P J`` from those of the symmetric banded ``P``
    (diagonal d is ``p[d]``, an (n-d, lanes) array) and J's a and b, (n, lanes)
    and (n-1, lanes)."""
    n = len(a)
    w = len(p) - 1
    out = []
    for d in range(min(w + 1, n - 1) + 1):
        # (P J)[r, r+d] = P[r, r+d-1] b[r+d-1] + P[r, r+d] a[r+d] + P[r, r+d+1] b[r+d]
        if d > w:  # the new outermost diagonal
            e = p[d - 1][: n - d] * b[d - 1 :]
        else:
            e = p[d] * a[d:]
            if d >= 1:
                e += p[d - 1][: n - d] * b[d - 1 :]
        if d < w:
            below = p[d + 1] * b[d:]
            e[: n - d - 1] += below
            if d == 0:  # P[r, r-1] = P[r-1, r]
                e[1:] += below
        out.append(e)
    return out


def _frobenius(p: list, q: list) -> np.ndarray:
    """Per-lane Frobenius product of two symmetric banded matrices given as
    upper diagonals, summed row by row in a fixed order (numpy's own
    reduction switches to pairwise order for a one-lane chunk)."""
    acc = p[0] * q[0]
    for d in range(1, min(len(p), len(q))):
        acc[: len(acc) - d] += 2.0 * (p[d] * q[d])
    total = acc[0].copy()
    for row in acc[1:]:
        total += row
    return total


def eigen_tridiag(j: JacobiMatrix) -> RootTuple:
    """All eigenvalues of one Jacobi matrix, ascending, in pure Python.

    Implicit QL with Wilkinson shifts, eigenvalues only, in O(n^2) (Bowdler,
    Martin, Reinsch & Wilkinson, Numer. Math. 1968): each sweep chases a
    bulge from the bottom of the unreduced block to its first row, whose
    diagonal converges to an eigenvalue, and an off-diagonal that adds
    nothing to the sum of its two diagonal neighbours splits the block.  The
    matrix is first scaled exactly by a power of two to norm about 1.
    Backward stable, within a small multiple of n * eps * (matrix norm) of
    exact, with no numpy call; past 30 sweeps for one eigenvalue, as in
    LAPACK, :class:`NoConvergence` is raised, and for an eigenvalue past the
    float range :class:`NonFiniteOutput`.  :func:`eigen_tridiag_batch` runs
    the same kernel on many matrices at once, to the same bits.
    """
    _check_type("j", j, JacobiMatrix)
    return RootTuple(tuple(_eigen_lane(j.diag, j.offdiag)))


def _eigen_lane(diag, offdiag) -> list:
    """Ascending eigenvalues of the float matrix ``diag``, ``offdiag``: :func:`_ql`
    on it scaled by a power of two to a largest entry in [1/2, 1)."""
    if len(diag) == 1:
        return list(diag)
    k = math.frexp(max(max(map(abs, diag)), max(map(abs, offdiag))))[1]
    d = [math.ldexp(a, -k) for a in diag]
    e = [math.ldexp(b, -k) for b in offdiag] + [0.0]
    _ql(d, e, 0, 0, len(d))
    try:
        return sorted(math.ldexp(a, k) for a in d)
    except OverflowError:
        raise NonFiniteOutput(_PAST_RANGE) from None


def _ql(d: list, e: list, lo: int, sweeps: int, top: int) -> None:
    """QL sweeps on the scaled ``d`` and ``e`` (e[n-1] unused), in place, from
    level ``lo``, where ``sweeps`` are spent, until ``d[:top]`` holds
    eigenvalues.  A rotation's r is sqrt(f*f + g*g) while that sum lies in
    [2^-1000, inf), else m sqrt(1 + (q/m)^2), m and q the larger and smaller
    of |f| and |g|; the shift's g*g + 1 is in range, as |g| <= 2^52 while
    e[lo] is not negligible."""
    n = len(d)
    sqrt, copysign, tiny, inf = math.sqrt, math.copysign, _TINY, math.inf
    for lo in range(lo, top):
        while True:
            m, below = lo, abs(d[lo])  # the unreduced block is lo..m
            while m < n - 1:
                above, below = below, abs(d[m + 1])
                dd = above + below
                if abs(e[m]) + dd == dd:
                    break
                m += 1
            if m == lo:
                break
            if sweeps == 30:
                raise NoConvergence("tridiagonal eigenvalues: 30 sweeps without convergence")
            sweeps += 1
            # shift: the eigenvalue of the leading 2 x 2 block nearer d[lo]
            g = (d[lo + 1] - d[lo]) / (2.0 * e[lo])
            r = sqrt(g * g + 1.0)
            g = d[m] - d[lo] + e[lo] / (g + copysign(r, g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, lo - 1, -1):
                j = i + 1
                f = s * e[i]
                b = c * e[i]
                r = f * f + g * g
                if tiny <= r < inf:
                    r = sqrt(r)
                else:
                    q, r = sorted((abs(f), abs(g)))
                    if r == 0.0:  # the block splits at j: sweep again
                        e[j] = r
                        d[j] -= p
                        e[m] = 0.0
                        break
                    r *= sqrt(1.0 + (q / r) * (q / r))
                e[j] = r
                s = f / r
                c = g / r
                g = d[j] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[j] = g + p
                g = c * r - b
            else:
                d[lo] -= p
                e[lo] = g
                e[m] = 0.0
        sweeps = 0


@functools.lru_cache(maxsize=128, typed=True)
def hermite_zeros(n: int) -> RootTuple:
    """Zeros of the degree-n probabilist Hermite polynomial, cached: the
    spectrum ``eigen_tridiag(hermite_jacobi(n))`` symmetrized exactly about
    zero, as the exact zeros are."""
    z = eigen_tridiag(hermite_jacobi(n)).roots
    return RootTuple(tuple(0.5 * (a - b) for a, b in zip(z, reversed(z))))


@functools.lru_cache(maxsize=128, typed=True)
def laguerre_zeros(n: int, alpha: float) -> RootTuple:
    """Zeros of the degree-n monic Laguerre polynomial, cached:
    ``eigen_tridiag(laguerre_jacobi(n, alpha))``."""
    return eigen_tridiag(laguerre_jacobi(n, alpha))


def spectral_measure(j: JacobiMatrix) -> SpectralMeasure:
    """Spectral measure of J from one LAPACK ``eigh``: atoms are the
    eigenvalues, weights the squared first components of the orthonormal
    eigenvectors (Golub-Welsch).

    The eigenvector matrix is orthogonal to working precision, so the weights
    sum to 1 within a few ulps at any n; the positive off-diagonal makes the
    eigenvalues distinct.
    """
    _check_type("j", j, JacobiMatrix)
    vals, vecs = np.linalg.eigh(j.dense())
    return SpectralMeasure(RootTuple(tuple(vals)), tuple(vecs[0] ** 2))


def dual_spectral_weights_cd(j: JacobiMatrix, atoms: RootTuple | None = None) -> np.ndarray:
    """Weights of the spectral measure of ``dual(j)`` via the
    Christoffel-Darboux route ``w*_i = p_(n-1)(lambda_i) / p_n'(lambda_i)``,
    at the atoms (default: the spectrum of j).

    Expressed in the *primal* matrix's polynomials, whose roots interlace the
    spectrum with healthy gaps; applying the plain weight formula to the dual
    matrix itself is exponentially ill-conditioned at spectrum edges carrying
    small primal weights.  Evaluated through the orthonormal recurrence
    (``w*_i = ptilde_(n-1) / ptilde_n'`` with the ``b_n := 1`` bookkeeping
    for the last step); for n = 1 both are exactly 1, so the weight is 1.
    """
    _check_type("j", j, JacobiMatrix)
    if atoms is None:
        atoms = eigen_tridiag(j)
    _check_type("atoms", atoms, RootTuple)
    if atoms.n != j.n:
        raise DimensionMismatch(f"{atoms.n} atoms for a Jacobi matrix of order {j.n}")
    x = atoms.as_array()
    a = np.asarray(j.diag)
    b = np.concatenate([np.asarray(j.offdiag), [1.0]])
    p_prev = np.zeros_like(x)
    p_cur = np.ones_like(x)
    d_prev = np.zeros_like(x)
    d_cur = np.zeros_like(x)
    for m in range(j.n):
        p_nxt = ((x - a[m]) * p_cur - (b[m - 1] * p_prev if m >= 1 else 0.0)) / b[m]
        d_nxt = (p_cur + (x - a[m]) * d_cur - (b[m - 1] * d_prev if m >= 1 else 0.0)) / b[m]
        p_prev, p_cur = p_cur, p_nxt
        d_prev, d_cur = d_cur, d_nxt
    return p_prev / d_cur


def _rational(v):
    """``v`` exactly: an int, else a Fraction (a float is read exactly)."""
    from fractions import Fraction  # only the dual systems need it

    r = Fraction(v) if hasattr(v, "denominator") else Fraction(float(v))  # a Rational, or not
    return r.numerator if r.denominator == 1 else r


def _round(x, d: int = 1) -> float:
    """The exact rational ``x / d`` (x an int or Fraction), correctly rounded."""
    return _rounded(x.numerator, x.denominator * d)


class OrthogonalSystem(_Value):
    """Monic orthogonal polynomials of an exact three-term recurrence.

    ``a`` and ``b2`` (n and n - 1 > 0 exact rationals) drive
    ``q_(m+1) = (x - a_m) q_m - b2_(m-1) q_(m-1)``; the squared norms
    ``h_m = b2_0 ... b2_(m-1)`` are exact (``exact_norms``), the coefficients
    exact from first use (``_scaled``), and each float output rounds once.
    """

    _compared = _shown = ("a", "b2")

    def __init__(self, a, b2):
        a, b2 = _numbers("a", a, _rational), _numbers("b2", b2, _rational)
        if len(a) < 1 or len(b2) != len(a) - 1 or any(b <= 0 for b in b2):
            raise InvalidParameter("an orthogonal system needs n >= 1 a and n - 1 positive b2")
        h = tuple(itertools.accumulate(b2, operator.mul, initial=1))
        vars(self).update(a=a, b2=b2, exact_norms=h, squared_norms=tuple(map(_round, h)))
        vars(self).update(_floats=(tuple(map(_round, a)), tuple(map(_round, b2))))

    @functools.cached_property
    def _scaled(self):
        """(d, rows): row m holds the integers d^(m-j) c_mj of q_m = sum_j c_mj x^j,
        the coefficients of d^m q_m(X / d), whose recurrence has the integer
        data d a_m and d^2 b2_m (d clears the denominators of a and b2)."""
        d = math.lcm(*(v.denominator for v in self.a + self.b2))
        a, b2 = [int(v * d) for v in self.a], [int(v * d * d) for v in self.b2]
        q = [(1,)]
        for m in range(len(b2)):  # the terms of X q_m, d a_m q_m and d^2 b2_(m-1) q_(m-1)
            terms = zip((0, *q[m]), (*q[m], 0), (*q[m - 1], 0, 0) if m else (0, 0))
            q.append(tuple(u - a[m] * c - b2[m - 1] * e for u, c, e in terms))
        return d, q

    def _rounded_row(self, m: int, integral: bool) -> list:
        """q_m's ascending coefficients, over power + 1 if ``integral``, each rounded once."""
        self._check_index(m)
        d, q = self._scaled
        return [_rounded(c, d ** (m - j) * (j + 1 if integral else 1)) for j, c in enumerate(q[m])]

    @property
    def n(self) -> int:
        return len(self.a)

    def value(self, m: int, x):
        """q_m at x (scalar or array): the recurrence on the rounded a and b2."""
        self._check_index(m)
        a, b2 = self._floats
        xv = _float_array("x", x)
        prev, cur = np.zeros_like(xv), np.ones_like(xv)
        for i in range(m):
            prev, cur = cur, (xv - a[i]) * cur - (b2[i - 1] * prev if i >= 1 else 0.0)
        return cur if cur.shape else float(cur)

    def orthonormal_value(self, m: int, x):
        return self.value(m, x) / math.sqrt(self.squared_norms[m])

    def coefficients(self, m: int) -> np.ndarray:
        """Coefficients of q_m in ascending powers, each rounded once."""
        return np.array(self._rounded_row(m, False))

    def _check_index(self, m: int):
        check_int("m", m, 0)
        if m > self.n - 1:
            raise InvalidParameter(f"polynomial order {m} out of range 0..{self.n - 1}")


@functools.lru_cache(maxsize=128, typed=True)
def dual_hermite_system(n: int) -> OrthogonalSystem:
    """Duals of the first n Hermite polynomials, cached.

    Recurrence ``q_(m+1) = x q_m - (n - m) q_(m-1)``; orthogonal under the
    uniform measure on the Hermite zeros, with squared norms
    ``prod_(i=1..m) (n - i)``.
    """
    check_int("n", n, 1)
    return OrthogonalSystem((0,) * n, range(n - 1, 0, -1))


@functools.lru_cache(maxsize=128, typed=True)
def dual_laguerre_system(n: int, alpha: float) -> OrthogonalSystem:
    """Duals of the first n Laguerre polynomials (alpha read exactly), cached.

    Orthogonal under the zero-weighted measure with weights
    ``z_i / (n (alpha + n - 1))`` on the Laguerre zeros.
    """
    check_int("n", n, 1)
    check_real("alpha", alpha, 0.0)
    al, i = _rational(alpha), range(n - 1, -1, -1)
    return OrthogonalSystem([al + 2 * k for k in i], [k * (al + k - 1) for k in i[:-1]])


def primitive(sys: OrthogonalSystem, m: int) -> np.ndarray:
    """Antiderivative of the monic q_m with zero constant term, as ascending
    coefficients, each rounded once."""
    _check_type("sys", sys, OrthogonalSystem)
    return np.array([0.0, *sys._rounded_row(m, True)])


def scaled_primitive(sys: OrthogonalSystem, m: int, t: float, x):
    """Time-scaled primitive ``t^((m+1)/2) Q_m(x / sqrt(t))``, for 0 < t < inf
    and finite x."""
    check_real("t", t, 0.0)
    q = primitive(sys, m)
    xv = _float_array("x", x)
    if not np.isfinite(xv).all():
        raise InvalidParameter("x must be finite")
    val = t ** ((m + 1) / 2.0) * np.polynomial.polynomial.polyval(xv / math.sqrt(t), q)
    return val if np.ndim(x) else float(val)

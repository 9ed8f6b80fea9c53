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
Laguerre zero within 32 ulps of max|z| of the exact zero by exact signs of
the exact characteristic polynomial.  The classical zeros are cached per
(n, alpha) and their types, as immutable root tuples, so that a cached ``1``
never answers for ``True``.

The dual orthogonal systems (:class:`OrthogonalSystem`) are held exactly:
their recurrence data are ints or Fractions (a float alpha at its exact
rational), their squared norms are exact, and their monic coefficients are
computed exactly on first use, on integers scaled by the data's common
denominator; each is rounded once, so ``squared_norms``, ``coefficients``
and :func:`primitive` are correctly rounded.  Their values at the zeros are
never evaluated: those of the orthonormal polynomials are the entries of the
unit eigenvectors of the dual Jacobi matrix (Golub-Welsch), which
:func:`_eigenvectors` solves from one twisted factorization per zero.

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
# runs fewer than _NARROW lanes in pure Python (measured in CHANGES.md).  An
# e^2 at or under _SPLIT dd^2, dd the sum of its diagonal neighbours' |d|,
# splits a block, so in a matrix scaled to entries below 1 none above _SAFE.
_LANES = 8192
_NARROW = 24
_SAFE = 2.0**-100
_SPLIT = 2.0**-106
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
    ``sqrt(i)*sqrt(alpha+(i-1))`` for ``i = 1..n-1`` (the integer added last,
    so a small alpha is not cancelled); eigenvalues are the zeros of the
    degree-n monic Laguerre polynomial with parameter alpha.
    """
    check_int("n", n, 1)
    check_real("alpha", alpha, 0.0)
    diag = tuple(alpha + 2.0 * i for i in range(n))
    off = tuple(math.sqrt(i) * math.sqrt(alpha + (i - 1)) for i in range(1, n))
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
    build.  Chunks are row slices of ``diag.T`` and ``offdiag.T``, and the
    result is the (M, n) view of an (n, M) array.  Past 30 sweeps for one
    eigenvalue :class:`NoConvergence` is raised, and for an eigenvalue past
    the float range :class:`NonFiniteOutput`.
    """
    diag, offdiag = _as_batch(diag, offdiag, "tridiagonal eigenvalues")
    m, n = diag.shape
    if n == 1:
        return diag.copy()
    out = np.empty((n, m))
    for s in range(0, m, _LANES):
        a, b = diag.T[:, s : s + _LANES], offdiag.T[:, s : s + _LANES]
        d, e = de = np.zeros((2, *a.shape))
        # _eigen_lane's scaling lane by lane (max |x| as max(max x, -min x)), and the squares
        k = np.frexp(np.maximum(*(np.maximum(x.max(0), -x.min(0)) for x in (a, b))))[1]
        np.ldexp(a, -k, out=d)
        np.ldexp(b, -k, out=e[:-1])
        np.multiply(e, e, out=e)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # c = 0: lanes go to _ql
            _ql_lanes(de)
        with np.errstate(over="ignore"):  # an overflow is raised below
            np.ldexp(d, k, out=d)
        if not np.isfinite(d).all():
            raise NonFiniteOutput(_PAST_RANGE)
        # Batcher's network on whole rows; minimum and maximum do not keep a
        # +0.0 and a -0.0 in order, so a lane holding a zero sorts stably
        zero, rows, spare = np.flatnonzero(~d.all(axis=0)), list(d), e[0]
        tied, minimum, maximum = np.sort(d[:, zero], axis=0, kind="stable"), np.minimum, np.maximum
        for i, j in _network(n):
            minimum(rows[i], rows[j], out=spare)
            maximum(rows[i], rows[j], out=rows[j])
            rows[i], spare = spare, rows[i]
        out[:, s : s + _LANES] = rows
        out[:, s + zero] = tied
    return out.T


@functools.lru_cache(maxsize=128)
def _network(n: int) -> tuple:
    """The comparators (i, j), i < j, of Batcher's odd-even merge sort of n
    keys (AFIPS 1968), in order: 3 / 19 / 63 at n = 3 / 8 / 16."""
    pairs, p = [], 1
    while p < n:
        for k in (p >> b for b in range(p.bit_length())):
            for j in range(k % p, n - k, 2 * k):
                hi = min(j + k, n - k)
                pairs += [(i, i + k) for i in range(j, hi) if i // (2 * p) == (i + k) // (2 * p)]
        p *= 2
    return tuple(pairs)


def _ql_lanes(de: np.ndarray) -> None:
    """:func:`_ql` on every lane (column) of ``de``, the scaled lane-major d
    and squared off-diagonals e ((2, n, w); e's last row unused), in place.
    The lanes take each level lo together: those whose test at row lo fails
    sweep rows lo..n-1 at once, each group that passes is parked in a block
    of its own, and one copy joins the blocks to start the next level, less
    row lo (which goes to d).  :func:`_ql` itself runs, from the state
    before, a lane with an e^2 below row lo at or under ``_SAFE`` (its block
    may split there) or not finite (a rotation had c = 0), and a level of
    fewer than ``_NARROW`` lanes."""
    (d, e), (_, n, w) = de, de.shape
    stores = [np.empty(2 * n * w) for _ in range(3)]  # the block's, the parked lanes', a free one
    tmp, done = np.empty((6, w)), np.empty(w, dtype=bool)
    ops = np.multiply, np.add, np.subtract, np.divide, np.sqrt, np.copysign  # looked up once
    (mul, add), absolute, less_equal, count = ops[:2], np.abs, np.less_equal, np.count_nonzero
    split = (e[1 : n - 1] <= _SAFE).any(axis=0) | (w < _NARROW)
    _alone(d, e, np.flatnonzero(split), None, 0, 0, n)
    at = np.flatnonzero(~split)

    def block_in(i, rows, k):  # a C-contiguous (2, rows, k) array of d and e rows
        return stores[i][: 2 * rows * k].reshape(2, rows, k)

    block = de if len(at) == w else de[:, :, at]
    for lo in range(n - 1):
        rows, parts, parted = n - lo, [], []  # the blocks parked in stores[1], and their lanes
        for sweeps in itertools.count():
            (cd, ce), k = block, len(at)
            t, ok = tmp[0, :k], done[:k]
            add(absolute(cd[0], out=t), absolute(cd[1], out=tmp[1, :k]), out=t)
            passed = count(less_equal(ce[0], mul(mul(t, t, out=t), _SPLIT, out=t), out=ok))
            if passed == k:  # the block joins the lanes parked before, if any
                break
            if passed:
                cols, used = np.flatnonzero(ok), sum(part.size for part in parts)
                part = stores[1][used : used + 2 * rows * passed].reshape(2, rows, passed)
                parts.append(np.take(block, cols, 2, out=part, mode="clip"))
                parted.append(at[cols])
                at, keep = at[~ok], np.flatnonzero(~ok)
                block = np.take(block, keep, 2, out=block_in(2, rows, len(at)), mode="clip")
                (cd, ce), stores[0], stores[2] = block, stores[2], stores[0]
            if len(at) < _NARROW:  # the scalar ends the level, and they pass
                _alone(d, e, at, block, lo, sweeps, lo + 1)
                block = np.stack((d[lo:, at], e[lo:, at]))
                continue
            if sweeps == 30:
                raise NoConvergence("tridiagonal eigenvalues: 30 sweeps without convergence")
            block, stores[0], stores[2] = block_in(2, rows, len(at)), stores[2], stores[0]
            _sweep_lanes(cd, ce, *block, tmp[:, : len(at)], ops)
            # each e^2 the sweep wrote: above _SAFE below row lo (so not NaN;
            # an inf there is followed by a NaN), and finite at row lo
            if not (block[1, 1:-1].min(initial=math.inf) > _SAFE and block[1, 0].max() < math.inf):
                bad = ~(block[1, 1:-1] > _SAFE).all(axis=0) | ~(block[1, 0] < math.inf)
                _alone(d, e, at[bad], (cd[:, bad], ce[:, bad]), lo, sweeps, n)
                at, block = at[~bad], block[:, :, ~bad]
        if parts:
            at = np.concatenate([*parted, at])
            block = np.concatenate([*parts, block], axis=2, out=block_in(2, rows, len(at)))
            stores[0], stores[2] = stores[2], stores[0]
        d[lo, at] = block[0, 0]
        block = block[:, 1:]
    d[-1, at] = block[0, 0]


def _alone(d, e, lanes, state, lo: int, sweeps: int, top: int) -> None:
    """:func:`_ql` on ``lanes`` of ``d`` and ``e``, rows lo.. first set to ``state``."""
    if state is not None:
        d[lo:, lanes], e[lo:, lanes] = state
    for j in lanes:
        dj, ej = d[:, j].tolist(), e[:, j].tolist()
        _ql(dj, ej, lo, sweeps, top)
        d[:, j], e[:, j] = dj, ej


def _sweep_lanes(cd, ce, nd, ne, tmp, ops) -> None:
    """One sweep of :func:`_ql` on every lane (an unreduced block lo..n-1) of
    ``cd`` and ``ce``, into ``nd`` and ``ne``, in the scalar's order; a lane
    whose c is 0 writes inf or NaN."""
    mul, add, sub, div, sqrt, copysign = ops
    c, s, p, gamma, sigma, t = tmp
    dr, er, ndr, ner = list(cd), list(ce), list(nd), list(ne)
    sqrt(er[0], out=p)
    div(sub(dr[1], dr[0], out=sigma), mul(p, 2.0, out=t), out=sigma)
    sqrt(add(mul(sigma, sigma, out=t), 1.0, out=t), out=t)
    sub(dr[0], div(p, add(sigma, copysign(t, sigma, out=t), out=t), out=t), out=sigma)
    sub(dr[-1], sigma, out=gamma)
    mul(gamma, gamma, out=p)
    for i in range(len(dr) - 2, -1, -1):
        r = add(p, er[i], out=t)
        if i < len(dr) - 2:
            mul(s, r, out=ner[i + 1])
        div(p, r, out=c)
        div(er[i], r, out=s)
        mul(s, gamma, out=p)  # gamma, the old one, goes into d[i+1] below
        sub(mul(c, sub(dr[i], sigma, out=t), out=t), p, out=t)
        add(gamma, sub(dr[i], t, out=p), out=ndr[i + 1])
        gamma, t = t, gamma
        div(mul(gamma, gamma, out=p), c, out=p)
    mul(s, p, out=ner[0])
    add(sigma, gamma, out=ndr[0])


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
    out = np.empty((kmax + 1, m))
    step = max(1, _CHUNK_ELEMS // (n * n))
    for s in range(0, m, step):
        a, b = diag.T[:, s : s + step], offdiag.T[:, s : s + step]
        power = [np.ones(a.shape)]  # J^0
        for k in range(kmax + 1):
            if k % 2 == 0:
                out[k, s : s + step] = _frobenius(power, power)
            else:
                nxt = _times_jacobi(power, a, b)
                out[k, s : s + step] = _frobenius(power, nxt)
                power = nxt
    return out.T


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
    e = [s * s for s in (math.ldexp(b, -k) for b in offdiag)] + [0.0]
    _ql(d, e, 0, 0, len(d))
    try:
        return sorted(math.ldexp(a, k) for a in d)
    except OverflowError:
        raise NonFiniteOutput(_PAST_RANGE) from None


def _ql(d: list, e: list, lo: int, sweeps: int, top: int) -> None:
    """Root-free QL sweeps (Pal, Walker and Kahan; LAPACK ``dsterf``) on the
    scaled ``d`` and squared off-diagonals ``e`` (e[n-1] unused), in place,
    from level ``lo``, where ``sweeps`` are spent, until ``d[:top]`` holds
    eigenvalues.  A rotation takes no square root and divides by no 0 (each
    e^2 in an unreduced block is above 0), and sigma*sigma + 1 is in range."""
    n = len(d)
    sqrt, copysign = math.sqrt, math.copysign
    for lo in range(lo, top):
        while True:
            m, below = lo, abs(d[lo])  # the unreduced block is lo..m
            while m < n - 1:
                above, below = below, abs(d[m + 1])
                dd = above + below
                if e[m] <= _SPLIT * (dd * dd):
                    break
                m += 1
            if m == lo:
                break
            if sweeps == 30:
                raise NoConvergence("tridiagonal eigenvalues: 30 sweeps without convergence")
            sweeps += 1
            # shift: the eigenvalue of the leading 2 x 2 block nearer d[lo]
            rte = sqrt(e[lo])
            sigma = (d[lo + 1] - d[lo]) / (2.0 * rte)
            sigma = d[lo] - rte / (sigma + copysign(sqrt(sigma * sigma + 1.0), sigma))
            gamma = d[m] - sigma
            p, c = gamma * gamma, 1.0
            for i in range(m - 1, lo - 1, -1):
                r = p + e[i]
                if i < m - 1:
                    e[i + 1] = s * r
                oldc, c, s = c, p / r, e[i] / r
                oldgam, gamma = gamma, c * (d[i] - sigma) - s * gamma
                d[i + 1] = oldgam + (d[i] - gamma)
                p = gamma * gamma / c if c != 0.0 else oldc * e[i]
            e[lo] = s * p
            d[lo] = sigma + gamma
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


def _eigenvectors(a, b2, lam) -> np.ndarray:
    """Unit eigenvectors, first entries positive, as columns, of the Jacobi
    matrix with diagonal ``a`` and squared off-diagonal ``b2`` (exact data is
    rounded once) at its eigenvalues ``lam``: one twisted factorization each
    (Fernando, SIAM J. Matrix Anal. Appl. 1997), lane-vectorized over ``lam``.
    The LDL^T pivots of J - lam run down, the UDU^T pivots up, and a vector is
    solved outward from its row r of smallest |gamma_r|, at z_r = 1.  A pivot
    under pivmin in magnitude is taken as -pivmin, as in LAPACK, so a zero
    pivot neither divides nor warns."""
    a, b2 = np.asarray(a, dtype=float)[:, None], np.asarray(b2, dtype=float)[:, None]
    n, pivmin = len(a), 2.0**-500 * b2.max(initial=1.0)
    shifted = a - lam
    down, up = shifted.copy(), shifted.copy()
    for i in range(n):
        if i:
            down[i] -= b2[i - 1] / down[i - 1]
            up[n - 1 - i] -= b2[n - 1 - i] / up[n - i]
        for piv in (down[i], up[n - 1 - i]):
            piv[np.abs(piv) < pivmin] = -pivmin
    r = np.argmin(np.abs(down + up - shifted), axis=0)
    b, z = np.sqrt(b2), np.ones_like(shifted)
    for i in range(n - 2, -1, -1):
        z[i] = np.where(i < r, -b[i] / down[i] * z[i + 1], 1.0)
    for i in range(n - 1):
        z[i + 1] = np.where(i < r, z[i + 1], -b[i] / up[i + 1] * z[i])
    return z / np.copysign(np.sqrt(np.sum(z * z, axis=0)), z[0])


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

"""Jacobi matrices, tridiagonal eigensolving, spectral measures and dual polynomials.

A Jacobi matrix (symmetric tridiagonal, positive off-diagonal) encodes a
three-term recurrence and a discrete spectral measure.  The classical Hermite
and Laguerre families enter through explicit finite Jacobi matrices whose
spectra are the polynomial zeros; their *duals* (index-reversed matrices)
carry the orthogonal systems used by the fluctuation statistics.

Two eigenvalue kernels serve two kinds of caller.  One matrix at a time
(:func:`eigen_tridiag`, and through it the classical zeros) goes through a
pure-Python implicit QL iteration, so the exact side of the library computes
its zeros without loading numpy, and they depend on no numpy or LAPACK build.
Batches of many matrices (:func:`eigen_tridiag_batch`, the Monte Carlo
samplers) go through LAPACK's ``eigvalsh``, and ``eigh`` serves where
spectral measures need the eigenvectors.  A batch of two or more chunks is
split over the usable cores, with one chunk buffer of working memory per
worker, and its output is bit-identical for any core count: each matrix meets
the same LAPACK call on any thread; it is bit-reproducible under one
numpy/LAPACK build, like the samplers.  Both kernels are backward stable, to
a small multiple of n * eps * (matrix norm); the tests certify each classical
Hermite and Laguerre zero within 1e-14 * max|z| of the exact zero by exact
signs of the exact characteristic polynomial.  The classical zeros are cached
per (n, alpha) and their types, as immutable root tuples, so that a cached
``1`` never answers for ``True``.

Linear statistics of a polynomial of degree k need no spectrum, only the
power sums ``tr(J^k)``; :func:`_power_traces_batch` forms them for a batch
from banded products of the matrix entries, with no LAPACK call, so its
output depends on no LAPACK build.
"""

from __future__ import annotations

import functools
import math
import os

from .elemsym import RootTuple, _Value, _numbers
from .errors import DimensionMismatch, InvalidParameter, NoConvergence, check_int, check_real, np

__all__ = [
    "JacobiMatrix",
    "SpectralMeasure",
    "OrthogonalSystem",
    "hermite_jacobi",
    "laguerre_jacobi",
    "laguerre_freezing_matrix",
    "dual",
    "eigen_tridiag",
    "hermite_zeros",
    "laguerre_zeros",
    "spectral_measure",
    "christoffel_darboux_weights",
    "dual_spectral_weights_cd",
    "dual_hermite_system",
    "dual_laguerre_system",
    "primitive",
    "scaled_primitive",
]

# Float64 elements of one chunk of a batch kernel's working memory (1 MB): dense
# matrices in eigen_tridiag_batch, banded powers in _power_traces_batch.  An
# eigenvalue batch of two or more chunks is split over the usable cores, with
# one chunk buffer per worker; its output is bit-identical for any core count.
_CHUNK_ELEMS = 1 << 17


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
        if not isinstance(atoms, RootTuple):
            raise InvalidParameter(f"atoms must be a RootTuple (got {type(atoms).__name__})")
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


def laguerre_freezing_matrix(n: int, alpha: float) -> JacobiMatrix:
    """Deterministic freezing limit of the Laguerre matrix model, as B B^T.

    B is the lower bidiagonal matrix with diagonal
    ``(sqrt(alpha+n-1), ..., sqrt(alpha))`` and subdiagonal
    ``(sqrt(n-1), ..., 1)``.  The product is tridiagonal with the same
    spectrum as :func:`laguerre_jacobi` (the Laguerre zeros).
    """
    check_int("n", n, 1)
    check_real("alpha", alpha, 0.0)
    bdiag = [math.sqrt(alpha + n - 1.0 - i) for i in range(n)]
    bsub = [math.sqrt(n - 1.0 - i) for i in range(n - 1)]
    diag = tuple(
        bdiag[i] ** 2 + (bsub[i - 1] ** 2 if i > 0 else 0.0) for i in range(n)
    )
    off = tuple(bsub[i] * bdiag[i] for i in range(n - 1))
    return JacobiMatrix(diag, off)


def dual(j: JacobiMatrix) -> JacobiMatrix:
    """Index-reversed Jacobi matrix (both sequences reversed)."""
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

    ``diag`` is (M, n), ``offdiag`` is (M, n-1).  LAPACK's ``eigvalsh`` runs
    on dense copies built in chunks of about ``_CHUNK_ELEMS`` floats.  A batch
    of two or more chunks is cut into contiguous ranges of whole chunks, one
    per usable core (at most one per chunk): the calling thread runs the
    first and threads that live only for this call run the others, since
    ``eigvalsh`` releases the GIL.  Each matrix goes through the same LAPACK
    call on the same data whichever thread runs it, so the output is bit-
    identical for any core count, and the working memory is one chunk buffer
    per worker whatever M is.  Being backward stable, each eigenvalue is
    within a small multiple of n * eps * (matrix norm) of exact.
    Bit-reproducible under one numpy/LAPACK build (the CLI metadata records
    numpy's version and the LAPACK build).  This kernel serves the Monte
    Carlo batches; one matrix at a time goes through :func:`eigen_tridiag`.
    """
    diag, offdiag = _as_batch(diag, offdiag, "tridiagonal eigenvalues")
    m, n = diag.shape
    if n == 1:
        return diag.copy()
    step = max(1, _CHUNK_ELEMS // (n * n))
    chunks = -(-m // step)
    workers = max(1, min(_usable_cores(), chunks))  # one for an empty batch
    out = np.empty((m, n))
    cuts = [min(m, step * (chunks * w // workers)) for w in range(workers + 1)]
    # the buffers come from the calling thread: a worker's own allocations go
    # to a per-thread malloc arena and raise the peak resident set
    ranges = [
        (diag[s:t], offdiag[s:t], out[s:t], np.zeros((min(t - s, step), n, n)), step)
        for s, t in zip(cuts, cuts[1:])
    ]
    if workers == 1:
        _eigvalsh_chunks(*ranges[0])
        return out
    # importing concurrent.futures costs several ms, which one-chunk callers
    # would pay at start-up
    from concurrent.futures import ThreadPoolExecutor

    # leaving the block joins every worker, also when a range raises
    with ThreadPoolExecutor(workers - 1) as pool:
        rest = [pool.submit(_eigvalsh_chunks, *r) for r in ranges[1:]]
        _eigvalsh_chunks(*ranges[0])
        for f in rest:
            f.result()
    return out


def _usable_cores() -> int:
    """Cores this process may run on: its CPU affinity where the platform
    reports one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _eigvalsh_chunks(diag, offdiag, out, dense, step):
    """Write the eigenvalues of the lanes of ``diag`` and ``offdiag`` into
    ``out``, ``step`` lanes per ``eigvalsh`` call through the zeroed dense
    buffer ``dense`` ((at least min(M, step), n, n)).  Calls no public
    function of the library, so it may run on any thread."""
    m, n = diag.shape
    # eigvalsh reads only the lower triangle, so the buffer's upper part
    # stays zero and only the two written diagonals change between chunks
    i = np.arange(n)
    for s in range(0, m, step):
        t = dense[: min(step, m - s)]
        t[:, i, i] = diag[s : s + step]
        t[:, i[1:], i[:-1]] = offdiag[s : s + step]
        try:
            out[s : s + step] = np.linalg.eigvalsh(t, UPLO="L")
        except np.linalg.LinAlgError as exc:  # LAPACK did not converge
            raise NoConvergence(f"tridiagonal eigenvalues: {exc}") from exc


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
    nothing to the sum of its two diagonal neighbours splits the block.
    The matrix is first scaled by a power of two to norm about 1, which is
    exact and keeps every shift and rotation in the float range at any
    entry size.  Backward stable like LAPACK's ``eigvalsh``, within a small
    multiple of n * eps * (matrix norm) of exact, and with no numpy or
    LAPACK call, so the result depends on no numpy build.  Each eigenvalue
    gets at most 30 sweeps, as in LAPACK; past that :class:`NoConvergence`
    is raised.  This kernel serves single matrices (the classical zeros);
    batches go through :func:`eigen_tridiag_batch`.
    """
    n = j.n
    if n == 1:
        return RootTuple(j.diag)
    k = math.frexp(max(max(map(abs, j.diag)), max(j.offdiag)))[1]
    d = [math.ldexp(a, -k) for a in j.diag]
    e = [math.ldexp(b, -k) for b in j.offdiag] + [0.0]
    hypot, copysign = math.hypot, math.copysign
    for lo in range(n):
        sweeps = 0
        while True:
            m = lo  # the unreduced block is lo..m
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
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
            r = hypot(g, 1.0)
            g = d[m] - d[lo] + e[lo] / (g + copysign(r, g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, lo - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = hypot(f, g)
                e[i + 1] = r
                if r == 0.0:  # the block splits at i + 1: sweep again
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            else:
                d[lo] -= p
                e[lo] = g
                e[m] = 0.0
    return RootTuple(tuple(sorted(math.ldexp(a, k) for a in d)))


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
    vals, vecs = np.linalg.eigh(j.dense())
    return SpectralMeasure(RootTuple(tuple(vals)), tuple(vecs[0] ** 2))


def _cd_values(j: JacobiMatrix, atoms: RootTuple | None):
    """Orthonormal ``(ptilde_(n-1), ptilde_n')`` at the atoms (default: the
    spectrum of j), with the ``b_n := 1`` bookkeeping for the last step.

    For n = 1 both are exactly 1, so both weight formulas give weight 1.
    """
    if atoms is None:
        atoms = eigen_tridiag(j)
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
    return p_prev, d_cur


def christoffel_darboux_weights(j: JacobiMatrix, atoms: RootTuple | None = None) -> np.ndarray:
    """Spectral weights via the Christoffel-Darboux form
    ``w_i = h_(n-1) / (p_(n-1)(lambda_i) p_n'(lambda_i))``.

    Evaluated through the orthonormal recurrence (with the ``b_n := 1``
    bookkeeping for the last step), where the formula reads
    ``w_i = 1 / (ptilde_(n-1)(lambda_i) ptilde_n'(lambda_i))``; monic values
    grow like ``lambda^n`` and would lose the small weights to cancellation.
    """
    p, dp = _cd_values(j, atoms)
    return 1.0 / (p * dp)


def dual_spectral_weights_cd(j: JacobiMatrix, atoms: RootTuple | None = None) -> np.ndarray:
    """Weights of the spectral measure of ``dual(j)`` via the
    Christoffel-Darboux route ``w*_i = p_(n-1)(lambda_i) / p_n'(lambda_i)``.

    Expressed in the *primal* matrix's polynomials, whose roots interlace the
    spectrum with healthy gaps; applying the plain weight formula to the dual
    matrix itself is exponentially ill-conditioned at spectrum edges carrying
    small primal weights.  Evaluated through the orthonormal recurrence
    (``w*_i = ptilde_(n-1) / ptilde_n'`` with the ``b_n := 1`` bookkeeping).
    """
    p, dp = _cd_values(j, atoms)
    return p / dp


class OrthogonalSystem(_Value):
    """Monic orthogonal polynomials of a Jacobi matrix, with squared norms.

    ``source`` drives the three-term recurrence
    ``q_(m+1) = (x - a_(m+1)) q_m - b_m^2 q_(m-1)``; ``squared_norms`` holds
    ``h_m = b_1^2 ... b_m^2`` (``h_0 = 1``), which equal the squared norms
    under the source's spectral measure.
    """

    _compared = _shown = ("source", "squared_norms")

    def __init__(self, source, squared_norms):
        if not isinstance(source, JacobiMatrix):
            raise InvalidParameter(f"source must be a JacobiMatrix (got {type(source).__name__})")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "squared_norms", _numbers("squared_norms", squared_norms))

    @classmethod
    def from_jacobi(cls, j: JacobiMatrix) -> "OrthogonalSystem":
        h = [1.0]
        for b in j.offdiag:
            h.append(h[-1] * b * b)
        return cls(j, tuple(h))

    @property
    def n(self) -> int:
        return self.source.n

    def value(self, m: int, x):
        """q_m evaluated at x (scalar or array) by the recurrence."""
        self._check_index(m)
        a = self.source.diag
        b = self.source.offdiag
        xv = np.asarray(x, dtype=float)
        prev = np.zeros_like(xv)
        cur = np.ones_like(xv)
        for i in range(m):
            nxt = (xv - a[i]) * cur - ((b[i - 1] ** 2) * prev if i >= 1 else 0.0)
            prev, cur = cur, nxt
        return cur if cur.shape else float(cur)

    def orthonormal_value(self, m: int, x):
        return self.value(m, x) / math.sqrt(self.squared_norms[m])

    def coefficients(self, m: int) -> np.ndarray:
        """Dense coefficients of q_m in ascending powers."""
        self._check_index(m)
        a = self.source.diag
        b = self.source.offdiag
        prev = np.zeros(1)
        cur = np.ones(1)
        for i in range(m):
            nxt = np.zeros(i + 2)
            nxt[1:] += cur
            nxt[: i + 1] -= a[i] * cur
            if i >= 1:
                nxt[:i] -= (b[i - 1] ** 2) * prev
            prev, cur = cur, nxt
        return cur

    def _check_index(self, m: int):
        check_int("m", m, 0)
        if m > self.n - 1:
            raise InvalidParameter(f"polynomial order {m} out of range 0..{self.n - 1}")


def dual_hermite_system(n: int) -> OrthogonalSystem:
    """Duals of the first n Hermite polynomials.

    Recurrence ``q_(m+1) = x q_m - (n - m) q_(m-1)``; orthogonal under the
    uniform measure on the Hermite zeros, with squared norms
    ``prod_(i=1..m) (n - i)``.
    """
    return OrthogonalSystem.from_jacobi(dual(hermite_jacobi(n)))


def dual_laguerre_system(n: int, alpha: float) -> OrthogonalSystem:
    """Duals of the first n Laguerre polynomials (parameter alpha).

    Orthogonal under the zero-weighted measure with weights
    ``z_i / (n (alpha + n - 1))`` on the Laguerre zeros.
    """
    return OrthogonalSystem.from_jacobi(dual(laguerre_jacobi(n, alpha)))


def primitive(sys: OrthogonalSystem, m: int) -> np.ndarray:
    """Antiderivative of the monic q_m with zero constant term, as ascending
    coefficients."""
    return _antiderivative(sys.coefficients(m))


def _antiderivative(coeffs) -> np.ndarray:
    """Antiderivative with zero constant term, ascending coefficients."""
    c = np.asarray(coeffs, dtype=float)
    out = np.zeros(len(c) + 1)
    out[1:] = c / np.arange(1, len(c) + 1)
    return out


def scaled_primitive(sys: OrthogonalSystem, m: int, t: float, x):
    """Time-scaled primitive ``t^((m+1)/2) Q_m(x / sqrt(t))``, for 0 < t < inf."""
    check_real("t", t, 0.0)
    q = primitive(sys, m)
    xv = np.asarray(x, dtype=float) / math.sqrt(t)
    val = t ** ((m + 1) / 2.0) * np.polynomial.polynomial.polyval(xv, q)
    return val if np.ndim(x) else float(val)

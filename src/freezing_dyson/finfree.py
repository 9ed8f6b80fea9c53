"""Finite free convolution, classical zero sets, and the Markov-Krein lift.

The convolution of two N-tuples is defined coefficient-wise on elementary
symmetric values and preserves real-rootedness.  One exact integer kernel
computes it for :func:`boxplus`, :func:`convolve_esp` and the deterministic
limits (:mod:`freezing_dyson.dynamics`), and its results are exact
:class:`~freezing_dyson.elemsym.MonicPolynomial` values, solved by
:func:`~freezing_dyson.elemsym.roots_of_monic`.  The Markov-Krein lift
trades an N-tuple of reals for an N-tuple of complex numbers whose moment
sequence reproduces the signed elementary symmetric coefficients.
"""

from __future__ import annotations

import math

from .elemsym import (
    MonicPolynomial,
    RootTuple,
    _Value,
    _exact_esp,
    _numbers,
    _rounded,
    _scaled_ints,
    elementary_symmetric,
    newton_esp_from_power_sums,
    roots_of_monic,
)
from .errors import (
    DimensionMismatch,
    InvalidParameter,
    NonFiniteOutput,
    NotRealRooted,
    check_int,
    check_real,
    np,
)
from .orthopoly import hermite_zeros, laguerre_zeros

__all__ = [
    "MKLift",
    "boxplus",
    "convolve_esp",
    "hermite_roots",
    "laguerre_roots",
    "markov_krein_lift",
    "markov_krein_project",
]


def _convolve_ints(a, b) -> list:
    """``e_k(c) = sum_{i+j=k} (n-i)!(n-j)! / (n!(n-k)!) e_i(a) e_j(b)`` on
    integer vectors over their entry 0: the weight is the integer
    ``(n-i)!(n-j)! n!/(n-k)!`` over ``n!^2``, so the result is an integer
    vector over its entry ``n!^2 a_0 b_0``.  When both vectors are even (odd
    entries 0, as for tuples symmetric about 0), so is the result, and only
    its even entries are summed."""
    n = len(a) - 1
    f = [math.factorial(i) for i in range(n + 1)]
    fa = [f[n - i] * c for i, c in enumerate(a)]
    fb = [f[n - j] * c for j, c in enumerate(b)]
    step = 1 if any(a[1::2]) or any(b[1::2]) else 2
    out = [0] * (n + 1)
    for k in range(0, n + 1, step):
        out[k] = f[n] // f[n - k] * sum(fa[i] * fb[k - i] for i in range(0, k + 1, step))
    return out


def _esp_ints(name: str, e) -> list:
    """Float coefficients ``(1, e_1, ..., e_n)`` as integers over entry 0."""
    e = [float(c) for c in e]
    if e[:1] != [1.0]:
        raise InvalidParameter(f"{name} must start with exactly 1 (got {e[:1]})")
    for k, c in enumerate(e):
        if not math.isfinite(c):
            raise InvalidParameter(f"{name}[{k}] must be finite (got {c!r})")
    return _scaled_ints(e)


def convolve_esp(ea: np.ndarray, eb: np.ndarray) -> np.ndarray:
    """Elementary symmetric coefficients of the finite free convolution of
    two float vectors ``(1, e_1, ..., e_n)``: the kernel runs on their dyadic
    values, so each output is the float nearest the exact one, whatever the
    argument order.  Non-finite entries or an entry 0 other than 1 raise
    :class:`InvalidParameter`; an output past the float range raises
    :class:`NonFiniteOutput` naming its index."""
    a, b = _esp_ints("ea", ea), _esp_ints("eb", eb)
    if len(a) != len(b):
        raise DimensionMismatch("coefficient sequences must share a degree")
    c = _convolve_ints(a, b)
    out = np.array([_rounded(v, c[0]) for v in c])
    for k, v in enumerate(out):
        if not math.isfinite(v):
            raise NonFiniteOutput(f"convolved coefficient [{k}] is past the float range")
    return out


def boxplus(a: RootTuple, b: RootTuple) -> RootTuple:
    """Finite free convolution of two N-tuples, sorted ascending.

    Elementary symmetric values, convolution and root solve all run on exact
    integers, so each root is the float nearest an exact root of the
    convolution of the given floats, ties to even: the operation commutes,
    the zero tuple is an exact identity, and ``(s, ..., s)`` adds s to each
    root as float addition does.  ``boxplus(hermite_roots(N, 1), same)`` is
    within 1e-15 relative of ``hermite_roots(N, 2)`` for N <= 40, the error
    of the computed zeros; the cost grows faster with N than on floats.
    """
    if a.n != b.n:
        raise DimensionMismatch(f"tuple sizes differ: {a.n} vs {b.n}")
    ec = _convolve_ints(_exact_esp(a.roots), _exact_esp(b.roots))
    return roots_of_monic(MonicPolynomial.from_integers(ec))


def hermite_roots(n: int, t: float) -> RootTuple:
    """``sqrt(t)`` times the zeros of the degree-n probabilist Hermite polynomial.

    Zeros come from the Jacobi matrix spectrum (the coefficient formula
    overflows for large n), symmetrized exactly about zero by
    :func:`~freezing_dyson.orthopoly.hermite_zeros`.
    """
    check_int("n", n, 1)
    check_real("t", t, 0.0, inclusive=True)
    scale = math.sqrt(t)
    return RootTuple(tuple(scale * a for a in hermite_zeros(n).roots))


def laguerre_roots(n: int, alpha: float, t: float) -> RootTuple:
    """``t`` times the zeros of the degree-n monic Laguerre polynomial."""
    check_real("t", t, 0.0, inclusive=True)
    return RootTuple(tuple(t * a for a in laguerre_zeros(n, alpha).roots))


class MKLift(_Value):
    """Complex N-tuple s with ``binom(N,k) mean(s^k) = e_k(a)`` for the source a.

    The labeling of the s_i is not canonical; the tuple is stored sorted by
    (real, imaginary) parts purely for determinism and is treated as a
    multiset.
    """

    _compared = _shown = ("s", "n")

    def __init__(self, s, n):
        check_int("n", n, 1)
        s = _numbers("lift", s, complex)
        if len(s) != n:
            raise InvalidParameter("lift needs exactly n entries")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "n", n)

    def power_sums(self) -> np.ndarray:
        sv = np.asarray(self.s)
        return np.array([np.sum(sv**k) for k in range(1, self.n + 1)])


def markov_krein_lift(a: RootTuple) -> MKLift:
    """Complex tuple s with ``(1/N) sum_i (z - s_i)^N = prod_i (z - a_i)``.

    Solves ``binom(N,k) mean(s^k) = e_k(a)`` for the power sums of s, converts
    to elementary symmetric values by Newton's identities, then takes the
    complex roots as companion-matrix eigenvalues (``np.roots``).
    """
    n = a.n
    e = elementary_symmetric(a)
    psums = np.array([n * e[k] / math.comb(n, k) for k in range(1, n + 1)])
    es = newton_esp_from_power_sums(psums, n)
    coeffs = [(-1.0) ** k * es[k] for k in range(n + 1)]
    roots = np.roots(coeffs).astype(complex)
    order = np.lexsort((roots.imag, roots.real))
    return MKLift(tuple(roots[order]), n)


def markov_krein_project(lift: MKLift) -> RootTuple:
    """Inverse of the lift: rebuild ``e_k = binom(N,k) mean(s^k)`` and solve.

    Imaginary residues below ``1e-8`` (relative to the coefficient scale) are
    dropped; anything larger, or a non-real-rooted reconstruction, raises
    :class:`NotRealRooted`.
    """
    n = lift.n
    psums = lift.power_sums()
    e = np.empty(n + 1, dtype=complex)
    e[0] = 1.0
    for k in range(1, n + 1):
        e[k] = math.comb(n, k) * psums[k - 1] / n
    scale = max(1.0, float(np.max(np.abs(e))))
    if float(np.max(np.abs(e.imag))) > 1e-8 * scale:
        raise NotRealRooted("reconstructed coefficients are not real within 1e-8")
    return roots_of_monic(MonicPolynomial(tuple(e.real)))

"""Deterministic freezing-limit dynamics.

In elementary symmetric coordinates the limiting particle systems obey
lower-triangular linear ODEs whose solutions are exact polynomials in time,
so the trajectories are built by iterated term-by-term integration; no
numerical ODE stepper appears anywhere.  Two independent routes to the limit
positions exist: evaluating the polynomial system and recovering roots, or a
closed form through finite free convolution with classical polynomial zeros.
Their agreement is one of the central correctness checks of the library.
"""

from dataclasses import dataclass

import numpy as np

from .elemsym import (
    MonicPolynomial,
    RootTuple,
    elementary_symmetric,
    esp_rows,
    roots_of_monic,
)
from .errors import InvalidParameter, check_int, check_real
from .finfree import boxplus, convolve_esp, hermite_roots, laguerre_roots
from .orthopoly import _antiderivative

__all__ = [
    "GkTrajectory",
    "MomentSequence",
    "gaussian_gk",
    "laguerre_gk",
    "limit_roots",
    "gaussian_limit_closed",
    "laguerre_limit_closed",
    "moment_sequence",
]


@dataclass(frozen=True)
class GkTrajectory:
    """Exact polynomial trajectories of the elementary symmetric coordinates.

    ``coeff_polys[k]`` holds the ascending t-coefficients of ``g_k(t)``,
    k = 0..N.  ``g_0`` is identically 1 and ``g_k(0) = e_k(initial)``.
    """

    coeff_polys: tuple

    @property
    def n(self) -> int:
        return len(self.coeff_polys) - 1

    def value(self, k: int, t: float) -> float:
        """``g_k(t)`` for k = 0..N."""
        check_int("k", k, 0)
        if k > self.n:
            raise InvalidParameter(f"k must be <= N = {self.n} (got {k!r})")
        return _horner(self.coeff_polys[k], t)

    def coefficients_at(self, t: float) -> np.ndarray:
        """The signed elementary symmetric vector ``(g_0(t), ..., g_N(t))``."""
        return np.array([_horner(poly, t) for poly in self.coeff_polys])


def _horner(coeffs, t: float) -> float:
    """Ascending coefficients evaluated at t in Python floats, in the order
    ``np.polynomial.polynomial.polyval`` uses, so bit for bit the same."""
    t, acc = float(t), 0.0
    for c in reversed(coeffs):
        acc = float(c) + acc * t
    return acc


def gaussian_gk(initial: RootTuple) -> GkTrajectory:
    """Trajectories of the freezing Dyson system:
    ``g_k' = -(N-k+1)(N-k+2)/2 g_(k-2)`` with ``g_1' = 0``."""
    n = initial.n
    e = elementary_symmetric(initial)
    polys = [np.array([1.0]), np.array([e[1]])]
    for k in range(2, n + 1):
        rate = (n - k + 1) * (n - k + 2) / 2.0
        integ = _antiderivative(polys[k - 2])
        poly = -rate * integ
        poly[0] = e[k]
        polys.append(poly)
    return GkTrajectory(tuple(tuple(p) for p in polys[: n + 1]))


def laguerre_gk(initial: RootTuple, alpha: float) -> GkTrajectory:
    """Trajectories of the freezing Laguerre system:
    ``g_k' = (N-k+1)(N-k+alpha) g_(k-1)``."""
    check_real("alpha", alpha, 0.0)
    if initial.roots[0] < 0.0:
        raise InvalidParameter("Laguerre initial data must be nonnegative")
    n = initial.n
    e = elementary_symmetric(initial)
    polys = [np.array([1.0])]
    for k in range(1, n + 1):
        rate = (n - k + 1) * (n - k + alpha)
        poly = rate * _antiderivative(polys[k - 1])
        poly[0] = e[k]
        polys.append(poly)
    return GkTrajectory(tuple(tuple(p) for p in polys))


def limit_roots(traj: GkTrajectory, t: float) -> RootTuple:
    """Ordered limit positions at time t: the roots of the polynomial whose
    signed elementary symmetric coefficients are ``g_k(t)``, found by
    :func:`roots_of_monic` (each the float nearest the exact root of those
    float coefficients)."""
    check_real("time", t, 0.0, inclusive=True)
    return roots_of_monic(MonicPolynomial(tuple(traj.coefficients_at(t))))


def gaussian_limit_closed(initial: RootTuple, t: float) -> RootTuple:
    """Closed form of the freezing Dyson limit: the finite free convolution of
    the initial tuple with sqrt(t)-scaled Hermite zeros.  Must agree with the
    polynomial-ODE route."""
    check_real("time", t, 0.0, inclusive=True)
    return boxplus(initial, hermite_roots(initial.n, t))


def _even_esp(squares: np.ndarray) -> np.ndarray:
    """Signed elementary symmetric coefficients of the symmetric tuple
    ``(+-sqrt(s_i))``, built from its squares ``s`` without a square root:
    ``e_(2m) = (-1)^m e_m(s)``, and every odd entry is exactly 0."""
    e = esp_rows(squares[None, :])[0]
    out = np.zeros(2 * len(e) - 1)
    out[::2] = e * (-1.0) ** np.arange(len(e))
    return out


def laguerre_limit_closed(initial: RootTuple, alpha: float, t: float) -> RootTuple:
    """Closed form of the freezing Laguerre limit for ``alpha > N - 1/2``.

    The paper's recipe: lift the initial tuple to the symmetric 2N-tuple
    ``(+-sqrt(2 a_i))``, run the size-2N Gaussian closed form, halve the
    squared top half, and convolve with ``t``-scaled Laguerre zeros of
    parameter ``alpha - N + 1/2``.  Must agree with the polynomial-ODE route.

    Every step but the last stays in elementary symmetric coordinates, where
    the lift and the size-2N Hermite zeros are even polynomials built from
    their squares (:func:`_even_esp`).  Both are taken 1/sqrt(2) times the
    recipe's, with squares ``a_i`` and ``h_j^2 / 2``, so that their
    convolution, which is even too, has roots ``y / sqrt(2)`` and the halved
    squares ``y^2 / 2`` are plain squares.  If its coefficients are ``c``
    these have ``e_m = (-1)^m c_(2m)``, a sign change only.  So the route
    makes one degree-N root solve and none at degree 2N, and at t = 0 its
    coefficients are those of the initial data bit for bit, subnormal
    entries included.
    """
    n = initial.n
    check_real("alpha", alpha, 0.0)
    if alpha <= n - 0.5:
        raise InvalidParameter(
            f"closed form needs alpha > N - 1/2 (got alpha={alpha}, N={n}); "
            "the ODE route has no such restriction"
        )
    if initial.roots[0] < 0.0:
        raise InvalidParameter("Laguerre initial data must be nonnegative")
    check_real("time", t, 0.0, inclusive=True)
    lift = _even_esp(initial.as_array())
    herm = _even_esp(hermite_roots(2 * n, t).as_array()[n:] ** 2 / 2.0)
    half = convolve_esp(lift, herm)[::2] * (-1.0) ** np.arange(n + 1)
    lag = elementary_symmetric(laguerre_roots(n, alpha - n + 0.5, t))
    return roots_of_monic(MonicPolynomial(tuple(convolve_esp(half, lag))))


@dataclass(frozen=True)
class MomentSequence:
    """Scale-free moments ``u_0..u_max`` of the zero-start freezing limit;
    the time-t moments are ``m_k(t) = u_k t^(k/2)``."""

    u: tuple
    n: int

    def __post_init__(self):
        object.__setattr__(self, "u", tuple(float(v) for v in self.u))

    def moment_at(self, k: int, t: float) -> float:
        """``m_k(t)`` for k = 0..max_order."""
        check_int("k", k, 0)
        if k >= len(self.u):
            raise InvalidParameter(f"k must be <= max_order = {len(self.u) - 1} (got {k!r})")
        return self.u[k] * t ** (k / 2.0)


def moment_sequence(n_sys: int, max_order: int) -> MomentSequence:
    """The self-convolutive recurrence
    ``u_(2m) = -(2m-1) u_(2m-2) + N sum_(j<m) u_(2j) u_(2m-2-2j)``,
    odd entries zero.  ``u_k`` equals the k-th moment of the uniform measure
    on the degree-N Hermite zeros."""
    check_int("n_sys", n_sys, 1)
    check_int("max_order", max_order, 0)
    if max_order > 60:
        raise InvalidParameter("max_order must lie in 0..60 (growth control)")
    u = [0.0] * (max_order + 1)
    u[0] = 1.0
    for m in range(1, max_order // 2 + 1):
        acc = -(2 * m - 1) * u[2 * m - 2]
        for j in range(0, m):
            acc += n_sys * u[2 * j] * u[2 * m - 2 - 2 * j]
        u[2 * m] = acc
    return MomentSequence(tuple(u), n_sys)

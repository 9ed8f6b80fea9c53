"""Deterministic freezing-limit dynamics.

In elementary symmetric coordinates the limiting particle systems obey
lower-triangular linear ODEs whose solutions are exact polynomials in time,
so the trajectories are built by iterated term-by-term integration; no
numerical ODE stepper appears anywhere.  Two independent routes to the limit
positions exist: evaluating the polynomial system and recovering roots, or a
closed form through finite free convolution with classical polynomials.
Their agreement is one of the central correctness checks of the library.

Both routes run in exact arithmetic on Python ints.  Float inputs are dyadic
rationals and every weight is rational, so the start's elementary symmetric
values, the g_k(t) polynomials and the classical coefficients (Hermite and
Laguerre, from their explicit formulas rather than from computed zeros) are
exact, and the two routes give equal coefficient vectors: the polynomial-ODE
solution is the finite free convolution (Marcus, Spielman & Srivastava,
Probab. Theory Relat. Fields, 2022).  Each route yields an exact
:class:`~freezing_dyson.elemsym.MonicPolynomial` at time t
(:meth:`GkTrajectory.polynomial_at`, :func:`gaussian_closed_polynomial`,
:func:`laguerre_closed_polynomial`), so the two compare with ``==``, and
:func:`~freezing_dyson.elemsym.roots_of_monic` recovers the roots once, each
the float nearest an exact root.
"""

from __future__ import annotations

import math
import operator

from .elemsym import (
    MonicPolynomial,
    RootTuple,
    _Value,
    _exact_esp,
    _numbers,
    _rounded,
    _scaled_value,
    roots_of_monic,
)
from .errors import InvalidParameter, check_int, check_real, np
from .finfree import _convolve_ints

__all__ = [
    "GkTrajectory",
    "MomentSequence",
    "gaussian_gk",
    "laguerre_gk",
    "limit_roots",
    "gaussian_closed_polynomial",
    "gaussian_limit_closed",
    "laguerre_closed_polynomial",
    "laguerre_limit_closed",
    "moment_sequence",
]


class GkTrajectory(_Value):
    """Exact polynomial trajectories of the elementary symmetric coordinates.

    ``exact[k]`` holds the ascending t-coefficients of ``g_k(t)``, k = 0..N,
    as integers over ``exact[0][0] > 0``, the one coefficient of
    ``g_0 = 1``; ``g_k(0) = e_k(initial)``.  ``coeff_polys`` shows them
    correctly rounded, and :meth:`coefficients_at` rounds each g_k once
    from its exact value at the float t.
    """

    _compared = _shown = ("coeff_polys",)

    def __init__(self, exact):
        exact = _numbers("g_k", exact, lambda poly: _numbers("g_k", poly, operator.index))
        if len(exact) < 2 or not all(exact) or len(exact[0]) != 1 or exact[0][0] <= 0:
            raise InvalidParameter("g_k needs N >= 1 nonempty polynomials, g_0 a positive integer")
        object.__setattr__(self, "exact", exact)

    @property
    def coeff_polys(self) -> tuple:
        """The ascending t-coefficients of each g_k, correctly rounded."""
        den = self.exact[0][0]
        return tuple(tuple(_rounded(c, den) for c in poly) for poly in self.exact)

    @property
    def n(self) -> int:
        return len(self.exact) - 1

    def coefficients_at(self, t: float) -> np.ndarray:
        """The signed elementary symmetric vector ``(g_0(t), ..., g_N(t))``,
        each correctly rounded."""
        check_real("t", t, 0.0, inclusive=True)
        nums = self._scaled_at(t)
        return np.array([_rounded(c, nums[0]) for c in nums])

    def polynomial_at(self, t: float) -> MonicPolynomial:
        """The exact polynomial whose ``alpha_k`` is ``g_k(t)`` at the float t."""
        check_real("time", t, 0.0, inclusive=True)
        return MonicPolynomial.from_integers(self._scaled_at(t))

    def _scaled_at(self, t: float) -> list:
        """Each g_k at the float ``t = p / q`` as the integer ``q^D g_k(p / q)``
        over entry 0, ``q^D exact[0][0]``, D the largest degree."""
        p, q = float(t).as_integer_ratio()
        shift, top = q.bit_length() - 1, max(map(len, self.exact))
        return [_scaled_value(c[::-1], p, q) << (shift * (top - len(c))) for c in self.exact]


def gaussian_gk(initial: RootTuple) -> GkTrajectory:
    """Trajectories of the freezing Dyson system:
    ``g_k' = -(N-k+1)(N-k+2)/2 g_(k-2)`` with ``g_1' = 0``.

    The t^j coefficient of g_k has the denominator ``2^j j!`` over the
    start's, so over the common ``2^J J!`` (J = N // 2) each integration
    step is an exact integer division."""
    n = initial.n
    top = n // 2
    scale = math.factorial(top) << top
    polys = [[c * scale] for c in _exact_esp(initial.roots)]
    for k in range(2, n + 1):
        rate = (n - k + 1) * (n - k + 2)
        polys[k] += [-rate * c // (2 * j) for j, c in enumerate(polys[k - 2], 1)]
    return GkTrajectory(polys)


def laguerre_gk(initial: RootTuple, alpha: float) -> GkTrajectory:
    """Trajectories of the freezing Laguerre system:
    ``g_k' = (N-k+1)(N-k+alpha) g_(k-1)``.

    With ``alpha = a / q`` (q a power of two), the t^j coefficient of g_k has
    the denominator ``q^j j!`` over the start's, so over the common
    ``q^N N!`` each integration step is an exact integer division."""
    check_real("alpha", alpha, 0.0)
    if initial.roots[0] < 0.0:
        raise InvalidParameter("Laguerre initial data must be nonnegative")
    n = initial.n
    a, q = float(alpha).as_integer_ratio()
    scale = math.factorial(n) * q**n
    polys = [[c * scale] for c in _exact_esp(initial.roots)]
    for k in range(1, n + 1):
        rate = (n - k + 1) * ((n - k) * q + a)
        polys[k] += [rate * c // (q * j) for j, c in enumerate(polys[k - 1], 1)]
    return GkTrajectory(polys)


def limit_roots(traj: GkTrajectory, t: float) -> RootTuple:
    """Ordered limit positions at time t: the roots of the polynomial whose
    signed elementary symmetric coefficients are ``g_k(t)``, evaluated
    exactly at the float t; each root is the float nearest the exact one."""
    return roots_of_monic(traj.polynomial_at(t))


def _hermite_esp(n: int, p: int, q: int) -> list:
    """Exact elementary symmetric values of ``sqrt(p/q)`` times the degree-n
    Hermite zeros (q a power of two), as integers over entry 0:
    ``e_(2m) = (-1)^m n! (p/q)^m / (m! (n-2m)! 2^m)``, odd entries 0."""
    top = n // 2
    e = [0] * (n + 1)
    for m in range(top + 1):
        c = math.factorial(n) // (math.factorial(m) * math.factorial(n - 2 * m) << m)
        e[2 * m] = (-1) ** m * c * p**m * q ** (top - m)
    return e


def gaussian_closed_polynomial(initial: RootTuple, t: float) -> MonicPolynomial:
    """The exact polynomial of the freezing Dyson limit at t: the finite free
    convolution of the initial tuple with sqrt(t)-scaled Hermite zeros, the
    latter from their explicit coefficients.  Equal to
    ``gaussian_gk(initial).polynomial_at(t)``."""
    check_real("time", t, 0.0, inclusive=True)
    herm = _hermite_esp(initial.n, *float(t).as_integer_ratio())
    return MonicPolynomial.from_integers(_convolve_ints(_exact_esp(initial.roots), herm))


def gaussian_limit_closed(initial: RootTuple, t: float) -> RootTuple:
    """Closed form of the freezing Dyson limit: the roots of
    :func:`gaussian_closed_polynomial`.  Equal to the polynomial-ODE route."""
    return roots_of_monic(gaussian_closed_polynomial(initial, t))


def _even_lift(e) -> list:
    """Exact elementary symmetric values of the symmetric tuple
    ``(+-sqrt(s_i))`` from those of its squares ``s``:
    ``e_(2m) = (-1)^m e_m(s)``, and every odd entry is 0."""
    out = [0] * (2 * len(e) - 1)
    out[::2] = [-c if m % 2 else c for m, c in enumerate(e)]
    return out


def laguerre_closed_polynomial(initial: RootTuple, alpha: float, t: float) -> MonicPolynomial:
    """The exact polynomial of the freezing Laguerre limit at t, for
    ``alpha > N - 1/2``.

    The paper's recipe: lift the initial tuple to the symmetric 2N-tuple
    ``(+-sqrt(2 a_i))``, run the size-2N Gaussian closed form, halve the
    squared top half, and convolve with ``t``-scaled Laguerre zeros of
    parameter ``alpha - N + 1/2``.  Equal to
    ``laguerre_gk(initial, alpha).polynomial_at(t)``.

    Every step stays in exact elementary symmetric coordinates.  The lift and
    the size-2N Hermite polynomial are even, built from their squares
    (:func:`_even_lift`), each taken 1/sqrt(2) times the recipe's: squares
    ``a_i``, and the Hermite coefficients at ``t/2``.  Their convolution,
    even too, has roots ``y / sqrt(2)``, so the halved squares ``y^2 / 2``
    are plain squares, with ``e_m = (-1)^m c_(2m)`` for its coefficients c.
    The Laguerre coefficients come from their explicit formula.
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
    p, q = float(t).as_integer_ratio()
    # the lift of the start and the size-2N Hermite coefficients at t/2
    lift = _even_lift(_exact_esp(initial.roots))
    even = _convolve_ints(lift, _hermite_esp(2 * n, p, 2 * q))
    half = [-c if m % 2 else c for m, c in enumerate(even[::2])]
    # t-scaled Laguerre coefficients of parameter alpha' = a / d, exactly
    # alpha - N + 1/2: e_k = C(N, k) prod_(j=N-k+1..N) (alpha' - 1 + j) t^k
    num, den = float(alpha).as_integer_ratio()
    a, d = 2 * num - (2 * n - 1) * den, 2 * den
    lag, prod = [], 1
    for k in range(n + 1):
        lag.append(math.comb(n, k) * prod * p**k * (d * q) ** (n - k))
        prod *= a + (n - k - 1) * d
    return MonicPolynomial.from_integers(_convolve_ints(half, lag))


def laguerre_limit_closed(initial: RootTuple, alpha: float, t: float) -> RootTuple:
    """Closed form of the freezing Laguerre limit for ``alpha > N - 1/2``:
    the roots of :func:`laguerre_closed_polynomial`, recovered once, at
    degree N.  Equal to the polynomial-ODE route."""
    return roots_of_monic(laguerre_closed_polynomial(initial, alpha, t))


class MomentSequence(_Value):
    """Scale-free moments ``u_0..u_max`` of the zero-start freezing limit;
    the time-t moments are ``m_k(t) = u_k t^(k/2)``."""

    _compared = _shown = ("u", "n")

    def __init__(self, u, n):
        check_int("n", n, 1)
        object.__setattr__(self, "u", _numbers("u", u))
        object.__setattr__(self, "n", n)


def moment_sequence(n_sys: int, max_order: int) -> MomentSequence:
    """The self-convolutive recurrence
    ``u_(2m) = -(2m-1) u_(2m-2) + N sum_(j<m) u_(2j) u_(2m-2-2j)``,
    odd entries zero, run on integers: each ``u_k`` is correctly rounded, or
    infinite past the float range.  ``u_k`` equals the k-th moment of the
    uniform measure on the degree-N Hermite zeros."""
    check_int("n_sys", n_sys, 1)
    check_int("max_order", max_order, 0)
    if max_order > 60:
        raise InvalidParameter("max_order must lie in 0..60 (growth control)")
    n_sys = int(n_sys)
    u = [1] + [0] * max_order
    for m in range(1, max_order // 2 + 1):
        acc = sum(u[2 * j] * u[2 * m - 2 - 2 * j] for j in range(m))
        u[2 * m] = n_sys * acc - (2 * m - 1) * u[2 * m - 2]
    return MomentSequence(tuple(_rounded(c, 1) for c in u), n_sys)

"""Elementary symmetric polynomial algebra and real-rooted polynomial solving.

Ordered tuples of real roots are the common currency of the whole library:
ensembles, polynomial zeros and deterministic limits all live in
:class:`RootTuple`.  Monic polynomials are stored through their signed
elementary symmetric coefficients (:class:`MonicPolynomial`), which is the
coordinate system in which the convolution and the limit dynamics are linear.
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidParameter, NotRealRooted

__all__ = [
    "RootTuple",
    "MonicPolynomial",
    "elementary_symmetric",
    "partial_esp",
    "roots_of_monic",
    "newton_esp_from_power_sums",
]


def esp_rows(rows: np.ndarray) -> np.ndarray:
    """Row-wise elementary symmetric values of an ``(M, n)`` array -> ``(M, n+1)``.

    Uses the stable incremental product recurrence (multiplying out
    ``prod_i (1 + x_i s)`` coefficient by coefficient), never subset
    enumeration.
    """
    rows = np.asarray(rows, dtype=float)
    m, n = rows.shape
    e = np.zeros((m, n + 1))
    e[:, 0] = 1.0
    for i in range(n):
        e[:, 1:] = e[:, 1:] + rows[:, i, None] * e[:, :-1]
    return e


@dataclass(frozen=True)
class RootTuple:
    """An ordered tuple of N real numbers, sorted ascending (ties allowed)."""

    roots: tuple

    def __post_init__(self):
        roots = tuple(float(r) for r in self.roots)
        if len(roots) < 1:
            raise InvalidParameter("a root tuple needs at least one entry")
        if not all(math.isfinite(r) for r in roots):
            raise InvalidParameter("root tuple entries must be finite")
        if any(a > b for a, b in zip(roots, roots[1:])):
            raise InvalidParameter("root tuple entries must be sorted ascending")
        object.__setattr__(self, "roots", roots)

    @classmethod
    def from_values(cls, values) -> "RootTuple":
        """Build from an arbitrary iterable, sorting ascending."""
        return cls(tuple(sorted(float(v) for v in values)))

    @property
    def n(self) -> int:
        return len(self.roots)

    def as_array(self) -> np.ndarray:
        return np.array(self.roots, dtype=float)

    def shifted(self, offset: float) -> "RootTuple":
        return RootTuple(tuple(r + offset for r in self.roots))


@dataclass(frozen=True)
class MonicPolynomial:
    """Monic degree-N polynomial ``sum_k (-1)^k alpha_k x^(N-k)``.

    ``alpha`` holds the signed elementary symmetric coefficients
    ``alpha_0 .. alpha_N`` with ``alpha_0 == 1`` exactly; when the polynomial
    is built from a root tuple, ``alpha_k = e_k(roots)``.
    """

    alpha: tuple

    def __post_init__(self):
        alpha = tuple(float(a) for a in self.alpha)
        if len(alpha) < 2:
            raise InvalidParameter("a monic polynomial needs degree >= 1")
        if alpha[0] != 1.0:
            raise InvalidParameter("alpha_0 must be exactly 1")
        object.__setattr__(self, "alpha", alpha)

    @classmethod
    def from_roots(cls, x: RootTuple) -> "MonicPolynomial":
        return cls(tuple(esp_rows(x.as_array()[None, :])[0]))

    @property
    def degree(self) -> int:
        return len(self.alpha) - 1

    def monomial_coefficients(self) -> np.ndarray:
        """Coefficients in descending powers of x: ``c_k = (-1)^k alpha_k``."""
        signs = (-1.0) ** np.arange(len(self.alpha))
        return signs * np.asarray(self.alpha)

    def __call__(self, x):
        return _horner(self.monomial_coefficients(), x)


def elementary_symmetric(x: RootTuple) -> np.ndarray:
    """``(e_0, ..., e_N)`` of the tuple, with ``e_0 = 1``."""
    return esp_rows(x.as_array()[None, :])[0]


def partial_esp(i: int, k: int, x: RootTuple) -> float:
    """Partial derivative of ``e_k`` with respect to the ``i``-th coordinate.

    ``i`` and ``k`` are 1-based.  Equals ``e_(k-1)`` of the tuple with the
    ``i``-th entry removed.
    """
    n = x.n
    if not 1 <= i <= n:
        raise InvalidParameter(f"coordinate index {i} out of range 1..{n}")
    if not 1 <= k <= n:
        raise InvalidParameter(f"order {k} out of range 1..{n}")
    reduced = x.as_array()
    reduced = np.delete(reduced, i - 1)
    return float(esp_rows(reduced[None, :])[0, k - 1])


def newton_esp_from_power_sums(powersums: Sequence, n: int) -> np.ndarray:
    """``(e_0, ..., e_n)`` from the power sums ``p_1 .. p_n`` via Newton's identities.

    ``k e_k = sum_{j=1..k} (-1)^(j-1) e_(k-j) p_j``.  Entries may be complex.
    """
    p = np.asarray(powersums)
    if len(p) < n:
        raise InvalidParameter(f"need {n} power sums, got {len(p)}")
    dtype = complex if np.iscomplexobj(p) else float
    e = np.zeros(n + 1, dtype=dtype)
    e[0] = 1.0
    for k in range(1, n + 1):
        acc = 0.0
        for j in range(1, k + 1):
            acc += (-1.0) ** (j - 1) * e[k - j] * p[j - 1]
        e[k] = acc / k
    return e


def _horner(coeffs_desc, x):
    """Evaluate a polynomial given coefficients in descending powers."""
    acc = 0.0
    for c in coeffs_desc:
        acc = acc * x + c
    return acc


def _root_bound(coeffs_desc) -> float:
    """Upper bound on root magnitudes of a monic polynomial (Cauchy/Fujiwara)."""
    tail = [abs(c) for c in coeffs_desc[1:]]
    if not tail or max(tail) == 0.0:
        return 1.0
    cauchy = 1.0 + max(tail)
    fujiwara = 2.0 * max(a ** (1.0 / k) for k, a in enumerate(tail, start=1) if a > 0.0)
    return min(cauchy, fujiwara)


def _exact_sign(coeffs, x):
    """Sign of the polynomial at x, evaluated exactly on Python ints.

    Floats are dyadic rationals: with x = p/q and every coefficient c_k = C_k/L
    over one power-of-two denominator L, the integer
    ``q^d L P(x) = sum_k C_k p^(d-k) q^k`` has the sign of P(x).
    """
    ratios = [c.as_integer_ratio() for c in coeffs]
    top = max(den.bit_length() for _, den in ratios)  # L = 2**(top - 1)
    p, q = x.as_integer_ratio()
    qbits = q.bit_length() - 1
    acc = 0
    for k, (num, den) in enumerate(ratios):
        acc = acc * p + (num << (top - den.bit_length() + qbits * k))
    return (acc > 0) - (acc < 0)


def _horner_dp(coeffs, x):
    """``(p(x), p'(x))`` in one Horner pass."""
    p = dp = 0.0
    for c in coeffs:
        dp = dp * x + p
        p = p * x + c
    return p, dp


def _bisect(coeffs, lo, hi, flo):
    """The root of the polynomial in a sign bracket [lo, hi] holding one root.

    The float stage evaluates p and p' together at safeguarded Newton trial
    points: the Newton iterate when it lies strictly inside the bracket and
    its step is at most half the step before last, the midpoint otherwise.
    Newton closes in from one side, so a step shorter than half the stopping
    width is lengthened to half the width, and while the trial points stay on
    one side of the root a rejected Newton step gives way to twice the last
    step (rounding noise can hide the sign of p over a few widths).  The
    stage stops, as plain bisection did, at an exact zero or at a sign
    bracket no wider than ``1e-15 * max(1, |lo|, |hi|)``.
    """
    lo0, hi0 = lo, hi
    neg = flo < 0.0
    x = 0.5 * (lo + hi)
    step = step_old = hi - lo
    at_lo = None
    for _ in range(90):
        fx, dfx = _horner_dp(coeffs, x)
        if fx == 0.0:
            lo = hi = x
            break
        was_lo, at_lo = at_lo, (fx < 0.0) == neg
        if at_lo:
            lo = x
        else:
            hi = x
        width = 1e-15 * max(1.0, abs(lo), abs(hi))
        if hi - lo <= width:
            break
        if abs(fx + fx) <= abs(step_old * dfx):
            dx = -fx / dfx
            if abs(dx) < 0.5 * width:
                dx = math.copysign(0.5 * width, dx)
        elif was_lo == at_lo:
            dx = 2.0 * step if at_lo else -2.0 * step
        else:
            dx = 0.0
        if dx and lo < x + dx < hi:
            x += dx
            step_old, step = step, abs(dx)
        else:
            x = 0.5 * (lo + hi)
            if x <= lo or x >= hi:
                break
            step_old, step = step, x - lo
    mid = 0.5 * (lo + hi)

    # The float stage lands where the *computed* sign flips, which can sit
    # eps*E/|p'| away from the true root for ill-conditioned coefficients.
    # When that estimate exceeds the accuracy target, re-bisect with exact
    # signs inside a rewidened bracket.
    dp = _horner_dp(coeffs, mid)[1]
    eval_scale = _horner([abs(c) for c in coeffs], abs(mid))
    err_est = 2e-16 * eval_scale / max(abs(dp), 1e-300)
    target = 1e-13 * max(1.0, abs(mid))
    if err_est <= target:
        return mid

    delta = 4.0 * err_est + (hi - lo)
    a, b = max(lo0, mid - delta), min(hi0, mid + delta)
    sa, sb = _exact_sign(coeffs, a), _exact_sign(coeffs, b)
    if sa == 0:
        return a
    if sb == 0:
        return b
    if sa == sb:
        a, b = lo0, hi0
        sa, sb = _exact_sign(coeffs, a), _exact_sign(coeffs, b)
        if sa == 0 or sb == 0 or sa == sb:
            # crossing is below exact resolution (near-multiple root): keep mid
            return mid
    for _ in range(120):
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            break
        sm = _exact_sign(coeffs, m)
        if sm == 0:
            return m
        if sm == sa:
            a = m
        else:
            b = m
    return 0.5 * (a + b)


def _real_roots(coeffs):
    """Roots of a real-rooted monic polynomial, by recursive derivative interlacing.

    Roots of the derivative (found recursively) split the line into intervals
    each holding exactly one root; :func:`_bisect` settles each interval.  An
    interval endpoint whose polynomial value sits within the zero threshold is
    reported as a (possibly multiple) root.
    """
    d = len(coeffs) - 1
    if d == 1:
        return [-coeffs[1]]
    theta = 1e-12 * max(1.0, max(abs(c) for c in coeffs))
    deriv = [c * (d - k) / d for k, c in enumerate(coeffs[:-1])]
    crit = _real_roots(deriv)
    bound = _root_bound(coeffs)
    pts = [-bound] + crit + [bound]
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
            roots.append(_bisect(coeffs, lo, hi, flo))
        else:
            raise NotRealRooted(
                "no sign change in interval "
                f"[{lo!r}, {hi!r}] (values {flo!r}, {fhi!r}, threshold {theta!r})"
            )
    roots.sort()
    return roots


def roots_of_monic(p: MonicPolynomial) -> RootTuple:
    """All N real roots of a real-rooted monic polynomial, sorted ascending.

    Repeated roots are returned with multiplicity.  The zero-detection
    threshold, used for multiplicity reporting and for deciding that a
    required sign change is genuinely missing, is ``1e-12 * max(1, max |c_k|)``
    at every level of the derivative recursion: absolute once the
    coefficients fall below 1, so roots spread over much less than 1 can
    merge into a false multiple root.  The search inside each interlacing
    interval always refines to machine precision.

    Raises :class:`NotRealRooted` when an interlacing interval carries no sign
    change and neither endpoint is a root within that threshold.
    """
    return RootTuple(tuple(_real_roots([float(c) for c in p.monomial_coefficients()])))

"""Elementary symmetric polynomial algebra and real-rooted polynomial solving.

Ordered tuples of real roots are the common currency of the whole library:
ensembles, polynomial zeros and deterministic limits all live in
:class:`RootTuple`.  A :class:`MonicPolynomial` holds its coefficients
exactly, as integers, and shows them as signed elementary symmetric
coefficients, the coordinate system in which the convolution and the limit
dynamics are linear.  :func:`roots_of_monic` solves those integers, so each
root is the float nearest an exact root.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence

from .errors import InvalidParameter, NotRealRooted, check_int, np

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


class _Value:
    """An immutable value, as a frozen dataclass: ``__init__`` sets the fields
    with ``object.__setattr__``, values of one class are equal (and hash alike)
    when their ``_compared`` fields are, and the repr shows ``_shown``."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compared)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({shown})"


def _numbers(name: str, values, kind=float) -> tuple:
    """``values`` as a tuple of ``kind`` (float, complex or another
    conversion); InvalidParameter for a str or bytes, or for an entry that
    ``kind`` refuses."""
    if isinstance(values, (str, bytes)):
        raise InvalidParameter(f"{name} must be a sequence of numbers, not {type(values).__name__}")
    try:
        return tuple(kind(v) for v in values)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidParameter(f"{name} must be a sequence of numbers ({exc})") from None


class RootTuple(_Value):
    """An ordered tuple of N real numbers, sorted ascending (ties allowed)."""

    _compared = _shown = ("roots",)

    def __init__(self, roots):
        roots = _numbers("root tuple", roots)
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
        return cls(tuple(sorted(_numbers("root tuple", values))))

    @property
    def n(self) -> int:
        return len(self.roots)

    def as_array(self) -> np.ndarray:
        return np.array(self.roots, dtype=float)

    def shifted(self, offset: float) -> "RootTuple":
        return RootTuple(tuple(r + offset for r in self.roots))


class MonicPolynomial(_Value):
    """Monic degree-N polynomial ``sum_k (-1)^k alpha_k x^(N-k)``, held exactly.

    ``ints`` holds its descending monomial coefficients as coprime integers
    with ``ints[0] > 0``, so equal polynomials have equal ``ints`` and ``==``
    is equality of the exact rationals.  ``alpha`` holds the signed
    elementary symmetric coefficients ``alpha_0 .. alpha_N`` as floats, with
    ``alpha_0 == 1``: given ones as given, otherwise each the float nearest
    ``(-1)^k ints[k] / ints[0]``.  Built from a root tuple,
    ``alpha_k = e_k(roots)`` exactly, then rounded.
    """

    _compared, _shown = ("ints",), ("alpha",)

    def __init__(self, alpha):
        alpha = _numbers("alpha", alpha)
        if len(alpha) < 2:
            raise InvalidParameter("a monic polynomial needs degree >= 1")
        if alpha[0] != 1.0:
            raise InvalidParameter("alpha_0 must be exactly 1")
        for k, a in enumerate(alpha):
            if not math.isfinite(a):
                raise NotRealRooted(f"coefficient c_{k} = {-a if k % 2 else a!r} is not finite")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "ints", _monic_ints(_scaled_ints(alpha)))

    @classmethod
    def from_integers(cls, alpha) -> "MonicPolynomial":
        """The polynomial with ``alpha_k = alpha[k] / alpha[0]``, for integers
        with ``alpha[0] > 0``."""
        p = object.__new__(cls)
        ints = _monic_ints(alpha)
        object.__setattr__(p, "ints", ints)
        object.__setattr__(
            p, "alpha", tuple(_rounded(-c if k % 2 else c, ints[0]) for k, c in enumerate(ints))
        )
        return p

    @classmethod
    def from_roots(cls, x: RootTuple) -> "MonicPolynomial":
        return cls.from_integers(_exact_esp(x.roots))

    @property
    def degree(self) -> int:
        return len(self.ints) - 1

    def monomial_coefficients(self) -> np.ndarray:
        """Coefficients in descending powers of x: ``c_k = (-1)^k alpha_k``."""
        signs = (-1.0) ** np.arange(len(self.alpha))
        return signs * np.asarray(self.alpha)

    def __call__(self, x):
        return np.polyval(self.monomial_coefficients(), x)


def elementary_symmetric(x: RootTuple) -> np.ndarray:
    """``(e_0, ..., e_N)`` of the tuple, with ``e_0 = 1``, each correctly rounded."""
    e = _exact_esp(x.roots)
    return np.array([_rounded(c, e[0]) for c in e])


def partial_esp(i: int, k: int, x: RootTuple) -> float:
    """Partial derivative of ``e_k`` with respect to the ``i``-th coordinate.

    ``i`` and ``k`` are 1-based.  Equals ``e_(k-1)`` of the tuple with the
    ``i``-th entry removed, correctly rounded.
    """
    n = x.n
    check_int("i", i, 1)
    check_int("k", k, 1)
    if max(i, k) > n:
        raise InvalidParameter(f"index i={i} or order k={k} out of range 1..{n}")
    e = _exact_esp(x.roots[: i - 1] + x.roots[i:])
    return _rounded(e[k - 1], e[0])


def newton_esp_from_power_sums(powersums: Sequence, n: int) -> np.ndarray:
    """``(e_0, ..., e_n)`` from the power sums ``p_1 .. p_n`` via Newton's identities.

    ``k e_k = sum_{j=1..k} (-1)^(j-1) e_(k-j) p_j``.  Entries may be complex.
    """
    check_int("n", n, 0)
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


def _exact_esp(values):
    """Exact ``(e_0, ..., e_N)`` of floats, as integers over their entry 0.

    The entries are dyadic, ``x_i = m_i 2^-s`` with integer m_i, so the
    product recurrence of :func:`esp_rows` run on the m_i gives integers E_k
    with ``e_k = E_k 2^-sk``, here returned as ``E_k 2^(s(N-k))`` over
    ``2^(sN)``.
    """
    ratios = [float(v).as_integer_ratio() for v in values]
    s = max((den.bit_length() for _, den in ratios), default=1) - 1
    e = [1] + [0] * len(ratios)
    for i, (num, den) in enumerate(ratios, 1):
        m = num << (s + 1 - den.bit_length())
        for k in range(i, 0, -1):
            e[k] += m * e[k - 1]
    n = len(ratios)
    return [c << (s * (n - k)) for k, c in enumerate(e)]


def _scaled_ints(coeffs):
    """Integer coefficients ``L c_k``, L the floats' common power-of-two denominator."""
    ratios = [c.as_integer_ratio() for c in coeffs]
    top = max(den.bit_length() for _, den in ratios)
    return [num << (top - den.bit_length()) for num, den in ratios]


def _rounded(num: int, den: int) -> float:
    """``num / den`` correctly rounded, for ``den > 0``; past the float range,
    the infinity of its sign."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _scaled_value(ints, num, den):
    """``den^d P(num/den)`` for the integer coefficients of P and ``den`` a
    power of two: an integer with the sign of ``P(num/den)``."""
    shift = den.bit_length() - 1
    acc = 0
    for k, c in enumerate(ints):
        acc = acc * num + (c << (shift * k))
    return acc


def _exact_sign(ints, x):
    """Sign at the float x of the polynomial with integer coefficients ``ints``."""
    v = _scaled_value(ints, *x.as_integer_ratio())
    return (v > 0) - (v < 0)


def _refine(ints, a, b, sa):
    """The float nearest the root in the sign bracket [a, b]: exact bisection
    down to adjacent floats, then one sign at their exact midpoint.  A root
    on the midpoint rounds to even, as IEEE arithmetic and int division do."""
    while True:
        m = 0.5 * a + 0.5 * b
        if not a < m < b:
            (na, da), (nb, db) = a.as_integer_ratio(), b.as_integer_ratio()
            num, den = na * db + nb * da, 2 * da * db
            v = _scaled_value(ints, num, den)
            if v == 0:
                return num / den
            return b if (v > 0) == (sa > 0) else a
        sm = _exact_sign(ints, m)
        if sm == 0:
            return m
        a, b = (m, b) if sm == sa else (a, m)


def _seeds(coeffs):
    """Companion-matrix eigenvalues, one solve per well-separated root scale.

    Each edge of the upper hull of the points ``(k, log2 |c_k|)`` (the
    Newton polygon) counts the roots of one size, 2 to its slope.  Where the
    slope drops by more than 26 (half the float mantissa), the roots on
    either side are solved apart, each from its own run of coefficients
    rescaled to size 1, so that roots far smaller than the largest keep
    their relative accuracy.  A list of complex, sorted by real part.
    """
    points = [(k, math.frexp(c)[1]) for k, c in enumerate(coeffs) if c]
    hull = []
    for k, e in points:
        while len(hull) > 1 and (
            (hull[-1][1] - hull[-2][1]) * (k - hull[-2][0])
            <= (e - hull[-2][1]) * (hull[-1][0] - hull[-2][0])
        ):
            hull.pop()
        hull.append((k, e))
    slopes = [(e2 - e1) / (k2 - k1) for (k1, e1), (k2, e2) in zip(hull, hull[1:])]
    cuts = [i for i in range(len(slopes)) if i == 0 or slopes[i - 1] - slopes[i] > 26]
    z = [0j] * (len(coeffs) - 1 - points[-1][0])
    try:
        for i, j in zip(cuts, cuts[1:] + [len(slopes)]):
            (k1, e1), (k2, e2) = hull[i], hull[j]
            s, m = round((e2 - e1) / (k2 - k1)), k2 - k1
            run = [math.ldexp(coeffs[k], s * (k1 - k) - e1) for k in range(k1, k2 + 1)]
            companion = np.eye(m, k=-1)
            companion[0] = [-c / run[0] for c in run[1:]]
            y = np.linalg.eigvals(companion).tolist()
            z += [complex(math.ldexp(w.real, s), math.ldexp(w.imag, s)) for w in y]
    except OverflowError:
        raise NotRealRooted("companion-matrix eigenvalues are not finite") from None
    if not all(math.isfinite(w.real) and math.isfinite(w.imag) for w in z):
        raise NotRealRooted("companion-matrix eigenvalues are not finite")
    return sorted(z, key=lambda w: w.real)


def _certified_roots(ints, coeffs, z):
    """The roots certified around the seeds z, sorted by real part.

    Each seed's real part, clamped to its cell (the midpoints to its
    neighbours, a root bound at the ends), takes one Newton step on the exact
    residual: ``_scaled_value`` there is the integer ``den^d P(x)``, and the
    derivative's is ``den^(d-1) P'(x)``, so the step ``v / (dv den)`` is one
    correctly rounded int division.  The seed is kept when the step
    overflows, the derivative is zero, or the result leaves the cell.
    Around the polished point a bracket starts one ulp wide and grows by 4
    inside the cell until the exact signs at its ends differ or one is zero.
    Every probed point with sign zero (the clamped seeds are probed too),
    and every pair of consecutive probed points with opposite signs, holds a
    root; when there are d of them, each holds exactly one and all d roots
    are found.
    """
    # twice the Cauchy bound 1 + max |c_k|, which rounds to max |c_k| past 2^53
    bound = min(2.0 * max(1.0, *(abs(c) for c in coeffs[1:])), sys.float_info.max)
    d = len(ints) - 1
    derivative = [c * (d - k) for k, c in enumerate(ints[:-1])]
    seeds = [w.real for w in z]
    ends = [-bound] + [0.5 * a + 0.5 * b for a, b in zip(seeds, seeds[1:])] + [bound]
    signs = {}
    for x, lo, hi in zip(seeds, ends, ends[1:]):
        x = min(max(x, lo), hi)
        num, den = x.as_integer_ratio()
        v = _scaled_value(ints, num, den)
        signs[x] = (v > 0) - (v < 0)
        if v and (dv := _scaled_value(derivative, num, den)):
            try:
                y = x - v / (dv * den)
            except OverflowError:  # the quotient is past the float range
                y = x
            if lo <= y <= hi:
                x = y
        w = math.ulp(x)
        while True:
            a, b = max(lo, x - w), min(hi, x + w)
            for y in (a, b):
                if y not in signs:
                    signs[y] = _exact_sign(ints, y)
            if signs[a] * signs[b] <= 0 or (a == lo and b == hi):
                break
            w *= 4.0
    probes = sorted(signs.items())
    roots = [x for x, s in probes if s == 0]
    pairs = zip(probes, probes[1:])
    return roots + [_refine(ints, a, b, sa) for (a, sa), (b, sb) in pairs if sa * sb < 0]


def _clusters(z, roots):
    """Per cluster of the seeds z, its seed mask and the certified roots it owns.

    Seeds closer than four times the larger of their imaginary parts are in
    one cluster (so are equal seeds): rounding that pushes m roots off the
    real line spreads them around a circle whose size the imaginary parts
    show.  A cluster owns the roots nearest its seeds.
    """
    height = np.abs(z.imag)
    reach = np.abs(z[:, None] - z[None, :]) <= 4.0 * np.maximum(height[:, None], height[None, :])
    while not np.array_equal(reach, step := reach @ reach):
        reach = step
    owner = [int(np.argmin(np.abs(z - r))) for r in roots]
    return [
        (reach[i], [r for r, j in zip(roots, owner) if reach[i, j]])
        for i in range(len(z))
        if not reach[i, :i].any()
    ]


def _roots_or_centroids(exact):
    """Roots of a monic square-free factor with Fraction coefficients:
    certified roots, and centroids where rounding pushed a cluster of roots
    off the real line.

    A cluster that does not own one certified root per seed is seeded again
    from the factor shifted exactly to the cluster's centroid, where its
    roots are small and solved at their own scale.  One that still does not
    comes back as the mean of its seeds' real parts, once per seed, if that
    mean's relative backward error ``|p(x)| / sum_k |c_k| |x|^(d-k)`` is at
    most ``8 d 2^-53``, each ``|c_k|`` (k > 0) counted with its underflow
    ``2^-1074``; otherwise its roots are not real.
    """
    from fractions import Fraction

    scale = math.lcm(*(c.denominator for c in exact))
    ints, coeffs = [int(c * scale) for c in exact], [float(c) for c in exact]
    z = _seeds(coeffs)
    roots = _certified_roots(ints, coeffs, z)
    d = len(z)
    if len(roots) < d:
        z = np.array(z)
        for members, found in _clusters(z, roots):
            m = int(members.sum())
            if len(found) != m:
                c, q = Fraction(np.mean(z.real[members])), list(exact)
                for i in range(d):  # Taylor shift: q(y) = p(c + y)
                    for j in range(1, d + 1 - i):
                        q[j] += c * q[j - 1]
                try:
                    y = np.array(_seeds([float(v) for v in q]))
                except OverflowError:  # the shifted factor leaves the float range
                    continue
                z[members] = float(c) + y[np.argsort(np.abs(y), kind="stable")[:m]]
        z = z[np.argsort(z.real, kind="stable")]
        roots = _certified_roots(ints, coeffs, z.tolist())
    if len(roots) == d:
        return roots
    out = []
    for members, found in _clusters(z, roots):
        m = int(members.sum())
        if len(found) != m:
            x = float(np.mean(z.real[members]))
            num, den = x.as_integer_ratio()
            value = abs(_scaled_value(ints, num, den)) << 1074
            env = _scaled_value([abs(c) for c in ints], abs(num), den) << 1021
            underflow = ints[0] * _scaled_value([0] + [1] * d, abs(num), den)
            if value > 8 * d * (env + underflow):
                raise NotRealRooted(f"roots near {x!r} are not real within rounding")
            found = [x] * m
        out += found
    return out


def _square_free_roots(exact):
    """Roots through the exact square-free chain of the polynomial with the
    Fraction coefficients ``exact``, leading coefficient 1.

    With ``g_0 = p`` and ``g_(j+1) = gcd(g_j, g_j')``, the square-free
    ``g_j / g_(j+1)`` holds once each root of multiplicity above j (Yun), so
    solving every level returns each root with its multiplicity.
    """

    def divide(f, g):  # quotient and remainder by a monic g
        f, n = list(f), len(f) - len(g) + 1
        for i in range(n):
            for j in range(1, len(g)):
                f[i + j] -= f[i] * g[j]
        rem = f[n:]
        while rem and rem[0] == 0:
            rem.pop(0)
        return f[:n], rem

    g, roots = list(exact), []
    while len(g) > 1:
        s, h = g, [c * (len(g) - 1 - k) for k, c in enumerate(g[:-1])]
        while h:  # Euclid: g becomes the monic gcd(g, g')
            h = [c / h[0] for c in h]
            g, h = h, divide(g, h)[1]
        g = [c / g[0] for c in g]
        roots += _roots_or_centroids(divide(s, g)[0])
    return roots


def _monic_ints(e) -> tuple:
    """Integer monomial coefficients ``(-1)^k e_k`` of an exact elementary
    symmetric vector over its entry 0, divided by their gcd: two vectors
    hold the same rationals exactly when these tuples are equal."""
    g = math.gcd(*e)
    return tuple(-c // g if k % 2 else c // g for k, c in enumerate(e))


def roots_of_monic(p: MonicPolynomial) -> RootTuple:
    """All N real roots of a real-rooted monic polynomial, sorted ascending.

    The solve runs on the exact integers ``p.ints``.  Companion-matrix
    eigenvalues of the rounded coefficients ``(-1)^k alpha_k`` (as
    ``np.roots`` takes them, one solve per well-separated root scale) are the
    seeds.  Each takes one Newton step on its exact residual, and a sign
    bracket one ulp wide around the result, grown inside the seed's cell when
    needed, is shrunk to adjacent floats by exact bisection: about 6 exact
    evaluations per root at any degree.  N disjoint sign brackets prove that
    each root is found exactly once, and each root returned is then the float
    nearest an exact root of p.  Otherwise the exact square-free factors are
    solved the same way, each root once per multiplicity; a cluster of roots
    that rounding pushed off the real line comes back as its centroid, once
    per root, when that centroid's relative backward error is within
    ``8 N 2^-53``.

    Raises :class:`NotRealRooted` when a rounded coefficient is not finite or
    some roots are not real within that backward error.
    """
    ints = p.ints
    coeffs = [(-a if k % 2 else a) + 0.0 for k, a in enumerate(p.alpha)]
    for k, c in enumerate(coeffs):
        if not math.isfinite(c):
            raise NotRealRooted(f"coefficient c_{k} = {c!r} is not finite")
    roots = _certified_roots(ints, coeffs, _seeds(coeffs))
    if len(roots) < len(ints) - 1:
        from fractions import Fraction

        roots = _square_free_roots([Fraction(c, ints[0]) for c in ints])
    return RootTuple(tuple(sorted(roots)))

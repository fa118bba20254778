"""Wallis integrals, spherical-harmonic dimension counts, and two series identities.

``wallis(p)`` is the integral of sin^p over [0, pi] (twice the classical
Wallis integral).  Everything here is exact-recursion or adaptively truncated
summation; no factorials are ever formed, so large orders do not overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NonConvergenceError

# Series truncation: stop once a term falls below TERM_EPS * |running sum|.
TERM_EPS = 1e-16
MAX_TERMS = 100_000


@dataclass(frozen=True)
class WallisTable:
    """Forward-recursion table of I_p = integral of sin^p t over [0, pi].

    values[0] = pi, values[1] = 2, and values[p+2] = (p+1)/(p+2) * values[p].
    Entries are strictly positive and strictly decreasing in p.
    """

    values: tuple[float, ...]


def wallis_table(max_p: int) -> WallisTable:
    """Build the table of I_0 .. I_max_p by forward recursion."""
    if max_p < 1:
        raise ValueError("max_p must be at least 1")
    vals = [math.pi, 2.0]
    for p in range(max_p - 1):
        vals.append((p + 1) / (p + 2) * vals[p])
    return WallisTable(values=tuple(vals[: max_p + 1]))


def wallis(p: int) -> float:
    """I_p = integral of sin^p t dt over [0, pi], by recursion from I_0, I_1."""
    if p < 0 or p != int(p):
        raise ValueError("p must be a non-negative integer")
    val = math.pi if p % 2 == 0 else 2.0
    for j in range(p % 2, p, 2):
        val *= (j + 1) / (j + 2)
    return val


def harmonic_dim(n: int, k: int) -> int:
    """Dimension of the space of degree-k spherical harmonics in n variables.

    C(n+k-1, n-1) - C(n+k-3, n-1), with C(m, j) = 0 for m < j.  Exact integer
    arithmetic; equals 1 for k = 0 and n for k = 1.
    """
    if n < 2:
        raise ValueError("dimension n must be at least 2")
    if k < 0:
        raise ValueError("order k must be non-negative")

    def comb0(m: int, j: int) -> int:
        return math.comb(m, j) if m >= j else 0

    return comb0(n + k - 1, n - 1) - comb0(n + k - 3, n - 1)


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere in R^n: 2 * I_0 * I_1 * ... * I_{n-2}."""
    if n < 2:
        raise ValueError("dimension n must be at least 2")
    out = 2.0
    for k in range(n - 1):
        out *= wallis(k)
    return out


def _sum_adaptive(term_iter) -> float:
    """Sum terms until |term| < TERM_EPS * |sum|; error out at MAX_TERMS."""
    total = 0.0
    for i, term in enumerate(term_iter):
        total += term
        if abs(term) < TERM_EPS * abs(total) and i > 0:
            return total
        if i + 1 >= MAX_TERMS:
            raise NonConvergenceError(
                f"series did not converge within {MAX_TERMS} terms"
            )
    return total


def catalan_series(x: float) -> float:
    """Sum of (1/m) * C(2m, m) * x^m for m >= 1; requires |x| < 1/4.

    Closed form: 2*ln(2 / (1 + sqrt(1 - 4x))).
    """
    if abs(x) >= 0.25:
        raise ValueError("catalan_series requires |x| < 1/4")
    if x == 0.0:
        return 0.0

    def terms():
        coeff = 2.0 * x  # (1/m) C(2m, m) x^m at m = 1
        m = 1
        while True:
            yield coeff
            # (1/(m+1)) C(2m+2, m+1) x^{m+1} from (1/m) C(2m, m) x^m
            coeff *= x * 2.0 * (2 * m + 1) * m / ((m + 1) * (m + 1))
            m += 1

    return _sum_adaptive(terms())


def wallis_even_series(x: float) -> float:
    """Sum of I_{2m} * x^{2m} for m >= 0; requires |x| < 1.

    Closed form: pi / sqrt(1 - x^2).
    """
    if abs(x) >= 1.0:
        raise ValueError("wallis_even_series requires |x| < 1")

    def terms():
        coeff = math.pi  # I_0
        m = 0
        while True:
            yield coeff
            # I_{2m+2} = (2m+1)/(2m+2) I_{2m}; append x^2
            coeff *= x * x * (2 * m + 1) / (2 * m + 2)
            m += 1

    return _sum_adaptive(terms())


def log_series_identity(d: float) -> float:
    """Sum of (1/m) * I_{2m} * (2d/(1+d^2))^{2m} for m >= 1; requires 0 <= d < 1.

    Closed form: 2*pi*ln(1 + d^2).
    """
    if not 0.0 <= d < 1.0:
        raise ValueError("log_series_identity requires 0 <= d < 1")
    if d == 0.0:
        return 0.0
    x = 2.0 * d / (1.0 + d * d)

    def terms():
        wal = math.pi  # I_{2m} running value, starting before m = 1
        m = 1
        xx = x * x
        xpow = xx
        while True:
            wal *= (2 * m - 1) / (2 * m)  # I_{2m}
            yield wal * xpow / m
            xpow *= xx
            m += 1

    return _sum_adaptive(terms())

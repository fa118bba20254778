"""Exact Steklov spectrum of the concentric shell (unit ball minus a-ball).

Separation of variables reduces the spectral problem to, per angular order
k >= 1, a quadratic A_k*delta^2 + B_k*delta + C_k = 0 with two positive
roots, plus the k = 0 pair {0, delta0}.  The first nonzero eigenvalue is the
lower k = 1 root; the lower branch is strictly increasing in k and stays
below delta0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import NonConvergenceError
from .geometry import _check_n
from .special import harmonic_dim, sphere_area

BRANCHES = ("zero", "radial0", "lower", "upper")

DEFAULT_K_MAX = 64
OPTIMAL_EPS_TOL = 1e-10  # width of the final golden-section bracket


@dataclass(frozen=True)
class QuadraticCoeffs:
    """Coefficients of the order-k eigenvalue quadratic, with discriminant.

    A > 0 and C > 0 for k >= 1 and 0 < a < 1; the discriminant is strictly
    positive (it dominates ((k+n-2) - k*a)^2), so the two roots are distinct.
    """

    A: float
    B: float
    C: float
    discriminant: float


@dataclass(frozen=True)
class SpectrumEntry:
    """One eigenvalue branch of the concentric shell."""

    k: int
    branch: str
    value: float
    multiplicity: int


def _check_na(n: int, a: float) -> None:
    _check_n(n)
    if not 0.0 < a < 1.0:
        raise ValueError("inner radius must lie in (0,1)")


def quadratic_coeffs(n: int, a: float, k: int) -> QuadraticCoeffs:
    """Quadratic coefficients (A_k, B_k, C_k) and discriminant for order k >= 1."""
    _check_na(n, a)
    if k < 1:
        raise ValueError("angular order k must be >= 1")
    A = a - a ** (2 * k + n - 1)
    B = -((k + n - 2) * a ** (2 * k + n - 1) + k * a ** (2 * k + n - 2) + k * a + k + n - 2)
    C = (k + n - 2) * k * (1.0 - a ** (2 * k + n - 2))
    return QuadraticCoeffs(A=A, B=B, C=C, discriminant=B * B - 4.0 * A * C)


def delta_pair(n: int, a: float, k: int) -> tuple[float, float]:
    """The two positive eigenvalues of angular order k, returned (lower, upper).

    The lower root is computed as 2C / (-B + sqrt(disc)), which avoids the
    subtractive cancellation of the textbook formula when C is small.
    """
    q = quadratic_coeffs(n, a, k)
    root = math.sqrt(q.discriminant)
    lower = 2.0 * q.C / (-q.B + root)
    upper = (-q.B + root) / (2.0 * q.A)
    return lower, upper


def delta0(n: int, a: float) -> float:
    """The nonzero radial (order-0) eigenvalue of the concentric shell."""
    _check_na(n, a)
    if n == 2:
        return (1.0 + a) / (a * math.log(1.0 / a))
    return (n - 2) * (1.0 + a ** (n - 1)) / (a * (1.0 - a ** (n - 2)))


def sigma1_closed_form(n: int, a: float) -> float:
    """First nonzero Steklov eigenvalue of the concentric shell, explicit radical.

    sigma1 = (t - sqrt(t^2 - 4(n-1) a (1-a^n)^2)) / (2 a (1-a^n)) with
    t = (n-1)a^(n+1) + a^n + a + n - 1.  This is the lower k = 1 root of the
    eigenvalue quadratic written out; it is strictly below 1 (the value for
    the unit ball) and approaches 1 as a -> 0.
    """
    _check_na(n, a)
    return float(_sigma1(n, a))


def _sigma1(n: int, a):
    """sigma1_closed_form without its argument checks, elementwise over an array a.

    A float a gives a numpy float of the same bits as the scalar formula;
    a = 0 gives exactly 1, the value for the solid ball.
    """
    t = (n - 1) * a ** (n + 1) + a**n + a + n - 1
    disc = t * t - 4.0 * (n - 1) * a * (1.0 - a**n) ** 2
    # Cancellation-safe lower root: multiply through by the conjugate.
    return 2.0 * (n - 1) * (1.0 - a**n) / (t + np.sqrt(disc))


def tau1_closed_form(n: int, a: float) -> float:
    """First eigenvalue of the concentric mixed problem (zero trace on the hole).

    The radial profile's flux over its trace on the outer sphere:
    1/log(1/a) for n = 2 and (n-2)/(a^(2-n) - 1) otherwise.
    """
    _check_na(n, a)
    return 1.0 / math.log(1.0 / a) if n == 2 else (n - 2) / (a ** (2 - n) - 1.0)


def mu_sigma(n: int, a: float) -> float:
    """Radial mixing coefficient (1 - sigma1) / (n + sigma1 - 1) of the first mode.

    Lies in (0, 1/(n-1)) since 0 < sigma1 < 1; equals
    radial_coefficient(n, a, 1, "lower").
    """
    s1 = sigma1_closed_form(n, a)
    return (1.0 - s1) / (n + s1 - 1.0)


def _lower_gap(n: int, a: float, k: int) -> float:
    """k - delta_lower, cancellation-safe.

    Substituting delta = k - u into the eigenvalue quadratic leaves
    A u^2 - (2Ak + B) u + C' = 0 whose constant term collapses exactly to
    C' = -k (2k+n-2) (1+a) a^(2k+n-2); the textbook difference k - delta
    loses every digit once a^(2k+n-2) drops below machine epsilon.
    """
    q = quadratic_coeffs(n, a, k)
    cprime = -k * (2 * k + n - 2) * (1.0 + a) * a ** (2 * k + n - 2)
    beta = 2.0 * q.A * k + q.B
    return 2.0 * cprime / (beta - math.sqrt(beta * beta - 4.0 * q.A * cprime))


def radial_coefficient(n: int, a: float, k: int, branch: str) -> float:
    """Coefficient of r^-(k+n-2) in the order-k radial profile r^k + c r^-(k+n-2).

    (k - delta)/(n + delta + k - 2) for the branch's eigenvalue delta, with
    the numerator taken from the cancellation-safe gap for the lower branch.
    """
    _check_na(n, a)
    if k < 1:
        raise ValueError("angular order k must be >= 1")
    if branch == "lower":
        gap = _lower_gap(n, a, k)
        return gap / (n + 2 * k - 2.0 - gap)
    if branch != "upper":
        raise ValueError("branch must be 'lower' or 'upper'")
    delta = delta_pair(n, a, k)[1]
    return (k - delta) / (n + delta + k - 2.0)


def _check_k_max(k_max: int) -> None:
    # The integer-type rule of geometry._check_n: a float k_max would reach a range().
    if not isinstance(k_max, Integral) or k_max < 1:
        raise ValueError("k_max must be an integer >= 1")


def spectrum(n: int, a: float, k_max: int = DEFAULT_K_MAX) -> list[SpectrumEntry]:
    """All eigenvalue branches up to angular order k_max, sorted ascending.

    Branches: the zero eigenvalue (constants), the nonzero radial eigenvalue,
    and the lower/upper pair for each k in 1..k_max.  The sorted list is a
    complete enumeration only below spectrum_complete_below(n, a, k_max), the
    smallest omitted value; entries above it may interleave with omitted
    orders.  Ties are broken by ascending k, then lower < upper < radial0.
    """
    _check_na(n, a)
    _check_k_max(k_max)
    entries = [
        SpectrumEntry(k=0, branch="zero", value=0.0, multiplicity=1),
        SpectrumEntry(k=0, branch="radial0", value=delta0(n, a), multiplicity=1),
    ]
    for k in range(1, k_max + 1):
        lower, upper = delta_pair(n, a, k)
        mult = harmonic_dim(n, k)
        entries.append(SpectrumEntry(k=k, branch="lower", value=lower, multiplicity=mult))
        entries.append(SpectrumEntry(k=k, branch="upper", value=upper, multiplicity=mult))
    branch_rank = {"lower": 0, "upper": 1, "radial0": 2, "zero": 3}
    entries.sort(key=lambda e: (e.value, e.k, branch_rank[e.branch]))
    return entries


def spectrum_complete_below(n: int, a: float, k_max: int) -> float:
    """Largest value below which spectrum(n, a, k_max) lists every eigenvalue.

    Equals the lower root of the first omitted angular order, k_max + 1.
    """
    _check_na(n, a)
    _check_k_max(k_max)
    return delta_pair(n, a, k_max + 1)[0]


def eigenfunction_radial(n: int, a: float, k: int, branch: str, r: float) -> float:
    """Radial profile of the requested branch, evaluated at r in [a, 1].

    For k >= 1: r^k + c * r^-(k+n-2) with c the branch's radial coefficient.
    For radial0: 1 + delta0*log(r) in the plane, (2-n-delta0) + delta0*r^(2-n)
    otherwise.  For the zero branch: the constant 1.  The profile satisfies
    the spectral boundary conditions alpha'(1) = delta*alpha(1) and
    alpha'(a) = -delta*alpha(a).
    """
    _check_na(n, a)
    if branch not in BRANCHES:
        raise ValueError(f"branch must be one of {BRANCHES}")
    if not a <= r <= 1.0:
        raise ValueError("r must lie in [a, 1]")
    if branch == "zero":
        return 1.0
    if branch == "radial0":
        d0 = delta0(n, a)
        if n == 2:
            return 1.0 + d0 * math.log(r)
        return (2.0 - n - d0) + d0 * r ** (2 - n)
    if k < 1:
        raise ValueError("lower/upper branches require k >= 1")
    c = radial_coefficient(n, a, k, branch)
    return r**k + c * r ** (-(k + n - 2))


def scale_invariant(n: int, eps: float) -> float:
    """Perimeter-normalized first eigenvalue P^(1/(n-1)) * sigma1 of the shell.

    P = (area of the unit sphere in R^n) * (1 + eps^(n-1)).  eps = 0 gives
    the value for the solid ball, where sigma1 = 1.
    """
    _check_n(n)
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must lie in [0, 1)")
    return float(_scale_invariant(n, eps))


def _scale_invariant(n: int, eps):
    """scale_invariant without its checks, elementwise over an array eps.

    For scans that validate n once and keep eps in [0, 1).  A float eps gives
    a numpy float of the same bits as scale_invariant.
    """
    perim = sphere_area(n) * (1.0 + eps ** (n - 1))
    return perim ** (1.0 / (n - 1)) * _sigma1(n, eps)


def optimal_eps(n: int) -> tuple[float, float]:
    """Maximize scale_invariant over (0, 1) by golden-section search.

    n is validated once; every evaluation then takes the unchecked core, the
    coarse scan in one call on its whole grid.

    A coarse scan brackets the maximum first; the golden-section interval is
    then shrunk below OPTIMAL_EPS_TOL.  Raises NonConvergenceError if the
    scan does not see the interior single-peak shape (rather than guessing).
    """
    _check_n(n)
    grid_n = 256
    hi_cap = 1.0 - 1e-9
    xs = np.arange(grid_n) * hi_cap / (grid_n - 1)
    ys = _scale_invariant(n, xs)
    i_best = int(np.argmax(ys))
    if i_best == 0 or i_best == grid_n - 1:
        raise NonConvergenceError(
            "coarse scan found no interior maximum of the normalized eigenvalue"
        )
    lo, hi = float(xs[i_best - 1]), float(xs[i_best + 1])

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = _scale_invariant(n, x1), _scale_invariant(n, x2)
    while hi - lo > OPTIMAL_EPS_TOL:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = _scale_invariant(n, x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = _scale_invariant(n, x1)
    eps_star = 0.5 * (lo + hi)
    value = float(_scale_invariant(n, eps_star))
    if not (value > _scale_invariant(n, 0.0) and value > ys[-1]):
        raise NonConvergenceError(
            "golden-section maximum does not dominate the endpoint values"
        )
    return eps_star, value

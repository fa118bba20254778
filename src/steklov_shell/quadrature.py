"""Deterministic adaptive Gauss-Legendre quadrature.

One fixed high-order rule (16 nodes) is compared against an embedded
lower-order evaluation (8 nodes) on every interval; intervals whose
discrepancy exceeds their share of the tolerance are bisected.  One
tolerance, ``tol`` (``QUAD_TOL`` by default), is both the absolute and the
relative tolerance.  All integrands here are analytic on the integration
interval, so convergence is fast and the error estimate is sharply
conservative.

Integrands must accept a numpy array of abscissae and return an array of
values (scalar-only callables can be wrapped with ``np.vectorize``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import roots_legendre

from .errors import NonConvergenceError

MAX_INTERVALS = 2**16
QUAD_TOL = 1e-12
MIN_TOL = float(np.finfo(float).eps)  # double precision meets no smaller tolerance


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre nodes and weights on (-1, 1).

    Exact for polynomials of degree <= 2*order - 1; weights sum to 2 and
    nodes are symmetric about 0.  node_array and weight_array (computed, not
    passed) are read-only array copies of the tuples, built once so that
    apply, which runs on every panel, converts nothing.
    """

    order: int
    nodes: tuple[float, ...]
    weights: tuple[float, ...]
    node_array: np.ndarray = field(init=False, repr=False, compare=False)
    weight_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, values in (("node_array", self.nodes), ("weight_array", self.weights)):
            array = np.array(values, dtype=float)
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    def apply(self, f, lo: float, hi: float) -> float:
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        x = mid + half * self.node_array
        return half * float(np.dot(self.weight_array, f(x)))


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_estimate: float
    subdivisions: int


@lru_cache(maxsize=None)
def gauss_legendre_rule(order: int) -> QuadratureRule:
    """Nodes and weights for the given order, computed once and cached."""
    if order < 2:
        raise ValueError("rule order must be at least 2")
    x, w = roots_legendre(order)
    return QuadratureRule(order=order, nodes=tuple(x), weights=tuple(w))


def integrate(f, lo: float, hi: float, tol: float = QUAD_TOL) -> QuadResult:
    """Adaptive bisection integral of f over [lo, hi].

    tol is both the absolute and the relative tolerance: the accepted value
    satisfies |value - integral| <= max(tol, tol*|value|) for integrands
    smooth on [lo, hi], up to rounding: a panel whose error estimate is
    within 8 * MIN_TOL of its own value is accepted, since bisection does not
    reduce rounding (the roundoff test of QUADPACK, Piessens et al., 1983).
    So a tol just above machine epsilon is met instead of running to the
    subdivision cap.  Deterministic: identical inputs produce
    bit-identical results (intervals are processed in a fixed order and
    summed left to right).

    Raises ValueError for a NaN or infinite bound, for hi < lo and for tol
    below MIN_TOL, machine epsilon, and NonConvergenceError if more than
    2^16 intervals are needed.
    """
    # Written as "not inside" so that NaN, which compares false, is refused.
    if not -math.inf < lo <= hi < math.inf:
        raise ValueError("integration bounds must be finite and satisfy lo <= hi")
    if not MIN_TOL <= tol < math.inf:
        raise ValueError(f"tolerance must be finite and at least machine epsilon {MIN_TOL:.17g}")
    if hi == lo:
        return QuadResult(0.0, 0.0, 0)

    high = gauss_legendre_rule(16)
    low = gauss_legendre_rule(8)
    span = hi - lo

    # The high-order estimate of the whole interval, the first panel, seeds
    # the relative tolerance.  Each panel carries its high-order value on the
    # stack, so the integrand is evaluated once per rule per panel.
    whole = high.apply(f, lo, hi)
    scale = max(tol, tol * abs(whole))

    stack = [(lo, hi, whole)]
    accepted: list[tuple[float, float, float]] = []  # (lo, value, err)
    count = 1
    while stack:
        a, b, v_high = stack.pop()
        err = abs(v_high - low.apply(f, a, b))
        # Accept a panel within its share of the tolerance or at its rounding level.
        if (
            err <= scale * (b - a) / span
            or err <= 8.0 * MIN_TOL * abs(v_high)
            or (b - a) < 1e-14 * span
        ):
            accepted.append((a, v_high, err))
        else:
            if count + 2 > MAX_INTERVALS:
                raise NonConvergenceError(
                    "quadrature exceeded the subdivision cap "
                    f"({MAX_INTERVALS} intervals) before reaching tolerance"
                )
            m = 0.5 * (a + b)
            # LIFO with right half pushed first: left-to-right processing.
            stack.append((m, b, high.apply(f, m, b)))
            stack.append((a, m, high.apply(f, a, m)))
            count += 2

    accepted.sort(key=lambda item: item[0])
    value = 0.0
    err_total = 0.0
    for _, v, e in accepted:
        value += v
        err_total += e
    return QuadResult(value=value, error_estimate=err_total, subdivisions=len(accepted))

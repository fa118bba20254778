"""Deterministic adaptive Gauss-Legendre quadrature.

On every interval a 16-node Gauss-Legendre rule is compared against a
separate 8-node one; intervals whose discrepancy exceeds their share of the
tolerance are bisected.  Gauss-Legendre rules are not nested, so the two
share no node and each interval costs 24 integrand evaluations.  One
tolerance, ``tol`` (``QUAD_TOL`` by default), is both the absolute and the
relative tolerance.  All integrands here are analytic on the integration
interval, so convergence is fast and the error estimate is sharply
conservative.

The intervals are bisected one level at a time: the integrand is called
once per level, on a flat 1-D array holding every pending interval's 24
nodes, so it must accept an array of any length and act elementwise,
returning one value per abscissa (scalar-only callables can be wrapped with
``np.vectorize``).  Each interval's two rule values are dot products over
its own nodes, not one matrix-vector product over the level, which would
sum in another order and change the last bits of the result.
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
    subdivision cap.

    The panels are bisected one level at a time (Gander & Gautschi, BIT 40,
    2000): f is called once per level, on one flat 1-D array of any length
    holding each pending panel's 16 high-rule nodes then its 8 low-rule
    nodes, so f must act elementwise.  Each rule value is the dot product of
    the weights with that panel's own slice, as QuadratureRule.apply computes
    it; a matrix-vector product over the level would sum in another order
    and change the last bits.  Deterministic: identical inputs produce
    bit-identical results, and the accepted panels are summed left to right.

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
    nodes = np.concatenate((high.node_array, low.node_array))
    span = hi - lo

    # The pending panels of one level, left to right: bounds and the index j
    # of the panel among the 2^depth panels of a uniform bisection.
    panels = [(lo, hi, 0)]
    depth = 0
    scale = None
    accepted = []  # (depth, j, value, err)
    count = 1
    while panels:
        half = [0.5 * (b - a) for a, b, _ in panels]
        mid = [0.5 * (b + a) for a, b, _ in panels]
        x = np.array(mid)[:, None] + np.array(half)[:, None] * nodes
        values = np.asarray(f(x.ravel())).reshape(-1, nodes.size)
        children = []
        for (a, b, j), h, m, row in zip(panels, half, mid, values):
            v_high = h * float(np.dot(high.weight_array, row[:16]))
            if scale is None:
                # The high-order estimate of the whole interval seeds the relative tolerance.
                scale = max(tol, tol * abs(v_high))
            err = abs(v_high - h * float(np.dot(low.weight_array, row[16:])))
            # Accept a panel within its share of the tolerance or at its rounding level.
            if (
                err <= scale * (b - a) / span
                or err <= 8.0 * MIN_TOL * abs(v_high)
                or (b - a) < 1e-14 * span
            ):
                accepted.append((depth, j, v_high, err))
            else:
                children += [(a, m, 2 * j), (m, b, 2 * j + 1)]
        if count + len(children) > MAX_INTERVALS:
            raise NonConvergenceError(
                "quadrature exceeded the subdivision cap "
                f"({MAX_INTERVALS} intervals) before reaching tolerance"
            )
        count += len(children)
        panels = children
        depth += 1

    # Panel (depth k, index j) starts at lo + j * 2^-k * span: order by j * 2^(depth - k).
    accepted.sort(key=lambda panel: panel[1] << (depth - panel[0]))
    value = 0.0
    err_total = 0.0
    for _, _, v, e in accepted:
        value += v
        err_total += e
    return QuadResult(value=value, error_estimate=err_total, subdivisions=len(accepted))

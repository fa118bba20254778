"""Deterministic adaptive Gauss-Legendre quadrature, over one interval or a batch.

On every interval a 16-node Gauss-Legendre rule is compared against a
separate 8-node one; intervals whose discrepancy exceeds their share of the
tolerance are bisected.  Gauss-Legendre rules are not nested, so the two
share no node and each interval costs 24 integrand evaluations.  One
tolerance, ``tol`` (``QUAD_TOL`` by default), is both the absolute and the
relative tolerance.  All integrands here are analytic on the integration
interval, so convergence is fast and the error estimate is sharply
conservative.

One adaptive loop, integrate_batch, integrates a batch of intervals; integrate
is its one-interval case.  The intervals are bisected one level at a time:
the integrand is called once per level, on a flat 1-D array holding the 24
nodes of every pending panel of every interval (with each node's interval
index, for a batch), so it must accept an array of any length and act
elementwise, returning one value per abscissa (scalar-only callables can be
wrapped with ``np.vectorize``).  Each panel's two rule values are dot
products over its own nodes, not one matrix-vector product over the level,
which would sum in another order and change the last bits of the result; so
an interval's result is the same to the bit alone or in any batch.
"""

from __future__ import annotations

import math
from collections import Counter
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


@lru_cache(maxsize=None)
def _panel_rule():
    """A panel's 16 high-rule then 8 low-rule nodes on (-1, 1), and each rule's weights' dot.

    ndarray.dot is np.dot without the dispatch through __array_function__.
    """
    high = gauss_legendre_rule(16)
    low = gauss_legendre_rule(8)
    nodes = np.concatenate((high.node_array, low.node_array))
    return nodes, high.weight_array.dot, low.weight_array.dot


def integrate(f, lo: float, hi: float, tol: float = QUAD_TOL) -> QuadResult:
    """Adaptive bisection integral of f over [lo, hi]: integrate_batch on one interval.

    tol is both the absolute and the relative tolerance: the accepted value
    satisfies |value - integral| <= max(tol, tol*|value|) for integrands
    smooth on [lo, hi], up to rounding: a panel whose error estimate is
    within 8 * MIN_TOL of its own value is accepted, since bisection does not
    reduce rounding (the roundoff test of QUADPACK, Piessens et al., 1983).
    So a tol just above machine epsilon is met instead of running to the
    subdivision cap.

    f is called once per level of the bisection, on one flat 1-D array of
    any length holding each pending panel's 16 high-rule nodes then its 8
    low-rule nodes, so f must act elementwise.  Each panel's two rule values
    are dot products of the weights with its own slice of f's values, as
    QuadratureRule.apply computes them, and the accepted panels are summed
    left to right.  Deterministic: identical inputs produce bit-identical
    results, and the same bits as this interval in any integrate_batch.

    Raises ValueError for a NaN or infinite bound, for hi < lo and for tol
    below MIN_TOL, machine epsilon, and NonConvergenceError if more than
    2^16 intervals are needed.
    """
    return integrate_batch(lambda x, _: f(x), ((lo, hi),), tol)[0]


def integrate_batch(f, bounds, tol: float = QUAD_TOL) -> list[QuadResult]:
    """integrate over each interval of bounds, an iterable of (lo, hi), in one adaptive loop.

    The panels of every interval are bisected one level at a time (Gander &
    Gautschi, BIT 40, 2000): f(x, owner) is called once per level, on one
    flat 1-D array x holding each pending panel's 16 high-rule nodes then its
    8 low-rule nodes, interval by interval, and an integer array owner giving
    each node's index in bounds.  A panel is accepted or bisected by
    integrate's test against its own interval's span and tolerance scale,
    max(tol, tol * |v|) with v the estimate on the whole interval.  Its rule
    values are dot products of the weights with its own slice of f's values
    (a matrix-vector product over the level would sum in another order and
    change the last bits), and each interval sums its accepted panels left
    to right.  So each result is bit-identical to integrate's over that
    interval alone, with f(x, i) as the integrand.

    Returns one QuadResult per interval, in order; a zero-width interval
    gives QuadResult(0.0, 0.0, 0).  Raises as integrate does if any interval
    would: ValueError for a bound or tol it refuses, NonConvergenceError once
    one interval needs more than 2^16 panels.
    """
    spans = []
    accepted = []  # per interval: (start, value, err)
    # The pending panels of one level, interval by interval and left to right,
    # as (start, end, index of the interval).
    panels = []
    for i, (lo, hi) in enumerate(bounds):
        # Written as "not inside" so that NaN, which compares false, is refused.
        if not -math.inf < lo <= hi < math.inf:
            raise ValueError("integration bounds must be finite and satisfy lo <= hi")
        spans.append(hi - lo)
        accepted.append([])
        if hi != lo:
            panels.append((lo, hi, i))
    if not MIN_TOL <= tol < math.inf:
        raise ValueError(f"tolerance must be finite and at least machine epsilon {MIN_TOL:.17g}")

    nodes, dot_high, dot_low = _panel_rule()
    rounding = 8.0 * MIN_TOL
    scales = [0.0] * len(spans)  # set from each interval's whole-interval panel
    count = len(panels)  # panels made so far, in all intervals
    whole = True
    while panels:
        half_mid = [(0.5 * (b - a), 0.5 * (b + a)) for a, b, _ in panels]
        columns = np.array(half_mid)
        x = columns[:, :1] * nodes
        x += columns[:, 1:]
        owner = np.array([i for _, _, i in panels]).repeat(nodes.size)
        values = np.asarray(f(x.ravel(), owner)).reshape(-1, nodes.size)
        children = []
        for (a, b, i), (h, m), row in zip(panels, half_mid, values):
            v_high = h * float(dot_high(row[:16]))
            if whole:
                # The high-order estimate of the whole interval seeds the relative tolerance.
                scales[i] = max(tol, tol * abs(v_high))
            err = abs(v_high - h * float(dot_low(row[16:])))
            # Accept a panel within its share of the tolerance or at its rounding level.
            width = b - a
            if (
                err <= scales[i] * width / spans[i]
                or err <= rounding * abs(v_high)
                or width < 1e-14 * spans[i]
            ):
                accepted[i].append((a, v_high, err))
            else:
                children += [(a, m, i), (m, b, i)]
        count += len(children)
        if count > MAX_INTERVALS:
            # An interval with L accepted and Q pending panels has made 2L + 2Q - 1.
            pending = Counter(i for _, _, i in children)
            if any(2 * (len(accepted[i]) + q) - 1 > MAX_INTERVALS for i, q in pending.items()):
                raise NonConvergenceError(
                    "quadrature exceeded the subdivision cap "
                    f"({MAX_INTERVALS} intervals) before reaching tolerance"
                )
        panels = children
        whole = False

    results = []
    for panels in accepted:
        # The panels tile the interval, so their starts order them left to right.
        panels.sort()
        value = 0.0
        err_total = 0.0
        for _, v, e in panels:
            value += v
            err_total += e
        results.append(QuadResult(value, err_total, len(panels)))
    return results

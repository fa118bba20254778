"""Adaptive Gauss-Legendre quadrature."""

import math

import numpy as np
import pytest

from steklov_shell import quadrature, rayleigh, special
from steklov_shell.errors import NonConvergenceError
from steklov_shell.geometry import ShellConfig


class TestRule:
    def test_weights_sum_to_two(self):
        for order in (8, 16, 32):
            rule = quadrature.gauss_legendre_rule(order)
            assert abs(sum(rule.weights) - 2.0) < 1e-13

    def test_nodes_symmetric(self):
        for order in (8, 16):
            nodes = np.asarray(quadrature.gauss_legendre_rule(order).nodes)
            np.testing.assert_allclose(nodes, -nodes[::-1], atol=1e-15)
            assert np.all(nodes > -1) and np.all(nodes < 1)

    def test_weights_positive(self):
        assert all(w > 0 for w in quadrature.gauss_legendre_rule(16).weights)

    def test_monomial_exactness(self):
        rule = quadrature.gauss_legendre_rule(16)
        for j in range(32):
            exact = 0.0 if j % 2 else 2.0 / (j + 1)
            assert rule.apply(lambda x, j=j: x**j, -1, 1) == pytest.approx(exact, abs=1e-13)

    def test_arrays_are_read_only_copies_outside_eq_and_repr(self):
        rule = quadrature.gauss_legendre_rule(16)
        assert rule.node_array.tolist() == list(rule.nodes)
        assert rule.weight_array.tolist() == list(rule.weights)
        for array in (rule.node_array, rule.weight_array):
            with pytest.raises(ValueError):
                array[0] = 0.0
        twin = quadrature.QuadratureRule(rule.order, rule.nodes, rule.weights)
        assert twin == rule and hash(twin) == hash(rule)
        assert "array" not in repr(rule)

    def test_apply_matches_the_tuple_formula(self):
        # The cached arrays change no bit of a panel's value.
        rule = quadrature.gauss_legendre_rule(16)
        f = lambda x: np.exp(np.cos(3 * x))
        for lo, hi in ((0.0, 1.0), (0.3, 1.7), (-2.5, 0.125)):
            half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
            expected = half * float(np.dot(rule.weights, f(mid + half * np.asarray(rule.nodes))))
            assert rule.apply(f, lo, hi) == expected

    def test_cached_instance(self):
        assert quadrature.gauss_legendre_rule(16) is quadrature.gauss_legendre_rule(16)

    def test_rejects_tiny_order(self):
        with pytest.raises(ValueError):
            quadrature.gauss_legendre_rule(1)


class TestIntegrate:
    def test_sine(self):
        res = quadrature.integrate(np.sin, 0, math.pi)
        assert res.value == pytest.approx(2.0, abs=1e-12)
        assert res.error_estimate >= 0
        assert res.subdivisions >= 1

    def test_sine_squared_matches_wallis(self):
        res = quadrature.integrate(lambda t: np.sin(t) ** 2, 0, math.pi)
        assert res.value == pytest.approx(special.wallis(2), abs=1e-12)

    def test_planar_log_integral_vanishes(self):
        res = quadrature.integrate(
            lambda t: np.log(1 + 0.25 + np.cos(t)), 0, 2 * math.pi
        )
        assert abs(res.value) < 1e-10

    def test_empty_interval(self):
        res = quadrature.integrate(np.sin, 1.0, 1.0)
        assert res.value == 0.0

    def test_interval_additivity(self):
        f = lambda t: np.exp(np.cos(3 * t))
        whole = quadrature.integrate(f, 0, 2).value
        parts = quadrature.integrate(f, 0, 0.7).value + quadrature.integrate(f, 0.7, 2).value
        assert whole == pytest.approx(parts, abs=1e-11)

    def test_deterministic(self):
        f = lambda t: np.log(1 + 0.81 + 1.8 * np.cos(t))
        a = quadrature.integrate(f, 0, 2 * math.pi)
        b = quadrature.integrate(f, 0, 2 * math.pi)
        assert a.value == b.value
        assert a.error_estimate == b.error_estimate
        assert a.subdivisions == b.subdivisions

    def test_needs_subdivision_near_peak(self):
        res = quadrature.integrate(lambda t: 1.0 / (1e-4 + t * t), -1, 1)
        assert res.value == pytest.approx(2 / 1e-2 * math.atan(1 / 1e-2), rel=1e-10)
        assert res.subdivisions > 1

    def test_integrand_calls_per_panel(self):
        # A level's pending panels are evaluated together: 16 high-rule nodes
        # then 8 low-rule nodes per panel, in one call.
        calls = []

        def one(x):
            calls.append(x.copy())
            return np.ones_like(x)

        res = quadrature.integrate(one, 0.0, 1.0)
        assert res.subdivisions == 1
        assert [len(x) for x in calls] == [24]

        calls.clear()
        res = quadrature.integrate(lambda t: one(t) / (1e-4 + t * t), -1, 1)
        assert res.subdivisions == 30
        assert len(calls) == 10
        # Call k holds only panels of width 2 / 2^k, each once: the k-th level
        # of the bisection tree.
        nodes = quadrature.gauss_legendre_rule(16).node_array
        for k, x in enumerate(calls):
            panels = x.reshape(-1, 24)
            widths = 2.0 * (panels[:, 15] - panels[:, 0]) / (nodes[15] - nodes[0])
            np.testing.assert_allclose(widths, 2.0 / 2**k, rtol=1e-12)
            centers = 0.5 * (panels[:, 15] + panels[:, 0])
            assert len(np.unique(centers)) == len(panels)
        # A tree with P leaves has 2P - 1 panels, so none is evaluated twice.
        assert sum(len(x) for x in calls) == 24 * (2 * res.subdivisions - 1)

    def test_rejects_bad_bounds_and_tols(self):
        with pytest.raises(ValueError):
            quadrature.integrate(np.sin, 1.0, 0.0)
        for tol in (0.0, math.inf, math.nan, 1e-17):
            with pytest.raises(ValueError):
                quadrature.integrate(np.sin, 0.0, 1.0, tol=tol)

    @pytest.mark.parametrize("lo, hi", [
        (0.0, math.nan), (math.nan, 1.0), (0.0, math.inf), (-math.inf, 0.0),
    ])
    def test_rejects_non_finite_bounds(self, lo, hi):
        # Refused up front, not bisected to the subdivision cap.
        with pytest.raises(ValueError, match="finite"):
            quadrature.integrate(np.sin, lo, hi)

    def test_tolerance_at_rounding_level_is_met(self):
        # The integral vanishes, so tol acts as an absolute 1e-15, below the
        # rounding of the two rules on an integrand of size 10.  Panels at
        # their own rounding level are accepted instead of bisected to the cap.
        f = lambda t: (3.0 * np.sin(t) ** 2 - 4.0 * np.sin(t) ** 4) * math.log(20.0)
        res = quadrature.integrate(f, 0.0, math.pi, tol=1e-15)
        assert abs(res.value) < 1e-14
        assert res.subdivisions < 100

    def test_nonconvergence_on_unresolvable_oscillation(self):
        with pytest.raises(NonConvergenceError):
            quadrature.integrate(lambda t: np.sin(1e7 * t), 0, 2 * math.pi)


def _depth_first_integrate(f, lo, hi, tol=quadrature.QUAD_TOL):
    """The depth-first form of integrate: two integrand calls per panel.

    Kept as the reference the level-at-a-time loop must match bit for bit.
    """
    high = quadrature.gauss_legendre_rule(16)
    low = quadrature.gauss_legendre_rule(8)
    span = hi - lo
    whole = high.apply(f, lo, hi)
    scale = max(tol, tol * abs(whole))
    stack = [(lo, hi, whole)]
    accepted = []
    count = 1
    while stack:
        a, b, v_high = stack.pop()
        err = abs(v_high - low.apply(f, a, b))
        if (
            err <= scale * (b - a) / span
            or err <= 8.0 * quadrature.MIN_TOL * abs(v_high)
            or (b - a) < 1e-14 * span
        ):
            accepted.append((v_high, err))
        else:
            if count + 2 > quadrature.MAX_INTERVALS:
                raise NonConvergenceError(
                    "quadrature exceeded the subdivision cap "
                    f"({quadrature.MAX_INTERVALS} intervals) before reaching tolerance"
                )
            m = 0.5 * (a + b)
            stack.append((m, b, high.apply(f, m, b)))
            stack.append((a, m, high.apply(f, a, m)))
            count += 2
    value = 0.0
    err_total = 0.0
    for v, e in accepted:
        value += v
        err_total += e
    return quadrature.QuadResult(value=value, error_estimate=err_total, subdivisions=len(accepted))


def _fields(res):
    # Compared with == on floats: the value, the error estimate and the panel count, to the bit.
    return res.value, res.error_estimate, res.subdivisions


def _assert_bit_identical(f, lo, hi, tol=quadrature.QUAD_TOL):
    assert _fields(quadrature.integrate(f, lo, hi, tol)) == _fields(_depth_first_integrate(f, lo, hi, tol))


class TestBitIdentity:
    """The level-at-a-time loop reproduces the depth-first loop exactly."""

    @pytest.mark.parametrize("n, a, d", [(2, 0.15, 0.8), (3, 0.99, 0.005), (6, 0.5, 0.2)])
    def test_rayleigh_integrands(self, monkeypatch, n, a, d):
        seen = []

        def record(f, lo, hi, tol=quadrature.QUAD_TOL):
            seen.append((f, lo, hi, tol))
            return quadrature.integrate(f, lo, hi, tol)

        monkeypatch.setattr(rayleigh, "integrate", record)
        cfg = ShellConfig(n, a, d)
        rayleigh.steklov_bound(cfg)
        rayleigh.ds_bound(cfg)
        assert len(seen) == 8  # w1, w2, w3, v1, v2, v3, the mixed energy and mass
        for f, lo, hi, tol in seen:
            _assert_bit_identical(f, lo, hi, tol)

    def test_near_peak(self):
        _assert_bit_identical(lambda t: 1.0 / (1e-4 + t * t), -1, 1)

    def test_rounding_level_acceptance(self):
        f = lambda t: (3.0 * np.sin(t) ** 2 - 4.0 * np.sin(t) ** 4) * math.log(20.0)
        _assert_bit_identical(f, 0.0, math.pi, tol=1e-15)

    def test_nested_integrand(self):
        # Shaped like verify.energy_direct_2d: the outer integrand loops over
        # its abscissae and integrates in r at each, with the same routine.
        def nested(integrate):
            def outer(thetas):
                out = np.empty_like(thetas)
                for i, th in enumerate(thetas):
                    R = 1.0 + 0.3 * math.cos(th)
                    out[i] = integrate(lambda r: r * (1.0 + 0.2 / r**2) ** 2, 0.4, R, 1e-13).value
                return out

            return integrate(outer, 0.0, math.pi)

        assert _fields(nested(quadrature.integrate)) == _fields(nested(_depth_first_integrate))

    def test_subdivision_cap_raises_the_same_error(self):
        f = lambda t: np.sin(1e7 * t)
        with pytest.raises(NonConvergenceError) as got:
            quadrature.integrate(f, 0, 2 * math.pi)
        with pytest.raises(NonConvergenceError) as want:
            _depth_first_integrate(f, 0, 2 * math.pi)
        assert str(got.value) == str(want.value)

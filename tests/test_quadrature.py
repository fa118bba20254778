"""Adaptive Gauss-Legendre quadrature."""

import math

import numpy as np
import pytest

from steklov_shell import quadrature, special
from steklov_shell.errors import NonConvergenceError


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
        # Each panel is evaluated once by the 16-node and once by the 8-node rule.
        calls = []

        def one(x):
            calls.append(len(x))
            return np.ones_like(x)

        res = quadrature.integrate(one, 0.0, 1.0)
        assert res.subdivisions == 1
        assert calls == [16, 8]

        calls.clear()
        res = quadrature.integrate(lambda t: one(t) / (1e-4 + t * t), -1, 1)
        assert res.subdivisions > 1
        assert len(calls) == 2 * (2 * res.subdivisions - 1)

    def test_rejects_bad_bounds_and_tols(self):
        with pytest.raises(ValueError):
            quadrature.integrate(np.sin, 1.0, 0.0)
        for tol in (0.0, math.inf, math.nan, 1e-17):
            with pytest.raises(ValueError):
                quadrature.integrate(np.sin, 0.0, 1.0, tol=tol)

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

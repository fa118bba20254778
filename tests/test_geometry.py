"""Boundary geometry of the eccentric shell."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steklov_shell import geometry
from steklov_shell.geometry import ShellConfig


class TestShellConfig:
    def test_accepts_valid(self):
        cfg = ShellConfig(3, 0.4, 0.25)
        assert (cfg.n, cfg.a, cfg.d) == (3, 0.4, 0.25)

    def test_default_concentric(self):
        assert ShellConfig(2, 0.5).d == 0.0

    @pytest.mark.parametrize(
        "n,a,d",
        [(1, 0.5, 0.0), (2, 0.0, 0.0), (2, 1.0, 0.0), (2, 1.2, 0.0),
         (2, 0.5, 0.5), (2, 0.5, -0.1), (2, 0.3, 0.7)],
    )
    def test_rejects_invalid(self, n, a, d):
        with pytest.raises(ValueError):
            ShellConfig(n, a, d)


class TestRadius:
    def test_concentric_is_unit(self):
        assert geometry.radius(0.0, 1.234) == 1.0

    def test_right_angle(self):
        assert geometry.radius(0.3, math.pi / 2) == pytest.approx(math.sqrt(0.91), rel=1e-15)

    def test_collinear(self):
        assert geometry.radius(0.3, 0.0) == pytest.approx(1.3, rel=1e-15)

    @given(
        st.floats(min_value=0.0, max_value=0.999),
        st.floats(min_value=0.0, max_value=math.pi),
    )
    @settings(deadline=None, max_examples=300)
    def test_law_of_cosines(self, d, theta):
        R = geometry.radius(d, theta)
        assert abs(1.0 - d * d - R * R + 2 * d * R * math.cos(theta)) < 1e-12

    def test_range(self):
        ts = np.linspace(0, math.pi, 400)
        for d in (0.1, 0.5, 0.9):
            R = geometry.radius(d, ts)
            assert np.all(R >= 1 - d - 1e-15)
            assert np.all(R <= 1 + d + 1e-15)

    def test_strictly_decreasing_for_positive_offset(self):
        ts = np.linspace(0, math.pi, 500)
        for d in (0.05, 0.4, 0.95):
            assert np.all(np.diff(geometry.radius(d, ts)) < 0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            geometry.radius(0.3, -0.1)
        with pytest.raises(ValueError):
            geometry.radius(0.3, math.pi + 0.1)
        with pytest.raises(ValueError):
            geometry.radius(1.0, 1.0)


class TestRadiusDeriv:
    def test_zero_cases(self):
        assert geometry.radius_deriv(0.0, 0.7) == 0.0
        assert geometry.radius_deriv(0.3, 0.0) == 0.0

    def test_finite_difference_oracle(self):
        # frozen central difference of radius at (d, theta) = (0.5, 1.0)
        assert geometry.radius_deriv(0.5, 1.0) == pytest.approx(-0.5460267881174374, abs=1e-8)

    def test_finite_difference_grid(self):
        h = 1e-6
        for d in (0.2, 0.6, 0.9):
            for t in np.linspace(0.05, math.pi - 0.05, 30):
                fd = (geometry.radius(d, t + h) - geometry.radius(d, t - h)) / (2 * h)
                assert geometry.radius_deriv(d, t) == pytest.approx(fd, abs=1e-8)


class TestArcFactor:
    def test_concentric(self):
        assert geometry.arc_factor(0.0, 0.7) == 1.0

    def test_right_angle_is_one(self):
        # R^2 + R'^2 = R^2 / (1 - d^2 sin^2) collapses to 1 at theta = pi/2
        assert geometry.arc_factor(0.3, math.pi / 2) == pytest.approx(1.0, rel=1e-14)

    def test_componentwise_oracle(self):
        for d, t in [(0.5, 0.7), (0.3, 2.0), (0.9, 1.2)]:
            R = geometry.radius(d, t)
            Rp = geometry.radius_deriv(d, t)
            assert geometry.arc_factor(d, t) == pytest.approx(
                math.sqrt(R * R + Rp * Rp), rel=1e-12
            )

    @given(
        st.floats(min_value=0.0, max_value=0.99),
        st.floats(min_value=0.0, max_value=math.pi),
    )
    @settings(deadline=None, max_examples=300)
    def test_both_closed_forms_agree(self, d, theta):
        R = geometry.radius(d, theta)
        Rp = geometry.radius_deriv(d, theta)
        assert geometry.arc_factor(d, theta) == pytest.approx(
            math.sqrt(R * R + Rp * Rp), abs=1e-12, rel=1e-12
        )


class TestAngularWeights:
    def test_phi_constant_term_convention(self):
        # sin^0 == 1 even at theta = 0
        assert geometry.phi_weight(2, 0.0) == 1.0

    def test_phi_at_right_angle(self):
        assert geometry.phi_weight(3, math.pi / 2) == pytest.approx(-1.0, rel=1e-15)

    def test_phi_symmetric(self):
        ts = np.linspace(0, math.pi, 101)
        for n in range(2, 9):
            np.testing.assert_allclose(
                geometry.phi_weight(n, ts), geometry.phi_weight(n, math.pi - ts), atol=1e-14
            )

    def test_phi_integral_vanishes(self):
        from steklov_shell.quadrature import integrate

        for n in range(2, 9):
            val = integrate(lambda t, n=n: geometry.phi_weight(n, t), 0, math.pi).value
            assert abs(val) < 1e-10

    def test_psi_planar_constant(self):
        assert geometry.psi_weight(2, 0.5) == 1.0

    def test_psi_at_right_angle(self):
        assert geometry.psi_weight(3, math.pi / 2) == pytest.approx(5.0, rel=1e-15)

    def test_psi_direct_evaluation_oracle(self):
        # frozen direct evaluation 8 sin^4(1.1) + 3 sin^2(1.1)
        assert geometry.psi_weight(4, 1.1) == pytest.approx(7.429423274925984, rel=1e-14)

    def test_psi_nonnegative(self):
        ts = np.linspace(0, math.pi, 1001)
        for n in range(2, 10):
            assert np.all(geometry.psi_weight(n, ts) >= 0)

    def test_reject_low_dimension(self):
        with pytest.raises(ValueError):
            geometry.phi_weight(1, 0.5)
        with pytest.raises(ValueError):
            geometry.psi_weight(1, 0.5)



class TestRangeChecks:
    # The public functions validate their inputs; rayleigh's integrands call
    # the unchecked formulas behind them, whose nodes lie in [0, pi].
    THETA_IDS = ["radius", "radius_deriv", "arc_factor", "phi_weight", "psi_weight"]
    THETA_FUNCTIONS = [
        lambda t: geometry.radius(0.3, t),
        lambda t: geometry.radius_deriv(0.3, t),
        lambda t: geometry.arc_factor(0.3, t),
        lambda t: geometry.phi_weight(3, t),
        lambda t: geometry.psi_weight(3, t),
    ]

    @pytest.mark.parametrize(
        "fn", [geometry.radius, geometry.radius_deriv, geometry.arc_factor], ids=THETA_IDS[:3]
    )
    @pytest.mark.parametrize("d", [-0.1, 1.0, 1.5])
    def test_offset_outside_unit_interval(self, fn, d):
        with pytest.raises(ValueError):
            fn(d, 1.0)

    @pytest.mark.parametrize("fn", THETA_FUNCTIONS, ids=THETA_IDS)
    @pytest.mark.parametrize(
        "theta",
        [-0.1, math.pi + 0.1, np.array([0.0, 1.0, math.pi + 1e-9]), math.nan,
         np.array([0.0, math.nan, 1.0])],
        ids=["below", "above", "array", "nan", "nan_array"],
    )
    def test_theta_outside_zero_pi(self, fn, theta):
        with pytest.raises(ValueError):
            fn(theta)

    @pytest.mark.parametrize(
        "fn", [geometry.phi_weight, geometry.psi_weight], ids=THETA_IDS[3:]
    )
    @pytest.mark.parametrize("n", [1, 2.5])
    def test_dimension_is_an_integer_at_least_two(self, fn, n):
        # The rule and message of ShellConfig.
        with pytest.raises(ValueError, match="dimension must be an integer >= 2"):
            fn(n, 0.3)
        with pytest.raises(ValueError, match="dimension must be an integer >= 2"):
            geometry.ShellConfig(n, 0.5)

    @pytest.mark.parametrize("public, formula, first", [
        (geometry.radius, geometry._radius, 0.3),
        (geometry.arc_factor, geometry._arc_factor, 0.3),
        (geometry.phi_weight, geometry._phi_weight, 3),
        (geometry.psi_weight, geometry._psi_weight, 3),
    ], ids=["radius", "arc_factor", "phi_weight", "psi_weight"])
    def test_formula_is_the_checked_arithmetic(self, public, formula, first):
        ts = np.linspace(0.0, math.pi, 101)
        assert np.array_equal(public(first, ts), formula(first, ts))

"""Wallis integrals, harmonic dimension counts, and the series identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from steklov_shell import special
from steklov_shell.errors import NonConvergenceError


class TestWallis:
    def test_base_values(self):
        assert special.wallis(0) == pytest.approx(math.pi, abs=1e-15)
        assert special.wallis(1) == 2.0

    def test_one_recursion_step(self):
        assert special.wallis(2) == pytest.approx(math.pi / 2, rel=1e-15)

    def test_against_quadrature_oracle(self):
        # frozen from scipy.integrate.quad of sin^7 over [0, pi]
        assert special.wallis(7) == pytest.approx(0.9142857142857144, abs=1e-12)
        got, _ = quad(lambda t: np.sin(t) ** 7, 0, np.pi)
        assert special.wallis(7) == pytest.approx(got, abs=1e-12)

    @pytest.mark.parametrize("p", range(0, 61))
    def test_recursion_consistency(self, p):
        lhs = special.wallis(p + 2) * (p + 2)
        rhs = special.wallis(p) * (p + 1)
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_closed_forms_even_odd(self):
        for k in range(0, 12):
            even = math.pi * math.comb(2 * k, k) / 4**k
            odd = 2 * (2**k * math.factorial(k)) ** 2 / math.factorial(2 * k + 1)
            assert special.wallis(2 * k) == pytest.approx(even, rel=1e-14)
            assert special.wallis(2 * k + 1) == pytest.approx(odd, rel=1e-14)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            special.wallis(-1)


class TestWallisTable:
    def test_invariants(self):
        tab = special.wallis_table(60)
        assert len(tab.values) == 61
        assert tab.values[0] == pytest.approx(math.pi, abs=1e-16)
        assert tab.values[1] == 2.0
        vals = np.asarray(tab.values)
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) < 0)
        for p in range(59):
            assert tab.values[p + 2] == pytest.approx(
                (p + 1) / (p + 2) * tab.values[p], rel=1e-15
            )

    def test_matches_wallis(self):
        tab = special.wallis_table(30)
        for p in range(31):
            assert tab.values[p] == pytest.approx(special.wallis(p), rel=1e-14)


class TestHarmonicDim:
    def test_known_values(self):
        assert special.harmonic_dim(3, 0) == 1
        assert special.harmonic_dim(3, 1) == 3
        # frozen from the binomial difference C(4,2) - C(2,2)
        assert special.harmonic_dim(3, 2) == 5

    def test_first_orders_any_dimension(self):
        for n in range(2, 9):
            assert special.harmonic_dim(n, 0) == 1
            assert special.harmonic_dim(n, 1) == n

    @given(st.integers(min_value=1, max_value=200))
    @settings(deadline=None)
    def test_planar_pairs(self, k):
        assert special.harmonic_dim(2, k) == 2

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            special.harmonic_dim(1, 0)
        with pytest.raises(ValueError):
            special.harmonic_dim(3, -1)


class TestSphereArea:
    def test_low_dimensions(self):
        assert special.sphere_area(2) == pytest.approx(2 * math.pi, rel=1e-15)
        assert special.sphere_area(3) == pytest.approx(4 * math.pi, rel=1e-15)
        assert special.sphere_area(4) == pytest.approx(2 * math.pi**2, rel=1e-14)


class TestCatalanSeries:
    def test_empty_sum(self):
        assert special.catalan_series(0.0) == 0.0

    def test_closed_form_point(self):
        expected = 2 * math.log(2 / (1 + math.sqrt(0.6)))
        assert special.catalan_series(0.1) == pytest.approx(expected, abs=1e-12)

    def test_direct_summation_oracle(self):
        # frozen from a 200-term math.comb sum at x = 0.2
        assert special.catalan_series(0.2) == pytest.approx(0.6470142623148932, abs=1e-12)

    def test_closed_form_grid(self):
        for x in np.linspace(-0.24, 0.24, 20):
            expected = 2 * math.log(2 / (1 + math.sqrt(1 - 4 * x)))
            assert special.catalan_series(float(x)) == pytest.approx(expected, abs=1e-10)

    def test_domain_error(self):
        for x in (0.25, -0.25, 0.7):
            with pytest.raises(ValueError):
                special.catalan_series(x)


class TestWallisEvenSeries:
    def test_only_first_term(self):
        assert special.wallis_even_series(0.0) == pytest.approx(math.pi, abs=1e-16)

    def test_closed_form_point(self):
        assert special.wallis_even_series(0.5) == pytest.approx(
            math.pi / math.sqrt(0.75), abs=1e-12
        )

    def test_direct_summation_oracle(self):
        # frozen from direct summation with I_2k = pi * C(2k,k) / 4^k at x = 0.9
        assert special.wallis_even_series(0.9) == pytest.approx(7.2073078414566805, abs=1e-10)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            special.wallis_even_series(1.0)


class TestLogSeriesIdentity:
    def test_vanishes_at_zero(self):
        assert special.log_series_identity(0.0) == 0.0

    def test_closed_form_point(self):
        assert special.log_series_identity(0.5) == pytest.approx(
            2 * math.pi * math.log(1.25), abs=1e-10
        )

    def test_quadrature_rearrangement_oracle(self):
        # 2*pi*ln(1+d^2) minus the planar log integral (which is 0); frozen
        # from scipy.integrate.quad at d = 0.3
        assert special.log_series_identity(0.3) == pytest.approx(0.5414704348283658, abs=1e-10)

    def test_closed_form_grid(self):
        for d in np.linspace(0.0, 0.95, 20):
            expected = 2 * math.pi * math.log(1 + d * d)
            assert special.log_series_identity(float(d)) == pytest.approx(expected, abs=1e-10)

    def test_domain_error(self):
        for d in (1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                special.log_series_identity(d)


def test_series_truncation_cap():
    with pytest.raises(NonConvergenceError):
        special._sum_adaptive(iter(lambda: 1.0, None))

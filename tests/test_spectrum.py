"""Exact concentric spectrum: quadratic roots, closed forms, orderings."""

import math

import numpy as np
import pytest

from steklov_shell import shell_spectrum as sp
from steklov_shell import special
from steklov_shell.errors import NonConvergenceError

NA_GRID = [(n, a) for n in (2, 3, 4, 5, 6) for a in (0.05, 0.25, 0.5, 0.75, 0.95)]


class TestQuadraticCoeffs:
    def test_printed_coefficients(self):
        q = sp.quadratic_coeffs(2, 0.5, 1)
        assert q.A == pytest.approx(0.375, rel=1e-15)
        assert q.C == pytest.approx(0.75, rel=1e-15)

    def test_leading_coefficient_positive(self):
        for n, a in NA_GRID:
            assert sp.quadratic_coeffs(n, a, 1).A > 0

    def test_discriminant_dominates_square(self):
        q = sp.quadratic_coeffs(3, 0.4, 2)
        assert q.discriminant > (3 - 0.8) ** 2

    def test_discriminant_positive_on_grid(self):
        for n, a in NA_GRID:
            for k in (1, 2, 10, 50):
                q = sp.quadratic_coeffs(n, a, k)
                assert q.discriminant >= ((k + n - 2) - k * a) ** 2 - 1e-9

    def test_rejects_bad_arguments(self):
        for n, a, k in [(1, 0.5, 1), (2, 0.0, 1), (2, 1.0, 1), (2, 0.5, 0)]:
            with pytest.raises(ValueError):
                sp.quadratic_coeffs(n, a, k)


class TestDeltaPair:
    def test_polynomial_root_oracle(self):
        # frozen from numpy.roots on the order-1 quadratic at (2, 0.5)
        lower, upper = sp.delta_pair(2, 0.5, 1)
        assert lower == pytest.approx(0.4384471871911697, rel=1e-12)
        assert upper == pytest.approx(4.561552812808831, rel=1e-12)

    def test_polynomial_root_oracle_high_order(self):
        # frozen from numpy.roots at (3, 0.3, k=5)
        lower, upper = sp.delta_pair(3, 0.3, 5)
        assert lower == pytest.approx(4.9999718534714015, rel=1e-11)
        assert upper == pytest.approx(20.00011258674818, rel=1e-11)

    def test_runtime_root_oracle(self):
        for n, a, k in [(2, 0.5, 1), (4, 0.7, 3), (6, 0.2, 2)]:
            q = sp.quadratic_coeffs(n, a, k)
            roots = np.sort(np.roots([q.A, q.B, q.C]))
            lower, upper = sp.delta_pair(n, a, k)
            assert lower == pytest.approx(float(roots[0]), rel=1e-11)
            assert upper == pytest.approx(float(roots[1]), rel=1e-11)

    def test_vieta(self):
        for n, a in NA_GRID:
            for k in (1, 3, 20):
                q = sp.quadratic_coeffs(n, a, k)
                lower, upper = sp.delta_pair(n, a, k)
                assert lower * upper == pytest.approx(q.C / q.A, rel=1e-12)
                assert lower + upper == pytest.approx(-q.B / q.A, rel=1e-11)

    def test_ordered_positive(self):
        for n, a in NA_GRID:
            lower, upper = sp.delta_pair(n, a, 1)
            assert 0 < lower < upper


class TestDelta0:
    def test_planar_value(self):
        assert sp.delta0(2, 0.5) == pytest.approx(4.328085122666891, rel=1e-14)

    def test_three_dimensional_value(self):
        assert sp.delta0(3, 0.5) == pytest.approx(5.0, rel=1e-14)

    def test_dominates_sigma1(self):
        for n, a in NA_GRID:
            assert sp.sigma1_closed_form(n, a) < sp.delta0(n, a)


class TestSigma1ClosedForm:
    def test_matches_quadratic_root(self):
        for n, a in NA_GRID:
            s1 = sp.sigma1_closed_form(n, a)
            assert abs(s1 - sp.delta_pair(n, a, 1)[0]) / s1 < 1e-12

    def test_small_hole_limit_is_ball_value(self):
        for n in (2, 3, 4):
            assert sp.sigma1_closed_form(n, 1e-9) == pytest.approx(1.0, abs=1e-6)

    def test_below_ball_value(self):
        assert sp.sigma1_closed_form(3, 0.2) < 1.0
        for n, a in NA_GRID:
            assert sp.sigma1_closed_form(n, a) < 1.0


class TestMuSigma:
    def test_frozen_value(self):
        # (1 - sigma1)/(1 + sigma1) at the root (5 - sqrt 17)/2
        assert sp.mu_sigma(2, 0.5) == pytest.approx(0.3903882032022076, rel=1e-13)

    def test_vanishes_with_hole(self):
        assert sp.mu_sigma(3, 1e-9) == pytest.approx(0.0, abs=1e-6)

    def test_range(self):
        for n, a in NA_GRID:
            assert 0 < sp.mu_sigma(n, a) < 1 / (n - 1)

    def test_consistent_with_radial_coefficient(self):
        for n, a in NA_GRID:
            assert sp.mu_sigma(n, a) == pytest.approx(
                sp.radial_coefficient(n, a, 1, "lower"), rel=1e-10
            )


class TestSpectrum:
    def test_planar_half_shell(self):
        entries = sp.spectrum(2, 0.5, 3)
        assert entries[0].branch == "zero"
        assert entries[0].value == 0.0
        assert entries[0].multiplicity == 1
        first = entries[1]
        assert first.branch == "lower" and first.k == 1
        assert first.value == pytest.approx(0.4384471871911697, rel=1e-12)
        assert first.multiplicity == 2

    def test_sorted_and_multiplicities(self):
        for n, a in [(2, 0.5), (3, 0.3), (5, 0.7)]:
            entries = sp.spectrum(n, a, 8)
            values = [e.value for e in entries]
            assert values == sorted(values)
            for e in entries:
                if e.branch in ("lower", "upper"):
                    assert e.multiplicity == special.harmonic_dim(n, e.k)
                else:
                    assert e.multiplicity == 1

    def test_lower_branch_increasing(self):
        for n, a in NA_GRID:
            prev = 0.0
            for k in range(1, 51):
                cur = sp.delta_pair(n, a, k)[0]
                assert cur > prev
                prev = cur

    def test_first_nonzero_is_order_one_lower(self):
        for n, a in [(2, 0.5), (3, 0.4), (4, 0.8)]:
            entries = sp.spectrum(n, a, 16)
            nonzero = [e for e in entries if e.value > 0]
            assert nonzero[0].branch == "lower" and nonzero[0].k == 1

    def test_complete_below_is_next_lower_root(self):
        assert sp.spectrum_complete_below(2, 0.5, 3) == pytest.approx(
            sp.delta_pair(2, 0.5, 4)[0], rel=1e-15
        )


class TestEigenfunctionRadial:
    def test_first_mode_profile_identity(self):
        # r + mu/r^(n-1) once normalized by the leading coefficient
        for n, a in [(2, 0.5), (3, 0.4)]:
            mu = sp.mu_sigma(n, a)
            for r in np.linspace(a, 1.0, 7):
                got = sp.eigenfunction_radial(n, a, 1, "lower", float(r))
                assert got == pytest.approx(r + mu * r ** (1 - n), rel=1e-10)

    def test_boundary_conditions(self):
        for n, a in [(2, 0.5), (3, 0.3), (4, 0.6)]:
            for k in (1, 2, 7, 20):
                for branch in ("lower", "upper"):
                    delta = sp.delta_pair(n, a, k)[0 if branch == "lower" else 1]
                    c = sp.radial_coefficient(n, a, k, branch)
                    for r, sign in ((1.0, 1.0), (a, -1.0)):
                        val = sp.eigenfunction_radial(n, a, k, branch, r)
                        der = k * r ** (k - 1) - (k + n - 2) * c * r ** (-(k + n - 1))
                        assert abs(der - sign * delta * val) / (
                            abs(der) + abs(delta * val) + 1.0
                        ) < 1e-10

    def test_radial_zero_profile(self):
        d0 = sp.delta0(2, 0.5)
        for r in (0.5, 0.7, 1.0):
            assert sp.eigenfunction_radial(2, 0.5, 0, "radial0", r) == pytest.approx(
                1 + d0 * math.log(r), rel=1e-14
            )

    def test_rejects_radius_outside_shell(self):
        with pytest.raises(ValueError):
            sp.eigenfunction_radial(2, 0.5, 1, "lower", 0.4)
        with pytest.raises(ValueError):
            sp.eigenfunction_radial(2, 0.5, 1, "lower", 1.1)

    def test_rejects_unknown_branch(self):
        with pytest.raises(ValueError):
            sp.eigenfunction_radial(2, 0.5, 1, "middle", 0.7)


class TestScaleInvariant:
    def test_planar_ball(self):
        assert sp.scale_invariant(2, 0.0) == pytest.approx(2 * math.pi, rel=1e-14)

    def test_positive_finite(self):
        v = sp.scale_invariant(3, 0.5)
        assert 0 < v < math.inf

    def test_expansion_slope(self):
        for n in (3, 4):
            f0 = sp.scale_invariant(n, 0.0)
            for eps, tol in ((1e-2, 0.05), (1e-3, 0.005)):
                slope = (sp.scale_invariant(n, eps) - f0) / (f0 * eps ** (n - 1))
                assert slope == pytest.approx(1.0 / (n - 1), rel=tol)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            sp.scale_invariant(3, 1.0)


class TestOptimalEps:
    def test_interior_maximizer(self):
        for n in (2, 3, 4):
            eps_star, value = sp.optimal_eps(n)
            assert 0 < eps_star < 1
            assert value > sp.scale_invariant(n, 0.0)
            assert value > sp.scale_invariant(n, 0.999999)
            assert value > sp.scale_invariant(n, 1 - 1e-9)
            assert value >= sp.scale_invariant(n, eps_star + 1e-6)
            assert value >= sp.scale_invariant(n, eps_star - 1e-6)

    def test_matches_grid_scan(self):
        eps_star, _ = sp.optimal_eps(3)
        grid = np.linspace(1e-6, 1 - 1e-6, 10_000)
        vals = [sp.scale_invariant(3, float(e)) for e in grid]
        assert abs(eps_star - float(grid[int(np.argmax(vals))])) < 1e-4

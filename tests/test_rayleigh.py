"""Variational integrals and the certified upper bounds."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from steklov_shell import rayleigh
from steklov_shell import shell_spectrum as sp
from steklov_shell.geometry import ShellConfig
from steklov_shell.verify import energy_direct_2d


class TestWIntegrals:
    def test_w2_vanishes(self):
        assert abs(rayleigh.w2(ShellConfig(3, 0.4, 0.25))) < 1e-10

    def test_w1_translation_invariant(self):
        base = rayleigh.w1(ShellConfig(2, 0.5, 0.0))
        assert rayleigh.w1(ShellConfig(2, 0.5, 0.3)) == pytest.approx(base, abs=1e-10)

    def test_w1_concentric_closed_form(self):
        # sin^(n-2) integrates to I_{n-2}; R = 1 at zero offset
        got = rayleigh.w1(ShellConfig(2, 0.5, 0.0))
        assert got == pytest.approx(math.pi * (1 - 0.25), rel=1e-12)

    def test_w3_concentric_closed_form(self):
        # psi = 1 in the plane, so w3(0) = pi (1 - a^-2)
        got = rayleigh.w3(ShellConfig(2, 0.5, 0.0))
        assert got == pytest.approx(-3 * math.pi, rel=1e-12)

    def test_w3_increasing(self):
        vals = [rayleigh.w3(ShellConfig(2, 0.5, d)) for d in np.linspace(0, 0.45, 8)]
        assert np.all(np.diff(vals) > 0)


class TestVIntegrals:
    def test_v2_vanishes(self):
        assert abs(rayleigh.v2(ShellConfig(4, 0.3, 0.4))) < 1e-10

    def test_v1_concentric_is_wallis(self):
        assert rayleigh.v1(ShellConfig(2, 0.5, 0.0)) == pytest.approx(
            math.pi / 2, abs=1e-12
        )

    def test_v1_translation_invariant(self):
        base = rayleigh.v1(ShellConfig(3, 0.4, 0.0))
        for d in (0.2, 0.4, 0.55):
            assert rayleigh.v1(ShellConfig(3, 0.4, d)) == pytest.approx(base, abs=1e-10)

    def test_v3_strictly_increasing(self):
        vals = [rayleigh.v3(ShellConfig(3, 0.4, d)) for d in np.linspace(0, 0.55, 10)]
        assert np.all(np.diff(vals) > 0)


class TestComparators:
    def test_coincide_at_zero_offset(self):
        cfg = ShellConfig(3, 0.5, 0.0)
        assert rayleigh.g_comparator(cfg) == pytest.approx(rayleigh.w3(cfg), abs=1e-11)
        assert rayleigh.h_comparator(cfg) == pytest.approx(rayleigh.v3(cfg), abs=1e-11)

    def test_increasing_and_below(self):
        prev_g = prev_h = -math.inf
        for d in np.linspace(0.0, 0.45, 8):
            cfg = ShellConfig(2, 0.5, float(d))
            g, h = rayleigh.g_comparator(cfg), rayleigh.h_comparator(cfg)
            assert g >= prev_g and h >= prev_h
            assert g <= rayleigh.w3(cfg) + 1e-12
            assert h <= rayleigh.v3(cfg) + 1e-12
            prev_g, prev_h = g, h


class TestSteklovBound:
    def test_concentric_anchor(self):
        b = rayleigh.steklov_bound(ShellConfig(2, 0.5, 0.0))
        assert b.bound == pytest.approx(sp.sigma1_closed_form(2, 0.5), abs=1e-9)

    def test_eccentric_below_concentric(self):
        b = rayleigh.steklov_bound(ShellConfig(3, 0.4, 0.2))
        assert b.bound < sp.sigma1_closed_form(3, 0.4)

    def test_strictly_decreasing_in_offset(self):
        vals = [
            rayleigh.steklov_bound(ShellConfig(2, 0.5, float(d))).bound
            for d in np.linspace(0, 0.475, 20)
        ]
        assert np.all(np.diff(vals) < 0)

    def test_breakdown_invariants(self):
        for cfg in (ShellConfig(2, 0.5, 0.3), ShellConfig(4, 0.3, 0.5)):
            b = rayleigh.steklov_bound(cfg)
            assert b.energy > 0 and b.boundary_mass > 0 and b.bound > 0
            assert abs(b.W2) < 1e-10 and abs(b.V2) < 1e-10
            assert b.inner_mass > 0
            assert b.bound == pytest.approx(b.energy / b.boundary_mass, rel=1e-15)

    def test_energy_decomposition_direct_2d(self):
        for cfg in (ShellConfig(2, 0.5, 0.3), ShellConfig(3, 0.3, 0.2)):
            assembled = rayleigh.steklov_bound(cfg).energy
            assert assembled == pytest.approx(energy_direct_2d(cfg), abs=1e-8)


class TestMixedProblem:
    def test_energy_concentric_planar(self):
        assert rayleigh.ds_energy(ShellConfig(2, 0.5, 0.0)) == pytest.approx(
            2 * math.pi * math.log(2), abs=1e-11
        )

    def test_energy_planar_closed_form(self):
        # pairing theta with pi - theta gives 2 pi ln(1/a) + pi ln(1 - d^2)
        got = rayleigh.ds_energy(ShellConfig(2, 0.5, 0.3))
        assert got == pytest.approx(4.058886442825291, abs=1e-11)

    def test_energy_concentric_3d(self):
        assert rayleigh.ds_energy(ShellConfig(3, 0.5, 0.0)) == pytest.approx(
            4 * math.pi, rel=1e-12
        )

    def test_energy_maximal_at_concentric(self):
        base = rayleigh.ds_energy(ShellConfig(2, 0.5, 0.0))
        assert rayleigh.ds_energy(ShellConfig(2, 0.5, 0.3)) <= base

    def test_mass_concentric_planar(self):
        assert rayleigh.ds_boundary_mass(ShellConfig(2, 0.5, 0.0)) == pytest.approx(
            2 * math.pi * math.log(0.5) ** 2, abs=1e-11
        )

    def test_mass_planar_log_expansion_oracle(self):
        # 2 pi ln^2 a plus a quarter of the squared-log integral (the outer
        # radius is the square root of 1 + d^2 + 2 d cos t); cross term
        # vanishes. Frozen from scipy.integrate.quad.
        got = rayleigh.ds_boundary_mass(ShellConfig(2, 0.5, 0.4))
        assert got == pytest.approx(3.5431096258910246, abs=1e-10)

    def test_mass_planar_polar_parameterization_oracle(self):
        # same curve integral parameterized by the polar angle instead
        d, a = 0.4, 0.5

        def R(t):
            return d * np.cos(t) + np.sqrt(1 - d * d * np.sin(t) ** 2)

        def arc(t):
            return R(t) / np.sqrt(1 - d * d * np.sin(t) ** 2)

        oracle, _ = quad(
            lambda t: (np.log(R(t)) - math.log(a)) ** 2 * arc(t), 0, np.pi, limit=200
        )
        got = rayleigh.ds_boundary_mass(ShellConfig(2, a, d))
        assert got == pytest.approx(2 * oracle, abs=1e-9)

    def test_mass_minimal_at_concentric(self):
        base = rayleigh.ds_boundary_mass(ShellConfig(4, 0.3, 0.0))
        assert rayleigh.ds_boundary_mass(ShellConfig(4, 0.3, 0.2)) >= base

    def test_bound_concentric_values(self):
        assert rayleigh.ds_bound(ShellConfig(2, 0.5, 0.0)) == pytest.approx(
            1.4426950408889634, abs=1e-10
        )
        assert rayleigh.ds_bound(ShellConfig(3, 0.5, 0.0)) == pytest.approx(1.0, abs=1e-10)

    def test_bound_concentric_maximum_above_the_plane(self):
        for n in (3, 4, 5):
            for a in (0.2, 0.5, 0.8):
                base = rayleigh.ds_bound(ShellConfig(n, a, 0.0))
                assert abs(base - sp.tau1_closed_form(n, a)) < 1e-9
                for d in np.linspace(0.0, 0.95 * (1 - a), 20)[1:]:
                    assert rayleigh.ds_bound(ShellConfig(n, a, float(d))) < base

    def test_explicit_tol_is_used(self):
        cfg = ShellConfig(3, 0.4, 0.3)
        assert rayleigh.ds_bound(cfg, tol=1e-2) != rayleigh.ds_bound(cfg)

    def test_bound_decreasing(self):
        assert rayleigh.ds_bound(ShellConfig(2, 0.5, 0.3)) < 1.4426950408889634
        vals = [
            rayleigh.ds_bound(ShellConfig(3, 0.5, float(d)))
            for d in np.linspace(0, 0.475, 10)
        ]
        assert np.all(np.diff(vals) < 0)


class TestOrthogonality:
    def test_in_plane_axis_planar(self):
        val = rayleigh.test_function_orthogonality(ShellConfig(2, 0.5, 0.3), 1)
        assert abs(val) < 1e-10

    def test_offset_axis_concentric(self):
        for n in (2, 3):
            val = rayleigh.test_function_orthogonality(ShellConfig(n, 0.5, 0.0), n)
            assert abs(val) < 1e-10

    def test_offset_axis_eccentric_nonzero(self):
        val = rayleigh.test_function_orthogonality(ShellConfig(3, 0.4, 0.4), 3)
        assert abs(val) > 1e-3

    def test_all_in_plane_axes_3d(self):
        for i in (1, 2):
            val = rayleigh.test_function_orthogonality(ShellConfig(3, 0.4, 0.25), i)
            assert abs(val) < 1e-10

    def test_rejects_bad_axis(self):
        with pytest.raises(ValueError):
            rayleigh.test_function_orthogonality(ShellConfig(3, 0.4, 0.2), 0)
        with pytest.raises(ValueError):
            rayleigh.test_function_orthogonality(ShellConfig(3, 0.4, 0.2), 4)


def _adaptive(cfg, kind, tol):
    if kind == "steklov":
        return rayleigh.steklov_bound(cfg, tol=tol).bound
    return rayleigh.ds_bound(cfg, tol=tol)


class TestSurfaceBound:
    @pytest.mark.parametrize("kind", ["steklov", "dirichlet"])
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    @pytest.mark.parametrize("a", [0.15, 0.5, 0.8])
    @pytest.mark.parametrize("frac", [0.0, 0.5, 0.95])
    def test_agrees_with_the_adaptive_quotient_within_its_radius(self, kind, n, a, frac):
        # The adaptive reference meets 1e-14 per integral, so 1e-13 relative
        # is left for its own error.
        cfg = ShellConfig(n, a, frac * (1.0 - a))
        got = rayleigh.surface_bound(cfg, kind)
        ref = _adaptive(cfg, kind, 1e-14)
        assert 16 <= got.nodes <= 128
        assert abs(got.value - ref) <= got.radius + 1e-13 * abs(ref)
        assert got.radius <= rayleigh.QUAD_TOL * abs(got.value)

    @pytest.mark.parametrize("kind", ["steklov", "dirichlet"])
    @pytest.mark.parametrize("n, a, d", [(2, 0.15, 0.8075), (3, 0.15, 0.8075), (2, 0.5, 0.475),
                                         (4, 0.3, 0.6), (2, 0.001, 0.95)])
    def test_radius_covers_the_distance_to_twice_the_nodes(self, monkeypatch, kind, n, a, d):
        cfg = ShellConfig(n, a, d)
        got = rayleigh.surface_bound(cfg, kind)
        assert got.nodes > 16
        # A one-rung ladder at twice the count, accepted whatever its radius.
        monkeypatch.setattr(rayleigh, "NODE_LADDER", (2 * got.nodes,))
        finer = rayleigh.surface_bound(cfg, kind, tol=1.0)
        assert finer.nodes == 2 * got.nodes
        assert abs(got.value - finer.value) <= got.radius

    @pytest.mark.parametrize("n", [2, 3, 5, 20])
    @pytest.mark.parametrize("a", [0.05, 0.5, 0.95])
    def test_concentric_value_is_the_closed_form(self, n, a):
        cfg = ShellConfig(n, a, 0.0)
        steklov = rayleigh.surface_bound(cfg, "steklov")
        mixed = rayleigh.surface_bound(cfg, "dirichlet")
        assert steklov.nodes == mixed.nodes == 16
        assert steklov.value == pytest.approx(sp.sigma1_closed_form(n, a), rel=1e-14)
        assert mixed.value == pytest.approx(sp.tau1_closed_form(n, a), rel=1e-14, abs=0.0)

    def test_mixed_bound_has_no_overflow_where_the_breakdown_has(self):
        # a^(2-n) = 1e216: the breakdown squares it, the surface form divides it out.
        cfg = ShellConfig(20, 1e-12, 0.0)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = rayleigh.surface_bound(cfg, "dirichlet")
            with pytest.raises(FloatingPointError):
                rayleigh.ds_boundary_mass(cfg)
        assert got.value == pytest.approx(18.0 / (1e216 - 1.0), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n, a", [(20, 1e-12), (50, 1e-6)])
    def test_mixed_bound_at_a_tiny_hole_keeps_the_closed_form(self, n, a):
        # (a^2/s)^k as exp(k (2 log a - log s)), an exponent near -500, erred
        # by 1.7e-14 at (20, 1e-12, 0) and rose from d = 0 to d = 0.25.  The
        # true bound falls by far less than rounding over these offsets.
        closed = sp.tau1_closed_form(n, a)
        for d in (0.0, 0.25, 0.5):
            got = rayleigh.surface_bound(ShellConfig(n, a, d), "dirichlet")
            assert got.value == pytest.approx(closed, rel=1e-14, abs=0.0)
            assert abs(got.value - closed) <= got.radius

    def test_no_rule_is_computed_at_import(self):
        src = str(Path(rayleigh.__file__).resolve().parents[1])
        code = ("from steklov_shell import cli, rayleigh; "
                "print(rayleigh._jacobi_rule.cache_info().currsize)")
        proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (0, "0\n")

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.5])
    def test_weights_are_accurate(self, alpha):
        # scipy's own weights lose up to 1e-10 relative at 256 nodes (alpha = 0);
        # these are checked against the Chebyshev weights pi/m and the moments.
        nodes, weights = rayleigh._jacobi_rule(alpha, 256)
        if alpha == -0.5:
            assert np.max(np.abs(weights * 256 / math.pi - 1.0)) <= 2e-12
        moment = math.sqrt(math.pi) * math.gamma(alpha + 1) / math.gamma(alpha + 2.5) / 2
        assert float(weights @ nodes**2) == pytest.approx(moment, rel=1e-14)

    def test_nodes_are_computed_once_per_rule(self, monkeypatch):
        rayleigh._jacobi_rule.cache_clear()
        calls = []

        def counting(m, alpha, beta):
            calls.append((m, alpha))
            return roots_jacobi(m, alpha, beta)

        roots_jacobi = rayleigh.roots_jacobi
        monkeypatch.setattr(rayleigh, "roots_jacobi", counting)
        cfgs = [ShellConfig(3, 0.3, d) for d in (0.0, 0.3, 0.6, 0.6)]
        first = [rayleigh.surface_bound(cfg, "steklov") for cfg in cfgs]
        count = len(calls)
        assert count == len(set(calls)) and count >= 2
        assert [rayleigh.surface_bound(cfg, "steklov") for cfg in cfgs] == first
        assert len(calls) == count
        rayleigh._jacobi_rule.cache_clear()

    @pytest.mark.parametrize("kind", ["steklov", "dirichlet"])
    @pytest.mark.parametrize("n, a, d, tol", [(3, 0.4, 0.3, 1e-15), (2, 1e-6, 0.999, 1e-12)])
    def test_past_the_ladder_the_adaptive_quotient_is_returned(self, kind, n, a, d, tol):
        # A tol below the ladder's rounding, and an offset within 0.1% of contact.
        cfg = ShellConfig(n, a, d)
        got = rayleigh.surface_bound(cfg, kind, tol=tol)
        assert (got.nodes, got.radius) == (0, math.inf)
        assert got.value == _adaptive(cfg, kind, tol)

    def test_a_rung_whose_rounding_must_fail_builds_no_rule(self, monkeypatch):
        # Within 1% of contact the 2048-node truncation radius passes, but its
        # rounding allowance, 2048 eps per integral, cannot meet 1e-12.
        rayleigh._jacobi_rule.cache_clear()
        calls = []

        def counting(m, alpha, beta):
            calls.append(m)
            return roots_jacobi(m, alpha, beta)

        roots_jacobi = rayleigh.roots_jacobi
        monkeypatch.setattr(rayleigh, "roots_jacobi", counting)
        cfg = ShellConfig(3, 0.001, 0.98901)
        got = rayleigh.surface_bound(cfg, "steklov")
        rayleigh._jacobi_rule.cache_clear()
        assert calls == [16]
        assert (got.nodes, got.value) == (0, _adaptive(cfg, "steklov", rayleigh.QUAD_TOL))

    def test_unknown_kind_is_refused(self):
        with pytest.raises(ValueError):
            rayleigh.surface_bound(ShellConfig(2, 0.5, 0.1), "neumann")

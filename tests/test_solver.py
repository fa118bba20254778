"""Planar eigensolver in the conformal frame."""

import ctypes
import dataclasses
import gc
import math
import os
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from steklov_shell import cli, rayleigh, solver
from steklov_shell import shell_spectrum as sp
from steklov_shell.errors import NonConvergenceError
from steklov_shell.geometry import ShellConfig

def _first_above_zero_mode_tol(res) -> float:
    """The first eigenvalue above ZERO_MODE_TOL, found without the solver's help."""
    return float(next(v for v in res.eigenvalues if v > solver.ZERO_MODE_TOL))


# problem -> (gated solve, principal eigenvalue of its result, concentric value, solver kind)
PROBLEMS = {
    "steklov": (solver.solve_steklov, _first_above_zero_mode_tol, sp.sigma1_closed_form, "steklov"),
    "dirichlet-steklov": (
        solver.solve_dirichlet_steklov,
        lambda res: float(res.eigenvalues[0]),
        sp.tau1_closed_form,
        "dirichlet",
    ),
}

# (a, d, kind, converged value): the last rows of the a = 0.15 and a = 0.2
# sweeps, where the sampled Laurent solver this one replaced printed sigma1
# 3.8e-4 and 2.0e-4 high, and three rows where that solver had converged.
REFERENCE = [
    (0.15, 0.8075, "steklov", 0.731485955459579),
    (0.15, 0.8075, "dirichlet", 0.294319103040),
    (0.2, 0.76, "steklov", 0.647687064063671),
    (0.5, 0.3, "steklov", 0.386668851988519),
    (0.5, 0.3, "dirichlet", 0.9643311099176743),
    (0.5, 0.1, "steklov", 0.43327384834348626),
    (0.5, 0.1, "dirichlet", 1.2891599539924925),
    (0.2, 0.3, "steklov", 0.859534899111775),
    (0.2, 0.3, "dirichlet", 0.5333302374461816),
]


def _dense(band: np.ndarray) -> np.ndarray:
    """The symmetric matrix held in general band storage band[h + i - j, j] = A[i, j]."""
    h, n = len(band) // 2, band.shape[1]
    A = np.zeros((n, n))
    for i in range(n):
        for j in range(max(0, i - h), min(n, i + h + 1)):
            A[i, j] = band[h + i - j, j]
    return A


def _physical_sample(cfg, N, m, kind):
    """Basis, trapezoid sample of the circles its fields live on, and the fields' values there."""
    basis = solver.TrefftzBasis(max_order=N, a=cfg.a, d=cfg.d, kind=kind)
    pts, normals, weights, is_outer = solver.boundary_points(cfg, m)
    if kind == "dirichlet":
        keep = is_outer
        pts, normals, weights, is_outer = pts[keep], normals[keep], weights[keep], is_outer[keep]
    return basis, pts, normals, weights, is_outer


def _dense_full_circle(cfg, N, m, kind):
    """Basis, mass B^T W B and stiffness B^T W dB/dn summed over the full physical circles."""
    basis, pts, normals, weights, _ = _physical_sample(cfg, N, m, kind)
    WB = basis.evaluate(pts) * weights[:, None]
    return basis, WB.T @ basis.evaluate(pts), WB.T @ basis.normal_derivative(pts, normals)


def _relative(A, B, scale):
    return float(np.abs(A - B).max() / np.abs(scale).max())


class TestFrame:
    @pytest.mark.parametrize("a, d", [(0.5, 0.0), (0.5, 1e-300), (0.5, 1e-8), (0.5, 0.3),
                                      (0.15, 0.8075), (0.5, 0.4999), (1e-6, 0.5)])
    def test_the_circles_map_to_concentric_circles(self, a, d):
        fr = solver.TrefftzBasis(max_order=4, a=a, d=d, kind="steklov").frame
        pts, _, _, is_outer = solver.boundary_points(ShellConfig(2, a, d), 64)
        z = pts[:, 0] + 1j * pts[:, 1]
        r = np.abs(fr.lam * (z - fr.x1) / (1.0 - fr.y * z))
        assert np.abs(r[is_outer] - 1.0).max() < 1e-14
        assert np.abs(r[~is_outer] / fr.rho - 1.0).max() < 1e-13
        assert 0.0 <= fr.c < 1.0 and 0.0 < fr.rho < 1.0

    def test_zero_offset_is_the_identity(self):
        fr = solver.TrefftzBasis(max_order=4, a=0.3, d=0.0, kind="steklov").frame
        assert (fr.x1, fr.y, fr.lam, fr.rho, fr.c, fr.kappa) == (0.0, 0.0, 1.0, 0.3, 0.0, 1.0)

    @pytest.mark.parametrize("d", [1e-300, 1e-200, 1e-8])
    def test_tiny_offsets_leave_a_finite_frame(self, d):
        # The textbook roots of x^2 - s x + a^2 overflow at d = 1e-200 and lose
        # the inner root at d = 1e-8.
        fr = solver.TrefftzBasis(max_order=4, a=0.5, d=d, kind="steklov").frame
        assert all(math.isfinite(v) for v in fr)
        assert fr.x1 < 0.0 and fr.rho == pytest.approx(0.5, rel=1e-7)

    @pytest.mark.parametrize("a, d", [(0.5, 0.3), (0.15, 0.8075)])
    def test_weight_is_the_map_derivative(self, a, d):
        # 1/|z'(w)| = |w'(z)| on each circle is (1 + c^2 r^2 - 2 c r cos t) / kappa.
        fr = solver.TrefftzBasis(max_order=4, a=a, d=d, kind="steklov").frame
        pts, _, _, is_outer = solver.boundary_points(ShellConfig(2, a, d), 64)
        z = pts[:, 0] + 1j * pts[:, 1]
        w = fr.lam * (z - fr.x1) / (1.0 - fr.y * z)
        dw = np.abs(fr.lam * (1.0 - fr.x1 * fr.y) / (1.0 - fr.y * z) ** 2)
        r = np.where(is_outer, 1.0, fr.rho)
        weight = (1.0 + (fr.c * r) ** 2 - 2.0 * fr.c * r * np.cos(np.angle(w))) / fr.kappa
        assert np.abs(weight / dw - 1.0).max() < 1e-13


class TestAssembly:
    def test_constant_row_is_zero(self):
        # The constant has the trace 1 on both circles at k = 0, the first two columns.
        A = _dense(solver.assemble_steklov(ShellConfig(2, 0.5, 0.2), N=8))
        assert np.max(np.abs(A[:, 0] + A[:, 1])) < 1e-12

    def test_symmetry_defect_before_symmetrization(self):
        # Both triangles of the band are computed, neither copied from the other.
        A = _dense(solver.assemble_steklov(ShellConfig(2, 0.5, 0.3), N=20))
        assert 0.0 < np.abs(A).max()
        assert np.max(np.abs(A - A.T)) < 1e-9

    def test_concentric_modes_decouple(self):
        # Zero offset: T is a multiple of the identity, so distinct orders decouple.
        A = _dense(solver.assemble_steklov(ShellConfig(2, 0.5, 0.0), N=6))
        basis = solver.TrefftzBasis(max_order=6, a=0.5, d=0.0, kind="steklov")
        k = np.concatenate([np.repeat(basis.modes(odd), 2) for odd in (False, True)])
        other = (k[:, None] != k[None, :]) | (basis.odd[:, None] != basis.odd[None, :])
        assert np.all(A[other] == 0.0)
        assert np.abs(A[~other]).max() > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            solver.assemble_steklov(ShellConfig(3, 0.5, 0.0), N=8)
        with pytest.raises(ValueError):
            solver.assemble_steklov(ShellConfig(2, 0.5, 0.0), N=2)


class TestMirrorFamilies:
    @pytest.mark.parametrize("m", [128, 129])
    @pytest.mark.parametrize("kind", ["steklov", "dirichlet"])
    def test_cross_family_entries_vanish(self, kind, m):
        basis, M, K = _dense_full_circle(ShellConfig(2, 0.5, 0.3), 8, m, kind)
        even, odd = np.flatnonzero(~basis.odd), np.flatnonzero(basis.odd)
        assert np.abs(M[np.ix_(even, odd)]).max() < 1e-13 * np.abs(M).max()
        assert np.abs(K[np.ix_(even, odd)]).max() < 1e-13 * np.abs(K).max()
        assert np.abs(K[np.ix_(odd, even)]).max() < 1e-13 * np.abs(K).max()

    @pytest.mark.parametrize("m", [128, 129])
    @pytest.mark.parametrize("kind", ["steklov", "dirichlet"])
    def test_physical_stiffness_is_the_closed_form_dtn(self, kind, m):
        # The energy form is conformally invariant, so the stiffness of the
        # fields summed over the physical circles is S = R D per mode
        # (D for the mixed fields): the square of the assembly's root blocks.
        cfg = ShellConfig(2, 0.5, 0.3)
        basis, _, K = _dense_full_circle(cfg, 8, m, kind)
        for odd, cols in ((False, np.flatnonzero(~basis.odd)), (True, np.flatnonzero(basis.odd))):
            root = solver._factors(basis, odd)[0]
            S = scipy.linalg.block_diag(*(block @ block for block in root))
            assert _relative(K[np.ix_(cols, cols)], S, S) < 1e-10

    @pytest.mark.parametrize("m", [128, 129])
    def test_assemble_steklov_is_the_full_circle_assembly(self, m):
        # T R^-1 from physical quadrature: on the circle of w-radius r the
        # traces are integrated against |w'(z)| dt / r = |w'(z)|^2 ds / r^2.
        # With the root blocks (whose squares the stiffness test checks) it
        # gives the assembled band.
        cfg = ShellConfig(2, 0.5, 0.3)
        basis, pts, _, weights, is_outer = _physical_sample(cfg, 8, m, "steklov")
        fr = basis.frame
        z = pts[:, 0] + 1j * pts[:, 1]
        dw = np.abs(fr.lam * (1.0 - fr.x1 * fr.y) / (1.0 - fr.y * z) ** 2)
        r = np.where(is_outer, 1.0, fr.rho)
        # Each field's trace on its own circle, zero on the other.
        outer_field = np.arange(basis.size) % 2 == 0
        B = np.where(outer_field == is_outer[:, None], basis.evaluate(pts), 0.0)
        M = (B * (weights * dw ** 2 / r ** 2)[:, None]).T @ B
        root = scipy.linalg.block_diag(*(block for odd in (False, True)
                                         for block in solver._factors(basis, odd)[0]))
        A = _dense(solver.assemble_steklov(cfg, N=8))
        assert _relative(root @ M @ root, A, A) < 1e-12

    @pytest.mark.parametrize("m", [128, 129])
    def test_sample_weights_sum_to_the_perimeters(self, m):
        pts, normals, weights, is_outer = solver.boundary_points(ShellConfig(2, 0.4, 0.3), m)
        assert len(pts) == 2 * m
        assert np.abs(np.hypot(*(pts[is_outer] - [0.3, 0.0]).T) - 1.0).max() < 1e-15
        assert np.abs(np.hypot(*pts[~is_outer].T) - 0.4).max() < 1e-15
        assert weights[is_outer].sum() == pytest.approx(2 * math.pi, rel=1e-14)
        assert weights[~is_outer].sum() == pytest.approx(2 * math.pi * 0.4, rel=1e-14)

    def test_family_sizes(self):
        for kind, sizes in (("steklov", (50, 48)), ("dirichlet", (25, 24))):
            basis = solver.TrefftzBasis(max_order=24, a=0.5, d=0.3, kind=kind)
            assert (int(np.sum(~basis.odd)), int(np.sum(basis.odd))) == sizes

    def test_principal_family_and_the_first_odd_value(self):
        # At (0.5, 0.25) sigma_1 is even; the first odd eigenvalue lies
        # between it and the Rayleigh bound of the odd test function.
        cfg = ShellConfig(2, 0.5, 0.25)
        res = solver.solve_steklov(cfg)
        assert res.family == "even"
        assert res.principal == pytest.approx(0.40393, abs=1e-5)
        odd = [v for i, v in enumerate(res.eigenvalues)
               if v > solver.ZERO_MODE_TOL and res.family_of(i) == "odd"]
        assert odd[0] == pytest.approx(0.41056, abs=1e-5)
        bound = rayleigh.steklov_bound(cfg).bound
        assert bound == pytest.approx(0.42924, abs=1e-5)
        assert res.principal < odd[0] < bound

    @pytest.mark.parametrize("problem", list(PROBLEMS))
    def test_principal_mode_is_even_off_center(self, problem):
        # Off center the principal mode is the even one of the concentric
        # double pair, for both problems, and the first odd value lies above.
        solve, _, _, _ = PROBLEMS[problem]
        for a in (0.15, 0.5, 0.85):
            for d in np.linspace(0.0, 0.95 * (1.0 - a), 6)[1:]:
                res = solve(ShellConfig(2, a, float(d)))
                assert res.family == "even"
                first_odd = next(v for i, v in enumerate(res.eigenvalues) if res.odd[i])
                assert first_odd > res.eigenvalues[res.mode]

    @pytest.mark.parametrize("problem", list(PROBLEMS))
    def test_each_mode_lives_in_one_family(self, problem):
        # Every eigenvalue is one of its own family's band at the order solved.
        res = PROBLEMS[problem][0](ShellConfig(2, 0.5, 0.3))
        spectra = {odd: np.linalg.eigvalsh(_dense(solver._band(*solver._factors(res.basis, odd))))
                   for odd in (False, True)}
        for i, value in enumerate(res.eigenvalues):
            own = spectra[bool(res.odd[i])]
            assert np.abs(own - value).min() < 1e-12 * max(1.0, value)
            assert res.family_of(i) == ("odd" if res.odd[i] else "even")
        assert res.family_of(0) == "even"

    def test_concentric_double_mode_splits_across_the_families(self):
        res = solver.solve_steklov(ShellConfig(2, 0.5, 0.0))
        assert {res.family_of(res.mode), res.family_of(res.mode + 1)} == {"even", "odd"}


class TestGate:
    @pytest.mark.parametrize("a, d, kind, value", REFERENCE)
    def test_reference_values(self, a, d, kind, value):
        res = solver._solve(ShellConfig(2, a, d), kind)
        assert res.principal == pytest.approx(value, abs=1e-10)

    @pytest.mark.parametrize("a, d, kind, value", REFERENCE)
    def test_values_do_not_rise_with_the_order(self, a, d, kind, value):
        # Each fixed-order value bounds the true one from above, (P T P)^-1 <=
        # P T^-1 P, and a larger order only lowers it (to rounding).
        cfg = ShellConfig(2, a, d)
        vals = [solver._solve_at_order(cfg, N, kind).principal for N in (16, 32, 64, 128)]
        assert np.all(np.diff(vals) <= 1e-14 * value)
        assert vals[-1] == pytest.approx(value, abs=1e-10)

    @pytest.mark.parametrize("problem", list(PROBLEMS))
    def test_gate_stops_at_the_first_agreeing_pair(self, problem):
        solve, _, _, kind = PROBLEMS[problem]
        cfg = ShellConfig(2, 0.15, 0.8075)
        res = solve(cfg)
        N = res.basis.max_order
        values = [solver._solve_at_order(cfg, n, kind).principal for n in (N // 4, N // 2, N)]
        assert res.principal == values[2]
        assert abs(values[2] - values[1]) <= solver.GATE_RTOL * values[2]
        assert abs(values[1] - values[0]) > solver.GATE_RTOL * values[1]

    def test_default_sweep_rows_stop_well_below_the_cap(self):
        orders = {"steklov": set(), "dirichlet": set()}
        for a in (0.15, 0.45, 0.85):
            for d in np.linspace(0.0, 0.95 * (1.0 - a), 21):
                cfg = ShellConfig(2, a, float(d))
                orders["steklov"].add(solver.solve_steklov(cfg).basis.max_order)
                orders["dirichlet"].add(solver.solve_dirichlet_steklov(cfg).basis.max_order)
        assert orders == {"steklov": {64, 128, 256}, "dirichlet": {64, 128, 256}}

    def test_the_cap_raises_with_the_last_two_values(self, monkeypatch):
        monkeypatch.setattr(solver, "MAX_ORDER", 64)
        cfg = ShellConfig(2, 0.15, 0.8075)
        with pytest.raises(NonConvergenceError) as exc:
            solver.solve_steklov(cfg)
        values = [solver._solve_at_order(cfg, N, "steklov").principal for N in (32, 64)]
        assert str(exc.value) == (
            "sigma1 did not converge to 1e-10 relative by the order cap 64: "
            f"{values[0]:.17g} at N=32, {values[1]:.17g} at N=64"
        )

    @pytest.mark.parametrize("d, value", [(0.3, 0.99999999819999752), (0.5, 0.99999999500000059),
                                          (0.9, 0.99999998379991217)])
    def test_tiny_hole_keeps_its_value(self, d, value):
        # The values the solver this one replaced printed at a = 1e-8.  The
        # banded values' rounding, near eps N / a, reaches 1e-5 here, and the
        # constants' zero is set exactly rather than read.
        res = solver.solve_steklov(ShellConfig(2, 1e-8, d))
        assert res.principal == pytest.approx(value, abs=1e-12)
        assert res.eigenvalues[0] == 0.0 and res.mode == 1

    @pytest.mark.parametrize("a", [1e-13, 1e-14, 1e-300])
    def test_a_hole_below_the_rounding_range_is_refused(self, a):
        # There the banded values' rounding comes within ROUNDING_RTOL of the
        # principal value, and inverse iteration could find a neighbouring mode.
        with pytest.raises(NonConvergenceError, match="rounding, .* the hole is too small"):
            solver.solve_steklov(ShellConfig(2, a, 0.5))

    @pytest.mark.parametrize("a, value", [(1e-4, 0.99994994213825306), (1e-6, 0.99999949999191162)])
    def test_small_hole_quotient_is_steady_in_the_order(self, a, value):
        # The banded eigenvalues are accurate to eps times a norm near N / a;
        # the principal's Rayleigh quotient is accurate to its own size.
        cfg = ShellConfig(2, a, 0.5)
        vals = [solver._solve_at_order(cfg, N, "steklov").principal for N in (32, 64, 128, 256)]
        assert np.ptp(vals) < 1e-13
        assert solver.solve_steklov(cfg).principal == pytest.approx(value, abs=1e-12)


class TestSteklovSolve:
    @pytest.mark.parametrize("a", [0.2, 0.5, 0.8])
    def test_concentric_matches_closed_form(self, a):
        res = solver.solve_steklov(ShellConfig(2, a, 0.0))
        assert res.principal == pytest.approx(sp.sigma1_closed_form(2, a), abs=1e-14)

    def test_zero_mode_present(self):
        res = solver.solve_steklov(ShellConfig(2, 0.5, 0.0))
        assert abs(res.eigenvalues[0]) < 1e-9

    def test_first_mode_numerically_double(self):
        res = solver.solve_steklov(ShellConfig(2, 0.5, 0.0))
        first = res.principal
        close = [v for v in res.eigenvalues if abs(v - first) <= 1e-8]
        assert len(close) == 2

    def test_spectrum_below_delta0_reproduced(self):
        a = 0.5
        res = solver.solve_steklov(ShellConfig(2, a, 0.0))
        d0 = sp.delta0(2, a)
        exact = []
        for e in sp.spectrum(2, a, 24):
            if 0 < e.value < d0 - 1e-9:
                exact.extend([e.value] * e.multiplicity)
        got = [v for v in res.eigenvalues if 1e-6 < v < d0 - 1e-9]
        assert len(got) == len(exact)
        np.testing.assert_allclose(np.sort(got), np.sort(exact), atol=1e-7)

    def test_monotone_decreasing_offset(self):
        vals = []
        for d in np.linspace(0.0, 0.4, 9):
            res = solver.solve_steklov(ShellConfig(2, 0.5, float(d)))
            vals.append(res.principal)
        assert np.all(np.diff(vals) < 0)

    def test_below_rayleigh_bound(self):
        for d in (0.1, 0.25, 0.4):
            cfg = ShellConfig(2, 0.5, d)
            res = solver.solve_steklov(cfg)
            assert res.principal <= rayleigh.steklov_bound(cfg).bound + 1e-8

    def test_residual_small_at_moderate_offset(self):
        res = solver.solve_steklov(ShellConfig(2, 0.5, 0.3))
        assert res.residual < 1e-6

    def test_residual_tiny_concentric(self):
        res = solver.solve_steklov(ShellConfig(2, 0.5, 0.0))
        assert res.residual < 1e-7

    def test_residual_improves_with_order(self):
        cfg = ShellConfig(2, 0.5, 0.3)
        r8 = solver._solve_at_order(cfg, 8, "steklov").residual
        r24 = solver._solve_at_order(cfg, 24, "steklov").residual
        assert r24 < r8

    def test_spectral_convergence(self):
        cfg = ShellConfig(2, 0.5, 0.2)
        s8, s16, s32 = (solver._solve_at_order(cfg, N, "steklov").principal for N in (8, 16, 32))
        assert abs(s8 - s16) >= 10 * abs(s16 - s32)

    def test_high_order_agrees_with_the_gate(self):
        # Order 512 is far past where the gate stops at (0.5, 0.3).
        cfg = ShellConfig(2, 0.5, 0.3)
        for solve, _, _, kind in PROBLEMS.values():
            high = solver._solve_at_order(cfg, 512, kind)
            assert high.principal == pytest.approx(solve(cfg).principal, abs=1e-13)

    def test_eigensolver_failure_is_nonconvergence(self, monkeypatch):
        def failing(*args, **kwargs):
            raise scipy.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(scipy.linalg, "eig_banded", failing)
        for solve, _, _, _ in PROBLEMS.values():
            with pytest.raises(NonConvergenceError):
                solve(ShellConfig(2, 0.5, 0.3))

    def test_order_fallback_keeps_the_points(self):
        # The alias still takes the first order and the boundary-point count
        # its callers pass, and neither changes anything.
        cfg = ShellConfig(2, 0.5, 0.3)
        for problem in PROBLEMS:
            with_m = solver.solve_with_order_fallback(cfg, N=24, m=100, problem=problem)
            without = solver.solve_with_order_fallback(cfg, problem=problem)
            assert np.array_equal(with_m.eigenvalues, without.eigenvalues)
            assert with_m.principal == without.principal
            assert with_m.basis.max_order == without.basis.max_order

    def test_small_hole_converges_past_the_first_order(self):
        # At (0.2, 0.7) orders 32 and 64 disagree; the gate goes on to 128.
        cfg = ShellConfig(2, 0.2, 0.7)
        for solve, principal, concentric, _ in PROBLEMS.values():
            res = solve(cfg)
            assert res.basis.max_order == 128
            assert 0 < principal(res) < concentric(2, 0.2)

    def test_order_fallback_is_the_direct_solve(self):
        # The call the benchmark's residual metric makes is the CLI's solve.
        cfg = ShellConfig(2, 0.15, 0.8075)
        for problem, (solve, _, _, _) in PROBLEMS.items():
            alias = solver.solve_with_order_fallback(cfg, N=24, m=512, problem=problem)
            direct = solve(cfg)
            assert np.array_equal(alias.eigenvalues, direct.eigenvalues)
            assert alias.residual == direct.residual

    def test_order_fallback_leaves_no_reference_cycle(self):
        # A solve leaves nothing for the cyclic collector, and it returns the
        # order where the gate stopped.
        cfg = ShellConfig(2, 0.2, 0.7)
        gc.collect()
        gc.disable()
        try:
            orders = [
                solver.solve_with_order_fallback(cfg, problem=problem).basis.max_order
                for problem in PROBLEMS
            ]
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert orders == [128, 128]
        assert unreachable == 0


class TestMixedSolve:
    @pytest.mark.parametrize("a", [0.2, 0.5, 0.8])
    def test_concentric_matches_radial_profile(self, a):
        # flux over trace of log(r/a) at the outer circle
        res = solver.solve_dirichlet_steklov(ShellConfig(2, a, 0.0))
        assert float(res.eigenvalues[0]) == pytest.approx(1 / math.log(1 / a), abs=1e-8)

    def test_all_eigenvalues_positive(self):
        res = solver.solve_dirichlet_steklov(ShellConfig(2, 0.5, 0.2))
        assert np.all(res.eigenvalues > 0)

    def test_monotone_decreasing_offset(self):
        vals = []
        for d in np.linspace(0.0, 0.4, 9):
            res = solver.solve_dirichlet_steklov(ShellConfig(2, 0.5, float(d)))
            vals.append(float(res.eigenvalues[0]))
        assert np.all(np.diff(vals) < 0)

    def test_below_mixed_bound(self):
        for d in (0.1, 0.3):
            cfg = ShellConfig(2, 0.5, d)
            res = solver.solve_dirichlet_steklov(cfg)
            assert float(res.eigenvalues[0]) <= rayleigh.ds_bound(cfg) + 1e-8

    def test_inner_trace_vanishes(self):
        basis = solver.TrefftzBasis(max_order=10, a=0.4, d=0.3, kind="dirichlet")
        t = np.linspace(0, 2 * math.pi, 64, endpoint=False)
        pts = 0.4 * np.column_stack((np.cos(t), np.sin(t)))
        vals = basis.evaluate(pts)
        assert np.max(np.abs(vals)) < 1e-13


class TestDiagnostics:
    def test_boundary_residual_of_constant_mode(self):
        cfg = ShellConfig(2, 0.5, 0.0)
        res = solver._solve_at_order(cfg, 12, "steklov")
        assert solver.boundary_residual(res, 0) < 1e-9

    def test_boundary_residual_rejects_bad_mode(self):
        cfg = ShellConfig(2, 0.5, 0.0)
        res = solver._solve_at_order(cfg, 8, "steklov")
        with pytest.raises(ValueError):
            solver.boundary_residual(res, 99999)

    def test_group_eigenvalues(self):
        groups = solver.group_eigenvalues([0.0, 1.0, 1.0 + 1e-10, 2.5])
        assert [c for _, c in groups] == [1, 2, 1]

    def test_order_reported(self):
        res = solver.solve_steklov(ShellConfig(2, 0.5, 0.1))
        assert res.basis.max_order == 64
        assert res.basis.size == 4 * 64 + 2

    def test_basis_frame_is_not_a_constructor_argument(self):
        # The conformal frame is computed from a and d, never passed.
        frame = solver.TrefftzBasis(max_order=4, a=0.5, d=0.0, kind="steklov").frame
        with pytest.raises(TypeError):
            solver.TrefftzBasis(max_order=4, a=0.5, d=0.0, kind="steklov", frame=frame)


class TestPrincipalMode:
    @pytest.mark.parametrize("problem", list(PROBLEMS))
    @pytest.mark.parametrize("a, d, fallback", [(0.5, 0.3, False), (0.2, 0.7, True)])
    def test_principal_and_its_residual(self, problem, a, d, fallback):
        cfg = ShellConfig(2, a, d)
        solve, principal, _, _ = PROBLEMS[problem]
        if fallback:
            res = solver.solve_with_order_fallback(cfg, N=24, m=512, problem=problem)
        else:
            res = solve(cfg)
        assert type(res.principal) is float
        assert res.principal == principal(res)
        assert res.principal == res.eigenvalues[res.mode]
        assert res.mode == (1 if problem == "steklov" else 0)
        assert res.residual == solver.boundary_residual(res, res.mode)

    def test_eigenvalue_at_the_tolerance_is_not_principal(self, monkeypatch):
        # The even Steklov family's first value is the constants' zero, never
        # principal, and reads its exact 0 even where rounding lifts LAPACK's
        # value to ZERO_MODE_TOL.  The eig_banded calls are the even then the
        # odd family.
        eig_banded, calls = scipy.linalg.eig_banded, []

        def lifted(*args, **kwargs):
            vals = eig_banded(*args, **kwargs)
            calls.append(vals)
            if len(calls) == 1:
                vals[0] = solver.ZERO_MODE_TOL
            return vals

        monkeypatch.setattr(scipy.linalg, "eig_banded", lifted)
        cfg = ShellConfig(2, 0.5, 0.3)
        res = solver._solve_at_order(cfg, 8, "steklov")
        assert len(calls) == 2
        assert res.eigenvalues[0] == 0.0
        assert res.mode == 1
        assert res.residual == solver.boundary_residual(res, 1)


class TestDerivedFields:
    def test_result_holds_only_what_the_solve_produced(self):
        names = [f.name for f in dataclasses.fields(solver.EigResult)]
        assert names == ["eigenvalues", "odd", "mode", "basis"]
        for gone in ("first_nonzero", "n_points", "gram_condition", "coefficients"):
            assert not hasattr(solver.EigResult, gone)
        res = solver.solve_steklov(ShellConfig(2, 0.5, 0.3))
        for name in ("principal", "residual"):
            with pytest.raises(AttributeError):
                setattr(res, name, 0.0)

    def test_a_residual_is_computed_only_when_read(self, capsys, monkeypatch):
        def unread(result, mode):
            raise AssertionError("boundary_residual called")

        monkeypatch.setattr(solver, "boundary_residual", unread)
        cfg = ShellConfig(2, 0.5, 0.3)
        res = solver.solve_steklov(cfg)
        assert res.principal == res.eigenvalues[1]
        for problem in PROBLEMS:
            solver.solve_with_order_fallback(cfg, problem=problem)
        code = cli.main(["sweep", "--problem", "steklov", "--dim", "2", "--a", "0.5",
                         "--d-steps", "3", "--jobs", "1"])
        assert code == 0
        with pytest.raises(AssertionError, match="boundary_residual called"):
            res.residual

    def test_residual_takes_the_geometry_from_the_result(self):
        res = solver.solve_steklov(ShellConfig(2, 0.5, 0.3))
        with pytest.raises(TypeError):
            solver.boundary_residual(res, ShellConfig(2, 0.5, 0.1), 1)


def _blas_paths() -> list:
    """Paths of the loaded OpenBLAS libraries, found without the solver's help."""
    try:
        with open("/proc/self/maps", "rb") as fh:
            lines = fh.read().splitlines()
    except OSError:
        return []
    fields = [line.split(maxsplit=5) for line in lines]
    return sorted({os.fsdecode(f[5]) for f in fields if len(f) == 6 and b"openblas" in f[5].rsplit(b"/", 1)[-1]})


def _blas_thread_getters() -> list:
    """Thread-count getters of the loaded OpenBLAS libraries."""
    getters = []
    for path in _blas_paths():
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            get = getattr(lib, name, None)
            if get is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                getters.append(get)
                break
    return getters


class TestBlasThreads:
    def test_solve_runs_on_one_thread_and_restores_the_count(self, monkeypatch):
        getters = _blas_thread_getters()
        if not getters:
            pytest.skip("no OpenBLAS loaded")
        before = [get() for get in getters]
        during = []
        eig_banded = scipy.linalg.eig_banded

        def recording(*args, **kwargs):
            during.append([get() for get in getters])
            return eig_banded(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eig_banded", recording)
        cfg = ShellConfig(2, 0.5, 0.3)
        orders = [solver.solve_steklov(cfg).basis.max_order]
        assert [get() for get in getters] == before
        solver.assemble_steklov(cfg, N=8)
        assert [get() for get in getters] == before
        for solve, _, _, _ in PROBLEMS.values():
            orders.append(solve(ShellConfig(2, 0.2, 0.7)).basis.max_order)
            assert [get() for get in getters] == before
        # Two eig_banded calls per order, one per mirror family, at the
        # orders 32, 64, ... up to where each gate stopped.
        calls = sum(2 * int(math.log2(N // solver.FIRST_ORDER) + 1) for N in orders)
        assert during == [[1] * len(getters)] * calls

    def test_thread_setter_uses_get_set_pair(self):
        count = [4]

        def get():
            return count[0]

        def put(n):
            count[0] = n

        lib = SimpleNamespace(scipy_openblas_get_num_threads64_=get,
                              scipy_openblas_set_num_threads64_=put)
        swap = solver._thread_setter(lib)
        assert swap(1) == 4 and count == [1]
        assert swap(4) == 1 and count == [4]
        assert solver._thread_setter(SimpleNamespace()) is None

    @staticmethod
    def _fake_setter(monkeypatch, start: int):
        """Route the solver's scopes to one fake library at count start; returns (count, sets)."""
        count, sets = [start], []

        def get():
            return count[0]

        def put(n):
            sets.append(n)
            count[0] = n

        lib = SimpleNamespace(openblas_get_num_threads=get, openblas_set_num_threads=put)
        swap = solver._thread_setter(lib)
        monkeypatch.setattr(solver, "_openblas_thread_setters", lambda: (swap,))
        return count, sets

    def test_scope_at_one_thread_calls_no_setter(self, monkeypatch):
        # Setting even an unchanged count restarts OpenBLAS's thread server,
        # so a process already at 1, like a forked pool worker, must not set.
        count, sets = self._fake_setter(monkeypatch, 1)
        with solver._one_blas_thread():
            assert count == [1]
        res = solver.solve_steklov(ShellConfig(2, 0.5, 0.3))
        assert math.isfinite(res.residual)
        assert sets == [] and count == [1]

    def test_nested_scopes_restore_the_outer_count(self, monkeypatch):
        count, sets = self._fake_setter(monkeypatch, 4)
        with solver._one_blas_thread():
            with solver._one_blas_thread():
                assert count == [1]
            assert count == [1]
        assert count == [4]
        assert sets == [1, 4]

    def test_unusual_maps_lines_do_not_break_a_solve(self, monkeypatch, tmp_path):
        # Library paths with a space, a " (deleted)" mark, a name that is not
        # valid UTF-8, and a mapping with no path at all.
        getters = _blas_thread_getters()
        if not getters:
            pytest.skip("no OpenBLAS loaded")
        spaced = tmp_path / "My Projects"
        spaced.mkdir()
        links = []
        for path in _blas_paths():
            link = spaced / os.path.basename(path)
            link.symlink_to(path)
            links.append(str(link))
        maps = b"".join(
            b"7f0000000000-7f0000001000 r-xp 00000000 08:01 1    " + os.fsencode(link) + b"\n"
            for link in links
        ) + (
            b"7f0000002000-7f0000003000 r-xp 00000000 08:01 2    /gone/libscipy_openblas-0.so (deleted)\n"
            b"7f0000004000-7f0000005000 r--p 00000000 08:01 3    /data/caf\xe9/libopenblas.so\n"
            b"7f0000006000-7f0000007000 rw-p 00000000 00:00 0\n"
        )
        assert solver._openblas_paths(maps) == sorted(
            links + ["/gone/libscipy_openblas-0.so (deleted)", os.fsdecode(b"/data/caf\xe9/libopenblas.so")]
        )
        maps_file = tmp_path / "maps"
        maps_file.write_bytes(maps)
        monkeypatch.setattr(solver, "_MAPS", str(maps_file))
        solver._openblas_thread_setters.cache_clear()
        try:
            # The links reopen the loaded libraries; the other two paths are skipped.
            assert len(solver._openblas_thread_setters()) == len(links)
            before = [get() for get in getters]
            res = solver.solve_steklov(ShellConfig(2, 0.5, 0.3))
            assert math.isfinite(res.eigenvalues[0])
            assert [get() for get in getters] == before
        finally:
            solver._openblas_thread_setters.cache_clear()

"""Planar eigensolver in the conformal frame."""

import dataclasses
import gc
import math
import sys

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


def _gate_chain(cfg, kind, top):
    """The gate's solves at FIRST_ORDER, 2 FIRST_ORDER, ..., top, each seeded from the last."""
    runs, N = [], solver.FIRST_ORDER
    while N <= top:
        runs.append(solver._solve_at_order(cfg, N, kind, runs[-1] if runs else None))
        N *= 2
    return runs


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
            root = solver._order_n(solver._factors(basis), odd)[0]
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
                                         for block in solver._order_n(solver._factors(basis), odd)[0]))
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
               if v > solver.ZERO_MODE_TOL and res.odd[i]]
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
        factors = solver._factors(res.basis)
        spectra = {odd: np.linalg.eigvalsh(_dense(solver._band(*solver._order_n(factors, odd))))
                   for odd in (False, True)}
        for i, value in enumerate(res.eigenvalues):
            own = spectra[bool(res.odd[i])]
            assert np.abs(own - value).min() < 1e-12 * max(1.0, value)
        assert not res.odd[0]

    def test_concentric_double_mode_splits_across_the_families(self):
        res = solver.solve_steklov(ShellConfig(2, 0.5, 0.0))
        assert {bool(res.odd[res.mode]), bool(res.odd[res.mode + 1])} == {False, True}


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
        values = [run.principal for run in _gate_chain(cfg, kind, N)[-3:]]
        assert res.principal == values[2]
        assert abs(values[2] - values[1]) <= solver.GATE_RTOL * values[2]
        assert abs(values[1] - values[0]) > solver.GATE_RTOL * values[1]
        # The seeded chain keeps the unseeded solve's value to rounding.
        assert res.principal == pytest.approx(solver._solve_at_order(cfg, N, kind).principal, rel=1e-14)

    def test_default_sweep_rows_stop_well_below_the_cap(self):
        # Each row stops at the first order that passes either test, never
        # above the order where two successive values first agree, and within
        # GATE_RTOL of that order's value.
        rtol, orders = solver.GATE_RTOL, set()
        for a in (0.15, 0.45, 0.85):
            for d in np.linspace(0.0, 0.95 * (1.0 - a), 21):
                cfg = ShellConfig(2, a, float(d))
                for kind in ("steklov", "dirichlet"):
                    res = solver._solve(cfg, kind)
                    runs, passed, N = [], None, solver.FIRST_ORDER
                    while True:
                        run = solver._solve_at_order(cfg, N, kind, runs[-1] if runs else None)
                        agree = bool(runs) and abs(run.principal - runs[-1].principal) <= rtol * run.principal
                        if passed is None and (run.tail_residual <= rtol * run.principal or agree):
                            passed = run
                        if agree:
                            break
                        runs.append(run)
                        N *= 2
                    assert res.basis.max_order == passed.basis.max_order <= N
                    assert res.principal == passed.principal
                    assert abs(res.principal - run.principal) <= rtol * run.principal
                    orders.add(res.basis.max_order)
        assert solver.FIRST_ORDER in orders
        assert max(orders) <= solver.MAX_ORDER // 8

    def test_eig_banded_runs_at_the_first_order_and_on_read(self, monkeypatch):
        # Each eig_banded and inverse-iteration call, with its band's size:
        # circles (N + 1) for the even family at order N, circles N for the
        # odd, so no two orders or families of a gate share one.
        eig_banded, refine, calls = scipy.linalg.eig_banded, solver._refine, []
        monkeypatch.setattr(scipy.linalg, "eig_banded", lambda band, *args, **kwargs: (
            calls.append(("eig_banded", band.shape[1])) or eig_banded(band, *args, **kwargs)))
        monkeypatch.setattr(solver, "_refine", lambda band, *args: (
            calls.append(("refine", band.shape[1])) or refine(band, *args)))
        # Gates stopping at orders 32 (0.5, 0.3) and 128 (0.2, 0.7): eig_banded
        # once, on the even family at the first order, and inverse iteration
        # once per order, on the even family alone.
        # The first read of first_values or of the spectrum runs the odd
        # family's chain as the gate would: eig_banded at the first order,
        # inverse iteration at each.  The spectrum's own two eig_banded calls
        # come first when it is read first.
        gates = [(solver.solve_steklov, ShellConfig(2, 0.5, 0.3), 32, "first_values")]
        gates += [(solve, ShellConfig(2, 0.2, 0.7), 128, "eigenvalues") for solve, _, _, _ in PROBLEMS.values()]
        for solve, cfg, order, first_read in gates:
            res = solve(cfg)
            assert res.basis.max_order == order
            orders = [N for N in (32, 64, 128) if N <= order]
            even = [res.basis.circles * (N + 1) for N in orders]
            odd = [res.basis.circles * N for N in orders]
            assert calls == [("eig_banded", even[0])] + [("refine", n) for n in even]
            calls.clear()
            res.principal, res.family, res.tail_residual
            assert calls == []
            replay = [("eig_banded", odd[0])] + [("refine", n) for n in odd]
            spectrum = [("eig_banded", even[-1]), ("eig_banded", odd[-1])]
            getattr(res, first_read)
            if first_read == "first_values":
                assert calls == replay
                res.eigenvalues
            expected = replay + spectrum if first_read == "first_values" else spectrum + replay
            assert calls == expected
            res.first_values, res.eigenvalues, res.odd, res.mode, res.width, res.family
            assert calls == expected
            res.residual
            assert [call for call in calls if call[0] == "eig_banded"] == [
                call for call in expected if call[0] == "eig_banded"]
            calls.clear()

    @pytest.mark.parametrize("problem", list(PROBLEMS))
    @pytest.mark.parametrize("a, d, order", [(0.5, 0.0, 32), (0.15, 0.8075, 256)])
    def test_each_order_builds_its_frame_and_factors_once(self, problem, a, d, order, monkeypatch):
        # Both families and the tail residual read one build on the modes
        # 0..N+1, also at the concentric Steklov tie, where both are solved.
        calls = {"_frame": 0, "_factors": 0}
        for name in calls:
            def counting(*args, _name=name, _fn=getattr(solver, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(solver, name, counting)
        res = PROBLEMS[problem][0](ShellConfig(2, a, d))
        assert res.basis.max_order == order
        assert (res.odd_value is not None) == ((a, d, problem) == (0.5, 0.0, "steklov"))
        orders = int(math.log2(order // solver.FIRST_ORDER)) + 1
        assert calls == {"_frame": orders, "_factors": orders}

    def test_the_cap_raises_with_the_last_two_values(self, monkeypatch):
        monkeypatch.setattr(solver, "MAX_ORDER", 64)
        cfg = ShellConfig(2, 0.15, 0.8075)
        with pytest.raises(NonConvergenceError) as exc:
            solver.solve_steklov(cfg)
        values = [run.principal for run in _gate_chain(cfg, "steklov", 64)]
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


class TestTailResidual:
    @pytest.mark.parametrize("kind", ["steklov", "dirichlet"])
    @pytest.mark.parametrize("odd", [False, True])
    @pytest.mark.parametrize("a, d", [(0.5, 0.3), (0.15, 0.6), (0.2, 0.76)])
    def test_closed_form_is_the_padded_residual(self, kind, odd, a, d):
        # At N = 16 the tail is above 5e-6 in every case, so the in-band
        # rounding of A y - rho y does not show at 1e-12.
        N = 16
        basis = solver.TrefftzBasis(max_order=N, a=a, d=d, kind=kind)
        factors = solver._order_n(solver._factors(basis), odd)
        band = solver._band(*factors)
        first = int(kind == "steklov" and not odd)
        guess = scipy.linalg.eig_banded(band[len(band) // 2:], lower=True, eigvals_only=True)[first]
        rho, y, _ = solver._refine(band, *factors, guess)
        eta = solver._tail_residual(solver._factors(basis), y)
        wide = _dense(solver._band(*solver._order_n(
            solver._factors(dataclasses.replace(basis, max_order=N + 4)), odd)))
        padded = np.concatenate((y, np.zeros(len(wide) - len(y))))
        assert np.linalg.norm(wide @ padded - rho * padded) == pytest.approx(eta, rel=1e-12)

    @pytest.mark.parametrize("kind", ["steklov", "dirichlet"])
    @pytest.mark.parametrize("a, d", [(0.5, 0.3), (0.15, 0.6), (0.2, 0.76)])
    def test_result_carries_the_principal_tail_and_its_width(self, kind, a, d):
        res = solver._solve_at_order(ShellConfig(2, a, d), 16, kind)
        odd = bool(res.odd[res.mode])
        factors = solver._order_n(solver._factors(res.basis), odd)
        _, y, _ = solver._refine(solver._band(*factors), *factors, res.principal)
        assert res.tail_residual == pytest.approx(solver._tail_residual(solver._factors(res.basis), y),
                                                  rel=1e-10)
        # nu is the next value of the principal family at the same order.
        nu = res.eigenvalues[res.mode + 1:][res.odd[res.mode + 1:] == odd][0]
        assert res.width == pytest.approx(res.tail_residual ** 2 / (nu - res.principal), rel=1e-10)

    @pytest.mark.parametrize("a, d", [(0.5, 0.3), (0.15, 0.8075)])
    def test_width_estimates_the_distance_to_the_converged_value(self, a, d):
        cfg = ShellConfig(2, a, d)
        converged = solver.solve_steklov(cfg).principal
        for N in (64, 128):
            res = solver._solve_at_order(cfg, N, "steklov")
            assert 0.0 <= res.principal - converged <= max(res.width, 1e-14 * converged)

    def test_inverse_iteration_factors_each_shifted_band_once(self, monkeypatch):
        calls = {"dgbtrf": 0, "dgbtrs": 0}
        for name in calls:
            def counting(*args, _name=name, _fn=getattr(scipy.linalg.lapack, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(scipy.linalg.lapack, name, counting)
        monkeypatch.setattr(scipy.linalg, "solve_banded", None)
        solver.solve_steklov(ShellConfig(2, 0.5, 0.3)).first_values  # and the odd family on read
        assert calls["dgbtrf"] >= 2
        assert calls["dgbtrs"] == 2 * calls["dgbtrf"]


class TestCertificate:
    @pytest.mark.parametrize("N", [32, 64, 256])
    @pytest.mark.parametrize("a, d", [(0.5, 0.0), (0.5, 0.3), (0.15, 0.8075), (0.2, 0.76),
                                      (0.85, 0.1), (0.5, 0.4999)])
    def test_positive_definite_where_only_the_kernel_lies_below_the_shift(self, a, d, N):
        # Shifts midway between consecutive eig_banded values, and just below
        # the second and third; the constants' zero counts as one value.  At
        # d = 0 some values of different modes coincide to rounding, and no
        # shift lies between them.
        for kind in ("steklov", "dirichlet"):
            build = solver._factors(solver.TrefftzBasis(max_order=N, a=a, d=d, kind=kind))
            for odd in (False, True):
                factors = solver._order_n(build, odd)
                band = solver._band(*factors)
                vals = scipy.linalg.eig_banded(band[len(band) // 2:], lower=True, eigvals_only=True)
                kernel = kind == "steklov" and not odd
                if kernel:
                    vals[0] = 0.0
                apart = np.diff(vals[kernel:]) > 1e-9 * vals[kernel + 1:]
                shifts = np.concatenate((((vals[kernel:-1] + vals[kernel + 1:]) / 2)[apart],
                                         vals[[1, 2]] * (1.0 - 1e-9)))
                for s in shifts:
                    assert solver._positive_definite(*factors, s, kernel) == (np.sum(vals < s) == kernel)

    def test_a_zero_pivot_is_uncertified(self):
        # At s = 1 the first pivot of M - s S^-1 is exactly 0, for both pivot sizes.
        with np.errstate(all="raise"):
            for root, m in ((np.ones((3, 1, 1)), np.array([1.0])),
                            (np.tile(np.eye(2), (3, 1, 1)), np.array([1.0, 1.0]))):
                assert solver._positive_definite(root, m, np.full(2, 0.5), 1.0, False) is False

    @pytest.mark.parametrize("pivot", [math.nan, math.inf])
    def test_a_non_finite_pivot_is_uncertified(self, pivot):
        # The banded Cholesky stops only at a pivot <= 0: a NaN or +inf one
        # factors without error, so only the factor's finiteness refuses it.
        assert scipy.linalg.lapack.dpbtrf(np.array([[pivot, 1.0], [0.0, 0.0]]), lower=1)[1] == 0
        for root, m in ((np.ones((3, 1, 1)), np.array([pivot])),
                        (np.tile(np.eye(2), (3, 1, 1)), np.array([pivot, 1.0]))):
            assert solver._positive_definite(root, m, np.full(2, 0.5), 0.5, False) is False

    def test_a_tiny_hole_runs_with_numpy_raising(self):
        # At a = 1e-300 the inner circle's entries of M are near 1e300, and the
        # kernel's entry would divide by zero; cli.main runs commands with numpy raising.
        factors = solver._order_n(
            solver._factors(solver.TrefftzBasis(max_order=32, a=1e-300, d=0.5, kind="steklov")), False)
        with np.errstate(all="raise"):
            assert isinstance(solver._positive_definite(*factors, 0.5, True), bool)

    @pytest.mark.parametrize("kind", ["steklov", "dirichlet"])
    def test_a_seed_at_the_second_value_falls_back_to_the_unseeded_solve(self, kind, monkeypatch):
        cfg, N = ShellConfig(2, 0.2, 0.7), 64
        cold = solver._solve_at_order(cfg, N, kind)
        even = cold.eigenvalues[~cold.odd]
        second = float(even[2 if kind == "steklov" else 1])
        below = dataclasses.replace(cold, even_value=second)
        certified, positive_definite = [], solver._positive_definite
        monkeypatch.setattr(solver, "_positive_definite",
                            lambda *args: certified.append(positive_definite(*args)) or certified[-1])
        seeded = solver._solve_at_order(cfg, N, kind, below)
        assert certified[0] is False  # the inverse iteration found the second mode
        assert certified[1:] == [True]  # then the unseeded solve, and the odd family's certificate
        assert (seeded.even_value, seeded.odd_value) == (cold.even_value, None)
        assert seeded.principal == cold.principal
        assert seeded.tail_residual == cold.tail_residual

    @pytest.mark.parametrize("kind", ["steklov", "dirichlet"])
    def test_a_quotient_off_by_less_than_the_gate_tolerance_falls_back(self, kind, monkeypatch):
        # A seeded quotient 1e-11 relative above the order-N value, which the
        # gate would take as agreeing, is refused: the certificate's margin is
        # the banded rounding, near 1e-13 here, not GATE_RTOL.
        cfg, N = ShellConfig(2, 0.2, 0.7), 64
        cold = solver._solve_at_order(cfg, N, kind)
        refine = solver._refine
        monkeypatch.setattr(solver, "_refine", lambda *args: (lambda v, y, Mv: (v * (1.0 + 1e-11), y, Mv))(
            *refine(*args)))
        certified, positive_definite = [], solver._positive_definite
        monkeypatch.setattr(solver, "_positive_definite",
                            lambda *args: certified.append(positive_definite(*args)) or certified[-1])
        solver._solve_at_order(cfg, N, kind, cold)
        # Then the unseeded solve, which certifies nothing, and the odd family's certificate.
        assert certified == [False, True]
        monkeypatch.setattr(solver, "_refine", refine)
        seeded = solver._solve_at_order(cfg, N, kind, cold)
        assert certified[2:] == [True, True]
        assert seeded.first_values == pytest.approx(cold.first_values, rel=1e-14)

    @pytest.mark.parametrize("kind", ["steklov", "dirichlet"])
    def test_the_spectrum_read_is_the_unseeded_one_at_the_order_solved(self, kind):
        # (0.15, 0.8075) stops at order 256, seeded from 128; the unseeded solve
        # there has the same spectrum but for the first modes' quotients.
        cfg = ShellConfig(2, 0.15, 0.8075)
        res = solver._solve(cfg, kind)
        cold = solver._solve_at_order(cfg, res.basis.max_order, kind)
        assert res.basis.max_order == 256
        assert res.eigenvalues[res.mode] == res.principal
        assert np.array_equal(res.odd, cold.odd) and res.mode == cold.mode
        first = [np.flatnonzero(res.odd == odd)[int(kind == "steklov" and not odd)] for odd in (False, True)]
        rest = np.setdiff1d(np.arange(len(res.eigenvalues)), first)
        assert np.array_equal(res.eigenvalues[rest], cold.eigenvalues[rest])
        assert res.eigenvalues[first] == pytest.approx(cold.eigenvalues[first], rel=1e-14)
        assert res.width == pytest.approx(cold.width, rel=1e-6)


def _both_families_order(cfg, N, kind, seeds=None):
    """One order of a gate that solves both families, with no odd family's certificate: the reference.

    Each family's seed, or without seeds its eig_banded value, is refined;
    two seeded quotients stand only if both certificates pass, else both
    families are solved again without seeds.  Returns the first values and
    the principal's tail residual.
    """
    build = solver._factors(solver.TrefftzBasis(max_order=N, a=cfg.a, d=cfg.d, kind=kind))
    factors = [solver._order_n(build, odd) for odd in (False, True)]
    bands = [solver._band(*f) for f in factors]
    first = (int(kind == "steklov"), 0)
    rounding = np.finfo(float).eps * max(np.abs(band).sum(axis=0).max() for band in bands)
    start = seeds if seeds is not None else [solver._low_spectrum(b)[i] for b, i in zip(bands, first)]
    if not rounding <= solver.ROUNDING_RTOL * min(start):
        raise NonConvergenceError(f"the banded eigenvalues' rounding, {rounding:.3g} at order {N}, "
                                  "nears the principal value: the hole is too small")
    modes = [solver._refine(bands[f], *factors[f], start[f]) for f in (0, 1)]
    if seeds is not None and not all(
            solver._positive_definite(*factors[f], rho - 4.0 * rounding, bool(first[f]))
            for f, (rho, _, _) in enumerate(modes)):
        return _both_families_order(cfg, N, kind)
    values = (modes[0][0], modes[1][0])
    p = int(values[1] < values[0])
    return values, solver._tail_residual(build, modes[p][1])


def _both_families(cfg, kind):
    """The gate with both families solved at every order, as a result holding both values."""
    history, N, seeds = [], solver.FIRST_ORDER, None
    while True:
        assert N <= solver.MAX_ORDER
        values, tail = _both_families_order(cfg, N, kind, seeds)
        value = min(values)
        if tail <= solver.GATE_RTOL * value or history and abs(value - history[-1]) <= solver.GATE_RTOL * value:
            basis = solver.TrefftzBasis(max_order=N, a=cfg.a, d=cfg.d, kind=kind)
            return solver.EigResult(basis=basis, even_value=values[0], odd_value=values[1],
                                    tail_residual=tail)
        history.append(value)
        N, seeds = 2 * N, values


def _odd_family_factors(basis):
    """The odd family's (root, m, beta) built on its own modes 1..N from the closed forms: the reference."""
    f0 = basis.frame
    k = basis.modes(True).astype(float)
    L = -math.log(f0.rho)
    if basis.kind == "steklov":
        half = np.tanh(0.5 * L * k)
        low, high = np.sqrt(k * half), np.sqrt(k / half)
        p, q = 0.5 * (low + high), 0.5 * (low - high)
        root = np.stack((np.stack((p, q), axis=-1), np.stack((q, p), axis=-1)), axis=1)
        m = np.array([1.0 + f0.c ** 2, (1.0 + (f0.c * f0.rho) ** 2) / f0.rho]) / f0.kappa
    else:
        root = np.sqrt(k / np.tanh(L * k))[:, None, None]
        m = np.array([(1.0 + f0.c ** 2) / f0.kappa])
    return root, m, np.full(len(k) - 1, -f0.c / f0.kappa)  # no coupling to the constant


def _fields(res):
    return (res.principal, res.first_values, res.family, res.eigenvalues.tobytes(), res.odd.tobytes(),
            res.mode, res.width, res.tail_residual, res.basis.max_order)


# Concentric, nearly concentric, near contact, gates to high orders, and a tiny hole.
ODD_COUNT_CASES = [(0.5, 0.0), (0.3, 0.0), (0.5, 1e-9), (0.15, 0.8075), (0.2, 0.76), (0.5, 0.3),
                   (0.5, 0.4999), (1e-8, 0.5)]


class TestOddCount:
    @pytest.mark.parametrize("kind", ["steklov", "dirichlet"])
    @pytest.mark.parametrize("a, d", ODD_COUNT_CASES)
    def test_the_gate_keeps_the_both_families_result(self, kind, a, d):
        cfg = ShellConfig(2, a, d)
        assert _fields(solver._solve(cfg, kind)) == _fields(_both_families(cfg, kind))

    @pytest.mark.parametrize("kind", ["steklov", "dirichlet"])
    @pytest.mark.parametrize("N", [32, 64, 256, 2048])
    @pytest.mark.parametrize("a, d", [(0.5, 0.0), (0.5, 0.3), (0.15, 0.8075), (0.5, 0.4999), (1e-8, 0.5)])
    def test_the_odd_certificate_reads_the_odd_factors(self, kind, N, a, d, monkeypatch):
        # _solve_at_order certifies the odd family on the one build's factors past
        # mode 0, which _odd_mode, _spectrum and boundary_residual slice as well:
        # the same bits as the odd family's own factors on its modes 1..N.
        basis = solver.TrefftzBasis(max_order=N, a=a, d=d, kind=kind)
        reference = _odd_family_factors(basis)
        assert len(reference[0]) == N
        sliced = solver._order_n(solver._factors(basis), True)
        assert all(np.array_equal(x, y) for x, y in zip(sliced, reference))
        positive_definite, certified = solver._positive_definite, []

        def recording(*args):
            if sys._getframe(1).f_code.co_name == "_solve_at_order":
                certified.append(args[:3])
            return positive_definite(*args)

        monkeypatch.setattr(solver, "_positive_definite", recording)
        solver._solve_at_order(ShellConfig(2, a, d), N, kind)
        assert len(certified) == 1
        assert all(np.array_equal(x, y) for x, y in zip(certified[0], reference))

    @pytest.mark.parametrize("kind", ["steklov", "dirichlet"])
    @pytest.mark.parametrize("a, d", [case for case in ODD_COUNT_CASES if case != (0.5, 0.4999)])
    def test_an_odd_count_that_fails_solves_the_odd_family(self, kind, a, d, monkeypatch):
        # The odd family's certificate is the one made by _solve_at_order
        # itself; the others are _first_mode's.  (0.5, 0.4999), whose order-2048
        # spectra take seconds, is left out; (0.15, 0.8075) seeds up to order 256.
        cfg = ShellConfig(2, a, d)
        expected, positive_definite, forced_calls = _fields(_both_families(cfg, kind)), solver._positive_definite, []

        def failing(*args):
            if sys._getframe(1).f_code.co_name == "_solve_at_order":
                forced_calls.append(args)
                return False
            return positive_definite(*args)

        monkeypatch.setattr(solver, "_positive_definite", failing)
        res = solver._solve(cfg, kind)
        assert res.odd_value is not None
        assert len(forced_calls) == int(math.log2(res.basis.max_order // solver.FIRST_ORDER)) + 1  # one per order
        assert _fields(res) == expected

    @pytest.mark.parametrize("a, d", [(1e-13, 0.5), (1e-14, 0.1), (1e-14, 0.5), (2e-15, 0.3),
                                      (2e-15, 0.7)])
    def test_a_refused_hole_is_refused_where_both_families_refuse(self, a, d):
        # The gate judges the even family's start value alone, the reference the
        # lower of both families': both refuse at the same order, with the same rounding.
        cfg = ShellConfig(2, a, d)
        with pytest.raises(NonConvergenceError) as both:
            _both_families(cfg, "steklov")
        with pytest.raises(NonConvergenceError, match="the hole is too small") as gate:
            solver.solve_steklov(cfg)
        assert str(gate.value) == str(both.value)

    def test_the_count_separates_the_families_off_center(self):
        # Every row of the default sweep grids off center leaves the odd family
        # unsolved, and the concentric Steklov rows, where the families tie, solve it.
        for a in (0.15, 0.2827, 0.5073, 0.7287, 0.85):
            for d in np.linspace(0.0, 0.95 * (1.0 - a), 21).tolist():
                for kind in ("steklov", "dirichlet"):
                    res = solver._solve(ShellConfig(2, a, d), kind)
                    assert (res.odd_value is not None) == (d == 0.0 and kind == "steklov")


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
        # The first order's tail residual already passes the gate.
        cfg = ShellConfig(2, 0.5, 0.1)
        res = solver.solve_steklov(cfg)
        assert res.basis.max_order == solver.FIRST_ORDER == 32
        assert res.basis.size == 4 * 32 + 2
        assert res.tail_residual <= solver.GATE_RTOL * res.principal
        assert res.principal == solver._solve_at_order(cfg, 32, "steklov").principal

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
        # value to ZERO_MODE_TOL.  The eig_banded calls are the even family's
        # at the solve, then on read the spectrum's even then odd one and the
        # odd family's replay; every even band, 2 (N + 1) columns, is lifted.
        eig_banded, calls = scipy.linalg.eig_banded, []

        def lifted(band, *args, **kwargs):
            vals = eig_banded(band, *args, **kwargs)
            calls.append(band.shape[1])
            if band.shape[1] == 2 * (8 + 1):
                vals[0] = solver.ZERO_MODE_TOL
            return vals

        monkeypatch.setattr(scipy.linalg, "eig_banded", lifted)
        cfg = ShellConfig(2, 0.5, 0.3)
        res = solver._solve_at_order(cfg, 8, "steklov")
        assert calls == [18]
        assert res.eigenvalues[0] == 0.0
        assert calls == [18, 18, 16, 16]  # the spectrum is computed again on read
        assert res.mode == 1
        assert res.residual == solver.boundary_residual(res, 1)


class TestDerivedFields:
    def test_result_holds_only_what_the_solve_produced(self):
        # The odd family's first value (unless the solve needed it), the low
        # spectrum, the mode index and the width are computed on read.
        names = [f.name for f in dataclasses.fields(solver.EigResult)]
        assert names == ["basis", "even_value", "tail_residual", "odd_value", "_below",
                         "_band_rounding"]
        hidden = [f for f in dataclasses.fields(solver.EigResult) if f.name.startswith("_")]
        assert not any(f.repr or f.compare for f in hidden)
        for gone in ("first_nonzero", "n_points", "gram_condition", "coefficients"):
            assert not hasattr(solver.EigResult, gone)
        res = solver.solve_steklov(ShellConfig(2, 0.5, 0.3))
        assert res.odd_value is None and res._below is None
        for name in ("principal", "family", "first_values", "residual", "eigenvalues", "odd",
                     "mode", "width"):
            with pytest.raises(AttributeError):
                setattr(res, name, 0.0)
        # At the concentric tie the certificate cannot separate the families, and the solve takes both.
        tie = solver.solve_steklov(ShellConfig(2, 0.5, 0.0))
        assert tie.odd_value is not None and tie.principal == min(tie.first_values)

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

